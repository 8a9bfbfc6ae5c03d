package scenario

import (
	"fmt"

	"github.com/netecon-sim/publicoption/internal/core"
	"github.com/netecon-sim/publicoption/internal/obs"
	"github.com/netecon-sim/publicoption/internal/sweep"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

// GridJob is a compiled 2-D grid scenario: the materialized CP population,
// both axes resolved to absolute model units, the output layer names, and a
// per-worker cell solver. The runner (RunGrid) and the serving layer's
// per-cell-cached batch endpoint both execute cells through a GridJob, so
// a cell solved locally and a cell solved behind the HTTP cache are the
// same computation.
//
// Cells are independent across rows; within a row they share warm-start
// state (each cell seeds the next along the column axis). The intended
// execution shape is therefore: rows distributed by work stealing
// (sweep.RunRows), columns sequential through one GridWorker.
type GridJob struct {
	// Xs are the resolved column-axis values (absolute ν for a "nu" axis,
	// never fractions of saturation), Ys the resolved row-axis values.
	Xs, Ys []float64
	// XAxis and YAxis are the Axis* constants of the column and row axes.
	XAxis, YAxis string
	// Layers names the scalar fields each cell produces, in output order:
	// "phi" for the market-level consumer surplus Φ, metric/provider (e.g.
	// "share/incumbent") for per-provider metrics.
	Layers []string

	scenario *Scenario
	pop      traffic.Population
	// fixedNu is the resolved absolute per-capita capacity ν when neither
	// axis is "nu"; 0 otherwise (the axis supplies ν per cell).
	fixedNu float64
}

// Cell is the outcome of one grid cell: its position, its resolved
// coordinates, and one value per layer.
type Cell struct {
	// Row and Col index into the job's Ys and Xs.
	Row int `json:"row"`
	Col int `json:"col"`
	// X and Y are the resolved coordinates (absolute model units).
	X float64 `json:"x"`
	Y float64 `json:"y"`
	// Values holds one scalar per layer name (see GridJob.Layers).
	Values map[string]float64 `json:"values"`
}

// CellSpec is the content-addressable specification of one grid cell: the
// parts of the scenario that change the solved numbers (population,
// providers, metrics) plus the cell's resolved absolute coordinates —
// and nothing else. Cosmetic fields (name, title, description, reference)
// and the grid's own bounds are deliberately excluded, so re-running an
// edited grid re-solves only cells whose physics actually changed: growing
// a 10×10 grid to 20×20 re-uses every coincident cell, and renaming the
// scenario re-uses all of them.
type CellSpec struct {
	Population PopulationSpec `json:"population"`
	Providers  []ProviderSpec `json:"providers"`
	XAxis      string         `json:"x_axis"`
	X          float64        `json:"x"`
	YAxis      string         `json:"y_axis"`
	Y          float64        `json:"y"`
	// Nu is the fixed absolute per-capita capacity ν; 0 when one of the
	// axes is "nu" (the coordinate supplies it).
	Nu      float64  `json:"nu,omitempty"`
	Metrics []string `json:"metrics"`
}

// CompileGrid validates the scenario and compiles its 2-D sweep into a
// grid job. Non-grid scenarios are rejected (use Run).
func (s *Scenario) CompileGrid() (*GridJob, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if !s.IsGrid() {
		return nil, fmt.Errorf("scenario %q: declares a 1-D sweep (axis %q); solve it with Run", s.Name, s.Sweep.Axis)
	}
	pop, err := s.Population.Materialize()
	if err != nil {
		return nil, err
	}
	sat := pop.TotalUnconstrainedPerCapita()
	j := &GridJob{
		XAxis:    s.Sweep.Axis,
		YAxis:    s.Sweep.Grid.Axis,
		Xs:       s.Sweep.XValues(),
		Ys:       s.Sweep.Grid.RowValues(),
		scenario: s,
		pop:      pop,
	}
	if j.XAxis == AxisNu {
		j.Xs = s.resolveNu(j.Xs, sat)
	}
	if j.YAxis == AxisNu {
		j.Ys = s.resolveNu(j.Ys, sat)
	}
	if j.XAxis != AxisNu && j.YAxis != AxisNu {
		j.fixedNu = s.Sweep.Nu
		if s.Sweep.OfSaturation {
			j.fixedNu *= sat
		}
	}
	for _, m := range s.Sweep.metrics() {
		if m == MetricPhi {
			j.Layers = append(j.Layers, MetricPhi)
			continue
		}
		for _, p := range s.Providers {
			j.Layers = append(j.Layers, m+"/"+p.Name)
		}
	}
	return j, nil
}

// Cells returns the total cell count (rows × columns).
func (j *GridJob) Cells() int { return len(j.Xs) * len(j.Ys) }

// CellSpec returns the content address of cell (row, col) — what the batch
// endpoint hashes into the equilibrium cache key.
func (j *GridJob) CellSpec(row, col int) CellSpec {
	return j.CellSpecAt(j.Xs[col], j.Ys[row])
}

// CellSpecAt returns the content address of the point at resolved
// coordinates (x, y). It is coordinate-based, not index-based, so adaptive
// refinement shares cache entries with any dense grid whose lattice lands
// on the same coordinates.
func (j *GridJob) CellSpecAt(x, y float64) CellSpec {
	return CellSpec{
		Population: j.scenario.Population,
		Providers:  j.scenario.Providers,
		XAxis:      j.XAxis,
		X:          x,
		YAxis:      j.YAxis,
		Y:          y,
		Nu:         j.fixedNu,
		Metrics:    j.scenario.Sweep.metrics(),
	}
}

// NewGrid allocates the zero-filled result grid matching this job.
func (j *GridJob) NewGrid() *sweep.Grid {
	return sweep.NewGrid(j.scenario.Title, j.XAxis, j.YAxis, j.Xs, j.Ys, j.Layers)
}

// GridWorker owns one warm-started solver (and, through it, the reusable
// allocation-free equilibrium workspaces). Workers are not safe for
// concurrent use; create one per goroutine with NewWorker and feed it cells
// in column order within a row to get the warm-start benefit.
type GridWorker struct {
	job *GridJob
	mk  *core.Market
}

// NewWorker returns a fresh worker with its own solver state.
func (j *GridJob) NewWorker() *GridWorker { return &GridWorker{job: j} }

// Stats returns the worker's cumulative solver telemetry (zero before the
// first SolveCell builds the market). Workers are single-goroutine; callers
// aggregating across workers publish each worker's stats to an obs.Counters
// sink once the worker is done.
func (w *GridWorker) Stats() obs.SolveStats {
	if w.mk == nil {
		return obs.SolveStats{}
	}
	return w.mk.Solver.Stats()
}

// SolveCell solves cell (row, col) and returns its layer values.
func (w *GridWorker) SolveCell(row, col int) Cell {
	j := w.job
	x, y := j.Xs[col], j.Ys[row]
	return Cell{Row: row, Col: col, X: x, Y: y, Values: w.SolveAt(x, y)}
}

// SolveAt solves the market at arbitrary resolved coordinates (x, y) — not
// necessarily on the grid's own lattice — and returns the layer values.
// This is the adaptive refinement entry point: refined lattice points and
// verification probes land between the seed knots. Axis domains are convex,
// so any point between validated grid bounds is itself valid.
func (w *GridWorker) SolveAt(x, y float64) map[string]float64 {
	j := w.job
	nu := j.fixedNu
	var axes []axisValue
	if j.XAxis == AxisNu {
		nu = x
	} else {
		axes = append(axes, axisValue{j.XAxis, x})
	}
	if j.YAxis == AxisNu {
		nu = y
	} else {
		axes = append(axes, axisValue{j.YAxis, y})
	}
	if w.mk == nil {
		w.mk = core.NewMarket(core.NewSolver(nil), j.pop, nu)
		w.mk.MigrationTol = 1e-7
	} else {
		w.mk.NuBar = nu // keeps the per-ISP warm partitions
	}
	pt := j.scenario.solveAt(w.mk, axes)
	return j.cellValues(pt)
}

// cellValues flattens a solved point into the job's layer map.
func (j *GridJob) cellValues(pt point) map[string]float64 {
	vals := make(map[string]float64, len(j.Layers))
	for _, m := range j.scenario.Sweep.metrics() {
		if m == MetricPhi {
			vals[MetricPhi] = pt.phi
			continue
		}
		for k, p := range j.scenario.Providers {
			var v float64
			switch m {
			case MetricPsi:
				v = pt.psi[k]
			case MetricShare:
				v = pt.share[k]
			case MetricUtilization:
				v = pt.util[k]
			}
			vals[m+"/"+p.Name] = v
		}
	}
	return vals
}

// RunGrid validates and solves a 2-D grid scenario: rows are distributed
// across workers by work stealing (sweep.RunRows), each row gets a fresh
// warm-started GridWorker, and cells within a row warm-start each other
// along the column axis. Warm starts never cross rows, so every cell is the
// same computation whichever worker claims its row: the grid is
// bit-identical across worker counts and reruns. The result is one grid
// with one layer per recorded metric (per metric and provider for
// per-provider metrics).
func (s *Scenario) RunGrid(opt RunOptions) (*sweep.Grid, error) {
	job, err := s.CompileGrid()
	if err != nil {
		return nil, err
	}
	g := job.NewGrid()
	sweep.RunRows(opt.workers(), len(job.Ys), func(_, row int) {
		w := job.NewWorker()
		for col := range job.Xs {
			cell := w.SolveCell(row, col)
			for li, name := range job.Layers {
				g.Layers[li].Z[row][col] = cell.Values[name]
			}
		}
		opt.Stats.Add(w.Stats())
	})
	return g, nil
}
