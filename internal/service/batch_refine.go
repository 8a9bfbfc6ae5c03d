package service

import (
	"context"
	"net/http"
	"time"

	"github.com/netecon-sim/publicoption/internal/cache"
	"github.com/netecon-sim/publicoption/internal/obs"
	"github.com/netecon-sim/publicoption/internal/refine"
	"github.com/netecon-sim/publicoption/internal/scenario"
)

// POST /v1/batch with "refine": true — the adaptive-refinement stream. The
// grid's declared axes seed a refinement run (internal/refine): the stream
// opens with the seed geometry, then carries every materialized lattice
// point and every finalized leaf cell as they are merged (deterministic
// order, any worker count), and closes with the refinement telemetry and
// the surrogate's verified error bound. The finished surrogate is cached
// under the scenario's content address, so a subsequent GET /v1/query on
// the same grid answers without solving; lattice points ride the same
// per-cell equilibrium cache as dense batch cells.

// pointFrame is one materialized lattice point of a refined stream.
type pointFrame struct {
	Point refinePoint `json:"point"`
	// Cache is "hit" for points served by the per-cell cache, "miss" for
	// points the run solved.
	Cache string `json:"cache"`
	Trace string `json:"trace,omitempty"`
}

type refinePoint struct {
	X      float64            `json:"x"`
	Y      float64            `json:"y"`
	Values map[string]float64 `json:"values"`
}

// leafFrame is one finalized leaf cell: the surrogate's bilinear patch over
// [X0,X1]×[Y0,Y1], refined Depth levels below the seed grid. Screened
// leaves were accepted by the cheap interpolant screen (no center solve).
type leafFrame struct {
	Leaf refineLeaf `json:"leaf"`
}

type refineLeaf struct {
	X0       float64 `json:"x0"`
	Y0       float64 `json:"y0"`
	X1       float64 `json:"x1"`
	Y1       float64 `json:"y1"`
	Depth    int     `json:"depth"`
	Screened bool    `json:"screened,omitempty"`
}

// refineDoneFrame closes a refined stream. Refine carries the run's full
// telemetry (points solved vs reused, splits, leaf-depth histogram);
// Verified/MaxError/Tolerance state the surrogate's error contract.
type refineDoneFrame struct {
	Done bool `json:"done"`
	// FineXs × FineYs is the virtual fine-lattice resolution the refined
	// surface resolves — the dense grid it replaces.
	FineXs    int             `json:"fine_xs"`
	FineYs    int             `json:"fine_ys"`
	Verified  bool            `json:"verified"`
	MaxError  float64         `json:"max_error"`
	Tolerance float64         `json:"tolerance"`
	Refine    obs.RefineStats `json:"refine"`
	ElapsedMS float64         `json:"elapsed_ms"`
}

// batchGridRefined streams an adaptive-refinement run of a grid scenario.
// Frames are emitted straight from the engine's sequential merge on the
// stream's goroutine — the engine's own worker pool solves rows in
// parallel underneath and probes the per-cell cache itself.
func (s *Server) batchGridRefined(w http.ResponseWriter, r *http.Request, sc *scenario.Scenario, job *scenario.GridJob, workers int) {
	surrKey, err := scenarioKey("refine/surrogate/v1", sc)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	var res *refine.Result
	s.streamUnits(w, r, &unitStream{
		kind: "grid", name: sc.Name, key: surrKey,
		header: gridHeader(sc, job, true),
		solve: func(ctx context.Context, out *streamOut) (obs.SolveStats, error) {
			var sink obs.Counters
			prob, flush := job.RefineProblem(&sink)
			lookup, store := s.cellHooks(job)
			var err error
			res, err = refine.Run(ctx, prob, job.RefineSpec(), refine.Options{
				Workers: workers,
				Lookup:  lookup,
				Store:   store,
				OnPoint: func(p refine.Point) error {
					status := cache.Miss.String()
					if p.Reused {
						status = cache.Hit.String()
					}
					return out.frame(&pointFrame{
						Point: refinePoint{X: p.X, Y: p.Y, Values: job.ValuesMap(p.Values)},
						Cache: status, Trace: out.echo,
					})
				},
				OnLeaf: func(l refine.Leaf) error {
					return out.frame(&leafFrame{Leaf: refineLeaf{
						X0: l.X0, Y0: l.Y0, X1: l.X1, Y1: l.Y1,
						Depth: l.Depth, Screened: l.Screened,
					}})
				},
			})
			flush()
			if err != nil {
				return sink.Snapshot(), err
			}
			st := res.Stats()
			s.refineCounters.Add(st)
			// Cache the surrogate so GET /v1/query answers this grid
			// solve-free from now on.
			s.store.Put(surrKey, res)
			out.solved = int(st.PointsSolved + st.ProbeSolves)
			return sink.Snapshot(), nil
		},
		done: func(_, _ int, elapsed time.Duration) any {
			fineXs, fineYs := res.FineDims()
			return &refineDoneFrame{
				Done: true, FineXs: fineXs, FineYs: fineYs,
				Verified: res.Verified(), MaxError: res.MaxError(), Tolerance: res.Tolerance(),
				Refine:    res.Stats(),
				ElapsedMS: millis(elapsed),
			}
		},
	})
}
