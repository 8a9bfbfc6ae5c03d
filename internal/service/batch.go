package service

import (
	"context"
	"encoding/json"
	"net/http"
	"time"

	"github.com/netecon-sim/publicoption/internal/cache"
	"github.com/netecon-sim/publicoption/internal/obs"
	"github.com/netecon-sim/publicoption/internal/scenario"
	"github.com/netecon-sim/publicoption/internal/sweep"
)

// POST /v1/batch — the streaming batch runner. One request solves either a
// list of named/inline scenarios or one 2-D grid scenario, and the response
// is NDJSON (application/x-ndjson): one frame per result, written and
// flushed as each completes, so a client watching a 30-minute grid sees
// cells arrive instead of a silent connection.
//
// Grid requests are cached cell-by-cell: every cell's content address
// (scenario.CellSpec — population, providers, axes, resolved coordinates,
// metrics; nothing cosmetic) is probed first, hits stream immediately, and
// only the missing cells are solved — grouped by row so the warm-started
// column sweep survives the cache holes. Re-running a grid after a small
// edit therefore re-solves only the cells whose physics changed, and
// re-running it unchanged solves zero.
//
// See docs/SERVICE.md for the full frame-by-frame contract.

// maxBatchScenarios bounds the scenario-list mode; a larger batch is better
// expressed as several requests (the cache makes re-submission free).
const maxBatchScenarios = 100

// batchRequest is the body of POST /v1/batch. Exactly one mode must be
// set: Scenarios (list mode) or Grid/GridJSON (grid mode).
type batchRequest struct {
	// Scenarios lists what to run: each element is either a JSON string
	// (a registered scenario name) or a JSON object (an inline scenario
	// definition, the docs/SCENARIOS.md schema).
	Scenarios []json.RawMessage `json:"scenarios,omitempty"`
	// Grid names a registered 2-D grid scenario; GridJSON inlines one.
	Grid     string          `json:"grid,omitempty"`
	GridJSON json.RawMessage `json:"grid_json,omitempty"`
	// Refine switches grid mode to adaptive refinement: instead of solving
	// every cell, the scenario's seed grid is refined where the surface
	// bends (internal/refine) and the stream carries lattice points and
	// leaf cells instead of dense cells. The resulting surrogate is cached,
	// warming GET /v1/query.
	Refine bool `json:"refine,omitempty"`
	// Workers overrides the solve's internal parallelism. Execution-only:
	// it does not participate in any cache key.
	Workers int `json:"workers,omitempty"`
}

// scenarioFrame is one completed scenario in list mode.
type scenarioFrame struct {
	Index int `json:"index"`
	RunResponse
}

// gridHeaderFrame opens a grid-mode stream with the resolved geometry, so
// clients can allocate before any cell arrives.
type gridHeaderFrame struct {
	Grid gridInfo `json:"grid"`
}

type gridInfo struct {
	Name   string    `json:"name"`
	Title  string    `json:"title"`
	XAxis  string    `json:"x_axis"`
	YAxis  string    `json:"y_axis"`
	Xs     []float64 `json:"xs"`
	Ys     []float64 `json:"ys"`
	Layers []string  `json:"layers"`
	Cells  int       `json:"cells"`
	// Refine marks a refined stream: Xs/Ys are the seed grid, Cells counts
	// seed cells, and the frames that follow are points and leaves, not
	// dense cells.
	Refine bool `json:"refine,omitempty"`
}

// cellFrame is one solved or cache-served grid cell. Trace carries the
// request's trace ID when the server runs with Options.Trace.
type cellFrame struct {
	Cell  scenario.Cell `json:"cell"`
	Cache string        `json:"cache"` // "hit" or "miss"
	Trace string        `json:"trace,omitempty"`
}

// listDoneFrame closes a list-mode stream.
type listDoneFrame struct {
	Done      bool    `json:"done"`
	Results   int     `json:"results"`
	Errors    int     `json:"errors"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// gridDoneFrame closes a grid-mode stream. Solved is 0 on a fully warm
// re-run — the number CI asserts on.
type gridDoneFrame struct {
	Done      bool    `json:"done"`
	Cells     int     `json:"cells"`
	Solved    int     `json:"solved"`
	CacheHits int     `json:"cache_hits"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := decodeJSONBody(w, r, &req, false); err != nil {
		writeError(w, bodyErrorStatus(err), "%v", err)
		return
	}
	listMode := len(req.Scenarios) > 0
	if listMode == (req.Grid != "" || len(req.GridJSON) > 0) {
		writeError(w, http.StatusBadRequest, "give exactly one of \"scenarios\" (a list of names or inline definitions) or \"grid\"/\"grid_json\" (one 2-D grid scenario)")
		return
	}
	workers := s.workers(req.Workers)
	if listMode {
		if req.Refine {
			writeError(w, http.StatusBadRequest, "\"refine\" applies to grid mode only")
			return
		}
		s.batchScenarios(w, r, req.Scenarios, workers)
		return
	}
	sc, code, err := s.resolveScenario(req.Grid, req.GridJSON, gridKind)
	if err != nil {
		writeError(w, code, "%v", err)
		return
	}
	job, err := sc.CompileGrid()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Refine {
		s.batchGridRefined(w, r, sc, job, workers)
		return
	}
	s.batchGrid(w, r, sc, job, workers)
}

// ---------------------------------------------------------------------------
// List mode.

// batchScenarios solves each listed scenario through the same cache path as
// POST /v1/runs, streaming one frame per completion in request order. A bad
// element (unknown name, invalid inline definition, failed solve) becomes
// an error frame carrying its index; the rest of the batch continues.
func (s *Server) batchScenarios(w http.ResponseWriter, r *http.Request, list []json.RawMessage, workers int) {
	if len(list) > maxBatchScenarios {
		writeError(w, http.StatusRequestEntityTooLarge, "batch lists at most %d scenarios, got %d", maxBatchScenarios, len(list))
		return
	}
	nw := newNDJSONWriter(w, s.metrics)
	start := time.Now()
	results, errs := 0, 0
	for i := range list {
		if r.Context().Err() != nil {
			return // client went away; stop solving
		}
		frame := s.solveBatchEntry(r, i, list[i], workers)
		if ef, isErr := frame.(*errorFrame); isErr {
			errs++
			s.logger.Warn("batch entry failed",
				"index", i, "trace", obs.TraceID(r.Context()), "error", ef.Error)
		} else {
			results++
		}
		if err := nw.frame(frame); err != nil {
			return // mid-stream write failure: the client is gone
		}
	}
	//pubopt:allow(streamcheck): terminal summary frame; the stream ends either way and there is nothing left to abort
	nw.frame(&listDoneFrame{
		Done: true, Results: results, Errors: errs,
		ElapsedMS: millis(time.Since(start)),
	})
}

// solveBatchEntry resolves one list element (a name or an inline
// definition) and solves it through the same cache path as POST /v1/runs,
// returning the frame to stream. An element that does not resolve to a
// 1-D scenario fails before the cache.
func (s *Server) solveBatchEntry(r *http.Request, index int, raw json.RawMessage, workers int) any {
	var name string
	if json.Unmarshal(raw, &name) == nil {
		raw = nil
	}
	sc, _, err := s.resolveScenario(name, raw, staticKind)
	var key string
	if err == nil {
		key, err = s.runKey(name, sc)
	}
	if err != nil {
		return &errorFrame{Index: &index, Error: err.Error()}
	}
	start := time.Now()
	val, status, err := s.cachedSolve(r.Context(), "run", sc.Name, key, func(stats *obs.Counters) (any, error) {
		return s.solveScenario(sc, workers, stats)
	})
	if err != nil {
		return &errorFrame{Index: &index, Error: "solve failed: " + err.Error()}
	}
	return &scenarioFrame{Index: index, RunResponse: s.runResponse(r, val, status, start)}
}

// ---------------------------------------------------------------------------
// Grid mode.

// gridHeader is the header frame of a grid stream, dense or refined.
func gridHeader(sc *scenario.Scenario, job *scenario.GridJob, refine bool) *gridHeaderFrame {
	return &gridHeaderFrame{Grid: gridInfo{
		Name: sc.Name, Title: sc.Title,
		XAxis: job.XAxis, YAxis: job.YAxis,
		Xs: job.Xs, Ys: job.Ys, Layers: job.Layers, Cells: job.Cells(),
		Refine: refine,
	}}
}

// batchGrid streams a grid scenario cell by cell: header frame, cached
// cells first (they cost one map probe each), then solved cells in
// completion order, then the summary.
func (s *Server) batchGrid(w http.ResponseWriter, r *http.Request, sc *scenario.Scenario, job *scenario.GridJob, workers int) {
	// Content-address every cell up front; the key layout is row-major.
	cols := len(job.Xs)
	keys := make([]string, job.Cells())
	for i := range keys {
		k, err := cache.Key("batch/cell/v1", job.CellSpec(i/cols, i%cols))
		if err != nil {
			writeError(w, http.StatusInternalServerError, "hashing cell (%d,%d): %v", i/cols, i%cols, err)
			return
		}
		keys[i] = k
	}
	s.streamUnits(w, r, &unitStream{
		kind: "grid", unit: "cell", name: sc.Name,
		header: gridHeader(sc, job, false),
		keys:   keys,
		frame: func(i int, val any, status, trace string) any {
			// A cached Cell carries the row/col of whichever grid solved it
			// first; its content address covers only physics, so a resized
			// or reordered grid can hit cells whose stored indices no longer
			// match. Re-anchor to this request's geometry.
			cell := val.(scenario.Cell)
			cell.Row, cell.Col = i/cols, i%cols
			return &cellFrame{Cell: cell, Cache: status, Trace: trace}
		},
		solve: func(ctx context.Context, out *streamOut) (obs.SolveStats, error) {
			return solveGridCells(ctx, job, workers, out)
		},
		done: func(hits, solved int, elapsed time.Duration) any {
			return &gridDoneFrame{
				Done: true, Cells: job.Cells(), Solved: solved, CacheHits: hits,
				ElapsedMS: millis(elapsed),
			}
		},
	})
}

// solvedCell is one cell a grid worker solved, with its row-major index.
type solvedCell struct {
	i    int
	cell scenario.Cell
}

// solveGridCells solves the grid's missing cells: only rows with a hole
// are visited, distributed across workers by work stealing with one
// warm-started solver per worker, so the column sweep survives the cache
// holes. Workers hand cells to this goroutine, which banks and streams
// them; once the stream ends the workers stop after their in-flight cell,
// and cells they still finish are cached, not wasted.
func solveGridCells(ctx context.Context, job *scenario.GridJob, workers int, out *streamOut) (obs.SolveStats, error) {
	cols := len(job.Xs)
	var rows [][]int // the missing cell indexes of each row with a hole
	for _, i := range out.missing {
		if n := len(rows); n > 0 && rows[n-1][0]/cols == i/cols {
			rows[n-1] = append(rows[n-1], i)
		} else {
			rows = append(rows, []int{i})
		}
	}
	workers = min(workers, len(rows))
	ctx, stop := context.WithCancel(ctx)
	defer stop()
	// A row's worth of buffer lets a worker keep solving its row while this
	// goroutine is busy writing a frame.
	cells := make(chan solvedCell, cols)
	// delta and crash are written before the goroutine closes cells, which
	// happens-before the range below ends, so reading them after is safe.
	var delta obs.SolveStats
	var crash any
	go func() {
		defer close(cells)
		defer func() { crash = recover() }()
		state := make([]*scenario.GridWorker, workers)
		sweep.RunRowsContext(ctx, workers, len(rows), func(worker, ri int) {
			if state[worker] == nil {
				state[worker] = job.NewWorker()
			}
			for _, i := range rows[ri] {
				if ctx.Err() != nil {
					return
				}
				cells <- solvedCell{i: i, cell: state[worker].SolveCell(i/cols, i%cols)}
			}
		})
		for _, gw := range state {
			if gw != nil {
				delta.Accumulate(gw.Stats())
			}
		}
	}()
	for c := range cells {
		if out.miss(c.i, c.cell, obs.SolveStats{}) != nil {
			stop()
		}
	}
	if crash != nil {
		panic(crash) // re-raised on the stream's goroutine, which reports it
	}
	return delta, nil
}
