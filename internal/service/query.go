package service

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"github.com/netecon-sim/publicoption/internal/cache"
	"github.com/netecon-sim/publicoption/internal/obs"
	"github.com/netecon-sim/publicoption/internal/refine"
	"github.com/netecon-sim/publicoption/internal/scenario"
)

// GET/POST /v1/query — solve-free point queries over a grid scenario.
//
// The first query for a grid builds its adaptive-refinement surrogate
// (internal/refine) through the worker pool and caches it under the
// scenario's content address; every later query for any point of that grid
// evaluates the cached surrogate — a few bilinear patches, zero kernel
// solves. The surrogate carries a solver-verified error bound: when
// verification failed (or was disabled with "probes": -1), queries fall
// back to one cached kernel solve per distinct point instead of serving
// unverified interpolation, so the answer is always either within the
// configured tolerance or exact.
//
// The surrogate's lattice points and the per-point fallback solves share
// the per-cell equilibrium cache with POST /v1/batch: a dense batch warms
// the surrogate build and vice versa.

// queryRequest is the body of POST /v1/query; the GET form takes the same
// fields as URL parameters (?grid=name&x=…&y=…).
type queryRequest struct {
	// Grid names a registered 2-D grid scenario; GridJSON inlines one.
	// Exactly one must be set.
	Grid     string          `json:"grid,omitempty"`
	GridJSON json.RawMessage `json:"grid_json,omitempty"`
	// X and Y are the query point in resolved model units (the units the
	// batch header's xs/ys arrays are in).
	X float64 `json:"x"`
	Y float64 `json:"y"`
	// Workers overrides the surrogate build's internal parallelism.
	// Execution-only: it does not participate in the cache key.
	Workers int `json:"workers,omitempty"`
}

// QueryResponse is the answer to one point query.
type QueryResponse struct {
	Grid string  `json:"grid"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
	// Values holds one scalar per output layer.
	Values map[string]float64 `json:"values"`
	// Source is "surrogate" when the interpolating surrogate answered
	// under its verified error bound, "solve" when the server fell back to
	// a (cached) kernel solve because verification did not hold.
	Source string `json:"source"`
	// Verified, MaxError and Tolerance describe the surrogate's error
	// contract: Verified means probing ran and the worst observed
	// normalized error (MaxError) stayed within Tolerance.
	Verified  bool    `json:"verified"`
	MaxError  float64 `json:"max_error"`
	Tolerance float64 `json:"tolerance"`
	// Cache reports how the authoritative artifact for this answer was
	// obtained: the surrogate itself ("hit"/"miss"/"coalesced"), or the
	// fallback point solve when Source is "solve".
	Cache     string  `json:"cache"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Trace     string  `json:"trace,omitempty"`
}

func (s *Server) handleQueryPost(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if err := decodeJSONBody(w, r, &req, false); err != nil {
		writeError(w, bodyErrorStatus(err), "%v", err)
		return
	}
	s.serveQuery(w, r, &req)
}

func (s *Server) handleQueryGet(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	req := queryRequest{Grid: q.Get("grid")}
	for _, p := range []struct {
		name string
		dst  *float64
	}{{"x", &req.X}, {"y", &req.Y}} {
		raw := q.Get(p.name)
		if raw == "" {
			writeError(w, http.StatusBadRequest, "missing required parameter %q (try /v1/query?grid=name&x=…&y=…)", p.name)
			return
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "parameter %q: %v", p.name, err)
			return
		}
		*p.dst = v
	}
	s.serveQuery(w, r, &req)
}

// serveQuery answers one point query: resolve the grid, get-or-build its
// surrogate through the cache, evaluate — falling back to a cached kernel
// solve when the surrogate's error bound is not verified.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, req *queryRequest) {
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
	surrKey, err := scenarioKey("refine/surrogate/v1", sc)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}

	start := time.Now()
	res, status, err := s.surrogateFor(r, sc.Name, surrKey, job, s.workers(req.Workers))
	if err != nil {
		writeError(w, http.StatusInternalServerError, "building surrogate: %v", err)
		return
	}

	vals, err := res.Values(req.X, req.Y)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp := QueryResponse{
		Grid: sc.Name, X: req.X, Y: req.Y,
		Values:    job.ValuesMap(vals),
		Source:    "surrogate",
		Verified:  res.Verified(),
		MaxError:  res.MaxError(),
		Tolerance: res.Tolerance(),
		Cache:     status.String(),
	}
	if !res.Verified() {
		// The error bound does not hold (verification failed or was
		// disabled): answer with one kernel solve through the per-cell
		// cache instead of unverified interpolation.
		cell, st, err := s.solvePointCached(r, job, req.X, req.Y)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "fallback solve: %v", err)
			return
		}
		resp.Values = cell.Values
		resp.Source = "solve"
		resp.Cache = st.String()
	}
	s.metrics.observeQuery(resp.Source)
	resp.ElapsedMS = millis(time.Since(start))
	if s.trace {
		resp.Trace = obs.TraceID(r.Context())
	}
	writeJSON(w, http.StatusOK, resp)
}

// surrogateFor returns the grid's refined surrogate, cached under surrKey
// (the canonical scenario bytes, refine block included), building it
// through the cache's worker pool on first need. The build reads and
// writes the per-cell equilibrium cache, so it shares solves with
// POST /v1/batch.
func (s *Server) surrogateFor(r *http.Request, name, surrKey string, job *scenario.GridJob, workers int) (*refine.Result, cache.Status, error) {
	lookup, store := s.cellHooks(job)
	val, status, err := s.cachedSolve(r.Context(), "query", name, surrKey, func(sink *obs.Counters) (any, error) {
		prob, flush := job.RefineProblem(sink)
		res, err := refine.Run(r.Context(), prob, job.RefineSpec(), refine.Options{
			Workers: workers, Lookup: lookup, Store: store,
		})
		flush()
		if err != nil {
			return nil, err
		}
		s.refineCounters.Add(res.Stats())
		return res, nil
	})
	if err != nil {
		return nil, status, err
	}
	return val.(*refine.Result), status, nil
}

// solvePointCached solves one off-lattice grid point through the per-cell
// equilibrium cache — the unverified-surrogate fallback path of /v1/query.
func (s *Server) solvePointCached(r *http.Request, job *scenario.GridJob, x, y float64) (scenario.Cell, cache.Status, error) {
	key, err := cache.Key("batch/cell/v1", job.CellSpecAt(x, y))
	if err != nil {
		return scenario.Cell{}, 0, err
	}
	val, status, err := s.store.DoContext(r.Context(), key, func() (any, error) {
		s.metrics.solveStarted()
		defer s.metrics.solveFinished()
		worker := job.NewWorker()
		cell := scenario.Cell{Row: -1, Col: -1, X: x, Y: y, Values: worker.SolveAt(x, y)}
		s.counters.Add(worker.Stats())
		s.recorder.Record(obs.Event{
			Time: time.Now(), Trace: obs.TraceID(r.Context()), Kind: "cell",
			Name: job.Layers[0], Key: shortKey(key), Outcome: cache.Miss.String(),
			Solver: worker.Stats(),
		})
		return cell, nil
	})
	if err != nil {
		return scenario.Cell{}, status, err
	}
	return val.(scenario.Cell), status, nil
}

// cellHooks bridges the refinement engine's point cache to the server's
// content-addressed equilibrium cache: every lattice point and probe is
// keyed by its CellSpecAt address — the same namespace POST /v1/batch uses
// for dense cells — so dense and refined runs of coincident points share
// solves. Lookup may be called concurrently from row tasks; the store is
// goroutine-safe.
func (s *Server) cellHooks(job *scenario.GridJob) (lookup func(x, y float64) ([]float64, bool), store func(x, y float64, vals []float64)) {
	lookup = func(x, y float64) ([]float64, bool) {
		key, err := cache.Key("batch/cell/v1", job.CellSpecAt(x, y))
		if err != nil {
			return nil, false
		}
		val, ok := s.store.Lookup(key)
		if !ok {
			return nil, false
		}
		cell, ok := val.(scenario.Cell)
		if !ok {
			return nil, false
		}
		return job.ValuesSlice(cell.Values)
	}
	store = func(x, y float64, vals []float64) {
		key, err := cache.Key("batch/cell/v1", job.CellSpecAt(x, y))
		if err != nil {
			return
		}
		s.store.Put(key, scenario.Cell{Row: -1, Col: -1, X: x, Y: y, Values: job.ValuesMap(vals)})
	}
	return lookup, store
}
