// Package service is the long-running serving layer over the model: a
// stdlib-only HTTP JSON API exposing the scenario registry, the experiment
// registry, and a run endpoint that solves equilibria on demand.
//
// Every run result flows through a content-addressed equilibrium cache
// (internal/cache): the request's full specification — the scenario's
// canonical JSON, or the experiment id plus its result-changing config — is
// hashed into a key, identical concurrent requests are deduplicated onto
// one solve, and a bounded worker pool keeps concurrent distinct solves
// from oversubscribing the CPU. The model is deterministic, so cached
// results never go stale.
//
// Endpoints:
//
//	GET  /v1/scenarios              list the named scenarios
//	GET  /v1/scenarios/{name}       one scenario's full JSON definition
//	POST /v1/runs                   solve a named or inline 1-D scenario
//	POST /v1/batch                  stream a scenario list or a 2-D grid
//	                                as NDJSON, grid cells cached per cell;
//	                                "refine": true streams an adaptive
//	                                refinement run instead of dense cells
//	GET  /v1/query                  solve-free point query against a grid's
//	                                cached refinement surrogate (POST works
//	                                too, for inline grids)
//	POST /v1/simulate               stream a dynamics scenario tick by tick
//	                                as NDJSON, ticks cached per tick
//	GET  /v1/experiments            list the registered figure experiments
//	POST /v1/experiments/{id}/run   run a figure experiment
//	GET  /healthz                   liveness probe
//	GET  /metrics                   Prometheus text-format metrics
//	GET  /debug/events              flight recorder: the last N solve events
//
// Every request gets a trace ID (X-Trace-Id header) that correlates its
// access log line, solve log line, and flight-recorder events; see
// docs/OBSERVABILITY.md for the full telemetry reference and
// docs/SERVICE.md for the endpoint reference with examples.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"time"

	"github.com/netecon-sim/publicoption/internal/cache"
	"github.com/netecon-sim/publicoption/internal/experiment"
	"github.com/netecon-sim/publicoption/internal/obs"
	"github.com/netecon-sim/publicoption/internal/scenario"
	"github.com/netecon-sim/publicoption/internal/sweep"
)

// DefaultCacheEntries is the LRU bound used when Options.CacheEntries is 0.
// Grid cells from /v1/batch occupy one entry each, so the bound is sized to
// hold several built-in grids' worth of cells alongside full run results;
// a deployment replaying grids larger than this should raise it to at
// least the working set's cell count, or warm re-runs re-solve evicted
// cells.
const DefaultCacheEntries = 2048

// DefaultFlightEvents is the flight recorder's ring capacity when
// Options.FlightEvents is 0.
const DefaultFlightEvents = 256

// maxRequestBody bounds run-request bodies (inline scenarios included);
// 1 MiB comfortably fits any plausible explicit CP population.
const maxRequestBody = 1 << 20

// Options configures a Server.
type Options struct {
	// Workers bounds how many solves may execute concurrently (the cache's
	// worker pool). 0 means GOMAXPROCS. Each solve's internal parallelism
	// is scaled down so pool × per-solve workers ≈ GOMAXPROCS.
	Workers int
	// CacheEntries is the equilibrium cache's LRU bound. 0 means
	// DefaultCacheEntries; negative disables caching (singleflight and the
	// worker pool remain).
	CacheEntries int
	// Logger receives structured logs: access lines at debug, cold-solve
	// lines at info, failures at warn/error. Nil discards everything.
	Logger *slog.Logger
	// Trace echoes each request's trace ID in response bodies: the "trace"
	// field of run responses and batch NDJSON frames. The X-Trace-Id header
	// and the flight recorder carry trace IDs regardless.
	Trace bool
	// FlightEvents is the flight recorder's ring capacity (the last N solve
	// events, served at GET /debug/events). 0 means DefaultFlightEvents;
	// negative disables the recorder.
	FlightEvents int
}

// Server is the HTTP service. Construct with New; it implements
// http.Handler and is safe for concurrent use.
type Server struct {
	mux          *http.ServeMux
	store        *cache.Store
	metrics      *metrics
	logger       *slog.Logger
	start        time.Time
	solveWorkers int // default per-solve parallelism

	// Observability state: the server-wide solver-telemetry sink (rendered
	// as pubopt_solver_* counters), the bounded flight recorder behind
	// GET /debug/events (nil when disabled), whether responses echo trace
	// IDs, and the build stamp for pubopt_build_info.
	counters obs.Counters
	// refineCounters aggregates adaptive-refinement telemetry across runs
	// (rendered as pubopt_refine_* counters).
	refineCounters obs.RefineCounters
	recorder       *obs.Recorder
	trace          bool
	build          obs.BuildInfo

	// Registry data precomputed at startup so the hot paths never re-derive
	// it: the registries are immutable and scenario.All/Get deep-copy
	// through JSON on every call.
	scenarioInfos   []ScenarioInfo
	experimentInfos []ExperimentInfo
	scenarios       map[string]*scenario.Scenario // read-only: GET /v1/scenarios/{name}, name resolution
	scenarioKeys    map[string]string             // name -> content-address cache key

	// Runner indirection, overridable in tests to count or stub solves.
	// stats receives the run's solver telemetry (nil-safe).
	runScenario   func(s *scenario.Scenario, workers int, stats *obs.Counters) ([]*sweep.Table, error)
	runExperiment func(e *experiment.Experiment, cfg experiment.Config, stats *obs.Counters) ([]*sweep.Table, error)
}

// New builds a Server with its cache, worker pool and routes.
func New(opts Options) *Server {
	pool := opts.Workers
	if pool <= 0 {
		pool = runtime.GOMAXPROCS(0)
	}
	entries := opts.CacheEntries
	if entries == 0 {
		entries = DefaultCacheEntries
	} else if entries < 0 {
		entries = 0
	}
	logger := opts.Logger
	if logger == nil {
		logger = obs.NopLogger()
	}
	events := opts.FlightEvents
	if events == 0 {
		events = DefaultFlightEvents
	}
	perSolve := runtime.GOMAXPROCS(0) / pool
	if perSolve < 1 {
		perSolve = 1
	}
	s := &Server{
		mux:          http.NewServeMux(),
		store:        cache.New(entries, pool),
		metrics:      newMetrics(),
		logger:       logger,
		start:        time.Now(),
		solveWorkers: perSolve,
		recorder:     obs.NewRecorder(events),
		trace:        opts.Trace,
		build:        obs.Build(),
		runScenario: func(sc *scenario.Scenario, workers int, stats *obs.Counters) ([]*sweep.Table, error) {
			return sc.Run(scenario.RunOptions{Workers: workers, Stats: stats})
		},
		runExperiment: func(e *experiment.Experiment, cfg experiment.Config, stats *obs.Counters) ([]*sweep.Table, error) {
			return e.Run(cfg, stats), nil
		},
		scenarios:    make(map[string]*scenario.Scenario),
		scenarioKeys: make(map[string]string),
	}
	for _, sc := range scenario.All() {
		s.scenarioInfos = append(s.scenarioInfos, ScenarioInfo{Name: sc.Name, Title: sc.Title, Reference: sc.Reference, Grid: sc.IsGrid(), Dynamic: sc.IsDynamic()})
		s.scenarios[sc.Name] = sc
		key, err := scenarioKey("run/scenario/v1", sc)
		if err != nil {
			panic("service: built-in scenario: " + err.Error())
		}
		s.scenarioKeys[sc.Name] = key
	}
	for _, e := range experiment.All() {
		s.experimentInfos = append(s.experimentInfos, ExperimentInfo{ID: e.ID, Title: e.Title, Expect: e.Expect})
	}
	s.handle("GET /v1/scenarios", s.handleListScenarios)
	s.handle("GET /v1/scenarios/{name}", s.handleGetScenario)
	s.handle("POST /v1/runs", s.handleRun)
	s.handle("POST /v1/batch", s.handleBatch)
	s.handle("GET /v1/query", s.handleQueryGet)
	s.handle("POST /v1/query", s.handleQueryPost)
	s.handle("POST /v1/simulate", s.handleSimulate)
	s.handle("GET /v1/experiments", s.handleListExperiments)
	s.handle("POST /v1/experiments/{id}/run", s.handleExperimentRun)
	s.handle("GET /healthz", s.handleHealthz)
	s.handle("GET /metrics", s.handleMetrics)
	s.handle("GET /debug/events", s.handleEvents)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// CacheStats exposes the equilibrium cache's counters (for tests and ops).
func (s *Server) CacheStats() cache.Stats { return s.store.Stats() }

// handle registers a routed handler wrapped with the observability
// middleware: a fresh trace ID on the request context (echoed in the
// X-Trace-Id header), request counting labeled by the route pattern so
// metrics cardinality stays bounded, a debug-level access log line, and
// panic recovery — a panicking handler logs with its trace ID and answers
// 500 instead of tearing down the connection with no record.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	route := pattern
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := obs.NewTraceID()
		r = r.WithContext(obs.WithTraceID(r.Context(), id))
		w.Header().Set("X-Trace-Id", id)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				s.logger.Error("handler panicked",
					"route", route, "trace", id, "panic", fmt.Sprint(p))
				if !sw.wrote {
					writeError(sw, http.StatusInternalServerError, "internal error (trace %s)", id)
				}
				s.metrics.observeRequest(route, http.StatusInternalServerError)
				return
			}
			s.metrics.observeRequest(route, sw.code)
			s.logger.Debug("request",
				"method", r.Method, "path", r.URL.Path, "status", sw.code,
				"elapsed_ms", float64(time.Since(start).Microseconds())/1e3, "trace", id)
		}()
		h(sw, r)
	})
}

type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Flush forwards streaming flushes (the batch NDJSON writer needs them)
// through the middleware wrapper, which would otherwise hide the underlying
// ResponseWriter's http.Flusher.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ---------------------------------------------------------------------------
// Response shapes.

// ScenarioInfo is one row of GET /v1/scenarios.
type ScenarioInfo struct {
	Name      string `json:"name"`
	Title     string `json:"title"`
	Reference string `json:"reference,omitempty"`
	// Grid marks 2-D grid scenarios: they are solved via POST /v1/batch
	// ({"grid": name}), and POST /v1/runs rejects them.
	Grid bool `json:"grid,omitempty"`
	// Dynamic marks dynamics scenarios: they are simulated via
	// POST /v1/simulate, and POST /v1/runs and /v1/batch reject them.
	Dynamic bool `json:"dynamic,omitempty"`
}

// ExperimentInfo is one row of GET /v1/experiments.
type ExperimentInfo struct {
	ID     string `json:"id"`
	Title  string `json:"title"`
	Expect string `json:"expect,omitempty"`
}

// Series is one curve of a result table.
type Series struct {
	Name string    `json:"name"`
	X    []float64 `json:"x"`
	Y    []float64 `json:"y"`
}

// Table is one result table (a reproduced figure) in wire form.
type Table struct {
	Title  string   `json:"title"`
	XLabel string   `json:"x_label"`
	YLabel string   `json:"y_label"`
	Series []Series `json:"series"`
}

// RunResult is the cacheable outcome of one solve.
type RunResult struct {
	Kind   string  `json:"kind"` // "scenario" or "experiment"
	Name   string  `json:"name"`
	Title  string  `json:"title"`
	Tables []Table `json:"tables"`
}

// RunResponse is what run endpoints return: the (possibly cached) result
// plus how the cache satisfied the request and the request's wall time.
// Trace carries the request's trace ID when the server runs with
// Options.Trace (it always travels in the X-Trace-Id header).
type RunResponse struct {
	RunResult
	Cache     string  `json:"cache"` // "hit", "miss" or "coalesced"
	ElapsedMS float64 `json:"elapsed_ms"`
	Trace     string  `json:"trace,omitempty"`
}

func tablesToWire(tables []*sweep.Table) []Table {
	out := make([]Table, len(tables))
	for i, t := range tables {
		wt := Table{Title: t.Title, XLabel: t.XLabel, YLabel: t.YLabel}
		for _, sr := range t.Series {
			wt.Series = append(wt.Series, Series{
				Name: sr.Name,
				X:    append([]float64(nil), sr.X...),
				Y:    append([]float64(nil), sr.Y...),
			})
		}
		out[i] = wt
	}
	return out
}

// ---------------------------------------------------------------------------
// Handlers.

func (s *Server) handleListScenarios(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.scenarioInfos)
}

func (s *Server) handleGetScenario(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	sc, ok := s.scenarios[name]
	if !ok {
		writeError(w, http.StatusNotFound, "unknown scenario %q", name)
		return
	}
	writeJSON(w, http.StatusOK, sc)
}

func (s *Server) handleListExperiments(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.experimentInfos)
}

// runRequest is the body of POST /v1/runs.
type runRequest struct {
	// Scenario names a registered scenario; ScenarioJSON inlines a full
	// scenario definition (the same schema as docs/SCENARIOS.md). Exactly
	// one must be set.
	Scenario     string          `json:"scenario,omitempty"`
	ScenarioJSON json.RawMessage `json:"scenario_json,omitempty"`
	// Workers overrides the solve's internal parallelism. Execution-only:
	// it does not participate in the cache key.
	Workers int `json:"workers,omitempty"`
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	if err := decodeJSONBody(w, r, &req, false); err != nil {
		writeError(w, bodyErrorStatus(err), "%v", err)
		return
	}
	sc, code, err := s.resolveScenario(req.Scenario, req.ScenarioJSON, staticKind)
	if err != nil {
		writeError(w, code, "%v", err)
		return
	}
	key, err := s.runKey(req.Scenario, sc)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	workers := s.workers(req.Workers)
	s.respondRun(w, r, "run", sc.Name, key, func(stats *obs.Counters) (any, error) {
		return s.solveScenario(sc, workers, stats)
	})
}

// solveScenario solves a 1-D scenario into its cacheable run result.
func (s *Server) solveScenario(sc *scenario.Scenario, workers int, stats *obs.Counters) (any, error) {
	tables, err := s.runScenario(sc, workers, stats)
	if err != nil {
		return nil, err
	}
	return &RunResult{Kind: "scenario", Name: sc.Name, Title: sc.Title, Tables: tablesToWire(tables)}, nil
}

// experimentRunRequest is the optional body of POST /v1/experiments/{id}/run.
type experimentRunRequest struct {
	Fast bool   `json:"fast,omitempty"`
	Seed uint64 `json:"seed,omitempty"`
	CPs  int    `json:"cps,omitempty"`
	// Workers is execution-only and excluded from the cache key.
	Workers int `json:"workers,omitempty"`
}

func (s *Server) handleExperimentRun(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, ok := experiment.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown experiment %q", id)
		return
	}
	var req experimentRunRequest
	if err := decodeJSONBody(w, r, &req, true); err != nil {
		writeError(w, bodyErrorStatus(err), "%v", err)
		return
	}
	if req.CPs < 0 {
		writeError(w, http.StatusBadRequest, "cps must be non-negative, got %d", req.CPs)
		return
	}

	// The key covers exactly the result-changing config; Workers changes
	// only how fast the answer arrives.
	type experimentKey struct {
		ID   string `json:"id"`
		Fast bool   `json:"fast"`
		Seed uint64 `json:"seed"`
		CPs  int    `json:"cps"`
	}
	key, err := cache.Key("run/experiment/v1", experimentKey{ID: id, Fast: req.Fast, Seed: req.Seed, CPs: req.CPs})
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}

	workers := s.workers(req.Workers)
	cfg := experiment.Config{Fast: req.Fast, Seed: req.Seed, CPs: req.CPs, Workers: workers}
	s.respondRun(w, r, "experiment", e.ID, key, func(stats *obs.Counters) (any, error) {
		tables, err := s.runExperiment(e, cfg, stats)
		if err != nil {
			return nil, err
		}
		return &RunResult{Kind: "experiment", Name: e.ID, Title: e.Title, Tables: tablesToWire(tables)}, nil
	})
}

// respondRun funnels both run endpoints through the cache and renders the
// shared response envelope. The solve closure runs at most once per key
// across all concurrent requests.
func (s *Server) respondRun(w http.ResponseWriter, r *http.Request, kind, name, key string, solve func(stats *obs.Counters) (any, error)) {
	start := time.Now()
	val, status, err := s.cachedSolve(r.Context(), kind, name, key, solve)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "solve failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, s.runResponse(r, val, status, start))
}

// runResponse wraps a run result in the response envelope.
func (s *Server) runResponse(r *http.Request, val any, status cache.Status, start time.Time) RunResponse {
	resp := RunResponse{
		RunResult: *val.(*RunResult),
		Cache:     status.String(),
		ElapsedMS: millis(time.Since(start)),
	}
	if s.trace {
		resp.Trace = obs.TraceID(r.Context())
	}
	return resp
}

// cachedSolve runs solve through the cache under key: a hit returns the
// cached value, concurrent identical requests coalesce onto one solve, and
// a miss solves inside the worker pool (coalesced waiters honor ctx). It
// meters every call the same way: solver counters, a solve-duration sample
// by outcome, one flight-recorder event of the given kind, and a log line
// for a cold solve or a failure.
func (s *Server) cachedSolve(ctx context.Context, kind, name, key string, solve func(stats *obs.Counters) (any, error)) (any, cache.Status, error) {
	start := time.Now()
	// delta is only written when the solve closure runs, and DoContext runs
	// it in this goroutine (coalesced callers never execute it), so no lock.
	var delta obs.SolveStats
	val, status, err := s.store.DoContext(ctx, key, func() (any, error) {
		s.metrics.solveStarted()
		defer s.metrics.solveFinished()
		var sink obs.Counters
		v, err := solve(&sink)
		delta = sink.Snapshot()
		s.counters.Add(delta)
		return v, err
	})
	elapsed := time.Since(start)
	ev := obs.Event{
		Time: time.Now(), Trace: obs.TraceID(ctx), Kind: kind, Name: name,
		Key: shortKey(key), Outcome: status.String(),
		DurationMS: millis(elapsed), Solver: delta,
	}
	if err != nil {
		ev.Outcome, ev.Error = "error", err.Error()
		s.logger.Warn("solve failed",
			"kind", kind, "name", name, "key", ev.Key, "trace", ev.Trace, "error", err)
	} else if status == cache.Miss {
		s.logger.Info("solved",
			"kind", kind, "name", name, "key", ev.Key, "elapsed_s", elapsed.Seconds(),
			"solves", delta.Solves, "evals", delta.Evals, "trace", ev.Trace)
	}
	s.metrics.observeSolve(ev.Outcome, elapsed.Seconds())
	s.recorder.Record(ev)
	return val, status, err
}

// scenarioKind is what a scenario declares, which decides the endpoint
// that solves it.
type scenarioKind int

const (
	staticKind  scenarioKind = iota // a 1-D sweep: /v1/runs, /v1/batch list mode
	gridKind                        // a 2-D grid: /v1/batch grid mode, /v1/query
	dynamicKind                     // a dynamics simulation: /v1/simulate
)

// kindRoutes points a client at the endpoint for each scenario kind.
var kindRoutes = [...]string{
	staticKind:  "declares a 1-D sweep; run it via POST /v1/runs or the \"scenarios\" list of POST /v1/batch",
	gridKind:    "is a 2-D grid; run it via POST /v1/batch with the \"grid\" field",
	dynamicKind: "is a dynamics simulation; stream it via POST /v1/simulate",
}

// resolveScenario materializes the scenario a request names (name) or
// inlines (raw), exactly one of which must be set, and checks that it is
// of kind want. On failure the int is the HTTP status to answer with.
// Named scenarios come from the read-only registry snapshot.
func (s *Server) resolveScenario(name string, raw json.RawMessage, want scenarioKind) (*scenario.Scenario, int, error) {
	if (name == "") == (len(raw) == 0) {
		field := "scenario"
		if want == gridKind {
			field = "grid"
		}
		return nil, http.StatusBadRequest, fmt.Errorf("give exactly one of %q (a registered name) or \"%s_json\" (an inline definition)", field, field)
	}
	sc, ok := s.scenarios[name]
	if name == "" {
		var err error
		if sc, err = scenario.Load(bytes.NewReader(raw)); err != nil {
			return nil, http.StatusBadRequest, err
		}
	} else if !ok {
		return nil, http.StatusNotFound, fmt.Errorf("unknown scenario %q", name)
	}
	kind := staticKind
	if sc.IsDynamic() {
		kind = dynamicKind
	} else if sc.IsGrid() {
		kind = gridKind
	}
	if kind != want {
		return nil, http.StatusBadRequest, fmt.Errorf("scenario %q %s", sc.Name, kindRoutes[kind])
	}
	return sc, 0, nil
}

// runKey is the content address of a 1-D scenario's run result: the
// canonical scenario bytes, however they arrived, so a named scenario and
// its identical inline copy share one cache entry. A registered name uses
// the key precomputed at startup, so warm hits never re-serialize.
func (s *Server) runKey(name string, sc *scenario.Scenario) (string, error) {
	if key, ok := s.scenarioKeys[name]; ok {
		return key, nil
	}
	return scenarioKey("run/scenario/v1", sc)
}

// scenarioKey hashes a scenario's canonical JSON under a key namespace.
func scenarioKey(namespace string, sc *scenario.Scenario) (string, error) {
	canon, err := sc.CanonicalJSON()
	if err != nil {
		return "", fmt.Errorf("serializing scenario: %v", err)
	}
	return cache.Key(namespace, json.RawMessage(canon))
}

// workers resolves a request's execution-only parallelism override.
func (s *Server) workers(n int) int {
	if n <= 0 {
		return s.solveWorkers
	}
	return n
}

// shortKey abbreviates a cache key for logs and events: enough hex to
// correlate, not enough to drown the line.
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	s.metrics.render(&b, s.store.Stats(), s.counters.Snapshot(),
		s.refineCounters.Snapshot(), s.build,
		s.recorder.Recorded(), time.Since(s.start).Seconds())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, b.String())
}

// handleEvents serves the flight recorder: the last N solve spans (runs,
// experiments, grids and solved cells) with trace IDs, cache outcomes and
// solver-telemetry deltas, oldest first. With the recorder disabled
// (Options.FlightEvents < 0) capacity is 0 and events null.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"capacity": s.recorder.Cap(),
		"recorded": s.recorder.Recorded(),
		"events":   s.recorder.Events(),
	})
}

// ---------------------------------------------------------------------------
// JSON plumbing.

// errBodyTooLarge marks requests whose body exceeded maxRequestBody; the
// handlers map it to 413 instead of the generic 400.
var errBodyTooLarge = fmt.Errorf("request body exceeds the %d-byte limit", maxRequestBody)

// decodeJSONBody parses the request body into v, rejecting unknown fields,
// trailing garbage, and bodies over maxRequestBody (errBodyTooLarge). An
// empty body is an error unless allowEmpty (the experiment run endpoint
// treats it as "all defaults").
func decodeJSONBody(w http.ResponseWriter, r *http.Request, v any, allowEmpty bool) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return errBodyTooLarge
		}
		if errors.Is(err, io.EOF) {
			if allowEmpty {
				return nil
			}
			return fmt.Errorf("empty request body")
		}
		return fmt.Errorf("parsing request body: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("request body has trailing data after the JSON object")
	}
	return nil
}

// bodyErrorStatus picks the status code for a decodeJSONBody failure.
func bodyErrorStatus(err error) int {
	if errors.Is(err, errBodyTooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		// A result that cannot serialize (e.g. NaN from a degenerate
		// market) is a server-side failure, not a client one.
		writeError(w, http.StatusInternalServerError, "serializing response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(b)
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	b, _ := json.Marshal(errorResponse{Error: fmt.Sprintf(format, args...)})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(b)
}
