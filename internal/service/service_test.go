package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/netecon-sim/publicoption/internal/experiment"
	"github.com/netecon-sim/publicoption/internal/obs"
	"github.com/netecon-sim/publicoption/internal/scenario"
	"github.com/netecon-sim/publicoption/internal/sweep"
)

// stubTables is a minimal solver output for stubbed runners.
func stubTables() []*sweep.Table {
	return []*sweep.Table{{
		Title: "stub", XLabel: "nu", YLabel: "phi",
		Series: []sweep.Series{{Name: "phi", X: []float64{0.1, 0.2}, Y: []float64{1, 2}}},
	}}
}

// newStubServer returns a server whose scenario runner returns stubTables
// instantly, plus a counter of how many times it actually ran.
func newStubServer(opts Options) (*Server, *atomic.Int64) {
	s := New(opts)
	var calls atomic.Int64
	s.runScenario = func(sc *scenario.Scenario, workers int, stats *obs.Counters) ([]*sweep.Table, error) {
		calls.Add(1)
		return stubTables(), nil
	}
	return s, &calls
}

// do performs one request against the server and returns the response.
func do(t *testing.T, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, path, nil)
	} else {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	return w
}

func decode[T any](t *testing.T, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("decoding response %q: %v", w.Body.String(), err)
	}
	return v
}

func TestListScenarios(t *testing.T) {
	s := New(Options{})
	w := do(t, s, "GET", "/v1/scenarios", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	infos := decode[[]ScenarioInfo](t, w)
	if len(infos) == 0 {
		t.Fatal("no scenarios listed")
	}
	found := false
	for _, in := range infos {
		if in.Name == "neutral-baseline" {
			found = true
			if in.Title == "" {
				t.Error("listed scenario has empty title")
			}
		}
	}
	if !found {
		t.Fatal("neutral-baseline missing from listing")
	}
}

func TestGetScenario(t *testing.T) {
	s := New(Options{})
	w := do(t, s, "GET", "/v1/scenarios/neutral-baseline", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	sc := decode[scenario.Scenario](t, w)
	if sc.Name != "neutral-baseline" || len(sc.Providers) == 0 {
		t.Fatalf("unexpected scenario payload: %+v", sc)
	}

	if w := do(t, s, "GET", "/v1/scenarios/no-such-scenario", ""); w.Code != http.StatusNotFound {
		t.Fatalf("unknown scenario: status %d, want 404", w.Code)
	}
}

func TestListExperiments(t *testing.T) {
	s := New(Options{})
	w := do(t, s, "GET", "/v1/experiments", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	infos := decode[[]ExperimentInfo](t, w)
	want := len(experiment.All())
	if len(infos) != want {
		t.Fatalf("listed %d experiments, registry has %d", len(infos), want)
	}
}

func TestHealthz(t *testing.T) {
	s := New(Options{})
	w := do(t, s, "GET", "/healthz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	h := decode[map[string]any](t, w)
	if h["status"] != "ok" {
		t.Fatalf("healthz payload: %v", h)
	}
}

func TestRunWarmHitSkipsRunner(t *testing.T) {
	s, calls := newStubServer(Options{})
	body := `{"scenario": "neutral-baseline"}`

	w := do(t, s, "POST", "/v1/runs", body)
	if w.Code != http.StatusOK {
		t.Fatalf("first run: status %d: %s", w.Code, w.Body)
	}
	first := decode[RunResponse](t, w)
	if first.Cache != "miss" {
		t.Fatalf("first run cache = %q, want miss", first.Cache)
	}
	if first.Kind != "scenario" || first.Name != "neutral-baseline" || len(first.Tables) != 1 {
		t.Fatalf("unexpected result: %+v", first.RunResult)
	}

	w = do(t, s, "POST", "/v1/runs", body)
	second := decode[RunResponse](t, w)
	if second.Cache != "hit" {
		t.Fatalf("second run cache = %q, want hit", second.Cache)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("runner ran %d times across a miss and a hit, want 1", got)
	}
	if len(second.Tables) != 1 || second.Tables[0].Series[0].Name != "phi" {
		t.Fatalf("cached tables corrupted: %+v", second.Tables)
	}
}

func TestRunConcurrentIdenticalRequestsSolveOnce(t *testing.T) {
	const clients = 12
	s, calls := newStubServer(Options{})
	// Make the solve slow enough that all clients pile onto one flight.
	release := make(chan struct{})
	entered := make(chan struct{})
	s.runScenario = func(sc *scenario.Scenario, workers int, stats *obs.Counters) ([]*sweep.Table, error) {
		calls.Add(1)
		close(entered)
		<-release
		return stubTables(), nil
	}

	body := `{"scenario": "neutral-baseline"}`
	codes := make([]int, clients)
	caches := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := do(t, s, "POST", "/v1/runs", body)
			codes[i] = w.Code
			var resp RunResponse
			json.Unmarshal(w.Body.Bytes(), &resp)
			caches[i] = resp.Cache
		}()
	}
	<-entered
	// The solver is parked inside the one in-flight solve; give the other
	// clients a moment to reach the cache, then let it finish.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("%d identical concurrent requests ran the solver %d times, want exactly 1", clients, got)
	}
	misses := 0
	for i := 0; i < clients; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("client %d: status %d", i, codes[i])
		}
		if caches[i] == "miss" {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("%d clients saw a miss, want exactly 1", misses)
	}
}

func TestRunInlineScenarioSharesCacheWithNamed(t *testing.T) {
	s, calls := newStubServer(Options{})
	// Prime with the named form.
	if w := do(t, s, "POST", "/v1/runs", `{"scenario": "archetypes-capacity"}`); w.Code != http.StatusOK {
		t.Fatalf("prime: status %d: %s", w.Code, w.Body)
	}
	// Replay the identical definition inline: the content address must match.
	sc, _ := scenario.Get("archetypes-capacity")
	js, err := sc.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"scenario_json": %s}`, js)
	w := do(t, s, "POST", "/v1/runs", body)
	if w.Code != http.StatusOK {
		t.Fatalf("inline run: status %d: %s", w.Code, w.Body)
	}
	resp := decode[RunResponse](t, w)
	if resp.Cache != "hit" {
		t.Fatalf("identical inline scenario was a %q, want hit (content addressing)", resp.Cache)
	}
	if calls.Load() != 1 {
		t.Fatalf("runner ran %d times, want 1", calls.Load())
	}
}

func TestRunWorkersExcludedFromCacheKey(t *testing.T) {
	s, calls := newStubServer(Options{})
	do(t, s, "POST", "/v1/runs", `{"scenario": "neutral-baseline", "workers": 1}`)
	w := do(t, s, "POST", "/v1/runs", `{"scenario": "neutral-baseline", "workers": 4}`)
	resp := decode[RunResponse](t, w)
	if resp.Cache != "hit" || calls.Load() != 1 {
		t.Fatalf("workers leaked into the cache key: cache=%q solves=%d", resp.Cache, calls.Load())
	}
}

func TestRunValidation(t *testing.T) {
	s, _ := newStubServer(Options{})
	cases := []struct {
		name string
		body string
		code int
	}{
		{"empty body", "", http.StatusBadRequest},
		{"neither field", `{}`, http.StatusBadRequest},
		{"both fields", `{"scenario": "x", "scenario_json": {"name": "y"}}`, http.StatusBadRequest},
		{"unknown name", `{"scenario": "no-such"}`, http.StatusNotFound},
		{"unknown field", `{"scenario": "neutral-baseline", "bogus": 1}`, http.StatusBadRequest},
		{"invalid inline", `{"scenario_json": {"name": "bad name!"}}`, http.StatusBadRequest},
		{"trailing garbage", `{"scenario": "neutral-baseline"} {}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := do(t, s, "POST", "/v1/runs", tc.body)
			if w.Code != tc.code {
				t.Fatalf("status %d, want %d (body %s)", w.Code, tc.code, w.Body)
			}
			resp := decode[map[string]any](t, w)
			if resp["error"] == "" {
				t.Fatal("error response has no error message")
			}
		})
	}
}

func TestOversizedBodyReturns413(t *testing.T) {
	s, _ := newStubServer(Options{})
	huge := `{"scenario": "` + strings.Repeat("x", maxRequestBody) + `"}`
	w := do(t, s, "POST", "/v1/runs", huge)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (body %s)", w.Code, w.Body)
	}
	resp := decode[map[string]any](t, w)
	if msg, _ := resp["error"].(string); !strings.Contains(msg, "limit") {
		t.Fatalf("413 error message %q does not mention the limit", msg)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := New(Options{})
	if w := do(t, s, "GET", "/v1/runs", ""); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/runs: status %d, want 405", w.Code)
	}
	if w := do(t, s, "POST", "/healthz", ""); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz: status %d, want 405", w.Code)
	}
}

func TestExperimentRun(t *testing.T) {
	s := New(Options{})
	var calls atomic.Int64
	var gotCfg experiment.Config
	s.runExperiment = func(e *experiment.Experiment, cfg experiment.Config, _ *obs.Counters) ([]*sweep.Table, error) {
		calls.Add(1)
		gotCfg = cfg
		return stubTables(), nil
	}

	// Empty body = defaults.
	w := do(t, s, "POST", "/v1/experiments/fig4/run", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	resp := decode[RunResponse](t, w)
	if resp.Kind != "experiment" || resp.Name != "fig4" || resp.Cache != "miss" {
		t.Fatalf("unexpected response: %+v", resp)
	}

	// Same config again: cache hit, no second solve.
	w = do(t, s, "POST", "/v1/experiments/fig4/run", "{}")
	if resp := decode[RunResponse](t, w); resp.Cache != "hit" {
		t.Fatalf("repeat run cache = %q, want hit", resp.Cache)
	}
	if calls.Load() != 1 {
		t.Fatalf("solver ran %d times, want 1", calls.Load())
	}

	// A different result-changing config is a different key.
	w = do(t, s, "POST", "/v1/experiments/fig4/run", `{"fast": true, "cps": 50}`)
	if resp := decode[RunResponse](t, w); resp.Cache != "miss" {
		t.Fatalf("distinct config cache = %q, want miss", resp.Cache)
	}
	if !gotCfg.Fast || gotCfg.CPs != 50 {
		t.Fatalf("config not forwarded: %+v", gotCfg)
	}

	if w := do(t, s, "POST", "/v1/experiments/no-such/run", ""); w.Code != http.StatusNotFound {
		t.Fatalf("unknown experiment: status %d, want 404", w.Code)
	}
	if w := do(t, s, "POST", "/v1/experiments/fig4/run", `{"cps": -1}`); w.Code != http.StatusBadRequest {
		t.Fatalf("negative cps: status %d, want 400", w.Code)
	}
}

func TestRunnerErrorIsNotCached(t *testing.T) {
	s := New(Options{})
	var calls atomic.Int64
	s.runScenario = func(sc *scenario.Scenario, workers int, stats *obs.Counters) ([]*sweep.Table, error) {
		if calls.Add(1) == 1 {
			return nil, fmt.Errorf("transient failure")
		}
		return stubTables(), nil
	}
	body := `{"scenario": "neutral-baseline"}`
	if w := do(t, s, "POST", "/v1/runs", body); w.Code != http.StatusInternalServerError {
		t.Fatalf("failed solve: status %d, want 500", w.Code)
	}
	w := do(t, s, "POST", "/v1/runs", body)
	if w.Code != http.StatusOK {
		t.Fatalf("retry after failure: status %d: %s", w.Code, w.Body)
	}
	if resp := decode[RunResponse](t, w); resp.Cache != "miss" {
		t.Fatalf("retry cache = %q, want miss (errors must not be cached)", resp.Cache)
	}
}

func TestMetricsExposition(t *testing.T) {
	s, _ := newStubServer(Options{})
	do(t, s, "POST", "/v1/runs", `{"scenario": "neutral-baseline"}`)
	do(t, s, "POST", "/v1/runs", `{"scenario": "neutral-baseline"}`)
	do(t, s, "GET", "/v1/scenarios", "")
	do(t, s, "GET", "/v1/scenarios/no-such", "")

	w := do(t, s, "GET", "/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body := w.Body.String()
	for _, want := range []string{
		`pubopt_http_requests_total{route="POST /v1/runs",code="200"} 2`,
		`pubopt_http_requests_total{route="GET /v1/scenarios",code="200"} 1`,
		`pubopt_http_requests_total{route="GET /v1/scenarios/{name}",code="404"} 1`,
		"pubopt_cache_hits_total 1",
		"pubopt_cache_misses_total 1",
		"pubopt_cache_coalesced_total 0",
		"pubopt_cache_entries 1",
		"pubopt_runs_in_flight 0",
		`pubopt_solve_duration_seconds_count{outcome="miss"} 1`,
		`pubopt_solve_duration_seconds_count{outcome="hit"} 1`,
		`pubopt_solve_duration_seconds_bucket{outcome="miss",le="+Inf"} 1`,
		`pubopt_solve_duration_seconds_count{outcome="error"} 0`,
		"pubopt_solver_solves_total",
		"pubopt_build_info",
		"pubopt_uptime_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n---\n%s", want, body)
		}
	}
}

func TestLRUBoundHoldsUnderManyDistinctRuns(t *testing.T) {
	s := New(Options{CacheEntries: 3})
	s.runScenario = func(sc *scenario.Scenario, workers int, stats *obs.Counters) ([]*sweep.Table, error) {
		return stubTables(), nil
	}
	// 8 distinct inline scenarios (differing capacity) against a 3-entry cache.
	for i := 0; i < 8; i++ {
		body := fmt.Sprintf(`{"scenario_json": {
			"name": "tiny-%d",
			"title": "tiny",
			"population": {"kind": "archetypes"},
			"providers": [{"name": "neutral", "gamma": 1}],
			"sweep": {"axis": "nu", "values": [%d]}
		}}`, i, 1000+i)
		if w := do(t, s, "POST", "/v1/runs", body); w.Code != http.StatusOK {
			t.Fatalf("run %d: status %d: %s", i, w.Code, w.Body)
		}
	}
	st := s.CacheStats()
	if st.Entries != 3 {
		t.Fatalf("cache holds %d entries, LRU bound is 3", st.Entries)
	}
	if st.Evictions != 5 {
		t.Fatalf("evictions = %d, want 5", st.Evictions)
	}
}

func TestRunSolvesRealScenarioEndToEnd(t *testing.T) {
	// No stubs: one cheap archetype scenario through the full stack.
	s := New(Options{})
	w := do(t, s, "POST", "/v1/runs", `{"scenario": "archetypes-capacity"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	resp := decode[RunResponse](t, w)
	if len(resp.Tables) == 0 || len(resp.Tables[0].Series) == 0 {
		t.Fatalf("no tables in real solve: %+v", resp.RunResult)
	}
	if n := len(resp.Tables[0].Series[0].X); n != 8 {
		t.Fatalf("series has %d points, scenario sweeps 8", n)
	}
}
