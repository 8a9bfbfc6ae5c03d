package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"github.com/netecon-sim/publicoption/internal/obs"
	"github.com/netecon-sim/publicoption/internal/scenario"
	"github.com/netecon-sim/publicoption/internal/sweep"
)

// syncBuffer is a goroutine-safe log sink; handlers log from request
// goroutines while tests read.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// logLines parses a JSON-format log buffer into one map per line.
func logLines(t *testing.T, buf *syncBuffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		out = append(out, rec)
	}
	return out
}

// TestPanicRecovery: a panicking handler answers 500 with the trace ID in
// the body, logs the panic with that trace ID, and counts under code 500 —
// instead of killing the connection with no record. The panic is planted in
// a test-only route because real solve panics are already converted to
// errors one layer down, inside the cache (see TestSolvePanicBecomesError).
func TestPanicRecovery(t *testing.T) {
	var logBuf syncBuffer
	logger, err := obs.NewLogger(&logBuf, 0, obs.LogJSON)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Logger: logger})
	s.handle("GET /boom", func(w http.ResponseWriter, r *http.Request) {
		panic("handler exploded")
	})

	w := do(t, s, "GET", "/boom", "")
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler answered %d, want 500", w.Code)
	}
	trace := w.Header().Get("X-Trace-Id")
	if trace == "" {
		t.Fatal("panic response missing X-Trace-Id")
	}
	if !strings.Contains(w.Body.String(), trace) {
		t.Fatalf("500 body %q does not carry trace %s for correlation", w.Body.String(), trace)
	}

	var panicLine map[string]any
	for _, rec := range logLines(t, &logBuf) {
		if rec["msg"] == "handler panicked" {
			panicLine = rec
		}
	}
	if panicLine == nil {
		t.Fatalf("no \"handler panicked\" log line in:\n%s", logBuf.String())
	}
	if panicLine["trace"] != trace {
		t.Fatalf("panic log trace = %v, want %s", panicLine["trace"], trace)
	}
	if p, _ := panicLine["panic"].(string); !strings.Contains(p, "handler exploded") {
		t.Fatalf("panic log lacks the panic value: %v", panicLine)
	}

	metrics := do(t, s, "GET", "/metrics", "").Body.String()
	if !strings.Contains(metrics, `pubopt_http_requests_total{route="GET /boom",code="500"} 1`) {
		t.Fatal("panicked request not counted under code 500")
	}
}

// TestSolvePanicBecomesError: a panic inside the solve itself is caught by
// the cache layer, answered as a 500 solve-failed error, recorded as an
// "error" event, and logged at warn — the middleware's recovery is the
// backstop, not the primary path.
func TestSolvePanicBecomesError(t *testing.T) {
	var logBuf syncBuffer
	logger, err := obs.NewLogger(&logBuf, 0, obs.LogJSON)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Logger: logger})
	s.runScenario = func(sc *scenario.Scenario, workers int, stats *obs.Counters) ([]*sweep.Table, error) {
		panic("solver exploded")
	}
	w := do(t, s, "POST", "/v1/runs", `{"scenario": "neutral-baseline"}`)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("solve panic answered %d, want 500", w.Code)
	}
	er := decode[eventsResponse](t, do(t, s, "GET", "/debug/events", ""))
	if len(er.Events) != 1 || er.Events[0].Outcome != "error" || !strings.Contains(er.Events[0].Error, "solver exploded") {
		t.Fatalf("solve panic not flight-recorded as an error event: %+v", er.Events)
	}
	found := false
	for _, rec := range logLines(t, &logBuf) {
		if rec["msg"] == "solve failed" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no \"solve failed\" warn line in:\n%s", logBuf.String())
	}
}

// TestTraceEcho: with Options.Trace the run response body carries the same
// trace ID as the X-Trace-Id header; without it the body stays clean but the
// header remains.
func TestTraceEcho(t *testing.T) {
	s, _ := newStubServer(Options{Trace: true})
	w := do(t, s, "POST", "/v1/runs", `{"scenario": "neutral-baseline"}`)
	resp := decode[RunResponse](t, w)
	if resp.Trace == "" || resp.Trace != w.Header().Get("X-Trace-Id") {
		t.Fatalf("body trace %q != header trace %q", resp.Trace, w.Header().Get("X-Trace-Id"))
	}

	plain, _ := newStubServer(Options{})
	w = do(t, plain, "POST", "/v1/runs", `{"scenario": "neutral-baseline"}`)
	if resp := decode[RunResponse](t, w); resp.Trace != "" {
		t.Fatalf("trace echoed without Options.Trace: %q", resp.Trace)
	}
	if w.Header().Get("X-Trace-Id") == "" {
		t.Fatal("X-Trace-Id header must be set regardless of Options.Trace")
	}
}

// eventsResponse mirrors the GET /debug/events body.
type eventsResponse struct {
	Capacity int         `json:"capacity"`
	Recorded uint64      `json:"recorded"`
	Events   []obs.Event `json:"events"`
}

// TestFlightRecorder: solved and cached runs land in /debug/events with
// their outcome, kind and trace ID, oldest first.
func TestFlightRecorder(t *testing.T) {
	s, _ := newStubServer(Options{FlightEvents: 8})
	first := do(t, s, "POST", "/v1/runs", `{"scenario": "neutral-baseline"}`)
	do(t, s, "POST", "/v1/runs", `{"scenario": "neutral-baseline"}`)

	er := decode[eventsResponse](t, do(t, s, "GET", "/debug/events", ""))
	if er.Capacity != 8 || er.Recorded != 2 || len(er.Events) != 2 {
		t.Fatalf("recorder state cap=%d recorded=%d events=%d, want 8/2/2",
			er.Capacity, er.Recorded, len(er.Events))
	}
	miss, hit := er.Events[0], er.Events[1]
	if miss.Kind != "run" || miss.Outcome != "miss" || miss.Name != "neutral-baseline" {
		t.Fatalf("first event = %+v, want a neutral-baseline run miss", miss)
	}
	if hit.Outcome != "hit" {
		t.Fatalf("second event outcome = %q, want hit (cached replay)", hit.Outcome)
	}
	if miss.Trace != first.Header().Get("X-Trace-Id") {
		t.Fatalf("event trace %q != request trace %q", miss.Trace, first.Header().Get("X-Trace-Id"))
	}
	if miss.Key == "" || miss.DurationMS < 0 {
		t.Fatalf("event lacks key or duration: %+v", miss)
	}
}

// TestExperimentRunTelemetry: a figure run is a real solve, so its
// flight-recorder event and the solver counters carry its solver work.
func TestExperimentRunTelemetry(t *testing.T) {
	s := New(Options{FlightEvents: 4})
	if w := do(t, s, "POST", "/v1/experiments/fig4/run", `{"fast": true}`); w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	er := decode[eventsResponse](t, do(t, s, "GET", "/debug/events", ""))
	if len(er.Events) != 1 {
		t.Fatalf("recorded %d events, want 1", len(er.Events))
	}
	ev := er.Events[0]
	if ev.Kind != "experiment" || ev.Name != "fig4" || ev.Solver.Solves == 0 {
		t.Fatalf("event = %+v, want a fig4 experiment event with solver work", ev)
	}
	if got := s.counters.Snapshot().Solves; got != ev.Solver.Solves {
		t.Fatalf("solver counters recorded %d solves, event %d", got, ev.Solver.Solves)
	}
}

// TestFlightRecorderDisabled: negative FlightEvents turns the recorder off;
// /debug/events still answers, reporting zero capacity.
func TestFlightRecorderDisabled(t *testing.T) {
	s, _ := newStubServer(Options{FlightEvents: -1})
	do(t, s, "POST", "/v1/runs", `{"scenario": "neutral-baseline"}`)
	er := decode[eventsResponse](t, do(t, s, "GET", "/debug/events", ""))
	if er.Capacity != 0 || er.Recorded != 0 || len(er.Events) != 0 {
		t.Fatalf("disabled recorder reported cap=%d recorded=%d events=%d",
			er.Capacity, er.Recorded, len(er.Events))
	}
}

// TestFlightRecorderWrap: the ring keeps only the last N events, oldest
// first, while the recorded total keeps counting.
func TestFlightRecorderWrap(t *testing.T) {
	s, _ := newStubServer(Options{FlightEvents: 3})
	for i := 0; i < 5; i++ {
		// Distinct inline scenarios: each is a fresh miss, a fresh event.
		body := fmt.Sprintf(`{"scenario_json": {
			"name": "wrap-%d",
			"title": "wrap",
			"population": {"kind": "archetypes"},
			"providers": [{"name": "neutral", "gamma": 1}],
			"sweep": {"axis": "nu", "values": [%d]}
		}}`, i, 1000+i)
		if w := do(t, s, "POST", "/v1/runs", body); w.Code != http.StatusOK {
			t.Fatalf("run %d failed: %d %s", i, w.Code, w.Body.String())
		}
	}
	er := decode[eventsResponse](t, do(t, s, "GET", "/debug/events", ""))
	if er.Recorded != 5 || len(er.Events) != 3 {
		t.Fatalf("after 5 events: recorded=%d kept=%d, want 5 kept 3", er.Recorded, len(er.Events))
	}
	if er.Events[0].Name != "wrap-2" || er.Events[2].Name != "wrap-4" {
		t.Fatalf("ring kept %q..%q, want wrap-2..wrap-4 oldest first",
			er.Events[0].Name, er.Events[2].Name)
	}
}

// TestSolveLogLine: a cold solve emits one info-level "solved" line whose
// trace matches the response header.
func TestSolveLogLine(t *testing.T) {
	var logBuf syncBuffer
	logger, err := obs.NewLogger(&logBuf, 0, obs.LogJSON)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Logger: logger})
	s.runScenario = func(sc *scenario.Scenario, workers int, stats *obs.Counters) ([]*sweep.Table, error) {
		return stubTables(), nil
	}
	w := do(t, s, "POST", "/v1/runs", `{"scenario": "neutral-baseline"}`)
	do(t, s, "POST", "/v1/runs", `{"scenario": "neutral-baseline"}`) // hit: no line

	var solved []map[string]any
	for _, rec := range logLines(t, &logBuf) {
		if rec["msg"] == "solved" {
			solved = append(solved, rec)
		}
	}
	if len(solved) != 1 {
		t.Fatalf("got %d \"solved\" lines, want exactly 1 (hits are silent)", len(solved))
	}
	if solved[0]["trace"] != w.Header().Get("X-Trace-Id") {
		t.Fatalf("solved line trace %v != header %q", solved[0]["trace"], w.Header().Get("X-Trace-Id"))
	}
}
