package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// tinyGridJSON is a cheap inline grid scenario (explicit two-CP population,
// γ×ν cells) used for real end-to-end batch solves. rows picks the ν values
// so tests can resize the grid between requests.
func tinyGridJSON(name string, rows string) string {
	return fmt.Sprintf(`{
		"name": %q, "title": "tiny grid",
		"population": {"kind": "explicit", "cps": [
			{"name": "wide", "alpha": 1, "theta_hat": 2, "v": 0.5, "phi": 1,
			 "demand": {"family": "constant"}},
			{"name": "fat", "alpha": 0.5, "theta_hat": 4, "v": 0.5, "phi": 0.5,
			 "demand": {"family": "constant"}}
		]},
		"providers": [
			{"name": "incumbent", "gamma": 0.5, "kappa": 1, "c": 0.4},
			{"name": "po", "gamma": 0.5, "public_option": true}
		],
		"sweep": {"axis": "poshare", "lo": 0.2, "hi": 0.4, "points": 3,
		          "metrics": ["phi"],
		          "grid": {"axis": "nu", "values": [%s]}}
	}`, name, rows)
}

// ndjsonFrames splits an NDJSON body into one generic map per line.
func ndjsonFrames(t *testing.T, body string) []map[string]json.RawMessage {
	t.Helper()
	var frames []map[string]json.RawMessage
	for i, line := range strings.Split(strings.TrimSpace(body), "\n") {
		var m map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("frame %d is not JSON: %q (%v)", i, line, err)
		}
		frames = append(frames, m)
	}
	return frames
}

func frameHas(f map[string]json.RawMessage, key string) bool {
	_, ok := f[key]
	return ok
}

func TestBatchScenarioListStreamsInOrder(t *testing.T) {
	s, calls := newStubServer(Options{})
	body := `{"scenarios": [
		"neutral-baseline",
		{"name": "inline-tiny", "title": "t",
		 "population": {"kind": "archetypes"},
		 "providers": [{"name": "a", "gamma": 1}],
		 "sweep": {"axis": "nu", "values": [1000]}},
		"no-such-scenario"
	]}`
	w := do(t, s, "POST", "/v1/batch", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q, want application/x-ndjson", ct)
	}
	frames := ndjsonFrames(t, w.Body.String())
	if len(frames) != 4 {
		t.Fatalf("got %d frames, want 3 results + 1 done:\n%s", len(frames), w.Body)
	}
	for i := 0; i < 2; i++ {
		var idx int
		json.Unmarshal(frames[i]["index"], &idx)
		if idx != i {
			t.Fatalf("frame %d carries index %d", i, idx)
		}
		if frameHas(frames[i], "error") {
			t.Fatalf("frame %d is an error: %s", i, frames[i]["error"])
		}
	}
	if !frameHas(frames[2], "error") {
		t.Fatalf("unknown scenario did not produce an error frame: %v", frames[2])
	}
	var done listDoneFrame
	lastLine := strings.Split(strings.TrimSpace(w.Body.String()), "\n")[3]
	if err := json.Unmarshal([]byte(lastLine), &done); err != nil {
		t.Fatal(err)
	}
	if !done.Done || done.Results != 2 || done.Errors != 1 {
		t.Fatalf("done frame %+v, want results=2 errors=1", done)
	}
	if calls.Load() != 2 {
		t.Fatalf("runner ran %d times, want 2", calls.Load())
	}

	// The list mode shares the run cache: replaying the batch is all hits.
	w = do(t, s, "POST", "/v1/batch", body)
	frames = ndjsonFrames(t, w.Body.String())
	for i := 0; i < 2; i++ {
		var cacheStatus string
		json.Unmarshal(frames[i]["cache"], &cacheStatus)
		if cacheStatus != "hit" {
			t.Fatalf("replayed frame %d cache = %q, want hit", i, cacheStatus)
		}
	}
	if calls.Load() != 2 {
		t.Fatalf("replay re-ran the solver (%d calls)", calls.Load())
	}
}

func TestBatchGridStreamsCellsAndCachesPerCell(t *testing.T) {
	s := New(Options{})
	body := fmt.Sprintf(`{"grid_json": %s}`, tinyGridJSON("tiny-grid", "1, 2"))

	w := do(t, s, "POST", "/v1/batch", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	frames := ndjsonFrames(t, w.Body.String())
	// 1 header + 6 cells + 1 done.
	if len(frames) != 8 {
		t.Fatalf("got %d frames, want 8:\n%s", len(frames), w.Body)
	}
	if !frameHas(frames[0], "grid") {
		t.Fatalf("first frame is not the grid header: %v", frames[0])
	}
	var hdr gridInfo
	json.Unmarshal(frames[0]["grid"], &hdr)
	if hdr.Cells != 6 || len(hdr.Xs) != 3 || len(hdr.Ys) != 2 || hdr.XAxis != "poshare" || hdr.YAxis != "nu" {
		t.Fatalf("header %+v", hdr)
	}
	if len(hdr.Layers) != 1 || hdr.Layers[0] != "phi" {
		t.Fatalf("layers %v, want [phi]", hdr.Layers)
	}
	seen := make(map[[2]int]bool)
	for _, f := range frames[1:7] {
		if !frameHas(f, "cell") {
			t.Fatalf("expected cell frame, got %v", f)
		}
		var cf cellFrame
		b, _ := json.Marshal(f)
		json.Unmarshal(b, &cf)
		if cf.Cache != "miss" {
			t.Fatalf("cold cell (%d,%d) cache = %q, want miss", cf.Cell.Row, cf.Cell.Col, cf.Cache)
		}
		if _, ok := cf.Cell.Values["phi"]; !ok {
			t.Fatalf("cell (%d,%d) has no phi value: %+v", cf.Cell.Row, cf.Cell.Col, cf.Cell)
		}
		seen[[2]int{cf.Cell.Row, cf.Cell.Col}] = true
	}
	if len(seen) != 6 {
		t.Fatalf("saw %d distinct cells, want 6", len(seen))
	}
	var done gridDoneFrame
	b, _ := json.Marshal(frames[7])
	json.Unmarshal(b, &done)
	if !done.Done || done.Cells != 6 || done.Solved != 6 || done.CacheHits != 0 {
		t.Fatalf("cold done frame %+v", done)
	}

	// Warm replay: zero solved, all hits — the CI acceptance condition.
	w = do(t, s, "POST", "/v1/batch", body)
	frames = ndjsonFrames(t, w.Body.String())
	b, _ = json.Marshal(frames[len(frames)-1])
	done = gridDoneFrame{}
	json.Unmarshal(b, &done)
	if done.Solved != 0 || done.CacheHits != 6 {
		t.Fatalf("warm done frame %+v, want solved=0 cache_hits=6", done)
	}

	// Resize the grid (one new ν row, rename the scenario): only the new
	// row's cells solve — per-cell addressing ignores bounds and names.
	grown := fmt.Sprintf(`{"grid_json": %s}`, tinyGridJSON("tiny-grid-grown", "1, 1.5, 2"))
	w = do(t, s, "POST", "/v1/batch", grown)
	frames = ndjsonFrames(t, w.Body.String())
	b, _ = json.Marshal(frames[len(frames)-1])
	done = gridDoneFrame{}
	json.Unmarshal(b, &done)
	if done.Cells != 9 || done.Solved != 3 || done.CacheHits != 6 {
		t.Fatalf("resized done frame %+v, want cells=9 solved=3 cache_hits=6", done)
	}
}

func TestBatchValidation(t *testing.T) {
	s, _ := newStubServer(Options{})
	cases := []struct {
		name string
		body string
		code int
	}{
		{"empty body", "", http.StatusBadRequest},
		{"neither mode", `{}`, http.StatusBadRequest},
		{"both modes", `{"scenarios": ["neutral-baseline"], "grid": "po-sizing-gamma-nu"}`, http.StatusBadRequest},
		{"grid and grid_json", `{"grid": "po-sizing-gamma-nu", "grid_json": {"name": "x"}}`, http.StatusBadRequest},
		{"unknown grid name", `{"grid": "no-such-grid"}`, http.StatusNotFound},
		{"1-D scenario as grid", `{"grid": "neutral-baseline"}`, http.StatusBadRequest},
		{"invalid inline grid", `{"grid_json": {"name": "bad name!"}}`, http.StatusBadRequest},
		{"unknown field", `{"grid": "po-sizing-gamma-nu", "bogus": 1}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := do(t, s, "POST", "/v1/batch", tc.body)
			if w.Code != tc.code {
				t.Fatalf("status %d, want %d (body %s)", w.Code, tc.code, w.Body)
			}
		})
	}
	// Oversized scenario lists are rejected up front, not half-streamed.
	var list []string
	for i := 0; i <= maxBatchScenarios; i++ {
		list = append(list, "neutral-baseline")
	}
	b, _ := json.Marshal(map[string]any{"scenarios": list})
	if w := do(t, s, "POST", "/v1/batch", string(b)); w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized list: status %d, want 413", w.Code)
	}
}

func TestBatchGridScenarioInListModeIsErrorFrame(t *testing.T) {
	s := New(Options{})
	misses := s.CacheStats().Misses
	errs := metricValue(t, s, `pubopt_solve_duration_seconds_count{outcome="error"}`)
	w := do(t, s, "POST", "/v1/batch", `{"scenarios": ["po-sizing-gamma-nu", "dyn-convergence"]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	frames := ndjsonFrames(t, w.Body.String())
	for i, want := range []string{"grid", "simulate"} {
		if !frameHas(frames[i], "error") {
			t.Fatalf("entry %d in list mode did not error: %v", i, frames[i])
		}
		var msg string
		json.Unmarshal(frames[i]["error"], &msg)
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q does not point at %q", msg, want)
		}
	}
	// Wrong-kind entries are input errors, rejected before the cache: no
	// probe, no pool slot, no failed-solve sample.
	if got := s.CacheStats().Misses; got != misses {
		t.Fatalf("cache misses %d -> %d, want unchanged", misses, got)
	}
	if got := metricValue(t, s, `pubopt_solve_duration_seconds_count{outcome="error"}`); got != errs {
		t.Fatalf("error samples %g -> %g, want unchanged", errs, got)
	}
}

// cancelingWriter is a ResponseWriter that cancels the request context
// after a fixed number of newline-terminated frames has been written —
// a deterministic stand-in for a client that disconnects mid-stream.
type cancelingWriter struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	header http.Header
	frames int
	after  int
	cancel context.CancelFunc
}

func (w *cancelingWriter) Header() http.Header {
	if w.header == nil {
		w.header = make(http.Header)
	}
	return w.header
}

func (w *cancelingWriter) WriteHeader(int) {}

func (w *cancelingWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	w.frames += bytes.Count(p, []byte("\n"))
	if w.frames >= w.after && w.cancel != nil {
		w.cancel()
		w.cancel = nil
	}
	return len(p), nil
}

func TestBatchGridClientDisconnectStopsStream(t *testing.T) {
	s := New(Options{})
	// 15 cells; the "client" goes away after the header plus two cells.
	body := fmt.Sprintf(`{"grid_json": %s}`, tinyGridJSON("tiny-grid", "1, 1.5, 2, 2.5, 3"))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &cancelingWriter{after: 3, cancel: cancel}
	r := httptest.NewRequest("POST", "/v1/batch", strings.NewReader(body)).WithContext(ctx)
	s.ServeHTTP(w, r) // must return rather than stream all 15 cells

	out := w.buf.String()
	if strings.Contains(out, `"done":true`) {
		t.Fatalf("stream completed despite disconnect:\n%s", out)
	}
	frames := ndjsonFrames(t, out)
	if !frameHas(frames[0], "grid") {
		t.Fatalf("missing header frame before disconnect: %v", frames[0])
	}

	// The server stays healthy and the partial work was banked: a fresh
	// request completes the grid with at least the streamed cells cached.
	w2 := do(t, s, "POST", "/v1/batch", body)
	frames2 := ndjsonFrames(t, w2.Body.String())
	var done gridDoneFrame
	b, _ := json.Marshal(frames2[len(frames2)-1])
	json.Unmarshal(b, &done)
	if !done.Done || done.Cells != 15 {
		t.Fatalf("post-disconnect run done frame %+v", done)
	}
	if done.CacheHits < 2 {
		t.Fatalf("cells streamed before the disconnect were not cached (hits=%d)", done.CacheHits)
	}
	if done.Solved+done.CacheHits != 15 {
		t.Fatalf("solved %d + cached %d != 15 cells", done.Solved, done.CacheHits)
	}
}

func TestBatchMetricsCountCells(t *testing.T) {
	s := New(Options{})
	body := fmt.Sprintf(`{"grid_json": %s}`, tinyGridJSON("tiny-grid", "1, 2"))
	do(t, s, "POST", "/v1/batch", body)
	do(t, s, "POST", "/v1/batch", body)
	st := s.CacheStats()
	// 12 probes total: 6 cold misses then 6 warm hits.
	if st.Hits != 6 || st.Misses != 6 {
		t.Fatalf("cache stats %+v, want 6 hits / 6 misses", st)
	}
	w := do(t, s, "GET", "/metrics", "")
	if !strings.Contains(w.Body.String(), "pubopt_cache_hits_total 6") {
		t.Fatal("cell hits missing from /metrics")
	}
}

func TestBatchGridCacheHitsReanchorToRequestGeometry(t *testing.T) {
	s := New(Options{})
	// Cold solve: ν rows [1, 2], so the ν=2 cells are cached at row 1.
	cold := fmt.Sprintf(`{"grid_json": %s}`, tinyGridJSON("tiny-grid", "1, 2"))
	do(t, s, "POST", "/v1/batch", cold)

	// A single-row ν=[2] grid hits every cached ν=2 cell, but in this
	// request's geometry they live at row 0 — the stored row 1 must not
	// leak into the stream (clients place cells by row/col).
	narrow := fmt.Sprintf(`{"grid_json": %s}`, tinyGridJSON("tiny-grid-narrow", "2"))
	w := do(t, s, "POST", "/v1/batch", narrow)
	frames := ndjsonFrames(t, w.Body.String())
	if len(frames) != 5 { // header + 3 cells + done
		t.Fatalf("got %d frames, want 5:\n%s", len(frames), w.Body)
	}
	cols := make(map[int]bool)
	for _, f := range frames[1:4] {
		var cf cellFrame
		b, _ := json.Marshal(f)
		json.Unmarshal(b, &cf)
		if cf.Cache != "hit" {
			t.Fatalf("cell (%d,%d) cache = %q, want hit", cf.Cell.Row, cf.Cell.Col, cf.Cache)
		}
		if cf.Cell.Row != 0 {
			t.Fatalf("cache hit streamed with stale row %d, want 0", cf.Cell.Row)
		}
		if cf.Cell.Y != 2 {
			t.Fatalf("cell y = %g, want 2", cf.Cell.Y)
		}
		cols[cf.Cell.Col] = true
	}
	if len(cols) != 3 {
		t.Fatalf("saw columns %v, want 3 distinct", cols)
	}
}
