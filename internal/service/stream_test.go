package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/netecon-sim/publicoption/internal/obs"
)

// failingWriter is a ResponseWriter whose writes start failing after a
// fixed number of frames while the request context stays live: a broken
// connection the handler learns about only from the write error. The
// NDJSON writer issues one Write per frame.
type failingWriter struct {
	header   http.Header
	buf      bytes.Buffer
	written  int // frames written successfully
	after    int // frames to accept before failing
	attempts int // writes attempted after the first failure, that one included
}

func (w *failingWriter) Header() http.Header {
	if w.header == nil {
		w.header = make(http.Header)
	}
	return w.header
}

func (w *failingWriter) WriteHeader(int) {}

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.written >= w.after {
		w.attempts++
		return 0, errors.New("broken pipe")
	}
	w.written++
	w.buf.Write(p)
	return len(p), nil
}

// solveSamples is the total count of the solve-duration histogram across
// every outcome.
func solveSamples(t *testing.T, s *Server) float64 {
	t.Helper()
	total := 0.0
	for _, o := range solveOutcomes {
		total += metricValue(t, s, fmt.Sprintf(`pubopt_solve_duration_seconds_count{outcome=%q}`, o))
	}
	return total
}

func recordedEvents(t *testing.T, s *Server) []obs.Event {
	t.Helper()
	return decode[eventsResponse](t, do(t, s, "GET", "/debug/events", "")).Events
}

// TestStreamsEndOnFailedFrameWrite: a failed frame write ends every stream
// the way a client disconnect does — no write after the first failure, no
// summary event, no solve-duration sample — and the units solved before
// it stay cached, so a replay serves them as hits.
func TestStreamsEndOnFailedFrameWrite(t *testing.T) {
	cases := []struct{ name, path, body, kind string }{
		{"dense grid", "/v1/batch",
			fmt.Sprintf(`{"grid_json": %s}`, tinyGridJSON("tiny-grid", "1, 1.5, 2, 2.5, 3")), "grid"},
		{"refined grid", "/v1/batch",
			fmt.Sprintf(`{"grid_json": %s, "refine": true}`, tinyRefinedGridJSON("tiny-refined",
				`{"tolerance": 0.02, "max_depth": 3, "probes": 8}`)), "grid"},
		{"simulate", "/v1/simulate",
			fmt.Sprintf(`{"scenario_json": %s}`, tinySimJSON("tiny-sim", 8)), "sim"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Options{})
			samples := solveSamples(t, s)
			w := &failingWriter{after: 3}
			s.ServeHTTP(w, httptest.NewRequest("POST", tc.path, strings.NewReader(tc.body)))

			if w.attempts != 1 {
				t.Fatalf("%d writes attempted from the first failure on, want 1:\n%s", w.attempts, w.buf.String())
			}
			for _, ev := range recordedEvents(t, s) {
				if ev.Kind == tc.kind {
					t.Fatalf("summary event recorded after a failed write: %+v", ev)
				}
			}
			if got := solveSamples(t, s); got != samples {
				t.Fatalf("solve-duration samples %g -> %g after a failed write, want unchanged", samples, got)
			}

			replay := do(t, s, "POST", tc.path, tc.body)
			if !strings.Contains(replay.Body.String(), `"done":true`) {
				t.Fatalf("replay did not complete:\n%s", replay.Body)
			}
			// Header and two units were written; the third unit was solved
			// and cached before its frame failed.
			if hits := strings.Count(replay.Body.String(), `"cache":"hit"`); hits < 3 {
				t.Fatalf("replay served %d cached units, want at least the 3 solved before the failure", hits)
			}
		})
	}
}

// fakeStream is a unit stream over three fake units produced by solve.
func fakeStream(keys []string, solve func(ctx context.Context, out *streamOut) (obs.SolveStats, error)) *unitStream {
	return &unitStream{
		kind: "grid", unit: "cell", name: "fake",
		header: map[string]string{"fake": "header"},
		keys:   keys,
		frame: func(i int, val any, status, trace string) any {
			return map[string]any{"unit": val, "cache": status}
		},
		solve: solve,
		done: func(hits, solved int, _ time.Duration) any {
			return map[string]any{"done": true, "solved": solved}
		},
	}
}

// TestStreamPanicIsOneTerminalErrorFrame: a producer that panics mid-solve
// ends the stream with exactly one indexless error frame and no done frame,
// recorded as an "error" summary event and histogram sample; the unit it
// banked before panicking stays cached.
func TestStreamPanicIsOneTerminalErrorFrame(t *testing.T) {
	s := New(Options{})
	errs := metricValue(t, s, `pubopt_solve_duration_seconds_count{outcome="error"}`)
	st := fakeStream([]string{"fake/0", "fake/1", "fake/2"}, func(ctx context.Context, out *streamOut) (obs.SolveStats, error) {
		if err := out.miss(0, 10, obs.SolveStats{}); err != nil {
			t.Error(err)
		}
		panic("solver invariant violated")
	})
	w := httptest.NewRecorder()
	s.streamUnits(w, httptest.NewRequest("POST", "/", nil), st)

	frames := ndjsonFrames(t, w.Body.String())
	if len(frames) != 3 {
		t.Fatalf("got %d frames, want header + 1 unit + 1 error:\n%s", len(frames), w.Body)
	}
	last := frames[2]
	if !frameHas(last, "error") || frameHas(last, "index") || !strings.Contains(string(last["error"]), "panicked") {
		t.Fatalf("terminal frame %v, want one indexless panic error", last)
	}
	if strings.Contains(w.Body.String(), `"done"`) {
		t.Fatalf("done frame written after a panic:\n%s", w.Body)
	}
	var summaries []obs.Event
	for _, ev := range recordedEvents(t, s) {
		if ev.Kind == "grid" {
			summaries = append(summaries, ev)
		}
	}
	if len(summaries) != 1 || summaries[0].Outcome != "error" || !strings.Contains(summaries[0].Error, "panicked") {
		t.Fatalf("summary events %+v, want one error event", summaries)
	}
	if got := metricValue(t, s, `pubopt_solve_duration_seconds_count{outcome="error"}`); got != errs+1 {
		t.Fatalf("error samples %g -> %g, want one more", errs, got)
	}
	if _, ok := s.store.Lookup("fake/0"); !ok {
		t.Fatal("unit banked before the panic is not cached")
	}
}

// TestStreamCancelledWhileQueuedHoldsNoSlot: a client that leaves while its
// stream waits for a worker-pool slot gives up the wait without a slot, a
// solve or a summary.
func TestStreamCancelledWhileQueuedHoldsNoSlot(t *testing.T) {
	s := New(Options{Workers: 1})
	release := s.store.Reserve() // the only pool slot is busy
	samples := solveSamples(t, s)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	solved := false
	// No keys: the stream goes straight from its header to the pool, and
	// the client leaves as soon as the header arrives.
	st := fakeStream(nil, func(context.Context, *streamOut) (obs.SolveStats, error) {
		solved = true
		return obs.SolveStats{}, nil
	})
	w := &cancelingWriter{after: 1, cancel: cancel}
	s.streamUnits(w, httptest.NewRequest("POST", "/", nil).WithContext(ctx), st)

	if solved {
		t.Fatal("stream solved after its client left the pool queue")
	}
	if frames := ndjsonFrames(t, w.buf.String()); len(frames) != 1 || !frameHas(frames[0], "fake") {
		t.Fatalf("stream wrote %v, want only the header", frames)
	}
	if evs := recordedEvents(t, s); len(evs) != 0 {
		t.Fatalf("events recorded for an abandoned stream: %+v", evs)
	}
	if got := solveSamples(t, s); got != samples {
		t.Fatalf("solve-duration samples %g -> %g, want unchanged", samples, got)
	}
	release()
	waitCtx, stop := context.WithTimeout(context.Background(), 5*time.Second)
	defer stop()
	again, err := s.store.ReserveContext(waitCtx)
	if err != nil {
		t.Fatal("the abandoned stream still holds a pool slot")
	}
	again()
}
