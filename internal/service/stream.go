package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/netecon-sim/publicoption/internal/cache"
	"github.com/netecon-sim/publicoption/internal/obs"
)

// The NDJSON stream driver. Dense batch grids, refined batch grids and
// simulations all stream cacheable units — cells, lattice points, ticks —
// through one life cycle, run by streamUnits: header frame, cache probe
// (hits stream immediately), one worker-pool slot for the solve, one
// "cache":"miss" frame per solved unit as it is cached, then a terminal done
// or error frame carrying the request's single solve-duration sample,
// flight-recorder event and log line. A client disconnect and a failed frame
// write end the stream the same way: nothing more is written, no summary is
// recorded, and units solved so far stay cached.
//
// See docs/SERVICE.md ("Streaming contract") for the client-side view.

// errStreamEnded is what streamOut writes return once the stream has ended:
// the client went away or a frame write failed.
var errStreamEnded = errors.New("stream ended: client gone or frame write failed")

// errorFrame reports one failed unit without tearing down the stream:
// list-mode scenario failures carry their index and the stream continues;
// a stream's solve failure is terminal (the done frame never arrives).
type errorFrame struct {
	Index *int   `json:"index,omitempty"`
	Error string `json:"error"`
}

// ndjsonWriter serializes frames to the response, one JSON object per
// line, flushing after every frame so results stream instead of buffering.
// Each frame's serialize+write+flush time feeds the
// pubopt_batch_frame_write_seconds histogram (nil metrics skips it).
type ndjsonWriter struct {
	w       http.ResponseWriter
	flusher http.Flusher
	metrics *metrics
	started bool
}

func newNDJSONWriter(w http.ResponseWriter, m *metrics) *ndjsonWriter {
	flusher, _ := w.(http.Flusher)
	return &ndjsonWriter{w: w, flusher: flusher, metrics: m}
}

// frame writes one NDJSON frame. The first frame commits the 200 status
// and the x-ndjson content type; errors after that point must travel as
// error frames, not status codes.
func (nw *ndjsonWriter) frame(v any) error {
	start := time.Now()
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("serializing frame: %w", err)
	}
	if !nw.started {
		nw.w.Header().Set("Content-Type", "application/x-ndjson")
		nw.w.WriteHeader(http.StatusOK)
		nw.started = true
	}
	if _, err := nw.w.Write(append(b, '\n')); err != nil {
		return err
	}
	if nw.flusher != nil {
		nw.flusher.Flush()
	}
	if nw.metrics != nil {
		nw.metrics.observeFrame(time.Since(start).Seconds())
	}
	return nil
}

// unitStream is what one streaming endpoint supplies to streamUnits: the
// parts that differ between dense grids, refined grids and simulations.
type unitStream struct {
	kind   string // summary event kind: "grid" or "sim"
	unit   string // per-unit event kind: "cell" or "tick"
	name   string // scenario name, for events and logs
	key    string // cache key the summary event reports, if any
	header any    // the opening frame
	// keys are the units' content addresses, probed in order before any
	// solving; nil skips the probe (the refinement engine probes itself).
	keys []string
	// prefix ends the probe at the first miss: a trajectory resumes only
	// from its contiguous cached prefix.
	prefix bool
	// frame renders unit i's value as a frame with the given cache status
	// and trace echo.
	frame func(i int, val any, status, trace string) any
	// solve produces the units the probe missed, banking each through
	// out.miss (or writing its own frames through out.frame). It runs
	// holding one worker-pool slot and returns the solver telemetry to
	// publish.
	solve func(ctx context.Context, out *streamOut) (obs.SolveStats, error)
	// done renders the done frame from the stream's unit counts.
	done func(hits, solved int, elapsed time.Duration) any
}

// streamOut is a running stream as its unit producer sees it.
type streamOut struct {
	s      *Server
	st     *unitStream
	ctx    context.Context
	nw     *ndjsonWriter
	trace  string // the request's trace ID, for events
	echo   string // the trace ID echoed in frames (empty unless Options.Trace)
	ended  bool   // a frame write failed
	solved int    // units this request solved
	// missing lists the indexes of the units the probe did not find, in
	// order; last is the value of the last unit it found.
	missing []int
	last    any
}

// gone reports whether the stream has ended: the client went away or a
// frame write failed. Nothing is written after that.
func (o *streamOut) gone() bool { return o.ended || o.ctx.Err() != nil }

// frame writes one frame unless the stream has ended.
func (o *streamOut) frame(v any) error {
	if o.gone() {
		return errStreamEnded
	}
	if err := o.nw.frame(v); err != nil {
		o.ended = true
		return errStreamEnded
	}
	return nil
}

// miss banks solved unit i: it enters the cache, then the flight recorder
// and the stream as a "cache":"miss" frame. Once the stream has ended the
// unit is only cached, so work finished after a disconnect is not lost;
// the error tells the producer to stop.
func (o *streamOut) miss(i int, val any, solver obs.SolveStats) error {
	key := o.st.keys[i]
	o.s.store.Put(key, val)
	o.solved++
	if o.gone() {
		return errStreamEnded
	}
	o.s.recorder.Record(obs.Event{
		Time: time.Now(), Trace: o.trace, Kind: o.st.unit, Name: o.st.name,
		Key: shortKey(key), Outcome: cache.Miss.String(), Solver: solver,
	})
	return o.frame(o.st.frame(i, val, cache.Miss.String(), o.echo))
}

// streamUnits runs one unit stream's life cycle over the response; see the
// top of this file.
func (s *Server) streamUnits(w http.ResponseWriter, r *http.Request, st *unitStream) {
	ctx := r.Context()
	start := time.Now()
	out := &streamOut{s: s, st: st, ctx: ctx, nw: newNDJSONWriter(w, s.metrics), trace: obs.TraceID(ctx)}
	if s.trace {
		out.echo = out.trace
	}
	if out.frame(st.header) != nil {
		return
	}
	hits := 0
	for i, key := range st.keys {
		if ctx.Err() != nil {
			return
		}
		val, ok := s.store.Lookup(key)
		if !ok && st.prefix {
			for j := i; j < len(st.keys); j++ {
				out.missing = append(out.missing, j)
			}
			break
		}
		if !ok {
			out.missing = append(out.missing, i)
			continue
		}
		hits++
		out.last = val
		if out.frame(st.frame(i, val, cache.Hit.String(), out.echo)) != nil {
			return
		}
	}

	var delta obs.SolveStats
	var err error
	if st.keys == nil || len(out.missing) > 0 {
		// A stream's solve occupies one worker-pool slot, like any pooled
		// solve: its internal parallelism plays the role of a solve's
		// per-solve parallelism, so concurrent cold streams queue instead of
		// oversubscribing the CPU. A client that leaves while queued gives
		// up the wait and holds no slot.
		release, rerr := s.store.ReserveContext(ctx)
		if rerr != nil {
			return
		}
		s.metrics.solveStarted()
		delta, err = st.run(ctx, out)
		s.metrics.solveFinished()
		release()
		s.counters.Add(delta)
	}
	if out.gone() {
		return
	}

	// The whole stream is one solve-duration observation: "miss" if
	// anything was solved, "hit" for a fully warm replay, "error" when the
	// solve failed.
	elapsed := time.Since(start)
	ev := obs.Event{
		Time: time.Now(), Trace: out.trace, Kind: st.kind, Name: st.name,
		Key: shortKey(st.key), Outcome: cache.Hit.String(),
		DurationMS: millis(elapsed), Solver: delta,
	}
	var final any
	if err != nil {
		ev.Outcome, ev.Error = "error", err.Error()
		s.logger.Error("stream failed", "kind", st.kind, "name", st.name, "trace", out.trace, "error", err)
		final = &errorFrame{Error: err.Error()}
	} else {
		if out.solved > 0 {
			ev.Outcome = cache.Miss.String()
		}
		final = st.done(hits, out.solved, elapsed)
		s.logger.Info("stream served", "kind", st.kind, "name", st.name,
			"elapsed_s", elapsed.Seconds(), "solves", delta.Solves, "evals", delta.Evals,
			"trace", out.trace, "done", final)
	}
	s.metrics.observeSolve(ev.Outcome, elapsed.Seconds())
	s.recorder.Record(ev)
	//pubopt:allow(streamcheck): terminal frame; the stream ends either way and there is nothing left to abort
	out.nw.frame(final)
}

// run calls the stream's unit producer, converting a panic — a solver
// invariant violation — into the stream's terminal error.
func (st *unitStream) run(ctx context.Context, out *streamOut) (delta obs.SolveStats, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s solve panicked: %v", st.kind, p)
		}
	}()
	return st.solve(ctx, out)
}

// millis renders a duration as fractional milliseconds for frames and
// events.
func millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
