package service

import (
	"context"
	"encoding/json"
	"net/http"
	"time"

	"github.com/netecon-sim/publicoption/internal/cache"
	"github.com/netecon-sim/publicoption/internal/dynamics"
	"github.com/netecon-sim/publicoption/internal/obs"
	"github.com/netecon-sim/publicoption/internal/scenario"
)

// POST /v1/simulate — the streaming dynamics runner. One request simulates
// one dynamics scenario (named or inline) tick by tick, and the response is
// NDJSON: a header frame with the run's geometry, one frame per tick
// written and flushed as the tick completes, and a summary frame.
//
// Ticks are cached individually under their content address — the
// scenario's canonical JSON plus the tick index — and a trajectory is a
// pure function of the scenario, so a replay streams the cached prefix
// without solving anything. At the first missing tick the engine is
// restored from the last cached record and the remainder of the trajectory
// is solved live (a restored warm start can differ from an uninterrupted
// one by ~1e-9 per solve; see dynamics.Engine.Restore). The summary frame's
// Solved count is 0 on a fully warm replay — the number CI asserts on.
//
// See docs/DYNAMICS.md for the full frame-by-frame contract.

// simulateRequest is the body of POST /v1/simulate. Exactly one of
// Scenario (a registered name) or ScenarioJSON (an inline definition)
// must be set.
type simulateRequest struct {
	Scenario     string          `json:"scenario,omitempty"`
	ScenarioJSON json.RawMessage `json:"scenario_json,omitempty"`
	// Workers is accepted for symmetry with /v1/runs and /v1/batch and is
	// execution-only; ticks are sequential by construction, so it never
	// changes the trajectory (see dynamics.Options).
	Workers int `json:"workers,omitempty"`
}

// simHeaderFrame opens the stream with the resolved run geometry, so
// clients can allocate before any tick arrives.
type simHeaderFrame struct {
	Sim simInfo `json:"sim"`
}

type simInfo struct {
	Name      string   `json:"name"`
	Title     string   `json:"title"`
	Providers []string `json:"providers"`
	Metrics   []string `json:"metrics,omitempty"`
	Ticks     int      `json:"ticks"`
}

// simTickFrame is one solved or cache-served tick. Trace carries the
// request's trace ID when the server runs with Options.Trace.
type simTickFrame struct {
	Tick  dynamics.TickRecord `json:"tick"`
	Cache string              `json:"cache"` // "hit" or "miss"
	Trace string              `json:"trace,omitempty"`
}

// simDoneFrame closes the stream. Solved is 0 on a fully warm replay.
type simDoneFrame struct {
	Done      bool    `json:"done"`
	Ticks     int     `json:"ticks"`
	Solved    int     `json:"solved"`
	CacheHits int     `json:"cache_hits"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// simTickAddress is the content a tick's cache key hashes: the scenario's
// canonical JSON (physics and dynamics; nothing cosmetic survives
// canonicalization that would change the trajectory) plus the tick index.
type simTickAddress struct {
	Spec json.RawMessage `json:"spec"`
	Tick int             `json:"tick"`
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req simulateRequest
	if err := decodeJSONBody(w, r, &req, false); err != nil {
		writeError(w, bodyErrorStatus(err), "%v", err)
		return
	}
	sc, code, err := s.resolveScenario(req.Scenario, req.ScenarioJSON, dynamicKind)
	if err != nil {
		writeError(w, code, "%v", err)
		return
	}
	canon, err := sc.CanonicalJSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "serializing scenario: %v", err)
		return
	}

	// Content-address every tick up front.
	ticks := sc.Dynamics.Ticks
	keys := make([]string, ticks)
	for t := range keys {
		if keys[t], err = cache.Key("sim/tick/v1", simTickAddress{Spec: canon, Tick: t}); err != nil {
			writeError(w, http.StatusInternalServerError, "hashing tick %d: %v", t, err)
			return
		}
	}
	s.streamUnits(w, r, &unitStream{
		kind: "sim", unit: "tick", name: sc.Name,
		header: &simHeaderFrame{Sim: simInfo{
			Name: sc.Name, Title: sc.Title,
			Providers: providerNames(sc), Metrics: sc.Sweep.Metrics, Ticks: ticks,
		}},
		// The probe streams the contiguous cached prefix from tick 0; cached
		// ticks beyond the first hole are ignored and simply overwritten by
		// the fresh solve.
		keys:   keys,
		prefix: true,
		frame: func(_ int, val any, status, trace string) any {
			return &simTickFrame{Tick: val.(dynamics.TickRecord), Cache: status, Trace: trace}
		},
		solve: func(ctx context.Context, out *streamOut) (obs.SolveStats, error) {
			// The last prefix record is the exact state the next tick
			// starts from (TickRecord doubles as resume state).
			eng, err := dynamics.New(sc)
			if err == nil && out.last != nil {
				err = eng.Restore(out.last.(dynamics.TickRecord))
			}
			if err != nil {
				return obs.SolveStats{}, err
			}
			for eng.Tick() < ticks {
				rec := eng.Step()
				if out.miss(rec.Tick, rec, rec.Solver) != nil {
					break
				}
			}
			s.metrics.observeSimTicks(out.solved)
			return eng.Stats(), nil
		},
		done: func(hits, solved int, elapsed time.Duration) any {
			return &simDoneFrame{
				Done: true, Ticks: ticks, Solved: solved, CacheHits: hits,
				ElapsedMS: millis(elapsed),
			}
		},
	})
}

// providerNames lists the scenario's providers in declaration order.
func providerNames(sc *scenario.Scenario) []string {
	names := make([]string, len(sc.Providers))
	for i, p := range sc.Providers {
		names[i] = p.Name
	}
	return names
}
