package dynamics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/netecon-sim/publicoption/internal/scenario"
)

// TestTrajectoryGoldens pins every registered dynamic scenario's full
// trajectory — shares, prices, capacities, surpluses, the Public Option's
// M/M/1 delay and each tick's solver telemetry — as JSON under testdata/,
// compared byte for byte. encoding/json writes the shortest decimal that
// round-trips, so equal bytes means equal float64 bits, and the solver
// counters pin the sequence of kernel solves as well as their results.
//
// Regenerate (after an INTENDED numeric change only) with:
//
//	PUBOPT_UPDATE_GOLDENS=1 go test ./internal/dynamics/ -run TestTrajectoryGoldens
func TestTrajectoryGoldens(t *testing.T) {
	update := os.Getenv("PUBOPT_UPDATE_GOLDENS") != ""
	for _, name := range scenario.DynamicsNames() {
		t.Run(name, func(t *testing.T) {
			tr := runScenario(t, getScenario(t, name), 1)
			got, err := json.MarshalIndent(tr, "", " ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", name+".json")
			if update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				var w Trajectory
				if err := json.Unmarshal(want, &w); err != nil {
					t.Fatal(err)
				}
				t.Fatalf("%s drifted from %s: %s", name, path, firstDiff(tr, &w))
			}
		})
	}
}

// firstDiff names the first tick and field where got and want disagree.
func firstDiff(got, want *Trajectory) string {
	if len(got.Ticks) != len(want.Ticks) {
		return fmt.Sprintf("%d ticks, want %d", len(got.Ticks), len(want.Ticks))
	}
	for i := range want.Ticks {
		g, w := &got.Ticks[i], &want.Ticks[i]
		scalars := []struct {
			name string
			g, w float64
		}{
			{"multiplier", g.Multiplier, w.Multiplier},
			{"nu_bar", g.NuBar, w.NuBar},
			{"phi", g.Phi, w.Phi},
			{"phi_gap", g.PhiGap, w.PhiGap},
			{"po_delay", g.PODelay, w.PODelay},
		}
		for _, s := range scalars {
			if math.Float64bits(s.g) != math.Float64bits(s.w) {
				return fmt.Sprintf("tick %d %s = %.17g, want %.17g", w.Tick, s.name, s.g, s.w)
			}
		}
		vectors := []struct {
			name string
			g, w []float64
		}{
			{"caps", g.Caps, w.Caps},
			{"kappas", g.Kappas, w.Kappas},
			{"prices", g.Prices, w.Prices},
			{"shares", g.Shares, w.Shares},
			{"phi_per", g.PhiPer, w.PhiPer},
			{"psi", g.Psi, w.Psi},
			{"util", g.Util, w.Util},
		}
		for _, v := range vectors {
			if len(v.g) != len(v.w) {
				return fmt.Sprintf("tick %d %s has %d entries, want %d", w.Tick, v.name, len(v.g), len(v.w))
			}
			for k := range v.w {
				if math.Float64bits(v.g[k]) != math.Float64bits(v.w[k]) {
					return fmt.Sprintf("tick %d %s[%d] = %.17g, want %.17g", w.Tick, v.name, k, v.g[k], v.w[k])
				}
			}
		}
		if g.Solver != w.Solver {
			return fmt.Sprintf("tick %d solver = %+v, want %+v", w.Tick, g.Solver, w.Solver)
		}
	}
	return "labels differ"
}
