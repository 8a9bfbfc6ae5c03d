// Package experiment defines the reproduction of every figure in the
// paper's evaluation (Figures 2–5 and 7–12; Figures 1 and 6 are schematic
// diagrams) plus the ablation studies listed in README.md's figure map.
// Each experiment declares its workload and parameters and emits sweep
// tables — the same series the paper plots — renderable as ASCII charts or
// CSV. The market figures (4, 5, 7–12), the regime comparison and the
// Public Option capacity ablation are scenario specs solved by
// internal/scenario; the rest stay code because they solve no market.
//
// Experiments are deterministic: the same Config produces identical output.
// Config.Fast switches to reduced grids and smaller CP ensembles so the
// entire registry can run inside the test suite; the default configuration
// matches the paper (1000-CP ensembles, full grids) and is what the
// benchmark harness runs.
package experiment

import (
	"fmt"
	"sort"

	"github.com/netecon-sim/publicoption/internal/numeric"
	"github.com/netecon-sim/publicoption/internal/obs"
	"github.com/netecon-sim/publicoption/internal/scenario"
	"github.com/netecon-sim/publicoption/internal/sweep"
)

// Config controls an experiment run.
type Config struct {
	// Seed for the CP ensemble draw. 0 uses the repository default
	// (traffic.DefaultSeed), which reproduces the published outputs.
	Seed uint64
	// CPs is the random-ensemble size. 0 means the paper's 1000 (or the
	// fast-mode default of 120 when Fast is set).
	CPs int
	// Fast selects reduced grids for use in tests. Shapes are preserved;
	// resolution is not.
	Fast bool
	// Workers bounds the parallelism across grid rows and independent
	// curves. 0 means GOMAXPROCS. It never changes the output.
	Workers int
}

// population declares the experiment's CP population under the given φ
// setting ("" for correlated, "independent" for the appendix figures): the
// published 1000-CP ensemble at the default config, otherwise the paper
// ensemble re-seeded to Seed and re-sized to CPs (120 in fast mode).
// Declaring it draws nothing.
func (c Config) population(phi string) scenario.PopulationSpec {
	n := 0
	switch {
	case c.CPs > 0:
		n = c.CPs
	case c.Fast:
		n = 120
	}
	p := scenario.PopulationSpec{Kind: "paper", Phi: phi}
	_ = p.ApplyEnsembleOverrides(c.Seed, n) // cannot fail: "paper" takes any seed and n >= 0
	return p
}

// points returns n, or nFast in fast mode.
func (c Config) points(n, nFast int) int {
	if c.Fast {
		return nFast
	}
	return n
}

// grid returns c.points(n, nFast) evenly spaced points on [lo, hi].
func (c Config) grid(lo, hi float64, n, nFast int) []float64 {
	return numeric.Linspace(lo, hi, c.points(n, nFast))
}

// Experiment is one reproducible figure or ablation.
type Experiment struct {
	// ID is the registry key, e.g. "fig4" or "ablation-mm1".
	ID string
	// Title is the paper's caption (or the ablation's description).
	Title string
	// Expect describes the qualitative shape the paper reports, recorded so
	// paper-vs-measured comparisons are self-contained.
	Expect string
	// Run executes the experiment and returns its tables. stats, when
	// non-nil, receives the run's solver telemetry.
	Run func(cfg Config, stats *obs.Counters) []*sweep.Table
}

var registry []*Experiment

func register(e *Experiment) {
	for _, old := range registry {
		if old.ID == e.ID {
			panic("experiment: duplicate id " + e.ID)
		}
	}
	registry = append(registry, e)
}

// All returns the registered experiments sorted by ID (figures first in
// numeric order, then ablations alphabetically).
func All() []*Experiment {
	out := append([]*Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return lessID(out[i].ID, out[j].ID) })
	return out
}

func lessID(a, b string) bool {
	fa, fb := figNum(a), figNum(b)
	switch {
	case fa >= 0 && fb >= 0:
		return fa < fb
	case fa >= 0:
		return true
	case fb >= 0:
		return false
	default:
		return a < b
	}
}

func figNum(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "fig%d", &n); err == nil {
		return n
	}
	return -1
}

// Get looks up an experiment by ID.
func Get(id string) (*Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return nil, false
}

// MustRun runs the experiment with the config, panicking on unknown IDs.
func MustRun(id string, cfg Config) []*sweep.Table {
	e, ok := Get(id)
	if !ok {
		panic("experiment: unknown id " + id)
	}
	return e.Run(cfg, nil)
}
