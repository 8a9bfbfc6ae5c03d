package dynamics

import (
	"testing"

	"github.com/netecon-sim/publicoption/internal/obs"
	"github.com/netecon-sim/publicoption/internal/scenario"
)

// BenchmarkSimulate times full built-in trajectories and reports the
// per-tick cost and kernel solves — the numbers CI publishes in
// BENCH_dynamics.json. The -benchmem B/op figure is the whole-run budget,
// and CI gates it at 1 MB. Every class game whose result a tick only reads
// (the migration search and its accepted shares, the observations, the
// revenue candidates) solves into the solver's scratch and clones nothing.
// What remains is per-run setup (the population, scratch buffers growing to
// size), the partitions the class game's cycle detector stores, the M/M/1
// delay solve's result and the TickRecords returned to the caller. The
// tick-internal hot path (scalePop, advanceShares) is pinned
// allocation-free by TestTickHotPathZeroAlloc and the hotpathalloc
// analyzer.
func BenchmarkSimulate(b *testing.B) {
	for _, name := range []string{"dyn-convergence", "dyn-demand-shock"} {
		sc, ok := scenario.Get(name)
		if !ok {
			b.Fatalf("built-in scenario %q missing", name)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var stats obs.Counters
			for i := 0; i < b.N; i++ {
				if _, err := Run(sc, Options{Stats: &stats}); err != nil {
					b.Fatal(err)
				}
			}
			ticks := float64(b.N * sc.Dynamics.Ticks)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/ticks, "ns/tick")
			b.ReportMetric(float64(stats.Snapshot().Solves)/ticks, "solves/tick")
		})
	}
}

// TestTickHotPathZeroAlloc pins the //pubopt:hotpath functions — the only
// per-tick code that runs outside the solver kernels — at zero heap
// allocations, the dynamic counterpart of the hotpathalloc static gate.
func TestTickHotPathZeroAlloc(t *testing.T) {
	sc, ok := scenario.Get("dyn-convergence")
	if !ok {
		t.Fatal("built-in scenario dyn-convergence missing")
	}
	e, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	e.Step() // warm every lazily-built buffer
	target := append([]float64(nil), e.shares...)
	if allocs := testing.AllocsPerRun(100, func() {
		e.scalePop(1.25)
		e.advanceShares(target)
	}); allocs != 0 {
		t.Fatalf("tick hot path allocates %v times per run, want 0", allocs)
	}
}
