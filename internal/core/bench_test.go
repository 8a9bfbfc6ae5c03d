package core

import (
	"testing"

	"github.com/netecon-sim/publicoption/internal/traffic"
)

// Competitive-equilibrium benchmarks: the unit of work every market solve,
// monopoly grid and 2-D sweep repeats. CI extracts these (with -benchmem)
// into BENCH_core.json alongside the alloc kernel and grid-cell probes.

func benchSetup() (*Solver, Strategy, float64, traffic.Population) {
	pop := traffic.PaperPopulation(traffic.PhiCorrelated) // 1000 CPs
	return NewSolver(nil), Strategy{Kappa: 0.5, C: 0.4}, 100.0, pop
}

// BenchmarkCompetitiveEquilibrium1000 solves the full class game from the
// affordability initial partition each iteration — the cold unit of work.
func BenchmarkCompetitiveEquilibrium1000(b *testing.B) {
	s, strat, nu, pop := benchSetup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Competitive(strat, nu, pop)
	}
}

// BenchmarkCompetitiveWarmSweep1000 sweeps the premium price with the
// warm-start partition threaded point to point — the exact shape of
// RevenueCurve, OptimalPrice and the grid row runners.
func BenchmarkCompetitiveWarmSweep1000(b *testing.B) {
	s, strat, nu, pop := benchSetup()
	prices := []float64{0.38, 0.4, 0.42}
	warm := s.Competitive(strat, nu, pop).InPremium
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		strat.C = prices[i%len(prices)]
		eq := s.CompetitiveFrom(strat, nu, pop, warm)
		warm = eq.InPremium
	}
}

// duopolyCase is one fixed migration-layer workload: a market and the two
// ISPs whose consumer split SolveDuopoly searches for.
type duopolyCase struct {
	name string
	pop  traffic.Population
	nu   float64
	a, b ISP
}

// duopolyCases are the shapes of the benchmark's dense grids: a 150-CP
// strategy cell (c×κ) and a 1000-CP Public Option sizing cell (γ), both at
// ν = 0.4 of saturation.
func duopolyCases() []duopolyCase {
	small := ensemble(150, 150)
	paper := traffic.PaperPopulation(traffic.PhiCorrelated)
	return []duopolyCase{
		{"ckappa150", small, 0.4 * small.TotalUnconstrainedPerCapita(),
			ISP{Name: "incumbent", Gamma: 0.5, Strategy: Strategy{Kappa: 0.5, C: 0.5}},
			ISP{Name: "public-option", Gamma: 0.5, Strategy: PublicOption}},
		{"gamma1000", paper, 0.4 * paper.TotalUnconstrainedPerCapita(),
			ISP{Name: "incumbent", Gamma: 0.7, Strategy: Strategy{Kappa: 1, C: 0.4}},
			ISP{Name: "public-option", Gamma: 0.3, Strategy: PublicOption}},
	}
}

// solveDuopolyCold solves the case on a fresh solver and market, so every
// call does the same work, and returns the kernel solves it took.
func (c duopolyCase) solveDuopolyCold() (*MarketOutcome, uint64) {
	mk := NewMarket(NewSolver(nil), c.pop, c.nu)
	out := mk.SolveDuopoly(c.a, c.b)
	return out, mk.Solver.Stats().Solves
}

// BenchmarkSolveDuopoly is the migration layer: one cold SolveDuopoly, from
// the plateau check through the share search to the two accepted class
// equilibria. CI runs it with -benchmem into BENCH_core.json; solves/op is
// the deterministic kernel-solve count.
func BenchmarkSolveDuopoly(b *testing.B) {
	for _, c := range duopolyCases() {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var solves uint64
			for i := 0; i < b.N; i++ {
				_, n := c.solveDuopolyCold()
				solves += n
			}
			b.ReportMetric(float64(solves)/float64(b.N), "solves/op")
		})
	}
}
