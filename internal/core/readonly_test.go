package core

import (
	"math"
	"slices"
	"testing"
)

// sameBits reports whether two float slices are equal bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestProbeMatchesCompetitiveFrom pins Probe to CompetitiveFrom: on fresh
// solvers, the same sequence of warm-started class games yields the same
// partitions, throughputs, Φ and Ψ bit for bit, and the same kernel work.
func TestProbeMatchesCompetitiveFrom(t *testing.T) {
	pop := ensemble(31, 120)
	sat := pop.TotalUnconstrainedPerCapita()
	games := []struct {
		s  Strategy
		nu float64
	}{
		{Strategy{Kappa: 0.6, C: 0.3}, 0.3 * sat},
		{Strategy{Kappa: 0.6, C: 0.35}, 0.3 * sat},
		{Strategy{Kappa: 1, C: 0.5}, 0.5 * sat},
		{Strategy{Kappa: 0.4, C: 0.2}, 1.2 * sat},
		{PublicOption, 0.4 * sat},
		{Strategy{Kappa: 0.8, C: 0.6}, 0.05 * sat},
	}
	retained, probed := NewSolver(nil), NewSolver(nil)
	var warmR, warmP []bool
	for i, g := range games {
		r0, p0 := retained.Stats(), probed.Stats()
		want := retained.CompetitiveFrom(g.s, g.nu, pop, warmR)
		got := probed.Probe(g.s, g.nu, pop, warmP)
		if !slices.Equal(got.InPremium, want.InPremium) {
			t.Fatalf("game %d: Probe partition differs from CompetitiveFrom", i)
		}
		if !sameBits(got.Theta, want.Theta) {
			t.Fatalf("game %d: Probe throughputs differ from CompetitiveFrom", i)
		}
		if math.Float64bits(got.Phi()) != math.Float64bits(want.Phi()) || math.Float64bits(got.Psi()) != math.Float64bits(want.Psi()) {
			t.Fatalf("game %d: Probe (Φ, Ψ) = (%.17g, %.17g), CompetitiveFrom (%.17g, %.17g)", i, got.Phi(), got.Psi(), want.Phi(), want.Psi())
		}
		if dg, dw := probed.Stats().Since(p0), retained.Stats().Since(r0); dg != dw {
			t.Fatalf("game %d: Probe did work %+v, CompetitiveFrom %+v", i, dg, dw)
		}
		warmR = append(warmR[:0], want.InPremium...)
		warmP = append(warmP[:0], got.InPremium...)
	}
}

// TestSolveSharesMatchesRetainingSolves pins SolveShares to the retaining
// solves for one, two and three ISPs: the same shares bit for bit, the same
// kernel work, and the same warm partitions left behind, which the
// following retaining solve on each market shows.
func TestSolveSharesMatchesRetainingSolves(t *testing.T) {
	pop := ensemble(32, 120)
	sat := pop.TotalUnconstrainedPerCapita()
	markets := [][]ISP{
		{{Name: "mono", Gamma: 1, Strategy: Strategy{Kappa: 1, C: 0.4}}},
		{
			{Name: "i", Gamma: 0.6, Strategy: Strategy{Kappa: 1, C: 0.3}},
			{Name: "po", Gamma: 0.4, Strategy: PublicOption},
		},
		{
			{Name: "i", Gamma: 0.5, Strategy: Strategy{Kappa: 0.5, C: 0.2}},
			{Name: "po", Gamma: 0.5, Strategy: PublicOption},
		},
		{
			{Name: "a", Gamma: 0.5, Strategy: Strategy{Kappa: 0.7, C: 0.35}},
			{Name: "b", Gamma: 0.3, Strategy: Strategy{Kappa: 1, C: 0.5}},
			{Name: "po", Gamma: 0.2, Strategy: PublicOption},
		},
	}
	solve := func(mk *Market, isps []ISP) *MarketOutcome {
		if len(isps) == 2 {
			return mk.SolveDuopoly(isps[0], isps[1])
		}
		return mk.SolveMarket(isps)
	}
	for _, nuFrac := range []float64{0.2, 0.5, 1.5} {
		for mi, isps := range markets {
			retained := NewMarket(nil, pop, nuFrac*sat)
			sharesOnly := NewMarket(nil, pop, nuFrac*sat)
			r0, s0 := retained.Solver.Stats(), sharesOnly.Solver.Stats()
			want := solve(retained, isps).Shares
			got := sharesOnly.SolveShares(isps)
			if !sameBits(got, want) {
				t.Fatalf("ν=%g·sat market %d: SolveShares = %v, retaining solve %v", nuFrac, mi, got, want)
			}
			if dg, dw := sharesOnly.Solver.Stats().Since(s0), retained.Solver.Stats().Since(r0); dg != dw {
				t.Fatalf("ν=%g·sat market %d: SolveShares did work %+v, retaining solve %+v", nuFrac, mi, dg, dw)
			}
			// Move every priced ISP's price so the next solve starts from
			// the warm partitions the first one left behind.
			next := slices.Clone(isps)
			for k := range next {
				if next[k].Strategy.Kappa > 0 {
					next[k].Strategy.C += 0.05
				}
			}
			w, g := solve(retained, next), solve(sharesOnly, next)
			if !sameBits(g.Shares, w.Shares) || math.Float64bits(g.Phi) != math.Float64bits(w.Phi) {
				t.Fatalf("ν=%g·sat market %d: solve after SolveShares = %v (Φ %.17g), after retaining solve %v (Φ %.17g)", nuFrac, mi, g.Shares, g.Phi, w.Shares, w.Phi)
			}
			for k := range w.Eqs {
				if !slices.Equal(g.Eqs[k].InPremium, w.Eqs[k].InPremium) || !sameBits(g.Eqs[k].Theta, w.Eqs[k].Theta) {
					t.Fatalf("ν=%g·sat market %d: ISP %d's equilibrium after SolveShares differs", nuFrac, mi, k)
				}
			}
		}
	}
}
