package core

import (
	"math"
	"testing"

	"github.com/netecon-sim/publicoption/internal/numeric"
)

func TestDuopolySymmetricSplit(t *testing.T) {
	// Two identical neutral ISPs must split the market evenly (below
	// saturation, where Φ is strictly increasing and the split unique).
	pop := ensemble(51, 80)
	sat := pop.TotalUnconstrainedPerCapita()
	mk := NewMarket(nil, pop, 0.5*sat)
	out := mk.SolveDuopoly(
		ISP{Name: "a", Gamma: 0.5, Strategy: PublicOption},
		ISP{Name: "b", Gamma: 0.5, Strategy: PublicOption},
	)
	if math.Abs(out.Shares[0]-0.5) > 1e-6 {
		t.Fatalf("symmetric duopoly shares = %v", out.Shares)
	}
	// Equal surpluses at the equilibrium.
	if math.Abs(out.Eqs[0].Phi()-out.Eqs[1].Phi()) > 1e-6*math.Max(out.Phi, 1) {
		t.Fatalf("Φ not equalized: %v vs %v", out.Eqs[0].Phi(), out.Eqs[1].Phi())
	}
}

func TestDuopolyShareTracksCapacity(t *testing.T) {
	// With identical strategies, market share is proportional to capacity
	// (the duopoly instance of Lemma 4).
	pop := ensemble(52, 80)
	sat := pop.TotalUnconstrainedPerCapita()
	mk := NewMarket(nil, pop, 0.4*sat)
	out := mk.SolveDuopoly(
		ISP{Name: "big", Gamma: 0.7, Strategy: PublicOption},
		ISP{Name: "small", Gamma: 0.3, Strategy: PublicOption},
	)
	if math.Abs(out.Shares[0]-0.7) > 1e-6 || math.Abs(out.Shares[1]-0.3) > 1e-6 {
		t.Fatalf("shares = %v, want capacity proportions (0.7, 0.3)", out.Shares)
	}
}

func TestDuopolyUnaffordablePriceLosesMarket(t *testing.T) {
	// The paper's c_I = 1 corner (Figure 7): with κ_I = 1 and a price no CP
	// can pay, ISP I's surplus is 0 and all consumers move to the Public
	// Option.
	pop := ensemble(53, 80)
	sat := pop.TotalUnconstrainedPerCapita()
	mk := NewMarket(nil, pop, 0.5*sat)
	out := mk.SolveDuopoly(
		ISP{Name: "greedy", Gamma: 0.5, Strategy: Strategy{Kappa: 1, C: 1.01}},
		ISP{Name: "public", Gamma: 0.5, Strategy: PublicOption},
	)
	if out.Shares[0] != 0 || out.Shares[1] != 1 {
		t.Fatalf("shares = %v, want (0, 1)", out.Shares)
	}
	if out.Phi <= 0 {
		t.Fatal("public option must still deliver positive surplus")
	}
}

func TestDuopolyAgainstPublicOptionModeratePrice(t *testing.T) {
	// A moderately priced differentiated ISP coexists with the Public
	// Option; its share stays close to one half (paper: "slightly over 50%"
	// under scarcity, at most ~50% when abundant).
	pop := ensemble(54, 100)
	sat := pop.TotalUnconstrainedPerCapita()
	mk := NewMarket(nil, pop, 0.3*sat)
	out := mk.SolveDuopoly(
		ISP{Name: "strategic", Gamma: 0.5, Strategy: Strategy{Kappa: 1, C: 0.2}},
		ISP{Name: "public", Gamma: 0.5, Strategy: PublicOption},
	)
	m := out.Shares[0]
	if m < 0.2 || m > 0.8 {
		t.Fatalf("strategic ISP share = %v, expected interior equilibrium", m)
	}
	// Surpluses equalized (both ISPs active).
	phiA, phiB := out.Eqs[0].Phi(), out.Eqs[1].Phi()
	if math.Abs(phiA-phiB) > 1e-4*math.Max(phiA, 1) {
		t.Fatalf("Φ not equalized: %v vs %v", phiA, phiB)
	}
}

func TestTheorem5PublicOptionAlignsIncentives(t *testing.T) {
	// Against a Public Option, the strategy maximizing ISP I's market share
	// also (near-)maximizes consumer surplus: argmax_m and argmax_Φ agree
	// up to the class-game discontinuity ε.
	pop := ensemble(55, 80)
	sat := pop.TotalUnconstrainedPerCapita()
	mk := NewMarket(nil, pop, 0.35*sat)
	public := ISP{Name: "public", Gamma: 0.5, Strategy: PublicOption}
	grid := StrategyGrid{
		Kappas: []float64{0, 0.5, 1},
		Cs:     numeric.Linspace(0, 1, 11),
	}
	var bestM, phiAtBestM float64
	bestM = math.Inf(-1)
	var bestPhi float64
	for _, s := range grid.Strategies() {
		out := mk.SolveDuopoly(ISP{Name: "i", Gamma: 0.5, Strategy: s}, public)
		if out.Shares[0] > bestM {
			bestM, phiAtBestM = out.Shares[0], out.Phi
		}
		if out.Phi > bestPhi {
			bestPhi = out.Phi
		}
	}
	// Theorem 5: Φ at the market-share maximizer equals the maximum Φ (up
	// to the numerical ε of the class game and grid resolution).
	if phiAtBestM < bestPhi*(1-0.02) {
		t.Errorf("Φ at share-maximizing strategy = %v, max Φ = %v: misaligned beyond ε", phiAtBestM, bestPhi)
	}
}

func TestSolveMarketMatchesDuopoly(t *testing.T) {
	pop := ensemble(56, 60)
	sat := pop.TotalUnconstrainedPerCapita()
	mk := NewMarket(nil, pop, 0.4*sat)
	a := ISP{Name: "a", Gamma: 0.6, Strategy: Strategy{Kappa: 1, C: 0.3}}
	b := ISP{Name: "b", Gamma: 0.4, Strategy: PublicOption}
	duo := mk.SolveDuopoly(a, b)
	gen := mk.SolveMarket([]ISP{a, b})
	if math.Abs(duo.Shares[0]-gen.Shares[0]) > 0.02 {
		t.Fatalf("duopoly %v vs general market %v shares differ", duo.Shares, gen.Shares)
	}
	if math.Abs(duo.Phi-gen.Phi) > 0.02*math.Max(duo.Phi, 1) {
		t.Fatalf("Φ levels differ: %v vs %v", duo.Phi, gen.Phi)
	}
}

func TestLemma4HomogeneousStrategiesProportionalShares(t *testing.T) {
	pop := ensemble(57, 60)
	sat := pop.TotalUnconstrainedPerCapita()
	mk := NewMarket(nil, pop, 0.4*sat)
	s := Strategy{Kappa: 0.5, C: 0.3}
	isps := []ISP{
		{Name: "x", Gamma: 0.5, Strategy: s},
		{Name: "y", Gamma: 0.3, Strategy: s},
		{Name: "z", Gamma: 0.2, Strategy: s},
	}
	out := mk.SolveMarket(isps)
	for k, isp := range isps {
		if math.Abs(out.Shares[k]-isp.Gamma) > 0.02 {
			t.Errorf("ISP %s share %v, want γ=%v (Lemma 4)", isp.Name, out.Shares[k], isp.Gamma)
		}
	}
}

func TestSolveMarketSingleISP(t *testing.T) {
	pop := ensemble(58, 40)
	mk := NewMarket(nil, pop, 5)
	out := mk.SolveMarket([]ISP{{Name: "only", Gamma: 1, Strategy: PublicOption}})
	if out.Shares[0] != 1 {
		t.Fatalf("single ISP share = %v", out.Shares[0])
	}
}

func TestMarketPanics(t *testing.T) {
	pop := ensemble(59, 10)
	mk := NewMarket(nil, pop, 5)
	cases := []struct {
		name string
		f    func()
	}{
		{"duplicate-names", func() {
			mk.SolveDuopoly(ISP{Name: "a", Gamma: 0.5, Strategy: PublicOption}, ISP{Name: "a", Gamma: 0.5, Strategy: PublicOption})
		}},
		{"bad-gamma-sum", func() {
			mk.SolveDuopoly(ISP{Name: "a", Gamma: 0.5, Strategy: PublicOption}, ISP{Name: "b", Gamma: 0.6, Strategy: PublicOption})
		}},
		{"empty-market", func() { mk.SolveMarket(nil) }},
		{"invalid-strategy", func() {
			mk.SolveDuopoly(ISP{Name: "a", Gamma: 0.5, Strategy: Strategy{Kappa: 2}}, ISP{Name: "b", Gamma: 0.5, Strategy: PublicOption})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.f()
		})
	}
}

func TestMarketOutcomeAccessors(t *testing.T) {
	pop := ensemble(60, 30)
	mk := NewMarket(nil, pop, 3)
	out := mk.SolveDuopoly(
		ISP{Name: "a", Gamma: 0.5, Strategy: PublicOption},
		ISP{Name: "b", Gamma: 0.5, Strategy: PublicOption},
	)
	if math.IsNaN(out.Share("a")) || out.Eq("a") == nil {
		t.Fatal("named accessors broken")
	}
	if !math.IsNaN(out.Share("zzz")) || out.Eq("zzz") != nil {
		t.Fatal("missing names should return NaN/nil")
	}
	if out.String() == "" {
		t.Fatal("String() empty")
	}
}

// TestSolveDuopolyWorkBudget gates the migration search on deterministic
// work rather than wall time: a cold SolveDuopoly of each fixed case must
// take at most half the kernel solves the cold bisection took. The
// bisection over [minShare, 1−minShare] took 282 (ckappa150) and 186
// (gamma1000) kernel solves; the bracketed search takes 56 and 48.
func TestSolveDuopolyWorkBudget(t *testing.T) {
	budget := map[string]uint64{"ckappa150": 282 / 2, "gamma1000": 186 / 2}
	for _, c := range duopolyCases() {
		if _, n := c.solveDuopolyCold(); n > budget[c.name] {
			t.Errorf("%s: SolveDuopoly took %d kernel solves, budget %d", c.name, n, budget[c.name])
		}
	}
}
