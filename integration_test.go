package publicoption_test

import (
	"math"
	"testing"

	publicoption "github.com/netecon-sim/publicoption"
)

// End-to-end integration scenarios exercising the full substrate chain
// through the public API: TCP simulation → analytic equilibrium → surplus →
// strategic games. These are the cross-module stories a downstream user
// would build.

// Scenario: an operator models its regional market bottom-up. The TCP layer
// justifies the max-min abstraction, the abstraction feeds the rate
// equilibrium, the equilibrium feeds surplus, the surplus drives the market
// game — and the final answer (deploy a Public Option) is consistent all
// the way down.
func TestIntegrationBottomUpPipeline(t *testing.T) {
	// 1. Transport layer: AIMD flows at a 100-unit bottleneck behave
	// max-min fair.
	flows := []publicoption.TCPFlow{
		{Name: "a", RTT: 0.05}, {Name: "b", RTT: 0.05},
		{Name: "c", RTT: 0.05}, {Name: "capped", RTT: 0.05, Cap: 10},
	}
	sim, err := publicoption.SimulateTCP(publicoption.TCPConfig{Capacity: 100}, flows)
	if err != nil {
		t.Fatal(err)
	}
	ref := publicoption.TCPMaxMinReference(100, []float64{0, 0, 0, 10})
	for i := range flows {
		if d := math.Abs(sim.Flows[i].Rate-ref[i]) / ref[i]; d > 0.25 {
			t.Fatalf("transport layer deviates from max-min at flow %d by %.0f%%", i, 100*d)
		}
	}

	// 2. Model layer: the max-min equilibrium on the paper's ensemble.
	pop := publicoption.GeneratePopulation(publicoption.PhiCorrelated, 200, 42)
	sat := pop.TotalUnconstrainedPerCapita()
	nu := 0.6 * sat
	eq := publicoption.RateEquilibrium(nu, pop)
	if u := eq.Aggregate() / nu; math.Abs(u-1) > 1e-6 {
		t.Fatalf("model layer utilization %v, want work conservation", u)
	}
	phiNeutral := publicoption.ConsumerSurplus(eq)

	// 3. Strategy layer: an unregulated monopolist would do damage here.
	mono := publicoption.NewMonopoly(nil)
	cBest, eqBest := mono.OptimalPrice(1, 1, nu, pop, 40)
	if eqBest.Phi() >= phiNeutral {
		t.Skipf("draw does not exhibit misalignment at ν=%.3g (c*=%v)", nu, cBest)
	}

	// 4. Remedy layer: with a Public Option present, the incumbent's own
	// market-share maximization (Theorem 5) lifts consumer surplus above
	// the unregulated monopoly level. (Merely *existing* is not enough —
	// against a frozen hostile strategy, migration equalizes at the
	// incumbent's surplus level; the remedy works through incentives.)
	mk := publicoption.NewMarket(nil, pop, nu)
	isps := []publicoption.ISP{
		{Name: "incumbent", Gamma: 0.5, Strategy: publicoption.Strategy{Kappa: 1, C: cBest}},
		{Name: "po", Gamma: 0.5, Strategy: publicoption.PublicOptionStrategy},
	}
	grid := publicoption.StrategyGrid{
		Kappas: []float64{0, 0.5, 1},
		Cs:     []float64{0, 0.2, 0.4, 0.6, 0.8, 1},
	}
	_, out, _ := mk.BestResponse(isps, 0, grid)
	if out.Phi <= eqBest.Phi() {
		t.Fatalf("Public Option market Φ=%v did not improve on monopoly Φ=%v", out.Phi, eqBest.Phi())
	}
}

// Scenario: the welfare ledger stays consistent across the class game — no
// surplus is created or destroyed by pricing, only moved between the ISP
// and the CPs.
func TestIntegrationWelfareConservation(t *testing.T) {
	pop := publicoption.GeneratePopulation(publicoption.PhiCorrelated, 120, 9)
	sat := pop.TotalUnconstrainedPerCapita()
	solver := publicoption.NewSolver(nil)
	for _, c := range []float64{0.1, 0.4, 0.7} {
		eq := solver.Competitive(publicoption.Strategy{Kappa: 1, C: c}, 0.3*sat, pop)
		w := publicoption.WelfareOf(eq.Premium, c)
		// ISP revenue plus CP net utility equals gross CP value at any price.
		gross := 0.0
		for i := range eq.Premium.Pop {
			gross += eq.Premium.Pop[i].V * eq.Premium.PerCapitaRate(i)
		}
		if math.Abs(w.ISP+w.CPs-gross) > 1e-9*math.Max(gross, 1) {
			t.Fatalf("c=%v: transfer identity broken: %v + %v != %v", c, w.ISP, w.CPs, gross)
		}
		if math.Abs(w.ISP-eq.Psi()) > 1e-9*math.Max(w.ISP, 1) {
			t.Fatalf("c=%v: two revenue accountings disagree", c)
		}
	}
}

// Scenario: determinism end to end — the full published pipeline reproduces
// itself exactly, which is what makes the reproduced figures checkable.
func TestIntegrationDeterminism(t *testing.T) {
	run := func() (float64, float64) {
		pop := publicoption.PaperPopulation(publicoption.PhiCorrelated)
		out := publicoption.DuopolyWithPublicOption(
			publicoption.Strategy{Kappa: 1, C: 0.3}, 0.5, 100, pop)
		return out.Shares[0], out.Phi
	}
	s1, p1 := run()
	s2, p2 := run()
	if s1 != s2 || p1 != p2 {
		t.Fatalf("pipeline not deterministic: (%v,%v) vs (%v,%v)", s1, p1, s2, p2)
	}
}
