package core

import (
	"math"
	"testing"
)

func TestSubsidyZeroMatchesBaseline(t *testing.T) {
	pop := ensemble(81, 80)
	sat := pop.TotalUnconstrainedPerCapita()
	mk := NewMarket(nil, pop, 0.4*sat)
	a := ISP{Name: "i", Gamma: 0.5, Strategy: Strategy{Kappa: 1, C: 0.3}}
	b := ISP{Name: "po", Gamma: 0.5, Strategy: PublicOption}
	base := mk.SolveDuopoly(a, b)
	sub := mk.SolveSubsidizedDuopoly(
		SubsidizedISP{ISP: a, Sigma: 0},
		SubsidizedISP{ISP: b, Sigma: 0},
	)
	if math.Abs(base.Shares[0]-sub.Shares[0]) > 1e-6 {
		t.Fatalf("σ=0 shares differ: %v vs %v", base.Shares[0], sub.Shares[0])
	}
}

func TestSubsidyBuysMarketShare(t *testing.T) {
	// §VI: rebating premium revenue must attract consumers relative to
	// pocketing it.
	pop := ensemble(82, 80)
	sat := pop.TotalUnconstrainedPerCapita()
	mk := NewMarket(nil, pop, 0.4*sat)
	a := ISP{Name: "i", Gamma: 0.5, Strategy: Strategy{Kappa: 1, C: 0.3}}
	b := ISP{Name: "po", Gamma: 0.5, Strategy: PublicOption}
	noRebate := mk.SolveSubsidizedDuopoly(
		SubsidizedISP{ISP: a, Sigma: 0}, SubsidizedISP{ISP: b, Sigma: 0})
	fullRebate := mk.SolveSubsidizedDuopoly(
		SubsidizedISP{ISP: a, Sigma: 1}, SubsidizedISP{ISP: b, Sigma: 0})
	if fullRebate.Shares[0] <= noRebate.Shares[0] {
		t.Fatalf("full rebate share %v not above no-rebate share %v",
			fullRebate.Shares[0], noRebate.Shares[0])
	}
}

func TestSubsidyCannotMaskGrossSurplusLoss(t *testing.T) {
	// A rebating incumbent with a consumer-hostile strategy gains share,
	// but the regulator's gross-Φ view must still see the damage relative
	// to the neutral benchmark.
	pop := ensemble(83, 80)
	sat := pop.TotalUnconstrainedPerCapita()
	nuBar := 0.4 * sat
	mk := NewMarket(nil, pop, nuBar)
	hostile := ISP{Name: "i", Gamma: 0.5, Strategy: Strategy{Kappa: 1, C: 0.85}}
	po := ISP{Name: "po", Gamma: 0.5, Strategy: PublicOption}
	out := mk.SolveSubsidizedDuopoly(
		SubsidizedISP{ISP: hostile, Sigma: 1}, SubsidizedISP{ISP: po, Sigma: 0})
	neutralPhi := NewSolver(nil).Competitive(PublicOption, nuBar, pop).Phi()
	if out.GrossPhi >= neutralPhi {
		t.Fatalf("gross Φ %v should fall below the neutral benchmark %v under a hostile rebater",
			out.GrossPhi, neutralPhi)
	}
}

func TestSubsidyValidation(t *testing.T) {
	pop := ensemble(84, 10)
	mk := NewMarket(nil, pop, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for σ > 1")
		}
	}()
	mk.SolveSubsidizedDuopoly(
		SubsidizedISP{ISP: ISP{Name: "a", Gamma: 0.5, Strategy: PublicOption}, Sigma: 1.5},
		SubsidizedISP{ISP: ISP{Name: "b", Gamma: 0.5, Strategy: PublicOption}, Sigma: 0},
	)
}

// TestSubsidizedZeroSigmaEqualsDuopoly: with σ = 0 at both ISPs the rebate
// game is the paper's model, and both solve through one migration search,
// so on fresh markets the outcomes agree bit for bit.
func TestSubsidizedZeroSigmaEqualsDuopoly(t *testing.T) {
	pop := ensemble(81, 80)
	sat := pop.TotalUnconstrainedPerCapita()
	a := ISP{Name: "i", Gamma: 0.6, Strategy: Strategy{Kappa: 1, C: 0.3}}
	b := ISP{Name: "po", Gamma: 0.4, Strategy: PublicOption}
	for _, frac := range []float64{0.1, 0.4, 2} {
		base := NewMarket(nil, pop, frac*sat).SolveDuopoly(a, b)
		sub := NewMarket(nil, pop, frac*sat).SolveSubsidizedDuopoly(SubsidizedISP{ISP: a}, SubsidizedISP{ISP: b})
		for k := range base.Shares {
			if math.Float64bits(base.Shares[k]) != math.Float64bits(sub.Shares[k]) {
				t.Errorf("ν=%g·sat: share %d is %.17g under σ=0, %.17g in SolveDuopoly", frac, k, sub.Shares[k], base.Shares[k])
			}
			if math.Float64bits(base.Eqs[k].Phi()) != math.Float64bits(sub.Eqs[k].Phi()) {
				t.Errorf("ν=%g·sat: ISP %d Φ is %.17g under σ=0, %.17g in SolveDuopoly", frac, k, sub.Eqs[k].Phi(), base.Eqs[k].Phi())
			}
		}
		if math.Float64bits(base.Phi) != math.Float64bits(sub.Value) {
			t.Errorf("ν=%g·sat: equalized value %.17g under σ=0, Φ %.17g in SolveDuopoly", frac, sub.Value, base.Phi)
		}
	}
}
