package core

import (
	"math"
	"os"
	"testing"
)

// goldenCase pins one solver output to its exact value at the time the
// floatcmp sweep landed (PR 7). The float-comparison refactor — routing
// κ sentinels through Strategy helpers and the market interpolation guard
// through numeric.AlmostEqual — must be behavior-preserving, and these
// goldens are the proof: any drift in the solved equilibria fails here.
//
// Regenerate (after an INTENDED numeric change only) with:
//
//	PUBOPT_PRINT_GOLDENS=1 go test ./internal/core/ -run TestSolverGoldens -v
type goldenCase struct {
	name string
	got  float64
	want float64
}

func solverGoldens() []goldenCase {
	pop := ensemble(7, 90)
	sat := pop.TotalUnconstrainedPerCapita()
	s := NewSolver(nil)

	interior := s.Competitive(Strategy{Kappa: 0.55, C: 0.4}, 0.4*sat, pop)
	kzero := s.Competitive(Strategy{Kappa: 0, C: 0.5}, 0.4*sat, pop)
	kone := s.Competitive(Strategy{Kappa: 1, C: 0.4}, 0.4*sat, pop)
	trivZero := s.Trivial(Strategy{Kappa: 0, C: 0.5}, 0.4*sat, pop)
	trivOne := s.Trivial(Strategy{Kappa: 1, C: 0.4}, 0.4*sat, pop)

	mk := NewMarket(s, pop, 0.4*sat)
	duo := mk.SolveDuopoly(
		ISP{Name: "i", Gamma: 0.6, Strategy: Strategy{Kappa: 1, C: 0.3}},
		ISP{Name: "po", Gamma: 0.4, Strategy: PublicOption},
	)
	tri := mk.SolveMarket([]ISP{
		{Name: "a", Gamma: 0.5, Strategy: Strategy{Kappa: 0.7, C: 0.35}},
		{Name: "b", Gamma: 0.3, Strategy: Strategy{Kappa: 1, C: 0.5}},
		{Name: "po", Gamma: 0.2, Strategy: PublicOption},
	})
	sub := mk.SolveSubsidizedDuopoly(
		SubsidizedISP{ISP: ISP{Name: "i", Gamma: 0.5, Strategy: Strategy{Kappa: 1, C: 0.3}}, Sigma: 0.6},
		SubsidizedISP{ISP: ISP{Name: "po", Gamma: 0.5, Strategy: PublicOption}},
	)

	return []goldenCase{
		{"interior/phi", interior.Phi(), 19.383454125739334},
		{"interior/psi", interior.Psi(), 2.1100233758832427},
		{"interior/premium", float64(interior.PremiumCount()), 25},
		{"kappa0/phi", kzero.Phi(), 19.230511150496834},
		{"kappa0/psi", kzero.Psi(), 0},
		{"kappa1/phi", kone.Phi(), 19.794412317234368},
		{"kappa1/premium", float64(kone.PremiumCount()), 50},
		{"trivial0/phi", trivZero.Phi(), 19.230511150496827},
		{"trivial1/phi", trivOne.Phi(), 19.794412317234368},
		{"duopoly/share0", duo.Shares[0], 0.6125391458704359},
		{"duopoly/phi", duo.Phi, 19.914356855081639},
		{"triopoly/share0", tri.Shares[0], 0.47696206122668811},
		{"triopoly/share1", tri.Shares[1], 0.33001415184368194},
		{"triopoly/phi", tri.Phi, 19.974629546309217},
		{"subsidy/share0", sub.Shares[0], 0.53106184670077172},
		{"subsidy/grossPhi", sub.GrossPhi, 19.703825041753426},
	}
}

func TestSolverGoldens(t *testing.T) {
	cases := solverGoldens()
	if os.Getenv("PUBOPT_PRINT_GOLDENS") != "" {
		for _, c := range cases {
			t.Logf("{%q, ..., %.17g},", c.name, c.got)
		}
		return
	}
	for _, c := range cases {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Errorf("%s = %.17g, want exactly %.17g (solver output drifted)", c.name, c.got, c.want)
		}
	}
}
