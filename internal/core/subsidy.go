package core

import (
	"fmt"
	"math"
)

// The paper's §VI closes with a caveat to the idealized market-share
// objective: "ISPs might be able to use the CP-side revenue to subsidize
// the service fees for consumers so as to increase market share." This file
// implements that extension: consumers choose ISPs by total per-capita
// value Φ_I + σ_I·Ψ_I, where σ_I ∈ [0, 1] is the fraction of premium
// revenue ISP I rebates to its subscribers. σ = 0 recovers the paper's
// baseline model (Assumption 5 on Φ alone).
//
// The interesting question — answered by TestSubsidy* and the
// subsidized-duopoly example code — is whether a differentiating incumbent
// can use rebates to beat the Public Option while still hurting gross
// consumer surplus. Under full rebating the answer is structurally limited:
// the rebate is a transfer from CPs, who recover it from consumers outside
// the model, so the regulator's view of Φ alone still favors the Public
// Option.

// SubsidizedISP pairs an ISP with a rebate fraction σ.
type SubsidizedISP struct {
	ISP
	Sigma float64 // fraction of premium revenue rebated to subscribers, in [0, 1]
}

// Validate reports the first invalid parameter.
func (s SubsidizedISP) Validate() error {
	if s.Sigma < 0 || s.Sigma > 1 || math.IsNaN(s.Sigma) {
		return fmt.Errorf("core: subsidy fraction σ=%g outside [0,1]", s.Sigma)
	}
	return s.ISP.Validate()
}

// SubsidizedOutcome is a consumer-migration equilibrium under rebates.
type SubsidizedOutcome struct {
	ISPs   []SubsidizedISP
	Shares []float64
	Eqs    []*ClassEquilibrium
	// Value is the equalized per-capita consumer value Φ + σ·Ψ.
	Value float64
	// GrossPhi is the market's per-capita consumer surplus *excluding*
	// rebates — the quantity the paper's welfare analysis ranks regimes by.
	GrossPhi float64
}

// SolveSubsidizedDuopoly computes the migration equilibrium of two ISPs
// when consumers weigh rebates alongside surplus. The equalized quantity is
// Φ + σ·Ψ; the monotone structure of the baseline model carries over
// because Ψ, like Φ, is non-increasing in the ISP's own market share (more
// subscribers squeeze the same capacity). The search and the plateau
// selection are SolveDuopoly's (see Market.migrate); with σ = 0 at both
// ISPs the shares and equilibria are SolveDuopoly's exactly.
func (mk *Market) SolveSubsidizedDuopoly(a, b SubsidizedISP) *SubsidizedOutcome {
	mg := mk.migrate(a, b, true)
	return &SubsidizedOutcome{
		ISPs:     []SubsidizedISP{a, b},
		Shares:   mg.shares,
		Eqs:      mg.eqs,
		Value:    mg.value,
		GrossPhi: mg.shares[0]*mg.eqs[0].Phi() + mg.shares[1]*mg.eqs[1].Phi(),
	}
}
