package dynamics

import (
	"github.com/netecon-sim/publicoption/internal/core"
	"github.com/netecon-sim/publicoption/internal/scenario"
)

// The optimizer phase: pluggable per-provider re-pricing policies. All
// policies move only the premium price c — κ is structural (the paper's
// competition chapters hold it fixed while price carries the strategy) —
// and all evaluate candidates against the *pre-tick* market state, so
// providers move simultaneously.

// repriceFor returns provider k's next premium price under its policy.
func (e *Engine) repriceFor(k int) float64 {
	p := e.policies[k]
	cur := e.strats[k].C
	switch p.Kind {
	case scenario.PolicyBestResponse:
		c, _ := e.bestCandidate(k, p)
		return c
	case scenario.PolicyGradient:
		g := e.priceGradient(k, p)
		return e.clampPrice(cur + p.Gain*g)
	case scenario.PolicySticky:
		// Adopt the local best response only when it clears the stickiness
		// threshold — the "don't churn prices for crumbs" reconcile policy.
		c, best := e.bestCandidate(k, p)
		if best-e.objective(k, p, cur) > p.Threshold {
			return c
		}
		return cur
	}
	return cur // fixed
}

// clampPrice bounds a candidate price to [0, vMax]: negative prices are
// outside the model, and any price above the highest CP valuation sells to
// nobody, so the box keeps runaway gradient steps on the meaningful range.
func (e *Engine) clampPrice(c float64) float64 {
	if c < 0 {
		return 0
	}
	if c > e.vMax {
		return e.vMax
	}
	return c
}

// bestCandidate searches the local price grid cur + j·Step, j ∈ −2..2,
// and returns the objective-maximizing candidate and its value. Candidates
// ascend, and only a strictly better value displaces the incumbent best, so
// ties resolve to the lowest price — the consumer-friendly tiebreak, and a
// deterministic one.
func (e *Engine) bestCandidate(k int, p scenario.PolicySpec) (float64, float64) {
	cur := e.strats[k].C
	bestC, bestV := 0.0, 0.0
	first := true
	for j := -2; j <= 2; j++ {
		c := e.clampPrice(cur + float64(j)*p.Step)
		v := e.objective(k, p, c)
		if first || v > bestV {
			bestC, bestV = c, v
			first = false
		}
	}
	return bestC, bestV
}

// priceGradient estimates ∂objective/∂c at the current price by central
// finite difference of width Step (forward difference against the c ≥ 0
// boundary).
func (e *Engine) priceGradient(k int, p scenario.PolicySpec) float64 {
	cur := e.strats[k].C
	d := p.Step
	if cur < d {
		return (e.objective(k, p, cur+d) - e.objective(k, p, cur)) / d
	}
	return (e.objective(k, p, cur+d) - e.objective(k, p, cur-d)) / (2 * d)
}

// objective evaluates provider k's policy objective at candidate price c,
// holding everything else at the pre-tick state.
func (e *Engine) objective(k int, p scenario.PolicySpec, c float64) float64 {
	cand := core.Strategy{Kappa: e.strats[k].Kappa, C: c}
	switch p.Objective {
	case scenario.ObjectiveShare:
		// What share would migration settle on if k played c and everyone
		// else stood pat? One full market solve per candidate.
		nuBar := e.nuBar()
		e.market.NuBar = nuBar
		isps := e.buildISPs(nuBar)
		isps[k].Strategy = cand
		return e.market.SolveShares(isps)[k]
	default: // scenario.ObjectiveRevenue
		// Per-subscriber premium revenue Ψ at the provider's current share:
		// the myopic "what do my existing subscribers pay" view. The share
		// factor is common to every candidate, so it cannot move the argmax
		// and is left out.
		m := e.shares[k]
		if m < shareFloor {
			m = shareFloor
		}
		nu := e.caps[k] / m
		if sat := e.workPop.TotalUnconstrainedPerCapita(); nu > 1e4*sat {
			nu = 1e4 * sat
		}
		if e.polWarm == nil {
			e.polWarm = make([][]bool, len(e.names))
		}
		eq := e.solver.Probe(cand, nu, e.workPop, e.polWarm[k])
		e.polWarm[k] = append(e.polWarm[k][:0], eq.InPremium...)
		return eq.Psi()
	}
}
