// Package mm1 implements the M/M/1-delay abstraction of congestion that the
// network-economics literature preceding the paper builds on (Choi–Kim [8],
// discussed in §V of the paper). It exists as a baseline: the paper argues
// that faithfully modelling closed-loop transport (TCP ≈ max-min, the alloc
// package) is "a more appropriate approach" than abstracting congestion as
// queueing delay, and the ablation benchmarks compare the two abstractions
// on the same content-provider populations.
//
// In this model a service class is an M/M/1 queue: per-capita offered load
// λ = Σ_i λ_i against per-capita capacity ν gives mean sojourn time
// W = 1/(ν − λ). Content provider i's users tolerate delay with sensitivity
// γ_i (mapped from the paper's throughput sensitivity β_i), so its load is
//
//	λ_i(W) = λ̂_i · exp(−γ_i · W)
//
// with λ̂_i = α_i·θ̂_i the unconstrained per-capita load. The congestion
// equilibrium is the unique W solving λ(W) = ν − 1/W.
package mm1

import (
	"fmt"
	"math"

	"github.com/netecon-sim/publicoption/internal/numeric"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

// gamma maps a CP to its delay sensitivity: the paper's β_i when the CP uses
// the exponential demand family, 1 otherwise.
func gamma(cp *traffic.CP) float64 {
	if beta, ok := cp.Beta(); ok {
		return math.Max(beta, 1e-6)
	}
	return 1
}

// Equilibrium is the M/M/1 congestion equilibrium of one service class.
type Equilibrium struct {
	Nu    float64   // class per-capita capacity
	W     float64   // mean sojourn time (delay)
	Loads []float64 // per-CP carried per-capita load λ_i
	Pop   traffic.Population
}

// TotalLoad returns Σ λ_i.
func (e *Equilibrium) TotalLoad() float64 { return numeric.Sum(e.Loads) }

// Phi returns the per-capita consumer surplus Σ φ_i·λ_i under the delay
// abstraction (utility per unit carried traffic, as in the paper).
func (e *Equilibrium) Phi() float64 {
	terms := make([]float64, len(e.Loads))
	for i := range e.Loads {
		terms[i] = e.Pop[i].Phi * e.Loads[i]
	}
	return numeric.Sum(terms)
}

// Solve computes the class equilibrium on per-capita capacity nu. A class
// with no capacity or no members carries nothing (W is +Inf and 0
// respectively by convention).
func Solve(nu float64, pop traffic.Population) *Equilibrium {
	if nu < 0 || math.IsNaN(nu) {
		panic(fmt.Sprintf("mm1: Solve with ν=%g", nu))
	}
	eq := &Equilibrium{Nu: nu, Pop: pop, Loads: make([]float64, len(pop))}
	if len(pop) == 0 {
		return eq
	}
	//pubopt:allow(floatcmp): ν=0 is the exact zero-capacity sentinel; any positive ν yields finite delay
	if nu == 0 {
		eq.W = math.Inf(1)
		return eq
	}
	// Flatten λ̂_i (into Loads, scaled to λ_i(W) once W is known) and γ_i,
	// so each evaluation of f is one pass over two float slices.
	lhat := eq.Loads
	g := make([]float64, len(pop))
	for i := range pop {
		lhat[i] = pop[i].UnconstrainedPerCapitaRate()
		g[i] = gamma(&pop[i])
	}
	// Root of f(W) = load(W) − (ν − 1/W), strictly decreasing on (1/ν, ∞).
	f := func(w float64) float64 {
		var s float64
		for i, l := range lhat {
			s += l * math.Exp(-g[i]*w)
		}
		return s - nu + 1/w
	}
	lo := 1/nu + 1e-15
	hi := lo * 2
	for f(hi) > 0 && hi < 1e18 {
		hi *= 2
	}
	// f is monotone, so the bracketed search returns the bisection's W bit
	// for bit, in about a quarter of its evaluations. Starting from the
	// bracket's middle took fewer evaluations than starting from the
	// doubling's last point with f > 0.
	w := numeric.BracketDecreasing(f, lo, hi, lo+(hi-lo)/2, math.NaN(), 1e-12*hi)
	eq.W = w
	for i := range lhat {
		lhat[i] *= math.Exp(-g[i] * w)
	}
	return eq
}

// CapacityForDelay inverts Solve in capacity: the per-capita capacity ν at
// which the class equilibrium's mean sojourn time equals w exactly,
//
//	ν = λ(w) + 1/w = Σ_i λ̂_i·exp(−γ_i·w) + 1/w,
//
// in closed form — at delay w every CP's carried load is determined, and the
// queue's residual capacity over that load must be 1/w. It is the actuator
// primitive of internal/dynamics autoscaling: Solve(CapacityForDelay(w, pop),
// pop).W == w up to root-finder tolerance. Panics on non-positive or
// non-finite w (matching Solve's domain: any ν > 0 yields finite positive W).
func CapacityForDelay(w float64, pop traffic.Population) float64 {
	if !(w > 0) || math.IsInf(w, 0) {
		panic(fmt.Sprintf("mm1: CapacityForDelay with W=%g", w))
	}
	nu := 1 / w
	for i := range pop {
		nu += pop[i].UnconstrainedPerCapitaRate() * math.Exp(-gamma(&pop[i])*w)
	}
	return nu
}

// ClassOutcome is the M/M/1 analogue of the core package's two-class
// equilibrium: a premium M/M/1 queue priced at c and a free ordinary queue.
type ClassOutcome struct {
	Kappa, C  float64
	Nu        float64
	InPremium []bool
	Ordinary  *Equilibrium
	Premium   *Equilibrium
	Pop       traffic.Population
}

// Psi returns the ISP's per-capita premium revenue c·λ_P.
func (o *ClassOutcome) Psi() float64 { return o.C * o.Premium.TotalLoad() }

// Phi returns the combined per-capita consumer surplus of both classes.
func (o *ClassOutcome) Phi() float64 { return o.Ordinary.Phi() + o.Premium.Phi() }

// SolveClasses computes a class-choice equilibrium under the delay
// abstraction with the same sequential better-response dynamics as the core
// package: a CP joins the premium queue iff (v−c)·e^(−γW_P) > v·e^(−γW_O),
// i.e. the delay advantage is worth the price. maxIter bounds the dynamics.
func SolveClasses(kappa, c, nu float64, pop traffic.Population, maxIter int) *ClassOutcome {
	if kappa < 0 || kappa > 1 || c < 0 {
		panic(fmt.Sprintf("mm1: invalid strategy (κ=%g, c=%g)", kappa, c))
	}
	if maxIter <= 0 {
		maxIter = 200
	}
	out := &ClassOutcome{Kappa: kappa, C: c, Nu: nu, Pop: pop, InPremium: make([]bool, len(pop))}
	for i := range pop {
		out.InPremium[i] = kappa > 0 && pop[i].V > c
	}
	split := func() (o, p traffic.Population) {
		for i := range pop {
			if out.InPremium[i] {
				p = append(p, pop[i])
			} else {
				o = append(o, pop[i])
			}
		}
		return o, p
	}
	for iter := 0; iter < maxIter; iter++ {
		o, p := split()
		eqO := Solve((1-kappa)*nu, o)
		eqP := Solve(kappa*nu, p)
		moved := false
		for i := range pop {
			cp := &pop[i]
			uO := cp.V * math.Exp(-gamma(cp)*eqO.W)
			uP := (cp.V - c) * math.Exp(-gamma(cp)*eqP.W)
			want := uP > uO
			if want != out.InPremium[i] {
				out.InPremium[i] = want
				moved = true
				break // one CP per round: the stable Gauss–Seidel regime
			}
		}
		if !moved {
			break
		}
	}
	o, p := split()
	out.Ordinary = Solve((1-kappa)*nu, o)
	out.Premium = Solve(kappa*nu, p)
	return out
}
