package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"

	"github.com/netecon-sim/publicoption/internal/alloc"
	"github.com/netecon-sim/publicoption/internal/econ"
	"github.com/netecon-sim/publicoption/internal/numeric"
	"github.com/netecon-sim/publicoption/internal/obs"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

// Solver computes CP class-choice equilibria. The zero value is not usable;
// construct with NewSolver. Alloc must not be mutated after the first
// solve: the solver binds reusable equilibrium workspaces to it.
//
// A Solver owns warm-started alloc.Workspace kernels (one per class, one
// for post-join verification) plus the split/join scratch buffers of the
// competitive dynamics, so repeated solves — price grids, capacity sweeps,
// migration searches — run without per-iteration allocation. It is not
// safe for concurrent use; sweeps create one Solver per worker.
type Solver struct {
	Alloc   alloc.Allocator
	MaxIter int // iteration budget for the competitive fixed point
	// EpsUtil is the relative utility-indifference band: a CP switches
	// classes only when the switch gains more than EpsUtil times its utility
	// scale. CPs inside the band are treated as indifferent, which is what
	// terminates the discrete dynamics at marginal CPs. The solver widens
	// the band automatically (reported in ClassEquilibrium.EpsUsed) if
	// best-gain dynamics still cycle.
	EpsUtil float64

	// Equilibrium kernels: one warm level per class (the ordinary and
	// premium levels evolve separately along the dynamics) and one for
	// post-join counterfactuals.
	wsO, wsP, wsJoin *alloc.Workspace
	// Scratch: class partitions, the members∪{cp} join buffer, the
	// visited-partition set of the cycle detector, the screened movers,
	// and the equilibrium probe solves into.
	ordBuf, premBuf traffic.Population
	joinBuf         traffic.Population
	seen            partitionSet
	movers          []mover
	probeEq         ClassEquilibrium
	// cycles counts partition-cycle restarts across the solver's lifetime:
	// phase-1 mover-cap halvings and phase-2 indifference-band widenings.
	// Surfaced through Stats alongside the kernels' counters.
	cycles uint64
}

// NewSolver returns a Solver using mechanism a (nil means the paper's
// max-min mechanism) with default iteration budget and tolerance.
func NewSolver(a alloc.Allocator) *Solver {
	if a == nil {
		a = alloc.MaxMin{}
	}
	s := &Solver{Alloc: a, MaxIter: 600, EpsUtil: 1e-9}
	s.kernels()
	return s
}

// kernels creates the equilibrium workspaces (lazily, so hand-rolled
// Solver literals keep working).
func (s *Solver) kernels() {
	if s.wsO == nil {
		s.wsO = alloc.NewWorkspace(s.Alloc)
		s.wsP = alloc.NewWorkspace(s.Alloc)
		s.wsJoin = alloc.NewWorkspace(s.Alloc)
	}
}

// Stats returns the solver's cumulative telemetry: the summed counters of
// its three equilibrium kernels plus the class-dynamics cycle restarts.
// Like the kernels themselves, the counters are single-goroutine state;
// callers aggregating across workers go through an obs.Counters sink.
func (s *Solver) Stats() obs.SolveStats {
	var st obs.SolveStats
	if s.wsO != nil {
		st.Accumulate(s.wsO.Stats())
		st.Accumulate(s.wsP.Stats())
		st.Accumulate(s.wsJoin.Stats())
	}
	st.CycleRestarts += s.cycles
	return st
}

// splitScratch partitions pop by membership flags into the solver's
// reusable class buffers, preserving order. The returned slices alias the
// scratch and are valid until the next splitScratch call; results that
// outlive an iteration (finalize) clone what they keep.
func (s *Solver) splitScratch(pop traffic.Population, premium []bool) (ordinary, prem traffic.Population) {
	s.ordBuf = s.ordBuf[:0]
	s.premBuf = s.premBuf[:0]
	for i := range pop {
		if premium[i] {
			s.premBuf = append(s.premBuf, pop[i])
		} else {
			s.ordBuf = append(s.ordBuf, pop[i])
		}
	}
	return s.ordBuf, s.premBuf
}

// ClassEquilibrium is the outcome of the CP simultaneous-move game at one
// ISP under strategy s = (κ, c) on per-capita capacity ν: a partition of the
// CPs into the ordinary and premium classes together with the rate
// equilibria inside each class.
type ClassEquilibrium struct {
	Strategy Strategy
	Nu       float64            // the ISP's per-capita capacity ν_I
	Pop      traffic.Population // full CP population (index space for InPremium/Theta)
	// InPremium[i] reports whether CP i joined the premium class.
	InPremium []bool
	// Theta[i] is CP i's equilibrium per-user throughput in its class.
	Theta []float64
	// Ordinary and Premium are the intra-class rate equilibria. Their Pop
	// fields are the class sub-populations in original order.
	Ordinary, Premium *alloc.Result
	// Converged is false when the competitive fixed point hit its iteration
	// budget without stabilizing (the returned state is the final iterate).
	Converged bool
	// Iterations is the number of fixed-point iterations performed.
	Iterations int
	// EpsUsed is the relative utility-indifference band the equilibrium was
	// accepted at (≥ the solver's EpsUtil; larger if dynamics forced the
	// band to widen). Every CP's class choice is optimal up to EpsUsed times
	// its utility scale.
	EpsUsed float64
}

// PremiumCount returns the number of premium CPs.
func (e *ClassEquilibrium) PremiumCount() int {
	n := 0
	for _, p := range e.InPremium {
		if p {
			n++
		}
	}
	return n
}

// Phi returns the per-capita consumer surplus of the two-class system:
// Φ((1−κ)ν, O) + Φ(κν, P) (§III-D).
func (e *ClassEquilibrium) Phi() float64 {
	return econ.Phi(e.Ordinary) + econ.Phi(e.Premium)
}

// Psi returns the per-capita ISP surplus Ψ = c·λ_P/M (§III-A).
func (e *ClassEquilibrium) Psi() float64 {
	return econ.Revenue(e.Premium, e.Strategy.C)
}

// PremiumRate returns λ_P/M, the per-capita aggregate premium throughput.
func (e *ClassEquilibrium) PremiumRate() float64 { return e.Premium.Aggregate() }

// Utilization returns total carried traffic divided by ν (1 when ν = 0).
func (e *ClassEquilibrium) Utilization() float64 {
	if e.Nu <= 0 {
		return 1
	}
	return (e.Ordinary.Aggregate() + e.Premium.Aggregate()) / e.Nu
}

// CPUtility returns CP i's per-capita utility u_i/M (Eq. 4) at the
// equilibrium.
func (e *ClassEquilibrium) CPUtility(i int) float64 {
	price := 0.0
	if e.InPremium[i] {
		price = e.Strategy.C
	}
	return econ.CPUtilityPerCapita(&e.Pop[i], e.Theta[i], price)
}

// String summarizes the equilibrium.
func (e *ClassEquilibrium) String() string {
	return fmt.Sprintf("classeq(s=%v, ν=%g, premium=%d/%d, Φ=%.4g, Ψ=%.4g, converged=%t)",
		e.Strategy, e.Nu, e.PremiumCount(), len(e.Pop), e.Phi(), e.Psi(), e.Converged)
}

// classLevel returns the operating level a class advertises to prospective
// members under the throughput-taking screening estimate.
//
// A congested class advertises its true water level — exactly the paper's
// max-min estimate θ̃ = min(θ̂, θ_N). A class with spare capacity (empty, or
// unconstrained members) advertises the unconstrained level of the full
// population: its own members' level would understate what an outsider with
// a larger θ̂ could draw from the spare capacity. The screening estimate
// only needs to be an upper bound on the true post-join value, because every
// candidate move is verified against the exact post-join level before being
// taken. A class with zero capacity advertises nothing. hiFull is the
// unconstrained level of the full population (precomputed once per solve).
func (s *Solver) classLevel(res *alloc.Result, capacity, hiFull float64) float64 {
	if len(res.Pop) > 0 && res.Constrained {
		return res.Level
	}
	if capacity > 0 {
		return hiFull
	}
	return 0
}

// postJoinTheta returns the per-user throughput CP cp would actually get if
// it joined the class currently holding members (with the given capacity):
// the rate equilibrium of members ∪ {cp}. This is the paper's Assumption 3
// with a rational-expectations (exact ex-post) estimator. The joined
// population lives in the solver's reusable join buffer, and the solve runs
// on the warm post-join kernel.
func (s *Solver) postJoinTheta(cp *traffic.CP, capacity float64, members traffic.Population) float64 {
	s.kernels()
	s.joinBuf = append(s.joinBuf[:0], members...)
	s.joinBuf = append(s.joinBuf, *cp)
	res := s.wsJoin.Solve(capacity, s.joinBuf)
	return res.Theta[len(s.joinBuf)-1]
}

// classCurve caches one class's aggregate-rate map τ ↦ λ_class(τ) so that
// many post-join queries against the same class cost O(1) class sweeps
// instead of a full bisection each. The interpolant provides the shape; the
// answer is sharpened with offset-corrected exact evaluations, so results
// match postJoinTheta to solver tolerance.
type classCurve struct {
	alloc   alloc.Allocator
	members traffic.Population
	cap     float64
	hi      float64 // level at which every CP in the *full* population is unconstrained
	interp  *numeric.PCHIP
	total   float64 // λ_class(hi): the class's total unconstrained rate
}

const classCurveSamples = 96

// newClassCurve samples the class's aggregate rate across levels.
func (s *Solver) newClassCurve(members traffic.Population, capacity float64, full traffic.Population) *classCurve {
	hi := s.Alloc.LevelHi(full)
	if hi <= 0 {
		hi = 1
	}
	c := &classCurve{alloc: s.Alloc, members: members, cap: capacity, hi: hi}
	xs := numeric.Linspace(0, hi, classCurveSamples)
	ys := make([]float64, len(xs))
	for i, tau := range xs {
		ys[i] = c.exact(tau)
	}
	c.interp = numeric.NewPCHIP(xs, ys)
	c.total = ys[len(ys)-1]
	return c
}

// exact returns λ_class(tau) by direct summation, through the mechanism's
// bulk fast path.
func (c *classCurve) exact(tau float64) float64 {
	return alloc.AggregateAt(c.alloc, tau, c.members)
}

// postJoinTheta returns the level-form throughput cp would get after joining
// this class: the root of λ_class(τ) + λ_cp(τ) = capacity (or the
// unconstrained rate when capacity covers everyone). It uses the cached
// interpolant for bisection and corrects the interpolation error with exact
// evaluations until the residual is at solver tolerance.
func (c *classCurve) postJoinTheta(cp *traffic.CP) float64 {
	if c.cap <= 0 {
		return 0
	}
	own := func(tau float64) float64 {
		return alloc.EvalPerCapitaRate(cp, alloc.EvalRate(c.alloc, tau, cp))
	}
	if c.total+own(c.hi) <= c.cap {
		return c.alloc.RateAt(c.hi, cp) // everyone unconstrained
	}
	resTol := 1e-11 * math.Max(c.cap, 1)
	offset := 0.0
	tau := 0.0
	for k := 0; k < 8; k++ {
		tau = numeric.Bisect(func(t float64) float64 {
			return c.interp.At(t) + offset + own(t) - c.cap
		}, 0, c.hi, 1e-13*c.hi)
		residual := c.exact(tau) + own(tau) - c.cap
		if math.Abs(residual) <= resTol {
			break
		}
		// Freeze the interpolation error at tau into the offset and
		// re-solve; the error is smooth and small, so this converges in a
		// couple of rounds.
		offset = c.exact(tau) - c.interp.At(tau)
	}
	return c.alloc.RateAt(tau, cp)
}

// switchGain evaluates the competitive joining condition (Definition 3,
// restated in utility form to avoid the division in Eq. 8): the per-capita
// utility gain of the premium class over the ordinary class,
//
//	gain = α_i·[(v_i − c)·ρ̃_i(premium) − v_i·ρ̃_i(ordinary)]
//
// with ρ̃ computed from each class's advertised level. A CP strictly prefers
// premium iff gain > 0; ties go to the ordinary class, the paper's
// tie-breaking convention.
func (s *Solver) switchGain(cp *traffic.CP, c, levelO, levelP float64) float64 {
	rhoO := alloc.EvalRho(cp, alloc.EvalRate(s.Alloc, levelO, cp))
	rhoP := alloc.EvalRho(cp, alloc.EvalRate(s.Alloc, levelP, cp))
	return cp.Alpha * ((cp.V-c)*rhoP - cp.V*rhoO)
}

// utilityScale bounds the magnitude of a CP's achievable utility; the
// indifference band is relative to it.
func utilityScale(cp *traffic.CP, c float64) float64 {
	v := math.Max(math.Abs(cp.V), math.Abs(cp.V-c))
	return cp.Alpha*v*cp.ThetaHat + 1e-300
}

// Competitive computes a competitive equilibrium of the game (ν, pop, s):
// Definition 3 of the paper with a rational-expectations estimator — each
// CP's estimate ρ̃_i of its ex-post throughput (Assumption 3) is the exact
// rate equilibrium of the target class including itself. Under this
// estimator the competitive conditions (Eq. 8) coincide with the Nash
// conditions (Eq. 7), which is the paper's own point that for large
// populations the two concepts agree; the value of the competitive solver
// is that it reaches the equilibrium in near-linear time instead of the
// Nash solver's quadratic sweep.
//
// The dynamics run in two phases:
//
//  1. Screening phase: every CP evaluates both classes at their current
//     advertised levels — an optimistic estimate that ignores the CP's own
//     congestion contribution and therefore upper-bounds the true switch
//     gain — and all CPs whose apparent gain exceeds the indifference band
//     move simultaneously. This settles the bulk of the population in a few
//     iterations. The phase ends when it stops making progress (no movers,
//     a revisited partition, or the iteration cap).
//
//  2. Sequential phase: candidates are screened by apparent gain in
//     descending order, and each is verified against the exact post-join
//     level of its target class before moving; one CP moves per iteration.
//     A CP whose verified gain exceeds the band strictly improves its own
//     utility by moving, so the single-mover dynamics cannot immediately
//     revisit a state through the same CP; if the partition nevertheless
//     cycles (through interleaved movers), the indifference band widens and
//     the dynamics continue. When no candidate survives verification, the
//     state is an equilibrium: no CP can gain more than the band by
//     switching, accounting for its own effect.
//
// The result is an ε-equilibrium with ε reported in EpsUsed (≥ the solver's
// EpsUtil; wider only if cycling forced it). The returned state is always a
// feasible class system — the intra-class allocations are exact rate
// equilibria regardless of convergence.
func (s *Solver) Competitive(strategy Strategy, nu float64, pop traffic.Population) *ClassEquilibrium {
	return s.CompetitiveFrom(strategy, nu, pop, nil)
}

// CompetitiveFrom is Competitive with a warm-start partition (may be nil).
// Passing the previous equilibrium's InPremium when sweeping a parameter
// cuts the iteration count to a handful, since partitions move slowly along
// sweeps.
func (s *Solver) CompetitiveFrom(strategy Strategy, nu float64, pop traffic.Population, warm []bool) *ClassEquilibrium {
	eq := &ClassEquilibrium{InPremium: make([]bool, len(pop)), Theta: make([]float64, len(pop))}
	s.competitive(eq, strategy, nu, pop, warm, true)
	return eq
}

// Probe is CompetitiveFrom for a caller that reads the equilibrium at once
// and keeps nothing, such as one step of the migration search or one
// observation of a dynamics tick. It solves into the solver's scratch
// equilibrium, and the class results alias the kernels instead of being
// cloned. The returned equilibrium is valid until the solver's next solve;
// the sequence of kernel solves, and so every number, is the same as
// CompetitiveFrom's.
func (s *Solver) Probe(strategy Strategy, nu float64, pop traffic.Population, warm []bool) *ClassEquilibrium {
	eq := &s.probeEq
	if cap(eq.InPremium) < len(pop) {
		eq.InPremium = make([]bool, len(pop))
		eq.Theta = make([]float64, len(pop))
	}
	eq.InPremium = eq.InPremium[:len(pop)]
	eq.Theta = eq.Theta[:len(pop)]
	clear(eq.InPremium)
	s.competitive(eq, strategy, nu, pop, warm, false)
	return eq
}

// competitive runs the class game into eq, whose InPremium and Theta have
// len(pop) entries and InPremium is all false. retain clones the class
// results out of the kernels (see finalize).
func (s *Solver) competitive(eq *ClassEquilibrium, strategy Strategy, nu float64, pop traffic.Population, warm []bool, retain bool) {
	if err := strategy.Validate(); err != nil {
		panic(err)
	}
	if nu < 0 || math.IsNaN(nu) {
		panic(fmt.Sprintf("core: Competitive called with ν=%g", nu))
	}
	s.kernels()
	eq.Strategy, eq.Nu, eq.Pop = strategy, nu, pop
	eq.Converged, eq.Iterations, eq.EpsUsed = true, 0, 0
	if len(pop) == 0 {
		eq.Ordinary = alloc.Solve(s.Alloc, (1-strategy.Kappa)*nu, nil)
		eq.Premium = alloc.Solve(s.Alloc, strategy.Kappa*nu, nil)
		return
	}
	// κ = 0: no premium class exists; the trivial profile (N, ∅).
	if strategy.NoPremium() {
		s.finalize(eq, retain)
		return
	}

	// Initial partition.
	if warm != nil && len(warm) == len(pop) {
		copy(eq.InPremium, warm)
	} else {
		for i := range pop {
			eq.InPremium[i] = pop[i].V > strategy.C
		}
	}

	capO := (1 - strategy.Kappa) * nu
	capP := strategy.Kappa * nu
	// The unconstrained level of the full population is what an uncongested
	// class advertises; it is a function of (mechanism, pop) only, so hoist
	// it out of the dynamics.
	hiFull := s.Alloc.LevelHi(pop)
	levels := func(premium []bool) (lO, lP float64) {
		o, p := s.splitScratch(pop, premium)
		resO := s.wsO.Solve(capO, o)
		lO = s.classLevel(resO, capO, hiFull)
		resP := s.wsP.Solve(capP, p)
		lP = s.classLevel(resP, capP, hiFull)
		return lO, lP
	}

	eps := s.EpsUtil
	if eps <= 0 {
		eps = 1e-9
	}
	// screen collects CPs whose switch looks profitable at the advertised
	// class levels (an upper bound on the true gain), best first.
	screen := func(lO, lP float64) []mover {
		movers := s.movers[:0]
		for i := range pop {
			g := s.switchGain(&pop[i], strategy.C, lO, lP)
			band := eps * utilityScale(&pop[i], strategy.C)
			switch {
			case !eq.InPremium[i] && g > band:
				movers = append(movers, mover{idx: i, gain: g})
			case eq.InPremium[i] && g < -band:
				movers = append(movers, mover{idx: i, gain: -g})
			}
		}
		// Generic sort: unlike sort.Slice it reflects nothing and allocates
		// nothing, and screen runs once per dynamics iteration.
		slices.SortFunc(movers, func(a, b mover) int {
			switch {
			case a.gain > b.gain:
				return -1
			case a.gain < b.gain:
				return 1
			}
			return 0
		})
		s.movers = movers
		return movers
	}

	lO, lP := levels(eq.InPremium)
	s.seen.reset()
	s.seen.add(eq.InPremium)

	// Phase 1: simultaneous screened moves with an adaptive mover cap.
	// Oscillation means a block of CPs overshot together; halving the cap
	// splits the block until the dynamics glide. The cap reaching 1 hands
	// over to the verified sequential phase for the endgame.
	const phase1Budget = 80
	cap1 := len(pop)
	for iter := 1; iter <= phase1Budget && cap1 > 1; iter++ {
		eq.Iterations = iter
		ms := screen(lO, lP)
		if len(ms) == 0 {
			eq.EpsUsed = eps
			s.finalize(eq, retain)
			return
		}
		if len(ms) > cap1 {
			ms = ms[:cap1]
		}
		for _, m := range ms {
			eq.InPremium[m.idx] = !eq.InPremium[m.idx]
		}
		lO, lP = levels(eq.InPremium)
		if s.seen.add(eq.InPremium) {
			s.cycles++
			cap1 /= 2 // oscillating: shrink the block
			s.seen.reset()
			s.seen.add(eq.InPremium)
		}
	}

	// Phase 2: sequential verified moves. Candidate verification reuses a
	// cached aggregate-rate curve per class per iteration, so scanning even
	// dozens of marginal candidates costs a couple of class sweeps rather
	// than a full equilibrium solve each.
	s.seen.reset()
	s.seen.add(eq.InPremium)
	for iter := eq.Iterations + 1; iter <= s.MaxIter; iter++ {
		eq.Iterations = iter
		ms := screen(lO, lP)
		movedIdx := -1
		if len(ms) > 0 {
			o, p := s.splitScratch(pop, eq.InPremium)
			// Class curves are built lazily: when the top candidate passes
			// verification (the common case mid-churn), one direct solve is
			// cheaper than sampling the curve; the cached curve pays off
			// when many marginal candidates must be scanned.
			var curveO, curveP *classCurve
			for mi, m := range ms {
				cp := &pop[m.idx]
				// Verify against the exact post-join level of the target
				// class (Assumption 3 with rational expectations).
				targetPremium := !eq.InPremium[m.idx]
				price := 0.0
				if targetPremium {
					price = strategy.C
				}
				var theta float64
				if mi == 0 {
					members, capacity := o, capO
					if targetPremium {
						members, capacity = p, capP
					}
					theta = s.postJoinTheta(cp, capacity, members)
				} else {
					if targetPremium {
						if curveP == nil {
							curveP = s.newClassCurve(p, capP, pop)
						}
						theta = curveP.postJoinTheta(cp)
					} else {
						if curveO == nil {
							curveO = s.newClassCurve(o, capO, pop)
						}
						theta = curveO.postJoinTheta(cp)
					}
				}
				uTarget := (cp.V - price) * cp.Alpha * alloc.EvalRho(cp, theta)
				// Current utility at the exact current level (the CP is
				// already counted in its own class).
				curLevel, curPrice := lO, 0.0
				if eq.InPremium[m.idx] {
					curLevel, curPrice = lP, strategy.C
				}
				uCur := (cp.V - curPrice) * cp.Alpha * alloc.EvalRho(cp, alloc.EvalRate(s.Alloc, curLevel, cp))
				if uTarget-uCur > eps*utilityScale(cp, strategy.C) {
					eq.InPremium[m.idx] = targetPremium
					movedIdx = m.idx
					break
				}
			}
		}
		if movedIdx < 0 {
			// No candidate survives post-join verification: equilibrium.
			eq.EpsUsed = eps
			s.finalize(eq, retain)
			return
		}
		lO, lP = levels(eq.InPremium)
		if s.seen.add(eq.InPremium) {
			s.cycles++
			eps *= 8 // interleaved cycle: widen the indifference band
			s.seen.reset()
			s.seen.add(eq.InPremium)
		}
	}
	eq.Converged = false
	eq.EpsUsed = eps
	s.finalize(eq, retain)
}

// Trivial computes the degenerate strategy profiles of the paper without
// iteration: for κ = 0 it is (N, ∅); for κ = 1 it is ({i : v_i ≤ c}, rest)
// (§III-C). For interior κ it falls back to Competitive.
func (s *Solver) Trivial(strategy Strategy, nu float64, pop traffic.Population) *ClassEquilibrium {
	switch {
	case strategy.NoPremium():
		return s.Competitive(strategy, nu, pop)
	case strategy.AllPremium():
		eq := &ClassEquilibrium{
			Strategy:  strategy,
			Nu:        nu,
			Pop:       pop,
			InPremium: make([]bool, len(pop)),
			Theta:     make([]float64, len(pop)),
			Converged: true,
		}
		for i := range pop {
			eq.InPremium[i] = pop[i].V > strategy.C
		}
		s.finalize(eq, true)
		return eq
	default:
		return s.Competitive(strategy, nu, pop)
	}
}

// finalize computes the exact intra-class equilibria and the per-CP θ for
// the current partition. The intra-class solves run on the warm kernels.
// With retain, the results are cloned because ClassEquilibrium keeps them
// past the solver's next use of the workspaces; a probe reads them in place.
func (s *Solver) finalize(eq *ClassEquilibrium, retain bool) {
	s.kernels()
	o, p := s.splitScratch(eq.Pop, eq.InPremium)
	eq.Ordinary = s.wsO.Solve((1-eq.Strategy.Kappa)*eq.Nu, o)
	eq.Premium = s.wsP.Solve(eq.Strategy.Kappa*eq.Nu, p)
	if retain {
		eq.Ordinary, eq.Premium = eq.Ordinary.Clone(), eq.Premium.Clone()
	}
	oi, pi := 0, 0
	for i := range eq.Pop {
		if eq.InPremium[i] {
			eq.Theta[i] = eq.Premium.Theta[pi]
			pi++
		} else {
			eq.Theta[i] = eq.Ordinary.Theta[oi]
			oi++
		}
	}
}

// split partitions pop by membership flags, preserving order, into freshly
// allocated slices. Hot paths use Solver.splitScratch; this stays for the
// cold callers (the Nash enumerator) that hold both halves across nested
// solves.
func split(pop traffic.Population, premium []bool) (ordinary, prem traffic.Population) {
	for i := range pop {
		if premium[i] {
			prem = append(prem, pop[i])
		} else {
			ordinary = append(ordinary, pop[i])
		}
	}
	return ordinary, prem
}

// mover is a CP whose class switch the dynamics screen as profitable.
type mover struct {
	idx  int
	gain float64 // apparent utility improvement of switching, always > 0
}

// partitionSet tracks the class partitions the dynamics have visited, for
// cycle detection. Membership bits are packed into a reused buffer and
// hashed with 64-bit FNV-1a; the packed key is stored per hash bucket and
// compared on lookup, so a hash collision can never report a phantom cycle
// (a false positive would spuriously shrink the phase-1 mover cap or widen
// the indifference band). Revisit checks allocate nothing; only the first
// visit of a partition stores a copy of its packed key.
type partitionSet struct {
	m   map[uint64][][]byte
	buf []byte
}

// reset empties the set in place, keeping the map's buckets.
func (ps *partitionSet) reset() {
	if ps.m == nil {
		ps.m = make(map[uint64][][]byte, 64)
	}
	clear(ps.m)
}

// add records the partition and reports whether it was already present.
func (ps *partitionSet) add(premium []bool) bool {
	n := (len(premium) + 7) / 8
	if cap(ps.buf) < n {
		ps.buf = make([]byte, n)
	}
	b := ps.buf[:n]
	for i := range b {
		b[i] = 0
	}
	for i, p := range premium {
		if p {
			b[i/8] |= 1 << (i % 8)
		}
	}
	const offset64, prime64 = uint64(14695981039346656037), uint64(1099511628211)
	h := offset64
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	for _, k := range ps.m[h] {
		if bytes.Equal(k, b) {
			return true
		}
	}
	ps.m[h] = append(ps.m[h], append([]byte(nil), b...))
	return false
}

// VerifyCompetitive counts the CPs whose class choice violates the
// ε-equilibrium condition (Definition 3 under the rational-expectations
// estimator, equivalently Definition 2): a violation is a CP that would gain
// strictly more than eps times its utility scale by switching classes, where
// the target class is evaluated at its exact post-join level. eps <= 0 uses
// the equilibrium's own EpsUsed. A converged equilibrium has zero violations
// at its EpsUsed by construction.
func (s *Solver) VerifyCompetitive(eq *ClassEquilibrium, eps float64) int {
	if eq.Strategy.NoPremium() {
		return 0 // single class: nothing to choose
	}
	if eps <= 0 {
		eps = eq.EpsUsed
	}
	capO := (1 - eq.Strategy.Kappa) * eq.Nu
	capP := eq.Strategy.Kappa * eq.Nu
	o, p := s.splitScratch(eq.Pop, eq.InPremium)
	violations := 0
	for i := range eq.Pop {
		cp := &eq.Pop[i]
		var uCur, uTarget float64
		if eq.InPremium[i] {
			uCur = (cp.V - eq.Strategy.C) * cp.Alpha * cp.Rho(eq.Theta[i])
			uTarget = cp.V * cp.Alpha * cp.Rho(s.postJoinTheta(cp, capO, o))
		} else {
			uCur = cp.V * cp.Alpha * cp.Rho(eq.Theta[i])
			uTarget = (cp.V - eq.Strategy.C) * cp.Alpha * cp.Rho(s.postJoinTheta(cp, capP, p))
		}
		if uTarget-uCur > eps*utilityScale(cp, eq.Strategy.C) {
			violations++
		}
	}
	return violations
}
