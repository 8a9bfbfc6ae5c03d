package core

import (
	"fmt"
	"math"
	"sync"

	"github.com/netecon-sim/publicoption/internal/numeric"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

// MarketOutcome is an equilibrium of the second-stage multi-ISP game
// (M, µ, N, s_I) under Assumption 5: consumers have migrated until the
// per-capita consumer surplus is equal across every ISP holding consumers.
type MarketOutcome struct {
	ISPs   []ISP
	NuBar  float64 // system per-capita capacity ν = µ/M
	Shares []float64
	// Eqs[k] is the CP class equilibrium at ISP k given its equilibrium
	// per-capita capacity ν_k = γ_k·ν̄ / m_k.
	Eqs []*ClassEquilibrium
	// Phi is the equalized per-capita consumer surplus (the surplus every
	// consumer experiences in equilibrium).
	Phi float64
}

// Share returns the market share of the ISP with the given name, or NaN.
func (o *MarketOutcome) Share(name string) float64 {
	for k := range o.ISPs {
		if o.ISPs[k].Name == name {
			return o.Shares[k]
		}
	}
	return math.NaN()
}

// Eq returns the class equilibrium of the named ISP, or nil.
func (o *MarketOutcome) Eq(name string) *ClassEquilibrium {
	for k := range o.ISPs {
		if o.ISPs[k].Name == name {
			return o.Eqs[k]
		}
	}
	return nil
}

// String summarizes the outcome.
func (o *MarketOutcome) String() string {
	s := fmt.Sprintf("market(ν̄=%g, Φ=%.4g", o.NuBar, o.Phi)
	for k := range o.ISPs {
		s += fmt.Sprintf(", %s: m=%.4f", o.ISPs[k].Name, o.Shares[k])
	}
	return s + ")"
}

// minShare bounds market shares away from 0 and 1 in the migration search
// and the share curves: an ISP with vanishing share has per-capita capacity
// γν̄/m → ∞, where its surplus has already saturated at MaxPhi, so nothing
// changes below this floor.
const minShare = 1e-9

// Market solves consumer-migration equilibria for a fixed population and
// system capacity. It caches per-ISP surplus evaluations through warm
// starts; create one Market per (pop, ν̄) study.
type Market struct {
	Solver *Solver
	Pop    traffic.Population
	NuBar  float64
	// MigrationTol is the absolute market-share tolerance of the consumer
	// migration search (Assumption 5): the equilibrium share lies in a
	// bracket no wider than MigrationTol. The default 1e-8 resolves shares
	// far beyond anything the experiments read; loosen it for speed in
	// large sweeps.
	MigrationTol float64
	warm         map[string][]bool // per-ISP warm-start partitions
}

// NewMarket returns a market solver (nil solver for defaults).
func NewMarket(s *Solver, pop traffic.Population, nuBar float64) *Market {
	if s == nil {
		s = NewSolver(nil)
	}
	if nuBar < 0 || math.IsNaN(nuBar) {
		panic(fmt.Sprintf("core: market with ν̄=%g", nuBar))
	}
	return &Market{Solver: s, Pop: pop, NuBar: nuBar, MigrationTol: 1e-8, warm: make(map[string][]bool)}
}

// classGameAt solves ISP k's class game at market share m, warm-started
// from (and updating) the ISP's last partition. Without retain it is a
// probe: the equilibrium is only valid until the solver's next solve.
func (mk *Market) classGameAt(isp ISP, m float64, retain bool) *ClassEquilibrium {
	if m < minShare {
		m = minShare
	}
	nu := isp.Gamma * mk.NuBar / m
	// Far beyond saturation the surplus is constant, so cap ν to keep the
	// class solver finite as m → 0. The cap must be generous: a two-class
	// ISP's surplus keeps growing until its *ordinary class alone* covers
	// the population's unconstrained demand, i.e. up to sat/(1−κ); 10⁴·sat
	// covers every κ ≤ 0.9999.
	if sat := mk.Pop.TotalUnconstrainedPerCapita(); nu > 1e4*sat {
		nu = 1e4 * sat
	}
	warm := mk.warm[isp.Name]
	var eq *ClassEquilibrium
	if retain {
		eq = mk.Solver.CompetitiveFrom(isp.Strategy, nu, mk.Pop, warm)
	} else {
		eq = mk.Solver.Probe(isp.Strategy, nu, mk.Pop, warm)
	}
	mk.warm[isp.Name] = append(warm[:0], eq.InPremium...)
	return eq
}

// valueAt returns the per-capita consumer value Φ + σ·Ψ of ISP k at market
// share m (Φ alone when σ = 0) and the class equilibrium behind it.
func (mk *Market) valueAt(isp SubsidizedISP, m float64, retain bool) (float64, *ClassEquilibrium) {
	eq := mk.classGameAt(isp.ISP, m, retain)
	v := eq.Phi()
	if isp.Sigma > 0 {
		v += isp.Sigma * eq.Psi()
	}
	return v, eq
}

// migration is a consumer-migration equilibrium of two ISPs: the shares,
// the class equilibria at them (nil when not retained), and the equalized
// consumer value.
type migration struct {
	shares []float64
	eqs    []*ClassEquilibrium
	value  float64
}

// migrate computes the migration equilibrium of two ISPs under Assumption
// 5, with consumers choosing by value Φ + σ·Ψ (σ = 0 is the paper's model).
// The gap v_a(m) − v_b(1−m) is non-increasing in a's share m (Theorem 2 via
// ν_a = γ_a·ν̄/m), so the equalization point is unique up to the
// discontinuities of the class game.
//
// Equilibrium selection: when both ISPs already deliver equal value at the
// capacity-proportional split γ (typically because capacity is abundant and
// both saturate), every split is an equilibrium and there is no migration
// pressure at all; the split is γ, consistent with Lemma 4's
// homogeneous-strategy equilibrium. Otherwise the split is the crossing of
// the gap bracketed outward from γ by numeric.BracketDecreasing, which
// matches a cold bisection over [minShare, 1−minShare] bit for bit wherever
// the gap is monotone. The start is γ and never a previous solve's share,
// so the answer does not depend on solve order even where the gap has
// several crossings. Search probes retain nothing; with retain, the two
// accepted equilibria are kept, and without it they are solved as probes
// too, in the same sequence of kernel solves.
//
// Boundary cases clamp: if even an infinitesimal share of consumers at a
// gets less value than b provides to everyone, a's share is 0 (the paper's
// c_I = 1 corner where "all consumers move to ISP J"), and the market level
// is the value of the ISP serving (essentially) everyone.
func (mk *Market) migrate(a, b SubsidizedISP, retain bool) migration {
	for _, isp := range []SubsidizedISP{a, b} {
		if err := isp.Validate(); err != nil {
			panic(err)
		}
	}
	if a.Name == b.Name {
		panic("core: duopoly ISPs must have distinct names")
	}
	if math.Abs(a.Gamma+b.Gamma-1) > 1e-9 {
		panic(fmt.Sprintf("core: duopoly capacity shares must sum to 1, got %g", a.Gamma+b.Gamma))
	}
	tol := mk.MigrationTol
	if tol <= 0 {
		tol = 1e-8
	}
	m := a.Gamma
	vGA, _ := mk.valueAt(a, a.Gamma, false)
	vGB, _ := mk.valueAt(b, b.Gamma, false)
	if math.Abs(vGA-vGB) > 1e-9*math.Max(math.Max(vGA, vGB), 1) {
		m = numeric.BracketDecreasing(func(m float64) float64 {
			va, _ := mk.valueAt(a, m, false)
			vb, _ := mk.valueAt(b, 1-m, false)
			return va - vb
		}, minShare, 1-minShare, a.Gamma, vGA-vGB, tol)
	}
	va, eqA := mk.valueAt(a, m, retain)
	vb, eqB := mk.valueAt(b, 1-m, retain)
	out := migration{shares: []float64{m, 1 - m}, value: math.Max(va, vb)}
	if retain {
		out.eqs = []*ClassEquilibrium{eqA, eqB}
	}
	if m <= 2*minShare {
		out.shares = []float64{0, 1}
		out.value = vb
	} else if m >= 1-2*minShare {
		out.shares = []float64{1, 0}
		out.value = va
	}
	return out
}

// SolveDuopoly computes the consumer-migration equilibrium of two ISPs on
// per-capita consumer surplus Φ; see migrate for the search and the
// equilibrium selection.
func (mk *Market) SolveDuopoly(a, b ISP) *MarketOutcome {
	mg := mk.migrate(SubsidizedISP{ISP: a}, SubsidizedISP{ISP: b}, true)
	return &MarketOutcome{ISPs: []ISP{a, b}, NuBar: mk.NuBar, Shares: mg.shares, Eqs: mg.eqs, Phi: mg.value}
}

// SolveShares returns the equilibrium market shares that SolveDuopoly (two
// ISPs) or SolveMarket (any other number) computes, bit for bit, for a
// caller that reads nothing else. It runs the same kernel solves and leaves
// the same warm-start partitions, so the market's later solves are
// unchanged too. For two ISPs it solves the accepted class equilibria as
// probes and clones neither. isps is not retained.
func (mk *Market) SolveShares(isps []ISP) []float64 {
	if len(isps) == 2 {
		return mk.migrate(SubsidizedISP{ISP: isps[0]}, SubsidizedISP{ISP: isps[1]}, false).shares
	}
	return mk.SolveMarket(isps).Shares
}

// shareCurvePoints is the resolution of the per-ISP share→surplus curves
// SolveMarket precomputes.
const shareCurvePoints = 96

// SolveMarket computes the migration equilibrium for any number of ISPs by
// surplus-level equalization: it precomputes each ISP's (non-increasing)
// surplus-vs-share curve Φ_k(m), then bisects on the common surplus level
// Φ* for Σ_k m_k(Φ*) = 1, where m_k(Φ*) is the largest share at which ISP k
// still delivers Φ*. ISPs whose best achievable surplus is below Φ* hold no
// consumers. Shares are finally renormalized to absorb interpolation error.
//
// Capacity shares must sum to 1 (within tolerance). For two ISPs,
// SolveDuopoly is exact and faster.
func (mk *Market) SolveMarket(isps []ISP) *MarketOutcome {
	if len(isps) == 0 {
		panic("core: SolveMarket needs at least one ISP")
	}
	var gammaSum float64
	names := make(map[string]bool, len(isps))
	for _, isp := range isps {
		if err := isp.Validate(); err != nil {
			panic(err)
		}
		if names[isp.Name] {
			panic("core: ISPs must have distinct names, duplicate " + isp.Name)
		}
		names[isp.Name] = true
		gammaSum += isp.Gamma
	}
	if math.Abs(gammaSum-1) > 1e-9 {
		panic(fmt.Sprintf("core: capacity shares must sum to 1, got %g", gammaSum))
	}
	if len(isps) == 1 {
		eq := mk.classGameAt(isps[0], 1, true)
		return &MarketOutcome{ISPs: isps, NuBar: mk.NuBar, Shares: []float64{1}, Eqs: []*ClassEquilibrium{eq}, Phi: eq.Phi()}
	}

	// Precompute Φ_k over a share grid, dense near zero where the curve
	// moves fastest (ν_k = γ_k·ν̄/m).
	grid := shareGrid()
	phiCurves := make([][]float64, len(isps))
	var phiMax float64
	for k, isp := range isps {
		curve := make([]float64, len(grid))
		for j, m := range grid {
			curve[j] = mk.classGameAt(isp, m, false).Phi()
		}
		// Enforce monotone non-increasing in m (solver noise and class-jump
		// discontinuities can wiggle): take the running max from the right,
		// which is the correct upper envelope for share inversion.
		for j := len(curve) - 2; j >= 0; j-- {
			if curve[j] < curve[j+1] {
				curve[j] = curve[j+1]
			}
		}
		phiCurves[k] = curve
		if curve[0] > phiMax {
			phiMax = curve[0]
		}
	}
	// m_k(Φ*): largest share with Φ_k(m) >= Φ*.
	shareAt := func(k int, phiStar float64) float64 {
		curve := phiCurves[k]
		if phiStar > curve[0] {
			return 0 // cannot deliver this surplus at any share
		}
		if phiStar <= curve[len(curve)-1] {
			return 1 // delivers it even serving everyone
		}
		// Binary search the first grid index with Φ < Φ*, then invert
		// linearly inside the bracketing cell.
		lo, hi := 0, len(curve)-1
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			if curve[mid] >= phiStar {
				lo = mid
			} else {
				hi = mid
			}
		}
		// A (near-)flat bracketing cell means the curve saturates there
		// and the inversion below is ill-conditioned; snap to the cell's
		// right edge instead of dividing by a vanishing difference.
		if numeric.AlmostEqual(curve[lo], curve[hi], numeric.DefaultTol) {
			return grid[hi]
		}
		t := (curve[lo] - phiStar) / (curve[lo] - curve[hi])
		return grid[lo] + t*(grid[hi]-grid[lo])
	}
	total := func(phiStar float64) float64 {
		var s float64
		for k := range isps {
			s += shareAt(k, phiStar)
		}
		return s
	}
	// Σ m_k(Φ*) is non-increasing in Φ*; find Σ = 1.
	phiStar := numeric.BisectDecreasing(func(p float64) float64 { return total(p) - 1 }, 0, phiMax, 1e-12*math.Max(phiMax, 1))

	out := &MarketOutcome{ISPs: isps, NuBar: mk.NuBar, Phi: phiStar}
	out.Shares = make([]float64, len(isps))
	var sum float64
	for k := range isps {
		out.Shares[k] = shareAt(k, phiStar)
		sum += out.Shares[k]
	}
	if sum > 0 {
		for k := range out.Shares {
			out.Shares[k] /= sum
		}
	}
	out.Eqs = make([]*ClassEquilibrium, len(isps))
	for k, isp := range isps {
		out.Eqs[k] = mk.classGameAt(isp, math.Max(out.Shares[k], minShare), true)
	}
	return out
}

// shareGrid returns the market-share sample points for SolveMarket:
// geometric spacing below 0.1 (where ν and hence Φ change fastest) and
// linear spacing above. The grid is deterministic, so it is built once and
// shared; callers must treat it as read-only.
func shareGrid() []float64 {
	shareGridOnce.Do(func() {
		var grid []float64
		m := 1e-4
		for m < 0.1 {
			grid = append(grid, m)
			m *= 1.35
		}
		for _, m := range numeric.Linspace(0.1, 1, shareCurvePoints-len(grid)) {
			grid = append(grid, m)
		}
		shareGridCache = grid
	})
	return shareGridCache
}

var (
	shareGridOnce  sync.Once
	shareGridCache []float64
)
