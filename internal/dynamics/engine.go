// Package dynamics runs scenarios through discrete time: a deterministic
// tick loop shaped as the collector→optimizer→actuator reconcile pattern of
// cluster autoscalers, applied to the Ma–Misra market.
//
// Each tick:
//
//  1. collector — the traffic process scales every CP's unconstrained
//     throughput θ̂_i by a multiplier that is a pure function of the tick,
//     producing the demand the providers actually observe;
//  2. optimizer — each provider's policy (fixed, best-response, gradient,
//     sticky) proposes a new premium price from last tick's market state,
//     evaluated on the warm alloc.Workspace kernel via core.Solver;
//  3. actuator — the Public Option's autoscaler moves its absolute capacity
//     toward the level that would hold its subscribers' M/M/1 sojourn time
//     at the configured target (mm1.CapacityForDelay);
//  4. market — the instantaneous Assumption-5 migration equilibrium m* is
//     solved at the new prices and capacities (core.Market), and consumer
//     shares partially adjust, m ← λ·m + (1−λ)·m*, with inertia λ;
//  5. observe — realized per-provider class equilibria at the adjusted
//     shares yield the tick's surplus, revenue, and utilization record.
//
// With fixed strategies, constant traffic, and no autoscaling, the loop's
// fixed point is exactly the static Theorem-1/Assumption-5 equilibrium, and
// partial adjustment contracts onto it geometrically (share error ∝ λ^t) —
// the agreement the fixed-point test battery pins to 1e-6.
//
// Determinism: the engine holds no wall-clock, no global RNG, and no map
// iteration; a trajectory is a pure function of (scenario, tick count).
// Run's worker knob exists for API symmetry with the static runners — ticks
// are inherently sequential (each consumes the previous state), so worker
// count never changes a trajectory, which the determinism tests assert.
package dynamics

import (
	"fmt"
	"math"

	"github.com/netecon-sim/publicoption/internal/core"
	"github.com/netecon-sim/publicoption/internal/mm1"
	"github.com/netecon-sim/publicoption/internal/obs"
	"github.com/netecon-sim/publicoption/internal/scenario"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

// shareFloor bounds shares away from zero where per-subscriber capacity
// caps_k/m_k and the M/M/1 delay would be evaluated at an empty provider.
const shareFloor = 1e-6

// TickRecord is one tick's full observable outcome. It doubles as the
// resume state: Shares, Caps, Kappas, and Prices at the end of tick t are
// exactly the state tick t+1 starts from, so Engine.Restore can continue a
// trajectory from any record (the streaming service resumes cached runs
// this way).
type TickRecord struct {
	// Tick is the 0-based tick index.
	Tick int `json:"tick"`
	// Multiplier is the traffic multiplier the collector observed.
	Multiplier float64 `json:"multiplier"`
	// NuBar is the system per-capita capacity Σ_k caps_k after actuation.
	NuBar float64 `json:"nu_bar"`
	// Caps is each provider's absolute per-capita capacity after actuation.
	Caps []float64 `json:"caps"`
	// Kappas and Prices are each provider's strategy after re-pricing.
	Kappas []float64 `json:"kappas"`
	Prices []float64 `json:"prices"`
	// Shares are the consumer market shares after partial adjustment.
	Shares []float64 `json:"shares"`
	// Phi is the share-weighted per-capita consumer surplus Σ_k m_k·Φ_k.
	Phi float64 `json:"phi"`
	// PhiGap is the largest surplus spread max Φ_k − min Φ_k over providers
	// holding consumers — the migration disequilibrium still to be worked
	// off (0 at an Assumption-5 equilibrium, up to inertia).
	PhiGap float64 `json:"phi_gap"`
	// PhiPer, Psi, Util are per-provider: consumer surplus Φ_k, market-wide
	// per-capita premium revenue m_k·Ψ_k, and link utilization.
	PhiPer []float64 `json:"phi_per"`
	Psi    []float64 `json:"psi"`
	Util   []float64 `json:"util"`
	// PODelay is the Public Option subscribers' M/M/1 mean sojourn time
	// (absent without a Public Option provider).
	PODelay float64 `json:"po_delay,omitempty"`
	// Solver is the tick's solver-telemetry delta (this tick's work only).
	Solver obs.SolveStats `json:"solver"`
}

// Options controls execution, not meaning (mirrors scenario.RunOptions).
type Options struct {
	// Workers is accepted for symmetry with the static runners and ignored:
	// ticks are sequential by construction, so any worker count produces
	// the identical trajectory.
	Workers int
	// Stats, when non-nil, receives the run's total solver telemetry once
	// at the end of the run.
	Stats *obs.Counters
}

// Engine advances one dynamic scenario tick by tick. Create with New, call
// Step exactly Ticks() times (or use Run), and read Stats for telemetry.
// An Engine is single-goroutine, like the solvers it owns.
type Engine struct {
	sc   *scenario.Scenario
	spec *scenario.DynamicsSpec

	names    []string
	policies []scenario.PolicySpec // resolved, one per provider
	poIdx    int                   // Public Option index, -1 when absent
	inertia  float64
	vMax     float64 // highest CP valuation: prices above it sell nothing

	// Capacity is carried as absolute per-capita values so the actuator can
	// grow the Public Option without re-normalizing anyone else; the market
	// solver sees γ_k = caps_k/ν̄, which sums to 1 by construction.
	caps    []float64
	cap0PO  float64 // the Public Option's initial capacity (autoscale clamp base)
	strats  []core.Strategy
	shares  []float64
	tick    int
	basePop traffic.Population // declared θ̂ (never mutated)
	workPop traffic.Population // θ̂ scaled by the tick's multiplier

	solver  *core.Solver
	market  *core.Market
	obsWarm [][]bool // per-provider warm partitions for the observe phase
	polWarm [][]bool // per-provider warm partitions for policy probes

	// scratch reused across ticks
	nextPrices []float64
	nextShares []float64
	isps       []core.ISP
}

// New validates the scenario and builds an engine positioned before tick 0.
func New(sc *scenario.Scenario) (*Engine, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if !sc.IsDynamic() {
		return nil, fmt.Errorf("dynamics: scenario %q has no dynamics block; solve it with Run/RunGrid", sc.Name)
	}
	pop, err := sc.Population.Materialize()
	if err != nil {
		return nil, err
	}
	e := &Engine{
		sc:      sc,
		spec:    sc.Dynamics,
		poIdx:   -1,
		inertia: sc.Dynamics.Inertia,
		basePop: pop,
		workPop: append(traffic.Population(nil), pop...),
		solver:  core.NewSolver(nil),
	}
	for _, cp := range pop {
		if cp.V > e.vMax {
			e.vMax = cp.V
		}
	}
	nuBar := sc.Sweep.Nu
	if sc.Sweep.OfSaturation {
		nuBar *= pop.TotalUnconstrainedPerCapita()
	}
	k := len(sc.Providers)
	e.names = make([]string, k)
	e.caps = make([]float64, k)
	e.strats = make([]core.Strategy, k)
	e.shares = make([]float64, k)
	e.policies = make([]scenario.PolicySpec, k)
	e.obsWarm = make([][]bool, k)
	e.nextPrices = make([]float64, k)
	e.nextShares = make([]float64, k)
	e.isps = make([]core.ISP, k)
	for i, p := range sc.Providers {
		e.names[i] = p.Name
		e.caps[i] = p.Gamma * nuBar
		// Shares start at capacity shares: the homogeneous-strategy
		// equilibrium of Lemma 4 and the natural "day 0" of an entrant
		// sized by its build-out.
		e.shares[i] = p.Gamma
		if p.PublicOption {
			e.poIdx = i
			e.strats[i] = core.PublicOption
			e.cap0PO = e.caps[i]
		} else {
			e.strats[i] = core.Strategy{Kappa: p.Kappa, C: p.C}
		}
		e.policies[i] = scenario.PolicySpec{Kind: scenario.PolicyFixed}
		if len(sc.Dynamics.Policies) > 0 {
			e.policies[i] = sc.Dynamics.Policies[i].WithDefaults()
		}
	}
	// The market solver shares workPop, so the collector's in-place θ̂
	// scaling is visible to every solve without copying.
	e.market = core.NewMarket(e.solver, e.workPop, nuBar)
	return e, nil
}

// Ticks returns the configured tick count.
func (e *Engine) Ticks() int { return e.spec.Ticks }

// Tick returns the next tick index Step will run.
func (e *Engine) Tick() int { return e.tick }

// Providers returns the provider names, in declaration order.
func (e *Engine) Providers() []string { return e.names }

// Stats returns the engine's cumulative solver telemetry.
func (e *Engine) Stats() obs.SolveStats { return e.solver.Stats() }

// Restore positions the engine to continue after rec: the next Step runs
// tick rec.Tick+1 from rec's shares, capacities, and strategies. Solver
// warm-start state is rebuilt from scratch, so a restored trajectory may
// differ from an uninterrupted one in the last ~1e-9 of each solve (the
// warm bracket's path dependence); everything economically meaningful is
// identical.
func (e *Engine) Restore(rec TickRecord) error {
	if rec.Tick < 0 || rec.Tick >= e.spec.Ticks {
		return fmt.Errorf("dynamics: restore tick %d outside [0, %d)", rec.Tick, e.spec.Ticks)
	}
	k := len(e.names)
	if len(rec.Shares) != k || len(rec.Caps) != k || len(rec.Kappas) != k || len(rec.Prices) != k {
		return fmt.Errorf("dynamics: restore record shape mismatch (%d providers)", k)
	}
	copy(e.shares, rec.Shares)
	copy(e.caps, rec.Caps)
	for i := range e.strats {
		e.strats[i] = core.Strategy{Kappa: rec.Kappas[i], C: rec.Prices[i]}
	}
	e.tick = rec.Tick + 1
	return nil
}

// scalePop applies the collector's demand multiplier in place.
//
//pubopt:hotpath
func (e *Engine) scalePop(mult float64) {
	base := e.basePop
	work := e.workPop
	for i := range work {
		work[i].ThetaHat = base[i].ThetaHat * mult
	}
}

// advanceShares partially adjusts shares toward the instantaneous migration
// equilibrium target and renormalizes the sum to exactly 1.
//
//pubopt:hotpath
func (e *Engine) advanceShares(target []float64) {
	lambda := e.inertia
	var sum float64
	for i := range e.shares {
		e.shares[i] = lambda*e.shares[i] + (1-lambda)*target[i]
		sum += e.shares[i]
	}
	inv := 1 / sum
	for i := range e.shares {
		e.shares[i] *= inv
	}
}

// nuBar returns the current system per-capita capacity Σ caps.
func (e *Engine) nuBar() float64 {
	var s float64
	for _, c := range e.caps {
		s += c
	}
	return s
}

// buildISPs fills the scratch ISP slice from current caps and strategies.
// The last γ is forced to the exact complement so the market solver's
// Σγ = 1 invariant holds bit-for-bit regardless of rounding in caps.
func (e *Engine) buildISPs(nuBar float64) []core.ISP {
	rest := 1.0
	for i := range e.isps {
		g := e.caps[i] / nuBar
		if i == len(e.isps)-1 {
			g = rest
		}
		rest -= g
		e.isps[i] = core.ISP{Name: e.names[i], Gamma: g, Strategy: e.strats[i]}
	}
	return e.isps
}

// solveMarket computes the instantaneous migration equilibrium's shares at
// the current prices, capacities, and (scaled) demand.
func (e *Engine) solveMarket() []float64 {
	nuBar := e.nuBar()
	e.market.NuBar = nuBar
	return e.market.SolveShares(e.buildISPs(nuBar))
}

// observe solves provider k's realized class equilibrium at its adjusted
// share, warm-started from the previous tick's observation of the same
// provider. The equilibrium is a solver probe: valid until the next solve.
func (e *Engine) observe(k int) *core.ClassEquilibrium {
	m := e.shares[k]
	if m < shareFloor {
		m = shareFloor
	}
	nu := e.caps[k] / m
	// Same saturation cap as core.Market.classGameAt: far past saturation
	// the equilibrium is flat, and an uncapped ν → ∞ would stall the class
	// solver on a vanishing provider.
	if sat := e.workPop.TotalUnconstrainedPerCapita(); nu > 1e4*sat {
		nu = 1e4 * sat
	}
	eq := e.solver.Probe(e.strats[k], nu, e.workPop, e.obsWarm[k])
	e.obsWarm[k] = append(e.obsWarm[k][:0], eq.InPremium...)
	return eq
}

// Step advances one tick and returns its record. Panics if called past the
// configured tick count.
func (e *Engine) Step() TickRecord {
	if e.tick >= e.spec.Ticks {
		panic(fmt.Sprintf("dynamics: Step past tick %d of scenario %q", e.spec.Ticks, e.sc.Name))
	}
	t := e.tick
	prevStats := e.solver.Stats()

	// 1. Collector: observe this tick's demand.
	mult := e.spec.Multiplier(t)
	e.scalePop(mult)

	// 2. Optimizer: every policy proposes its price from the *same*
	// pre-tick state (simultaneous moves), then all apply at once.
	e.market.NuBar = e.nuBar()
	for k := range e.policies {
		e.nextPrices[k] = e.repriceFor(k)
	}
	for k := range e.strats {
		e.strats[k].C = e.nextPrices[k]
	}

	// 3. Actuator: autoscale the Public Option toward its delay target.
	if e.spec.Autoscale != nil && e.poIdx >= 0 {
		a := e.spec.Autoscale.WithDefaults()
		m := e.shares[e.poIdx]
		if m < shareFloor {
			m = shareFloor
		}
		// Capacity that would serve the whole population at target delay,
		// scaled down to the slice actually subscribed here.
		desired := mm1.CapacityForDelay(a.DelayTarget, e.workPop) * m
		next := e.caps[e.poIdx] + a.Gain*(desired-e.caps[e.poIdx])
		if lo := a.Min * e.cap0PO; next < lo {
			next = lo
		}
		if hi := a.Max * e.cap0PO; next > hi {
			next = hi
		}
		e.caps[e.poIdx] = next
	}

	// 4. Market: instantaneous migration equilibrium, then inert adjustment.
	copy(e.nextShares, e.solveMarket())
	e.advanceShares(e.nextShares)

	// 5. Observe realized outcomes at the adjusted shares.
	rec := TickRecord{
		Tick:       t,
		Multiplier: mult,
		NuBar:      e.nuBar(),
		Caps:       append([]float64(nil), e.caps...),
		Kappas:     make([]float64, len(e.strats)),
		Prices:     make([]float64, len(e.strats)),
		Shares:     append([]float64(nil), e.shares...),
		PhiPer:     make([]float64, len(e.names)),
		Psi:        make([]float64, len(e.names)),
		Util:       make([]float64, len(e.names)),
	}
	for k := range e.strats {
		rec.Kappas[k] = e.strats[k].Kappa
		rec.Prices[k] = e.strats[k].C
	}
	phiLo, phiHi := math.Inf(1), math.Inf(-1)
	for k := range e.names {
		eq := e.observe(k)
		rec.PhiPer[k] = eq.Phi()
		rec.Psi[k] = eq.Psi() * e.shares[k]
		rec.Util[k] = eq.Utilization()
		rec.Phi += e.shares[k] * rec.PhiPer[k]
		if e.shares[k] > shareFloor {
			phiLo = math.Min(phiLo, rec.PhiPer[k])
			phiHi = math.Max(phiHi, rec.PhiPer[k])
		}
	}
	if phiHi >= phiLo {
		rec.PhiGap = phiHi - phiLo
	}
	if e.poIdx >= 0 {
		m := e.shares[e.poIdx]
		if m < shareFloor {
			m = shareFloor
		}
		rec.PODelay = mm1.Solve(e.caps[e.poIdx]/m, e.workPop).W
	}
	rec.Solver = e.solver.Stats().Since(prevStats)
	e.tick++
	return rec
}

// Run executes the scenario's full trajectory. The Options worker knob is
// documentation-grade only (see Options.Workers); Stats receives the run's
// solver telemetry once at the end.
func Run(sc *scenario.Scenario, opt Options) (*Trajectory, error) {
	e, err := New(sc)
	if err != nil {
		return nil, err
	}
	tr := &Trajectory{
		Name:      sc.Name,
		Title:     sc.Title,
		Providers: append([]string(nil), e.names...),
		Metrics:   append([]string(nil), sc.Sweep.Metrics...),
		Ticks:     make([]TickRecord, 0, e.Ticks()),
	}
	for e.Tick() < e.Ticks() {
		tr.Ticks = append(tr.Ticks, e.Step())
	}
	if opt.Stats != nil {
		opt.Stats.Add(e.Stats())
	}
	return tr, nil
}
