package scenario

import (
	"fmt"
	"runtime"

	"github.com/netecon-sim/publicoption/internal/core"
	"github.com/netecon-sim/publicoption/internal/numeric"
	"github.com/netecon-sim/publicoption/internal/obs"
	"github.com/netecon-sim/publicoption/internal/sweep"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

// RunOptions controls scenario execution, not its meaning: everything that
// changes the modeled outcome lives in the Scenario itself.
type RunOptions struct {
	// Workers bounds parallelism (independent curves, grid chunks, or
	// population batches depending on the scenario). 0 means GOMAXPROCS.
	Workers int
	// Stats, when non-nil, receives each task solver's telemetry as tasks
	// finish (one atomic publish per chunk/curve/grid row, never per
	// solve). Batched large-N scenarios run the water-fill instead of the
	// equilibrium kernels and publish nothing.
	Stats *obs.Counters
}

func (o RunOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// bestResponseGrid is the strategy grid searched by best-responding
// providers — the 3×11 grid the figure reproductions use (it brackets every
// best response observed in Figures 7–8 at a fraction of the cost of the
// full default grid).
func bestResponseGrid() core.StrategyGrid {
	return core.StrategyGrid{
		Kappas: []float64{0, 0.5, 1},
		Cs:     numeric.Linspace(0, 1, 11),
	}
}

// Run validates the scenario, compiles it into warm-started solver tasks,
// executes them via sweep.RunParallel, and returns one table per metric.
// Tables carry the scenario title and serialize with sweep.Table.WriteCSV.
// Grid scenarios (Sweep.Grid set) are 2-D and solve with RunGrid instead.
func (s *Scenario) Run(opt RunOptions) ([]*sweep.Table, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.IsGrid() {
		return nil, fmt.Errorf("scenario %q: declares a 2-D grid sweep (%s); solve it with RunGrid", s.Name, s.axisList())
	}
	if s.IsDynamic() {
		return nil, fmt.Errorf("scenario %q: declares a dynamics simulation; solve it with dynamics.Run", s.Name)
	}
	if s.Regulation != nil {
		return s.runRegimes(opt)
	}
	if s.Population.Kind == "ensemble" && s.Population.Batch > 0 {
		return s.runBatched(opt)
	}
	return s.runMarket(opt)
}

// nuGrid resolves the sweep's capacity values: the grid itself for the "nu"
// axis, scaled by the population's saturation when requested.
func (s *Scenario) resolveNu(values []float64, saturation float64) []float64 {
	if !s.Sweep.OfSaturation {
		return values
	}
	out := make([]float64, len(values))
	for i, v := range values {
		out[i] = v * saturation
	}
	return out
}

// point is the full outcome of one sweep position: market-level surplus
// plus per-provider metrics (for regime scenarios, "providers" are regimes).
type point struct {
	phi   float64
	psi   []float64
	share []float64
	util  []float64
}

// metricTables assembles one table per requested metric from the per-point
// results. The phi metric is market-level (one series); the others carry
// one series per curve name.
func (s *Scenario) metricTables(grid []float64, pts []point, curves []string) []*sweep.Table {
	var tables []*sweep.Table
	for _, m := range s.Sweep.metrics() {
		t := &sweep.Table{
			Title:  fmt.Sprintf("%s — %s", s.Title, m),
			XLabel: s.Sweep.Axis,
			YLabel: m,
		}
		if m == MetricPhi {
			series := sweep.Series{Name: "phi"}
			for i, p := range pts {
				series.Append(grid[i], p.phi)
			}
			t.Add(series)
		} else {
			for k, name := range curves {
				series := sweep.Series{Name: name}
				for i, p := range pts {
					var y float64
					switch m {
					case MetricPsi:
						y = p.psi[k]
					case MetricShare:
						y = p.share[k]
					case MetricUtilization:
						y = p.util[k]
					}
					series.Append(grid[i], y)
				}
				t.Add(series)
			}
		}
		tables = append(tables, t)
	}
	return tables
}

// chunkRanges splits n grid points into at most workers contiguous chunks.
// Each chunk becomes one task with its own solver, so warm starts stay
// within a monotone sub-sweep while chunks run in parallel.
func chunkRanges(n, workers int) [][2]int {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var ranges [][2]int
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		if lo < hi {
			ranges = append(ranges, [2]int{lo, hi})
		}
	}
	return ranges
}

// ---------------------------------------------------------------------------
// Provider-market scenarios (monopoly, duopoly, oligopoly, subsidies).

func (s *Scenario) runMarket(opt RunOptions) ([]*sweep.Table, error) {
	pop, err := s.Population.Materialize()
	if err != nil {
		return nil, err
	}
	grid := s.Sweep.XValues()
	fixedNu := s.Sweep.Nu
	if s.Sweep.Axis == AxisNu {
		grid = s.resolveNu(grid, pop.TotalUnconstrainedPerCapita())
	} else if s.Sweep.OfSaturation {
		fixedNu *= pop.TotalUnconstrainedPerCapita()
	}

	pts := make([]point, len(grid))
	curves := make([]string, len(s.Providers))
	for i, p := range s.Providers {
		curves[i] = p.Name
	}

	var tasks []func()
	for _, r := range chunkRanges(len(grid), opt.workers()) {
		lo, hi := r[0], r[1]
		tasks = append(tasks, func() {
			// One warm-started solver per chunk: points within a chunk are
			// adjacent on the axis, so each solve seeds the next.
			solver := core.NewSolver(nil)
			var mk *core.Market
			for i := lo; i < hi; i++ {
				nu := fixedNu
				if s.Sweep.Axis == AxisNu {
					nu = grid[i]
				}
				if mk == nil {
					mk = core.NewMarket(solver, pop, nu)
					mk.MigrationTol = 1e-7
				} else {
					mk.NuBar = nu // keeps the per-ISP warm partitions
				}
				pts[i] = s.solvePoint(mk, grid[i])
			}
			// The solver is chunk-local, so its lifetime stats are this
			// chunk's exact contribution.
			opt.Stats.Add(solver.Stats())
		})
	}
	sweep.RunParallel(opt.workers(), tasks)
	return s.metricTables(grid, pts, curves), nil
}

// axisValue is one swept-axis assignment of a sweep point or grid cell.
type axisValue struct {
	axis  string
	value float64
}

// solvePoint solves the declared market at one axis position x.
func (s *Scenario) solvePoint(mk *core.Market, x float64) point {
	return s.solveAt(mk, []axisValue{{s.Sweep.Axis, x}})
}

// solveAt solves the declared market with every listed axis assignment
// applied. The "nu" axis is positional, not strategic — callers encode it
// in mk.NuBar before the call, so it is skipped here. 1-D sweeps pass one
// assignment; grid cells pass both of theirs.
func (s *Scenario) solveAt(mk *core.Market, axes []axisValue) point {
	pt, _ := s.solveAtEx(mk, axes)
	return pt
}

// providerEq pairs one solved provider with its consumer market share and
// the class equilibrium behind its metrics — the sampler's handle on the
// actual per-link rate equilibria, which the metric tables flatten away.
type providerEq struct {
	name  string
	share float64
	eq    *core.ClassEquilibrium
}

// solveAtEx is solveAt returning, alongside the metric point, the solved
// per-provider class equilibria (safe to retain: the market solvers clone
// equilibria out of their workspaces before publishing them).
func (s *Scenario) solveAtEx(mk *core.Market, axes []axisValue) (point, []providerEq) {
	isps := make([]core.ISP, len(s.Providers))
	for i, p := range s.Providers {
		st := core.Strategy{Kappa: p.Kappa, C: p.C}
		if p.PublicOption {
			st = core.PublicOption
		}
		isps[i] = core.ISP{Name: p.Name, Gamma: p.Gamma, Strategy: st}
	}
	sigma0 := s.Providers[0].Sigma
	subsidized := sigma0 > 0 || (len(s.Providers) > 1 && s.Providers[1].Sigma > 0)
	for _, av := range axes {
		switch av.axis {
		case AxisPrice:
			isps[0].Strategy.C = av.value
		case AxisKappa:
			isps[0].Strategy.Kappa = av.value
		case AxisPOShare:
			isps[1].Gamma = av.value
			isps[0].Gamma = 1 - av.value
		case AxisSigma:
			sigma0 = av.value
			subsidized = true
		}
	}
	if subsidized {
		out := solveSubsidized(mk, isps, s.Providers, sigma0)
		eqs := make([]providerEq, len(out.ISPs))
		for k := range out.ISPs {
			eqs[k] = providerEq{out.ISPs[k].Name, out.Shares[k], out.Eqs[k]}
		}
		return subsidizedPoint(out), eqs
	}

	var out *core.MarketOutcome
	if who := bestResponder(s.Providers); who >= 0 {
		prev := mk.MigrationTol
		mk.MigrationTol = 1e-6
		_, out, _ = mk.BestResponse(isps, who, bestResponseGrid())
		mk.MigrationTol = prev
	} else if len(isps) == 1 {
		out = mk.SolveMarket(isps)
	} else if len(isps) == 2 {
		out = mk.SolveDuopoly(isps[0], isps[1])
	} else {
		out = mk.SolveMarket(isps)
	}
	eqs := make([]providerEq, len(out.ISPs))
	for k := range out.ISPs {
		eqs[k] = providerEq{out.ISPs[k].Name, out.Shares[k], out.Eqs[k]}
	}
	return outcomePoint(out), eqs
}

func bestResponder(providers []ProviderSpec) int {
	for i, p := range providers {
		if p.BestResponse {
			return i
		}
	}
	return -1
}

func outcomePoint(out *core.MarketOutcome) point {
	p := point{
		phi:   out.Phi,
		psi:   make([]float64, len(out.ISPs)),
		share: append([]float64(nil), out.Shares...),
		util:  make([]float64, len(out.ISPs)),
	}
	for k := range out.ISPs {
		if out.Eqs[k] != nil {
			p.psi[k] = out.Eqs[k].Psi() * out.Shares[k]
			p.util[k] = out.Eqs[k].Utilization()
		}
	}
	return p
}

// solveSubsidized solves the two-ISP rebate game (§VI extension) with the
// first provider rebating fraction sigma of premium revenue.
func solveSubsidized(mk *core.Market, isps []core.ISP, providers []ProviderSpec, sigma0 float64) *core.SubsidizedOutcome {
	a := core.SubsidizedISP{ISP: isps[0], Sigma: sigma0}
	b := core.SubsidizedISP{ISP: isps[1], Sigma: providers[1].Sigma}
	return mk.SolveSubsidizedDuopoly(a, b)
}

// subsidizedPoint flattens a rebate-game outcome into a metric point.
func subsidizedPoint(out *core.SubsidizedOutcome) point {
	p := point{
		phi:   out.GrossPhi,
		psi:   make([]float64, len(out.ISPs)),
		share: append([]float64(nil), out.Shares...),
		util:  make([]float64, len(out.ISPs)),
	}
	for k := range out.ISPs {
		if out.Eqs[k] != nil {
			p.psi[k] = out.Eqs[k].Psi() * out.Shares[k]
			p.util[k] = out.Eqs[k].Utilization()
		}
	}
	return p
}

// ---------------------------------------------------------------------------
// Regime-comparison scenarios.

var allRegimes = []string{"unregulated", "kappa-cap", "price-cap", "neutral", "public-option"}

func (s *Scenario) runRegimes(opt RunOptions) ([]*sweep.Table, error) {
	pop, err := s.Population.Materialize()
	if err != nil {
		return nil, err
	}
	grid := s.resolveNu(s.Sweep.XValues(), pop.TotalUnconstrainedPerCapita())
	regimes := s.Regulation.Regimes
	if len(regimes) == 0 {
		regimes = allRegimes
	}
	rc := s.Regulation.withDefaults()

	// One task per regime: each curve owns its solver and sweeps capacity
	// sequentially, warm-starting point to point.
	results := make([][]point, len(regimes))
	tasks := make([]func(), len(regimes))
	for r := range regimes {
		r := r
		tasks[r] = func() {
			results[r] = regimeCurve(regimes[r], grid, pop, rc, opt.Stats)
		}
	}
	sweep.RunParallel(opt.workers(), tasks)

	// Reassemble: curve k of the combined tables is regime k.
	pts := make([]point, len(grid))
	for i := range pts {
		pts[i] = point{
			psi:   make([]float64, len(regimes)),
			share: make([]float64, len(regimes)),
			util:  make([]float64, len(regimes)),
		}
		for r := range regimes {
			pts[i].psi[r] = results[r][i].psi[0]
			pts[i].share[r] = results[r][i].share[0]
			pts[i].util[r] = results[r][i].util[0]
		}
	}
	tables := s.metricTables(grid, pts, regimes)
	// The market-level phi differs per regime, so rebuild that table with
	// one series per regime.
	for ti, m := range s.Sweep.metrics() {
		if m != MetricPhi {
			continue
		}
		t := &sweep.Table{Title: tables[ti].Title, XLabel: s.Sweep.Axis, YLabel: m}
		for r, name := range regimes {
			series := sweep.Series{Name: name}
			for i := range grid {
				series.Append(grid[i], results[r][i].phi)
			}
			t.Add(series)
		}
		tables[ti] = t
	}
	return tables, nil
}

// withDefaults fills unset regulation knobs with the registry defaults, so
// the runner and the equilibrium sampler resolve regimes identically.
func (r RegulationSpec) withDefaults() RegulationSpec {
	if r.KappaCap <= 0 || r.KappaCap > 1 {
		r.KappaCap = 0.5
	}
	if r.PriceCap <= 0 {
		r.PriceCap = 0.3
	}
	if r.POShare <= 0 || r.POShare >= 1 {
		r.POShare = 0.5
	}
	if r.GridN <= 0 {
		r.GridN = 30
	}
	return r
}

// regimeSolver owns the warm-started solvers one regime curve reuses across
// capacities (mirroring core.CompareRegimes one regime at a time).
type regimeSolver struct {
	solver *core.Solver
	mono   *core.Monopoly
	pop    traffic.Population
	rc     RegulationSpec
}

func newRegimeSolver(pop traffic.Population, rc RegulationSpec) *regimeSolver {
	solver := core.NewSolver(nil)
	return &regimeSolver{solver: solver, mono: core.NewMonopoly(solver), pop: pop, rc: rc}
}

// solveAt solves one regulatory regime at capacity nu, returning the metric
// point and the class equilibria of the regime's implied market structure
// (the regulated monopolist, or the incumbent/Public Option pair).
func (rs *regimeSolver) solveAt(regime string, nu float64) (point, []providerEq) {
	var phi, psi, share, util float64
	share = 1
	var eqs []providerEq
	switch regime {
	case "unregulated":
		_, eq := rs.mono.OptimalStrategy(1, nu, rs.pop, 10, rs.rc.GridN)
		phi, psi, util = eq.Phi(), eq.Psi(), eq.Utilization()
		eqs = []providerEq{{regime, 1, eq}}
	case "kappa-cap":
		_, eq := rs.mono.OptimalPrice(rs.rc.KappaCap, 1, nu, rs.pop, rs.rc.GridN)
		phi, psi, util = eq.Phi(), eq.Psi(), eq.Utilization()
		eqs = []providerEq{{regime, 1, eq}}
	case "price-cap":
		_, eq := rs.mono.OptimalPrice(1, rs.rc.PriceCap, nu, rs.pop, rs.rc.GridN)
		phi, psi, util = eq.Phi(), eq.Psi(), eq.Utilization()
		eqs = []providerEq{{regime, 1, eq}}
	case "neutral":
		eq := rs.solver.Competitive(core.PublicOption, nu, rs.pop)
		phi, psi, util = eq.Phi(), 0, eq.Utilization()
		eqs = []providerEq{{regime, 1, eq}}
	case "public-option":
		mk := core.NewMarket(rs.solver, rs.pop, nu)
		mk.MigrationTol = 1e-6
		isps := []core.ISP{
			{Name: "incumbent", Gamma: 1 - rs.rc.POShare, Strategy: core.Strategy{Kappa: 1, C: 0.5}},
			{Name: "public-option", Gamma: rs.rc.POShare, Strategy: core.PublicOption},
		}
		_, o, _ := mk.BestResponse(isps, 0, bestResponseGrid())
		phi = o.Phi
		psi = o.Eqs[0].Psi() * o.Shares[0]
		share = o.Shares[0]
		util = o.Eqs[0].Utilization()
		eqs = []providerEq{
			{regime + ":" + o.ISPs[0].Name, o.Shares[0], o.Eqs[0]},
			{regime + ":" + o.ISPs[1].Name, o.Shares[1], o.Eqs[1]},
		}
	default:
		panic("scenario: unknown regime " + regime) // Validate rejects these
	}
	return point{phi: phi, psi: []float64{psi}, share: []float64{share}, util: []float64{util}}, eqs
}

// regimeCurve sweeps one regulatory regime across capacities with its own
// warm-started solver, publishing the curve's solver telemetry to stats
// (nil-safe) when done.
func regimeCurve(regime string, nus []float64, pop traffic.Population, rc RegulationSpec, stats *obs.Counters) []point {
	rs := newRegimeSolver(pop, rc)
	out := make([]point, len(nus))
	for i, nu := range nus {
		out[i], _ = rs.solveAt(regime, nu)
	}
	stats.Add(rs.solver.Stats())
	return out
}

// ---------------------------------------------------------------------------
// Batched large-N scenarios (neutral providers only).

func (s *Scenario) runBatched(opt RunOptions) ([]*sweep.Table, error) {
	bp := newBatchedPop(s.Population.ensembleConfig(), s.Population.seed(), s.Population.Batch)
	grid := s.resolveNu(s.Sweep.XValues(), bp.saturation)

	// With every provider neutral the migration game is Lemma 4's
	// homogeneous equilibrium: shares equal capacity shares and every ISP's
	// per-capita capacity is the system ν̄, so the market outcome is the
	// pooled rate equilibrium. The curve is sequential (each water level
	// warm-starts the next — Axiom 3); parallelism is across population
	// batches inside each point.
	pts := make([]point, len(grid))
	order := ascendingOrder(grid)
	tau := 0.0
	for _, i := range order {
		var phi, util float64
		tau, phi, util = bp.neutralPoint(grid[i], tau, opt.workers())
		p := point{
			phi:   phi,
			psi:   make([]float64, len(s.Providers)),
			share: make([]float64, len(s.Providers)),
			util:  make([]float64, len(s.Providers)),
		}
		for k, prov := range s.Providers {
			p.share[k] = prov.Gamma
			p.util[k] = util
		}
		pts[i] = p
	}
	curves := make([]string, len(s.Providers))
	for i, p := range s.Providers {
		curves[i] = p.Name
	}
	return s.metricTables(grid, pts, curves), nil
}

// ascendingOrder returns grid indices sorted by value so the water-fill
// warm start sees a monotone capacity sequence even for unsorted Values.
func ascendingOrder(grid []float64) []int {
	idx := make([]int, len(grid))
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && grid[idx[j]] < grid[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return idx
}

// Saturation returns the population's saturation capacity Σ α_i·θ̂_i without
// materializing batched ensembles more than batch-by-batch.
func (s *Scenario) Saturation() (float64, error) {
	if s.Population.Kind == "ensemble" && s.Population.Batch > 0 {
		bp := newBatchedPop(s.Population.ensembleConfig(), s.Population.seed(), s.Population.Batch)
		return bp.saturation, nil
	}
	pop, err := s.Population.Materialize()
	if err != nil {
		return 0, err
	}
	return pop.TotalUnconstrainedPerCapita(), nil
}
