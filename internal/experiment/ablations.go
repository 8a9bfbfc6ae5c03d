package experiment

import (
	"fmt"

	"github.com/netecon-sim/publicoption/internal/alloc"
	"github.com/netecon-sim/publicoption/internal/core"
	"github.com/netecon-sim/publicoption/internal/econ"
	"github.com/netecon-sim/publicoption/internal/mm1"
	"github.com/netecon-sim/publicoption/internal/netsim"
	"github.com/netecon-sim/publicoption/internal/obs"
	"github.com/netecon-sim/publicoption/internal/scenario"
	"github.com/netecon-sim/publicoption/internal/sweep"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

func init() {
	register(&Experiment{
		ID:    "ablation-alphafair",
		Title: "Allocation-mechanism ablation: Φ(ν) under max-min vs weighted α-fair vs per-CP max-min",
		Expect: "All mechanisms satisfy Axioms 1–4, so Φ is monotone under " +
			"each; the *level* differs because weighting shifts throughput " +
			"between heterogeneous CPs — the choice of neutral mechanism " +
			"matters even without pricing.",
		Run: runAblationAlphaFair,
	})
	register(&Experiment{
		ID:    "ablation-tcp",
		Title: "Assumption 2 validation: fluid AIMD rates vs analytic max-min",
		Expect: "Jain index near 1 and worst per-flow deviation within ~20% " +
			"of the water level across flow counts; the closed demand loop " +
			"lands within a few percent of the Theorem 1 equilibrium.",
		Run: runAblationTCP,
	})
	register(&Experiment{
		ID:    "ablation-mm1",
		Title: "Congestion-abstraction ablation: TCP/max-min model vs M/M/1 delay model (§V)",
		Expect: "The M/M/1 queue always leaves capacity headroom (utilization " +
			"< 1) while the max-min model is work-conserving; both produce " +
			"an interior revenue peak, but the M/M/1 revenue curve decays " +
			"smoothly where the max-min one has sharp affordability cliffs.",
		Run: runAblationMM1,
	})
	register(&Experiment{
		ID:    "ablation-nash",
		Title: "Solution-concept ablation: Nash (Def. 2) vs competitive (Def. 3) CP equilibria",
		Expect: "On small populations the two concepts coincide in premium " +
			"membership and surplus for almost every price — the paper's " +
			"justification for computing competitive equilibria only.",
		Run: runAblationNash,
	})
	register(&Experiment{
		ID:    "ablation-pubopt-capacity",
		Title: "Public Option capacity sweep (§VI): how much PO capacity disciplines a share-maximizing incumbent?",
		Expect: "Even a small Public Option (γ ≈ 0.1) disciplines a " +
			"share-maximizing incumbent: Φ is already near its ceiling at " +
			"tiny γ and stays roughly flat as the PO grows — capacity " +
			"sizing barely matters, the §VI claim. (At scarce capacity the " +
			"effect inverts slightly: differentiation helps consumers " +
			"there, the paper's exceptional case.)",
		Run: runAblationPubOptCapacity,
	})
}

func runAblationAlphaFair(cfg Config, _ *obs.Counters) []*sweep.Table {
	pop := traffic.Archetypes()
	nus := cfg.grid(50, 6000, 60, 20)
	mechs := []alloc.Allocator{
		alloc.MaxMin{},
		alloc.AlphaFair{Alpha: 1, Weights: alloc.WeightByThetaHat},
		alloc.AlphaFair{Alpha: 2, Weights: alloc.WeightByThetaHat},
		alloc.PerCPMaxMin{},
	}
	phiTbl := &sweep.Table{
		Title:  "Φ(ν) by allocation mechanism (archetype CPs)",
		XLabel: "nu", YLabel: "phi",
	}
	thetaTbl := &sweep.Table{
		Title:  "Netflix-type θ(ν) by allocation mechanism",
		XLabel: "nu", YLabel: "theta",
	}
	for _, mech := range mechs {
		phiS := sweep.Series{Name: mech.Name()}
		thS := sweep.Series{Name: mech.Name()}
		for _, nu := range nus {
			res := alloc.Solve(mech, nu, pop)
			phiS.Append(nu, econ.Phi(res))
			thS.Append(nu, res.Theta[1]) // netflix
		}
		phiTbl.Add(phiS)
		thetaTbl.Add(thS)
	}
	return []*sweep.Table{phiTbl, thetaTbl}
}

func runAblationTCP(cfg Config, _ *obs.Counters) []*sweep.Table {
	counts := []int{2, 5, 10, 20, 40}
	if cfg.Fast {
		counts = []int{2, 5, 10}
	}
	fairTbl := &sweep.Table{
		Title:  "AIMD vs analytic max-min: fairness across flow counts (capacity 100, equal RTT)",
		XLabel: "flows", YLabel: "metric",
	}
	jain := sweep.Series{Name: "jain"}
	maxErr := sweep.Series{Name: "max-rel-err"}
	util := sweep.Series{Name: "utilization"}
	for _, n := range counts {
		flows := make([]netsim.Flow, n)
		for i := range flows {
			flows[i] = netsim.Flow{Name: fmt.Sprintf("f%d", i), RTT: 0.05}
		}
		simCfg := netsim.Config{Capacity: 100}
		if cfg.Fast {
			simCfg.Warmup, simCfg.Measure = 3, 6
		}
		res, err := netsim.Run(simCfg, flows)
		if err != nil {
			panic(err)
		}
		rep := netsim.CompareMaxMin(res, flows, 100)
		jain.Append(float64(n), res.Jain)
		maxErr.Append(float64(n), rep.MaxRelErr)
		util.Append(float64(n), res.Utilization)
	}
	fairTbl.Add(jain)
	fairTbl.Add(maxErr)
	fairTbl.Add(util)

	// Closed demand loop vs Theorem 1 on the archetype population.
	loopTbl := &sweep.Table{
		Title:  "Demand/TCP closed loop vs analytic rate equilibrium (archetypes, ν=2000)",
		XLabel: "cp-index", YLabel: "theta",
	}
	dcfg := netsim.DemandConfig{
		Pop:      traffic.Archetypes(),
		M:        40,
		Capacity: 2000 * 40,
		Rounds:   10,
		Sim:      netsim.Config{Warmup: 5, Measure: 10},
	}
	if cfg.Fast {
		dcfg.Rounds = 5
		dcfg.Sim.Warmup, dcfg.Sim.Measure = 2, 4
	}
	res, err := netsim.SolveDemandEquilibrium(dcfg)
	if err != nil {
		panic(err)
	}
	analytic := sweep.Series{Name: "analytic"}
	simulated := sweep.Series{Name: "tcp-loop"}
	for i := range res.Theta {
		if !res.Compared[i] {
			continue
		}
		analytic.Append(float64(i), res.Analytic[i])
		simulated.Append(float64(i), res.Theta[i])
	}
	loopTbl.Add(analytic)
	loopTbl.Add(simulated)
	return []*sweep.Table{fairTbl, loopTbl}
}

func runAblationMM1(cfg Config, stats *obs.Counters) []*sweep.Table {
	pop := materialize(cfg.population(""))
	sat := pop.TotalUnconstrainedPerCapita()
	nus := cfg.grid(0.02*sat, 1.2*sat, 40, 15)
	utilTbl := &sweep.Table{
		Title:  "Utilization vs ν: work-conserving max-min vs M/M/1 headroom",
		XLabel: "nu", YLabel: "utilization",
	}
	mm := sweep.Series{Name: "mm1"}
	tcp := sweep.Series{Name: "maxmin"}
	for _, nu := range nus {
		eq := mm1.Solve(nu, pop)
		mm.Append(nu, eq.TotalLoad()/nu)
		res := alloc.Solve(alloc.MaxMin{}, nu, pop)
		tcp.Append(nu, res.Utilization())
	}
	utilTbl.Add(tcp)
	utilTbl.Add(mm)

	nu := 0.2 * sat
	revTbl := &sweep.Table{
		Title:  fmt.Sprintf("Monopoly revenue curve Ψ(c) at ν=%.3g under both abstractions (κ=1)", nu),
		XLabel: "c", YLabel: "psi",
	}
	prices := cfg.grid(0, 1, 41, 11)
	mono := core.NewMonopoly(nil)
	psi, _ := mono.RevenueCurve(1, prices, nu, pop)
	stats.Add(mono.Solver.Stats())
	s := sweep.Series{Name: "maxmin"}
	for i := range prices {
		s.Append(prices[i], psi[i])
	}
	revTbl.Add(s)
	sM := sweep.Series{Name: "mm1"}
	for _, c := range prices {
		out := mm1.SolveClasses(1, c, nu, pop, 0)
		sM.Append(c, out.Psi())
	}
	revTbl.Add(sM)
	return []*sweep.Table{utilTbl, revTbl}
}

func runAblationNash(cfg Config, stats *obs.Counters) []*sweep.Table {
	pop := materialize(scenario.PopulationSpec{Kind: "ensemble", N: 12, Seed: cfg.Seed})
	sat := pop.TotalUnconstrainedPerCapita()
	nu := 0.35 * sat
	prices := cfg.grid(0, 1, 21, 11)
	solver := core.NewSolver(nil)
	countTbl := &sweep.Table{
		Title:  "Premium membership count: Nash (Def. 2) vs competitive (Def. 3), N=12, κ=0.6",
		XLabel: "c", YLabel: "count",
	}
	phiTbl := &sweep.Table{
		Title:  "Consumer surplus Φ: Nash vs competitive, N=12, κ=0.6",
		XLabel: "c", YLabel: "phi",
	}
	nashCount := sweep.Series{Name: "nash"}
	compCount := sweep.Series{Name: "competitive"}
	nashPhi := sweep.Series{Name: "nash"}
	compPhi := sweep.Series{Name: "competitive"}
	for _, c := range prices {
		strat := core.Strategy{Kappa: 0.6, C: c}
		nash := solver.Nash(strat, nu, pop, 0)
		comp := solver.Competitive(strat, nu, pop)
		nashCount.Append(c, float64(nash.PremiumCount()))
		compCount.Append(c, float64(comp.PremiumCount()))
		nashPhi.Append(c, nash.Phi())
		compPhi.Append(c, comp.Phi())
	}
	stats.Add(solver.Stats())
	countTbl.Add(nashCount)
	countTbl.Add(compCount)
	phiTbl.Add(nashPhi)
	phiTbl.Add(compPhi)
	return []*sweep.Table{countTbl, phiTbl}
}

// runAblationPubOptCapacity sweeps the Public Option's capacity share γ at
// ν = 0.7 of saturation — where the monopoly misalignment bites (cf. the
// regimes experiment): abundant enough that an unregulated incumbent would
// under-utilize capacity — with the incumbent best-responding for market
// share. The reference line is the revenue-optimal monopoly's Φ on the
// full capacity (no Public Option).
func runAblationPubOptCapacity(cfg Config, stats *obs.Counters) []*sweep.Table {
	gammas := []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5}
	if cfg.Fast {
		gammas = []float64{0.1, 0.3, 0.5}
	}
	sc := &scenario.Scenario{
		Name: "ablation-pubopt-capacity", Title: "ablation-pubopt-capacity",
		Population: cfg.population(""),
		Providers: []scenario.ProviderSpec{
			{Name: "incumbent", Gamma: 0.5, Kappa: 1, C: 0.5, BestResponse: true},
			{Name: "po", Gamma: 0.5, PublicOption: true},
		},
		Sweep: scenario.SweepSpec{
			Axis: scenario.AxisPOShare, Values: gammas, Nu: 0.7, OfSaturation: true,
			Metrics: []string{scenario.MetricPhi, scenario.MetricShare},
		},
	}
	tables, err := sc.Run(scenario.RunOptions{Workers: cfg.Workers, Stats: stats})
	if err != nil {
		panic("experiment: " + err.Error())
	}
	phiS, shareS := tables[0].Series[0], tables[1].Series[1]
	phiS.Name, shareS.Name = "phi-with-po", "po-share"

	pop := materialize(sc.Population)
	mono := core.NewMonopoly(nil)
	_, eqMono := mono.OptimalStrategy(1, 0.7*pop.TotalUnconstrainedPerCapita(), pop, 4, 10)
	stats.Add(mono.Solver.Stats())
	phiMono := sweep.Series{Name: "phi-monopoly-optimal"}
	for _, g := range gammas {
		phiMono.Append(g, eqMono.Phi())
	}
	tbl := &sweep.Table{
		Title:  "Public Option capacity sweep: incumbent best-responds for market share",
		XLabel: "gamma-po", YLabel: "value",
	}
	tbl.Add(phiS)
	tbl.Add(phiMono)
	tbl.Add(shareS)
	return []*sweep.Table{tbl}
}

// materialize builds a declared population; the declarations here are
// fixed and valid, so failure is a programming error.
func materialize(spec scenario.PopulationSpec) traffic.Population {
	pop, err := spec.Materialize()
	if err != nil {
		panic("experiment: " + err.Error())
	}
	return pop
}
