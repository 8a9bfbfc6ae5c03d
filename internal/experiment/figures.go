package experiment

import (
	"fmt"

	"github.com/netecon-sim/publicoption/internal/alloc"
	"github.com/netecon-sim/publicoption/internal/demand"
	"github.com/netecon-sim/publicoption/internal/obs"
	"github.com/netecon-sim/publicoption/internal/sweep"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

// Figures 2 and 3 stay code: they plot the demand model and one max-min
// rate allocation, not a market equilibrium, so there is nothing for the
// scenario engine to solve.

func init() {
	register(&Experiment{
		ID:    "fig2",
		Title: "Demand function d_i(ω_i) for throughput sensitivities β",
		Expect: "Exponential decay in congestion: at β=5 a 10% throughput " +
			"drop roughly halves demand; β=0.1 is nearly insensitive.",
		Run: runFig2,
	})
	register(&Experiment{
		ID:    "fig3",
		Title: "Throughput and demand under max-min fairness (3 archetype CPs) vs per-capita capacity ν",
		Expect: "As ν grows, Google-type demand saturates first, then " +
			"Skype-type, Netflix-type last; throughputs are monotone in ν.",
		Run: runFig3,
	})
}

func runFig2(cfg Config, _ *obs.Counters) []*sweep.Table {
	betas := []float64{0.1, 0.5, 1, 2, 5, 10}
	omegas := cfg.grid(0.01, 1, 200, 50)
	tbl := &sweep.Table{
		Title:  "Fig 2: demand d(ω) = exp(-β(1/ω - 1))",
		XLabel: "omega",
		YLabel: "demand",
	}
	for _, beta := range betas {
		curve := demand.Exponential{Beta: beta}
		tbl.Add(sweep.Map(fmt.Sprintf("beta=%g", beta), omegas, curve.At))
	}
	return []*sweep.Table{tbl}
}

func runFig3(cfg Config, _ *obs.Counters) []*sweep.Table {
	pop := traffic.Archetypes()
	nus := cfg.grid(0, 6000, 241, 61)
	thetaTbl := &sweep.Table{
		Title:  "Fig 3 (top): achievable throughput θ_i under max-min vs ν (Kbps)",
		XLabel: "nu",
		YLabel: "theta",
	}
	demandTbl := &sweep.Table{
		Title:  "Fig 3 (bottom): demand d_i(θ_i) vs ν (Kbps)",
		XLabel: "nu",
		YLabel: "demand",
	}
	series := make([]sweep.Series, len(pop))
	dSeries := make([]sweep.Series, len(pop))
	for i := range pop {
		series[i] = sweep.Series{Name: pop[i].Name}
		dSeries[i] = sweep.Series{Name: pop[i].Name}
	}
	for _, nu := range nus {
		res := alloc.Solve(alloc.MaxMin{}, nu, pop)
		for i := range pop {
			series[i].Append(nu, res.Theta[i])
			dSeries[i].Append(nu, res.Demand(i))
		}
	}
	for i := range pop {
		thetaTbl.Add(series[i])
		demandTbl.Add(dSeries[i])
	}
	return []*sweep.Table{thetaTbl, demandTbl}
}
