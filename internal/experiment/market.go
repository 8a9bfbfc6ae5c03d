package experiment

import (
	"fmt"
	"strings"

	"github.com/netecon-sim/publicoption/internal/obs"
	"github.com/netecon-sim/publicoption/internal/scenario"
	"github.com/netecon-sim/publicoption/internal/sweep"
)

// The paper's market figures (4, 5, 7–12) are scenario specs: each run
// declares a grid scenario over the configured population, solves it with
// Scenario.RunGrid — the validated, metered path the service serves — and
// renames the grid rows into the figure's series. Registration builds
// nothing; the population materializes when the scenario runs.

// The five capacities of Figures 4 and 7, declared as fractions of the
// population's saturation point (the paper's ν values against its
// ensemble's saturation of ≈250, §III-E), so every pricing regime still
// appears for a re-sized or re-seeded ensemble.
var (
	capacityLabels = []string{"nu=20", "nu=50", "nu=100", "nu=150", "nu=200"}
	capacityRows   = []float64{20.0 / 250, 50.0 / 250, 100.0 / 250, 150.0 / 250, 200.0 / 250}
)

// Figures 5 and 8 sweep capacity from ν=2 to ν=500 (same units) under the
// 3×3 strategy grid "s_I = (κ, c)": one scenario grid per price, one row
// per κ.
var (
	strategyPrices = []float64{0.2, 0.5, 0.8}
	strategyKappas = []float64{0.2, 0.5, 0.9}
)

func init() {
	register(&Experiment{
		ID:    "fig4",
		Title: "Monopoly, κ=1: per-capita surplus Ψ and Φ vs premium price c",
		Expect: "Three regimes: Ψ = c·ν while the class is congested; a " +
			"revenue peak; then collapse as CPs become priced out. At " +
			"abundant ν the revenue-optimal price under-utilizes capacity " +
			"and hurts Φ.",
		Run: fig4.run("", "fig4"),
	})
	register(&Experiment{
		ID:    "fig5",
		Title: "Monopoly: Ψ and Φ under strategies (κ,c) vs per-capita capacity ν",
		Expect: "Ψ rises while the premium class is congested, then decays " +
			"to zero as capacity becomes abundant (for small κ); higher κ " +
			"holds more revenue at the cost of Φ; Φ grows with ν with only " +
			"small downward glitches (ε_s).",
		Run: fig5.run("", "fig5"),
	})
	register(&Experiment{
		ID:    "fig7",
		Title: "Duopoly vs Public Option, κ_I=1: market share m_I, surplus Ψ_I, and Φ vs price c_I",
		Expect: "m_I rises slightly above 1/2 while the premium class stays " +
			"congested, then collapses; Ψ_I rises linearly then drops to " +
			"zero much more steeply than the monopoly's; Φ never falls to " +
			"zero (the Public Option backstop); peak Ψ_I can be lower at " +
			"ν=200 than at ν=150.",
		Run: fig7.run("", "fig7"),
	})
	register(&Experiment{
		ID:    "fig8",
		Title: "Duopoly vs Public Option: Ψ_I, Φ and m_I under strategies (κ,c) vs ν",
		Expect: "Ψ_I collapses sharply past its peak (unlike the monopoly's " +
			"gradual decay); Φ is barely affected by ISP I's strategy; m_I " +
			"slightly exceeds 1/2 under scarcity and stays at or below 1/2 " +
			"when capacity is abundant.",
		Run: fig8.run("", "fig8"),
	})
	register(&Experiment{
		ID:    "fig9",
		Title: "Appendix: Figure 4's Φ under φ ~ U[0,U[0,10]] (independent of β)",
		Expect: "Same qualitative regimes as Figure 4; CP decisions and Ψ " +
			"are unchanged because φ only weighs the surplus.",
		Run: fig4.run("independent", "fig9"),
	})
	register(&Experiment{
		ID:     "fig10",
		Title:  "Appendix: Figure 5's Φ under φ ~ U[0,U[0,10]]",
		Expect: "Same qualitative shapes as Figure 5.",
		Run:    fig5.run("independent", "fig10"),
	})
	register(&Experiment{
		ID:     "fig11",
		Title:  "Appendix: Figure 7 under φ ~ U[0,U[0,10]]",
		Expect: "Same qualitative behaviour as Figure 7.",
		Run:    fig7.run("independent", "fig11"),
	})
	register(&Experiment{
		ID:     "fig12",
		Title:  "Appendix: Figure 8 under φ ~ U[0,U[0,10]]",
		Expect: "Same qualitative behaviour as Figure 8.",
		Run:    fig8.run("independent", "fig12"),
	})
	register(&Experiment{
		ID: "regimes",
		Title: "Headline comparison: consumer surplus under unregulated monopoly, " +
			"partial caps, network neutrality, and the Public Option",
		Expect: "The paper's central claim for monopolistic markets: " +
			"introducing a Public Option yields the highest consumer " +
			"surplus, network-neutral regulation comes second, and the " +
			"unregulated monopoly is worst; κ- and price-caps land in " +
			"between depending on tightness (§III/§IV-A/§VI, Theorem 5).",
		Run: runRegimes,
	})
}

// marketFigure is one market figure as a scenario spec: ISP I alone
// (monopoly) or against a Public Option of equal capacity (duopoly,
// §IV-A), solved either as one price × capacity grid — ISP I's price on
// the columns, the five paper capacities on the rows (Figures 4/7) — or as
// one capacity × κ grid per strategy price (Figures 5/8).
type marketFigure struct {
	duopoly, byStrategy bool
	points, fastPoints  int
	panels              []panel
}

// panel is one table of a figure: the grid layer it plots and its title
// (a format over the figure ID).
type panel struct{ layer, title string }

var (
	fig4 = marketFigure{points: 101, fastPoints: 21, panels: []panel{
		{"psi/I", "%s (left): per-capita ISP surplus Ψ vs price c (κ=1)"},
		{"phi", "%s (right): per-capita consumer surplus Φ vs price c (κ=1)"}}}
	fig5 = marketFigure{byStrategy: true, points: 101, fastPoints: 26, panels: []panel{
		{"psi/I", "%s: per-capita ISP surplus Ψ vs ν under strategies (κ,c)"},
		{"phi", "%s: per-capita consumer surplus Φ vs ν under strategies (κ,c)"}}}
	// Ψ_I is market-wide revenue per capita: the premium class serves ISP
	// I's consumers only, so the engine scales its surplus by the share.
	fig7 = marketFigure{duopoly: true, points: 51, fastPoints: 11, panels: []panel{
		{"share/I", "%s (left): ISP I market share m_I vs c_I (κ_I=1)"},
		{"psi/I", "%s (middle): ISP I per-capita surplus Ψ_I vs c_I (κ_I=1)"},
		{"phi", "%s (right): per-capita consumer surplus Φ vs c_I (κ_I=1)"}}}
	fig8 = marketFigure{duopoly: true, byStrategy: true, points: 51, fastPoints: 18, panels: []panel{
		{"psi/I", "%s: ISP I per-capita surplus Ψ_I vs ν under strategies (κ,c)"},
		{"phi", "%s: per-capita consumer surplus Φ vs ν under strategies (κ,c)"},
		{"share/I", "%s: ISP I market share m_I vs ν under strategies (κ,c)"}}}
)

// scenarios declares the figure's grids over the configured population
// under φ setting phi. ISP I plays (κ=1, c); the swept price or κ axis
// overrides its strategy cell by cell.
func (f marketFigure) scenarios(cfg Config, id, phi string) []*scenario.Scenario {
	var metrics []string
	for _, p := range f.panels {
		m, _, _ := strings.Cut(p.layer, "/")
		metrics = append(metrics, m)
	}
	sw := scenario.SweepSpec{
		Axis: scenario.AxisPrice, Hi: 1, Points: cfg.points(f.points, f.fastPoints),
		OfSaturation: true, Metrics: metrics,
		Grid: &scenario.GridSpec{Axis: scenario.AxisNu, Values: capacityRows},
	}
	prices := []float64{0}
	if f.byStrategy {
		sw.Axis, sw.Lo, sw.Hi = scenario.AxisNu, 2.0/250, 500.0/250
		sw.Grid = &scenario.GridSpec{Axis: scenario.AxisKappa, Values: strategyKappas}
		prices = strategyPrices
	}
	grids := make([]*scenario.Scenario, len(prices))
	for i, c := range prices {
		providers := []scenario.ProviderSpec{{Name: "I", Gamma: 1, Kappa: 1, C: c}}
		if f.duopoly {
			providers = []scenario.ProviderSpec{
				{Name: "I", Gamma: 0.5, Kappa: 1, C: c},
				{Name: "PO", Gamma: 0.5, PublicOption: true},
			}
		}
		grids[i] = &scenario.Scenario{Name: id, Title: id, Population: cfg.population(phi), Providers: providers, Sweep: sw}
	}
	return grids
}

// run solves the figure's grids with Scenario.RunGrid and renders one table
// per panel. A table collects its layer from every row of every grid, in
// grid then row order, naming each series after the row's paper capacity
// or strategy.
func (f marketFigure) run(phi, id string) func(Config, *obs.Counters) []*sweep.Table {
	return func(cfg Config, stats *obs.Counters) []*sweep.Table {
		var solved []*sweep.Grid
		for _, sc := range f.scenarios(cfg, id, phi) {
			g, err := sc.RunGrid(scenario.RunOptions{Workers: cfg.Workers, Stats: stats})
			if err != nil {
				panic("experiment: " + err.Error())
			}
			solved = append(solved, g)
		}
		xLabel := "c"
		if f.byStrategy {
			xLabel = "nu"
		}
		tables := make([]*sweep.Table, len(f.panels))
		for i, p := range f.panels {
			metric, _, _ := strings.Cut(p.layer, "/")
			t := &sweep.Table{Title: fmt.Sprintf(p.title, id), XLabel: xLabel, YLabel: metric}
			for gi, g := range solved {
				for row := range g.Ys {
					s, err := g.Row(p.layer, row)
					if err != nil {
						panic("experiment: " + err.Error())
					}
					s.Name = capacityLabels[row]
					if f.byStrategy {
						s.Name = fmt.Sprintf("k=%g,c=%g", strategyKappas[row], strategyPrices[gi])
					}
					t.Add(s)
				}
			}
			tables[i] = t
		}
		return tables
	}
}

// runRegimes is the registered regimes-comparison scenario over the
// configured population: Φ and Ψ of every regulatory regime at ν = 0.2,
// 0.4, 0.6 and 0.8 of saturation (two capacities and a coarser monopoly
// optimizer in fast mode).
func runRegimes(cfg Config, stats *obs.Counters) []*sweep.Table {
	sc, ok := scenario.Get("regimes-comparison")
	if !ok {
		panic("experiment: regimes-comparison scenario not registered")
	}
	sc.Population = cfg.population("")
	if cfg.Fast {
		sc.Sweep.Values = []float64{0.4, 0.8}
		sc.Regulation.GridN = 12
	}
	tables, err := sc.Run(scenario.RunOptions{Workers: cfg.Workers, Stats: stats})
	if err != nil {
		panic("experiment: " + err.Error())
	}
	tables[0].Title = "Per-capita consumer surplus Φ by regulatory regime vs ν"
	tables[1].Title = "Incumbent revenue Ψ by regulatory regime vs ν"
	return tables
}
