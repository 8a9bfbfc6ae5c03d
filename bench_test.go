// Benchmark harness: one benchmark per figure of the paper's evaluation
// (Figures 2–5 and 7–12), the headline regime comparison, the ablation
// studies (see the figure → code map in README.md), and micro-benchmarks
// of the core solvers.
//
// The figure benchmarks regenerate the full published configuration
// (1000-CP ensemble, full grids) per iteration; they are experiment
// harnesses first and timing probes second. Run them once each:
//
//	go test -bench=. -benchmem -benchtime=1x
//
// Each figure benchmark reports a headline scalar from the regenerated
// data (peak revenue, surplus level, crossover price …) via ReportMetric so
// regressions in the *economics*, not just the runtime, are visible in
// benchmark diffs. Each experiment's Expect field records the shape the
// paper reports, for the paper-vs-measured comparison.
package publicoption_test

import (
	"testing"

	publicoption "github.com/netecon-sim/publicoption"
)

// runFigure executes a registered experiment once per iteration and returns
// the last run's tables for metric extraction.
func runFigure(b *testing.B, id string) []*publicoption.ResultTable {
	b.Helper()
	cfg := publicoption.ExperimentConfig{}
	var tables []*publicoption.ResultTable
	for i := 0; i < b.N; i++ {
		tables = publicoption.RunExperiment(id, cfg)
	}
	return tables
}

// seriesByName finds a series in a table (fatal if missing).
func seriesByName(b *testing.B, tbl *publicoption.ResultTable, name string) publicoption.ResultSeries {
	b.Helper()
	for _, s := range tbl.Series {
		if s.Name == name {
			return s
		}
	}
	b.Fatalf("table %q missing series %q", tbl.Title, name)
	return publicoption.ResultSeries{}
}

func argmax(ys []float64) int {
	best := 0
	for i, y := range ys {
		if y > ys[best] {
			best = i
		}
	}
	return best
}

func BenchmarkFig2DemandFamily(b *testing.B) {
	tables := runFigure(b, "fig2")
	s := seriesByName(b, tables[0], "beta=5")
	// Paper: β=5 roughly halves demand at a 10% throughput drop.
	for i := range s.X {
		if s.X[i] >= 0.9 {
			b.ReportMetric(s.Y[i], "demand@ω=0.9")
			break
		}
	}
}

func BenchmarkFig3RateEquilibrium(b *testing.B) {
	tables := runFigure(b, "fig3")
	demand := tables[1]
	// Capacity at which Skype-type demand saturates (paper: between Google
	// and Netflix).
	s := seriesByName(b, demand, "skype")
	for i := range s.X {
		if s.Y[i] >= 0.95 {
			b.ReportMetric(s.X[i], "skype-satur-ν")
			break
		}
	}
}

func BenchmarkFig4MonopolyPriceSweep(b *testing.B) {
	tables := runFigure(b, "fig4")
	psi := seriesByName(b, tables[0], "nu=200")
	peak := argmax(psi.Y)
	b.ReportMetric(psi.X[peak], "c*@ν=200")    // paper: ≈ 0.45
	b.ReportMetric(psi.Y[peak], "Ψpeak@ν=200") // revenue at the optimum
}

func BenchmarkFig5MonopolyStrategyGrid(b *testing.B) {
	tables := runFigure(b, "fig5")
	psi := seriesByName(b, tables[0], "k=0.9,c=0.5")
	phi := seriesByName(b, tables[1], "k=0.9,c=0.5")
	b.ReportMetric(psi.Y[argmax(psi.Y)], "Ψpeak@κ=0.9")
	b.ReportMetric(phi.Y[len(phi.Y)-1], "Φfinal@κ=0.9")
}

func BenchmarkFig7DuopolyPriceSweep(b *testing.B) {
	tables := runFigure(b, "fig7")
	share := seriesByName(b, tables[0], "nu=150")
	psi150 := seriesByName(b, tables[1], "nu=150")
	psi200 := seriesByName(b, tables[1], "nu=200")
	b.ReportMetric(share.Y[argmax(share.Y)], "m_I-max@ν=150") // paper: slightly > 0.5
	// Paper: peak Ψ_I at ν=200 is LOWER than at ν=150 under κ=1.
	b.ReportMetric(psi150.Y[argmax(psi150.Y)], "Ψpeak@ν=150")
	b.ReportMetric(psi200.Y[argmax(psi200.Y)], "Ψpeak@ν=200")
}

func BenchmarkFig8DuopolyStrategyGrid(b *testing.B) {
	tables := runFigure(b, "fig8")
	share := seriesByName(b, tables[2], "k=0.5,c=0.2")
	phi := seriesByName(b, tables[1], "k=0.5,c=0.2")
	b.ReportMetric(share.Y[len(share.Y)-1], "m_I@abundant") // paper: ≤ 0.5
	b.ReportMetric(phi.Y[len(phi.Y)-1], "Φ@abundant")
}

func BenchmarkFig9MonopolyPriceSweepB(b *testing.B) {
	tables := runFigure(b, "fig9")
	phi := seriesByName(b, tables[1], "nu=200")
	b.ReportMetric(phi.Y[0], "Φ@c=0,ν=200")
}

func BenchmarkFig10MonopolyStrategyGridB(b *testing.B) {
	tables := runFigure(b, "fig10")
	phi := seriesByName(b, tables[1], "k=0.5,c=0.5")
	b.ReportMetric(phi.Y[len(phi.Y)-1], "Φfinal")
}

func BenchmarkFig11DuopolyPriceSweepB(b *testing.B) {
	tables := runFigure(b, "fig11")
	share := seriesByName(b, tables[0], "nu=150")
	b.ReportMetric(share.Y[argmax(share.Y)], "m_I-max@ν=150")
}

func BenchmarkFig12DuopolyStrategyGridB(b *testing.B) {
	tables := runFigure(b, "fig12")
	phi := seriesByName(b, tables[1], "k=0.5,c=0.2")
	b.ReportMetric(phi.Y[len(phi.Y)-1], "Φ@abundant")
}

func BenchmarkRegimesComparison(b *testing.B) {
	tables := runFigure(b, "regimes")
	phi := tables[0]
	po := seriesByName(b, phi, "public-option")
	ne := seriesByName(b, phi, "neutral")
	un := seriesByName(b, phi, "unregulated")
	last := len(po.Y) - 1
	// The paper's headline ordering at abundant capacity.
	b.ReportMetric(po.Y[last], "Φ-public-option")
	b.ReportMetric(ne.Y[last], "Φ-neutral")
	b.ReportMetric(un.Y[last], "Φ-unregulated")
}

func BenchmarkAblationAlphaFair(b *testing.B) {
	tables := runFigure(b, "ablation-alphafair")
	phi := seriesByName(b, tables[0], "maxmin")
	b.ReportMetric(phi.Y[len(phi.Y)-1], "Φfinal-maxmin")
}

func BenchmarkAblationTCPvsMaxMin(b *testing.B) {
	tables := runFigure(b, "ablation-tcp")
	jain := seriesByName(b, tables[0], "jain")
	maxErr := seriesByName(b, tables[0], "max-rel-err")
	b.ReportMetric(jain.Y[len(jain.Y)-1], "jain@40flows")
	b.ReportMetric(maxErr.Y[len(maxErr.Y)-1], "relerr@40flows")
}

func BenchmarkAblationMM1Baseline(b *testing.B) {
	tables := runFigure(b, "ablation-mm1")
	mm := seriesByName(b, tables[0], "mm1")
	b.ReportMetric(mm.Y[len(mm.Y)-1], "mm1-utilization")
}

func BenchmarkAblationNashVsCompetitive(b *testing.B) {
	tables := runFigure(b, "ablation-nash")
	nash := seriesByName(b, tables[1], "nash")
	comp := seriesByName(b, tables[1], "competitive")
	var worst float64
	for i := range nash.Y {
		d := nash.Y[i] - comp.Y[i]
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	b.ReportMetric(worst, "maxΦgap")
}

func BenchmarkAblationPublicOptionCapacity(b *testing.B) {
	tables := runFigure(b, "ablation-pubopt-capacity")
	phi := seriesByName(b, tables[0], "phi-with-po")
	b.ReportMetric(phi.Y[0], "Φ@γ=0.05")
	b.ReportMetric(phi.Y[len(phi.Y)-1], "Φ@γ=0.5")
}

// --- Micro-benchmarks of the core solvers (true performance probes). ---

func BenchmarkSolverRateEquilibrium1000(b *testing.B) {
	pop := publicoption.PaperPopulation(publicoption.PhiCorrelated)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		publicoption.RateEquilibrium(100, pop)
	}
}

func BenchmarkSolverClassGame1000(b *testing.B) {
	pop := publicoption.PaperPopulation(publicoption.PhiCorrelated)
	s := publicoption.NewSolver(nil)
	strat := publicoption.Strategy{Kappa: 0.5, C: 0.4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Competitive(strat, 100, pop)
	}
}

func BenchmarkSolverDuopoly1000(b *testing.B) {
	pop := publicoption.PaperPopulation(publicoption.PhiCorrelated)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		publicoption.DuopolyWithPublicOption(
			publicoption.Strategy{Kappa: 1, C: 0.3}, 0.5, 100, pop)
	}
}

func BenchmarkTCPSim20Flows(b *testing.B) {
	flows := make([]publicoption.TCPFlow, 20)
	for i := range flows {
		flows[i] = publicoption.TCPFlow{Name: "f", RTT: 0.05}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := publicoption.SimulateTCP(publicoption.TCPConfig{Capacity: 100}, flows); err != nil {
			b.Fatal(err)
		}
	}
}
