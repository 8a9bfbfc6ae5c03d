package scenario

import (
	"math"
	"testing"
)

// figure8Grid is Figure 8's fast-mode grid at strategy price c (Figure 12's
// under phi "independent"): ISP I's κ rows against an equal-capacity Public
// Option over 18 capacities, on the 120-CP paper ensemble. Several of its
// cells have more than one migration crossing.
func figure8Grid(phi string, c float64) *Scenario {
	pop := PopulationSpec{Kind: "paper", Phi: phi}
	if err := pop.ApplyEnsembleOverrides(0, 120); err != nil {
		panic(err)
	}
	return &Scenario{
		Name: "fig8-order", Title: "fig8-order", Population: pop,
		Providers: []ProviderSpec{
			{Name: "I", Gamma: 0.5, Kappa: 1, C: c},
			{Name: "PO", Gamma: 0.5, PublicOption: true},
		},
		Sweep: SweepSpec{
			Axis: AxisNu, Lo: 2.0 / 250, Hi: 500.0 / 250, Points: 18, OfSaturation: true,
			Metrics: []string{MetricPhi, MetricPsi, MetricShare},
			Grid:    &GridSpec{Axis: AxisKappa, Values: []float64{0.2, 0.5, 0.9}},
		},
	}
}

// TestGridCellsIndependentOfColumnOrder solves every row of the built-in
// duopoly grids, and of the Figure 8/12 grids, twice: once in column order
// and once in reverse, each with a fresh worker, so every cell's warm
// starts come from a different neighbour. The migration search starts from
// the capacity-proportional split, never from a previous cell's share, so
// the two passes may differ only by what the class game's warm starts
// leave in the last digits: 1e-6·(1+|v|), against a worst case of 1.6e-5
// absolute (Φ of the c×κ map). Seeding the search with the previous cell's
// share instead makes 17 Figure 8/12 cells depend on the solve order, and
// the content-addressed cell cache would then hand out values that depend
// on which request solved a cell first.
func TestGridCellsIndependentOfColumnOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("solves three full-population grids twice")
	}
	var grids []*Scenario
	for _, name := range []string{"po-sizing-gamma-nu", "duopoly-price-kappa", "po-rebate-sigma-nu"} {
		s, ok := Get(name)
		if !ok {
			t.Fatalf("missing built-in %s", name)
		}
		grids = append(grids, s)
	}
	for _, phi := range []string{"", "independent"} {
		for _, c := range []float64{0.2, 0.5, 0.8} {
			grids = append(grids, figure8Grid(phi, c))
		}
	}
	for gi, s := range grids {
		job, err := s.CompileGrid()
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for row := range job.Ys {
			fwd, rev := job.NewWorker(), job.NewWorker()
			forward := make([]Cell, len(job.Xs))
			for col := range job.Xs {
				forward[col] = fwd.SolveCell(row, col)
			}
			for col := len(job.Xs) - 1; col >= 0; col-- {
				back := rev.SolveCell(row, col)
				for _, layer := range job.Layers {
					v, w := forward[col].Values[layer], back.Values[layer]
					worst = math.Max(worst, math.Abs(v-w))
					if math.Abs(v-w) > 1e-6*(1+math.Abs(v)) {
						t.Errorf("grid %d (%s) row %d col %d %s: forward %.10g, reverse %.10g", gi, s.Name, row, col, layer, v, w)
					}
				}
			}
		}
		t.Logf("grid %d (%s): worst forward/reverse difference %.3g", gi, s.Name, worst)
	}
}
