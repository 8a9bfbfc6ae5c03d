package core_test

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/netecon-sim/publicoption/internal/core"
	"github.com/netecon-sim/publicoption/internal/scenario"
	"github.com/netecon-sim/publicoption/internal/sweep"
)

// repinnedCells are the fast-mode Figure 8 and 12 golden cells
// (internal/experiment/testdata) whose market share moved when the
// migration search changed from a cold bisection to the bracketed search
// from γ. Each is ISP I at (κ, c) against an equal-capacity Public Option
// at absolute ν; old and new are ISP I's share before and after.
var repinnedCells = []struct {
	fig, phi      string
	kappa, c, nu  float64
	oldShare, new float64
}{
	{"fig8", "", 0.2, 0.2, 4.0891639008834568, 0.50283876060871791, 0.50668916104886219},
	{"fig8", "", 0.2, 0.2, 34.711774767649786, 0.44619873176844538, 0.45234689126008593},
	{"fig8", "", 0.5, 0.2, 38.539601125995581, 0.36064294008469866, 0.35398778348561272},
	{"fig8", "", 0.9, 0.2, 38.539601125995581, 0.25854495216023249, 0.25865110803236518},
	{"fig8", "", 0.9, 0.2, 46.195253842687166, 0.15556755730850902, 0.15725937554243008},
	{"fig8", "", 0.9, 0.2, 50.023080201032961, 0.12563034966956144, 0.12808850481982703},
	{"fig8", "", 0.9, 0.2, 53.850906559378743, 0.10134211262325876, 0.098753006068683563},
	{"fig8", "", 0.9, 0.5, 34.711774767649786, 0.12353745178174894, 0.12657901719390924},
	{"fig8", "", 0.9, 0.5, 42.367427484341377, 0.10176757057681463, 0.099304110613174623},
	{"fig12", "independent", 0.2, 0.2, 34.711774767649786, 0.45336654791621922, 0.44745090614338251},
	{"fig12", "independent", 0.9, 0.2, 42.367427484341377, 0.20849254785665078, 0.20972457586169407},
	{"fig12", "independent", 0.9, 0.2, 53.850906559378743, 0.10307458122483534, 0.10448357541986283},
	{"fig12", "independent", 0.5, 0.5, 27.056122050958201, 0.41559442894650583, 0.4177226723885995},
	{"fig12", "independent", 0.9, 0.5, 27.056122050958201, 0.20709642826486901, 0.20407727419909949},
	{"fig12", "independent", 0.9, 0.5, 30.883948409304001, 0.17545083230078601, 0.17960986559096037},
	{"fig12", "independent", 0.9, 0.5, 34.711774767649786, 0.15138408611402565, 0.15576013991539317},
	{"fig12", "independent", 0.9, 0.5, 46.195253842687166, 0.10987606722655219, 0.098173887341204108},
	{"fig12", "independent", 0.2, 0.8, 19.400469334266624, 0.46814891702346467, 0.48005154732879163},
}

// TestRepinnedGoldenCellsHaveSeveralCrossings is the witness behind every
// re-pinned golden cell: the share gap Φ_I(m) − Φ_PO(1−m) has more than one
// downward crossing there, so the old and the new share are both consumer
// migration equilibria and the search merely selects a different one. Each
// gap value comes from a fresh Market, i.e. cold class games, so no warm
// start can manufacture a crossing.
//
// For most cells both shares are crossings at the figures' migration
// tolerance: gap > 0 at share − tol/2 and gap <= 0 at share + tol/2. In
// the others the class game's warm starts select a partition the cold game
// does not reach, so neither the old nor the new share is a cold crossing;
// there the cold gap must cross downward at least twice within 2e-3 of
// them.
func TestRepinnedGoldenCellsHaveSeveralCrossings(t *testing.T) {
	const tol = 1e-7 // the scenario engine's MigrationTol
	pops := map[string]*scenario.PopulationSpec{}
	for _, cell := range repinnedCells {
		ps := pops[cell.phi]
		if ps == nil {
			// The figures' fast-mode population (experiment.Config.population).
			ps = &scenario.PopulationSpec{Kind: "paper", Phi: cell.phi}
			if err := ps.ApplyEnsembleOverrides(0, 120); err != nil {
				t.Fatal(err)
			}
			pops[cell.phi] = ps
		}
		pop, err := ps.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		a := core.ISP{Name: "I", Gamma: 0.5, Strategy: core.Strategy{Kappa: cell.kappa, C: cell.c}}
		b := core.ISP{Name: "PO", Gamma: 0.5, Strategy: core.PublicOption}
		if got := goldenShare(t, cell.fig, cell.kappa, cell.c, cell.nu); math.Float64bits(got) != math.Float64bits(cell.new) {
			t.Errorf("%s κ=%g c=%g ν=%g: golden share is %.17g, listed as re-pinned to %.17g", cell.fig, cell.kappa, cell.c, cell.nu, got, cell.new)
		}
		gap := func(m float64) float64 { return core.NewMarket(nil, pop, cell.nu).GapAt(a, b, m) }
		crossing := func(m float64) bool { return gap(m-tol/2) > 0 && gap(m+tol/2) <= 0 }
		if math.Abs(cell.oldShare-cell.new) <= tol {
			t.Errorf("%s κ=%g c=%g ν=%g: shares %.10g and %.10g are one crossing", cell.fig, cell.kappa, cell.c, cell.nu, cell.oldShare, cell.new)
			continue
		}
		if crossing(cell.oldShare) && crossing(cell.new) {
			continue
		}
		lo := math.Min(cell.oldShare, cell.new) - 2e-3
		hi := math.Max(cell.oldShare, cell.new) + 2e-3
		down := 0
		prev := gap(lo)
		for m := lo + 1e-5; m <= hi; m += 1e-5 {
			g := gap(m)
			if prev > 0 && g <= 0 {
				down++
			}
			prev = g
		}
		t.Logf("%s κ=%g c=%g ν=%g: the cold gap crosses down %d times within 2e-3 of the shares", cell.fig, cell.kappa, cell.c, cell.nu, down)
		if down < 2 {
			t.Errorf("%s κ=%g c=%g ν=%g: shares %.10g → %.10g are not both cold crossings, and the cold gap crosses down %d time(s) within 2e-3",
				cell.fig, cell.kappa, cell.c, cell.nu, cell.oldShare, cell.new, down)
		}
	}
}

// goldenShare reads ISP I's share at (κ, c, ν) from the figure's pinned
// fast-mode tables, the last of which is the share panel.
func goldenShare(t *testing.T, fig string, kappa, c, nu float64) float64 {
	t.Helper()
	js, err := os.ReadFile(filepath.Join("..", "experiment", "testdata", fig+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var tables []*sweep.Table
	if err := json.Unmarshal(js, &tables); err != nil {
		t.Fatal(err)
	}
	name := fmt.Sprintf("k=%g,c=%g", kappa, c)
	for _, s := range tables[len(tables)-1].Series {
		for i, x := range s.X {
			if s.Name == name && math.Float64bits(x) == math.Float64bits(nu) {
				return s.Y[i]
			}
		}
	}
	t.Fatalf("%s: no share point %s at ν=%g", fig, name, nu)
	return 0
}
