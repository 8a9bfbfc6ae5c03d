package experiment

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/netecon-sim/publicoption/internal/numeric"
	"github.com/netecon-sim/publicoption/internal/sweep"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

var fast = Config{Fast: true}

func findSeries(t *testing.T, tbl *sweep.Table, name string) sweep.Series {
	t.Helper()
	for _, s := range tbl.Series {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("table %q missing series %q", tbl.Title, name)
	return sweep.Series{}
}

func TestRegistryComplete(t *testing.T) {
	wantFigures := []string{"fig2", "fig3", "fig4", "fig5", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12"}
	for _, id := range wantFigures {
		if _, ok := Get(id); !ok {
			t.Errorf("missing figure experiment %s", id)
		}
	}
	wantOthers := []string{"regimes", "ablation-alphafair", "ablation-tcp", "ablation-mm1", "ablation-nash", "ablation-pubopt-capacity"}
	for _, id := range wantOthers {
		if _, ok := Get(id); !ok {
			t.Errorf("missing experiment %s", id)
		}
	}
	all := All()
	if len(all) != len(wantFigures)+len(wantOthers) {
		t.Errorf("registry has %d entries, want %d", len(all), len(wantFigures)+len(wantOthers))
	}
	// Sorted: figures in numeric order first.
	if all[0].ID != "fig2" || all[1].ID != "fig3" {
		t.Errorf("ordering broken: %s, %s", all[0].ID, all[1].ID)
	}
	for _, e := range all {
		if e.Title == "" || e.Expect == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, ok := Get("fig99"); ok {
		t.Fatal("unknown id found")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustRun should panic on unknown id")
		}
	}()
	MustRun("fig99", fast)
}

func TestFig2Shape(t *testing.T) {
	tables := MustRun("fig2", fast)
	if len(tables) != 1 {
		t.Fatalf("fig2 produced %d tables", len(tables))
	}
	tbl := tables[0]
	if len(tbl.Series) != 6 {
		t.Fatalf("fig2 has %d series, want 6 β values", len(tbl.Series))
	}
	// Paper observation: at ω=0.9, β=5 demand is roughly halved.
	s5 := findSeries(t, tbl, "beta=5")
	var at09 float64
	for i := range s5.X {
		if math.Abs(s5.X[i]-0.9) < 0.02 {
			at09 = s5.Y[i]
		}
	}
	if at09 < 0.4 || at09 > 0.65 {
		t.Errorf("β=5 demand at ω≈0.9 = %v, paper says ≈ halved", at09)
	}
	// Sensitivity ordering at mid-ω.
	mid := func(name string) float64 {
		s := findSeries(t, tbl, name)
		return s.Y[len(s.Y)/2]
	}
	if !(mid("beta=0.1") > mid("beta=1") && mid("beta=1") > mid("beta=10")) {
		t.Error("demand not ordered by sensitivity")
	}
}

func TestFig3Shape(t *testing.T) {
	tables := MustRun("fig3", fast)
	if len(tables) != 2 {
		t.Fatalf("fig3 produced %d tables", len(tables))
	}
	demands := tables[1]
	// Saturation order: google first, then skype, then netflix (§II-D).
	reach := func(name string) float64 {
		s := findSeries(t, demands, name)
		for i := range s.X {
			if s.Y[i] >= 0.95 {
				return s.X[i]
			}
		}
		return math.Inf(1)
	}
	g, n, sk := reach("google"), reach("netflix"), reach("skype")
	if !(g < sk && sk < n) {
		t.Errorf("demand saturation order google=%v skype=%v netflix=%v", g, sk, n)
	}
	// Throughputs are monotone in ν.
	for _, s := range tables[0].Series {
		if !numeric.IsMonotoneNonDecreasing(s.Y, 1e-6) {
			t.Errorf("θ series %s not monotone", s.Name)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	tables := MustRun("fig4", fast)
	if len(tables) != 2 {
		t.Fatalf("fig4 produced %d tables", len(tables))
	}
	psiTbl, phiTbl := tables[0], tables[1]
	if len(psiTbl.Series) != 5 || len(phiTbl.Series) != 5 {
		t.Fatalf("fig4 series counts: %d, %d; want 5 capacities", len(psiTbl.Series), len(phiTbl.Series))
	}
	for _, nuName := range []string{"nu=20", "nu=100", "nu=200"} {
		psi := findSeries(t, psiTbl, nuName)
		// Regime 1: Ψ starts at 0 and initially rises ≈ c·ν.
		if psi.Y[0] != 0 {
			t.Errorf("%s: Ψ(0) = %v", nuName, psi.Y[0])
		}
		if psi.Y[1] <= 0 {
			t.Errorf("%s: Ψ should rise with small c", nuName)
		}
		// Regime 2: Ψ collapses at c=1 (v ~ U[0,1]: nobody affords c=1).
		if last := psi.Y[len(psi.Y)-1]; last > 1e-9 {
			t.Errorf("%s: Ψ(1) = %v, want 0", nuName, last)
		}
	}
	// Misalignment regime: at ν=200, Φ decreases over some mid-price range
	// (the paper's third regime).
	phi200 := findSeries(t, phiTbl, "nu=200")
	if gap := numeric.MaxDownwardGap(phi200.Y); gap <= 0 {
		t.Error("ν=200: Φ(c) should decrease somewhere (misalignment regime)")
	}
}

func TestFig5Shape(t *testing.T) {
	tables := MustRun("fig5", fast)
	psiTbl, phiTbl := tables[0], tables[1]
	if len(psiTbl.Series) != 9 || len(phiTbl.Series) != 9 {
		t.Fatalf("fig5 series counts %d/%d, want 9 strategies", len(psiTbl.Series), len(phiTbl.Series))
	}
	// Small-κ strategies: revenue goes to ~zero at large ν (regime 3).
	psi := findSeries(t, psiTbl, "k=0.2,c=0.5")
	last := psi.Y[len(psi.Y)-1]
	peak := psi.Y[numeric.ArgMax(psi.Y)]
	if peak <= 0 {
		t.Fatal("k=0.2,c=0.5: no revenue anywhere")
	}
	if last > 0.25*peak {
		t.Errorf("k=0.2: Ψ at abundant ν = %v, want far below peak %v", last, peak)
	}
	// κ=0.9 holds more revenue than κ=0.2 at the end (paper: big κ
	// guarantees some revenue at the cost of Φ).
	psiBig := findSeries(t, psiTbl, "k=0.9,c=0.5")
	if psiBig.Y[len(psiBig.Y)-1] < last {
		t.Error("κ=0.9 should retain at least as much late revenue as κ=0.2")
	}
	// Φ grows overall: final Φ within each strategy is the max up to small ε.
	for _, s := range phiTbl.Series {
		gap := numeric.MaxDownwardGap(s.Y)
		_, hi := numeric.MinMax(s.Y)
		if gap > 0.25*hi {
			t.Errorf("fig5 %s: Φ drop %v too large vs max %v", s.Name, gap, hi)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	tables := MustRun("fig7", fast)
	if len(tables) != 3 {
		t.Fatalf("fig7 produced %d tables", len(tables))
	}
	shareTbl, psiTbl, phiTbl := tables[0], tables[1], tables[2]
	share := findSeries(t, shareTbl, "nu=100")
	// At c=1 all consumers leave ISP I.
	if lastShare := share.Y[len(share.Y)-1]; lastShare > 0.01 {
		t.Errorf("m_I at c=1 = %v, want ≈ 0", lastShare)
	}
	// Φ stays positive everywhere (the Public Option backstop).
	phi := findSeries(t, phiTbl, "nu=100")
	for i := range phi.Y {
		if phi.Y[i] <= 0 {
			t.Errorf("Φ(c=%v) = %v, must stay positive", phi.X[i], phi.Y[i])
		}
	}
	// Ψ_I rises then collapses to zero.
	psi := findSeries(t, psiTbl, "nu=100")
	if psi.Y[numeric.ArgMax(psi.Y)] <= 0 {
		t.Error("Ψ_I never positive")
	}
	if lastPsi := psi.Y[len(psi.Y)-1]; lastPsi > 1e-9 {
		t.Errorf("Ψ_I at c=1 = %v, want 0", lastPsi)
	}
}

func TestFig8Shape(t *testing.T) {
	tables := MustRun("fig8", fast)
	if len(tables) != 3 {
		t.Fatalf("fig8 produced %d tables", len(tables))
	}
	psiTbl, phiTbl, shareTbl := tables[0], tables[1], tables[2]
	if len(psiTbl.Series) != 9 {
		t.Fatalf("fig8 Ψ has %d series", len(psiTbl.Series))
	}
	// Shares stay within a sane band around 1/2 for moderate strategies.
	s := findSeries(t, shareTbl, "k=0.5,c=0.2")
	for i := range s.Y {
		if s.Y[i] < 0 || s.Y[i] > 1 {
			t.Fatalf("share out of range: %v", s.Y[i])
		}
	}
	// Φ is barely affected by ISP I's strategy: compare two strategies'
	// final Φ.
	a := findSeries(t, phiTbl, "k=0.2,c=0.2")
	b := findSeries(t, phiTbl, "k=0.9,c=0.8")
	fa, fb := a.Y[len(a.Y)-1], b.Y[len(b.Y)-1]
	if math.Abs(fa-fb) > 0.25*math.Max(fa, fb) {
		t.Errorf("Φ at abundant ν differs too much across strategies: %v vs %v", fa, fb)
	}
	// At abundant capacity a small-κ incumbent's premium class empties and
	// it becomes effectively neutral: the equilibrium selection returns the
	// even split (paper: "at most an equal share ... small value of κ").
	if last := s.Y[len(s.Y)-1]; math.Abs(last-0.5) > 0.05 {
		t.Errorf("k=0.5,c=0.2 abundant-ν share = %v, want ≈ 0.5", last)
	}
}

func TestAppendixFiguresRun(t *testing.T) {
	for _, id := range []string{"fig9", "fig10", "fig11", "fig12"} {
		tables := MustRun(id, fast)
		if len(tables) == 0 {
			t.Errorf("%s produced no tables", id)
		}
		for _, tbl := range tables {
			if len(tbl.Series) == 0 {
				t.Errorf("%s table %q empty", id, tbl.Title)
			}
			var buf bytes.Buffer
			if err := tbl.WriteCSV(&buf); err != nil {
				t.Errorf("%s CSV: %v", id, err)
			}
		}
	}
}

func TestAblationsRun(t *testing.T) {
	for _, id := range []string{"ablation-alphafair", "ablation-tcp", "ablation-mm1", "ablation-nash", "ablation-pubopt-capacity"} {
		tables := MustRun(id, fast)
		if len(tables) == 0 {
			t.Errorf("%s produced no tables", id)
			continue
		}
		for _, tbl := range tables {
			for _, s := range tbl.Series {
				if s.Len() == 0 {
					t.Errorf("%s series %q empty", id, s.Name)
				}
				for _, y := range s.Y {
					if math.IsNaN(y) || math.IsInf(y, 0) {
						t.Errorf("%s series %q has non-finite value", id, s.Name)
					}
				}
			}
		}
	}
}

func TestAblationMM1Headroom(t *testing.T) {
	tables := MustRun("ablation-mm1", fast)
	util := tables[0]
	mm := findSeries(t, util, "mm1")
	tcp := findSeries(t, util, "maxmin")
	for i := range mm.Y {
		if mm.Y[i] >= 1 {
			t.Errorf("M/M/1 utilization %v >= 1", mm.Y[i])
		}
	}
	// The max-min model is work conserving below saturation.
	if tcp.Y[0] < 0.999 {
		t.Errorf("max-min utilization below saturation = %v, want 1", tcp.Y[0])
	}
}

func TestConfigDefaults(t *testing.T) {
	size := func(cfg Config) int { return len(materialize(cfg.population(""))) }
	if n := size(Config{}); n != 1000 {
		t.Errorf("default ensemble size %d, want 1000", n)
	}
	if n := size(Config{Fast: true}); n != 120 {
		t.Errorf("fast ensemble size %d, want 120", n)
	}
	if n := size(Config{Fast: true, CPs: 60}); n != 60 {
		t.Errorf("explicit ensemble size %d, want 60", n)
	}
	// Seed 0 is the repository seed: spelling it out draws the same
	// (published) population.
	def := materialize(Config{}.population(""))
	explicit := materialize(Config{Seed: traffic.DefaultSeed}.population(""))
	if !reflect.DeepEqual(def, explicit) {
		t.Error("default seed must be the repository seed")
	}
	if n := len(Config{Fast: true}.grid(0, 1, 100, 10)); n != 10 {
		t.Errorf("fast grid size %d, want 10", n)
	}
}

// sameTables reports the first bit-level difference between two runs.
func sameTables(t *testing.T, what string, a, b []*sweep.Table) {
	t.Helper()
	for ti := range a {
		for si := range a[ti].Series {
			for i, y := range a[ti].Series[si].Y {
				if math.Float64bits(y) != math.Float64bits(b[ti].Series[si].Y[i]) {
					t.Fatalf("%s differs at table %d series %d point %d: %.17g vs %.17g",
						what, ti, si, i, y, b[ti].Series[si].Y[i])
				}
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	sameTables(t, "fig4 rerun", MustRun("fig4", fast), MustRun("fig4", fast))
	// Grid rows never share warm state, so the worker count cannot change
	// a single bit. The capacity ablation is a 1-D sweep whose chunks do
	// share warm state; its best responses must still be exact.
	for _, id := range []string{"fig7", "fig8", "ablation-pubopt-capacity"} {
		one := MustRun(id, Config{Fast: true, Workers: 1})
		four := MustRun(id, Config{Fast: true, Workers: 4})
		sameTables(t, id+" at 1 vs 4 workers", one, four)
	}
}

// TestAppendixSharesCPCharacteristics: the appendix figures redraw only φ,
// which weighs consumer surplus but not CP decisions, so their Ψ tables
// equal the main figures' bit for bit under any ensemble.
func TestAppendixSharesCPCharacteristics(t *testing.T) {
	for _, cfg := range []Config{{Fast: true}, {CPs: 60, Seed: 3, Fast: true}} {
		for _, pair := range [][2]string{{"fig4", "fig9"}, {"fig5", "fig10"}} {
			main, appendix := MustRun(pair[0], cfg), MustRun(pair[1], cfg)
			sameTables(t, fmt.Sprintf("%s vs %s Ψ (%+v)", pair[0], pair[1], cfg), main[:1], appendix[:1])
		}
	}
}
