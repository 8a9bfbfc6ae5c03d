package scenario

import (
	"math"
	"strings"
	"testing"
)

// tinyGridScenario is a cheap, fully explicit grid for engine tests: a
// two-CP constant-demand population under incumbent-vs-Public-Option entry,
// swept over γ (columns) × ν (rows).
func tinyGridScenario(t *testing.T) *Scenario {
	t.Helper()
	s, err := LoadString(`{
		"name": "tiny-grid", "title": "tiny γ×ν grid",
		"population": {"kind": "explicit", "cps": [
			{"name": "wide", "alpha": 1, "theta_hat": 2, "v": 0.5, "phi": 1,
			 "demand": {"family": "constant"}},
			{"name": "fat", "alpha": 0.5, "theta_hat": 4, "v": 0.5, "phi": 0.5,
			 "demand": {"family": "constant"}}
		]},
		"providers": [
			{"name": "incumbent", "gamma": 0.5, "kappa": 1, "c": 0.4},
			{"name": "po", "gamma": 0.5, "public_option": true}
		],
		"sweep": {"axis": "poshare", "lo": 0.2, "hi": 0.4, "points": 3,
		          "metrics": ["phi", "share"],
		          "grid": {"axis": "nu", "values": [1, 2]}}
	}`)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGridValidationRejects(t *testing.T) {
	base := `{
		"name": "t", "title": "t",
		"population": {"kind": "paper"},
		"providers": [
			{"name": "a", "gamma": 0.5, "kappa": 1, "c": 0.4},
			{"name": "po", "gamma": 0.5, "public_option": true}
		],
		"sweep": SWEEP
	}`
	cases := []struct {
		name  string
		sweep string
		want  string
	}{
		{"duplicate axes", `{"axis": "nu", "lo": 0.1, "hi": 1, "points": 3,
			"grid": {"axis": "nu", "lo": 0.2, "hi": 0.8, "points": 2}}`,
			"duplicates the sweep axis"},
		{"unknown row axis", `{"axis": "nu", "lo": 0.1, "hi": 1, "points": 3,
			"grid": {"axis": "volume", "points": 2}}`,
			"unknown grid row axis"},
		{"empty row grid", `{"axis": "nu", "lo": 0.1, "hi": 1, "points": 3,
			"grid": {"axis": "poshare"}}`,
			"empty sweep grid"},
		{"non-finite row bound", `{"axis": "nu", "lo": 0.1, "hi": 1, "points": 3,
			"grid": {"axis": "poshare", "lo": 0.1, "hi": 1e999, "points": 2}}`,
			""}, // 1e999 overflows float64: the JSON decoder rejects it first

		{"NaN explicit column value", `{"axis": "nu", "values": [0.5, NaN],
			"grid": {"axis": "poshare", "lo": 0.1, "hi": 0.4, "points": 2}}`,
			""}, // NaN is not even valid JSON: any parse error is fine
		{"reversed row bounds", `{"axis": "nu", "lo": 0.1, "hi": 1, "points": 3,
			"grid": {"axis": "poshare", "lo": 0.4, "hi": 0.1, "points": 3}}`,
			"hi > lo"},
		{"row value outside domain", `{"axis": "nu", "lo": 0.1, "hi": 1, "points": 3,
			"grid": {"axis": "poshare", "values": [0.5, 1.5]}}`,
			"outside (0,1)"},
		{"missing fixed nu", `{"axis": "price", "lo": 0, "hi": 1, "points": 3,
			"grid": {"axis": "kappa", "lo": 0, "hi": 1, "points": 2}}`,
			"fixed capacity"},
		{"non-finite fixed nu", `{"axis": "price", "lo": 0, "hi": 1, "points": 3, "nu": 1e999,
			"grid": {"axis": "kappa", "lo": 0, "hi": 1, "points": 2}}`,
			""}, // 1e999 overflows float64: the JSON decoder rejects it
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadString(strings.Replace(base, "SWEEP", tc.sweep, 1))
			if err == nil {
				t.Fatalf("invalid grid sweep accepted")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestGridValidationNonFiniteProgrammatic(t *testing.T) {
	// JSON cannot express NaN/Inf, but scenarios built in code can; the
	// validator must still reject them.
	s := tinyGridScenario(t)
	s.Sweep.Grid.Values = []float64{1, math.NaN()}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("NaN row value accepted (err=%v)", err)
	}
	s = tinyGridScenario(t)
	s.Sweep.Grid.Values = []float64{1, math.Inf(1)}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("Inf row value accepted (err=%v)", err)
	}
	s = tinyGridScenario(t)
	s.Sweep.Lo, s.Sweep.Hi, s.Sweep.Points, s.Sweep.Values = math.Inf(-1), 1, 4, nil
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("-Inf column bound accepted (err=%v)", err)
	}
}

func TestGridValidationAxisConstraintsApplyToRowAxis(t *testing.T) {
	// The row axis must satisfy the same market-shape constraints as the
	// column axis: a poshare row axis needs a Public Option second.
	_, err := LoadString(`{
		"name": "t", "title": "t",
		"population": {"kind": "paper"},
		"providers": [
			{"name": "a", "gamma": 0.5, "kappa": 1, "c": 0.4},
			{"name": "b", "gamma": 0.5}
		],
		"sweep": {"axis": "price", "lo": 0, "hi": 1, "points": 3, "nu": 0.4,
		          "of_saturation": true,
		          "grid": {"axis": "poshare", "lo": 0.1, "hi": 0.4, "points": 2}}
	}`)
	if err == nil || !strings.Contains(err.Error(), "Public Option") {
		t.Fatalf("poshare row axis without a Public Option accepted (err=%v)", err)
	}
}

func TestGridValidationRejectsRegulationAndBatch(t *testing.T) {
	_, err := LoadString(`{
		"name": "t", "title": "t",
		"population": {"kind": "paper"},
		"regulation": {},
		"sweep": {"axis": "nu", "values": [0.4], "of_saturation": true,
		          "grid": {"axis": "poshare", "values": [0.3]}}
	}`)
	if err == nil || !strings.Contains(err.Error(), "regulation comparisons do not support grid") {
		t.Fatalf("regulation grid accepted (err=%v)", err)
	}
	_, err = LoadString(`{
		"name": "t", "title": "t",
		"population": {"kind": "ensemble", "n": 1000, "batch": 500},
		"providers": [{"name": "a", "gamma": 1}],
		"sweep": {"axis": "nu", "values": [0.4], "of_saturation": true,
		          "grid": {"axis": "kappa", "values": [0.5]}}
	}`)
	if err == nil || !strings.Contains(err.Error(), "batched populations sweep capacity only") {
		t.Fatalf("batched grid accepted (err=%v)", err)
	}
}

func TestRunRejectsGridAndRunGridRejectsSweep(t *testing.T) {
	s := tinyGridScenario(t)
	if _, err := s.Run(RunOptions{Workers: 1}); err == nil || !strings.Contains(err.Error(), "RunGrid") {
		t.Fatalf("Run accepted a grid scenario (err=%v)", err)
	}
	flat, err := LoadString(`{
		"name": "flat", "title": "flat",
		"population": {"kind": "archetypes"},
		"providers": [{"name": "a", "gamma": 1}],
		"sweep": {"axis": "nu", "values": [1000]}
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flat.RunGrid(RunOptions{Workers: 1}); err == nil || !strings.Contains(err.Error(), "Run") {
		t.Fatalf("RunGrid accepted a 1-D scenario (err=%v)", err)
	}
}

func TestCompileGridLayersAndCells(t *testing.T) {
	job, err := tinyGridScenario(t).CompileGrid()
	if err != nil {
		t.Fatal(err)
	}
	if job.Cells() != 6 {
		t.Fatalf("Cells() = %d, want 6", job.Cells())
	}
	want := []string{"phi", "share/incumbent", "share/po"}
	if len(job.Layers) != len(want) {
		t.Fatalf("layers %v, want %v", job.Layers, want)
	}
	for i := range want {
		if job.Layers[i] != want[i] {
			t.Fatalf("layers %v, want %v", job.Layers, want)
		}
	}
	if job.XAxis != AxisPOShare || job.YAxis != AxisNu {
		t.Fatalf("axes %s×%s, want poshare×nu", job.XAxis, job.YAxis)
	}
}

func TestGridRowMatchesOneDimensionalSweep(t *testing.T) {
	// A grid row at fixed ν must reproduce the 1-D sweep at that ν: same
	// cells, same physics, different execution path (work-stealing row
	// runner + shared warm solver vs chunked 1-D sweep).
	s := tinyGridScenario(t)
	g, err := s.RunGrid(RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	for row, nu := range []float64{1, 2} {
		oneD := tinyGridScenario(t)
		oneD.Sweep.Grid = nil
		oneD.Sweep.Nu = nu
		tables, err := oneD.Run(RunOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		// tables[0] is phi (one series); tables[1] is share (per provider).
		phiRow, err := g.Row("phi", row)
		if err != nil {
			t.Fatal(err)
		}
		for i := range phiRow.X {
			want := tables[0].Series[0].Y[i]
			if diff := math.Abs(phiRow.Y[i] - want); diff > 1e-6*(1+math.Abs(want)) {
				t.Errorf("phi(γ=%g, ν=%g) = %g via grid, %g via 1-D sweep",
					phiRow.X[i], nu, phiRow.Y[i], want)
			}
		}
		shareRow, err := g.Row("share/po", row)
		if err != nil {
			t.Fatal(err)
		}
		for i := range shareRow.X {
			want := tables[1].Series[1].Y[i]
			if diff := math.Abs(shareRow.Y[i] - want); diff > 1e-6*(1+math.Abs(want)) {
				t.Errorf("share_po(γ=%g, ν=%g) = %g via grid, %g via 1-D sweep",
					shareRow.X[i], nu, shareRow.Y[i], want)
			}
		}
	}
}

func TestGridDeterministicAcrossWorkerCounts(t *testing.T) {
	// Each row gets a fresh worker, so no warm state crosses rows: the grid
	// must be bit-identical whichever worker claims which row, rerun after
	// rerun.
	want, err := tinyGridScenario(t).RunGrid(RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		for _, workers := range []int{2, 4} {
			got, err := tinyGridScenario(t).RunGrid(RunOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for li := range want.Layers {
				for r := range want.Ys {
					for c := range want.Xs {
						a, b := want.Layers[li].Z[r][c], got.Layers[li].Z[r][c]
						if math.Float64bits(a) != math.Float64bits(b) {
							t.Errorf("run %d, layer %s cell (%d,%d): %.17g with 1 worker, %.17g with %d",
								run, want.Layers[li].Name, r, c, a, b, workers)
						}
					}
				}
			}
		}
	}
}

func TestCellSpecStableUnderGridResize(t *testing.T) {
	// Growing the grid must keep coincident cells' content addresses:
	// CellSpec ignores the grid bounds and cosmetic fields.
	a := tinyGridScenario(t)
	jobA, err := a.CompileGrid()
	if err != nil {
		t.Fatal(err)
	}
	b := tinyGridScenario(t)
	b.Name = "renamed"
	b.Title = "another title"
	b.Sweep.Grid.Values = []float64{1, 1.5, 2} // one new row, two old
	jobB, err := b.CompileGrid()
	if err != nil {
		t.Fatal(err)
	}
	// (row 0, col 0) of A is (ν=1, γ=0.2); in B that cell is still row 0.
	sa, sb := jobA.CellSpec(0, 0), jobB.CellSpec(0, 0)
	if sa.X != sb.X || sa.Y != sb.Y || sa.XAxis != sb.XAxis || sa.YAxis != sb.YAxis {
		t.Fatalf("coincident cells differ: %+v vs %+v", sa, sb)
	}
	// ν=2 moved from row 1 to row 2 but addresses the same cell.
	sa, sb = jobA.CellSpec(1, 2), jobB.CellSpec(2, 2)
	if sa.X != sb.X || sa.Y != sb.Y {
		t.Fatalf("relocated cell differs: %+v vs %+v", sa, sb)
	}
	// A changed provider strategy must change the spec.
	c := tinyGridScenario(t)
	c.Providers[0].C = 0.5
	jobC, err := c.CompileGrid()
	if err != nil {
		t.Fatal(err)
	}
	if jobC.CellSpec(0, 0).Providers[0].C == jobA.CellSpec(0, 0).Providers[0].C {
		t.Fatal("provider edit did not reach the cell spec")
	}
}

func TestBuiltinGridRowMatchesPublicOptionSizing(t *testing.T) {
	// The acceptance check of the γ×ν built-in: its ν=0.4·sat row must
	// match the existing 1-D public-option-sizing sweep (which fixes
	// ν=0.4·sat) point for point.
	if testing.Short() {
		t.Skip("solves two paper-population sweeps")
	}
	grid2d, ok := Get("po-sizing-gamma-nu")
	if !ok {
		t.Fatal("missing built-in po-sizing-gamma-nu")
	}
	// Keep only the ν=0.4 row so the test stays fast.
	grid2d.Sweep.Grid.Values = []float64{0.4}
	g, err := grid2d.RunGrid(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	oneD, ok := Get("public-option-sizing")
	if !ok {
		t.Fatal("missing built-in public-option-sizing")
	}
	tables, err := oneD.Run(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	phiRow, err := g.Row("phi", 0)
	if err != nil {
		t.Fatal(err)
	}
	phi1D := tables[0].Series[0]
	if phiRow.Len() != phi1D.Len() {
		t.Fatalf("grid row has %d points, 1-D sweep %d", phiRow.Len(), phi1D.Len())
	}
	for i := range phiRow.X {
		if diff := math.Abs(phiRow.Y[i] - phi1D.Y[i]); diff > 1e-6*(1+math.Abs(phi1D.Y[i])) {
			t.Errorf("Φ(γ=%g): grid %g vs 1-D %g", phiRow.X[i], phiRow.Y[i], phi1D.Y[i])
		}
	}
}
