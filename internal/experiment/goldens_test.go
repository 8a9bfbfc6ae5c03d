package experiment

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/netecon-sim/publicoption/internal/sweep"
)

// goldenIDs are the market figures whose fast-mode tables are pinned under
// testdata/. They hold every title, axis label, series name, coordinate and
// value, so any change to how a figure is solved shows up here.
//
// Regenerate (after an INTENDED numeric change only) with:
//
//	PUBOPT_UPDATE_GOLDENS=1 go test ./internal/experiment/ -run TestFigureGoldens
var goldenIDs = []string{
	"fig4", "fig5", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
	"regimes", "ablation-pubopt-capacity",
}

// Goldens compare at 1e-9 relative with a 1e-12 absolute floor: tight
// enough to catch any change of method, loose enough to survive a
// reassociated floating-point sum.
const (
	goldenRelTol = 1e-9
	goldenAbsTol = 1e-12
)

func goldenPath(id string) string { return filepath.Join("testdata", id+".json") }

func TestFigureGoldens(t *testing.T) {
	update := os.Getenv("PUBOPT_UPDATE_GOLDENS") != ""
	for _, id := range goldenIDs {
		t.Run(id, func(t *testing.T) {
			got := MustRun(id, Config{Fast: true, Workers: 1})
			if update {
				js, err := json.MarshalIndent(got, "", " ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath(id), append(js, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			js, err := os.ReadFile(goldenPath(id))
			if err != nil {
				t.Fatal(err)
			}
			var want []*sweep.Table
			if err := json.Unmarshal(js, &want); err != nil {
				t.Fatal(err)
			}
			compareTables(t, got, want)
		})
	}
}

func compareTables(t *testing.T, got, want []*sweep.Table) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d tables, want %d", len(got), len(want))
	}
	for ti, w := range want {
		g := got[ti]
		if g.Title != w.Title || g.XLabel != w.XLabel || g.YLabel != w.YLabel {
			t.Errorf("table %d is %q (%s, %s), want %q (%s, %s)", ti, g.Title, g.XLabel, g.YLabel, w.Title, w.XLabel, w.YLabel)
		}
		if len(g.Series) != len(w.Series) {
			t.Errorf("table %q: %d series, want %d", w.Title, len(g.Series), len(w.Series))
			continue
		}
		for si, ws := range w.Series {
			gs := g.Series[si]
			if gs.Name != ws.Name || len(gs.X) != len(ws.X) || len(gs.Y) != len(ws.Y) {
				t.Errorf("table %q series %d is %q with %d points, want %q with %d", w.Title, si, gs.Name, len(gs.X), ws.Name, len(ws.X))
				continue
			}
			for i := range ws.X {
				if !goldenClose(gs.X[i], ws.X[i]) || !goldenClose(gs.Y[i], ws.Y[i]) {
					t.Errorf("table %q series %q point %d = (%.17g, %.17g), want (%.17g, %.17g)",
						w.Title, ws.Name, i, gs.X[i], gs.Y[i], ws.X[i], ws.Y[i])
				}
			}
		}
	}
}

func goldenClose(got, want float64) bool {
	return math.Abs(got-want) <= math.Max(goldenAbsTol, goldenRelTol*math.Abs(want))
}
