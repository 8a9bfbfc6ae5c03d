package main

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/netecon-sim/publicoption/internal/scenario"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n       int
		p       float64
		wantP   float64
		wantVal float64
	}{
		{n: 1000, p: 0.99, wantP: 0.99, wantVal: 990},
		{n: 2000, p: 0.5, wantP: 0.5, wantVal: 1000},
		// 100 samples leave only one beyond p99: fall back to p90, which
		// leaves exactly ten.
		{n: 100, p: 0.99, wantP: 0.9, wantVal: 90},
		{n: 60, p: 0.9, wantP: 50.0 / 60, wantVal: 50},
		// 15 samples: p50 leaves fewer than ten; the highest that does is
		// p33.3.
		{n: 15, p: 0.5, wantP: 5.0 / 15, wantVal: 5},
		// Ten or fewer samples: no percentile leaves ten; report the median.
		{n: 7, p: 0.99, wantP: 0.5, wantVal: 4},
	} {
		got := percentile(seq(tc.n), tc.p)
		if got.N != tc.n || math.Abs(got.P-tc.wantP) > 1e-12 || got.Value != tc.wantVal {
			t.Errorf("percentile(n=%d, p=%g) = %+v; want P=%g value=%g", tc.n, tc.p, got, tc.wantP, tc.wantVal)
		}
		if tc.n > minTail {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > got.Value {
					beyond++
				}
			}
			if beyond < minTail && got.P != 0.5 {
				t.Errorf("n=%d p=%g: only %d samples beyond the reported value", tc.n, tc.p, beyond)
			}
		}
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got.Value) || got.N != 0 {
		t.Errorf("percentile of no samples = %+v; want NaN with n=0", got)
	}
}

func TestGeneratedBodiesReproducible(t *testing.T) {
	for _, w := range []string{wGridDense, wGridRefine, wSimStream} {
		for client := 0; client < 2; client++ {
			g1, g2 := newStreamGen(w, 5, client), newStreamGen(w, 5, client)
			other := newStreamGen(w, 6, client)
			same := true
			for i := 0; i < 8; i++ {
				a, b, c := g1.next(), g2.next(), other.next()
				if !bytes.Equal(a.Body, b.Body) {
					t.Fatalf("%s client %d request %d differs between generators of one seed", w, client, i)
				}
				same = same && bytes.Equal(a.Body, c.Body)
				// Every body is a valid scenario of the right shape.
				sc, err := scenario.LoadString(string(mustJSON(a.Spec)))
				if err != nil {
					t.Fatalf("%s request %d: %v", w, i, err)
				}
				if a.Kind == kSim {
					if !sc.IsDynamic() {
						t.Fatalf("%s request %d is not dynamic", w, i)
					}
				} else if _, err := sc.CompileGrid(); err != nil {
					t.Fatalf("%s request %d: %v", w, i, err)
				}
			}
			if same {
				t.Errorf("%s client %d: seeds 5 and 6 generate the same requests", w, client)
			}
		}
	}
}

func TestDenseResubmitExtendsPreviousGrid(t *testing.T) {
	g := newStreamGen(wGridDense, 9, 0)
	var prev request
	for i := 1; i <= 2*resubmitEvery; i++ {
		r := g.next()
		if i%resubmitEvery != 0 {
			if r.Resubmit {
				t.Fatalf("request %d is a resubmit", i)
			}
			prev = r
			continue
		}
		if !r.Resubmit {
			t.Fatalf("request %d should re-submit the previous grid", i)
		}
		pv, rv := prev.Spec.Sweep.Grid.Values, r.Spec.Sweep.Grid.Values
		if len(rv) != len(pv)+1 || fmt.Sprint(rv[:len(pv)]) != fmt.Sprint(pv) {
			t.Fatalf("resubmit rows %v do not extend %v by one", rv, pv)
		}
		if r.Spec.Population.Seed != prev.Spec.Population.Seed || r.Spec.Sweep.Axis != prev.Spec.Sweep.Axis {
			t.Fatal("resubmit changed more than the row axis")
		}
		job, err := prev.Spec.CompileGrid()
		if err != nil {
			t.Fatal(err)
		}
		if cells := len(job.Xs) * len(job.Ys); r.PrevCells != cells {
			t.Fatalf("resubmit PrevCells = %d; the previous grid has %d cells", r.PrevCells, cells)
		}
	}
}

const gridStream = `{"grid":{"name":"g","title":"t","x_axis":"poshare","y_axis":"nu","xs":[0.1,0.2],"ys":[1],"layers":["phi"],"cells":2}}
{"cell":{"row":0,"col":1,"x":0.2,"y":1,"values":{"phi":2.5}},"cache":"miss"}
{"cell":{"row":0,"col":0,"x":0.1,"y":1,"values":{"phi":2}},"cache":"hit"}
{"done":true,"cells":2,"solved":1,"cache_hits":1,"elapsed_ms":3.5}
`

func TestReadLines(t *testing.T) {
	long := strings.Repeat("x", 200<<10)
	var got []string
	err := readLines(strings.NewReader("a\r\n"+long+"\nlast"), func(l []byte) error {
		got = append(got, string(l))
		return nil
	})
	if err != nil || len(got) != 3 || got[0] != "a" || got[1] != long || got[2] != "last" {
		t.Fatalf("readLines = %d lines, err %v", len(got), err)
	}
}

func TestStreamParserAndChecks(t *testing.T) {
	frames, err := parseFrames([]byte(gridStream))
	if err != nil {
		t.Fatal(err)
	}
	s, err := checkStream(kGrid, frames)
	if err != nil || s.Units != 2 || s.Solved != 1 || s.Done.ElapsedMS != 3.5 {
		t.Fatalf("valid stream: %+v, %v", s, err)
	}
	lines := strings.Split(strings.TrimSpace(gridStream), "\n")
	for name, body := range map[string]string{
		"duplicate cell":  strings.Join([]string{lines[0], lines[1], lines[1], lines[3]}, "\n"),
		"missing cell":    strings.Join([]string{lines[0], lines[1], lines[3]}, "\n"),
		"no done frame":   strings.Join(lines[:3], "\n"),
		"count mismatch":  strings.Join([]string{lines[0], lines[1], lines[2], `{"done":true,"cells":2,"solved":2,"cache_hits":1}`}, "\n"),
		"error frame":     strings.Join([]string{lines[0], lines[1], `{"error":"boom"}`, lines[2], lines[3]}, "\n"),
		"non-finite cell": strings.Replace(gridStream, `"phi":2}`, `"phi":1e999}`, 1),
	} {
		frames, err := parseFrames([]byte(body))
		if err == nil {
			_, err = checkStream(kGrid, frames)
		}
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Cache use: the stream above solved one of its two cells, which only a
	// re-submit of a one-cell grid may do.
	fresh := &request{Kind: kGrid}
	resub := &request{Kind: kGrid, Resubmit: true, PrevCells: 1}
	if err := checkReuse(fresh, s); err == nil {
		t.Error("a fresh-seed grid that hit the cache was accepted")
	}
	if err := checkReuse(resub, s); err != nil {
		t.Errorf("a re-submit that hit its previous cell: %v", err)
	}
	resub.PrevCells = 2
	if err := checkReuse(resub, s); err == nil {
		t.Error("a re-submit that re-solved a cell of its previous grid was accepted")
	}
	if err := checkReuse(&request{Kind: kRefine}, s); err != nil {
		t.Errorf("refined grid: %v", err)
	}

	if _, err := parseFrames([]byte("{\"grid\":{}}\nnot json\n")); err == nil {
		t.Error("a malformed frame parsed")
	}

	sim := `{"sim":{"name":"d","ticks":2}}
{"tick":{"tick":0,"nu_bar":1,"shares":[0.5,0.5],"prices":[0.1,0],"phi":1},"cache":"miss"}
{"tick":{"tick":1,"nu_bar":1,"shares":[0.6,0.4],"prices":[0.1,0],"phi":1.1},"cache":"miss"}
{"done":true,"ticks":2,"solved":2,"cache_hits":0,"elapsed_ms":1}`
	frames, _ = parseFrames([]byte(sim))
	if s, err := checkStream(kSim, frames); err != nil || s.Units != 2 {
		t.Fatalf("valid sim stream: %+v, %v", s, err)
	}
	swapped := strings.Split(sim, "\n")
	swapped[1], swapped[2] = swapped[2], swapped[1]
	frames, _ = parseFrames([]byte(strings.Join(swapped, "\n")))
	if _, err := checkStream(kSim, frames); err == nil {
		t.Error("ticks out of order accepted")
	}
}

func TestNormalizeRunIgnoresPerRequestFields(t *testing.T) {
	a, _ := normalizeRun([]byte(`{"kind":"scenario","name":"x","tables":[],"cache":"miss","elapsed_ms":12.5}`))
	b, _ := normalizeRun([]byte(`{"kind":"scenario","name":"x","tables":[],"cache":"hit","elapsed_ms":0.1,"trace":"ab"}`))
	c, _ := normalizeRun([]byte(`{"kind":"scenario","name":"y","tables":[],"cache":"hit","elapsed_ms":0.1}`))
	if !bytes.Equal(a, b) || bytes.Equal(a, c) {
		t.Errorf("normalizeRun: %s / %s / %s", a, b, c)
	}
}

func TestParseProm(t *testing.T) {
	p := parseProm("# TYPE x counter\npubopt_cache_hits_total 12\npubopt_query_total{source=\"surrogate\"} 3\n\nbad line\n")
	if p["pubopt_cache_hits_total"] != 12 || p[`pubopt_query_total{source="surrogate"}`] != 3 || len(p) != 2 {
		t.Errorf("parseProm = %v", p)
	}
}
