package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"github.com/netecon-sim/publicoption/internal/dynamics"
	"github.com/netecon-sim/publicoption/internal/obs"
)

// frame is the union of every NDJSON frame the streaming endpoints emit.
type frame struct {
	Grid *struct {
		Xs, Ys []float64
		Layers []string
		Cells  int
		Refine bool
	} `json:"grid"`
	Sim *struct {
		Ticks int `json:"ticks"`
	} `json:"sim"`
	Cell *struct {
		Row, Col int
		X, Y     float64
		Values   map[string]float64
	} `json:"cell"`
	Point *struct {
		X, Y   float64
		Values map[string]float64
	} `json:"point"`
	Leaf *struct {
		Depth int `json:"depth"`
	} `json:"leaf"`
	Tick  *dynamics.TickRecord `json:"tick"`
	Cache string               `json:"cache"`
	Error *string              `json:"error"`

	Done      bool             `json:"done"`
	Cells     int              `json:"cells"`
	Solved    int              `json:"solved"`
	CacheHits int              `json:"cache_hits"`
	Ticks     int              `json:"ticks"`
	Verified  bool             `json:"verified"`
	MaxError  float64          `json:"max_error"`
	Refine    *obs.RefineStats `json:"refine"`
	ElapsedMS float64          `json:"elapsed_ms"`
}

// parseFrames splits an NDJSON body into frames; blank lines are an error
// (the server never writes them).
func parseFrames(body []byte) ([]frame, error) {
	var out []frame
	err := readLines(bytes.NewReader(body), func(line []byte) error {
		var f frame
		if err := json.Unmarshal(line, &f); err != nil {
			return fmt.Errorf("frame %d: %w", len(out), err)
		}
		out = append(out, f)
		return nil
	})
	return out, err
}

// streamSummary is what a checked stream contributes to the metrics.
type streamSummary struct {
	Units, Solved int
	Done          frame
	Verified      bool
}

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func finiteMap(m map[string]float64) bool {
	for _, v := range m {
		if !finite(v) {
			return false
		}
	}
	return len(m) > 0
}

// checkStream validates a stream's structure: a header first, a done frame
// last, every cell/tick/point exactly once, consistent done counts, and
// finite values.
func checkStream(k kind, frames []frame) (streamSummary, error) {
	var s streamSummary
	if len(frames) < 2 {
		return s, fmt.Errorf("stream has %d frames; want a header and a done frame", len(frames))
	}
	head, done := frames[0], frames[len(frames)-1]
	if !done.Done {
		return s, errors.New("stream does not end with a done frame")
	}
	s.Done = done
	body := frames[1 : len(frames)-1]
	for i, f := range body {
		if f.Error != nil {
			return s, fmt.Errorf("error frame %d: %s", i+1, *f.Error)
		}
		if f.Done || f.Grid != nil || f.Sim != nil {
			return s, fmt.Errorf("frame %d: a second header or done frame", i+1)
		}
	}
	switch k {
	case kGrid:
		if head.Grid == nil || head.Grid.Refine {
			return s, errors.New("dense grid stream without a grid header")
		}
		n := head.Grid.Cells
		if n != len(head.Grid.Xs)*len(head.Grid.Ys) {
			return s, fmt.Errorf("header cells %d != %d×%d", n, len(head.Grid.Xs), len(head.Grid.Ys))
		}
		seen := make(map[[2]int]bool, n)
		for _, f := range body {
			if f.Cell == nil {
				return s, errors.New("dense grid stream carries a non-cell frame")
			}
			key := [2]int{f.Cell.Row, f.Cell.Col}
			if seen[key] {
				return s, fmt.Errorf("cell %v streamed twice", key)
			}
			seen[key] = true
			if f.Cell.Row < 0 || f.Cell.Row >= len(head.Grid.Ys) || f.Cell.Col < 0 || f.Cell.Col >= len(head.Grid.Xs) {
				return s, fmt.Errorf("cell %v outside the grid", key)
			}
			if !finiteMap(f.Cell.Values) || len(f.Cell.Values) != len(head.Grid.Layers) {
				return s, fmt.Errorf("cell %v: non-finite or missing values", key)
			}
		}
		if len(seen) != n {
			return s, fmt.Errorf("streamed %d of %d cells", len(seen), n)
		}
		if done.Cells != n || done.Solved+done.CacheHits != n {
			return s, fmt.Errorf("done frame: solved %d + cache_hits %d != cells %d", done.Solved, done.CacheHits, n)
		}
		s.Units, s.Solved = n, done.Solved
	case kRefine:
		if head.Grid == nil || !head.Grid.Refine {
			return s, errors.New("refined stream without a refine header")
		}
		seen := map[[2]float64]bool{}
		for _, f := range body {
			switch {
			case f.Point != nil:
				key := [2]float64{f.Point.X, f.Point.Y}
				if seen[key] {
					return s, fmt.Errorf("point %v streamed twice", key)
				}
				seen[key] = true
				if !finiteMap(f.Point.Values) || len(f.Point.Values) != len(head.Grid.Layers) {
					return s, fmt.Errorf("point %v: non-finite or missing values", key)
				}
			case f.Leaf != nil:
			default:
				return s, errors.New("refined stream carries an unknown frame")
			}
		}
		if done.Refine == nil || !finite(done.MaxError) {
			return s, errors.New("refined done frame without telemetry or with a non-finite error bound")
		}
		st := done.Refine
		if int(st.PointsSolved+st.PointsReused) < len(seen) {
			return s, fmt.Errorf("done frame accounts for %d points, stream carried %d", st.PointsSolved+st.PointsReused, len(seen))
		}
		s.Units, s.Solved, s.Verified = len(seen), int(st.PointsSolved), done.Verified
	case kSim:
		if head.Sim == nil {
			return s, errors.New("simulation stream without a sim header")
		}
		if len(body) != head.Sim.Ticks {
			return s, fmt.Errorf("streamed %d of %d ticks", len(body), head.Sim.Ticks)
		}
		for i, f := range body {
			if f.Tick == nil || f.Tick.Tick != i {
				return s, fmt.Errorf("frame %d is not tick %d", i+1, i)
			}
			if !finite(f.Tick.Phi, f.Tick.PhiGap, f.Tick.NuBar) || !finite(f.Tick.Shares...) || !finite(f.Tick.Prices...) {
				return s, fmt.Errorf("tick %d: non-finite values", i)
			}
		}
		if done.Ticks != head.Sim.Ticks || done.Solved+done.CacheHits != done.Ticks {
			return s, fmt.Errorf("done frame: solved %d + cache_hits %d != ticks %d", done.Solved, done.CacheHits, done.Ticks)
		}
		s.Units, s.Solved = done.Ticks, done.Solved
	}
	return s, nil
}

// normalizeRun strips the per-request fields of a /v1/runs response
// (elapsed_ms, cache, trace) so a hit can be compared with its priming.
func normalizeRun(body []byte) ([]byte, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, err
	}
	delete(m, "elapsed_ms")
	delete(m, "cache")
	delete(m, "trace")
	return json.Marshal(m)
}

type runBody struct {
	Cache string `json:"cache"`
}

type queryBody struct {
	Source string             `json:"source"`
	Cache  string             `json:"cache"`
	Values map[string]float64 `json:"values"`
}

// checker validates every result of a run and recomputes a seeded sample
// of streamed units in-process.
type checker struct {
	primed map[string][]byte // hit scenario -> normalized primed body
	rng    *rand.Rand
}

// check validates one result; for streams it returns the stream summary.
func (c *checker) check(r *result) (streamSummary, error) {
	if r.Err != nil {
		return streamSummary{}, fmt.Errorf("%s: %w", describe(r), r.Err)
	}
	if r.Status != 200 {
		return streamSummary{}, fmt.Errorf("%s: status %d: %.200s", describe(r), r.Status, r.Body)
	}
	switch r.Req.Kind {
	case kGrid, kRefine, kSim:
		frames, err := parseFrames(r.Body)
		if err != nil {
			return streamSummary{}, fmt.Errorf("%s: %w", describe(r), err)
		}
		s, err := checkStream(r.Req.Kind, frames)
		if err != nil {
			return s, fmt.Errorf("%s: %w", describe(r), err)
		}
		if err := checkReuse(r.Req, s); err != nil {
			return s, fmt.Errorf("%s: %w", describe(r), err)
		}
		return s, nil
	case kHit:
		got, err := normalizeRun(r.Body)
		if err != nil {
			return streamSummary{}, fmt.Errorf("%s: %w", describe(r), err)
		}
		if !bytes.Equal(got, c.primed[r.Req.Name]) {
			return streamSummary{}, fmt.Errorf("hit %s differs from its primed response", r.Req.Name)
		}
		var rb runBody
		json.Unmarshal(r.Body, &rb)
		if rb.Cache != "hit" {
			return streamSummary{}, fmt.Errorf("hit %s answered with cache %q", r.Req.Name, rb.Cache)
		}
	case kQuery:
		var q queryBody
		if err := json.Unmarshal(r.Body, &q); err != nil {
			return streamSummary{}, fmt.Errorf("%s: %w", describe(r), err)
		}
		if q.Source != "surrogate" || q.Cache != "hit" || !finiteMap(q.Values) {
			return streamSummary{}, fmt.Errorf("query (%g, %g): source %q cache %q", r.Req.X, r.Req.Y, q.Source, q.Cache)
		}
	}
	return streamSummary{}, nil
}

// checkReuse checks a checked stream's cache use: a fresh-seed dense grid
// or trajectory solves every unit, and a re-submitted grid answers every
// cell of the grid it extends from the cache and solves only the new row.
// A refined grid may share lattice points between its own solves, so its
// counts are only checked by checkStream.
func checkReuse(req *request, s streamSummary) error {
	switch {
	case req.Kind == kRefine:
	case req.Resubmit:
		if s.Done.CacheHits != req.PrevCells || s.Solved != s.Units-req.PrevCells {
			return fmt.Errorf("a re-submit answered %d of its previous grid's %d cells from the cache and solved %d of %d", s.Done.CacheHits, req.PrevCells, s.Solved, s.Units)
		}
	case s.Solved != s.Units:
		return fmt.Errorf("a fresh-seed request solved %d of %d units", s.Solved, s.Units)
	}
	return nil
}

// near is the repo's golden tolerance for re-solved grid values.
func near(a, b float64) bool { return math.Abs(a-b) <= 1e-6*(1+math.Abs(b)) }

// recompute re-solves part of a checked result in-process and compares:
// one row of a dense grid (GridWorker.SolveCell, columns in order), a few
// points of a refined grid (GridWorker.SolveAt), or a whole trajectory
// (dynamics.Run).
func (c *checker) recompute(r *result) error {
	switch r.Req.Kind {
	case kGrid:
		frames, _ := parseFrames(r.Body)
		job, err := r.Req.Spec.CompileGrid()
		if err != nil {
			return err
		}
		row := c.rng.IntN(len(job.Ys))
		w := job.NewWorker()
		want := make(map[int]map[string]float64)
		for col := range job.Xs {
			want[col] = w.SolveCell(row, col).Values
		}
		for _, f := range frames {
			if f.Cell != nil && f.Cell.Row == row {
				for l, v := range f.Cell.Values {
					if !near(v, want[f.Cell.Col][l]) {
						return fmt.Errorf("grid cell (%d,%d) %s: streamed %v, recomputed %v", row, f.Cell.Col, l, v, want[f.Cell.Col][l])
					}
				}
			}
		}
	case kRefine:
		frames, _ := parseFrames(r.Body)
		job, err := r.Req.Spec.CompileGrid()
		if err != nil {
			return err
		}
		var pts []frame
		for _, f := range frames {
			if f.Point != nil {
				pts = append(pts, f)
			}
		}
		for i := 0; i < 3 && len(pts) > 0; i++ {
			f := pts[c.rng.IntN(len(pts))]
			want := job.NewWorker().SolveAt(f.Point.X, f.Point.Y)
			for l, v := range f.Point.Values {
				if !near(v, want[l]) {
					return fmt.Errorf("refined point (%g,%g) %s: streamed %v, recomputed %v", f.Point.X, f.Point.Y, l, v, want[l])
				}
			}
		}
	case kSim:
		frames, _ := parseFrames(r.Body)
		tr, err := dynamics.Run(r.Req.Spec, dynamics.Options{})
		if err != nil {
			return err
		}
		for _, f := range frames {
			if f.Tick == nil {
				continue
			}
			want := tr.Ticks[f.Tick.Tick]
			ok := near(f.Tick.Phi, want.Phi) && near(f.Tick.NuBar, want.NuBar)
			for k := range want.Shares {
				ok = ok && near(f.Tick.Shares[k], want.Shares[k]) && near(f.Tick.Prices[k], want.Prices[k]) && near(f.Tick.Caps[k], want.Caps[k])
			}
			if !ok {
				return fmt.Errorf("tick %d differs from dynamics.Run", f.Tick.Tick)
			}
		}
	}
	return nil
}
