package numeric

import (
	"math"
	"math/rand"
	"testing"
)

// monotoneCase builds a non-increasing f on [lo, hi] of one of the shapes
// BracketDecreasing must match Bisect on. r1 <= r2 are two points of the
// interval (the crossing, or the ends of a zero plateau); scale sets the
// magnitude.
func monotoneCase(kind int, lo, hi, r1, r2, scale float64) (string, func(float64) float64) {
	w := hi - lo
	switch kind {
	case 0:
		return "linear", func(x float64) float64 { return scale * (r1 - x) }
	case 1:
		return "cubic", func(x float64) float64 { d := (r1 - x) / w; return scale * d * d * d }
	case 2:
		// A staircase: constant steps with jumps, crossing zero inside a
		// step's jump rather than at a point where f is zero.
		return "staircase", func(x float64) float64 { return scale * (math.Floor(8*(r1-x)/w) + 0.5) }
	case 3:
		// Flat plateaus at both ends (saturation), linear in between.
		return "plateaus", func(x float64) float64 {
			return scale * math.Max(-1, math.Min(1, 8*(r1-x)/w))
		}
	case 4:
		// An exact-zero plateau on [r1, r2].
		return "zero-plateau", func(x float64) float64 {
			switch {
			case x < r1:
				return scale * (r1 - x)
			case x > r2:
				return scale * (r2 - x)
			}
			return 0
		}
	case 5:
		// Exactly zero from r1 through hi: Bisect clamps to hi.
		return "zero-tail", func(x float64) float64 { return scale * math.Max(r1-x, 0) }
	case 6:
		// Exactly zero from lo through r1: Bisect clamps to lo.
		return "zero-head", func(x float64) float64 { return scale * math.Min(r1-x, 0) }
	case 7:
		return "zero-at-lo", func(x float64) float64 { return scale * (lo - x) }
	case 8:
		return "zero-at-hi", func(x float64) float64 { return scale * (hi - x) }
	case 9:
		return "all-positive", func(x float64) float64 { return scale * (2 + (r1-x)/w) }
	case 10:
		return "all-negative", func(x float64) float64 { return -scale * (2 + (x-r1)/w) }
	}
	// A steep jump straight through zero.
	return "jump", func(x float64) float64 {
		if x < r1 {
			return scale
		}
		return -scale
	}
}

const monotoneKinds = 12

// counted wraps f with an evaluation counter.
func counted(f func(float64) float64, n *int) func(float64) float64 {
	return func(x float64) float64 { *n++; return f(x) }
}

// evalSlack bounds how many more evaluations BracketDecreasing may spend
// than Bisect on a monotone f, not counting the caller's f(x0).
const evalSlack = 12

// checkBracketMatchesBisect compares BracketDecreasing against
// BisectDecreasing bit for bit, and bounds its evaluation count. With
// known, the search is handed f(x0); otherwise it evaluates its own start.
func checkBracketMatchesBisect(t *testing.T, kind int, lo, hi, r1, r2, scale, x0, tol float64, known bool) {
	t.Helper()
	name, f := monotoneCase(kind, lo, hi, r1, r2, scale)
	f0 := math.NaN()
	if known {
		f0 = f(x0)
	}
	var nb, nr int
	want := BisectDecreasing(counted(f, &nb), lo, hi, tol)
	got := BracketDecreasing(counted(f, &nr), lo, hi, x0, f0, tol)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s on [%g, %g] (r=%g..%g, tol=%g, x0=%g, f0=%g): BracketDecreasing = %.17g, BisectDecreasing = %.17g",
			name, lo, hi, r1, r2, tol, x0, f0, got, want)
	}
	if nr > nb+evalSlack {
		t.Fatalf("%s on [%g, %g] (r=%g..%g, tol=%g, x0=%g, f0=%g): %d evaluations, Bisect used %d (bound %d+%d)",
			name, lo, hi, r1, r2, tol, x0, f0, nr, nb, nb, evalSlack)
	}
}

// TestBracketDecreasingMatchesBisect is the search's contract: for every
// non-increasing f and any start x0 in [lo, hi] (endpoints included), with
// or without f(x0) handed in, the result is BisectDecreasing's float, bit
// for bit, in at most evalSlack more evaluations than Bisect.
func TestBracketDecreasingMatchesBisect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tols := []float64{0, 1e-3, 1e-7, 1e-8, 1e-12}
	for trial := 0; trial < 4000; trial++ {
		lo := rng.Float64()*20 - 10
		hi := lo + math.Pow(10, rng.Float64()*4-2)
		if trial%5 == 0 {
			lo, hi = 1e-9, 1-1e-9 // the migration search's interval
		}
		r1 := lo + rng.Float64()*(hi-lo)
		r2 := r1 + rng.Float64()*(hi-r1)
		x0 := lo + rng.Float64()*(hi-lo)
		switch trial % 7 {
		case 0:
			x0 = lo
		case 1:
			x0 = hi
		case 2:
			x0 = r1 // start on the crossing
		}
		scale := math.Pow(10, rng.Float64()*6-3)
		checkBracketMatchesBisect(t, trial%monotoneKinds, lo, hi, r1, r2, scale, x0, tols[trial%len(tols)], trial%3 != 0)
	}
}

// TestBracketDecreasingClamps pins the boundary answers, exact zeros
// included, on the migration interval.
func TestBracketDecreasingClamps(t *testing.T) {
	lo, hi := 1e-9, 1-1e-9
	cases := []struct {
		name string
		f    func(float64) float64
		want float64
	}{
		{"all negative", func(x float64) float64 { return -1 - x }, lo},
		{"all positive", func(x float64) float64 { return 2 - x }, hi},
		{"zero at lo", func(x float64) float64 { return lo - x }, lo},
		{"zero at hi", func(x float64) float64 { return hi - x }, hi},
		{"identically zero", func(float64) float64 { return 0 }, lo},
		{"zero tail", func(x float64) float64 { return math.Max(0.3-x, 0) }, hi},
		{"zero head", func(x float64) float64 { return math.Min(0.3-x, 0) }, lo},
	}
	for _, c := range cases {
		for _, x0 := range []float64{lo, 0.01, 0.5, 0.99, hi} {
			for _, f0 := range []float64{c.f(x0), math.NaN()} {
				if got := BracketDecreasing(c.f, lo, hi, x0, f0, 1e-8); got != c.want {
					t.Errorf("%s from x0=%g, f0=%g: got %.17g, want %.17g", c.name, x0, f0, got, c.want)
				}
			}
		}
	}
}

// TestBracketDecreasingFewerEvaluations checks the point of the search: a
// start near the root costs a fraction of Bisect's evaluations.
func TestBracketDecreasingFewerEvaluations(t *testing.T) {
	lo, hi, tol := 1e-9, 1-1e-9, 1e-8
	f := func(x float64) float64 { return math.Tanh(4 * (0.37 - x)) }
	var nb, nr int
	want := BisectDecreasing(counted(f, &nb), lo, hi, tol)
	got := BracketDecreasing(counted(f, &nr), lo, hi, 0.4, f(0.4), tol)
	if got != want {
		t.Fatalf("got %.17g, want %.17g", got, want)
	}
	if 2*nr > nb {
		t.Fatalf("BracketDecreasing used %d evaluations from a nearby start, Bisect %d; want at most half", nr, nb)
	}
}

// TestBracketDecreasingNonMonotone checks the contract that survives
// without monotonicity: the result is the midpoint of an interval no wider
// than tol whose ends were evaluated with f > 0 on the left and f <= 0 on
// the right.
func TestBracketDecreasingNonMonotone(t *testing.T) {
	lo, hi, tol := 1e-9, 1-1e-9, 1e-8
	// Three crossings: near 0.2, 0.5 and 0.8.
	f := func(x float64) float64 { return -(x - 0.2) * (x - 0.5) * (x - 0.8) }
	for _, x0 := range []float64{0.1, 0.3, 0.45, 0.6, 0.9} {
		xs := []float64{x0}
		got := BracketDecreasing(func(x float64) float64 { xs = append(xs, x); return f(x) }, lo, hi, x0, f(x0), tol)
		a, b := math.Inf(-1), math.Inf(1)
		for _, x := range xs {
			if x <= got && x > a && f(x) > 0 {
				a = x
			}
			if x >= got && x < b && f(x) <= 0 {
				b = x
			}
		}
		if !(b-a <= tol) || math.Abs(got-(a+b)/2) > tol/2 {
			t.Fatalf("x0=%g: result %.17g is not within tol/2 of an evaluated sign change no wider than tol (a=%g, b=%g)", x0, got, a, b)
		}
	}
}
