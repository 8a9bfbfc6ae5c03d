package numeric

import (
	"math"
	"testing"
)

// FuzzRootfind throws arbitrary cubics and brackets at the four root
// finders. The contract under fuzzing: no input — including NaN, ±Inf, and
// inverted or degenerate brackets — may panic; whenever the bracket is
// finite, every returned root lies inside it (Bisect clamps by contract,
// the strict finders bisect inward from the endpoints); and a reported
// success from the strict finders implies the bracket really had a sign
// change or an exact zero to find.
func FuzzRootfind(f *testing.F) {
	f.Add(1.0, 0.0, -2.0, 0.0, 2.0, 1e-10)  // x³ = 2
	f.Add(0.5, -3.0, 1.0, -4.0, 4.0, 1e-8)  // three real roots
	f.Add(0.0, 0.0, 0.0, 0.0, 1.0, 1e-12)   // identically zero
	f.Add(0.0, 1.0, -0.25, -1.0, 1.0, 0.0)  // linear, tol defaulted
	f.Add(2.0, -1.0, 0.5, 3.0, -3.0, 1e-10) // inverted bracket
	f.Add(1.0, 1.0, 1.0, 5.0, 5.0, 1e-10)   // degenerate bracket
	f.Fuzz(func(t *testing.T, a, b, c, lo, hi, tol float64) {
		cubic := func(x float64) float64 { return ((a*x)*x+b)*x + c }

		// None of these calls may panic, whatever the inputs.
		x := Bisect(cubic, lo, hi, tol)
		xs, errS := BisectStrict(cubic, lo, hi, tol)
		xb, errB := Brent(cubic, lo, hi, tol)
		xr := BracketDecreasing(cubic, lo, hi, (lo+hi)/2, cubic((lo+hi)/2), tol)

		finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
		if !finite(lo) || !finite(hi) {
			return // containment is only meaningful for a real interval
		}
		l, h := math.Min(lo, hi), math.Max(lo, hi)
		// Slack for the final midpoint arithmetic at extreme magnitudes.
		slack := 1e-9 * (1 + math.Abs(l) + math.Abs(h))
		if finite(x) && (x < l-slack || x > h+slack) {
			t.Fatalf("Bisect escaped the bracket: x=%g outside [%g, %g] (a=%g b=%g c=%g tol=%g)", x, l, h, a, b, c, tol)
		}
		if finite(xr) && (xr < l-slack || xr > h+slack) {
			t.Fatalf("BracketDecreasing escaped the bracket: x=%g outside [%g, %g] (a=%g b=%g c=%g tol=%g)", xr, l, h, a, b, c, tol)
		}
		if errS == nil && (xs < l-slack || xs > h+slack) {
			t.Fatalf("BisectStrict escaped the bracket: x=%g outside [%g, %g] (a=%g b=%g c=%g tol=%g)", xs, l, h, a, b, c, tol)
		}
		if errB == nil && (xb < l-slack || xb > h+slack) {
			t.Fatalf("Brent escaped the bracket: x=%g outside [%g, %g] (a=%g b=%g c=%g tol=%g)", xb, l, h, a, b, c, tol)
		}
	})
}

// FuzzBracketDecreasing holds BracketDecreasing to its contract on the
// monotone shapes of monotoneCase: BisectDecreasing's float bit for bit,
// from any start in [lo, hi], with or without f(x0) handed in, within
// evalSlack more evaluations than Bisect. The
// fuzzed fractions place the crossing, the plateau end and the start inside
// a finite interval of fuzzed position and width.
func FuzzBracketDecreasing(f *testing.F) {
	f.Add(uint8(0), 1e-9, 1-2e-9, 0.3, 0.5, 0.4, 1.0, 8.0, true)
	f.Add(uint8(2), -3.0, 0.01, 0.5, 0.9, 0.0, 1e3, 12.0, false)
	f.Add(uint8(4), 5.0, 2.0, 0.2, 0.6, 1.0, 1e-3, 7.0, true)
	f.Add(uint8(5), 0.0, 1.0, 0.7, 0.7, 0.1, 1.0, 0.0, true)
	f.Add(uint8(11), 1e-9, 1-2e-9, 0.999, 1.0, 0.001, 1.0, 8.0, false)
	f.Fuzz(func(t *testing.T, kind uint8, lo, width, p1, p2, px, scale, tolExp float64, known bool) {
		frac := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0.5
			}
			return math.Abs(v - math.Trunc(v))
		}
		if math.IsNaN(lo) || math.Abs(lo) > 1e3 || math.IsNaN(width) || width <= 1e-6 || width > 1e3 {
			return
		}
		if math.IsNaN(scale) || scale <= 1e-6 || scale > 1e6 || math.IsNaN(tolExp) || tolExp < 0 || tolExp > 14 {
			return
		}
		hi := lo + width
		r1 := lo + frac(p1)*width
		r2 := r1 + frac(p2)*(hi-r1)
		x0 := lo + frac(px)*width
		tol := math.Pow(10, -tolExp) * width
		checkBracketMatchesBisect(t, int(kind)%monotoneKinds, lo, hi, r1, r2, scale, x0, tol, known)
	})
}
