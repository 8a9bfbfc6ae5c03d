package numeric

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoBracket is returned when a root finder is called on an interval whose
// endpoints do not bracket the target value.
var ErrNoBracket = errors.New("numeric: endpoints do not bracket a root")

// ErrMaxIterations is returned when an iterative method fails to reach the
// requested tolerance within its iteration budget.
var ErrMaxIterations = errors.New("numeric: maximum iterations exceeded")

// DefaultTol is the absolute tolerance used by solvers when the caller passes
// a non-positive tolerance. It is deliberately far from float64 epsilon: the
// model quantities (throughputs, surpluses) are O(1)–O(1e4), and equilibrium
// maps are Lipschitz, so 1e-10 is well below any economically meaningful
// difference while leaving bisection ~50 iterations.
const DefaultTol = 1e-10

const maxBisectIter = 200

// Bisect finds x in [lo, hi] with f(x) = 0 for a continuous f that is
// non-decreasing on the interval, to within absolute x-tolerance tol. If
// f(lo) > 0 it returns lo; if f(hi) < 0 it returns hi. This clamping variant
// is what the equilibrium solvers need: "no interior root" means the
// constraint binds at a boundary (e.g. capacity exceeds total demand), and
// the boundary is the correct answer rather than an error.
func Bisect(f func(float64) float64, lo, hi, tol float64) float64 {
	if tol <= 0 {
		tol = DefaultTol
	}
	if lo > hi {
		lo, hi = hi, lo
	}
	flo := f(lo)
	if flo >= 0 {
		return lo
	}
	fhi := f(hi)
	if fhi <= 0 {
		return hi
	}
	for i := 0; i < maxBisectIter && hi-lo > tol; i++ {
		mid := lo + (hi-lo)/2
		if f(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2
}

// BisectDecreasing is Bisect for a non-increasing f: it finds x with
// f(x) = 0, returning lo when f(lo) <= 0 and hi when f(hi) >= 0.
func BisectDecreasing(f func(float64) float64, lo, hi, tol float64) float64 {
	return Bisect(func(x float64) float64 { return -f(x) }, lo, hi, tol)
}

// bisectTree is the tree of intervals Bisect descends on [lo, hi] at
// tolerance tol. A node [l, h] at depth d is a leaf when h−l <= tol or d
// reaches maxBisectIter; otherwise it splits at l+(h−l)/2. The split points
// form the tree's lattice. Bisect evaluates f only at lo, hi and lattice
// points, and returns the midpoint of the leaf it ends in.
type bisectTree struct{ lo, hi, tol float64 }

// nearest returns the lattice point strictly inside (a, b) that is closest
// to t, for a < t < b. It replays Bisect's descent toward t, so the point
// is bit-identical to the one Bisect computes there. ok is false when
// (a, b) holds no lattice point.
//
// When a and b are lattice points or tree endpoints, the deepest node
// containing [a, b] lies on the path toward t, and its split point is
// strictly inside (a, b) unless that node is a leaf.
func (tr bisectTree) nearest(t, a, b float64) (p float64, ok bool) {
	l, h := tr.lo, tr.hi
	best := math.Inf(1)
	for i := 0; i < maxBisectIter && h-l > tr.tol; i++ {
		mid := l + (h-l)/2
		if a < mid && mid < b {
			if d := math.Abs(mid - t); d < best {
				p, best, ok = mid, d, true
			}
		}
		if t < mid {
			h = mid
		} else {
			l = mid
		}
	}
	return p, ok
}

// searchSlack is how many steps BracketDecreasing's narrowing may fall
// behind bisection on the bracket it starts from.
const searchSlack = 3

// leafMid returns the midpoint of the leaf that adjoins the tree point p on
// its right (right) or on its left, exactly as Bisect computes it there.
func (tr bisectTree) leafMid(p float64, right bool) float64 {
	l, h := tr.lo, tr.hi
	for i := 0; i < maxBisectIter && h-l > tr.tol; i++ {
		mid := l + (h-l)/2
		if p < mid || (!right && p <= mid) {
			h = mid
		} else {
			l = mid
		}
	}
	return l + (h-l)/2
}

// BracketDecreasing returns what BisectDecreasing(f, lo, hi, tol) returns,
// bit for bit, for a non-increasing f, with far fewer evaluations of f when
// the root lies near a known point x0 where f(x0) = f0. When x0 is not
// strictly inside (lo, hi), or f0 is NaN, the search evaluates f at the
// lattice point nearest x0 (or the middle) instead. x0 itself need not be
// a lattice point.
//
// From x0 it brackets the root outward, stepping by secant extrapolation
// through its last two points, at least doubling the step each time. It
// then narrows the bracket by Anderson–Björck regula falsi. Each step is
// held within the radius of the bracket's midpoint that keeps the search
// at most searchSlack steps behind bisection (the projection of the ITP
// method), so no f makes it much slower than Bisect. Every probe is snapped
// to the lattice of points Bisect would visit, so the search ends in the
// very leaf interval Bisect ends in, and returns its midpoint. The clamps
// match Bisect's, including exact zeros: lo when f(lo) <= 0, hi when
// f(hi) >= 0.
//
// For any f, monotone or not, an interior result is the midpoint of a leaf
// of Bisect's tree, no wider than tol, that holds an evaluated sign change:
// a point with f > 0 left of a point with f <= 0 (or f < 0 at hi). The
// crossing found then depends on x0 only when f has several. The package
// tests pin the evaluation count for monotone f at no more than Bisect's
// plus 12.
func BracketDecreasing(f func(float64) float64, lo, hi, x0, f0, tol float64) float64 {
	if tol <= 0 {
		tol = DefaultTol
	}
	if lo > hi {
		lo, hi = hi, lo
	}
	if !(hi-lo > tol) {
		// The whole interval is one leaf: Bisect only checks the clamps.
		return BisectDecreasing(f, lo, hi, tol)
	}
	tr := bisectTree{lo: lo, hi: hi, tol: tol}
	if !(x0 > lo && x0 < hi) {
		x0, f0 = lo+(hi-lo)/2, math.NaN()
	}
	if math.IsNaN(f0) {
		var ok bool
		if x0, ok = tr.nearest(x0, lo, hi); !ok {
			return BisectDecreasing(f, lo, hi, tol)
		}
		f0 = f(x0)
	}

	// Bracket outward from x0. p is the known point nearest the root and
	// q the one before it, both on the same side of the root.
	var a, fa, b, fb float64
	aStart, bStart := f0 > 0, !(f0 > 0) // which end x0 becomes
	neg := f0 < 0                       // an f < 0 seen: for monotone f, hi does not clamp
	dir, end := 1.0, hi
	if !aStart {
		dir, end = -1, lo
	}
	p, fp := x0, f0
	q, fq := math.NaN(), math.NaN()
	for step := (hi - lo) / 64; ; {
		d := step
		if dist := -fp * (p - q) / (fp - fq) * dir; dist > d {
			d = math.Min(dist, 8*step)
		}
		t := p + dir*d
		var c float64
		ok := false
		if dir > 0 && t < hi {
			c, ok = tr.nearest(t, p, hi)
		} else if dir < 0 && t > lo {
			c, ok = tr.nearest(t, lo, p)
		}
		if !ok {
			// The step runs past the end: the end decides.
			fe := f(end)
			if dir > 0 {
				if fe >= 0 {
					return hi
				}
				a, fa, b, fb, neg = p, fp, hi, fe, true
			} else {
				if fe <= 0 {
					return lo
				}
				a, fa, b, fb = lo, fe, p, fp
			}
			break
		}
		fc := f(c)
		neg = neg || fc < 0
		if (fc > 0) == (dir > 0) {
			q, fq, p, fp = p, fp, c, fc
			step = 2 * math.Abs(c-q)
			aStart, bStart = false, false
			continue
		}
		if dir > 0 {
			a, fa, b, fb = p, fp, c, fc
		} else {
			a, fa, b, fb = c, fc, p, fp
		}
		break
	}
	// Only exact zeros (or NaN) seen on the right: f(hi) may be zero too,
	// and then Bisect clamps to hi.
	if !neg && f(hi) >= 0 {
		return hi
	}

	// Narrow [a, b], f(a) > 0 >= f(b). side is the end the last probe
	// replaced: +1 for a, -1 for b.
	nmax := searchSlack
	if w := b - a; w > tol {
		nmax += int(math.Ceil(math.Log2(w / tol)))
	}
	side := 0
	for k := 0; ; k++ {
		width := b - a
		mid := a + width/2
		t := mid
		if s := b - fb*width/(fb-fa); s > a && s < b {
			t = s
		}
		r := math.Max(tol/2*math.Ldexp(1, nmax-k)-width/2, 0)
		t = math.Max(mid-r, math.Min(mid+r, t))
		c, ok := tr.nearest(t, a, b)
		if !ok {
			break
		}
		if fc := f(c); fc > 0 {
			if side == 1 {
				fb *= andersonBjorck(fc, fa)
			}
			a, fa, side, aStart = c, fc, 1, false
		} else {
			if side == -1 {
				fa *= andersonBjorck(fc, fb)
			}
			b, fb, side, bStart = c, fc, -1, false
		}
	}
	switch {
	case aStart:
		return tr.leafMid(b, false)
	case bStart:
		return tr.leafMid(a, true)
	}
	return a + (b-a)/2
}

// andersonBjorck is the factor by which regula falsi scales the value at
// the end it keeps when the other end is replaced twice running, fNew
// replacing fOld: 1 − fNew/fOld, or ½ (Illinois) when that is not positive.
func andersonBjorck(fNew, fOld float64) float64 {
	if m := 1 - fNew/fOld; m > 0 {
		return m
	}
	return 0.5
}

// BisectStrict finds a root of a continuous (not necessarily monotone) f in
// [lo, hi]. Unlike Bisect it requires a sign change and returns ErrNoBracket
// otherwise.
func BisectStrict(f func(float64) float64, lo, hi, tol float64) (float64, error) {
	if tol <= 0 {
		tol = DefaultTol
	}
	if lo > hi {
		lo, hi = hi, lo
	}
	flo, fhi := f(lo), f(hi)
	//pubopt:allow(floatcmp): an exact zero at the bracket endpoint IS the root; tolerance belongs to the interval, not f
	if flo == 0 {
		return lo, nil
	}
	if fhi == 0 { //pubopt:allow(floatcmp): exact root at the other endpoint
		return hi, nil
	}
	if (flo > 0) == (fhi > 0) {
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrNoBracket, lo, flo, hi, fhi)
	}
	for i := 0; i < maxBisectIter && hi-lo > tol; i++ {
		mid := lo + (hi-lo)/2
		fm := f(mid)
		if fm == 0 { //pubopt:allow(floatcmp): an exact zero terminates bisection early; near-zero keeps shrinking the bracket
			return mid, nil
		}
		if (fm > 0) == (fhi > 0) {
			hi, fhi = mid, fm
		} else {
			lo = mid
		}
	}
	return lo + (hi-lo)/2, nil
}

// Brent finds a root of continuous f in [lo, hi] using Brent's method
// (inverse quadratic interpolation with bisection fallback), which converges
// superlinearly on smooth functions while retaining bisection's robustness.
// The endpoints must bracket a root; otherwise ErrNoBracket is returned.
func Brent(f func(float64) float64, lo, hi, tol float64) (float64, error) {
	if tol <= 0 {
		tol = DefaultTol
	}
	a, b := lo, hi
	fa, fb := f(a), f(b)
	if fa == 0 { //pubopt:allow(floatcmp): exact root at Brent's left endpoint
		return a, nil
	}
	if fb == 0 { //pubopt:allow(floatcmp): exact root at Brent's right endpoint
		return b, nil
	}
	if (fa > 0) == (fb > 0) {
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrNoBracket, a, fa, b, fb)
	}
	if math.Abs(fa) < math.Abs(fb) {
		a, b, fa, fb = b, a, fb, fa
	}
	c, fc := a, fa
	mflag := true
	var d float64
	for i := 0; i < maxBisectIter; i++ {
		if fb == 0 || math.Abs(b-a) < tol { //pubopt:allow(floatcmp): exact zero ends the iteration; the tolerance test beside it handles near-zeros
			return b, nil
		}
		var s float64
		if fa != fc && fb != fc { //pubopt:allow(floatcmp): inverse quadratic interpolation divides by these exact differences; equal ordinates must fall back to secant
			// Inverse quadratic interpolation.
			s = a*fb*fc/((fa-fb)*(fa-fc)) +
				b*fa*fc/((fb-fa)*(fb-fc)) +
				c*fa*fb/((fc-fa)*(fc-fb))
		} else {
			// Secant step.
			s = b - fb*(b-a)/(fb-fa)
		}
		lo3, hi3 := (3*a+b)/4, b
		if lo3 > hi3 {
			lo3, hi3 = hi3, lo3
		}
		cond := s < lo3 || s > hi3 ||
			(mflag && math.Abs(s-b) >= math.Abs(b-c)/2) ||
			(!mflag && math.Abs(s-b) >= math.Abs(c-d)/2) ||
			(mflag && math.Abs(b-c) < tol) ||
			(!mflag && math.Abs(c-d) < tol)
		if cond {
			s = (a + b) / 2
			mflag = true
		} else {
			mflag = false
		}
		fs := f(s)
		d = c
		c, fc = b, fb
		if (fa > 0) != (fs > 0) {
			b, fb = s, fs
		} else {
			a, fa = s, fs
		}
		if math.Abs(fa) < math.Abs(fb) {
			a, b, fa, fb = b, a, fb, fa
		}
	}
	return b, ErrMaxIterations
}

// FixedPoint iterates x <- damping*g(x) + (1-damping)*x from x0 until
// successive iterates differ by less than tol, returning the final iterate
// and whether it converged within maxIter steps. Damping in (0, 1] trades
// speed for stability on oscillating maps; 1 is plain Picard iteration.
func FixedPoint(g func(float64) float64, x0, damping, tol float64, maxIter int) (float64, bool) {
	if tol <= 0 {
		tol = DefaultTol
	}
	if damping <= 0 || damping > 1 {
		damping = 1
	}
	if maxIter <= 0 {
		maxIter = 500
	}
	x := x0
	for i := 0; i < maxIter; i++ {
		next := damping*g(x) + (1-damping)*x
		if math.Abs(next-x) < tol {
			return next, true
		}
		x = next
	}
	return x, false
}
