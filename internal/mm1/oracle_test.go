package mm1

import (
	"fmt"
	"math"
	"testing"

	"github.com/netecon-sim/publicoption/internal/demand"
	"github.com/netecon-sim/publicoption/internal/numeric"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

// referenceSolve is Solve as it was before the bracketed search: the load
// recomputed from the CP records on every evaluation, and a plain doubling +
// bisection for W. It is the oracle Solve must match bit for bit.
func referenceSolve(nu float64, pop traffic.Population) *Equilibrium {
	eq := &Equilibrium{Nu: nu, Pop: pop, Loads: make([]float64, len(pop))}
	if len(pop) == 0 {
		return eq
	}
	//pubopt:allow(floatcmp): ν=0 is the exact zero-capacity sentinel, as in Solve
	if nu == 0 {
		eq.W = math.Inf(1)
		return eq
	}
	loadAt := func(w float64) float64 {
		var s float64
		for i := range pop {
			s += pop[i].UnconstrainedPerCapitaRate() * math.Exp(-gamma(&pop[i])*w)
		}
		return s
	}
	f := func(w float64) float64 { return loadAt(w) - nu + 1/w }
	lo := 1/nu + 1e-15
	hi := lo * 2
	for f(hi) > 0 && hi < 1e18 {
		hi *= 2
	}
	w := numeric.BisectDecreasing(f, lo, hi, 1e-12*hi)
	eq.W = w
	for i := range pop {
		eq.Loads[i] = pop[i].UnconstrainedPerCapitaRate() * math.Exp(-gamma(&pop[i])*w)
	}
	return eq
}

// mixedPopulation draws n CPs whose demand curves cycle through every
// family: exponential (with β down to 0, below gamma's 1e-6 floor),
// constant, linear, power, smooth-step and piecewise. Only the exponential
// family carries a delay sensitivity of its own; the rest map to γ = 1.
func mixedPopulation(rng *numeric.RNG, n int) traffic.Population {
	piecewise, err := demand.NewPiecewise([]float64{0, 0.5, 1}, []float64{0, 0.3, 1})
	if err != nil {
		panic(err)
	}
	pop := make(traffic.Population, n)
	for i := range pop {
		var curve demand.Curve
		switch i % 7 {
		case 0:
			curve = demand.Exponential{Beta: rng.Uniform(0, 10)}
		case 1:
			curve = demand.Exponential{Beta: rng.Uniform(0, 2e-6)}
		case 2:
			curve = demand.Constant{}
		case 3:
			curve = demand.Linear{Floor: rng.Uniform(0, 1)}
		case 4:
			curve = demand.Power{Gamma: rng.Uniform(0.5, 4)}
		case 5:
			curve = demand.SmoothStep{T: rng.Uniform(0.1, 0.9), K: rng.Uniform(1, 20)}
		default:
			curve = piecewise
		}
		pop[i] = traffic.CP{
			Name:     fmt.Sprintf("cp-%d", i),
			Alpha:    rng.UniformOpen(0, 1),
			ThetaHat: rng.UniformOpen(0, 1),
			V:        rng.Uniform(0, 1),
			Phi:      rng.Uniform(0, 5),
			Curve:    curve,
		}
	}
	return pop
}

// TestSolveMatchesBisectionOracle pins Solve to the doubling + bisection
// reference bit for bit, in W and in every carried load, across random
// mixed-family populations and capacities from 10⁻³ to 10 times saturation,
// plus the ν = 0 and empty-population edges.
func TestSolveMatchesBisectionOracle(t *testing.T) {
	rng := numeric.NewRNG(15)
	check := func(nu float64, pop traffic.Population) {
		t.Helper()
		got, want := Solve(nu, pop), referenceSolve(nu, pop)
		if math.Float64bits(got.W) != math.Float64bits(want.W) {
			t.Fatalf("ν=%.17g, %d CPs: W = %.17g, oracle %.17g", nu, len(pop), got.W, want.W)
		}
		if len(got.Loads) != len(want.Loads) {
			t.Fatalf("ν=%.17g: %d loads, oracle %d", nu, len(got.Loads), len(want.Loads))
		}
		for i := range want.Loads {
			if math.Float64bits(got.Loads[i]) != math.Float64bits(want.Loads[i]) {
				t.Fatalf("ν=%.17g: load[%d] = %.17g, oracle %.17g", nu, i, got.Loads[i], want.Loads[i])
			}
		}
	}
	for trial := 0; trial < 60; trial++ {
		pop := mixedPopulation(rng, 1+rng.Intn(300))
		sat := pop.TotalUnconstrainedPerCapita()
		check(0, pop)
		for j := 0; j < 8; j++ {
			// Log-uniform on [1e-3, 10]·sat.
			check(sat*math.Pow(10, rng.Uniform(-3, 1)), pop)
		}
		check(1e-3*sat, pop)
		check(10*sat, pop)
	}
	for _, nu := range []float64{0, 1e-3, 1, 1e3} {
		check(nu, nil)
	}
	// The paper's exponential ensemble, where γ_i = β_i throughout.
	pop := ensemble(9, 240)
	sat := pop.TotalUnconstrainedPerCapita()
	for _, k := range []float64{1e-3, 0.01, 0.1, 0.4, 1, 2, 10} {
		check(k*sat, pop)
	}
}

// solveSink keeps BenchmarkSolve's result live.
var solveSink *Equilibrium

// BenchmarkSolve times one class delay solve on the paper ensemble at 240
// and 1000 CPs, at a capacity below saturation where the queue is loaded.
func BenchmarkSolve(b *testing.B) {
	for _, n := range []int{240, 1000} {
		pop := ensemble(7, n)
		nu := 0.4 * pop.TotalUnconstrainedPerCapita()
		b.Run(fmt.Sprintf("cps=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				solveSink = Solve(nu, pop)
			}
		})
	}
}
