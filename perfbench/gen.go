package main

import (
	"encoding/json"
	"math/rand/v2"

	"github.com/netecon-sim/publicoption/internal/scenario"
)

// Workload names, as passed to --workload; -all runs them in this order.
const (
	wGridDense  = "grid-dense"
	wGridRefine = "grid-refine"
	wSimStream  = "sim-stream"
)

var workloads = []string{wGridDense, wGridRefine, wSimStream}

// The load parameters below are the benchmark's yardstick: a change that
// edits any of them is compared against a different benchmark.
const (
	// connections bounds the load generator's concurrent connections, and
	// each closed-loop workload runs one client per connection.
	connections = 2
	// setupRepeats is how many times a run starts and primes a server;
	// setup_s is the median, and the last server takes the load. One
	// set-up takes about 0.15 s, and back-to-back set-ups vary by ±30%.
	setupRepeats = 5

	// grid-dense: γ×ν and σ×ν grids of denseCols columns × 2 rows at
	// denseCPs content providers, and 2×2 c×κ maps at ckappaCPs. Every
	// resubmitEvery-th request of a client re-submits its previous grid
	// with the row axis extended by one value.
	denseCPs      = 1000
	ckappaCPs     = 150
	denseCols     = 4
	resubmitEvery = 4

	// grid-refine: γ×ν seed grids of refineCols columns × 2 rows at
	// refineCPs, refined to refineDepth with refineProbes probes.
	refineCPs    = 70
	refineCols   = 3
	refineDepth  = 3
	refineProbes = 8

	// sim-stream: dyn-* scenarios at simCPs content providers.
	simCPs = 240

	// Warm requests each client sends after every stream request, so hit
	// and query latency is measured under each workload's solver load. The
	// queries go to a small refined grid at queryCPs, built from the fixed
	// population seed querySeed (see streamQueryGrid).
	warmHits    = 2
	warmQueries = 2
	queryCPs    = 100
	querySeed   = 2

	// The cold 1-D runs the traced run times through Scenario.Run: ν
	// sweeps of missPoints points at missCPs.
	missCPs    = 200
	missPoints = 4

	// sampleChecks is how many streamed requests per run are recomputed
	// in-process and compared.
	sampleChecks = 2
	// traceRequests is how many stream requests per client the traced
	// run replays.
	traceRequests = 6
)

// hitScenarios are registered 1-D scenarios of several response sizes,
// primed at set-up and replayed as warm /v1/runs hits.
var hitScenarios = []string{"archetypes-capacity", "neutral-baseline", "monopoly-price-sweep", "monopoly-capacity"}

// kind is a request class.
type kind int

const (
	kGrid   kind = iota // dense grid stream, POST /v1/batch
	kRefine             // refined grid stream, POST /v1/batch with "refine"
	kSim                // dynamics stream, POST /v1/simulate
	kHit                // warm registered run, POST /v1/runs
	kQuery              // warm surrogate query, POST /v1/query
)

func (k kind) String() string {
	return [...]string{"grid", "refine", "sim", "hit", "query"}[k]
}

func (k kind) stream() bool { return k <= kSim }

// request is one generated HTTP request plus what the checks need to know
// about it.
type request struct {
	Kind   kind
	Method string
	Path   string
	Body   []byte
	// Spec is the inline scenario the request carries (nil for hits).
	Spec *scenario.Scenario
	// Name is a hit's registered scenario.
	Name string
	// Resubmit marks a grid that re-submits the client's previous grid with
	// its row axis extended by one value; PrevCells is the previous grid's
	// cell count, which the re-submit must answer from the cache.
	Resubmit  bool
	PrevCells int
	// X, Y are a query's point.
	X, Y float64
}

// rngFor derives an independent deterministic stream from the run seed.
func rngFor(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

func popSeed(r *rand.Rand) uint64 { return r.Uint64N(1<<40) + 1 }

// Stream ids keep every generator's draws independent of the others.
const (
	streamStream = 1 << 8
	streamWarm   = 2 << 8
	streamChecks = 4 << 8
)

func workloadID(w string) uint64 {
	for i, name := range workloads {
		if name == w {
			return uint64(i)
		}
	}
	return 99
}

func duopoly(c float64) []scenario.ProviderSpec {
	return []scenario.ProviderSpec{
		{Name: "incumbent", Gamma: 0.5, Kappa: 1, C: c},
		{Name: "public-option", Gamma: 0.5, PublicOption: true},
	}
}

func ensemble(n int, seed uint64) scenario.PopulationSpec {
	return scenario.PopulationSpec{Kind: "ensemble", N: n, Seed: seed}
}

// gammaNu is the po-sizing-gamma-nu family: Public Option capacity share γ
// (columns) × per-capita capacity ν (rows, as fractions of saturation).
func gammaNu(cps int, seed uint64, c float64, cols int, nus []float64) *scenario.Scenario {
	return &scenario.Scenario{
		Name: "bench-gamma-nu", Title: "benchmark γ×ν grid",
		Population: ensemble(cps, seed),
		Providers:  duopoly(c),
		Sweep: scenario.SweepSpec{
			Axis: scenario.AxisPOShare, Lo: 0.05, Hi: 0.5, Points: cols, OfSaturation: true,
			Metrics: []string{"phi", "share"},
			Grid:    &scenario.GridSpec{Axis: scenario.AxisNu, Values: nus},
		},
	}
}

// sigmaNu is the po-rebate-sigma-nu family: rebate share σ × capacity ν.
func sigmaNu(cps int, seed uint64, cols int, nus []float64) *scenario.Scenario {
	return &scenario.Scenario{
		Name: "bench-sigma-nu", Title: "benchmark σ×ν grid",
		Population: ensemble(cps, seed),
		Providers:  duopoly(0.5),
		Sweep: scenario.SweepSpec{
			Axis: scenario.AxisSigma, Hi: 1, Points: cols, OfSaturation: true,
			Metrics: []string{"phi", "share"},
			Grid:    &scenario.GridSpec{Axis: scenario.AxisNu, Values: nus},
		},
	}
}

// cKappa is the duopoly-price-kappa strategy-map family: premium price c ×
// premium capacity fraction κ at fixed ν.
func cKappa(cps int, seed uint64, kappas []float64) *scenario.Scenario {
	return &scenario.Scenario{
		Name: "bench-c-kappa", Title: "benchmark c×κ strategy map",
		Population: ensemble(cps, seed),
		Providers:  duopoly(0.5),
		Sweep: scenario.SweepSpec{
			Axis: scenario.AxisPrice, Lo: 0.2, Hi: 1, Points: 2, OfSaturation: true, Nu: 0.4,
			Metrics: []string{"phi", "psi", "share"},
			Grid:    &scenario.GridSpec{Axis: scenario.AxisKappa, Values: kappas},
		},
	}
}

// streamGen generates one closed-loop client's stream requests. The
// sequence depends only on (seed, workload, client), never on timing.
type streamGen struct {
	workload string
	client   int
	rng      *rand.Rand
	n, fresh int
	prev     *scenario.Scenario
}

func newStreamGen(workload string, seed uint64, client int) *streamGen {
	return &streamGen{
		workload: workload, client: client,
		rng: rngFor(seed, streamStream|workloadID(workload)<<4|uint64(client)),
	}
}

var simFamilies = []string{"dyn-convergence", "dyn-oscillation", "dyn-demand-shock", "dyn-po-entry"}

func (g *streamGen) next() request {
	g.n++
	switch g.workload {
	case wGridDense:
		return g.nextDense()
	case wGridRefine:
		g.fresh++
		a := 0.2 + 0.1*g.rng.Float64()
		sc := gammaNu(refineCPs, popSeed(g.rng), 0.3+0.2*g.rng.Float64(), refineCols, []float64{a, a + 0.3})
		sc.Sweep.Grid.Refine = &scenario.RefineSpec{MaxDepth: refineDepth, Probes: refineProbes, Seed: g.rng.Uint64N(1<<20) + 1}
		return batchRequest(kRefine, sc, false)
	case wSimStream:
		family := simFamilies[(g.fresh+g.client)%len(simFamilies)]
		g.fresh++
		sc, _ := scenario.Get(family)
		sc.Name = "bench-" + family
		sc.Description, sc.Reference = "", ""
		sc.Population.N = simCPs
		sc.Population.Seed = popSeed(g.rng)
		return request{Kind: kSim, Method: "POST", Path: "/v1/simulate", Spec: sc,
			Body: mustJSON(map[string]any{"scenario_json": sc})}
	}
	panic("no stream generator for workload " + g.workload)
}

func (g *streamGen) nextDense() request {
	if g.prev != nil && g.n%resubmitEvery == 0 {
		sc := *g.prev
		grid := *sc.Sweep.Grid
		vs := grid.Values
		grid.Values = append(append([]float64(nil), vs...), vs[len(vs)-1]+(vs[1]-vs[0]))
		sc.Sweep.Grid = &grid
		g.prev = nil
		r := batchRequest(kGrid, &sc, true)
		r.PrevCells = sc.Sweep.Points * len(vs)
		return r
	}
	shape := (g.fresh + g.client) % 3
	g.fresh++
	seed := popSeed(g.rng)
	a := 0.2 + 0.1*g.rng.Float64()
	var sc *scenario.Scenario
	switch shape {
	case 0:
		sc = gammaNu(denseCPs, seed, 0.3+0.2*g.rng.Float64(), denseCols, []float64{a, a + 0.2})
	case 1:
		sc = sigmaNu(denseCPs, seed, denseCols, []float64{a, a + 0.2})
	default:
		sc = cKappa(ckappaCPs, seed, []float64{0.25, 0.5})
	}
	g.prev = sc
	return batchRequest(kGrid, sc, false)
}

func batchRequest(k kind, sc *scenario.Scenario, resubmit bool) request {
	body := map[string]any{"grid_json": sc}
	if k == kRefine {
		body["refine"] = true
	}
	return request{Kind: k, Method: "POST", Path: "/v1/batch", Spec: sc, Resubmit: resubmit, Body: mustJSON(body)}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// bounds is a grid's resolved coordinate box.
type bounds struct{ X0, X1, Y0, Y1 float64 }

func gridBounds(sc *scenario.Scenario) (bounds, error) {
	job, err := sc.CompileGrid()
	if err != nil {
		return bounds{}, err
	}
	return bounds{job.Xs[0], job.Xs[len(job.Xs)-1], job.Ys[0], job.Ys[len(job.Ys)-1]}, nil
}

// warmGen generates one client's warm requests: registered runs primed at
// set-up, and points of the surrogate primed at set-up.
type warmGen struct {
	rng  *rand.Rand
	grid *scenario.Scenario // the queried refined grid
	box  bounds
	hits int
}

// hit cycles through the hit scenarios, so each stays recently used: a
// stream workload that outgrows the LRU bound must not evict them.
func (w *warmGen) hit() request {
	w.hits++
	return hitRequest(hitScenarios[w.hits%len(hitScenarios)])
}

func hitRequest(name string) request {
	return request{Kind: kHit, Method: "POST", Path: "/v1/runs", Name: name,
		Body: mustJSON(map[string]string{"scenario": name})}
}

func (w *warmGen) query() request {
	x := w.box.X0 + (w.box.X1-w.box.X0)*w.rng.Float64()
	y := w.box.Y0 + (w.box.Y1-w.box.Y0)*w.rng.Float64()
	return request{Kind: kQuery, Method: "POST", Path: "/v1/query", Spec: w.grid, X: x, Y: y,
		Body: mustJSON(map[string]any{"grid_json": w.grid, "x": x, "y": y})}
}

// streamQueryGrid is the small refined grid every workload primes and
// queries: the γ×ν family on a small fixed ensemble, cheap to build at
// set-up. It is the same for every seed (only the query points are
// seeded), because a seed-dependent surface may fail verification, and
// queries on an unverified surrogate fall back to solving.
func streamQueryGrid() *scenario.Scenario {
	sc := gammaNu(queryCPs, querySeed, 0.4, 3, []float64{0.2, 0.4})
	sc.Name = "bench-query-grid"
	sc.Sweep.Grid.Refine = &scenario.RefineSpec{MaxDepth: 2}
	return sc
}

// newWarmGen builds the warm-request generator of one client.
func newWarmGen(workload string, seed uint64, client int) (*warmGen, error) {
	w := &warmGen{rng: rngFor(seed, streamWarm|workloadID(workload)<<4|uint64(client)), hits: client, grid: streamQueryGrid()}
	box, err := gridBounds(w.grid)
	if err != nil {
		return nil, err
	}
	w.box = box
	return w, nil
}

// missScenario is a cold inline 1-D run: a duopoly ν sweep on a fresh
// ensemble, so a server would always miss its cache.
func missScenario(r *rand.Rand) *scenario.Scenario {
	return &scenario.Scenario{
		Name: "bench-miss", Title: "benchmark cold 1-D run",
		Population: ensemble(missCPs, popSeed(r)),
		Providers:  duopoly(0.4),
		Sweep: scenario.SweepSpec{
			Axis: scenario.AxisNu, Lo: 0.1, Hi: 1, Points: missPoints, OfSaturation: true,
			Metrics: []string{"phi", "share"},
		},
	}
}
