package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"github.com/netecon-sim/publicoption/internal/alloc"
	"github.com/netecon-sim/publicoption/internal/cache"
	"github.com/netecon-sim/publicoption/internal/core"
	"github.com/netecon-sim/publicoption/internal/dynamics"
	"github.com/netecon-sim/publicoption/internal/refine"
	"github.com/netecon-sim/publicoption/internal/scenario"
	"github.com/netecon-sim/publicoption/internal/service"
	"github.com/netecon-sim/publicoption/internal/sweep"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

// inputs are the generated requests a traced run replays: the workload's
// own fixed request list, plus, for every layer the workload does not
// exercise, a small sample from the generator of the workload that does,
// so every per-layer metric is measured on every workload.
type inputs struct {
	replay []request // the workload's fixed request list, in order
	grids  []request // dense grids (fresh ones only)
	refine []request
	sims   []request
	misses []*scenario.Scenario // cold 1-D runs
	warm   *warmGen
}

func traceInputs(workload string, seed uint64) (*inputs, error) {
	in := &inputs{}
	warm, err := newWarmGen(workload, seed, 0)
	if err != nil {
		return nil, err
	}
	in.warm = warm
	firstN := func(w string, n int) []request {
		var out []request
		gens := []*streamGen{newStreamGen(w, seed, 0), newStreamGen(w, seed, 1)}
		for i := 0; i < n; i++ {
			for _, g := range gens {
				out = append(out, g.next())
			}
		}
		return out
	}
	in.replay = firstN(workload, traceRequests)
	// Layer inputs: the workload's own where it has them, else a sample.
	pick := func(w string, k kind, n int) []request {
		src := in.replay
		if w != workload {
			src = firstN(w, n)
		}
		var out []request
		for _, r := range src {
			if r.Kind == k && !r.Resubmit {
				out = append(out, r)
			}
		}
		return out
	}
	in.grids = pick(wGridDense, kGrid, 2)
	in.refine = pick(wGridRefine, kRefine, 1)
	in.sims = pick(wSimStream, kSim, 1)
	r := rngFor(seed, streamChecks|99)
	in.misses = []*scenario.Scenario{missScenario(r), missScenario(r)}
	return in, nil
}

// layerStats accumulates one layer's samples.
type layerStats struct {
	times                    []float64
	solves, allocs, restarts float64
}

func (l *layerStats) add(d time.Duration, unit time.Duration) {
	l.times = append(l.times, float64(d)/float64(unit))
}

// per divides a layer total by the number of timed calls.
func (l *layerStats) per(x float64) float64 {
	if len(l.times) == 0 {
		return 0
	}
	return x / float64(len(l.times))
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// runTrace is the traced per-layer run: it replays the workload's
// generated inputs in-process, first through the whole service (for the
// deterministic work counts and the stream overhead), then layer by layer
// through each layer's public functions.
func runTrace(ctx context.Context, rep *report, outDir, workload string, seed uint64) (*output, error) {
	in, err := traceInputs(workload, seed)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	m := map[string]metric{}
	put := func(name, unit string, v float64) {
		m[name] = metric{v, unit}
		rep.printf("%-34s %14.6g %s", name, v, unit)
	}
	failed, attempted := 0, 0
	var failures []string
	fail := func(err error) {
		failed++
		if len(failures) < 5 {
			failures = append(failures, err.Error())
		}
	}

	// --- Service: the fixed replay through a real HTTP stack in-process.
	srv := service.New(service.Options{})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	primed, err := prime(ctx, hc, hs.URL, in.warm)
	if err != nil {
		return nil, err
	}
	chk := &checker{primed: primed}
	before, err := scrape(ctx, hc, hs.URL)
	if err != nil {
		return nil, err
	}
	var results []result
	tr.timed("replay", "service.replay", 0, func(id int) {
		for i := range in.replay {
			req := &in.replay[i]
			var r result
			tr.timed("replay", "service."+req.Kind.String(), id, func(int) { r = do(ctx, hc, hs.URL, req) })
			results = append(results, r)
		}
	})
	after, err := scrape(ctx, hc, hs.URL)
	if err != nil {
		return nil, err
	}
	units := 0
	var doneMS, clientMS float64
	for i := range results {
		attempted++
		s, err := chk.check(&results[i])
		if err != nil {
			fail(err)
			continue
		}
		units += s.Solved
		if results[i].Req.Kind.stream() {
			doneMS += s.Done.ElapsedMS
			clientMS += ms(results[i].End.Sub(results[i].Sent))
		}
	}
	work := delta(before, after)
	frameSum := after["pubopt_batch_frame_write_seconds_sum"] - before["pubopt_batch_frame_write_seconds_sum"]
	frameCount := after["pubopt_batch_frame_write_seconds_count"] - before["pubopt_batch_frame_write_seconds_count"]
	// The layer replays below run in-process; stop the HTTP stack so its
	// goroutines do not allocate into the per-call allocation counts.
	hc.CloseIdleConnections()
	hs.Close()
	put("service.frame_write_us", "us", frameSum/max(frameCount, 1)*1e6)
	put("service.stream_overhead_share", "share", 1-doneMS/max(clientMS, 1e-9))
	lookups := work["pubopt_cache_hits_total"] + work["pubopt_cache_misses_total"] + work["pubopt_cache_coalesced_total"]
	put("cache.hit_ratio", "share", work["pubopt_cache_hits_total"]/max(lookups, 1))
	put("cache.evictions", "count", work["pubopt_cache_evictions_total"])
	for _, c := range []struct{ name, counter string }{
		{"work.solver_solves", "pubopt_solver_solves_total"},
		{"work.solver_evals", "pubopt_solver_evals_total"},
		{"work.solver_bisections", "pubopt_solver_bisections_total"},
		{"work.solver_cycle_restarts", "pubopt_solver_cycle_restarts_total"},
		{"work.sim_ticks", "pubopt_sim_ticks_total"},
		{"work.refine_points_solved", "pubopt_refine_points_solved_total"},
		{"work.refine_probe_solves", "pubopt_refine_probe_solves_total"},
		{"work.cache_hits", "pubopt_cache_hits_total"},
		{"work.cache_misses", "pubopt_cache_misses_total"},
	} {
		put(c.name, "count", work[c.counter])
	}
	put("work.solves_per_unit", "solves/unit", work["pubopt_solver_solves_total"]/max(float64(units), 1))
	put("work.evals_per_solve", "evals/solve", work["pubopt_solver_evals_total"]/max(work["pubopt_solver_solves_total"], 1))
	reportWork(rep, work, units)

	// --- Service handlers in-process, on primed requests.
	serve := func(req *request) (time.Duration, int, []byte) {
		var body *bytes.Reader
		if req.Body != nil {
			body = bytes.NewReader(req.Body)
		} else {
			body = bytes.NewReader(nil)
		}
		hr := httptest.NewRequest(req.Method, req.Path, body)
		rec := httptest.NewRecorder()
		d := tr.timed("handlers", "service."+req.Kind.String()+"_handler", 0, func(int) { srv.ServeHTTP(rec, hr) })
		return d, rec.Code, rec.Body.Bytes()
	}
	var hitT, queryT layerStats
	for i := 0; i < 50; i++ {
		for _, name := range hitScenarios {
			req := hitRequest(name)
			d, code, body := serve(&req)
			if norm, err := normalizeRun(body); code != http.StatusOK || err != nil || !bytes.Equal(norm, primed[name]) {
				fail(fmt.Errorf("in-process hit %s: status %d", name, code))
			}
			hitT.add(d, time.Microsecond)
		}
	}
	for i := 0; i < 200; i++ {
		req := in.warm.query()
		d, code, _ := serve(&req)
		if code != http.StatusOK {
			fail(fmt.Errorf("in-process query: status %d", code))
		}
		queryT.add(d, time.Microsecond)
	}
	put("service.hit_handler_us", "us", median(hitT.times))
	put("service.query_handler_us", "us", median(queryT.times))

	// --- Scenario load and compile.
	var loadT, compileT layerStats
	var specs [][]byte
	for _, set := range [][]request{in.grids, in.refine, in.sims} {
		for _, r := range set {
			specs = append(specs, mustJSON(r.Spec))
		}
	}
	for _, sc := range in.misses {
		specs = append(specs, mustJSON(sc))
	}
	compileSet := []*scenario.Scenario{in.warm.grid}
	for _, r := range append(append([]request(nil), in.grids...), in.refine...) {
		compileSet = append(compileSet, r.Spec)
	}
	for i := 0; i < 20; i++ {
		for _, b := range specs {
			loadT.add(tr.timed("scenario", "scenario.load", 0, func(int) { scenario.LoadString(string(b)) }), time.Microsecond)
		}
		for _, sc := range compileSet {
			compileT.add(tr.timed("scenario", "scenario.compile", 0, func(int) { sc.CompileGrid() }), time.Microsecond)
		}
	}
	put("scenario.load_us", "us", median(loadT.times))
	put("scenario.compile_us", "us", median(compileT.times))

	// --- Cache: content addresses of the generated cells, ticks and
	// surrogates, then Store lookups and puts.
	var keyT, lookupT, putT layerStats
	var keys []string
	addKey := func(parts ...any) {
		var k string
		keyT.add(tr.timed("cache", "cache.key", 0, func(int) { k, _ = cache.Key(parts...) }), time.Microsecond)
		keys = append(keys, k)
	}
	for _, r := range in.grids {
		job, err := r.Spec.CompileGrid()
		if err != nil {
			return nil, err
		}
		for row := range job.Ys {
			for col := range job.Xs {
				addKey("batch/cell/v1", job.CellSpec(row, col))
			}
		}
	}
	for _, r := range in.sims {
		canon, _ := r.Spec.CanonicalJSON()
		for t := 0; t < r.Spec.Dynamics.Ticks; t++ {
			addKey("sim/tick/v1", struct {
				Spec json.RawMessage `json:"spec"`
				Tick int             `json:"tick"`
			}{canon, t})
		}
	}
	for _, r := range in.refine {
		canon, _ := r.Spec.CanonicalJSON()
		addKey("refine/surrogate/v1", json.RawMessage(canon))
	}
	st := cache.New(len(keys)+1, 1)
	for _, k := range keys {
		putT.add(tr.timed("cache", "cache.put", 0, func(int) { st.Put(k, k) }), time.Microsecond)
	}
	for _, k := range keys {
		lookupT.add(tr.timed("cache", "cache.lookup", 0, func(int) { st.Lookup(k) }), time.Microsecond)
	}
	put("cache.key_us", "us", mean(keyT.times))
	put("cache.lookup_us", "us", mean(lookupT.times))
	put("cache.put_us", "us", mean(putT.times))

	// --- Scenario cells: GridWorker.SolveCell, columns in order per row.
	var cellT layerStats
	var samples []marketSample
	for gi, r := range in.grids {
		job, _ := r.Spec.CompileGrid()
		pop, _ := r.Spec.Population.Materialize()
		tr.timed(fmt.Sprintf("grid-%d", gi), "scenario.grid", 0, func(id int) {
			w := job.NewWorker()
			for row := range job.Ys {
				for col := range job.Xs {
					s0, a0 := w.Stats(), mallocs()
					cellT.add(tr.timed(fmt.Sprintf("grid-%d", gi), "scenario.cell", id, func(int) { w.SolveCell(row, col) }), time.Millisecond)
					cellT.solves += float64(w.Stats().Since(s0).Solves)
					cellT.allocs += float64(mallocs() - a0)
					if smp, ok := cellMarket(r.Spec, pop, job.Xs[col], job.Ys[row]); ok && col == row%len(job.Xs) {
						samples = append(samples, smp)
					}
				}
			}
		})
	}
	put("scenario.cell_ms", "ms", median(cellT.times))
	put("scenario.solves_per_cell", "solves/cell", cellT.per(cellT.solves))
	put("scenario.allocs_per_cell", "allocs/cell", cellT.per(cellT.allocs))

	// --- Sweep: RunRows on the first grid with one worker per core.
	if len(in.grids) > 0 {
		job, _ := in.grids[0].Spec.CompileGrid()
		workers := runtime.GOMAXPROCS(0)
		gw := make([]*scenario.GridWorker, workers)
		busy := make([]time.Duration, workers)
		wall := tr.timed("sweep", "sweep.rows", 0, func(int) {
			sweep.RunRows(workers, len(job.Ys), func(worker, row int) {
				if gw[worker] == nil {
					gw[worker] = job.NewWorker()
				}
				for col := range job.Xs {
					t0 := time.Now()
					gw[worker].SolveCell(row, col)
					busy[worker] += time.Since(t0)
				}
			})
		})
		var total time.Duration
		for _, b := range busy {
			total += b
		}
		put("sweep.busy_share", "share", float64(total)/float64(time.Duration(workers)*wall))
	}

	// --- Scenario runs: Scenario.Run on the cold 1-D bodies.
	var runT layerStats
	for _, sc := range in.misses {
		runT.add(tr.timed("run", "scenario.run", 0, func(int) { sc.Run(scenario.RunOptions{Workers: 1}) }), time.Millisecond)
	}
	put("scenario.run_ms", "ms", median(runT.times))

	// --- Refinement: the wall time minus the time inside the point solver.
	var refT layerStats
	var pointsSolved, probes, solvedShare, verified float64
	for ri, r := range in.refine {
		job, err := r.Spec.CompileGrid()
		if err != nil {
			return nil, err
		}
		prob, flush := job.RefineProblem(nil)
		var inSolver time.Duration
		var res *refine.Result
		trace := fmt.Sprintf("refine-%d", ri)
		wall := tr.timed(trace, "refine.run", 0, func(id int) {
			inner := prob.NewSolver
			prob.NewSolver = func() refine.PointSolver {
				return &timedSolver{inner: inner(), tr: tr, trace: trace, parent: id, total: &inSolver}
			}
			res, err = refine.Run(ctx, prob, job.RefineSpec(), refine.Options{Workers: 1})
		})
		flush()
		if err != nil {
			return nil, err
		}
		refT.add(wall-inSolver, time.Millisecond)
		s := res.Stats()
		nx, ny := res.FineDims()
		pointsSolved += float64(s.PointsSolved)
		probes += float64(s.ProbeSolves)
		solvedShare += float64(s.PointsSolved) / float64(nx*ny)
		if res.Verified() {
			verified++
		}
	}
	put("refine.points_solved", "count", refT.per(pointsSolved))
	put("refine.probe_solves", "count", refT.per(probes))
	put("refine.solved_share", "share", refT.per(solvedShare))
	put("refine.verified_share", "share", refT.per(verified))
	put("refine.self_ms", "ms", mean(refT.times))

	// --- Dynamics: Engine.Step with Engine.Stats deltas.
	var tickT layerStats
	for si, r := range in.sims {
		e, err := dynamics.New(r.Spec)
		if err != nil {
			return nil, err
		}
		pop, _ := r.Spec.Population.Materialize()
		trace := fmt.Sprintf("sim-%d", si)
		tr.timed(trace, "dynamics.run", 0, func(id int) {
			for t := 0; t < e.Ticks(); t++ {
				s0, a0 := e.Stats(), mallocs()
				var rec dynamics.TickRecord
				tickT.add(tr.timed(trace, "dynamics.tick", id, func(int) { rec = e.Step() }), time.Millisecond)
				tickT.solves += float64(e.Stats().Since(s0).Solves)
				tickT.allocs += float64(mallocs() - a0)
				if smp, ok := tickMarket(r.Spec, pop, rec); ok && t%10 == 5 {
					samples = append(samples, smp)
				}
			}
		})
	}
	put("dynamics.tick_ms", "ms", median(tickT.times))
	put("dynamics.solves_per_tick", "solves/tick", tickT.per(tickT.solves))
	put("dynamics.allocs_per_tick", "allocs/tick", tickT.per(tickT.allocs))

	// --- Core, migration: Market.SolveDuopoly on the sampled markets.
	var migT, cgT layerStats
	var eqs []eqSample
	for i, s := range samples {
		mk := core.NewMarket(core.NewSolver(nil), s.pop, s.nu)
		mk.MigrationTol = 1e-7
		a0 := mallocs()
		var out *core.MarketOutcome
		migT.add(tr.timed(fmt.Sprintf("market-%d", i), "core.migration", 0, func(int) { out = mk.SolveDuopoly(s.a, s.b) }), time.Millisecond)
		migT.solves += float64(mk.Solver.Stats().Solves)
		migT.allocs += float64(mallocs() - a0)
		for _, eq := range out.Eqs {
			if eq != nil {
				eqs = append(eqs, eqSample{eq, s.pop})
			}
		}
	}
	put("core.migration_ms", "ms", median(migT.times))
	put("core.solves_per_migration", "solves/migr", migT.per(migT.solves))
	put("core.allocs_per_migration", "allocs/migr", migT.per(migT.allocs))

	// --- Core, class game: Solver.CompetitiveFrom, cold, at each sampled
	// equilibrium's strategy and ν.
	for i, e := range eqs {
		s := core.NewSolver(nil)
		cgT.add(tr.timed(fmt.Sprintf("classgame-%d", i), "core.classgame", 0, func(int) {
			s.CompetitiveFrom(e.eq.Strategy, e.eq.Nu, e.pop, nil)
		}), time.Microsecond)
		st := s.Stats()
		cgT.solves += float64(st.Solves)
		cgT.restarts += float64(st.CycleRestarts)
	}
	put("core.classgame_us", "us", median(cgT.times))
	put("core.solves_per_classgame", "solves/game", cgT.per(cgT.solves))
	put("core.cycle_restarts_per_classgame", "restarts/game", cgT.per(cgT.restarts))

	// --- Alloc: Workspace.Solve on the equilibria's class populations,
	// cold (after Reset) and warm (a nearby ν on the same workspace), with
	// evals and bisections per solve from the workspace's stats. The same
	// replay runs untraced first, to measure the tracing overhead.
	allocReplay := func(tr *tracer) (cold, warm layerStats, ws *alloc.Workspace, d time.Duration) {
		ws = alloc.NewWorkspace(nil)
		t0 := time.Now()
		for i, e := range eqs {
			for _, cls := range []*alloc.Result{e.eq.Ordinary, e.eq.Premium} {
				if cls == nil || len(cls.Pop) == 0 {
					continue
				}
				for rep := 0; rep < 10; rep++ {
					ws.Reset()
					cold.add(tr.timed(fmt.Sprintf("alloc-%d", i), "alloc.solve_cold", 0, func(int) { ws.Solve(cls.Nu, cls.Pop) }), time.Microsecond)
					warm.add(tr.timed(fmt.Sprintf("alloc-%d", i), "alloc.solve_warm", 0, func(int) { ws.Solve(cls.Nu*1.001, cls.Pop) }), time.Microsecond)
				}
			}
		}
		return cold, warm, ws, time.Since(t0)
	}
	off := &tracer{epoch: tr.epoch}
	_, _, _, untraced := allocReplay(off)
	coldT, warmT, ws, traced := allocReplay(tr)
	wst := ws.Stats()
	put("alloc.solve_us", "us", median(coldT.times))
	put("alloc.warm_solve_us", "us", median(warmT.times))
	put("alloc.evals_per_solve", "evals/solve", float64(wst.Evals)/max(float64(wst.Solves), 1))
	put("alloc.bisections_per_solve", "bisect/solve", float64(wst.Bisections)/max(float64(wst.Solves), 1))
	// The warm-bracket share that matters is the served workload's.
	put("alloc.warm_share", "share", work["pubopt_solver_warm_brackets_total"]/
		max(work["pubopt_solver_warm_brackets_total"]+work["pubopt_solver_cold_brackets_total"], 1))
	put("trace.overhead_share", "share", (traced.Seconds()-untraced.Seconds())/untraced.Seconds())

	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	rep.printf("spans written to %s (%d spans)", path, len(tr.spans))
	rep.printf("replayed %d requests in-process; %d sampled markets, %d class equilibria", len(in.replay), len(samples), len(eqs))
	for _, f := range failures {
		rep.printf("FAILED: %s", f)
	}
	return &output{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// timedSolver wraps a refinement point solver, recording each solve as a
// span nested in the refinement run and summing the time spent inside.
type timedSolver struct {
	inner  refine.PointSolver
	tr     *tracer
	trace  string
	parent int
	total  *time.Duration
}

func (t *timedSolver) Solve(x, y float64) []float64 {
	var out []float64
	*t.total += t.tr.timed(t.trace, "refine.point", t.parent, func(int) { out = t.inner.Solve(x, y) })
	return out
}

// marketSample is one duopoly migration problem: two ISPs, the population
// and the system capacity ν̄.
type marketSample struct {
	a, b core.ISP
	pop  traffic.Population
	nu   float64
}

type eqSample struct {
	eq  *core.ClassEquilibrium
	pop traffic.Population
}

func ispsOf(sc *scenario.Scenario) []core.ISP {
	isps := make([]core.ISP, len(sc.Providers))
	for i, p := range sc.Providers {
		st := core.Strategy{Kappa: p.Kappa, C: p.C}
		if p.PublicOption {
			st = core.PublicOption
		}
		isps[i] = core.ISP{Name: p.Name, Gamma: p.Gamma, Strategy: st}
	}
	return isps
}

// cellMarket rebuilds the migration problem a duopoly grid cell solves:
// the scenario's providers with the cell's axis values applied at the
// cell's ν̄. Rebate (σ) cells solve a different game and are skipped.
func cellMarket(sc *scenario.Scenario, pop traffic.Population, x, y float64) (marketSample, bool) {
	isps := ispsOf(sc)
	if len(isps) != 2 {
		return marketSample{}, false
	}
	nu := sc.Sweep.Nu
	if sc.Sweep.OfSaturation {
		nu *= pop.TotalUnconstrainedPerCapita()
	}
	for _, av := range []struct {
		axis string
		v    float64
	}{{sc.Sweep.Axis, x}, {sc.Sweep.Grid.Axis, y}} {
		switch av.axis {
		case scenario.AxisNu:
			nu = av.v
		case scenario.AxisPrice:
			isps[0].Strategy.C = av.v
		case scenario.AxisKappa:
			isps[0].Strategy.Kappa = av.v
		case scenario.AxisPOShare:
			isps[1].Gamma, isps[0].Gamma = av.v, 1-av.v
		default:
			return marketSample{}, false
		}
	}
	return marketSample{isps[0], isps[1], pop, nu}, true
}

// tickMarket rebuilds the migration problem behind a dynamics tick: the
// providers at the tick's prices and capacities. Ticks whose traffic
// multiplier is not 1 solve on a rescaled population and are skipped.
func tickMarket(sc *scenario.Scenario, pop traffic.Population, rec dynamics.TickRecord) (marketSample, bool) {
	isps := ispsOf(sc)
	if len(isps) != 2 || rec.Multiplier != 1 || rec.NuBar <= 0 {
		return marketSample{}, false
	}
	for k := range isps {
		isps[k].Gamma = rec.Caps[k] / rec.NuBar
		if !sc.Providers[k].PublicOption {
			isps[k].Strategy = core.Strategy{Kappa: rec.Kappas[k], C: rec.Prices[k]}
		}
	}
	isps[1].Gamma = 1 - isps[0].Gamma
	return marketSample{isps[0], isps[1], pop, rec.NuBar}, true
}
