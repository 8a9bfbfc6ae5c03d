package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"
)

// prime warms a fresh server: every hit scenario once (its normalized
// response is what later hits must equal) and one query, which builds and
// caches the queried surrogate.
func prime(ctx context.Context, hc *http.Client, base string, warm *warmGen) (map[string][]byte, error) {
	primed := make(map[string][]byte, len(hitScenarios))
	for _, name := range hitScenarios {
		req := hitRequest(name)
		r := do(ctx, hc, base, &req)
		if r.Err != nil || r.Status != 200 {
			return nil, fmt.Errorf("priming %s: status %d: %v", name, r.Status, r.Err)
		}
		norm, err := normalizeRun(r.Body)
		if err != nil {
			return nil, fmt.Errorf("priming %s: %w", name, err)
		}
		primed[name] = norm
	}
	// The priming query builds the surrogate with the server's default one
	// worker per request: a two-worker build was faster but spread about
	// half as much again between set-ups.
	body := map[string]any{"grid_json": warm.grid, "x": warm.box.X0, "y": warm.box.Y0}
	q := request{Kind: kQuery, Method: "POST", Path: "/v1/query", Body: mustJSON(body)}
	r := do(ctx, hc, base, &q)
	if r.Err != nil || r.Status != 200 {
		return nil, fmt.Errorf("priming the query surrogate: status %d: %v: %.200s", r.Status, r.Err, r.Body)
	}
	var qb struct {
		Source   string `json:"source"`
		Verified bool   `json:"verified"`
	}
	if err := json.Unmarshal(r.Body, &qb); err != nil || qb.Source != "surrogate" || !qb.Verified {
		return nil, fmt.Errorf("the primed query surrogate is not verified (source %q): queries would solve", qb.Source)
	}
	return primed, nil
}

// runE2E is one end-to-end run: set up (start and prime) the server
// setupRepeats times, drive the workload for dur against the last one,
// check every response, and compute the end-to-end metrics.
func runE2E(ctx context.Context, rep *report, bin, workload string, seed uint64, dur time.Duration) (*output, error) {
	hc := newHTTPClient(connections)
	defer hc.CloseIdleConnections()
	var warms []*warmGen
	var gens []*streamGen
	for c := 0; c < connections; c++ {
		w, err := newWarmGen(workload, seed, c)
		if err != nil {
			return nil, err
		}
		warms = append(warms, w)
		gens = append(gens, newStreamGen(workload, seed, c))
	}

	var setups []float64
	var srv *server
	var primed map[string][]byte
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		s, err := startServer(bin)
		if err != nil {
			return nil, err
		}
		p, err := prime(ctx, hc, s.base, warms[0])
		if err != nil {
			s.stop()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		hc.CloseIdleConnections()
		if i < setupRepeats-1 {
			if err := s.stop(); err != nil {
				return nil, err
			}
			continue
		}
		srv, primed = s, p
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()

	before, err := scrape(ctx, hc, srv.base)
	if err != nil {
		return nil, err
	}
	cpu0, _ := srv.cpuSeconds() // for the report's busy share only
	// Sample the server's resident set through the window.
	var rssSamples []float64
	stopRSS := make(chan struct{})
	rssDone := make(chan struct{})
	go func() {
		defer close(rssDone)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopRSS:
				return
			case <-tick.C:
				if v, err := srv.procStatusMB("VmRSS"); err == nil {
					rssSamples = append(rssSamples, v)
				}
			}
		}
	}()
	results, wall := closedLoop(ctx, hc, srv.base, gens, warms, warmHits, warmQueries, dur)
	close(stopRSS)
	<-rssDone
	cpu1, _ := srv.cpuSeconds()
	after, err := scrape(ctx, hc, srv.base)
	if err != nil {
		return nil, err
	}
	rss, err := srv.procStatusMB("VmHWM")
	if err != nil {
		return nil, err
	}
	hc.CloseIdleConnections()
	stopped = true
	if err := srv.stop(); err != nil {
		return nil, err
	}

	// Check every response; recompute a seeded sample in-process.
	chk := &checker{primed: primed, rng: rngFor(seed, streamChecks|workloadID(workload))}
	var failures []string
	fail := func(err error) {
		if len(failures) < 5 {
			failures = append(failures, err.Error())
		}
	}
	failed := 0
	solved := 0
	verified, refined := 0, 0
	ok := make([]bool, len(results))
	var samplePool []int
	for i := range results {
		r := &results[i]
		s, err := chk.check(r)
		if err != nil {
			failed++
			fail(err)
			continue
		}
		ok[i] = true
		if !r.Req.Kind.stream() {
			continue
		}
		solved += s.Solved
		if r.Req.Kind == kRefine {
			refined++
			if s.Verified {
				verified++
			}
		}
		if !r.Req.Resubmit {
			samplePool = append(samplePool, i)
		}
	}
	for n := 0; n < sampleChecks && len(samplePool) > 0; n++ {
		j := chk.rng.IntN(len(samplePool))
		i := samplePool[j]
		samplePool = append(samplePool[:j], samplePool[j+1:]...)
		if err := chk.recompute(&results[i]); err != nil {
			failed++
			ok[i] = false
			fail(err)
		}
	}

	// Latencies per class, of the requests that passed their checks.
	var first, reqS, hitMS, queryMS []float64
	for i := range results {
		r := &results[i]
		if !ok[i] {
			continue
		}
		lat := r.latency()
		switch r.Req.Kind {
		case kGrid, kRefine, kSim:
			reqS = append(reqS, lat.Seconds())
			if !r.First.IsZero() {
				first = append(first, ms(r.First.Sub(r.Sent)))
			}
		case kHit:
			hitMS = append(hitMS, ms(lat))
		case kQuery:
			queryMS = append(queryMS, ms(lat))
		}
	}

	rep.printf("setup_s samples: %v", roundAll(setups, 3))
	rep.printf("window %.2fs, %d requests, server busy share %.2f of 2 cores, RSS p50 %.1f max %.1f MB (%d samples)",
		wall.Seconds(), len(results), (cpu1-cpu0)/wall.Seconds()/2, median(rssSamples), maxOf(rssSamples), len(rssSamples))
	if refined > 0 {
		rep.printf("refined results verified: %d of %d", verified, refined)
	}
	work := delta(before, after)
	reportWork(rep, work, solved)
	for _, f := range failures {
		rep.printf("FAILED: %s", f)
	}

	m := map[string]metric{}
	put := func(name, unit string, v float64) {
		m[name] = metric{v, unit}
		rep.printf("%-20s %12.6g %-5s", name, v, unit)
	}
	putP := func(name, unit string, xs []float64, p float64) {
		m[name] = metric{reportP(rep, name, unit, xs, p).Value, unit}
	}
	rep.printf("-- gated")
	put("setup_s", "s", median(setups))
	put("rss_mb", "MB", median(rssSamples))
	put("solved_per_s", "1/s", float64(solved)/wall.Seconds())
	putP("first_frame_ms_p50", "ms", first, 0.5)
	putP("request_s_p50", "s", reqS, 0.5)
	putP("request_s_p90", "s", reqS, 0.9)
	putP("hit_ms_p50", "ms", hitMS, 0.5)
	putP("query_ms_p50", "ms", queryMS, 0.5)
	// Reported, not gated: the workload-specific names of gated values,
	// the peak RSS, and the tails, whose run-to-run spread on a shared
	// two-core machine is wider than any bound a gate may use.
	rep.printf("-- reported")
	switch workload {
	case wGridDense:
		rep.printf("%-20s %12.6g %-5s (= solved_per_s)", "cells_per_s", m["solved_per_s"].Value, "1/s")
	case wSimStream:
		rep.printf("%-20s %12.6g %-5s (= solved_per_s)", "ticks_per_s", m["solved_per_s"].Value, "1/s")
	}
	rep.printf("%-20s %12.6g %-5s (VmHWM)", "peak_rss_mb", rss, "MB")
	reportP(rep, "hit_ms_p99", "ms", hitMS, 0.99)
	reportP(rep, "query_ms_p99", "ms", queryMS, 0.99)
	for name, v := range m {
		if math.IsNaN(v.Value) {
			failed++
			rep.printf("FAILED: no samples for %s", name)
		}
	}
	return &output{Correct: failed == 0, Attempted: len(results), Failed: failed, Metrics: m}, nil
}

// reportP prints one percentile by name and unit with its sample count,
// saying so when too few samples forced a lower percentile.
func reportP(rep *report, name, unit string, xs []float64, p float64) pctl {
	q := percentile(xs, p)
	note := ""
	if q.P != p {
		note = fmt.Sprintf(", reported at p%.2f: fewer than %d samples beyond p%.0f", q.P*100, minTail, p*100)
	}
	rep.printf("%-20s %12.6g %-5s n=%d%s", name, q.Value, unit, q.N, note)
	return q
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func roundAll(xs []float64, digits int) []float64 {
	p := math.Pow(10, float64(digits))
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*p) / p
	}
	return out
}

// reportWork prints the /metrics work counts of the window and their
// ratios per solved unit.
func reportWork(rep *report, work map[string]float64, units int) {
	for _, k := range workCounters {
		if v := work[k]; v != 0 {
			rep.printf("work %-40s %12.0f", k, v)
		}
	}
	if units > 0 {
		rep.printf("work per unit: %.1f solves, %.1f evals, %.2f bisections, %.2f cycle restarts (%d units)",
			work["pubopt_solver_solves_total"]/float64(units), work["pubopt_solver_evals_total"]/float64(units),
			work["pubopt_solver_bisections_total"]/float64(units), work["pubopt_solver_cycle_restarts_total"]/float64(units), units)
	}
}
