// Command perfbench is the repository benchmark. It builds nothing itself
// (run.sh builds it and the server); it starts `pubopt serve` as a child
// process on loopback, drives one seeded workload against it, checks every
// response, and prints the end-to-end metrics. With -trace 1 it instead
// replays the workload's generated inputs in-process, layer by layer, and
// prints the per-layer metrics.
//
//	perfbench -server PUBOPT -workload grid-dense -seed 1 -seconds 30 -trace 0
//	perfbench -server PUBOPT -all -seed 1 -seconds 30
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// Everything above it is a human-readable report. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects the human-readable lines printed above the result.
type report struct{ lines []string }

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func main() {
	server := flag.String("server", "", "path to the pubopt binary under test")
	outDir := flag.String("out", ".bench_build", "directory for build products and trace files")
	workload := flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	all := flag.Bool("all", false, "run every workload in turn")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "measured seconds per run (BENCHMARK.json's run_seconds)")
	trace := flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	flag.Parse()

	if err := run(*server, *outDir, *workload, *all, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(server, outDir, workload string, all bool, seed uint64, seconds, trace int) error {
	if server == "" {
		return errors.New("-server is required")
	}
	if _, err := os.Stat(server); err != nil {
		return fmt.Errorf("server binary: %w", err)
	}
	if seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	names := []string{workload}
	if all {
		names = workloads
	} else if workloadID(workload) == 99 {
		return fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(workloads, ", "))
	}
	// SIGINT/SIGTERM cancel the run: the load stops and the deferred
	// server shutdowns run before the process exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	combined := output{Correct: true, Metrics: map[string]metric{}}
	for _, w := range names {
		var rep report
		var out *output
		var err error
		if trace == 1 {
			out, err = runTrace(ctx, &rep, outDir, w, seed)
		} else {
			out, err = runE2E(ctx, &rep, server, w, seed, time.Duration(seconds)*time.Second)
		}
		if err == nil && ctx.Err() != nil {
			err = ctx.Err()
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		fmt.Printf("== %s (seed %d, trace %d)\n", w, seed, trace)
		for _, l := range rep.lines {
			fmt.Println(l)
		}
		fmt.Printf("correct=%v attempted=%d failed=%d\n", out.Correct, out.Attempted, out.Failed)
		if !all {
			b, _ := json.Marshal(out)
			fmt.Println(string(b))
			return nil
		}
		combined.Correct = combined.Correct && out.Correct
		combined.Attempted += out.Attempted
		combined.Failed += out.Failed
		for k, m := range out.Metrics {
			combined.Metrics[w+"/"+k] = m
		}
	}
	b, _ := json.Marshal(combined)
	fmt.Println(string(b))
	return nil
}
