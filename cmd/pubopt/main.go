// Command pubopt regenerates the figures of Ma & Misra, "The Public Option:
// a Non-regulatory Alternative to Network Neutrality" (CoNEXT 2011), plus
// the repository's ablation studies.
//
// Usage:
//
//	pubopt list
//	pubopt run fig4 [fig5 ...] | all   [-format chart|text|csv] [-out DIR]
//	                                   [-fast] [-seed N] [-cps N] [-workers N]
//	pubopt scenario list
//	pubopt scenario show <name>
//	pubopt scenario run --name <name> | --json <file>  [-format ...] [-out DIR]
//	                                   [-seed N] [-cps N] [-workers N]
//	pubopt grid list
//	pubopt grid run --name <name> | --json <file>  [-format heatmap|csv]
//	                                   [-layer NAME] [-out DIR]
//	                                   [-seed N] [-cps N] [-workers N]
//	                                   [-refine [-tol F] [-depth N]
//	                                   [-probes N] [-res CxR]]
//	pubopt query --name <name> | --json <file>  -x X -y Y
//	                                   [-seed N] [-cps N] [-workers N]
//	pubopt simulate list
//	pubopt simulate run --name <name> | --json <file>  [-format chart|csv|heatmap]
//	                                   [-layer NAME] [-out DIR]
//	                                   [-seed N] [-cps N] [-workers N]
//	pubopt serve [-addr HOST:PORT] [-workers N] [-cache-entries N]
//	             [-log-level LEVEL] [-log-format text|json] [-trace]
//	             [-events N] [-pprof]
//
// With -out, each table is written as CSV into DIR (one file per table);
// otherwise tables render to stdout in the chosen format.
//
// Exit codes: 0 on success (including help), 1 on runtime errors, 2 on
// usage errors (missing or unknown commands, bad flags).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	publicoption "github.com/netecon-sim/publicoption"
)

// errUsage marks usage errors: the message and usage text have already been
// printed to stderr, so main exits 2 without the generic error prefix.
var errUsage = errors.New("usage error")

// usageErrorf prints the problem to stderr and returns errUsage, so the
// caller's error propagates to a silent exit-2 in main.
func usageErrorf(format string, args ...any) error {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	return errUsage
}

// parseFlags classifies FlagSet errors: -h stays flag.ErrHelp (exit 0);
// any other parse failure — already printed by the FlagSet — becomes a
// usage error (exit 2).
func parseFlags(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return err
	}
	return errUsage
}

func main() {
	switch err := run(os.Args[1:]); {
	case err == nil:
	case errors.Is(err, errUsage):
		os.Exit(2)
	case errors.Is(err, flag.ErrHelp):
		// A subcommand's -h: the FlagSet already printed its defaults.
		os.Exit(0)
	default:
		fmt.Fprintln(os.Stderr, "pubopt:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "pubopt: missing command")
		usage(os.Stderr)
		return errUsage
	}
	switch args[0] {
	case "list":
		for _, e := range publicoption.Experiments() {
			fmt.Printf("%-26s %s\n", e.ID, e.Title)
		}
		return nil
	case "run":
		return runCmd(args[1:])
	case "scenario":
		return scenarioCmd(args[1:])
	case "grid":
		return gridCmd(args[1:])
	case "query":
		return queryCmd(args[1:])
	case "simulate":
		return simulateCmd(args[1:])
	case "verify":
		return verifyCmd(args[1:])
	case "validate":
		return validateCmd(args[1:])
	case "serve":
		return serveCmd(args[1:])
	case "help", "-h", "--help":
		usage(os.Stdout)
		return nil
	default:
		fmt.Fprintf(os.Stderr, "pubopt: unknown command %q\n", args[0])
		usage(os.Stderr)
		return errUsage
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `pubopt — reproduce the figures of "The Public Option" (CoNEXT 2011)

commands:
  list                      list available experiments
  run <id ...|all> [flags]  run experiments and render their tables
  scenario <subcmd>         declarative market scenarios: list, show,
                            run --name <name> | --json <file>
  grid <subcmd>             2-D grid sweeps (γ×ν, σ×ν, c×κ, ...): list,
                            run --name <name> | --json <file>; -refine
                            switches to adaptive refinement
  query --name <name> -x X -y Y
                            evaluate one grid point via the refinement
                            surrogate (see docs/REFINEMENT.md)
  simulate <subcmd>         discrete-time market dynamics (policies,
                            traffic, autoscaling; see docs/DYNAMICS.md):
                            list, run --name <name> | --json <file>
  serve [flags]             HTTP query service with a content-addressed
                            equilibrium cache (see docs/SERVICE.md)
  verify [seed]             run the theorem battery (Axioms 1-4, Theorems
                            1-5, Lemma 4, the headline ranking, Assumption 2)
  validate <scenario ...>   replay solved equilibria through the packet
                            simulator and check fluid/packet agreement
                            (Tier-2; see 'pubopt validate -h')

flags for run:
  -format chart|text|csv    output format to stdout (default chart)
  -out DIR                  also write each table as CSV under DIR
  -fast                     reduced grids and ensembles (for smoke tests)
  -seed N                   ensemble seed (default: the published seed)
  -cps N                    ensemble size (default 1000)
  -workers N                parallel curves (default GOMAXPROCS)

flags for serve:
  -addr HOST:PORT           listen address (default :8080)
  -workers N                max concurrent solves (default GOMAXPROCS)
  -cache-entries N          equilibrium cache LRU bound (default 2048;
                            grid cells occupy one entry each;
                            negative disables caching)
  -log-level LEVEL          debug, info, warn or error (default info;
                            debug adds per-request access lines)
  -log-format text|json     structured log output format (default text)
  -trace                    echo trace IDs in response bodies (the
                            X-Trace-Id header is always set)
  -events N                 flight recorder capacity at /debug/events
                            (default 256; negative disables)
  -pprof                    expose /debug/pprof/ (trusted networks only)
`)
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	format := fs.String("format", "chart", "output format: chart, text or csv")
	outDir := fs.String("out", "", "directory for CSV output (one file per table)")
	fast := fs.Bool("fast", false, "reduced grids and ensemble")
	seed := fs.Uint64("seed", 0, "ensemble seed (0 = published seed)")
	cps := fs.Int("cps", 0, "ensemble size (0 = default)")
	workers := fs.Int("workers", 0, "parallel curves (0 = GOMAXPROCS)")
	// Flags may follow the experiment IDs; split them out first.
	var ids []string
	var flagArgs []string
	for i, a := range args {
		if strings.HasPrefix(a, "-") {
			flagArgs = args[i:]
			break
		}
		ids = append(ids, a)
	}
	if err := parseFlags(fs, flagArgs); err != nil {
		return err
	}
	if len(ids) == 0 {
		return fmt.Errorf("run: no experiment IDs given (try 'pubopt list')")
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = ids[:0]
		for _, e := range publicoption.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	cfg := publicoption.ExperimentConfig{
		Fast:    *fast,
		Seed:    *seed,
		CPs:     *cps,
		Workers: *workers,
	}
	for _, id := range ids {
		e, ok := publicoption.Experiment(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q", id)
		}
		start := time.Now()
		tables := e.Run(cfg, nil)
		fmt.Printf("== %s: %s (%.1fs)\n", e.ID, e.Title, time.Since(start).Seconds())
		fmt.Printf("   paper: %s\n\n", e.Expect)
		for ti, tbl := range tables {
			switch *format {
			case "chart":
				fmt.Println(publicoption.RenderChart(tbl, 90, 22))
			case "text":
				fmt.Println(publicoption.RenderText(tbl, 40))
			case "csv":
				if err := tbl.WriteCSV(os.Stdout); err != nil {
					return err
				}
			default:
				return fmt.Errorf("unknown format %q", *format)
			}
			if *outDir != "" {
				if err := os.MkdirAll(*outDir, 0o755); err != nil {
					return err
				}
				name := filepath.Join(*outDir, fmt.Sprintf("%s_table%d.csv", id, ti+1))
				f, err := os.Create(name)
				if err != nil {
					return err
				}
				if err := tbl.WriteCSV(f); err != nil {
					f.Close()
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
				fmt.Printf("   wrote %s\n", name)
			}
		}
	}
	return nil
}
