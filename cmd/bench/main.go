// Command bench regenerates the tables and figures of Shun, Dhulipala,
// Blelloch (SPAA'14) on this host. Each experiment prints a plain-text
// table shaped like the corresponding artifact in the paper.
//
// Usage:
//
//	bench -experiment table2              # one experiment
//	bench -experiment all -scale 0.25     # everything, quarter-size inputs
//	bench -experiment fig2 -threads 1,2,4 # explicit worker sweep
//	bench -experiment ablation            # design-choice ablations
//	bench -experiment table2 -trace t.jsonl  # also record an observability trace
//
// Experiments: table1, table2, fig2..fig8, ablation, work, all.
// See EXPERIMENTS.md for the mapping to the paper and the recorded runs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"parconn"
	"parconn/internal/bench"
	"parconn/internal/obs/obshttp"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiment = fs.String("experiment", "all", "experiment to run: table1,table2,fig2..fig8,ablation,work,all")
		scale      = fs.Float64("scale", 1.0, "input size multiplier (1.0 = harness defaults, ~100x below paper sizes)")
		trials     = fs.Int("trials", 3, "trials per measurement; median reported")
		procs      = fs.Int("procs", 0, "max workers (0 = all cores)")
		threads    = fs.String("threads", "", "comma-separated worker counts for fig2 (default 1,2,4,...,procs)")
		seed       = fs.Uint64("seed", 42, "random seed")
		csvDir     = fs.String("csv", "", "also write each table as CSV into this directory")
		tracePath  = fs.String("trace", "", "write a JSONL observability trace of every timed run (perturbs timings)")
		httpAddr   = fs.String("http", "", "serve /metrics, /debug/parconn, and /debug/pprof on this address while experiments run")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// Validate the experiment name before any side effects (trace files,
	// debug servers): a typo must exit with usage, not after creating an
	// empty trace file or running for minutes.
	names := bench.ExperimentNames()
	valid := false
	for _, n := range names {
		if *experiment == n {
			valid = true
			break
		}
	}
	if !valid {
		fmt.Fprintf(stderr, "bench: unknown experiment %q\nusage: bench -experiment NAME\navailable: %s\n",
			*experiment, strings.Join(names, " "))
		return 2
	}

	if *procs < 0 {
		fmt.Fprintf(stderr, "bench: bad -procs %d\n", *procs)
		return 2
	}
	cfg := bench.Config{
		Scale:  *scale,
		Trials: *trials,
		Procs:  *procs,
		Seed:   *seed,
		Out:    stdout,
		CSVDir: *csvDir,
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		rec := parconn.NewJSONLRecorder(f)
		rec.SetTool("cmd/bench")
		cfg.Recorder = rec
		defer func() {
			if err := rec.Flush(); err != nil {
				fmt.Fprintf(stderr, "bench: flushing trace: %v\n", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(stderr, "bench: closing trace: %v\n", err)
			}
			fmt.Fprintf(stdout, "trace: %d events written to %s\n", rec.Count(), *tracePath)
		}()
	}
	if *httpAddr != "" {
		state := obshttp.NewState("cmd/bench", 0)
		srv, err := obshttp.Serve(*httpAddr, state)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
		fmt.Fprintf(stdout, "debug server: http://%s/debug/parconn\n", srv.Addr())
		cfg.Recorder = parconn.MultiRecorder(cfg.Recorder, state.Recorder())
	}
	if *threads != "" {
		for _, part := range strings.Split(*threads, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || v < 1 {
				fmt.Fprintf(stderr, "bench: bad -threads entry %q\n", part)
				return 2
			}
			cfg.Threads = append(cfg.Threads, v)
		}
	}
	if err := bench.Run(*experiment, cfg); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	return 0
}
