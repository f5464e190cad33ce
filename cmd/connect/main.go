// Command connect computes connected components of a graph with any of the
// library's algorithms and reports the component structure.
//
// The input graph is either read from a file in the PBBS/Ligra
// AdjacencyGraph format or the library's binary format (-in, sniffed), or
// generated (-gen with -n / -scale / -seed).
//
// Usage:
//
//	connect -gen random -n 1000000 -algorithm decomp-arb-hybrid-CC
//	connect -in graph.adj -algorithm parallel-SF-PRM -labels out.txt
//	connect -gen grid3d -side 50 -decompose -beta 0.1
//	connect -gen rmat -scale 14 -trace run.jsonl
//	connect -validate-trace run.jsonl
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"parconn"
	"parconn/internal/decomp"
	"parconn/internal/obs/obshttp"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: parses args, executes, writes reports to
// stdout and diagnostics to stderr, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("connect", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		inPath    = fs.String("in", "", "input graph file (AdjacencyGraph or binary format)")
		gen       = fs.String("gen", "", "generator: random, rmat, grid3d, line, social, star")
		n         = fs.Int("n", 1_000_000, "vertex count for random/line/star generators")
		scale     = fs.Int("scale", 18, "log2 vertex count for rmat/social generators")
		side      = fs.Int("side", 100, "side length for grid3d")
		degree    = fs.Int("degree", 5, "edges per vertex for random; edge factor for rmat")
		seed      = fs.Uint64("seed", 42, "random seed (generators and algorithm)")
		algName   = fs.String("algorithm", "decomp-arb-hybrid-CC", "algorithm (see parconn.Algorithms)")
		beta      = fs.Float64("beta", decomp.DefaultBeta, "decomposition beta")
		procs     = fs.Int("procs", 0, "max workers (0 = all cores)")
		labelsOut = fs.String("labels", "", "write per-vertex labels to this file")
		topK      = fs.Int("top", 5, "print the K largest components")
		decompose = fs.Bool("decompose", false, "run a low-diameter decomposition instead of full connectivity and print its statistics")
		verify    = fs.Bool("verify", false, "verify the labeling in O(n+m) after computing it")
		stats     = fs.Bool("stats", false, "print structural statistics of the input graph")
		tracePath = fs.String("trace", "", "write the observability event stream to this file as JSONL")
		validate  = fs.String("validate-trace", "", "validate a JSONL trace file written by -trace and exit")
		httpAddr  = fs.String("http", "", "serve /metrics, /debug/parconn, and /debug/pprof on this address (e.g. :6060) while the run executes")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *validate != "" {
		f, err := os.Open(*validate)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		defer f.Close()
		sum, err := parconn.ValidateTrace(bufio.NewReaderSize(f, 1<<20))
		if err != nil {
			fmt.Fprintf(stderr, "connect: invalid trace %s: %v\n", *validate, err)
			return 1
		}
		fmt.Fprintf(stdout, "trace %s valid: %d events (%d runs, %d levels, %d rounds, %d phases, %d counters)\n",
			*validate, sum.Events, sum.Runs, sum.Levels, sum.Rounds, sum.Phases, sum.Counters)
		return 0
	}

	var (
		rec       parconn.Recorder
		traceDone func() error
	)
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		jr := parconn.NewJSONLRecorder(f)
		jr.SetTool("cmd/connect")
		rec = jr
		traceDone = func() error {
			if err := jr.Flush(); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "trace: %d events written to %s\n", jr.Count(), *tracePath)
			return nil
		}
	}

	if *httpAddr != "" {
		state := obshttp.NewState("cmd/connect", 0)
		srv, err := obshttp.Serve(*httpAddr, state)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
		fmt.Fprintf(stdout, "debug server: http://%s/debug/parconn\n", srv.Addr())
		rec = parconn.MultiRecorder(rec, state.Recorder())
	}

	g, err := loadGraph(*inPath, *gen, *n, *scale, *side, *degree, *seed)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	alg, err := parconn.ParseAlgorithm(*algName)
	if err != nil {
		fmt.Fprintf(stderr, "%v\navailable:", err)
		for _, a := range parconn.Algorithms {
			fmt.Fprintf(stderr, " %s", a)
		}
		fmt.Fprintln(stderr)
		return 2
	}
	fmt.Fprintf(stdout, "graph: %d vertices, %d undirected edges\n", g.NumVertices(), g.NumEdges())
	if *stats {
		fmt.Fprintf(stdout, "stats: %v\n", parconn.Summarize(g, *seed))
	}

	if *decompose {
		start := time.Now()
		d, err := parconn.Decompose(g, parconn.DecompOptions{
			Algorithm: alg, Beta: *beta, Seed: *seed, Procs: *procs, Recorder: rec,
		})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		elapsed := time.Since(start)
		m := 2 * g.NumEdges()
		fmt.Fprintf(stdout, "%s decomposition (beta=%.3g): %d partitions, %d BFS rounds in %v\n",
			alg, *beta, d.NumPartitions, d.Rounds, elapsed)
		if m > 0 {
			fmt.Fprintf(stdout, "cut edges: %d of %d directed (%.2f%%; 2*beta bound is %.2f%%)\n",
				d.CutEdges, m, 100*float64(d.CutEdges)/float64(m), 200**beta)
		}
		if traceDone != nil {
			if err := traceDone(); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
		return 0
	}

	start := time.Now()
	labels, err := parconn.ConnectedComponents(g, parconn.Options{
		Algorithm: alg, Beta: *beta, Seed: *seed, Procs: *procs, Recorder: rec,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	elapsed := time.Since(start)

	if *verify {
		if err := parconn.VerifyLabeling(g, labels); err != nil {
			fmt.Fprintf(stderr, "VERIFICATION FAILED: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, "labeling verified")
	}
	count, top := parconn.TopComponents(labels, *topK)
	fmt.Fprintf(stdout, "%s: %d components in %v\n", alg, count, elapsed)
	for _, c := range top {
		fmt.Fprintf(stdout, "  component %d: %d vertices (%.2f%%)\n", c.Label, c.Size, 100*float64(c.Size)/float64(g.NumVertices()))
	}

	if *labelsOut != "" {
		if err := writeLabels(*labelsOut, labels); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "labels written to %s\n", *labelsOut)
	}
	if traceDone != nil {
		if err := traceDone(); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return 0
}

func loadGraph(inPath, gen string, n, scale, side, degree int, seed uint64) (*parconn.Graph, error) {
	if inPath != "" {
		f, err := os.Open(inPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		br := bufio.NewReaderSize(f, 1<<20)
		// Sniff the format: binary starts with "PCONNGR1", the PBBS text
		// format with "AdjacencyGraph"; anything else is treated as a
		// SNAP-style edge list.
		if head, err := br.Peek(14); err == nil {
			switch {
			case string(head[:8]) == "PCONNGR1":
				return parconn.ReadBinaryGraph(br)
			case string(head) == "AdjacencyGraph":
				return parconn.ReadGraph(br)
			}
		}
		return parconn.ReadEdgeList(br)
	}
	switch gen {
	case "random":
		return parconn.RandomGraph(n, degree, seed), nil
	case "rmat":
		return parconn.RMatGraph(scale, parconn.RMatOptions{EdgeFactor: degree, Seed: seed}), nil
	case "grid3d":
		return parconn.Grid3DGraph(side, seed), nil
	case "line":
		return parconn.LineGraph(n, seed), nil
	case "social":
		return parconn.SocialGraph(scale, seed), nil
	case "star":
		return parconn.StarGraph(n), nil
	case "":
		return nil, fmt.Errorf("connect: need -in FILE or -gen NAME")
	default:
		return nil, fmt.Errorf("connect: unknown generator %q", gen)
	}
}

func writeLabels(path string, labels []int32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, l := range labels {
		fmt.Fprintln(w, l)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
