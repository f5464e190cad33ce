// Command connserve is connectivity-as-a-service: it loads a graph once,
// labels it once with any of the library's algorithms, and then serves
// component queries over HTTP/JSON until terminated.
//
// The server binds immediately so orchestrators can watch /v1/healthz; the
// endpoint answers 503 while the graph is loading and labeling, and flips
// to 200 the moment the labeling is published. All query endpoints read
// one immutable answer array lock-free, so concurrency costs nothing
// beyond the HTTP stack itself.
//
// Endpoints: GET /v1/component?v=, GET /v1/same?u=&v=, POST /v1/batch,
// POST /v1/insert (batched edge insertion into the incremental layer,
// unless -incremental=false), GET /v1/stats, GET /v1/healthz (see
// internal/serve), GET /metrics (Prometheus text: request counters, error
// taxonomy, latency histograms, the labeling run's engine series, runtime
// series), plus the obshttp debug surface
// (/debug/parconn, /debug/pprof/) fed by the labeling run.
//
// Every /v1 request carries a Parconn-Trace-Id response header (client
// value echoed when supplied); one request in -span-sample is recorded as
// a span in the flight recorder and, with -request-trace FILE, appended as
// JSONL for offline analysis.
//
// Usage:
//
//	connserve -addr :8080 -gen rmat -scale 20
//	connserve -addr :8080 -in graph.adj -algorithm parallel-SF-PRM
//
// SIGINT/SIGTERM triggers a graceful shutdown that drains in-flight
// requests before exiting.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"parconn"
	"parconn/internal/decomp"
	"parconn/internal/obs"
	"parconn/internal/obs/obshttp"
	"parconn/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it serves until ctx is cancelled (the
// signal path in main), then drains and returns the exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("connserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", ":8080", "HTTP listen address")
		inPath   = fs.String("in", "", "input graph file (AdjacencyGraph, binary, or edge-list format)")
		gen      = fs.String("gen", "", "generator: random, rmat, grid3d, line, social, star")
		n        = fs.Int("n", 1_000_000, "vertex count for random/line/star generators")
		scale    = fs.Int("scale", 18, "log2 vertex count for rmat/social generators")
		side     = fs.Int("side", 100, "side length for grid3d")
		degree   = fs.Int("degree", 5, "edges per vertex for random; edge factor for rmat")
		seed     = fs.Uint64("seed", 42, "random seed (generators and algorithm)")
		algName  = fs.String("algorithm", "decomp-arb-hybrid-CC", "algorithm (see parconn.Algorithms)")
		beta     = fs.Float64("beta", decomp.DefaultBeta, "decomposition beta")
		procs    = fs.Int("procs", 0, "max workers for the labeling run (0 = all cores)")
		maxBatch = fs.Int("max-batch", serve.DefaultMaxBatch, "maximum pairs per /v1/batch or /v1/insert request")
		topK     = fs.Int("top", 5, "largest components reported by /v1/stats")
		incr     = fs.Bool("incremental", true, "enable /v1/insert batched edge insertion over the labeling")
		drain    = fs.Duration("drain", 10*time.Second, "graceful-shutdown budget for in-flight requests")
		sample   = fs.Int("span-sample", 1024, "head-sample one request span per N requests (0 disables spans)")
		traceOut = fs.String("request-trace", "", "also append sampled request spans to this JSONL file (default: flight recorder only)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Fail fast on a bad spec before binding the port: a server that will
	// never become ready should not look half-started to an orchestrator.
	if *inPath == "" && *gen == "" {
		fmt.Fprintln(stderr, "connserve: need -in FILE or -gen NAME")
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

	// Sampled request spans always land in the flight recorder (visible at
	// /debug/parconn); -request-trace additionally appends them to a JSONL
	// file for offline tooling.
	state := obshttp.NewState("cmd/connserve", 0)
	spanSinks := []obs.SpanRecorder{state.Flight}
	var traceFile *os.File
	var traceWriter *obs.JSONLWriter
	if *traceOut != "" {
		traceFile, err = os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		traceWriter = obs.NewJSONLWriter(traceFile)
		spanSinks = append(spanSinks, traceWriter)
	}
	observer := serve.NewObserver(serve.ObserverConfig{
		Metrics:     state.Metrics,
		Spans:       obs.MultiSpan(spanSinks...),
		SampleEvery: *sample,
	})
	sv := serve.New(serve.Config{MaxBatch: *maxBatch, TopK: *topK, Observer: observer})
	mux := http.NewServeMux()
	mux.Handle("/v1/", sv.Handler())
	mux.Handle("/", state.Handler())
	srv, err := obshttp.ServeHandler(*addr, mux)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintf(stdout, "connserve: listening on http://%s (healthz 503 until ready)\n", srv.Addr())

	loadStart := time.Now()
	g, source, err := loadGraph(*inPath, *gen, *n, *scale, *side, *degree, *seed)
	if err != nil {
		srv.Close()
		fmt.Fprintln(stderr, err)
		return 2
	}
	loadTime := time.Since(loadStart)
	fmt.Fprintf(stdout, "graph: %d vertices, %d undirected edges from %s in %v\n",
		g.NumVertices(), g.NumEdges(), source, loadTime.Round(time.Millisecond))

	labelStart := time.Now()
	labels, err := parconn.ConnectedComponents(g, parconn.Options{
		Algorithm: alg, Beta: *beta, Seed: *seed, Procs: *procs, Recorder: state.Recorder(),
	})
	if err != nil {
		srv.Close()
		fmt.Fprintln(stderr, err)
		return 1
	}
	labelTime := time.Since(labelStart)

	sv.Publish(serve.Labeling{
		Labels:    labels,
		Edges:     int64(g.NumEdges()),
		Algorithm: fmt.Sprint(alg),
		Source:    source,
		LoadTime:  loadTime,
		LabelTime: labelTime,
	})
	if *incr {
		// The answer array seeds the incremental layer: one union-find root
		// per component, so /v1/insert starts from the published labeling.
		inc, err := parconn.NewIncrementalFromLabels(labels)
		if err != nil {
			srv.Close()
			fmt.Fprintln(stderr, err)
			return 1
		}
		sv.EnableIncremental(inc)
	}
	count, _ := parconn.TopComponents(labels, 1)
	fmt.Fprintf(stdout, "ready: %d components labeled with %s in %v; serving /v1/* (incremental=%v)\n",
		count, alg, labelTime.Round(time.Millisecond), *incr)

	<-ctx.Done()
	fmt.Fprintf(stdout, "connserve: shutting down, draining in-flight requests (budget %v)\n", *drain)
	shCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if traceWriter != nil {
		// Flush after the drain so the file carries every sampled span.
		if err := traceWriter.Flush(); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := traceFile.Close(); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return 0
}

// loadGraph mirrors cmd/connect's loader and additionally reports a
// human-readable source spec for /v1/stats.
func loadGraph(inPath, gen string, n, scale, side, degree int, seed uint64) (*parconn.Graph, string, error) {
	if inPath != "" {
		f, err := os.Open(inPath)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		br := bufio.NewReaderSize(f, 1<<20)
		var g *parconn.Graph
		if head, err := br.Peek(14); err == nil && string(head[:8]) == "PCONNGR1" {
			g, err = parconn.ReadBinaryGraph(br)
			return g, inPath, err
		} else if err == nil && string(head) == "AdjacencyGraph" {
			g, err = parconn.ReadGraph(br)
			return g, inPath, err
		}
		g, err = parconn.ReadEdgeList(br)
		return g, inPath, err
	}
	switch gen {
	case "random":
		return parconn.RandomGraph(n, degree, seed), fmt.Sprintf("gen:random(n=%d,degree=%d)", n, degree), nil
	case "rmat":
		return parconn.RMatGraph(scale, parconn.RMatOptions{EdgeFactor: degree, Seed: seed}),
			fmt.Sprintf("gen:rmat(scale=%d,ef=%d)", scale, degree), nil
	case "grid3d":
		return parconn.Grid3DGraph(side, seed), fmt.Sprintf("gen:grid3d(side=%d)", side), nil
	case "line":
		return parconn.LineGraph(n, seed), fmt.Sprintf("gen:line(n=%d)", n), nil
	case "social":
		return parconn.SocialGraph(scale, seed), fmt.Sprintf("gen:social(scale=%d)", scale), nil
	case "star":
		return parconn.StarGraph(n), fmt.Sprintf("gen:star(n=%d)", n), nil
	default:
		return nil, "", fmt.Errorf("connserve: unknown generator %q", gen)
	}
}
