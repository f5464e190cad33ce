package parconn

import (
	"fmt"
	"time"

	"parconn/internal/baseline"
	"parconn/internal/core"
	"parconn/internal/decomp"
	"parconn/internal/graph"
	"parconn/internal/parallel"
)

// Algorithm selects the connectivity algorithm. The zero value,
// DecompArbHybrid, is the paper's fastest variant and the right default.
type Algorithm int

const (
	// DecompArbHybrid is the paper's decomp-arb-hybrid-CC: decomposition
	// with arbitrary tie-breaking plus direction-optimizing dense rounds.
	// Expected linear work, O(log^3 n) depth w.h.p.
	DecompArbHybrid Algorithm = iota
	// DecompArb is decomp-arb-CC: one CAS pass per BFS round.
	DecompArb
	// DecompMin is decomp-min-CC: the original Miller et al. decomposition
	// with deterministic writeMin tie-breaking (two passes per round).
	DecompMin
	// SerialSF is the sequential union-find spanning-forest baseline.
	SerialSF
	// ParallelSFPBBS is the CAS-based concurrent union-find baseline
	// (PBBS-style spanning forest).
	ParallelSFPBBS
	// ParallelSFPRM is the lock-based concurrent union-find baseline
	// (Patwary-Refsnes-Manne-style spanning forest).
	ParallelSFPRM
	// HybridBFS runs a direction-optimizing BFS per component, one
	// component at a time (Ligra-style hybrid-BFS-CC).
	HybridBFS
	// Multistep is Slota et al.'s multistep-CC: BFS for the giant
	// component, then label propagation.
	Multistep
	// LabelProp is pure label propagation (graph-systems baseline).
	LabelProp
	// ShiloachVishkin is the classic O(m log n) PRAM algorithm.
	ShiloachVishkin
	// RandomMate is Reif's random-mate contraction algorithm, the other
	// classic O(m log n) family from the paper's introduction.
	RandomMate
	// ParallelSFVerify is the verification-based Patwary et al. spanning
	// forest (speculative lock-free unions + re-verification); the paper
	// mentions it alongside ParallelSFPRM.
	ParallelSFVerify
	// SampledSF is a two-phase sampling accelerator over the concurrent
	// union-find: union a per-vertex edge sample, guess the giant
	// component, then only process edges not already internal to it (in
	// the spirit of the sampling-based algorithms the paper cites and of
	// the later ConnectIt framework).
	SampledSF
	// LDDUnionFind runs one low-diameter decomposition as a clustering
	// phase and finishes the remaining inter-cluster edges with the
	// concurrent union-find — the non-recursive alternative to
	// DecompArbHybrid's contraction recursion.
	LDDUnionFind
)

// Algorithms lists every implemented algorithm in a stable order, for
// harnesses that sweep all of them.
var Algorithms = []Algorithm{
	DecompArbHybrid, DecompArb, DecompMin,
	SerialSF, ParallelSFPBBS, ParallelSFPRM,
	HybridBFS, Multistep, LabelProp, ShiloachVishkin, RandomMate,
	ParallelSFVerify, SampledSF, LDDUnionFind,
}

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case DecompArbHybrid:
		return "decomp-arb-hybrid-CC"
	case DecompArb:
		return "decomp-arb-CC"
	case DecompMin:
		return "decomp-min-CC"
	case SerialSF:
		return "serial-SF"
	case ParallelSFPBBS:
		return "parallel-SF-PBBS"
	case ParallelSFPRM:
		return "parallel-SF-PRM"
	case HybridBFS:
		return "hybrid-BFS-CC"
	case Multistep:
		return "multistep-CC"
	case LabelProp:
		return "labelprop-CC"
	case ShiloachVishkin:
		return "sv-CC"
	case RandomMate:
		return "randmate-CC"
	case ParallelSFVerify:
		return "parallel-SF-verify"
	case SampledSF:
		return "sampled-SF"
	case LDDUnionFind:
		return "ldd-uf-CC"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// ParseAlgorithm maps a paper-style name (as printed by String) back to an
// Algorithm.
func ParseAlgorithm(name string) (Algorithm, error) {
	for _, a := range Algorithms {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("parconn: unknown algorithm %q", name)
}

// DedupMode selects duplicate-edge handling during contraction; see the
// core package constants re-exported below.
type DedupMode = core.DedupMode

// Duplicate-edge handling during graph contraction.
const (
	// DedupHash removes duplicates with a phase-concurrent hash table (the
	// paper's choice) when a sample of a level's contracted edges shows
	// heavy duplication (at most 1/16 of them distinct), and by sorting
	// otherwise; labels are the same either way.
	DedupHash = core.DedupHash
	// DedupSort removes duplicates by sorting.
	DedupSort = core.DedupSort
	// DedupNone keeps duplicates (ablation; correct but slower).
	DedupNone = core.DedupNone
)

// Options configures ConnectedComponents.
type Options struct {
	// Algorithm selects the implementation; zero is DecompArbHybrid.
	Algorithm Algorithm
	// Beta is the decomposition parameter in (0,1); zero means 0.2. The
	// paper's sweep (Figure 3) finds 0.05-0.2 fastest. Ignored by
	// non-decomposition algorithms.
	Beta float64
	// Seed makes randomized algorithms reproducible.
	Seed uint64
	// Procs bounds the number of parallel workers; <= 0 means all cores.
	Procs int
	// DenseFrac is the frontier fraction at which DecompArbHybrid switches
	// to read-based rounds; zero means the paper's 20%.
	DenseFrac float64
	// Dedup selects duplicate-edge removal during contraction.
	Dedup DedupMode
	// EdgeParallel, when positive, scans the adjacency lists of frontier
	// vertices with at least this many live edges using nested parallelism
	// (the paper's optional high-degree optimization, §4). Only DecompArb
	// reads it; every other algorithm rejects a non-zero value. Zero means
	// the adaptive cutoff, which scales with the level's live edges per
	// worker and is off at one worker.
	EdgeParallel int
	// Recorder, if non-nil, receives the structured observability event
	// stream: run start/end for every algorithm, plus per-level, per-round,
	// per-phase, and counter events for the decomposition algorithms. See
	// the Recorder docs in obs.go. nil disables all instrumentation.
	Recorder Recorder
}

// validate rejects option combinations before they reach the engine, where
// they would surface as NaN shifts, degenerate all-dense rounds, or
// silently ignored knobs.
func (o Options) validate() error {
	switch o.Algorithm {
	case DecompArbHybrid, DecompArb, DecompMin:
		// Negated comparisons so NaN (which fails every ordered comparison)
		// is rejected instead of waved through.
		if o.Beta != 0 && !(o.Beta > 0 && o.Beta < 1) {
			return fmt.Errorf("parconn: Beta %v outside (0,1); zero selects the default %v", o.Beta, decomp.DefaultBeta)
		}
		if o.DenseFrac != 0 && !(o.DenseFrac > 0 && o.DenseFrac <= 1) {
			return fmt.Errorf("parconn: DenseFrac %v outside (0,1]; zero selects the default %v", o.DenseFrac, decomp.DefaultDenseFrac)
		}
	case LDDUnionFind:
		if o.Beta != 0 && !(o.Beta > 0 && o.Beta < 1) {
			return fmt.Errorf("parconn: Beta %v outside (0,1); zero selects the default %v", o.Beta, decomp.DefaultBeta)
		}
	}
	if o.EdgeParallel < 0 {
		return fmt.Errorf("parconn: EdgeParallel %d is negative", o.EdgeParallel)
	}
	if o.EdgeParallel != 0 && o.Algorithm != DecompArb {
		return fmt.Errorf("parconn: EdgeParallel is only read by %v, not %v", DecompArb, o.Algorithm)
	}
	return nil
}

// ConnectedComponents labels the connected components of g: the returned
// slice maps every vertex to a canonical vertex id of its component, so
// labels[u] == labels[v] iff u and v are connected, and labels[labels[v]]
// == labels[v] for all v.
func ConnectedComponents(g *Graph, opt Options) ([]int32, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	rec := opt.Recorder
	if rec == nil {
		return connectedComponents(g, opt)
	}
	beta := opt.Beta
	switch opt.Algorithm {
	case DecompArbHybrid, DecompArb, DecompMin, LDDUnionFind:
		if beta == 0 {
			beta = decomp.DefaultBeta
		}
	default:
		beta = 0
	}
	t0 := now()
	env := CaptureEnv()
	rec.RunStart(RunStart{
		Algorithm: opt.Algorithm.String(),
		Vertices:  g.NumVertices(),
		Edges:     g.g.NumDirected(),
		Procs:     parallel.Procs(opt.Procs),
		Seed:      opt.Seed,
		Beta:      beta,
		Env:       &env,
	})
	labels, err := connectedComponents(g, opt)
	end := RunEnd{Duration: time.Since(t0)}
	if err != nil {
		end.Err = err.Error()
	} else {
		end.Components = countComponents(labels)
	}
	rec.RunEnd(end)
	return labels, err
}

// connectedComponents dispatches a validated Options to the engine.
func connectedComponents(g *Graph, opt Options) ([]int32, error) {
	pool, procs := parallel.Default(), parallel.Procs(opt.Procs)
	switch opt.Algorithm {
	case DecompArbHybrid, DecompArb, DecompMin:
		return core.CC(g.g, core.Options{
			Variant:      variantOf(opt.Algorithm),
			Beta:         opt.Beta,
			Seed:         opt.Seed,
			Procs:        procs,
			DenseFrac:    opt.DenseFrac,
			Dedup:        opt.Dedup,
			EdgeParallel: opt.EdgeParallel,
			Recorder:     opt.Recorder,
			Pool:         pool,
		})
	case SerialSF:
		return baseline.SerialSF(g.g), nil
	case ParallelSFPBBS:
		return baseline.ParallelSFPBBS(pool, procs, g.g), nil
	case ParallelSFPRM:
		return baseline.ParallelSFPRM(pool, procs, g.g), nil
	case HybridBFS:
		return baseline.HybridBFSCC(pool, procs, g.g), nil
	case Multistep:
		return baseline.MultistepCC(pool, procs, g.g), nil
	case LabelProp:
		return baseline.LabelPropCC(pool, procs, g.g), nil
	case ShiloachVishkin:
		return baseline.ShiloachVishkinCC(pool, procs, g.g), nil
	case RandomMate:
		return baseline.RandomMateCC(pool, procs, g.g, opt.Seed), nil
	case ParallelSFVerify:
		return baseline.ParallelSFVerify(pool, procs, g.g), nil
	case SampledSF:
		return baseline.SampledSF(pool, procs, g.g, 2), nil
	case LDDUnionFind:
		return baseline.LDDSampledCC(pool, procs, g.g, opt.Beta, opt.Seed)
	default:
		return nil, fmt.Errorf("parconn: unknown algorithm %d", int(opt.Algorithm))
	}
}

func variantOf(a Algorithm) decomp.Variant {
	switch a {
	case DecompArb:
		return decomp.Arb
	case DecompMin:
		return decomp.Min
	default:
		return decomp.ArbHybrid
	}
}

// SpanningForest returns the edges of a spanning forest of g (exactly
// NumVertices - NumComponents edges), computed with the concurrent
// union-find.
func SpanningForest(g *Graph, procs int) []Edge {
	return baseline.SpanningForest(parallel.Default(), procs, g.g)
}

// DecompOptions configures Decompose.
type DecompOptions struct {
	// Algorithm must be one of the decomposition variants; zero is
	// DecompArbHybrid.
	Algorithm Algorithm
	// Beta controls partition radius (O(log n / Beta)) versus cut size
	// (<= 2*Beta*m expected); zero means 0.2.
	Beta float64
	// Seed makes the decomposition reproducible.
	Seed uint64
	// Procs bounds parallelism; <= 0 means all cores.
	Procs int
	// Recorder, if non-nil, receives the structured event stream (run
	// bracketing plus per-round and per-phase events, all at level 0).
	Recorder Recorder
}

// Decomposition is the result of a low-diameter decomposition.
type Decomposition struct {
	// Labels[v] identifies v's partition by its center vertex.
	Labels []int32
	// NumPartitions is the number of partitions.
	NumPartitions int
	// Rounds is the number of parallel BFS rounds used; partition radii
	// are bounded by it.
	Rounds int
	// CutEdges is the number of directed edges crossing partitions.
	CutEdges int64
}

// Decompose computes a (beta, O(log n / beta)) low-diameter decomposition
// of g (Miller, Peng, Xu SPAA'13 / §2 of the paper): vertices are
// partitioned into balls of radius O(log n / beta) such that at most a
// 2*beta fraction of edges cross partitions in expectation. The input graph
// is not modified.
func Decompose(g *Graph, opt DecompOptions) (*Decomposition, error) {
	switch opt.Algorithm {
	case DecompArbHybrid, DecompArb, DecompMin:
	default:
		return nil, fmt.Errorf("parconn: Decompose requires a decomposition algorithm, got %v", opt.Algorithm)
	}
	procs := parallel.Procs(opt.Procs)
	rec := opt.Recorder
	t0 := now()
	if rec != nil {
		beta := opt.Beta
		if beta == 0 {
			beta = decomp.DefaultBeta
		}
		env := CaptureEnv()
		rec.RunStart(RunStart{
			Algorithm: opt.Algorithm.String(),
			Vertices:  g.NumVertices(),
			Edges:     g.g.NumDirected(),
			Procs:     procs,
			Seed:      opt.Seed,
			Beta:      beta,
			Env:       &env,
		})
	}
	pool := parallel.Default()
	w := decomp.NewWGraph(pool, procs, g.g)
	res, err := decomp.Decompose(w, variantOf(opt.Algorithm), decomp.Options{
		Beta:     opt.Beta,
		Seed:     opt.Seed,
		Procs:    procs,
		Recorder: rec,
		Pool:     pool,
	})
	if err != nil {
		if rec != nil {
			rec.RunEnd(RunEnd{Duration: time.Since(t0), Err: err.Error()})
		}
		return nil, err
	}
	d := &Decomposition{
		Labels:        res.Labels,
		NumPartitions: res.NumCenters,
		Rounds:        res.Rounds,
		CutEdges:      res.EdgesOut,
	}
	if rec != nil {
		rec.RunEnd(RunEnd{Components: d.NumPartitions, Duration: time.Since(t0)})
	}
	return d, nil
}

// NumComponents returns the number of distinct components in a labeling.
func NumComponents(labels []int32) int {
	return graph.NumComponentsOf(labels)
}

// ComponentSizes returns the size of each component, keyed by label.
func ComponentSizes(labels []int32) map[int32]int {
	return graph.ComponentSizesOf(labels)
}

// ComponentSize is one component of a labeling: its label and vertex count.
type ComponentSize = graph.ComponentSize

// TopComponents returns the number of distinct components and the k largest
// (size descending, ties by ascending label; k <= 0 returns all, sorted).
func TopComponents(labels []int32, k int) (int, []ComponentSize) {
	return graph.ComponentSummary(labels, k)
}

// CompactLabels rewrites a labeling into dense ids 0..k-1 (ordered by first
// appearance) and returns the new labeling and k.
func CompactLabels(labels []int32) ([]int32, int) {
	remap := make(map[int32]int32, 64)
	out := make([]int32, len(labels))
	for i, l := range labels {
		id, ok := remap[l]
		if !ok {
			//parconn:allow conversioncheck len(remap) <= len(labels) and vertex ids are int32, so the map can never exceed 2^31 entries
			id = int32(len(remap))
			remap[l] = id
		}
		out[i] = id
	}
	return out, len(remap)
}

// SameComponent reports whether u and v share a component under labels.
func SameComponent(labels []int32, u, v int32) bool {
	return labels[u] == labels[v]
}
