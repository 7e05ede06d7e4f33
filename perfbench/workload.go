package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hierarchy"
)

// The workloads. README.md records why each was chosen and its measured
// layer split.
const (
	wlRMATMatching    = "rmat-matching"
	wlLJEnsemble      = "lj-ensemble"
	wlRMATIncremental = "rmat-incremental"
)

var workloadNames = []string{wlRMATMatching, wlLJEnsemble, wlRMATIncremental}

const (
	rmatScale  = 16
	ljVertices = 200_000
	setupReps  = 3 // set-ups per run; setup_s is their median
	minDetects = 5 // measured Detect calls per run, at least
	minBatches = 100
	batchRate  = 15 // batches generated per measured second: a 67 ms floor per checked batch
	// The incremental stream: a hot set of hotVertices vertices, whose
	// first bulkBatches batches the set-up applies to the overlay before
	// the bootstrap Detect. Then warm-up batches run, at most warmupMax,
	// until settleBatches batches in a row each dissolve at most twice the
	// hot set. README.md gives the measurements behind these numbers.
	hotVertices   = 16
	bulkBatches   = 200
	settleBatches = 3
	warmupMax     = 40
)

// inputs is what the generator hands the program: an edge list, and for the
// incremental workload the update batches. The program builds everything
// else, so set-up time and memory exclude the generator.
type inputs struct {
	n       int64
	edges   []graph.Edge
	batches []*graph.Delta
}

func generate(workload string, seed uint64, seconds int) (*inputs, error) {
	var g *graph.Graph
	var err error
	switch workload {
	case wlRMATMatching, wlRMATIncremental:
		g, _, err = gen.ConnectedRMAT(0, gen.DefaultRMAT(rmatScale, seed))
	case wlLJEnsemble:
		g, _, err = gen.LJSim(0, gen.DefaultLJSim(ljVertices, seed))
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", workload, err)
	}
	in := &inputs{n: g.NumVertices(), edges: g.Edges()}
	for x, w := range g.Self {
		if w != 0 {
			in.edges = append(in.edges, graph.Edge{U: int64(x), V: int64(x), W: w})
		}
	}
	if workload == wlRMATIncremental {
		in.batches, err = gen.Deltas(g, gen.DeltaConfig{
			Batches:    bulkBatches + warmupMax + max(minBatches, seconds*batchRate),
			BatchSize:  int(g.NumEdges() / 100),
			DeleteFrac: 0.5,
			MaxWeight:  3,
			Hubs:       hotVertices,
			Seed:       seed,
		})
		if err != nil {
			return nil, fmt.Errorf("generating update batches: %w", err)
		}
	}
	return in, nil
}

// cost is what one engine call consumed, read around the call only.
type cost struct {
	dur       time.Duration
	alloc     uint64 // heap bytes allocated
	gcs       uint32 // GC cycles completed
	gcPause   time.Duration
	heapAfter uint64 // heap bytes in use right after the call
	acquires  int64  // exec contexts acquired
	spawned   int64  // exec worker teams spawned
}

func measure(fn func() error) (cost, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	acq0, _, sp0 := exec.PoolStats()
	t0 := time.Now()
	err := fn()
	dur := time.Since(t0)
	acq1, _, sp1 := exec.PoolStats()
	runtime.ReadMemStats(&after)
	return cost{
		dur:       dur,
		alloc:     after.TotalAlloc - before.TotalAlloc,
		gcs:       after.NumGC - before.NumGC,
		gcPause:   time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		heapAfter: after.HeapAlloc,
		acquires:  acq1 - acq0,
		spawned:   sp1 - sp0,
	}, err
}

// opResult is one engine call: its cost and the partition it returned on
// the graph it ran on.
type opResult struct {
	cost
	g          *graph.Graph
	comm       []int64
	k          int64
	modularity float64
	updates    int // batch updates applied; 0 for Detect
}

// bench is one workload's program state. setup builds it from the inputs
// and runs until the first steady op, returning the set-up's wall time and
// the last op it ran; op runs one measured op.
type bench interface {
	setup() (time.Duration, opResult, error)
	op() (opResult, error)
	buildTime() time.Duration
}

func newBench(workload string, in *inputs) bench {
	switch workload {
	case wlLJEnsemble:
		return &detectBench{in: in, opt: core.Options{Engine: core.EngineEnsemble}}
	case wlRMATIncremental:
		return &incBench{in: in}
	}
	return &detectBench{in: in, opt: core.Options{Engine: core.EngineMatching}}
}

// detectBench serves Detect calls on one graph out of one Scratch.
type detectBench struct {
	in      *inputs
	opt     core.Options
	g       *graph.Graph
	scratch *core.Scratch
	buildT  time.Duration
}

func (b *detectBench) buildTime() time.Duration { return b.buildT }

// setup builds the graph from the edge list and runs the first, cold
// Detect on a fresh Scratch.
func (b *detectBench) setup() (time.Duration, opResult, error) {
	t0 := time.Now()
	g, err := graph.Build(0, b.in.n, b.in.edges)
	if err != nil {
		return 0, opResult{}, fmt.Errorf("building graph: %w", err)
	}
	b.buildT = time.Since(t0)
	b.g, b.scratch = g, core.NewScratch()
	r, err := b.op()
	return time.Since(t0), r, err
}

func (b *detectBench) op() (opResult, error) {
	var res *core.Result
	c, err := measure(func() (err error) {
		res, err = core.DetectWith(b.g, b.opt, b.scratch)
		return err
	})
	if err != nil {
		return opResult{}, fmt.Errorf("detect: %w", err)
	}
	return opResult{cost: c, g: b.g, comm: res.CommunityOf, k: res.NumCommunities,
		modularity: res.FinalModularity}, nil
}

// incOptions are the serving loop's options: it chains batches on the
// final partition alone, so it keeps no per-level maps, and each batch's
// dendrogram is the one-level hierarchy.FromFinal.
var incOptions = core.Options{DiscardLevels: true}

// incBench serves update batches through DetectIncrementalWith on one
// overlay and one Scratch.
type incBench struct {
	in      *inputs
	ov      *graph.Overlay
	prev    *hierarchy.Dendrogram
	scratch *core.Scratch
	next    int // index of the next unused batch
	buildT  time.Duration
	warmup  int // batches the last set-up applied
	// prevG and lastG are the compacted graphs before and after the last
	// batch, lastBatch that batch. Both graphs are overlay-owned; prevG
	// stays valid until the next Compact.
	prevG, lastG *graph.Graph
	lastBatch    *graph.Delta
}

func (b *incBench) buildTime() time.Duration { return b.buildT }

// setup builds the graph and bulk-loads the stream's first bulkBatches
// batches into an overlay over it. It runs the bootstrap Detect on the
// result, then warm-up batches until the dissolved vertex count settles.
// Without the bulk load the hot vertices start out inside R-MAT's giant
// communities: each early batch then dissolves thousands of vertices and
// costs several steady batches, for a number of batches that depends on
// the seed.
func (b *incBench) setup() (time.Duration, opResult, error) {
	t0 := time.Now()
	g, err := graph.Build(0, b.in.n, b.in.edges)
	if err != nil {
		return 0, opResult{}, fmt.Errorf("building graph: %w", err)
	}
	b.buildT = time.Since(t0)
	b.scratch = core.NewScratch()
	b.ov = graph.NewOverlay(0, g)
	for b.next = 0; b.next < bulkBatches; b.next++ {
		if err := b.ov.ApplyDelta(b.in.batches[b.next]); err != nil {
			return 0, opResult{}, fmt.Errorf("bulk-loading batch %d: %w", b.next, err)
		}
	}
	if g, err = b.ov.Compact(); err != nil {
		return 0, opResult{}, fmt.Errorf("bulk-load compact: %w", err)
	}
	res, err := core.DetectWith(g, incOptions, b.scratch)
	if err != nil {
		return 0, opResult{}, fmt.Errorf("bootstrap detect: %w", err)
	}
	if b.prev, err = hierarchy.FromFinal(g.NumVertices(), res.CommunityOf, res.NumCommunities); err != nil {
		return 0, opResult{}, fmt.Errorf("bootstrap dendrogram: %w", err)
	}
	b.prevG, b.lastG = nil, g
	var r opResult
	var dissolved []int64
	for len(dissolved) < warmupMax && !settled(dissolved) {
		var d int64
		if r, d, err = b.batch(); err != nil {
			return 0, r, err
		}
		dissolved = append(dissolved, d)
	}
	b.warmup = b.next - bulkBatches
	return time.Since(t0), r, nil
}

// settled reports whether each of the last settleBatches batches dissolved
// at most twice the hot set: the hot vertices then sit in communities of
// their own, and every further batch re-agglomerates only them.
func settled(d []int64) bool {
	if len(d) < settleBatches {
		return false
	}
	for _, x := range d[len(d)-settleBatches:] {
		if x > 2*hotVertices {
			return false
		}
	}
	return true
}

var errNoBatches = errors.New("update batches exhausted")

func (b *incBench) op() (opResult, error) {
	r, _, err := b.batch()
	return r, err
}

// batch applies the next batch and returns the op and its dissolved vertex
// count.
func (b *incBench) batch() (opResult, int64, error) {
	if b.next >= len(b.in.batches) {
		return opResult{}, 0, errNoBatches
	}
	d := b.in.batches[b.next]
	var ir *core.IncrementalResult
	c, err := measure(func() (err error) {
		ir, err = core.DetectIncrementalWith(b.ov, b.prev, d, incOptions, b.scratch)
		return err
	})
	if err != nil {
		return opResult{}, 0, fmt.Errorf("batch %d: %w", b.next, err)
	}
	b.next++
	b.prev = ir.Dendrogram
	b.prevG, b.lastG, b.lastBatch = b.lastG, ir.Graph, d
	return opResult{cost: c, g: ir.Graph, comm: ir.CommunityOf, k: ir.NumCommunities,
		modularity: ir.FinalModularity, updates: d.Len()}, ir.DissolvedVertices, nil
}
