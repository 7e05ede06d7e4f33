package main

// The traced run replays the engine's op through the public kernel calls,
// one span around each call, so the tracing stays out of the program. The
// replay follows internal/core's detect loop step for step; the partition
// hash check against the engine's own result keeps the two in step.

import (
	"context"
	"fmt"
	"runtime/metrics"
	"time"

	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/hierarchy"
	"repro/internal/matching"
	"repro/internal/par"
	"repro/internal/plp"
	"repro/internal/scoring"
)

// Span names. Each is a layer of the repository, except spanCount, which
// brackets the benchmark's own counting so that it can be left out of the
// op time.
const (
	spanOp         = "core.op"
	spanLevel      = "core.level"
	spanApplyDelta = "graph.apply_delta"
	spanCompact    = "graph.compact"
	spanSchedule   = "par.schedule"
	spanScoring    = "scoring"
	spanMatching   = "matching"
	spanContract   = "contract"
	spanPLP        = "plp"
	spanHierarchy  = "hierarchy"
	spanCount      = "trace.count"
)

// span is one call into a layer: its name, start and end since the run's
// epoch, the enclosing span (-1 for an op's root) and the op it belongs to.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Threads int    `json:"threads"`
}

// tracer keeps spans in memory until the run ends. It also samples the
// heap at every span end, for the heap peak.
type tracer struct {
	epoch    time.Time
	spans    []span
	open     []int
	op       int
	threads  int
	heapPeak uint64
	sample   []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		epoch:  time.Now(),
		spans:  make([]span, 0, 1<<14),
		sample: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}},
	}
}

func (t *tracer) begin(name string) {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, span{Name: name, StartNs: int64(time.Since(t.epoch)),
		Parent: parent, Op: t.op, Threads: t.threads})
}

func (t *tracer) end() {
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].EndNs = int64(time.Since(t.epoch))
	metrics.Read(t.sample)
	if h := t.sample[0].Value.Uint64(); h > t.heapPeak {
		t.heapPeak = h
	}
}

// beginOp opens the root span of a new op run at the given thread count.
func (t *tracer) beginOp(threads int) {
	t.op++
	t.threads = threads
	t.begin(spanOp)
}

// selfTimes returns, per op, each span name's self time: its spans'
// durations minus the parts their child spans cover. It also returns each
// op's wall time without its spanCount spans, and the op's thread count.
func (t *tracer) selfTimes() (self map[int]map[string]time.Duration, wall map[int]time.Duration, threads map[int]int) {
	self = map[int]map[string]time.Duration{}
	wall = map[int]time.Duration{}
	threads = map[int]int{}
	for _, s := range t.spans {
		d := time.Duration(s.EndNs - s.StartNs)
		if self[s.Op] == nil {
			self[s.Op] = map[string]time.Duration{}
		}
		self[s.Op][s.Name] += d
		if s.Parent >= 0 {
			self[s.Op][t.spans[s.Parent].Name] -= d
		} else {
			wall[s.Op] += d
			threads[s.Op] = s.Threads
		}
		if s.Name == spanCount {
			wall[s.Op] -= d
		}
	}
	return self, wall, threads
}

// counts is the work the replayed layers did, summed over ops.
type counts struct {
	ops                      int
	levels                   int64
	scoreEdges, positive     int64
	passes, visits, pairs    int64
	edgesIn, edgesOut        int64
	plpSweeps                int64
	plpActive, plpChanged    int64
	compactEdges             int64
	imbalanceW, imbalanceSum float64 // edge-weighted sum of level schedule imbalance
}

// replayer replays ops at a fixed thread count out of its own reusable
// kernel state, as the engine's Scratch does.
type replayer struct {
	threads int
	tr      *tracer
	c       counts

	deg      []int64
	scores   []float64
	mapBuf   []int64
	comm     []int64
	part     par.Partition
	ms       matching.Scratch
	cs       contract.Scratch
	ps       plp.Scratch
	dst      [2]*graph.Graph
	seedComm []int64
	remap    []int64
	dirty    []bool

	// The incremental replay's own overlay and previous partition.
	ov   *graph.Overlay
	prev *hierarchy.Dendrogram
}

func newReplayer(threads int, tr *tracer) *replayer {
	return &replayer{threads: threads, tr: tr, dst: [2]*graph.Graph{{}, {}}}
}

// newShadowOverlay is the incremental replay's own overlay over a copy of
// the engine's current compacted graph.
func newShadowOverlay(p int, g *graph.Graph) *graph.Overlay {
	return graph.NewOverlay(p, g.Clone())
}

// detect replays one Detect call on g and returns the partition.
func (r *replayer) detect(g *graph.Graph, engine core.Engine) ([]int64, int64) {
	ec := exec.Acquire(context.Background(), r.threads, nil)
	defer ec.Release()
	r.tr.beginOp(r.threads)
	defer r.tr.end()
	r.c.ops++
	n := int(g.NumVertices())
	r.comm = grow(r.comm, n)
	comm := r.comm
	ec.For(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			comm[i] = int64(i)
		}
	})
	totW := g.TotalWeight(ec.Threads())
	cg, phase := g, 0
	if engine == core.EngineEnsemble {
		r.tr.begin(spanPLP)
		pres := plp.PropagateWith(ec, g, plp.Options{MaxSweeps: core.DefaultEnsembleSweeps}, &r.ps)
		r.tr.end()
		r.c.plpSweeps += int64(pres.Sweeps)
		for i := range pres.Sweeps {
			r.c.plpActive += pres.Active[i]
			r.c.plpChanged += pres.Changed[i]
		}
		r.tr.begin(spanContract)
		ng, mapping, _ := contract.ByLabelsWith(ec, g, pres.Labels, contract.Contiguous, &r.cs, r.dst[0], r.mapBuf)
		r.tr.end()
		r.mapBuf = mapping
		r.c.edgesIn += g.NumEdges()
		r.c.edgesOut += ng.NumEdges()
		compose(ec, comm, mapping)
		cg, phase = ng, 1
	}
	cg = r.levels(ec, cg, comm, totW, phase)
	return comm, cg.NumVertices()
}

// batch replays one DetectIncrementalWith call on the replayer's own
// overlay and returns the partition.
func (r *replayer) batch(d *graph.Delta) ([]int64, int64, error) {
	r.tr.beginOp(r.threads)
	defer r.tr.end()
	r.c.ops++
	r.tr.begin(spanApplyDelta)
	err := r.ov.ApplyDelta(d)
	r.tr.end()
	if err != nil {
		return nil, 0, err
	}
	r.tr.begin(spanCompact)
	g, err := r.ov.Compact()
	r.tr.end()
	if err != nil {
		return nil, 0, err
	}
	r.c.compactEdges += g.NumEdges()

	// The seed partition, by the rule in core/incremental.go: communities a
	// batch touches dissolve to singletons numbered after the kept ones.
	n := g.NumVertices()
	prevComm, prevK := r.prev.Final()
	r.dirty = grow(r.dirty, int(prevK))
	r.remap = grow(r.remap, int(prevK))
	r.seedComm = grow(r.seedComm, int(n))
	clear(r.dirty)
	for _, up := range d.Updates {
		r.dirty[prevComm[up.U]] = true
		r.dirty[prevComm[up.V]] = true
	}
	var k0 int64
	for c := range prevK {
		if r.dirty[c] {
			r.remap[c] = -1
		} else {
			r.remap[c] = k0
			k0++
		}
	}
	for v := range n {
		if c := r.remap[prevComm[v]]; c >= 0 {
			r.seedComm[v] = c
		} else {
			r.seedComm[v] = k0
			k0++
		}
	}

	ec := exec.Acquire(context.Background(), r.threads, nil)
	defer ec.Release()
	totW := g.TotalWeight(ec.Threads())
	r.comm = grow(r.comm, int(n))
	comm := r.comm
	copy(comm, r.seedComm)
	r.tr.begin(spanContract)
	ng := contract.ByMappingWith(ec, g, r.seedComm, k0, contract.Contiguous, &r.cs, r.dst[0])
	r.tr.end()
	r.c.edgesIn += g.NumEdges()
	r.c.edgesOut += ng.NumEdges()
	cg := r.levels(ec, ng, comm, totW, 1)

	r.tr.begin(spanHierarchy)
	r.prev, err = hierarchy.FromFinal(n, comm, cg.NumVertices())
	r.tr.end()
	if err != nil {
		return nil, 0, fmt.Errorf("replay dendrogram: %w", err)
	}
	return comm, cg.NumVertices(), nil
}

// levels is core's level loop: schedule, score, match and contract until
// no edge scores positive. Like the engine it also evaluates coverage and
// modularity every level. It returns the final community graph.
func (r *replayer) levels(ec *exec.Ctx, cg *graph.Graph, comm []int64, totW int64, phase int) *graph.Graph {
	defer ec.SetPartition(nil)
	p := ec.Threads()
	for ; ; phase++ {
		r.tr.begin(spanLevel)
		_ = coverage(ec, cg, totW)
		nv := int(cg.NumVertices())
		if !ec.Serial(nv) {
			ec.SetPartition(&r.part)
			r.tr.begin(spanSchedule)
			ec.BuildBuckets(&r.part, nv, cg.Start, cg.End)
			r.tr.end()
			w := float64(cg.NumEdges())
			r.c.imbalanceW += w
			r.c.imbalanceSum += w * r.part.AlignedImbalance()
		} else {
			ec.SetPartition(nil)
		}

		r.tr.begin(spanScoring)
		r.deg = cg.WeightedDegreesInto(p, r.deg)
		r.scores = grow(r.scores, len(cg.U))
		scores := r.scores[:len(cg.U)]
		positive := scoring.Modularity{}.ScoreFused(ec, cg, r.deg, totW, scores, nil, 0, nil)
		r.tr.end()
		r.c.scoreEdges += cg.NumEdges()
		r.tr.begin(spanCount)
		r.c.positive += countPositive(cg, scores)
		r.tr.end()
		if !positive {
			_ = modularity(ec, cg, r.deg, totW)
			r.tr.end()
			return cg
		}

		r.tr.begin(spanMatching)
		mres := matching.WorklistWith(ec, cg, scores, &r.ms)
		r.tr.end()
		r.c.passes += int64(mres.Passes)
		r.c.pairs += mres.Pairs
		for _, a := range mres.Drain {
			r.c.visits += a
		}
		if mres.Pairs == 0 {
			r.tr.end()
			return cg
		}

		r.tr.begin(spanContract)
		ng, mapping := contract.BucketWith(ec, cg, mres.Match, contract.Contiguous, &r.cs, r.dst[phase&1], r.mapBuf)
		r.tr.end()
		r.mapBuf = mapping
		r.c.edgesIn += cg.NumEdges()
		r.c.edgesOut += ng.NumEdges()
		compose(ec, comm, mapping)
		_ = modularity(ec, cg, r.deg, totW)
		r.c.levels++
		cg = ng
		r.tr.end()
	}
}

// compose maps every vertex's community through one level's mapping.
func compose(ec *exec.Ctx, comm, mapping []int64) {
	ec.For(len(comm), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			comm[i] = mapping[comm[i]]
		}
	})
}

func coverage(ec *exec.Ctx, cg *graph.Graph, totW int64) float64 {
	return float64(ec.SumInt64(cg.Self)) / float64(totW)
}

func modularity(ec *exec.Ctx, cg *graph.Graph, deg []int64, totW int64) float64 {
	m := float64(totW)
	partial := make([]float64, ec.Threads())
	used := ec.ForWorker(int(cg.NumVertices()), func(w, lo, hi int) {
		var q float64
		for c := lo; c < hi; c++ {
			d := float64(deg[c]) / (2 * m)
			q += float64(cg.Self[c])/m - d*d
		}
		partial[w] = q
	})
	var q float64
	for _, x := range partial[:used] {
		q += x
	}
	return q
}

// countPositive counts the live edges with a positive score: the matching's
// eligible population.
func countPositive(g *graph.Graph, scores []float64) int64 {
	var c int64
	for x := range g.NumVertices() {
		for e := g.Start[x]; e < g.End[x]; e++ {
			if scores[e] > 0 {
				c++
			}
		}
	}
	return c
}

func grow[T any](xs []T, n int) []T {
	if cap(xs) < n {
		return make([]T, n)
	}
	return xs[:n]
}
