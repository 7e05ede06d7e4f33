// Package matching implements step 2 of the agglomerative loop (§III,
// §IV-B): a greedy approximately-maximum-weight maximal matching over the
// positively scored community-graph edges. Matched pairs merge in the
// contraction step; the greedy construction guarantees the matching weight
// is within a factor of two of the maximum (Preis; Hoepman;
// Manne–Bisseling).
//
// Two kernels are provided:
//
//   - Worklist: the paper's improved algorithm. An explicit array of
//     currently unmatched vertices is swept in parallel; each vertex scans
//     its own edge bucket and proposes every available edge to both
//     endpoints by raising a per-vertex candidate word with a
//     compare-and-swap, and a vertex is matched when its candidate is also
//     the other side's. Vertices whose candidate is not mutual stay on the
//     list. The kernel takes no lock.
//
//   - EdgeSweep: the 2011 algorithm kept as an ablation baseline. Every
//     sweep runs over the whole edge array and funnels the per-vertex best
//     through a lock per endpoint — the "frequent hot spots" that were
//     tolerable with the Cray XMT's full/empty bits but crippled the
//     OpenMP port.
//
// The paper notes its matching is non-deterministic in parallel: different
// runs may return different maximal matchings. Here both kernels match only
// mutually best edges under a strict total order, a set fixed by each
// pass's starting state, so their results — Match, Passes, Drain — are
// identical at every worker count and schedule. The worklist kernel
// reaches that set without locks (see Worklist), so it is
// schedule-independent by construction rather than by serializing claims.
package matching

import (
	"fmt"
	"sync/atomic"

	"repro/internal/buf"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/par"
)

// Unmatched marks a vertex without a partner in Result.Match.
const Unmatched = int64(-1)

// Result describes one matching.
type Result struct {
	// Match[v] is v's partner, or Unmatched. Symmetric:
	// Match[Match[v]] == v for every matched v.
	Match []int64
	// Pairs is the number of matched pairs.
	Pairs int64
	// Weight is the total score of the matched edges.
	Weight float64
	// Passes is the number of parallel sweeps the kernel ran.
	Passes int
	// Drain is the active-vertex count at the start of each pass — the
	// worklist drain curve the convergence ledger records (the edge sweep
	// has no worklist, so it reports the full vertex count per pass). Like
	// Match it aliases scratch storage when a Scratch was supplied, valid
	// only until the scratch's next use.
	Drain []int64
}

// edgeKey orders candidate edges: first by score, then by a hash of the
// stored endpoints, then by the endpoints themselves, making the order
// total (§IV-B "first score and then the vertex indices"). Breaking score
// ties by raw index builds long dependency chains along the vertex
// numbering — each chain element defers to the next, one pass each — so the
// hash shatters ties into random tournaments and keeps the pass count
// logarithmic.
type edgeKey struct {
	score         float64
	tie           uint64
	first, second int64
}

func makeKey(score float64, first, second int64) edgeKey {
	h := uint64(first)<<32 ^ uint64(second)
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	return edgeKey{score, h, first, second}
}

func (k edgeKey) less(o edgeKey) bool {
	if k.score != o.score {
		return k.score < o.score
	}
	if k.tie != o.tie {
		return k.tie < o.tie
	}
	if k.first != o.first {
		return k.first < o.first
	}
	return k.second < o.second
}

// Scratch holds the matching kernels' per-run state for reuse across engine
// phases: the match array, the worklist kernel's candidate words and
// worklist double-buffers with their pack workspace, and the edge-sweep
// kernel's best-edge tables and spinlock array. A zero Scratch is ready to
// use; each kernel reslices only the buffers it touches to the current
// vertex count, allocating only when a graph larger than any seen before
// arrives — after the first phase the steady-state loop allocates nothing
// here.
//
// A Scratch must not be shared by concurrent matchings. When a kernel runs
// with a Scratch, the returned Result.Match aliases scratch storage and is
// only valid until the next use of the same Scratch.
type Scratch struct {
	match []int64
	// cand[x] is the worklist kernel's candidate word for vertex x: the
	// pass stamp in the high bits, the best edge proposed to x this pass in
	// the low candEdgeBits. Phase A raises it by CAS-max; phase B reads it.
	// A word whose stamp is not the current pass's means "no candidate", so
	// the table is cleared once per run, not once per pass.
	cand  []atomic.Uint64
	stamp uint64  // stamp of the current pass; 0 never marks a live word
	list  []int64 // worklist double-buffer, ping
	list2 []int64 // worklist double-buffer, pong
	keep  []int64
	slots []int64
	// part is the per-pass degree-balanced schedule over the worklist:
	// item i weighs deg(list[i])+1, so a pass hands every worker an equal
	// share of bucket scanning instead of an equal share of vertices.
	// Ranges are vertex-aligned: a vertex's bucket scan is never split
	// between workers.
	part par.Partition
	// drain accumulates the per-pass active counts (one append per pass,
	// reused across runs, so the steady state stays off the heap).
	drain []int64

	// The edge-sweep kernel's per-vertex best-edge tables and lock array,
	// grown by EdgeSweepWith only, so the worklist path neither allocates
	// nor clears them.
	bestE    []int64
	bestKey  []edgeKey
	bestPass []int64
	locks    *par.SpinLocks
}

// candEdgeBits is the width of the edge-index field of a candidate word;
// the pass stamp takes the remaining high bits. 2^40 edge slots would need
// 24 TiB of U/V/W arrays, far past any graph the engine can hold.
const (
	candEdgeBits = 40
	candEdgeMask = 1<<candEdgeBits - 1
)

// maxStamp is the largest pass stamp a candidate word can hold; stamps
// cycle through 1..maxStamp (see nextStamp). It is a variable only so tests
// can force the wrap.
var maxStamp uint64 = 1<<(64-candEdgeBits) - 1

// growWorklist sizes the worklist kernel's buffers for an n-vertex graph
// and resets every vertex to unmatched with no candidate. Stamps restart at
// 1 every run, so both the serial and the parallel branch must clear cand:
// a word left by the previous run would otherwise read as current.
func (s *Scratch) growWorklist(ec *exec.Ctx, n int) {
	s.match = buf.Grow(s.match, n)
	s.cand = buf.Grow(s.cand, n)
	s.keep = buf.Grow(s.keep, n)
	s.slots = buf.Grow(s.slots, n)
	s.stamp = 0
	if ec.Serial(n) {
		s.resetWorklist(0, n)
		return
	}
	ec.For(n, s.resetWorklist)
}

func (s *Scratch) resetWorklist(lo, hi int) {
	match, cand := s.match[lo:hi], s.cand[lo:hi]
	for i := range match {
		match[i] = Unmatched
		cand[i].Store(0)
	}
}

// nextStamp returns the stamp of a new pass, pre-shifted into the high bits
// of a candidate word. Stamps cycle through 1..maxStamp without clearing the
// table, because only consecutive stamps must differ: every word a pass
// reads belongs to a vertex that was also sent a proposal in the previous
// pass (an edge available now was available then, and its owner listed
// then), so it carries the previous or the current stamp — or, in a run's
// first pass, the 0 that growWorklist wrote.
func (s *Scratch) nextStamp() uint64 {
	s.stamp = s.stamp%maxStamp + 1
	return s.stamp << candEdgeBits
}

// growSweep sizes the edge-sweep kernel's buffers for an n-vertex graph.
// bestPass entries are reset to -1 (pass stamps restart at 0 every run);
// locks are reused as-is — every lock is free between runs.
func (s *Scratch) growSweep(ec *exec.Ctx, n int) {
	s.match = buf.Grow(s.match, n)
	s.bestE = buf.Grow(s.bestE, n)
	s.bestPass = buf.Grow(s.bestPass, n)
	if cap(s.bestKey) < n {
		s.bestKey = make([]edgeKey, n)
	}
	s.bestKey = s.bestKey[:n]
	if s.locks == nil || s.locks.Len() < n {
		s.locks = par.NewSpinLocks(n)
	}
	if ec.Serial(n) {
		s.resetSweep(0, n)
		return
	}
	ec.For(n, s.resetSweep)
}

func (s *Scratch) resetSweep(lo, hi int) {
	match, bestPass := s.match[lo:hi], s.bestPass[lo:hi]
	for i := range match {
		match[i] = Unmatched
		bestPass[i] = -1
	}
}

// orNew returns s, or a fresh Scratch when s is nil, letting the kernels
// bind their scratch to a single-assignment variable (see WorklistWith).
func (s *Scratch) orNew() *Scratch {
	if s != nil {
		return s
	}
	return &Scratch{}
}

// Worklist computes a greedy heavy maximal matching with the paper's
// unmatched-vertex-list algorithm using p workers. Only edges with a
// strictly positive score participate. It allocates fresh state; the engine
// calls WorklistWith to reuse buffers across phases.
//
// Each pass parallelizes over the array of still-active vertices. An active
// vertex scans its own bucket (each edge is stored exactly once) and
// proposes every available edge as a candidate to *both* endpoints under
// the total order (score, stored endpoints); "if edge {i, j} dominates the
// scores adjacent to i and j, that edge will be found by one of the two
// vertices" (§IV-B). A vertex is matched exactly when its best candidate is
// also the other side's best candidate — the locally-dominant discipline of
// Hoepman and Manne–Bisseling, which guarantees weight within 2× of the
// maximum. Vertices whose candidate was not mutual stay on the list; the
// matching is maximal when the list drains.
//
// The kernel takes no lock. Proposals raise a per-vertex candidate word by
// compare-and-swap, only when the new edge beats the incumbent; the final
// word is the maximum of a set fixed by the pass's starting state, so it
// does not depend on the order the CASes land in. Mutual edges are
// disjoint, and the bucket owner U[e] of a mutual edge e — always on the
// list, since it alone proposed e — is the only writer of both match
// entries. The result (Match, Passes, Drain) is therefore the same at every
// worker count and schedule.
func Worklist(ec *exec.Ctx, g *graph.Graph, scores []float64) Result {
	return WorklistWith(ec, g, scores, nil)
}

// WorklistWith is Worklist running out of s's reusable buffers; a nil s
// behaves exactly like Worklist. When ec carries a recorder it records one
// span per pass (worklist length in, requeued count out) and the
// rounds/visits/claim counters; a nil recorder costs a handful of
// predictable branches per pass — nothing per vertex or edge. When ec's
// context is cancelled the pass loop exits early: the partial matching is
// symmetric and claim-consistent, just not maximal.
func WorklistWith(ec *exec.Ctx, g *graph.Graph, scores []float64, scratch *Scratch) Result {
	rec := ec.Recorder()
	n := int(g.NumVertices())
	// s is assigned exactly once: a variable with any assignment after its
	// declaration is captured by reference when a closure mentions it, i.e.
	// heap-boxed at declaration, which the zero-allocation steady state
	// cannot afford (same for lst below).
	s := scratch.orNew()
	s.growWorklist(ec, n)

	// Initial worklist: vertices owning at least one edge, built with the
	// parallel prefix-sum-and-scatter index pack. Vertices with empty
	// buckets are passive — they receive proposals but the owning side
	// performs the claim.
	keepFlags := s.keep
	if ec.Serial(n) {
		for x := 0; x < n; x++ {
			if g.End[x] > g.Start[x] {
				keepFlags[x] = 1
			} else {
				keepFlags[x] = 0
			}
		}
	} else {
		ec.For(n, func(lo, hi int) {
			for x := lo; x < hi; x++ {
				if g.End[x] > g.Start[x] {
					keepFlags[x] = 1
				} else {
					keepFlags[x] = 0
				}
			}
		})
	}
	list := ec.PackIndexInto(n, keepFlags, s.slots, s.list)

	buf := s.list2
	hot := rec.Hot() // nil when disabled; claim chunks flush into it
	s.drain = s.drain[:0]
	passes := 0
	for len(list) > 0 {
		if ec.Err() != nil {
			break // cancelled: the matching so far is symmetric, stop refining it
		}
		s.drain = append(s.drain, int64(len(list)))
		tag := s.nextStamp()
		lst := list // single-assignment alias for closure capture
		sp := rec.Begin(obs.CatMatch, "pass", -1)
		var passT0 int64
		if rec.Enabled() {
			passT0 = obs.NowNS()
		}
		// Phase A: active vertices scan their buckets and raise the
		// candidate words of both endpoints of every available positive
		// edge. The pass bodies live in plain functions so the serial path
		// evaluates no closure literal (a literal handed to ForRanges
		// escapes and heap-allocates even when the loop then runs on one
		// worker).
		serial := ec.Serial(len(lst))
		if serial {
			worklistPropose(g, scores, s, lst, tag, 0, len(lst))
		} else {
			// One degree-balanced schedule serves both phases of the pass,
			// so a worker revisits in phase B the vertices it proposed for
			// in phase A with their candidate words still warm.
			ec.BuildIndexed(&s.part, lst, g.Start, g.End)
			ec.ForRanges("match/propose", &s.part, func(lo, hi int) {
				worklistPropose(g, scores, s, lst, tag, lo, hi)
			})
		}
		// Phase B: claim mutual best edges; compact the worklist. The keep
		// flags live in reused scratch, so every entry is written rather
		// than relying on a fresh zeroed allocation.
		keep := keepFlags[:len(lst)]
		if serial {
			worklistClaim(g, s, lst, keep, tag, hot, 0, len(lst))
		} else {
			ec.ForRanges("match/claim", &s.part, func(lo, hi int) {
				worklistClaim(g, s, lst, keep, tag, hot, lo, hi)
			})
		}
		// Compact into the other half of the double-buffer and swap, so the
		// drained list's storage backs the next pass's output.
		packed := exec.PackInto(ec, lst, keep, s.slots, buf)
		buf = lst[:0]
		list = packed
		passes++
		if rec.Enabled() {
			rec.ObserveLatency(obs.LatMatchPass, obs.NowNS()-passT0)
		}
		sp.EndArgs("active", int64(len(lst)), "requeued", int64(len(packed)))
		rec.Add(obs.CtrMatchActive, int64(len(lst)))
		rec.Add(obs.CtrMatchRequeued, int64(len(packed)))
	}
	s.list, s.list2 = list[:0], buf[:0]
	rec.Add(obs.CtrMatchRounds, int64(passes))
	rec.FoldHot()
	res := finishResult(ec, g, scores, s.match, passes)
	res.Drain = s.drain
	return res
}

// worklistPropose is phase A of one worklist pass over list[lo:hi]. Every
// listed vertex is unmatched (phase B keeps no matched vertex), and match
// is not written during phase A, so it is read without atomics. Each vertex
// raises the other endpoint's candidate word for every available positive
// edge of its bucket, and its own word once, with the bucket's best edge
// kept in a register during the scan.
func worklistPropose(g *graph.Graph, scores []float64, s *Scratch, list []int64, tag uint64, lo, hi int) {
	match, cand := s.match, s.cand
	for i := lo; i < hi; i++ {
		u := list[i]
		best := int64(-1)
		var bestScore float64
		for e := g.Start[u]; e < g.End[u]; e++ {
			sc := scores[e]
			if sc <= 0 {
				continue
			}
			v := g.V[e]
			if match[v] != Unmatched {
				continue
			}
			if best < 0 || beats(g, e, sc, best, bestScore) {
				best, bestScore = e, sc
			}
			raiseCand(g, scores, cand, v, e, sc, tag)
		}
		if best >= 0 {
			raiseCand(g, scores, cand, u, best, bestScore, tag)
		}
	}
}

// raiseCand lifts x's candidate word to edge e (score sc) unless the word
// already holds this pass's (tag's) edge that beats or equals e. The CAS
// runs only when e wins; a lost race reloads and compares again.
func raiseCand(g *graph.Graph, scores []float64, cand []atomic.Uint64, x, e int64, sc float64, tag uint64) {
	w := &cand[x]
	for {
		old := w.Load()
		if old&^candEdgeMask == tag {
			f := int64(old & candEdgeMask)
			if !beats(g, e, sc, f, scores[f]) {
				return
			}
		}
		if w.CompareAndSwap(old, tag|uint64(e)) {
			return
		}
	}
}

// beats reports whether edge e (score se) follows edge f (score sf) in the
// total order of edgeKey. The scores decide almost every comparison, so
// the full keys are built only on a tie.
func beats(g *graph.Graph, e int64, se float64, f int64, sf float64) bool {
	if se != sf {
		return se > sf
	}
	return makeKey(sf, g.U[f], g.V[f]).less(makeKey(se, g.U[e], g.V[e]))
}

// worklistClaim is phase B of one worklist pass over list[lo:hi]: set the
// keep flag of every vertex whose candidate is not mutual, and have the
// owner U[e] of each mutual edge e write both match entries. Mutual edges
// are disjoint and each has exactly one owner, so every match entry has one
// writer and nothing reads match during phase B: plain stores, no lock.
// Claims are counted into a chunk-local and flushed once into hot (nil when
// observability is off).
func worklistClaim(g *graph.Graph, s *Scratch, list, keep []int64, tag uint64, hot *obs.Hot, lo, hi int) {
	match, cand := s.match, s.cand
	var claims int64
	for i := lo; i < hi; i++ {
		u := list[i]
		c := cand[u].Load()
		if c&^candEdgeMask != tag {
			keep[i] = 0 // no available edge anywhere near u; drop for good
			continue
		}
		e := int64(c & candEdgeMask)
		a, b := g.U[e], g.V[e]
		o := a // other endpoint of u's best edge
		if o == u {
			o = b
		}
		if cand[o].Load() != c {
			keep[i] = 1 // not mutual, but an edge is still in reach: try again
			continue
		}
		keep[i] = 0 // mutual: u is matched this pass
		if u == a {
			match[a], match[b] = b, a
			claims++
		}
	}
	hot.Add(obs.CtrMatchClaims, claims)
}

// EdgeSweep computes the matching with the 2011 whole-edge-array algorithm
// using p workers: every sweep updates a per-vertex best edge through a
// vertex lock (the full/empty-bit hot spot), then matches mutually best
// edges. Kept as the ablation baseline for the paper's claim that the
// worklist algorithm's gains are "marginal on the Cray XMT but drastic on
// Intel-based platforms".
func EdgeSweep(ec *exec.Ctx, g *graph.Graph, scores []float64) Result {
	return EdgeSweepWith(ec, g, scores, nil)
}

// EdgeSweepWith is EdgeSweep running out of s's reusable buffers; a nil s
// behaves exactly like EdgeSweep. The candidate tables double as the
// per-vertex best-edge tables. Observability mirrors WorklistWith: one span
// per whole-edge-array pass plus the rounds and claim/conflict counters (the
// edge sweep has no worklist, so every pass reports the full vertex count as
// its active size), and a cancelled context exits the pass loop early with a
// symmetric partial matching.
func EdgeSweepWith(ec *exec.Ctx, g *graph.Graph, scores []float64, scratch *Scratch) Result {
	rec := ec.Recorder()
	n := int(g.NumVertices())
	s := scratch.orNew()
	s.growSweep(ec, n)

	hot := rec.Hot()
	s.drain = s.drain[:0]
	passes := 0
	for {
		if ec.Err() != nil {
			break
		}
		pass := int64(passes)
		eligible := false
		sp := rec.Begin(obs.CatMatch, "pass", -1)
		var passT0 int64
		if rec.Enabled() {
			passT0 = obs.NowNS()
		}
		// Sweep 1: per-endpoint best via locks (the hot spot). As in the
		// worklist kernel, the sweep bodies are plain functions so the
		// serial path evaluates no escaping closure literal.
		if ec.Serial(n) {
			eligible = edgeSweepBest(g, scores, s, pass, 0, n)
		} else {
			var flag int64
			ec.ForDynamic(n, 0, func(lo, hi int) {
				if edgeSweepBest(g, scores, s, pass, lo, hi) {
					atomic.StoreInt64(&flag, 1)
				}
			})
			eligible = flag != 0
		}
		if !eligible {
			sp.End()
			break
		}
		// Sweep 2: match mutually best edges.
		if ec.Serial(n) {
			edgeSweepClaim(g, scores, s, pass, hot, 0, n)
		} else {
			ec.ForDynamic(n, 0, func(lo, hi int) {
				edgeSweepClaim(g, scores, s, pass, hot, lo, hi)
			})
		}
		passes++
		if rec.Enabled() {
			rec.ObserveLatency(obs.LatMatchPass, obs.NowNS()-passT0)
		}
		s.drain = append(s.drain, int64(n))
		sp.EndArgs("active", int64(n), "pass", pass)
		rec.Add(obs.CtrMatchActive, int64(n))
	}
	rec.Add(obs.CtrMatchRounds, int64(passes))
	rec.FoldHot()
	res := finishResult(ec, g, scores, s.match, passes)
	res.Drain = s.drain
	return res
}

// edgeSweepBest is sweep 1 of one edge-sweep pass over buckets [lo, hi): it
// funnels each available positive edge through both endpoints' locked best
// slots and reports whether any eligible edge was seen.
func edgeSweepBest(g *graph.Graph, scores []float64, s *Scratch, pass int64, lo, hi int) bool {
	match, locks := s.match, s.locks
	bestEdge, bestKey, bestPass := s.bestE, s.bestKey, s.bestPass
	local := false
	for x := int64(lo); x < int64(hi); x++ {
		for e := g.Start[x]; e < g.End[x]; e++ {
			sc := scores[e]
			if sc <= 0 {
				continue
			}
			u, v := g.U[e], g.V[e]
			if atomic.LoadInt64(&match[u]) != Unmatched ||
				atomic.LoadInt64(&match[v]) != Unmatched {
				continue
			}
			local = true
			k := makeKey(sc, u, v)
			for _, side := range [2]int64{u, v} {
				locks.Lock(side)
				if bestPass[side] != pass || bestKey[side].less(k) {
					bestPass[side] = pass
					bestKey[side] = k
					bestEdge[side] = e
				}
				locks.Unlock(side)
			}
		}
	}
	return local
}

// edgeSweepClaim is sweep 2 of one edge-sweep pass over buckets [lo, hi):
// match mutually best edges. Claim outcomes flush once per chunk into hot
// (nil when observability is off).
func edgeSweepClaim(g *graph.Graph, scores []float64, s *Scratch, pass int64, hot *obs.Hot, lo, hi int) {
	match, locks := s.match, s.locks
	bestEdge, bestPass := s.bestE, s.bestPass
	var claims, conflicts int64
	for x := int64(lo); x < int64(hi); x++ {
		for e := g.Start[x]; e < g.End[x]; e++ {
			if scores[e] <= 0 {
				continue
			}
			u, v := g.U[e], g.V[e]
			if bestPass[u] != pass || bestPass[v] != pass {
				continue
			}
			if bestEdge[u] != e || bestEdge[v] != e {
				continue
			}
			locks.Lock2(u, v)
			if match[u] == Unmatched && match[v] == Unmatched {
				atomic.StoreInt64(&match[u], v)
				atomic.StoreInt64(&match[v], u)
				claims++
			} else {
				conflicts++
			}
			locks.Unlock2(u, v)
		}
	}
	hot.Add(obs.CtrMatchClaims, claims)
	hot.Add(obs.CtrMatchConflicts, conflicts)
}

// finishResult counts pairs and sums matched-edge scores.
func finishResult(ec *exec.Ctx, g *graph.Graph, scores []float64, match []int64, passes int) Result {
	n := int(g.NumVertices())
	if ec.Serial(n) {
		var pairs int64
		var weight float64
		for x := int64(0); x < int64(n); x++ {
			if m := match[x]; m != Unmatched && x < m {
				pairs++
			}
			for e := g.Start[x]; e < g.End[x]; e++ {
				if match[g.U[e]] == g.V[e] {
					weight += scores[e]
				}
			}
		}
		return Result{Match: match, Pairs: pairs, Weight: weight, Passes: passes}
	}
	// Declared after the serial return: the closure takes their addresses,
	// which would heap-box them on the serial path too.
	var pairs int64
	var weightBits uint64
	ec.ForDynamic(n, 0, func(lo, hi int) {
		var localPairs int64
		var localWeight float64
		for x := int64(lo); x < int64(hi); x++ {
			if m := match[x]; m != Unmatched && x < m {
				localPairs++
			}
			for e := g.Start[x]; e < g.End[x]; e++ {
				if match[g.U[e]] == g.V[e] {
					localWeight += scores[e]
				}
			}
		}
		atomic.AddInt64(&pairs, localPairs)
		addFloatAtomic(&weightBits, localWeight)
	})
	return Result{Match: match, Pairs: pairs, Weight: floatFromBits(weightBits), Passes: passes}
}

// Verify checks that match is a valid maximal matching of the positively
// scored edges of g: symmetry, partner validity, adjacency of matched
// pairs via a positive edge, and maximality (no positive edge joins two
// unmatched vertices). Intended for tests and debugging.
func Verify(g *graph.Graph, scores []float64, match []int64) error {
	n := g.NumVertices()
	if int64(len(match)) != n {
		return fmt.Errorf("matching: match has %d entries for %d vertices", len(match), n)
	}
	for x := int64(0); x < n; x++ {
		m := match[x]
		if m == Unmatched {
			continue
		}
		if m < 0 || m >= n {
			return fmt.Errorf("matching: match[%d] = %d out of range", x, m)
		}
		if m == x {
			return fmt.Errorf("matching: vertex %d matched to itself", x)
		}
		if match[m] != x {
			return fmt.Errorf("matching: asymmetric pair (%d, %d)", x, m)
		}
	}
	// Matched pairs must share a positive stored edge; maximality over
	// positive edges.
	paired := make(map[[2]int64]bool)
	var violation error
	g.ForEachEdge(func(e int64, u, v, _ int64) {
		if violation != nil {
			return
		}
		if scores[e] > 0 && match[u] == Unmatched && match[v] == Unmatched {
			violation = fmt.Errorf("matching: not maximal, positive edge {%d,%d} unmatched on both sides", u, v)
			return
		}
		if match[u] == v {
			a, b := u, v
			if a > b {
				a, b = b, a
			}
			if scores[e] <= 0 {
				violation = fmt.Errorf("matching: pair (%d,%d) uses non-positive edge score %v", u, v, scores[e])
				return
			}
			paired[[2]int64{a, b}] = true
		}
	})
	if violation != nil {
		return violation
	}
	for x := int64(0); x < n; x++ {
		m := match[x]
		if m == Unmatched || x > m {
			continue
		}
		if !paired[[2]int64{x, m}] {
			return fmt.Errorf("matching: pair (%d,%d) has no positive stored edge", x, m)
		}
	}
	return nil
}
