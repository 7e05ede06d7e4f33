// Package refine implements greedy modularity refinement by local vertex
// moves — the extension the paper names as an area of active work
// ("Incorporating refinement into our parallel algorithm", §II). Matching-
// based agglomeration only ever merges whole communities, so early
// mis-merges can never be undone; a refinement pass lets individual
// vertices migrate to the neighboring community with the best modularity
// gain, recovering much of the gap to move-based methods like Louvain.
//
// The parallel sweep uses the relaxed-consistency discipline common to
// parallel Louvain implementations: gains are computed against volumes that
// concurrent moves may be changing, so a sweep is not guaranteed to be
// monotone. Refine therefore evaluates modularity before and after and
// returns whichever partition is better, making the operation monotone by
// construction.
package refine

import (
	"fmt"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/par"
)

// Options configures a refinement run.
type Options struct {
	// Threads is the worker count; <= 0 selects GOMAXPROCS.
	Threads int
	// MaxSweeps bounds the number of full vertex sweeps; 0 means sweep
	// until a pass moves nothing (at most 64 sweeps as a safety stop).
	MaxSweeps int
}

// Result of a refinement run.
type Result struct {
	// CommunityOf is the refined partition with dense ids in
	// [0, NumCommunities).
	CommunityOf    []int64
	NumCommunities int64
	// Moves counts accepted vertex migrations; Sweeps counts full passes.
	Moves  int64
	Sweeps int
	// ModularityBefore and ModularityAfter bracket the improvement;
	// After >= Before always holds.
	ModularityBefore float64
	ModularityAfter  float64
}

// Refine improves the partition comm (ids dense in [0, k)) of g by greedy
// vertex moves. The input slice is not modified.
func Refine(g *graph.Graph, comm []int64, k int64, opt Options) (*Result, error) {
	return RefineExec(exec.Background(opt.Threads), g, comm, k, opt)
}

// RefineExec is Refine running on ec's workers (ec overrides opt.Threads).
// When ec's context is cancelled the sweep loop stops early and the
// better-of-before-and-after contract still holds: refinement is an
// optimization, so cancellation degrades quality, never correctness, and no
// error is returned.
func RefineExec(ec *exec.Ctx, g *graph.Graph, comm []int64, k int64, opt Options) (*Result, error) {
	n := g.NumVertices()
	if err := metrics.ValidatePartition(comm, n, k); err != nil {
		return nil, fmt.Errorf("refine: %w", err)
	}
	p := ec.Threads()
	maxSweeps := opt.MaxSweeps
	if maxSweeps <= 0 {
		maxSweeps = 64
	}

	res := &Result{ModularityBefore: metrics.Modularity(p, g, comm, k)}
	if n == 0 {
		res.CommunityOf = []int64{}
		res.ModularityAfter = res.ModularityBefore
		return res, nil
	}
	m := float64(g.TotalWeight(p))
	if m == 0 {
		res.CommunityOf = append([]int64(nil), comm...)
		res.NumCommunities = k
		res.ModularityAfter = res.ModularityBefore
		return res, nil
	}

	csr := graph.ToCSR(p, g)
	deg := g.WeightedDegrees(p)
	cur := append([]int64(nil), comm...)
	vol := make([]int64, k)
	for v := int64(0); v < n; v++ {
		vol[cur[v]] += deg[v]
	}

	// Each sweep visits every CSR entry, so on skewed graphs dynamic
	// equal-count chunks put whole hubs on one worker. Degrees are fixed
	// across sweeps: build one degree-balanced partition up front and hand
	// every sweep the same vertex-aligned ranges. Ranges, not spans — the
	// neighbor scan is per-vertex state, so a vertex must not be split.
	var pt par.Partition
	balanced := !ec.Serial(int(n))
	if balanced {
		rowStart, rowEnd := csr.RowBounds()
		ec.BuildBuckets(&pt, int(n), rowStart, rowEnd)
	}

	var moves int64
	sweepBody := func(lo, hi int) {
		neighborW := make(map[int64]int64)
		var localMoves int64
		for v := int64(lo); v < int64(hi); v++ {
			adj, wgt := csr.Neighbors(v)
			if len(adj) == 0 {
				continue
			}
			clear(neighborW)
			for i, u := range adj {
				neighborW[atomic.LoadInt64(&cur[u])] += wgt[i]
			}
			cv := atomic.LoadInt64(&cur[v])
			dv := float64(deg[v])
			// Gain of being in community d (v's own volume removed):
			// w(v→d)/m − deg_v·vol_d\{v}/(2m²).
			volCv := float64(atomic.LoadInt64(&vol[cv])) - dv
			bestGain := float64(neighborW[cv])/m - dv*volCv/(2*m*m)
			best := cv
			for d, w := range neighborW {
				if d == cv {
					continue
				}
				gain := float64(w)/m - dv*float64(atomic.LoadInt64(&vol[d]))/(2*m*m)
				if gain > bestGain+1e-15 || (gain > bestGain-1e-15 && best != cv && d < best) {
					best, bestGain = d, gain
				}
			}
			if best != cv {
				atomic.AddInt64(&vol[cv], -deg[v])
				atomic.AddInt64(&vol[best], deg[v])
				atomic.StoreInt64(&cur[v], best)
				localMoves++
			}
		}
		atomic.AddInt64(&moves, localMoves)
	}

	for sweep := 0; sweep < maxSweeps; sweep++ {
		if ec.Err() != nil {
			break // keep the best partition found so far
		}
		moves = 0
		if balanced {
			ec.ForRanges("refine/sweep", &pt, sweepBody)
		} else {
			ec.ForDynamic(int(n), 0, sweepBody)
		}
		res.Sweeps++
		res.Moves += moves
		if moves == 0 {
			break
		}
	}

	refined, rk := metrics.Densify(cur)
	after := metrics.Modularity(p, g, refined, rk)
	if after >= res.ModularityBefore {
		res.CommunityOf = refined
		res.NumCommunities = rk
		res.ModularityAfter = after
	} else {
		// Relaxed-consistency sweeps degraded quality (possible under heavy
		// contention): keep the input partition.
		res.CommunityOf = append([]int64(nil), comm...)
		res.NumCommunities = k
		res.ModularityAfter = res.ModularityBefore
	}
	return res, nil
}
