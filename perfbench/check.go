package main

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/seq"
)

// modularityTol is how far the engine's reported modularity may sit from an
// independent recomputation on the input graph.
const modularityTol = 1e-9

// checkPartition checks that comm is a dense partition of g into k
// communities and that its modularity, recomputed on g, matches the value
// the engine reported.
func checkPartition(g *graph.Graph, comm []int64, k int64, modularity float64) error {
	if err := metrics.ValidatePartition(comm, g.NumVertices(), k); err != nil {
		return err
	}
	if q := metrics.Modularity(0, g, comm, k); !(math.Abs(q-modularity) <= modularityTol) {
		return fmt.Errorf("engine reports modularity %.12f, recomputed %.12f", modularity, q)
	}
	return nil
}

// hashPartition is the FNV-1a hash of the community ids in vertex order.
func hashPartition(comm []int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, c := range comm {
		binary.LittleEndian.PutUint64(b[:], uint64(c))
		h.Write(b[:])
	}
	return h.Sum64()
}

// checkHash checks that a partition hashes to the reference every op of a
// Detect workload must reproduce.
func checkHash(comm []int64, want uint64) error {
	if got := hashPartition(comm); got != want {
		return fmt.Errorf("partition hash %016x, want %016x", got, want)
	}
	return nil
}

// checkBatch applies batch to a clone of the compacted graph before it with
// the sequential oracle and checks that the result equals the overlay's
// compacted graph after it, edge for edge.
func checkBatch(before *graph.Graph, batch *graph.Delta, after *graph.Graph) error {
	want, err := seq.ApplyDelta(before.Clone(), batch)
	if err != nil {
		return fmt.Errorf("oracle apply: %w", err)
	}
	return sameGraph(want, after)
}

// sameGraph reports the first difference between the vertex counts,
// self-loop weights and stored edges of two graphs.
func sameGraph(want, got *graph.Graph) error {
	if want.NumVertices() != got.NumVertices() {
		return fmt.Errorf("%d vertices, want %d", got.NumVertices(), want.NumVertices())
	}
	for x := range want.NumVertices() {
		if want.Self[x] != got.Self[x] {
			return fmt.Errorf("vertex %d self-loop weight %d, want %d", x, got.Self[x], want.Self[x])
		}
	}
	we, ge := sortedEdges(want), sortedEdges(got)
	if len(we) != len(ge) {
		return fmt.Errorf("%d edges, want %d", len(ge), len(we))
	}
	for i := range we {
		if we[i] != ge[i] {
			return fmt.Errorf("edge %d is %v, want %v", i, ge[i], we[i])
		}
	}
	return nil
}

func sortedEdges(g *graph.Graph) []graph.Edge {
	es := g.Edges()
	slices.SortFunc(es, func(a, b graph.Edge) int {
		if c := cmp.Compare(a.U, b.U); c != 0 {
			return c
		}
		return cmp.Compare(a.V, b.V)
	})
	return es
}
