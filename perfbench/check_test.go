package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hierarchy"
)

func smallRMAT(t *testing.T) *graph.Graph {
	t.Helper()
	g, _, err := gen.ConnectedRMAT(0, gen.DefaultRMAT(10, 7))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// Each op check passes on the engine's partition and fires on a corrupted
// copy of it.
func TestChecksFireOnCorruptedPartition(t *testing.T) {
	g := smallRMAT(t)
	res, err := core.Detect(g, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	comm, k, q := res.CommunityOf, res.NumCommunities, res.FinalModularity
	if err := checkPartition(g, comm, k, q); err != nil {
		t.Fatalf("engine partition fails the checks: %v", err)
	}
	ref := hashPartition(comm)
	if err := checkHash(comm, ref); err != nil {
		t.Fatal(err)
	}

	outOfRange := slices.Clone(comm)
	outOfRange[0] = k
	if checkPartition(g, outOfRange, k, q) == nil {
		t.Error("ValidatePartition check passed a community id out of range")
	}

	// Move vertex 0 into another community: still a valid partition, but
	// with another modularity and another hash.
	moved := slices.Clone(comm)
	for _, c := range comm {
		if c != comm[0] {
			moved[0] = c
			break
		}
	}
	if checkPartition(g, moved, k, q) == nil {
		t.Error("modularity check passed a partition whose modularity differs from the reported one")
	}
	if checkHash(moved, ref) == nil {
		t.Error("hash check passed a changed partition")
	}
}

// The overlay-versus-oracle check passes on a real batch and fires on a
// corrupted compacted graph.
func TestCheckBatchFiresOnCorruptedGraph(t *testing.T) {
	g := smallRMAT(t)
	batches, err := gen.Deltas(g, gen.DeltaConfig{Batches: 1, BatchSize: 200, DeleteFrac: 0.5, MaxWeight: 3, Hubs: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ov := graph.NewOverlay(0, g)
	if err := ov.ApplyDelta(batches[0]); err != nil {
		t.Fatal(err)
	}
	after, err := ov.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkBatch(g, batches[0], after); err != nil {
		t.Fatalf("overlay fails the oracle check: %v", err)
	}

	weight := after.Clone()
	weight.W[weight.Start[0]]++
	if checkBatch(g, batches[0], weight) == nil {
		t.Error("oracle check passed a changed edge weight")
	}
	self := after.Clone()
	self.Self[1]++
	if checkBatch(g, batches[0], self) == nil {
		t.Error("oracle check passed a changed self-loop")
	}
	if checkBatch(g, batches[0], g) == nil {
		t.Error("oracle check passed the graph from before the batch")
	}
}

// The replays reproduce the engine's partition at 1 and 2 threads, on both
// engines and on incremental batches.
func TestReplayReproducesEngine(t *testing.T) {
	g := smallRMAT(t)
	for _, engine := range []core.Engine{core.EngineMatching, core.EngineEnsemble} {
		res, err := core.Detect(g, core.Options{Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{1, 2} {
			comm, k := newReplayer(threads, newTracer()).detect(g, engine)
			if k != res.NumCommunities || hashPartition(comm) != hashPartition(res.CommunityOf) {
				t.Errorf("%s at %d threads: replay differs from the engine", engine, threads)
			}
		}
	}

	batches, err := gen.Deltas(g, gen.DeltaConfig{Batches: 4, BatchSize: 200, DeleteFrac: 0.5, MaxWeight: 3, Hubs: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Detect(g, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prev, err := hierarchy.New(g.NumVertices(), res.Levels)
	if err != nil {
		t.Fatal(err)
	}
	ov := graph.NewOverlay(0, g.Clone())
	rps := []*replayer{newReplayer(1, newTracer()), newReplayer(2, newTracer())}
	for _, r := range rps {
		r.ov, r.prev = newShadowOverlay(r.threads, g), prev
	}
	for i, d := range batches {
		ir, err := core.DetectIncremental(ov, prev, d, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		prev = ir.Dendrogram
		for _, r := range rps {
			comm, k, err := r.batch(d)
			if err != nil {
				t.Fatal(err)
			}
			if k != ir.NumCommunities || hashPartition(comm) != hashPartition(ir.CommunityOf) {
				t.Errorf("batch %d at %d threads: replay differs from the engine", i, r.threads)
			}
		}
	}
}

// The metric and workload names the program prints are the ones
// BENCHMARK.json declares.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range spec.Workloads {
		wls = append(wls, w.Name)
	}
	if !slices.Equal(wls, workloadNames) {
		t.Errorf("workloads %v, BENCHMARK.json has %v", workloadNames, wls)
	}
	for _, c := range []struct {
		mode string
		have []struct{ name, unit string }
		want []named
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		if len(c.have) != len(c.want) {
			t.Errorf("%s: %d metrics, BENCHMARK.json has %d", c.mode, len(c.have), len(c.want))
			continue
		}
		for i, m := range c.have {
			if m.name != c.want[i].Name || m.unit != c.want[i].Unit {
				t.Errorf("%s metric %d is %s (%s), BENCHMARK.json has %s (%s)",
					c.mode, i, m.name, m.unit, c.want[i].Name, c.want[i].Unit)
			}
		}
	}
}
