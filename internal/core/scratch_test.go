package core

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/seq"
)

// sameResult fails unless a and b describe the same partition and quality.
// Runs at Threads=1 are deterministic, so a dirty reused arena and a clean
// one must agree exactly.
func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.NumCommunities != b.NumCommunities {
		t.Fatalf("%s: %d communities vs %d", label, a.NumCommunities, b.NumCommunities)
	}
	if a.Termination != b.Termination {
		t.Fatalf("%s: termination %q vs %q", label, a.Termination, b.Termination)
	}
	if len(a.CommunityOf) != len(b.CommunityOf) {
		t.Fatalf("%s: CommunityOf length %d vs %d", label, len(a.CommunityOf), len(b.CommunityOf))
	}
	for i := range a.CommunityOf {
		if a.CommunityOf[i] != b.CommunityOf[i] {
			t.Fatalf("%s: CommunityOf[%d] = %d vs %d", label, i, a.CommunityOf[i], b.CommunityOf[i])
		}
	}
	if len(a.Sizes) != len(b.Sizes) {
		t.Fatalf("%s: Sizes length %d vs %d", label, len(a.Sizes), len(b.Sizes))
	}
	for c := range a.Sizes {
		if a.Sizes[c] != b.Sizes[c] {
			t.Fatalf("%s: Sizes[%d] = %d vs %d", label, c, a.Sizes[c], b.Sizes[c])
		}
	}
	if a.FinalModularity != b.FinalModularity {
		t.Fatalf("%s: modularity %v vs %v", label, a.FinalModularity, b.FinalModularity)
	}
	if a.FinalCoverage != b.FinalCoverage {
		t.Fatalf("%s: coverage %v vs %v", label, a.FinalCoverage, b.FinalCoverage)
	}
}

// sameAsOracle fails unless the engine result got reproduces the independent
// sequential oracle's partition and quality.
func sameAsOracle(t *testing.T, label string, want *seq.Result, got *Result) {
	t.Helper()
	if got.NumCommunities != want.NumCommunities {
		t.Fatalf("%s: engine %d communities, oracle %d", label, got.NumCommunities, want.NumCommunities)
	}
	for v := range want.CommunityOf {
		if got.CommunityOf[v] != want.CommunityOf[v] {
			t.Fatalf("%s: vertex %d: engine %d, oracle %d", label, v, got.CommunityOf[v], want.CommunityOf[v])
		}
	}
	if math.Abs(got.FinalModularity-want.Modularity) > 1e-9 {
		t.Fatalf("%s: modularity engine %v, oracle %v", label, got.FinalModularity, want.Modularity)
	}
	if math.Abs(got.FinalCoverage-want.FinalCoverage) > 1e-9 {
		t.Fatalf("%s: coverage engine %v, oracle %v", label, got.FinalCoverage, want.FinalCoverage)
	}
}

// TestArenaMatchesFresh runs a shared arena through a shrink-then-grow
// sequence of graphs and kernel combinations and checks every result against
// a run of the same options on a clean arena. Dirty reused buffers must
// never leak into results. A clean arena shares any stale reuse within one
// run with the dirty one, so the variants the sequential oracle supports are
// also checked against seq.Detect.
func TestArenaMatchesFresh(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"cliquechain", gen.CliqueChain(24, 6)},
		{"karate", gen.Karate()},
		{"star", gen.Star(60)},
		{"cliquechain-big", gen.CliqueChain(40, 5)},
	}
	optVariants := []struct {
		name string
		opt  Options
		sopt *seq.Options // nil: the oracle does not support the variant
	}{
		{"default", Options{}, &seq.Options{}},
		{"edgesweep-noncontig", Options{Matching: MatchEdgeSweep, Contraction: ContractBucketNonContiguous}, nil},
		{"sizecap", Options{MaxCommunitySize: 8}, nil},
		{"coverage", Options{MinCoverage: 0.5}, &seq.Options{MinCoverage: 0.5}},
		{"discardlevels", Options{DiscardLevels: true}, &seq.Options{}},
	}
	s := NewScratch()
	for _, ov := range optVariants {
		for _, tg := range graphs {
			opt := ov.opt
			opt.Threads = 1
			opt.Validate = true

			want, err := DetectWith(tg.g, opt, NewScratch())
			if err != nil {
				t.Fatalf("%s/%s clean arena: %v", ov.name, tg.name, err)
			}
			got, err := DetectWith(tg.g, opt, s)
			if err != nil {
				t.Fatalf("%s/%s arena: %v", ov.name, tg.name, err)
			}
			sameResult(t, ov.name+"/"+tg.name, want, got)
			if ov.sopt != nil {
				sameAsOracle(t, ov.name+"/"+tg.name+" vs seq", seq.Detect(tg.g, *ov.sopt), got)
			}
		}
	}
}

// TestArenaParallelRace exercises the arena across phases and trials at
// higher thread counts with invariant checking on; run under -race it
// verifies the reused buffers are handed off cleanly between the parallel
// sweeps. Parallel runs are nondeterministic, so only invariants are
// checked, not exact partitions.
func TestArenaParallelRace(t *testing.T) {
	g := gen.CliqueChain(32, 6)
	s := NewScratch()
	for trial := 0; trial < 3; trial++ {
		res, err := DetectWith(g, Options{Threads: 4, Validate: true}, s)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		validatePartition(t, res.CommunityOf, res.NumCommunities)
		var total int64
		for _, sz := range res.Sizes {
			total += sz
		}
		if total != g.NumVertices() {
			t.Fatalf("trial %d: sizes sum to %d, want %d", trial, total, g.NumVertices())
		}
	}
}

// TestResultDoesNotAliasArena mutates every arena buffer after a run and
// checks the returned result is unchanged: results must stay valid after the
// Scratch is reused.
func TestResultDoesNotAliasArena(t *testing.T) {
	g := gen.CliqueChain(24, 6)
	s := NewScratch()
	opt := Options{Threads: 1}
	res, err := DetectWith(g, opt, s)
	if err != nil {
		t.Fatal(err)
	}
	comm := append([]int64(nil), res.CommunityOf...)
	sizes := append([]int64(nil), res.Sizes...)
	levels := make([][]int64, len(res.Levels))
	for i, l := range res.Levels {
		levels[i] = append([]int64(nil), l...)
	}

	// Reuse the arena on a different graph, then poison what's left.
	if _, err := DetectWith(gen.Star(80), opt, s); err != nil {
		t.Fatal(err)
	}
	for i := range s.mapping {
		s.mapping[i] = -7
	}
	for b := range s.sizes {
		for i := range s.sizes[b] {
			s.sizes[b][i] = -7
		}
	}

	for i := range comm {
		if res.CommunityOf[i] != comm[i] {
			t.Fatalf("CommunityOf[%d] changed after arena reuse", i)
		}
	}
	for c := range sizes {
		if res.Sizes[c] != sizes[c] {
			t.Fatalf("Sizes[%d] changed after arena reuse", c)
		}
	}
	for i, l := range levels {
		for j := range l {
			if res.Levels[i][j] != l[j] {
				t.Fatalf("Levels[%d][%d] changed after arena reuse", i, j)
			}
		}
	}
}

// TestSteadyStatePhasesAllocateNothing is the allocation-regression guard
// for the tentpole: with a warm arena at Threads=1 (parallel runs allocate
// in goroutine spawning) and DiscardLevels set, extra contraction phases
// must add zero allocations — the per-run total is the same whether the run
// executes 1 phase or 6, so the steady-state loop itself is off the heap.
func TestSteadyStatePhasesAllocateNothing(t *testing.T) {
	g := gen.CliqueChain(64, 8)
	s := NewScratch()
	run := func(phases int) {
		opt := Options{Threads: 1, MaxPhases: phases, DiscardLevels: true}
		if _, err := DetectWith(g, opt, s); err != nil {
			t.Fatal(err)
		}
	}
	run(6) // warm the arena to its largest extent

	short := testing.AllocsPerRun(5, func() { run(1) })
	long := testing.AllocsPerRun(5, func() { run(6) })
	if long > short {
		t.Fatalf("6-phase run allocates more than 1-phase run: %.1f vs %.1f allocs "+
			"(steady-state phases should allocate nothing)", long, short)
	}
	// The per-run floor is the Result envelope itself: result struct,
	// CommunityOf, Stats backing array, the Sizes copy, and interface
	// boxing — a handful, not O(phases) or O(n).
	if short > 12 {
		t.Fatalf("warm 1-phase run allocates %.1f times, want a small constant", short)
	}
}
