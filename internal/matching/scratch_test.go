package matching

import (
	"slices"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/scoring"
)

// TestScratchReuseAcrossGraphs runs both kernels, interleaved, repeatedly
// through one Scratch over graphs of shrinking and growing sizes — the
// engine's phase pattern plus the harness's trial pattern — and checks
// every matching is valid and maximal. The interleaving checks that each
// kernel's lazily grown tables survive the other kernel's runs.
func TestScratchReuseAcrossGraphs(t *testing.T) {
	graphs := []*graph.Graph{
		gen.CliqueChain(16, 6),
		gen.Karate(),
		gen.Ring(5),
		gen.CliqueChain(32, 4), // bigger again: buffers must regrow
	}
	kernels := []struct {
		name string
		run  func(p int, g *graph.Graph, scores []float64, s *Scratch) Result
	}{
		{"worklist", func(p int, g *graph.Graph, scores []float64, s *Scratch) Result {
			return WorklistWith(exec.Background(p), g, scores, s)
		}},
		{"edgesweep", func(p int, g *graph.Graph, scores []float64, s *Scratch) Result {
			return EdgeSweepWith(exec.Background(p), g, scores, s)
		}},
	}
	var s Scratch
	for gi, g := range graphs {
		scores := make([]float64, len(g.U))
		for e := range scores {
			scores[e] = float64(e%7) + 0.5
		}
		for trial := 0; trial < 3; trial++ {
			for _, k := range kernels {
				res := k.run(2, g, scores, &s)
				if err := Verify(g, scores, res.Match); err != nil {
					t.Fatalf("%s graph %d trial %d: %v", k.name, gi, trial, err)
				}
				if int64(len(res.Match)) != g.NumVertices() {
					t.Fatalf("%s graph %d: match sized %d for %d vertices",
						k.name, gi, len(res.Match), g.NumVertices())
				}
			}
		}
	}
}

// TestScratchMatchesFresh checks single-threaded scratch and fresh runs
// produce the identical matching: a dirty Scratch must leave no trace.
// (The kernel is schedule-independent at every p, see
// rmat12 is the connected scale-12 R-MAT graph with the paper's
// parameters: hub-heavy, so hubs collect many competing proposals.
func rmat12(t *testing.T, seed uint64) *graph.Graph {
	t.Helper()
	g, _, err := gen.ConnectedRMAT(2, gen.DefaultRMAT(12, seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// modularityScores gives every edge its modularity gain ΔQ, the engine's
// default scorer.
func modularityScores(g *graph.Graph) []float64 {
	s := make([]float64, len(g.U))
	scoring.Modularity{}.Score(exec.Background(2), g, g.WeightedDegrees(2), g.TotalWeight(2), s)
	return s
}

// TestWorklistThreadCountInvariance; p=1 keeps this test minimal.)
func TestScratchMatchesFresh(t *testing.T) {
	g := gen.CliqueChain(24, 5)
	scores := make([]float64, len(g.U))
	for e := range scores {
		scores[e] = float64((e*13)%11) + 0.25
	}
	var s Scratch
	// Dirty the scratch first with an unrelated run.
	WorklistWith(exec.Background(1), gen.Karate(), make([]float64, len(gen.Karate().U)), &s)
	fresh := Worklist(exec.Background(1), g, scores)
	reused := WorklistWith(exec.Background(1), g, scores, &s)
	for v := range fresh.Match {
		if fresh.Match[v] != reused.Match[v] {
			t.Fatalf("match[%d]: fresh %d, scratch %d", v, fresh.Match[v], reused.Match[v])
		}
	}
	if fresh.Pairs != reused.Pairs || fresh.Passes != reused.Passes {
		t.Fatalf("fresh (pairs=%d passes=%d) != scratch (pairs=%d passes=%d)",
			fresh.Pairs, fresh.Passes, reused.Pairs, reused.Passes)
	}
}

// snapshot copies the parts of a Result that alias scratch storage.
func snapshot(r Result) Result {
	r.Match = slices.Clone(r.Match)
	r.Drain = slices.Clone(r.Drain)
	return r
}

func sameResult(a, b Result) bool {
	return a.Pairs == b.Pairs && a.Passes == b.Passes &&
		slices.Equal(a.Match, b.Match) && slices.Equal(a.Drain, b.Drain)
}

// TestWorklistThreadCountInvariance pins the lock-free worklist kernel's
// schedule independence: Match, Pairs, Passes and Drain are identical for
// every worker count, run fresh or out of a Scratch left dirty by the
// previous input. Uniform scores make every comparison a tie, so the
// candidate CAS is decided by the tie hash; modularity scores on an R-MAT
// graph give hubs with many competing proposals; the star funnels every
// proposal into one vertex's candidate word.
func TestWorklistThreadCountInvariance(t *testing.T) {
	rmat := rmat12(t, 9)
	star := gen.Star(300)
	inputs := []struct {
		name   string
		g      *graph.Graph
		scores []float64
	}{
		{"rmat12-uniform", rmat, uniformScores(rmat)},
		{"rmat12-modularity", rmat, modularityScores(rmat)},
		{"star-uniform", star, uniformScores(star)},
	}
	var s Scratch
	for _, in := range inputs {
		want := snapshot(Worklist(exec.Background(1), in.g, in.scores))
		if err := Verify(in.g, in.scores, want.Match); err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		for _, p := range []int{1, 2, 4, 8} {
			fresh := Worklist(exec.Background(p), in.g, in.scores)
			reused := WorklistWith(exec.Background(p), in.g, in.scores, &s)
			for name, got := range map[string]Result{"fresh": fresh, "reused": reused} {
				if !sameResult(got, want) {
					t.Fatalf("%s p=%d %s: pairs=%d passes=%d drain=%v, want pairs=%d passes=%d drain=%v (or Match differs)",
						in.name, p, name, got.Pairs, got.Passes, got.Drain, want.Pairs, want.Passes, want.Drain)
				}
			}
		}
	}
}

// TestWorklistStampWrap shrinks the stamp range to its minimum, so pass
// stamps alternate 1, 2, 1, 2, ...: results must not change, which pins the
// nextStamp argument that only consecutive passes need distinct stamps. The
// adversarial path runs ≈n/2 passes; the R-MAT input has hubs whose
// candidate words are raised in every pass.
func TestWorklistStampWrap(t *testing.T) {
	const n = 200
	var edges []graph.Edge
	for i := int64(0); i < n-1; i++ {
		edges = append(edges, graph.Edge{U: i, V: i + 1, W: i + 1})
	}
	path := graph.MustBuild(2, n, edges)
	rmat := rmat12(t, 4)
	inputs := []struct {
		name   string
		g      *graph.Graph
		scores []float64
	}{
		{"path", path, weightScores(path)},
		{"rmat12-modularity", rmat, modularityScores(rmat)},
	}
	var want []Result
	for _, in := range inputs {
		want = append(want, snapshot(Worklist(exec.Background(2), in.g, in.scores)))
	}
	defer func(old uint64) { maxStamp = old }(maxStamp)
	maxStamp = 2
	var s Scratch
	for trial := 0; trial < 2; trial++ {
		for i, in := range inputs {
			if got := WorklistWith(exec.Background(2), in.g, in.scores, &s); !sameResult(got, want[i]) {
				t.Fatalf("%s trial %d: stamp wrap changed the result: pairs=%d passes=%d, want pairs=%d passes=%d",
					in.name, trial, got.Pairs, got.Passes, want[i].Pairs, want[i].Passes)
			}
		}
	}
}
