// Command perfbench is the repository's benchmark. It generates a named
// workload's inputs from a seed, builds the program's state from them,
// measures engine ops for a fixed time, checks every op's output, and
// prints each metric with its unit and sample count. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set, measured without
// tracing. With -trace 1 the run interleaves untraced engine ops with
// traced replays of the same op at 1 and GOMAXPROCS threads and reports the
// per-layer set. README.md lists the workloads and metrics; run.py builds
// and runs this command.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// The metrics each mode reports, with their units, in print order.
var endToEnd = []struct{ name, unit string }{
	{"edges_per_s", "1/s"},
	{"op_p50_s", "s"},
	{"modularity", "Q"},
	{"alloc_mb_per_op", "MB"},
	{"max_rss_mb", "MB"},
	{"setup_s", "s"},
	{"success_frac", "ratio"},
}

var perLayer = []struct{ name, unit string }{
	{"graph.build_s", "s"},
	{"graph.apply_delta_s", "s"},
	{"graph.compact_s", "s"},
	{"graph.compact_edges", "count"},
	{"par.schedule_s", "s"},
	{"par.imbalance", "ratio"},
	{"exec.spawned_per_op", "count"},
	{"exec.acquires_per_op", "count"},
	{"scoring.s", "s"},
	{"scoring.edges", "count"},
	{"scoring.positive_frac", "ratio"},
	{"scoring.speedup", "x"},
	{"matching.s", "s"},
	{"matching.passes", "count"},
	{"matching.visits", "count"},
	{"matching.pairs", "count"},
	{"matching.yield", "ratio"},
	{"matching.speedup", "x"},
	{"contract.s", "s"},
	{"contract.edges_in", "count"},
	{"contract.edges_out", "count"},
	{"contract.speedup", "x"},
	{"plp.s", "s"},
	{"plp.sweeps", "count"},
	{"plp.changed_frac", "ratio"},
	{"plp.speedup", "x"},
	{"hierarchy.s", "s"},
	{"core.levels", "count"},
	{"core.glue_s", "s"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_pause_s_per_op", "s"},
	{"runtime.heap_peak_mb", "MB"},
	{"trace.overhead_frac", "ratio"},
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run, 0 for the end-to-end run")
	spanDir := flag.String("spans", "", "directory to write the traced run's spans to")
	flag.Parse()
	if !slices.Contains(workloadNames, *workload) || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		flag.Usage()
		return 2
	}

	t0 := time.Now()
	in, err := generate(*workload, *seed, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("%s seed %d: %d vertices, %d input edges, %d batches; generator %.3f s (overhead, not a metric), %d threads\n",
		*workload, *seed, in.n, len(in.edges), len(in.batches), time.Since(t0).Seconds(), runtime.GOMAXPROCS(0))

	// Memory measures the program, not the generator: return the
	// generator's garbage to the OS and restart the peak from here.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	s := &runState{workload: *workload, in: in}
	if err := s.setup(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
		return 1
	}
	var rep report
	if *trace == 1 {
		rep, err = s.traced(time.Duration(*seconds)*time.Second, *spanDir, *seed)
	} else {
		rep, err = s.measured(time.Duration(*seconds) * time.Second)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	names := endToEnd
	if *trace == 1 {
		names = perLayer
	}
	for _, m := range names {
		v, ok := rep.Metrics[m.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s missing or not finite\n", m.name)
			return 1
		}
		rep.Metrics[m.name] = metric{v.Value, m.unit}
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !rep.Correct {
		return 1
	}
	return 0
}

// runState is one run: the workload's inputs and program state, the set-up
// figures, and the reference partition hash of a Detect workload.
type runState struct {
	workload string
	in       *inputs
	b        bench
	setupT   []float64
	buildT   []float64
	refHash  uint64
}

// fail reports a failed check; the caller counts it.
func (s *runState) fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

// setup sets the program up setupReps times from the same inputs and keeps
// the last. Each set-up's op must pass the op checks, and on a Detect
// workload its partition hash becomes the reference every op reproduces.
func (s *runState) setup() error {
	for i := range setupReps {
		s.b = nil
		runtime.GC() // drop the previous set-up's state before timing the next
		s.b = newBench(s.workload, s.in)
		d, r, err := s.b.setup()
		if err != nil {
			return err
		}
		s.setupT = append(s.setupT, d.Seconds())
		s.buildT = append(s.buildT, s.b.buildTime().Seconds())
		if err := checkPartition(r.g, r.comm, r.k, r.modularity); err != nil {
			return fmt.Errorf("set-up %d: %w", i, err)
		}
		if _, inc := s.b.(*incBench); inc {
			continue
		}
		if i == 0 {
			s.refHash = hashPartition(r.comm)
		} else if err := checkHash(r.comm, s.refHash); err != nil {
			return fmt.Errorf("set-up %d: %w", i, err)
		}
	}
	if b, ok := s.b.(*incBench); ok {
		fmt.Printf("set-up: %d bulk-loaded batches, then %d warm-up batches after the bootstrap Detect\n", bulkBatches, b.warmup)
	}
	return nil
}

// check runs the op checks on one measured op and reports whether it
// passed.
func (s *runState) check(r opResult) bool {
	if err := checkPartition(r.g, r.comm, r.k, r.modularity); err != nil {
		s.fail("%v", err)
		return false
	}
	if _, inc := s.b.(*incBench); !inc {
		if err := checkHash(r.comm, s.refHash); err != nil {
			s.fail("%v", err)
			return false
		}
	}
	return true
}

// loop runs ops until d has passed and at least minOps ran, or the
// incremental workload runs out of batches. each sees every op that
// returned without error.
func (s *runState) loop(d time.Duration, minOps int, each func(opResult) error) (attempted, failed int, err error) {
	deadline := time.Now().Add(d)
	for attempted < minOps || time.Now().Before(deadline) {
		r, err := s.b.op()
		if errors.Is(err, errNoBatches) {
			if attempted < minOps {
				return attempted, failed, fmt.Errorf("only %d batches left to measure, need %d", attempted, minOps)
			}
			break
		}
		attempted++
		if err != nil {
			s.fail("op %d: %v", attempted, err)
			failed++
			break
		}
		if err := each(r); err != nil {
			return attempted, failed, err
		}
		if !s.check(r) {
			failed++
		}
	}
	return attempted, failed, nil
}

// checkLastBatch checks the incremental workload's overlay against the
// sequential oracle on the last batch and reports whether it failed. It
// runs after the peak RSS is read: the oracle's maps are not the program's.
func (s *runState) checkLastBatch() bool {
	b, ok := s.b.(*incBench)
	if !ok {
		return false
	}
	if err := checkBatch(b.prevG, b.lastBatch, b.lastG); err != nil {
		s.fail("last batch: overlay differs from seq.ApplyDelta: %v", err)
		return true
	}
	return false
}

// measured is the end-to-end run: untraced ops on GOMAXPROCS threads.
func (s *runState) measured(d time.Duration) (report, error) {
	var durs, edges, allocs, mods []float64
	var updates int
	// modularity is read at a fixed op, the last one every run reaches:
	// the incremental stream's modularity climbs batch by batch, so a
	// later or a median read would depend on how many batches fit in d.
	minOps := minDetects
	if _, inc := s.b.(*incBench); inc {
		minOps = minBatches
	}
	attempted, failed, err := s.loop(d, minOps, func(r opResult) error {
		durs = append(durs, r.dur.Seconds())
		edges = append(edges, float64(r.g.NumEdges()))
		allocs = append(allocs, float64(r.alloc))
		updates += r.updates
		mods = append(mods, r.modularity)
		return nil
	})
	if err != nil {
		return report{}, err
	}
	rss, err := peakRSS()
	if err != nil {
		return report{}, err
	}
	if failed == 0 && s.checkLastBatch() {
		failed++
	}
	p50 := median(durs)
	m := map[string]metric{
		"edges_per_s":     {Value: median(edges) / p50},
		"op_p50_s":        {Value: p50},
		"modularity":      {Value: mods[minOps-1]},
		"alloc_mb_per_op": {Value: median(allocs) / 1e6},
		"max_rss_mb":      {Value: rss / 1e6},
		"setup_s":         {Value: median(s.setupT)},
		"success_frac":    {Value: float64(attempted-failed) / float64(attempted)},
	}
	for _, e := range endToEnd {
		fmt.Printf("%-16s %14.6g %-5s n=%d\n", e.name, m[e.name].Value, e.unit, sampleCount(e.name, len(durs)))
	}
	fmt.Printf("%-16s %14.6g %-5s n=%d\n", "alloc_mb_mean", sum(allocs)/float64(len(allocs))/1e6, "MB", len(allocs))
	if updates > 0 {
		// Informational: printed on the incremental workload only, so not
		// in the gated set, which every workload must report.
		fmt.Printf("%-16s %14.6g %-5s n=%d\n", "op_p90_s", quantile(durs, 0.9), "s", len(durs))
		fmt.Printf("%-16s %14.6g %-5s n=%d\n", "updates_per_s", float64(updates)/sum(durs), "1/s", len(durs))
	}
	return report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

func sampleCount(name string, ops int) int {
	switch name {
	case "setup_s":
		return setupReps
	case "max_rss_mb", "modularity":
		return 1
	}
	return ops
}

// traced is the per-layer run. Each round runs one untraced engine op, then
// replays the same op traced at GOMAXPROCS threads and at 1 thread; every
// replay must reproduce the engine's partition.
func (s *runState) traced(d time.Duration, spanDir string, seed uint64) (report, error) {
	nproc := runtime.GOMAXPROCS(0)
	tr := newTracer()
	rN, r1 := newReplayer(nproc, tr), newReplayer(1, tr)
	eng, isDetect := s.b.(*detectBench)
	if b, ok := s.b.(*incBench); ok {
		for _, r := range []*replayer{rN, r1} {
			r.ov = newShadowOverlay(r.threads, b.lastG)
			r.prev = b.prev
		}
	}
	var untraced []float64
	var c cost
	replays, replayFailed := 0, 0
	attempted, failed, err := s.loop(d, 1, func(r opResult) error {
		untraced = append(untraced, r.dur.Seconds())
		c.gcs += r.gcs
		c.gcPause += r.gcPause
		c.acquires += r.acquires
		c.spawned += r.spawned
		tr.heapPeak = max(tr.heapPeak, r.heapAfter)
		want := hashPartition(r.comm)
		for _, rp := range []*replayer{rN, r1} {
			var comm []int64
			if isDetect {
				comm, _ = rp.detect(eng.g, eng.opt.Engine)
			} else {
				var err error
				if comm, _, err = rp.batch(s.b.(*incBench).lastBatch); err != nil {
					return fmt.Errorf("replay at %d threads: %w", rp.threads, err)
				}
			}
			replays++
			if err := checkHash(comm, want); err != nil {
				s.fail("replay at %d threads: %v", rp.threads, err)
				replayFailed++
			}
		}
		return nil
	})
	if err != nil {
		return report{}, err
	}
	if failed == 0 && s.checkLastBatch() {
		failed++
	}
	if spanDir != "" {
		if err := writeSpans(tr, filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", s.workload, seed))); err != nil {
			return report{}, err
		}
	}

	self, wall, threads := tr.selfTimes()
	layer := func(t int, names ...string) float64 {
		var tot time.Duration
		var n int
		for op, st := range self {
			if threads[op] != t {
				continue
			}
			n++
			for _, name := range names {
				tot += st[name]
			}
		}
		if n == 0 {
			return 0
		}
		return tot.Seconds() / float64(n)
	}
	speedup := func(name string) float64 {
		if tN := layer(nproc, name); tN > 0 {
			return layer(1, name) / tN
		}
		return 0
	}
	var tracedWall []float64
	for op, w := range wall {
		if threads[op] == nproc {
			tracedWall = append(tracedWall, w.Seconds())
		}
	}
	k := rN.c
	per := func(x int64) float64 { return float64(x) / float64(k.ops) }
	ops := float64(len(untraced))
	m := map[string]metric{
		"graph.build_s":             {Value: median(s.buildT)},
		"graph.apply_delta_s":       {Value: layer(nproc, spanApplyDelta)},
		"graph.compact_s":           {Value: layer(nproc, spanCompact)},
		"graph.compact_edges":       {Value: per(k.compactEdges)},
		"par.schedule_s":            {Value: layer(nproc, spanSchedule)},
		"par.imbalance":             {Value: ratio(k.imbalanceSum, k.imbalanceW)},
		"exec.spawned_per_op":       {Value: float64(c.spawned) / ops},
		"exec.acquires_per_op":      {Value: float64(c.acquires) / ops},
		"scoring.s":                 {Value: layer(nproc, spanScoring)},
		"scoring.edges":             {Value: per(k.scoreEdges)},
		"scoring.positive_frac":     {Value: ratio(float64(k.positive), float64(k.scoreEdges))},
		"scoring.speedup":           {Value: speedup(spanScoring)},
		"matching.s":                {Value: layer(nproc, spanMatching)},
		"matching.passes":           {Value: per(k.passes)},
		"matching.visits":           {Value: per(k.visits)},
		"matching.pairs":            {Value: per(k.pairs)},
		"matching.yield":            {Value: ratio(2*float64(k.pairs), float64(k.visits))},
		"matching.speedup":          {Value: speedup(spanMatching)},
		"contract.s":                {Value: layer(nproc, spanContract)},
		"contract.edges_in":         {Value: per(k.edgesIn)},
		"contract.edges_out":        {Value: per(k.edgesOut)},
		"contract.speedup":          {Value: speedup(spanContract)},
		"plp.s":                     {Value: layer(nproc, spanPLP)},
		"plp.sweeps":                {Value: per(k.plpSweeps)},
		"plp.changed_frac":          {Value: ratio(float64(k.plpChanged), float64(k.plpActive))},
		"plp.speedup":               {Value: speedup(spanPLP)},
		"hierarchy.s":               {Value: layer(nproc, spanHierarchy)},
		"core.levels":               {Value: per(k.levels)},
		"core.glue_s":               {Value: layer(nproc, spanOp, spanLevel)},
		"runtime.gc_cycles_per_op":  {Value: float64(c.gcs) / ops},
		"runtime.gc_pause_s_per_op": {Value: c.gcPause.Seconds() / ops},
		"runtime.heap_peak_mb":      {Value: float64(tr.heapPeak) / 1e6},
		"trace.overhead_frac":       {Value: median(tracedWall)/median(untraced) - 1},
	}
	fmt.Printf("traced: %d engine ops (untraced op_p50_s %.6g), %d replays at %d and 1 threads\n",
		len(untraced), median(untraced), replays, nproc)
	for _, e := range perLayer {
		fmt.Printf("%-26s %14.6g %-5s\n", e.name, m[e.name].Value, e.unit)
	}
	return report{
		Correct:   failed+replayFailed == 0,
		Attempted: attempted + replays,
		Failed:    failed + replayFailed,
		Metrics:   m,
	}, nil
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// resetPeakRSS restarts the kernel's peak resident set size (VmHWM) count
// at the current resident size.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSS returns VmHWM in bytes.
func peakRSS() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb * 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func writeSpans(tr *tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range tr.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
