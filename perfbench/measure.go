package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// rep is one execution of one of the workload's worlds: set-up,
// stepped run, check.
type rep struct {
	world    int // index into the seed's worlds
	id       int // the rep's root span
	setupID  int // its set-up span
	setup    time.Duration
	run      time.Duration
	steps    []stepSample
	peakHeap uint64
	mem      memDelta
	shards   int
	busy     []time.Duration // per shard; the run span when serial
	out      output
	err      error // set-up error, broken invariant or output mismatch
}

// memDelta is the Go runtime's work during the run phase.
type memDelta struct {
	allocBytes, mallocs uint64
	gcCycles            uint32
	gcPause             time.Duration
}

// execute sets world i of the seed up and runs it once. With profile
// set, the run phase is CPU-profiled into that file.
func execute(s spec, seed int64, i int, tr *tracer, profile string) *rep {
	runtime.GC() // start from a heap without the previous rep's garbage
	r := &rep{world: i, id: tr.begin("bench.rep", -1)}
	defer tr.end(r.id)
	r.setupID = tr.begin("bench.setup", r.id)
	in, err := build(s, worldSeed(seed, i), tr, r.setupID)
	r.setup = tr.end(r.setupID)
	if err != nil {
		r.err = err
		return r
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stop := func() error { return nil }
	if profile != "" {
		if stop, err = startProfile(profile); err != nil {
			r.err = err
			return r
		}
	}
	runID := tr.begin("bench.run", r.id)
	r.steps, r.peakHeap = in.run(tr, runID)
	r.run = tr.end(runID)
	if err := stop(); err != nil {
		r.err = err
		return r
	}
	runtime.ReadMemStats(&after)
	r.mem = memDelta{
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		mallocs:    after.Mallocs - before.Mallocs,
		gcCycles:   after.NumGC - before.NumGC,
		gcPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
	r.shards = in.world.Shards()
	r.busy = []time.Duration{r.run}
	if st := in.world.ShardStats(); st != nil {
		r.busy = r.busy[:0]
		for _, sh := range st {
			r.busy = append(r.busy, time.Duration(sh.BusyNanos))
		}
	}
	r.out = in.result()
	r.err = s.check(r.out)
	return r
}

func startProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// checker validates every rep's output: against the recorded reference
// of its world when the seed has one, and at any seed against the first
// rep of the same world (a world must give the same output every time).
type checker struct {
	refs  []output // by world; nil when the seed has no reference
	first map[int]output
}

func newChecker(cfg config) *checker {
	c := &checker{first: map[int]output{}}
	if ref, ok := references[cfg.spec.Name]; ok && ref.Seed == cfg.seed {
		c.refs = ref.Worlds
	}
	return c
}

func (c *checker) check(r *rep) {
	first, seen := c.first[r.world]
	switch {
	case r.err != nil:
	case c.refs != nil && (r.world >= len(c.refs) || r.out != c.refs[r.world]):
		r.err = fmt.Errorf("world %d: output %s %+v differs from the reference", r.world, r.out.Digest, r.out.Counts)
	case !seen:
		c.first[r.world] = r.out
	case r.out != first:
		r.err = fmt.Errorf("world %d: output %s differs from its first rep's %s", r.world, r.out.Digest, first.Digest)
	}
}

// report prints every failed rep's error and each world's checked
// output, and returns the reps that succeeded.
func (c *checker) report(w io.Writer, cfg config, reps []*rep) []*rep {
	var ok []*rep
	for i, r := range reps {
		if r.err != nil {
			fmt.Fprintf(w, "# rep %d FAILED: %v\n", i, r.err)
			continue
		}
		ok = append(ok, r)
	}
	ref := "none at this seed (invariants only)"
	if c.refs != nil {
		ref = "match"
	}
	for i := range worldsPerSeed {
		if out, seen := c.first[i]; seen {
			counts, _ := json.Marshal(out.Counts) // a struct of integers always marshals
			fmt.Fprintf(w, "# world %d (WorldConfig.Seed %d): digest=%s reference=%s counts %s\n",
				i, worldSeed(cfg.seed, i), out.Digest, ref, counts)
		}
	}
	return ok
}

// minSetups is the least number of set-up samples setup_s is the
// median of; set-ups beyond the timed reps build a world and drop it.
const minSetups = 5

// timed runs one warm-up rep, then repeats the workload for cfg.seconds
// of host time (at least once) and reports the end-to-end metrics. The
// warm-up rep grows the heap and faults its pages in, so that no timed
// rep pays for that; its output is checked, its times are dropped.
func timed(cfg config, stdout io.Writer) (*result, error) {
	tr := newTracer()
	chk := newChecker(cfg)
	warm := execute(cfg.spec, cfg.seed, 0, tr, "")
	chk.check(warm)
	var reps []*rep
	start := time.Now()
	for len(reps) == 0 || time.Since(start).Seconds() < cfg.seconds {
		r := execute(cfg.spec, cfg.seed, len(reps)%worldsPerSeed, tr, "")
		chk.check(r)
		reps = append(reps, r)
	}
	var setups []float64
	for _, r := range reps {
		setups = append(setups, r.setup.Seconds())
	}
	attempted, failed := len(reps)+1, 0
	if warm.err != nil {
		fmt.Fprintf(stdout, "# warm-up rep FAILED: %v\n", warm.err)
		failed++
	}
	for len(setups) < minSetups {
		runtime.GC()
		id := tr.begin("bench.setup", -1)
		_, err := build(cfg.spec, worldSeed(cfg.seed, len(setups)%worldsPerSeed), tr, id)
		setups = append(setups, tr.end(id).Seconds())
		attempted++
		if err != nil {
			failed++
		}
	}
	ok := chk.report(stdout, cfg, reps)
	failed += len(reps) - len(ok)
	if len(ok) == 0 {
		return nil, errors.New("every rep failed")
	}
	printEnv(stdout, cfg, len(ok), min(len(reps), worldsPerSeed), len(setups))
	fmt.Fprint(stdout, "# run_s per rep:")
	for _, r := range ok {
		fmt.Fprintf(stdout, " %.4f", r.run.Seconds())
	}
	fmt.Fprintln(stdout)
	m := endToEnd(ok, setups)
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// endToEnd computes the end-to-end metrics over the successful reps
// and the set-up samples.
func endToEnd(reps []*rep, setups []float64) map[string]metric {
	var runs, rates, heaps, p50s, p90s []float64
	for _, r := range reps {
		runs = append(runs, r.run.Seconds())
		rates = append(rates, float64(r.out.Counts.Events)/r.run.Seconds())
		heaps = append(heaps, float64(r.peakHeap)/1e6)
		steps := streamingSteps(r)
		p50s = append(p50s, quantile(steps, 0.5))
		p90s = append(p90s, quantile(steps, 0.9))
	}
	return map[string]metric{
		"setup_s":      {median(setups), "s"},
		"run_s":        {median(runs), "s"},
		"events_per_s": {median(rates), "1/s"},
		"step_ms_p50":  {median(p50s), "ms"},
		"step_ms_p90":  {median(p90s), "ms"},
		"peak_heap_mb": {median(heaps), "MB"},
	}
}

// streamingSteps returns the host milliseconds of a rep's steps inside
// the streaming phase.
func streamingSteps(r *rep) []float64 {
	var ms []float64
	for _, s := range r.steps {
		if s.streaming {
			ms = append(ms, float64(s.dur.Nanoseconds())/1e6)
		}
	}
	return ms
}

// traced runs the seed's first world three times — a warm-up that
// grows the heap, then one untraced and one traced rep — and reports
// the per-layer metrics. The untraced rep supplies everything a
// profiler would skew (set-up spans, shard busy time, runtime memory
// counters) and the deterministic counts; the traced rep's CPU profile
// supplies each layer's self time. The difference between the two
// reps' run_s is the tracing overhead.
func traced(cfg config, stdout io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d", cfg.spec.Name, cfg.seed))
	tr := newTracer()
	chk := newChecker(cfg)
	var reps []*rep
	for _, profile := range []string{"", "", base + ".cpu.prof"} {
		r := execute(cfg.spec, cfg.seed, 0, tr, profile)
		chk.check(r)
		reps = append(reps, r)
	}
	if ok := chk.report(stdout, cfg, reps); len(ok) != len(reps) {
		return nil, errors.New("a traced rep failed")
	}
	plain, prof := reps[1], reps[2]
	if err := tr.writeChrome(base + ".spans.json"); err != nil {
		return nil, err
	}
	lt, err := profileLayers(base + ".cpu.prof")
	if err != nil {
		return nil, err
	}
	m := layerMetrics(tr, plain, lt)
	m["trace.run_s"] = metric{prof.run.Seconds(), "s"}
	m["trace.overhead_s"] = metric{prof.run.Seconds() - plain.run.Seconds(), "s"}

	printEnv(stdout, cfg, len(reps), 1, len(reps))
	fmt.Fprintf(stdout, "# spans: %s.spans.json  profile: %s.cpu.prof\n", base, base)
	fmt.Fprintf(stdout, "# tracing overhead: run_s %.4f traced vs %.4f untraced (%+.1f%%)\n",
		prof.run.Seconds(), plain.run.Seconds(), 100*(prof.run.Seconds()/plain.run.Seconds()-1))
	fmt.Fprintf(stdout, "# %-10s %8s %6s  (CPU self time of the traced run phase; total %.3fs)\n",
		"layer", "self_s", "share", lt.Total.Seconds())
	for _, l := range layers {
		d := lt.Self[l].Seconds()
		fmt.Fprintf(stdout, "# %-10s %8.3f %5.1f%%\n", l, d, 100*d/lt.Total.Seconds())
	}
	return &result{Correct: true, Attempted: len(reps), Failed: 0, Metrics: m}, nil
}

// setupSpans are the set-up calls a traced run reports, one metric each.
var setupSpans = []string{"topology.world", "overlay.tree", "core.deploy", "streamer.deploy", "scenario.install"}

// layerMetrics assembles the per-layer metrics of a traced run.
func layerMetrics(tr *tracer, plain *rep, lt layerTable) map[string]metric {
	m := map[string]metric{}
	for _, name := range setupSpans {
		m[name+"_s"] = metric{tr.total(name, plain.setupID).Seconds(), "s"}
	}
	for _, l := range layers {
		m[l+".self_s"] = metric{lt.Self[l].Seconds(), "s"}
	}

	var busyMax, busySum time.Duration
	for _, b := range plain.busy {
		busyMax = max(busyMax, b)
		busySum += b
	}
	mean := busySum.Seconds() / float64(len(plain.busy))
	m["netem.shard_busy_max_s"] = metric{busyMax.Seconds(), "s"}
	m["netem.shard_imbalance"] = metric{busyMax.Seconds() / mean, "ratio"}
	m["netem.barrier_idle_s"] = metric{float64(plain.shards)*plain.run.Seconds() - busySum.Seconds(), "s"}

	m["runtime.alloc_mb"] = metric{float64(plain.mem.allocBytes) / 1e6, "MB"}
	m["runtime.mallocs"] = metric{float64(plain.mem.mallocs), "count"}
	m["runtime.gc_cycles"] = metric{float64(plain.mem.gcCycles), "count"}
	m["runtime.gc_pause_ms"] = metric{float64(plain.mem.gcPause.Nanoseconds()) / 1e6, "ms"}

	c := plain.out.Counts
	for name, v := range c.byName() {
		m[name] = metric{float64(v), "count"}
	}
	m["netem.delivery_ratio"] = metric{float64(c.DataBytesDelivered) / float64(c.DataBytesSent), "ratio"}
	m["core.useful_ratio"] = metric{float64(c.UsefulBytes) / float64(c.RawBytes), "ratio"}
	return m
}
