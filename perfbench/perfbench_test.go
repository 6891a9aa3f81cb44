package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"bullet"
)

// reduced returns a small serial Bullet workload that runs in about a
// second, with optional churn and sharding.
func reduced(shards int, churn bool) spec {
	s := spec{
		Name: "reduced", Nodes: 1500, Clients: 40, Shards: shards, Protocol: protoBullet, Degree: 5,
		Start: 2 * bullet.Second, Stream: 6 * bullet.Second, Until: 8 * bullet.Second,
		Step: 250 * bullet.Millisecond,
	}
	if churn {
		s.ChurnEvery, s.ChurnAt, s.ChurnGap, s.DownFor = 5, 3*bullet.Second, 250*bullet.Millisecond, 2*bullet.Second
	}
	return s
}

func mustBuild(t *testing.T, s spec, seed int64) *instance {
	t.Helper()
	in, err := build(s, seed, newTracer(), -1)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// stepped runs a workload the way the benchmark times it.
func stepped(t *testing.T, s spec, seed int64) output {
	t.Helper()
	in := mustBuild(t, s, seed)
	steps, _ := in.run(newTracer(), -1)
	if want := int(s.Until / s.Step); len(steps) != want {
		t.Fatalf("%d steps, want %d", len(steps), want)
	}
	out := in.result()
	if err := s.check(out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSteppedRunMatchesSingleRun proves the step timer does not change
// what it measures: advancing World.Run in the benchmark's steps gives
// the same output as one Run to the same end time, on a serial mesh
// and on a 2-shard world under churn.
func TestSteppedRunMatchesSingleRun(t *testing.T) {
	for _, tc := range []struct {
		name   string
		s      spec
		shards int
	}{
		{"serial-mesh", reduced(0, false), 1},
		{"sharded-churn", reduced(2, true), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := stepped(t, tc.s, 3)
			in := mustBuild(t, tc.s, 3)
			if in.world.Shards() != tc.shards {
				t.Fatalf("world runs on %d shards, want %d", in.world.Shards(), tc.shards)
			}
			in.world.Run(tc.s.Until)
			if want := in.result(); got != want {
				t.Fatalf("stepped %+v\nsingle Run %+v", got, want)
			}
		})
	}
}

// TestSameSeedSameOutput checks determinism: the seed reaches the
// program only through the generated world, so the same seed gives
// identical counts and digest, and another seed another digest.
func TestSameSeedSameOutput(t *testing.T) {
	s := reduced(0, true)
	a, b, c := stepped(t, s, 5), stepped(t, s, 5), stepped(t, s, 6)
	if a != b {
		t.Fatalf("seed 5 twice: %+v vs %+v", a, b)
	}
	if a.Digest == c.Digest {
		t.Fatalf("seeds 5 and 6 share digest %s", a.Digest)
	}
	if a.Counts.MemberEpochs == 0 {
		t.Fatal("the churn schedule changed no membership")
	}
}

func TestGroupTopFixture(t *testing.T) {
	text, err := os.ReadFile("testdata/pprof_top.txt")
	if err != nil {
		t.Fatal(err)
	}
	got, err := groupTop(string(text))
	if err != nil {
		t.Fatal(err)
	}
	ms := time.Millisecond
	want := map[string]time.Duration{
		"netem": 390 * ms, "sim": 340 * ms, "sketch": 120 * ms, "bloom": 90 * ms,
		"workset": 70 * ms, "topology": 60 * ms, "transport": 50 * ms, "arena": 40 * ms,
		"nodeset": 40 * ms, "tfrc": 30 * ms, "core": 30 * ms, "ransub": 20 * ms, "metrics": 10 * ms,
		// runtime.lock2, runtime.nanotime, internal/runtime/atomic and
		// internal/runtime/maps.
		"runtime": 540 * ms,
		// sort, main, the bullet root package, a non-layer internal
		// package (experiments) and runtime/pprof.
		"other": 60 * ms,
	}
	if got.Total != 1890*ms {
		t.Errorf("total %v, want 1890ms", got.Total)
	}
	var sum time.Duration
	for _, l := range layers {
		sum += got.Self[l]
		if got.Self[l] != want[l] {
			t.Errorf("%s: %v, want %v", l, got.Self[l], want[l])
		}
	}
	if sum != got.Total {
		t.Errorf("layers sum to %v, total %v", sum, got.Total)
	}
	if len(got.Self) != len(layers) {
		t.Errorf("table has %d layers, want %d", len(got.Self), len(layers))
	}
}

func TestGroupTopRejectsIncompleteProfile(t *testing.T) {
	text, err := os.ReadFile("testdata/pprof_top.txt")
	if err != nil {
		t.Fatal(err)
	}
	// Dropping a row leaves the rows short of the profile total.
	cut := strings.Replace(string(text), "     390ms", "     380ms", 1)
	if _, err := groupTop(cut); err == nil {
		t.Error("rows that miss the total were accepted")
	}
	if _, err := groupTop("no profile here\n"); err == nil {
		t.Error("text without a table was accepted")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"bullet/internal/core.(*System).pumpTick.func1":                      "core",
		"bullet/internal/nodeset.(*Table[go.shape.*bullet/internal/x.y]).At": "nodeset",
		"runtime.mallocgc":                          "runtime",
		"internal/runtime/maps.(*Map).getWithKey":   "runtime",
		"runtime/pprof.(*profMap).lookup":           "other",
		"bullet/internal/experiments.newWorld":      "other",
		"bullet.(*World).Run (inline)":              "other",
		"main.run":                                  "other",
		"slices.insertionSortCmpFunc[go.shape.int]": "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParsePprofDuration(t *testing.T) {
	for s, want := range map[string]time.Duration{
		"0": 0, "350us": 350 * time.Microsecond, "120ms": 120 * time.Millisecond,
		"1.5s": 1500 * time.Millisecond, "2.5mins": 150 * time.Second,
	} {
		if got, err := parsePprofDuration(s); err != nil || got != want {
			t.Errorf("%q: %v %v, want %v", s, got, err, want)
		}
	}
	if _, err := parsePprofDuration("12 parsecs"); err == nil {
		t.Error("unknown unit accepted")
	}
}

func TestEveryWorkloadHasAReference(t *testing.T) {
	for _, s := range workloads {
		ref, ok := references[s.Name]
		if !ok || ref.Seed != defaultSeed || len(ref.Worlds) != worldsPerSeed {
			t.Errorf("%s: no reference at seed %d", s.Name, defaultSeed)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median %v, want 2.5", got)
	}
	if got := quantile(xs, 0.9); got < 3.69 || got > 3.71 {
		t.Errorf("p90 %v, want 3.7", got)
	}
}

func TestBadArgumentsExit2(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "mesh-medium", "--trace", "2"},
		{"--workload", "mesh-medium", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("%q: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json, at the root of
// the repository, in step with the workloads and metrics the program
// prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var bj struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}

	r := &rep{run: time.Second, busy: []time.Duration{time.Second}, shards: 1,
		steps: []stepSample{{dur: time.Millisecond, streaming: true}}}
	r.out.Counts.Events, r.out.Counts.RawBytes, r.out.Counts.DataBytesSent = 1, 1, 1
	tr := newTracer()
	r.id = tr.begin("bench.rep", -1)
	lt := layerTable{Self: map[string]time.Duration{}, Total: time.Second}
	perLayer := layerMetrics(tr, r, lt)
	perLayer["trace.run_s"], perLayer["trace.overhead_s"] = metric{Unit: "s"}, metric{Unit: "s"}
	for _, c := range []struct {
		section string
		listed  []named
		emitted map[string]metric
	}{
		{"end_to_end", bj.EndToEnd, endToEnd([]*rep{r}, []float64{1})},
		{"per_layer", bj.PerLayer, perLayer},
	} {
		if len(c.listed) != len(c.emitted) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", c.section, len(c.listed), len(c.emitted))
		}
		for _, m := range c.listed {
			if got, ok := c.emitted[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: %s [%s] printed as %+v (present %v)", c.section, m.Name, m.Unit, got, ok)
			}
		}
	}
}
