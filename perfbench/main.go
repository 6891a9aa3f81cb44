// Command perfbench is the repository's benchmark: it builds one
// workload through the public bullet API, times every call into the
// program from outside, checks the simulated output, and prints every
// metric by name with its unit. See README.md in this directory.
//
//	bash perfbench/run.sh --workload mesh-medium --seed 1 --seconds 35 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one benchmark invocation.
type config struct {
	spec    spec
	seed    int64
	seconds float64
	trace   bool
	out     string // where a traced run writes its spans and CPU profile
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", defaultSeed, "seed the workload's worlds are generated from")
	seconds := fs.Float64("seconds", 35, "host seconds to keep repeating the workload for, after one warm-up rep")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics, spans and CPU profile")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for a traced run's spans and CPU profile")
	record := fs.Bool("record", false, "run each of the seed's worlds once serially and print reference.json with their outputs recorded")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := config{spec: s, seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}
	var res *result
	var err error
	switch {
	case *record:
		err = recordReference(cfg, stdout)
	case cfg.trace:
		res, err = traced(cfg, stdout)
	default:
		res, err = timed(cfg, stdout)
	}
	if err == nil && res != nil {
		var line []byte
		if line, err = json.Marshal(res); err == nil {
			fmt.Fprintln(stdout, string(line))
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printEnv records what a result was measured on and with.
func printEnv(w io.Writer, cfg config, reps, worlds, setups int) {
	s := cfg.spec
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d trace=%v go=%s GOMAXPROCS=%d cpu=%q\n",
		s.Name, cfg.seed, cfg.trace, runtime.Version(), runtime.GOMAXPROCS(0), cpuModel())
	fmt.Fprintf(w, "# reps=%d worlds=%d setups=%d steps=%d per rep (streaming-phase World.Run steps of %v virtual time)\n",
		reps, worlds, setups, int(s.Stream/s.Step), time.Duration(s.Step))
}

// cpuModel reads the CPU model name, or "unknown" off Linux.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile linearly interpolates the q-quantile of xs (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// defaultSeed is the seed every workload's reference output is recorded
// at.
const defaultSeed = 1

// reference is the recorded output of every world of one seed.
type reference struct {
	Seed   int64    `json:"seed"`
	Worlds []output `json:"worlds"`
}

//go:embed reference.json
var referenceJSON []byte

// references maps a workload name to its recorded output.
var references = func() map[string]reference {
	var refs map[string]reference
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		panic("perfbench: reference.json: " + err.Error())
	}
	return refs
}()

// recordReference runs every world of the seed once with sharding off
// and prints reference.json with this workload's entry replaced. A
// sharded workload is recorded serially, so every sharded run that
// matches the reference also proves shard identity.
func recordReference(cfg config, stdout io.Writer) error {
	s := cfg.spec
	s.Shards = 0
	ref := reference{Seed: cfg.seed}
	for i := range worldsPerSeed {
		tr := newTracer()
		in, err := build(s, worldSeed(cfg.seed, i), tr, -1)
		if err != nil {
			return err
		}
		in.run(tr, -1)
		out := in.result()
		if err := s.check(out); err != nil {
			return fmt.Errorf("world %d: %w", i, err)
		}
		ref.Worlds = append(ref.Worlds, out)
	}
	refs := maps.Clone(references)
	refs[s.Name] = ref
	return writeReferences(stdout, refs)
}

// writeReferences prints refs as JSON with one line per world, so that a
// changed output shows as a one-line diff.
func writeReferences(w io.Writer, refs map[string]reference) error {
	var b strings.Builder
	b.WriteString("{\n")
	names := slices.Sorted(maps.Keys(refs))
	for i, name := range names {
		fmt.Fprintf(&b, "  %q: {\"seed\": %d, \"worlds\": [\n", name, refs[name].Seed)
		for j, out := range refs[name].Worlds {
			line, err := json.Marshal(out)
			if err != nil {
				return err
			}
			b.WriteString("    " + string(line) + sep(j, len(refs[name].Worlds)) + "\n")
		}
		b.WriteString("  ]}" + sep(i, len(names)) + "\n")
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func sep(i, n int) string {
	if i < n-1 {
		return ","
	}
	return ""
}
