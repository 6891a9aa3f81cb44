package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// layers are the program's modules (bullet/internal/<pkg>) the
// workloads execute, plus the Go runtime and everything else. A CPU
// profile's self time is split among exactly these.
var layers = []string{
	"adversary", "arena", "bloom", "core", "member", "metrics", "netem", "nodeset",
	"overlay", "ransub", "scenario", "sim", "sketch", "streamer", "tfrc", "topology",
	"transport", "workload", "workset", "runtime", "other",
}

// layerOf maps a profiled function to its layer: the bullet/internal
// package it belongs to, "runtime" for the Go runtime (package runtime
// and its internal/runtime/... helpers, such as the map
// implementation), and "other" for the rest (standard library, the
// benchmark itself, and internal packages outside layers).
func layerOf(fn string) string {
	pkg := packageOf(fn)
	if pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	if l, ok := strings.CutPrefix(pkg, "bullet/internal/"); ok {
		for _, known := range layers {
			if l == known {
				return l
			}
		}
	}
	return "other"
}

// packageOf returns the import path of a Go symbol name as pprof prints
// it, e.g. "bullet/internal/nodeset" for
// "bullet/internal/nodeset.(*Table[go.shape.int]).Get".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerTable is a CPU profile's self (flat) time grouped by layer.
type layerTable struct {
	Self  map[string]time.Duration
	Total time.Duration // the profile's total sampled time
}

var (
	topTotalRE = regexp.MustCompile(`of (\S+) total`)
	topRowRE   = regexp.MustCompile(`^\s*(\S+)\s+\S+%\s+\S+%\s+\S+\s+\S+%\s+(.+)$`)
)

// groupTop parses `go tool pprof -top` text and sums each function's
// flat time into its layer. Every row must be accounted for: the
// layers' self times sum to the profile total, or it is an error.
func groupTop(text string) (layerTable, error) {
	t := layerTable{Self: make(map[string]time.Duration, len(layers))}
	for _, l := range layers {
		t.Self[l] = 0
	}
	haveTotal, inRows := false, false
	var sum time.Duration
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !inRows {
			if m := topTotalRE.FindStringSubmatch(line); m != nil {
				d, err := parsePprofDuration(m[1])
				if err != nil {
					return t, fmt.Errorf("pprof total: %w", err)
				}
				t.Total, haveTotal = d, true
			}
			f := strings.Fields(line)
			inRows = len(f) > 0 && f[0] == "flat"
			continue
		}
		if strings.TrimSpace(line) == "" {
			continue
		}
		m := topRowRE.FindStringSubmatch(line)
		if m == nil {
			return t, fmt.Errorf("pprof row %q: unexpected format", line)
		}
		d, err := parsePprofDuration(m[1])
		if err != nil {
			return t, fmt.Errorf("pprof row %q: %w", line, err)
		}
		t.Self[layerOf(m[2])] += d
		sum += d
	}
	if err := sc.Err(); err != nil {
		return t, err
	}
	if !haveTotal || !inRows {
		return t, fmt.Errorf("pprof output has no total or no rows")
	}
	if sum != t.Total {
		return t, fmt.Errorf("pprof rows sum to %v, profile total is %v", sum, t.Total)
	}
	return t, nil
}

// parsePprofDuration parses a pprof time value such as "120ms", "1.5s"
// or "2.1mins".
func parsePprofDuration(s string) (time.Duration, error) {
	if s == "0" {
		return 0, nil
	}
	units := []struct {
		suffix string
		scale  float64
	}{
		{"mins", 60e9}, {"min", 60e9}, {"hrs", 3600e9}, {"hr", 3600e9},
		{"ns", 1}, {"us", 1e3}, {"µs", 1e3}, {"ms", 1e6}, {"s", 1e9},
	}
	for _, u := range units {
		if v, ok := strings.CutSuffix(s, u.suffix); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return 0, fmt.Errorf("duration %q: %w", s, err)
			}
			return time.Duration(f*u.scale + 0.5), nil
		}
	}
	return 0, fmt.Errorf("duration %q: unknown unit", s)
}

// profileLayers runs `go tool pprof -top` on a CPU profile and groups
// its self time by layer.
func profileLayers(profile string) (layerTable, error) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		return layerTable{}, fmt.Errorf("go tool pprof: %w", err)
	}
	out, err := exec.Command(goBin, "tool", "pprof", "-top", "-nodefraction=0", "-unit=ms", profile).Output()
	if err != nil {
		return layerTable{}, fmt.Errorf("go tool pprof: %w", err)
	}
	return groupTop(string(out))
}
