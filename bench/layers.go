package main

import (
	"fmt"
	"math"
	"os/exec"
	"strconv"
	"strings"
)

// layers are the buckets a CPU profile folds into: the simulator's
// packages, one per persistence scheme, the benchmark itself, the Go
// runtime, and everything else in the standard library.
var layers = []string{
	"mem", "nvm", "cache", "memctrl", "persist", "hoop", "engine",
	"baseline.lsm", "baseline.redo", "baseline.undo", "baseline.osp",
	"baseline.lad", "baseline.logring", "baseline.native",
	"cc", "trace", "workload", "structures", "skiplist", "nstore", "pmem",
	"u64map", "telemetry", "sim", "harness", "service", "loadgen",
	"bench", "runtime", "stdlib",
}

// runtimeCum names the runtime activities reported from cumulative
// profile time, each as the functions whose cum time it sums.
var runtimeCum = []struct {
	metric string
	funcs  []string
}{
	{"runtime.gc_s", []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc"}},
	{"runtime.malloc_s", []string{"runtime.mallocgc"}},
	{"runtime.chan_s", []string{"runtime.chansend", "runtime.chanrecv", "runtime.selectgo"}},
}

// profile is a CPU profile folded by layer.
type profile struct {
	// total is the folded samples' CPU time in seconds, from the header.
	total float64
	// self is each layer's CPU seconds whose leaf frame is in it.
	self map[string]float64
	// cum is each function's cumulative CPU seconds.
	cum map[string]float64
}

// pprofTop renders a CPU profile as text with every node listed, leaving
// out the samples taken between units.
func pprofTop(path string) (string, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", "-tagignore="+labelKey+"="+betweenUnitsLabel, path).Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return "", fmt.Errorf("go tool pprof: %v: %s", err, ee.Stderr)
		}
		return "", fmt.Errorf("go tool pprof: %w", err)
	}
	return string(out), nil
}

// foldTop folds `go tool pprof -top` output by layer.
func foldTop(text string) (*profile, error) {
	p := &profile{total: -1, self: map[string]float64{}, cum: map[string]float64{}}
	for _, line := range strings.Split(text, "\n") {
		// "Showing nodes accounting for 1.48s, 75.90% of 1.95s total": the
		// first figure is what the listed nodes hold once -tagignore has
		// dropped samples; the header's "Total samples" still counts them.
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "Showing nodes accounting for "); ok {
			total, _, _ := strings.Cut(rest, ",")
			secs, err := parseSeconds(total)
			if err != nil {
				return nil, fmt.Errorf("pprof header %q: %w", line, err)
			}
			p.total = secs
			continue
		}
		cols, name := cutFields(line, 5)
		if name == "" || !strings.HasSuffix(cols[1], "%") {
			continue
		}
		flat, err1 := parseSeconds(cols[0])
		cum, err2 := parseSeconds(cols[3])
		if err1 != nil || err2 != nil {
			continue // a header row
		}
		name = strings.TrimSuffix(name, " (inline)")
		p.self[layerOf(name)] += flat
		p.cum[name] += cum
	}
	if p.total < 0 {
		return nil, fmt.Errorf("pprof output has no \"Showing nodes\" header")
	}
	for _, m := range []map[string]float64{p.self, p.cum} {
		for k, v := range m {
			m[k] = roundMicro(v)
		}
	}
	return p, nil
}

// roundMicro rounds a sum of pprof's decimal seconds back to the
// microsecond, dropping the float error the sum carries.
func roundMicro(s float64) float64 { return math.Round(s*1e6) / 1e6 }

// cutFields splits off the first n whitespace-separated fields of line
// and returns them with the rest of the line, which keeps its inner
// spaces: generic function names such as
// u64map.(*Map[go.shape.struct {}]).Ref contain them.
func cutFields(line string, n int) ([]string, string) {
	var cols []string
	rest := line
	for len(cols) < n {
		rest = strings.TrimLeft(rest, " \t")
		i := strings.IndexAny(rest, " \t")
		if i < 0 {
			return nil, ""
		}
		cols = append(cols, rest[:i])
		rest = rest[i:]
	}
	return cols, strings.TrimSpace(rest)
}

// parseSeconds reads a pprof time value such as 0, 50ms, 3.57s or 1.2mins.
func parseSeconds(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{
		{"mins", 60}, {"hrs", 3600}, {"ms", 1e-3}, {"us", 1e-6}, {"µs", 1e-6}, {"ns", 1e-9}, {"s", 1},
	}
	scale := 1.0
	for _, u := range units {
		if v, ok := strings.CutSuffix(s, u.suffix); ok {
			s, scale = v, u.scale
			break
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad pprof time %q", s)
	}
	return v * scale, nil
}

// layerOf maps a profiled function to its layer.
func layerOf(fn string) string {
	pkg := packageOf(strings.TrimPrefix(fn, "type:.eq."))
	switch {
	case pkg == "main":
		return "bench"
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/internal/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "hoop/internal/baseline/"):
		name, _, _ := strings.Cut(strings.TrimPrefix(pkg, "hoop/internal/baseline/"), "/")
		if l := "baseline." + name; isLayer(l) {
			return l
		}
	case strings.HasPrefix(pkg, "hoop/internal/"):
		name, _, _ := strings.Cut(strings.TrimPrefix(pkg, "hoop/internal/"), "/")
		if isLayer(name) {
			return name
		}
	}
	return "stdlib"
}

// packageOf extracts the import path from a function name such as
// hoop/internal/cache.(*level).lookup. Receiver types and generic
// arguments, which may hold other import paths, follow the package.
func packageOf(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "([ "); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndex(head, "/")
	if dot := strings.Index(head[slash+1:], "."); dot >= 0 {
		return head[:slash+1+dot]
	}
	return head
}

func isLayer(name string) bool {
	for _, l := range layers {
		if l == name {
			return true
		}
	}
	return false
}
