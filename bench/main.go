// Command bench is the repository benchmark. It runs one workload of the
// simulator for a fixed host-time window, checks every simulated output,
// and prints each metric as `name value unit`, then one JSON result line.
//
// Run it from the repository root, through bench/run.sh, which builds it:
//
//	bash bench/run.sh -workload paper-matrix -seed 1 -seconds 16 -trace 0
//	bash bench/run.sh -workload kv-soak -seed 7 -seconds 16 -trace 1
//	bash bench/run.sh -compare <dirA> <dirB>
//
// With -trace 0 the result holds the end-to-end metrics; with -trace 1 the
// second half of the window runs under the CPU profiler and the result
// holds the per-layer metrics. BENCHMARK.json lists both sets, and
// bench/README.md explains the workloads and what each metric shows.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultFile is what -o writes: the result with the run's identity.
type resultFile struct {
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Trace     bool   `json:"trace"`
	SimDigest string `json:"sim_digest"`
	result
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (paper-matrix, sweeps, contention, kv-soak)")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 16, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 profiles the second half of the window and reports per-layer metrics")
	outFile := fs.String("o", "", "also write the result and its sim_digest to this JSON file")
	compare := fs.Bool("compare", false, "compare two directories of -o result files: -compare <dirA> <dirB>")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result directories")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), "BENCHMARK.json", stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "bench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "bench: -seconds must be positive, got %v\n", *seconds)
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	// Paths are relative to the repository root, where run.sh runs the
	// program; .bench_build is also where run.sh builds it.
	cfg := config{seed: *seed, workDir: ".bench_build", goldenDir: filepath.Join("internal", "harness", "testdata")}
	window := time.Duration(*seconds * float64(time.Second))
	rf, err := benchmark(w, cfg, window, *trace == 1, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if *outFile != "" {
		data, err := json.MarshalIndent(rf, "", "  ")
		if err == nil {
			err = os.WriteFile(*outFile, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: -o: %v\n", err)
			return 1
		}
	}
	return 0
}

// benchmark measures workload w and prints its metrics and result line.
func benchmark(w *workloadDef, cfg config, window time.Duration, traced bool, stdout, stderr io.Writer) (*resultFile, error) {
	ck := &checker{}
	var prof *os.File
	var profPath string
	var profOut io.Writer // stays a nil interface when untraced
	if traced {
		dir := filepath.Join(cfg.workDir, "trace")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		profPath = filepath.Join(dir, w.name+".pprof")
		var err error
		if prof, err = os.Create(profPath); err != nil {
			return nil, err
		}
		defer prof.Close()
		profOut = prof
	}
	res, err := measure(w, cfg, window, profOut, ck, stderr)
	if err != nil {
		return nil, err
	}

	defs, values := endToEndMetrics, map[string]float64(nil)
	var p *profile
	if !traced {
		values = endToEnd(res)
	} else {
		if err := prof.Close(); err != nil {
			return nil, err
		}
		top, err := pprofTop(profPath)
		if err != nil {
			return nil, err
		}
		if p, err = foldTop(top); err != nil {
			return nil, err
		}
		defs, values = perLayerMetrics, perLayer(res, p)
		if err := writeLayers(filepath.Join(cfg.workDir, "trace", w.name+".layers.json"), p, values); err != nil {
			return nil, err
		}
	}

	simDigest := digest(res.ref.text)
	fmt.Fprintf(stdout, "workload %s\nseed %d\n", w.name, cfg.seed)
	fmt.Fprintf(stdout, "sim_digest %s\n", simDigest)
	fmt.Fprintf(stdout, "setups %d count\nunits %d count\n", len(res.setup), len(res.untraced)+len(res.traced))
	fmt.Fprintf(stdout, "error_rate %s fraction (%d of %d checks failed)\n", num(ck.errorRate()), ck.failed, ck.attempted)
	for _, f := range ck.failures {
		fmt.Fprintf(stderr, "bench: check failed: %s\n", f)
	}
	r := result{Correct: ck.failed == 0, Attempted: ck.attempted, Failed: ck.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := values[d.name]
		if !finite(v) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		share := ""
		if l, ok := strings.CutSuffix(d.name, ".self_s"); ok && isLayer(l) {
			share = fmt.Sprintf(" (%.1f%%)", 100*ratio(v, p.total))
		}
		fmt.Fprintf(stdout, "%s %s %s%s\n", d.name, num(v), d.unit, share)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return &resultFile{Workload: w.name, Seed: cfg.seed, Trace: traced, SimDigest: simDigest, result: r}, nil
}

// writeLayers writes the traced run's per-layer account.
func writeLayers(path string, p *profile, values map[string]float64) error {
	type layer struct {
		SelfS float64 `json:"self_s"`
		Share float64 `json:"share"`
	}
	doc := struct {
		TotalS  float64            `json:"total_s"`
		Layers  map[string]layer   `json:"layers"`
		Metrics map[string]float64 `json:"metrics"`
	}{p.total, map[string]layer{}, values}
	for _, l := range layers {
		doc.Layers[l] = layer{p.self[l], ratio(p.self[l], p.total)}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// num formats a metric value with all its digits.
func num(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
