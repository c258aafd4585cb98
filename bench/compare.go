package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// spec is the part of BENCHMARK.json that -compare reads.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runCompare compares two directories of untraced result files, metric
// by metric, against the bounds in specPath. It returns 1 when a metric
// regressed or a sim_digest differs between runs of one seed.
func runCompare(dirA, dirB, specPath string, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", specPath, err)
		return 1
	}
	// side[s][workload][metric] holds side s's values.
	side := [2]map[string]map[string][]float64{{}, {}}
	digests := map[string]map[string]bool{} // "workload seed n" -> digests seen
	for s, dir := range []string{dirA, dirB} {
		rfs, err := loadResults(dir)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		for _, rf := range rfs {
			if side[s][rf.Workload] == nil {
				side[s][rf.Workload] = map[string][]float64{}
			}
			for name, mv := range rf.Metrics {
				side[s][rf.Workload][name] = append(side[s][rf.Workload][name], mv.Value)
			}
			key := fmt.Sprintf("%s seed %d", rf.Workload, rf.Seed)
			if digests[key] == nil {
				digests[key] = map[string]bool{}
			}
			digests[key][rf.SimDigest] = true
		}
	}

	bad := 0
	fmt.Fprintf(stdout, "%-13s %-12s %-32s %-32s %8s %7s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "spread", "verdict")
	for _, wl := range sortedKeys(mergeKeys(side[0], side[1])) {
		for _, m := range sp.EndToEnd {
			va, vb := side[0][wl][m.Name], side[1][wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(stdout, "%-13s %-12s missing on one side (A %d runs, B %d runs)\n", wl, m.Name, len(va), len(vb))
				continue
			}
			v := judge(va, vb, m.Better, m.Bound)
			if v.verdict == "regressed" {
				bad++
			}
			fmt.Fprintf(stdout, "%-13s %-12s %-32s %-32s %+7.1f%% %6.1f%%  %s (bound %.0f%%)\n",
				wl, m.Name, quartileText(va), quartileText(vb), 100*v.change, 100*v.spread, v.verdict, 100*m.Bound)
		}
	}
	for _, key := range sortedKeys(digests) {
		if len(digests[key]) > 1 {
			bad++
			fmt.Fprintf(stdout, "sim_digest mismatch: %s has %d different digests: %s\n", key, len(digests[key]), strings.Join(sortedKeys(digests[key]), ", "))
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// judgement is one (workload, metric) comparison.
type judgement struct {
	verdict string
	// change is how much worse B's median is than A's, as a share of A's.
	change float64
	// spread is the wider side's quartile distance as a share of its median.
	spread float64
}

// judge compares side B with side A. A metric is unresolved when either
// side's run-to-run spread exceeds the bound, unless every run of B reads
// better than every run of A; otherwise it regressed when B's median is
// worse than A's by more than the bound, and agrees when it is not.
func judge(a, b []float64, better string, bound float64) judgement {
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	j := judgement{change: ratio(mb-ma, ma), spread: max(ratio(q3a-q1a, ma), ratio(q3b-q1b, mb))}
	if better == "higher" {
		j.change = -j.change
	}
	switch {
	case j.spread > bound && !allBetter(a, b, better):
		j.verdict = "unresolved"
	case j.change > bound:
		j.verdict = "regressed"
	default:
		j.verdict = "agree"
	}
	return j
}

// allBetter reports whether every value of b is better than every value
// of a.
func allBetter(a, b []float64, better string) bool {
	for _, x := range a {
		for _, y := range b {
			if (better == "higher" && y <= x) || (better != "higher" && y >= x) {
				return false
			}
		}
	}
	return true
}

func quartileText(vs []float64) string {
	q1, m, q3 := quartiles(vs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", m, q1, q3, len(vs))
}

// loadResults reads every untraced result file in dir.
func loadResults(dir string) ([]resultFile, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []resultFile
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if rf.Workload == "" || rf.Trace {
			continue
		}
		out = append(out, rf)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no untraced result files", dir)
	}
	return out, nil
}

func mergeKeys[V any](a, b map[string]V) map[string]bool {
	out := map[string]bool{}
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}
