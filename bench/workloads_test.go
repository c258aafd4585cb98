package main

import (
	"encoding/json"
	"os"
	"testing"

	"hoop/internal/sim"
)

// TestKVSoakDeterministic runs the kv-soak unit at 1 ms of simulated time
// twice on fresh fleets: both must conserve requests and render the same.
func TestKVSoakDeterministic(t *testing.T) {
	ck := &checker{}
	soak := func() output {
		k, err := openKV(1, poolSize, sim.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		defer k.close()
		if err := k.run(&tracer{}); err != nil {
			t.Fatal(err)
		}
		return k.report(ck)
	}
	a, b := soak(), soak()
	if ck.failed != 0 {
		t.Fatalf("%d of %d checks failed: %v", ck.failed, ck.attempted, ck.failures)
	}
	if a.text != b.text {
		t.Fatalf("two soaks of one seed differ:\n%s\n%s", a.text, b.text)
	}
	if a.counts.requests == 0 || a.counts.txs != a.counts.requests {
		t.Errorf("soak executed %d requests as %d transactions, want equal and non-zero", a.counts.requests, a.counts.txs)
	}
}

// TestBenchmarkJSONListsMetrics holds BENCHMARK.json to the metrics the
// program reports.
func TestBenchmarkJSONListsMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if len(names) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, names[i], want[i])
		}
	}
	for _, set := range []struct {
		json []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{doc.EndToEnd, endToEndMetrics}, {doc.PerLayer, perLayerMetrics}} {
		if len(set.json) != len(set.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, program reports %d", len(set.json), len(set.defs))
			continue
		}
		for i, d := range set.defs {
			if j := set.json[i]; j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
				t.Errorf("metric %d: BENCHMARK.json %+v, program %+v", i, j, d)
			}
		}
	}
}
