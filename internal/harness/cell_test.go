package harness

import (
	"fmt"
	"strings"
	"testing"

	"hoop/internal/cc"
	"hoop/internal/engine"
	"hoop/internal/telemetry"
	"hoop/internal/workload"
)

// quickWL builds a 64-byte workload on the shrunken working set the
// harness tests run (the sizing the deleted QuickTuning global used to
// install).
func quickWL(name string) workload.Workload {
	return workload.MustBuild(name, workload.Options{ValBytes: 64, Keys: 4096})
}

// TestCellLatencyHistogram: the window's latency histogram counts exactly
// the measured transactions (setup txs excluded), its mean matches
// LatencySum/Txs, its percentiles are ordered, and the phase breakdown
// counts one commit per measured transaction — for direct cells and for
// contention cells driven through the cc layer alike.
func TestCellLatencyHistogram(t *testing.T) {
	quick := Options{Quick: true, Seed: 3}
	cells := []Cell{
		{Scheme: engine.SchemeHOOP, Workload: quickWL("hashmap"), Txs: 300, Seed: 3},
		contentionPoint(engine.SchemeHOOP, cc.PolicyOCC, 0.9, 4, quick),
		contentionPoint(engine.SchemeRedo, cc.Policy2PL, 0.9, 4, quick),
	}
	metrics, _, err := RunCells(cells, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range metrics {
		name := fmt.Sprintf("%s on %s/%s", cells[i].Workload.Name, cells[i].Scheme, cells[i].Policy)
		if m.Txs != int64(cells[i].Txs) || m.Latency.Count() != m.Txs {
			t.Errorf("%s: latency histogram holds %d observations for %d txs, want %d", name, m.Latency.Count(), m.Txs, cells[i].Txs)
		}
		p50, p99 := m.LatencyQuantile(0.50), m.LatencyQuantile(0.99)
		if p50 <= 0 || p99 < p50 {
			t.Errorf("%s: percentiles out of order: p50=%v p99=%v", name, p50, p99)
		}
		if mean := m.Latency.Mean(); mean != m.AvgLatency() {
			t.Errorf("%s: histogram mean %v disagrees with LatencySum/Txs %v", name, mean, m.AvgLatency())
		}
		var commits int64
		for _, k := range m.Phases {
			if k.Kind == telemetry.KindTxCommit {
				commits = k.N
			}
		}
		if commits != m.Txs {
			t.Errorf("%s: %d commit events in the phase breakdown, want Txs = %d", name, commits, m.Txs)
		}
	}
}

func TestRunCellsPropagatesBuildErrors(t *testing.T) {
	cells := []Cell{{Scheme: "no-such-scheme", Workload: workload.QueueWL(64), Txs: 10, Seed: 1}}
	if _, _, err := RunCells(cells, 2); err == nil {
		t.Fatal("unknown scheme must fail")
	} else if !strings.Contains(err.Error(), "no-such-scheme") {
		t.Fatalf("error should name the scheme: %v", err)
	}
}

func TestRunCellsEmpty(t *testing.T) {
	mets, stats, err := RunCells(nil, 8)
	if err != nil || len(mets) != 0 || stats.Cells != 0 {
		t.Fatalf("empty batch: mets=%v stats=%+v err=%v", mets, stats, err)
	}
}

func TestWearOnRequiresQuiescer(t *testing.T) {
	if _, err := WearOn(Options{Quick: true, Seed: 1}, engine.SchemeNative); err == nil {
		t.Fatal("expected an error for a scheme without background migration")
	} else if !strings.Contains(err.Error(), "Quiescer") {
		t.Fatalf("error should name the missing capability, got: %v", err)
	}
}
