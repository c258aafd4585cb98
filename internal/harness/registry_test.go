package harness

import (
	"reflect"
	"testing"

	"hoop/internal/crashtest"
	"hoop/internal/engine"
	"hoop/internal/workload"
)

// TestRegistryRoundTrip builds every registered workload by name and holds
// each to the record/replay equivalence property on all seven schemes:
// capture on the first scheme, replay everywhere, and compare both the
// Metrics window and the final durable image against direct execution.
// This is the registry's contract with the matrix pipeline — anything
// Register'd is matrix-safe, including the scan ops of YCSB-E and the
// abort-injecting read-modify-writes of YCSB-F.
func TestRegistryRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every registered workload on every scheme")
	}
	const txs = 60
	small := workload.Options{Keys: 256}
	for _, name := range workload.Registered() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			wl, err := workload.Build(name, small)
			if err != nil {
				t.Fatal(err)
			}
			capCell := Cell{Scheme: engine.AllSchemes[0], Workload: wl, Txs: txs, Seed: 5, Mut: smallMut}
			capMet, col, _, err := captureCellRun(capCell)
			if err != nil {
				t.Fatalf("capture: %v", err)
			}
			for _, scheme := range engine.AllSchemes {
				cell := Cell{Scheme: scheme, Workload: wl, Txs: txs, Seed: 5, Mut: smallMut}
				directSys, err := buildSystem(scheme, cell.mut())
				if err != nil {
					t.Fatal(err)
				}
				runners := wl.Runners(directSys, cell.Seed)
				directMet := measureWindow(directSys, txs, nil, func(n int) { directSys.Run(runners, n) })
				repMet, repSys, err := replayCellRun(cell, col)
				if err != nil {
					t.Fatalf("%s: replay: %v", scheme, err)
				}
				if !reflect.DeepEqual(directMet, repMet) {
					t.Errorf("%s: replay metrics diverge\ndirect: %+v\nreplay: %+v", scheme, directMet, repMet)
				}
				if !storesEqual(directSys.Durable(), repSys.Durable()) {
					t.Errorf("%s: replay durable image diverges from direct execution", scheme)
				}
				if scheme == capCell.Scheme && !reflect.DeepEqual(directMet, capMet) {
					t.Errorf("capture metrics diverge from direct\ndirect: %+v\ncapture: %+v", directMet, capMet)
				}
			}
		})
	}
}

// TestRegistrySmokeYCSBEF is the crash smoke the ISSUE calls out by name:
// YCSB-E (range scans) and YCSB-F (read-modify-write with injected aborts)
// survive a mid-stream crash on every persistent scheme. The full
// per-scheme coverage lives in cmd/hoopcrash -suite ycsb.
func TestRegistrySmokeYCSBEF(t *testing.T) {
	if testing.Short() {
		t.Skip("crash+recover on every scheme")
	}
	for _, name := range []string{"ycsb-e", "ycsb-f"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			wl := workload.MustBuild(name, workload.Options{Keys: 256})
			for _, scheme := range engine.AllSchemes {
				if scheme == engine.SchemeNative {
					continue // no persistence guarantee to verify
				}
				if err := crashtest.Smoke(scheme, wl, 5, 300); err != nil {
					t.Error(err)
				}
			}
		})
	}
}
