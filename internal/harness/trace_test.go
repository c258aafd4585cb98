package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hoop/internal/engine"
	"hoop/internal/telemetry"
	"hoop/internal/workload"
)

// runTraced runs a section with a cell trace keeping the kinds in mask
// attached and returns the combined JSONL output.
func runTraced(t *testing.T, opts Options, mask telemetry.Mask, section func(Options) error) []byte {
	t.Helper()
	tc := &telemetry.CellTrace{Mask: mask}
	opts.Trace = tc
	if err := section(opts); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tc.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runTracedMatrix runs a small seeded Figure-7a matrix traced and returns
// the combined JSONL output.
func runTracedMatrix(t *testing.T, workers int, mask telemetry.Mask, schemes []string) []byte {
	t.Helper()
	return runTraced(t, Options{Quick: true, Seed: 1, Workers: workers}, mask, func(o Options) error {
		_, err := RunMatrixOn(o, []workload.Workload{workload.HashMapWL(64)}, schemes)
		return err
	})
}

// traceLabels splits a combined trace into cells and returns their labels
// and the total event count.
func traceLabels(t *testing.T, trace []byte) (labels []string, events int) {
	t.Helper()
	if err := telemetry.ReadCells(bytes.NewReader(trace), func(c telemetry.Cell) error {
		labels = append(labels, c.Label)
		events += len(c.Events)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return labels, events
}

// TestTraceIdenticalAcrossWorkerCounts locks the cell trace's core
// guarantee: the combined JSONL trace is byte-identical for every pool
// worker count, because each cell's stream depends only on its seed and
// cells are concatenated in construction order. Runs under -race in CI.
func TestTraceIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several quick cells")
	}
	schemes := []string{engine.SchemeHOOP, engine.SchemeUndo}
	serial := runTracedMatrix(t, 1, telemetry.MaskTrace, schemes)
	parallel := runTracedMatrix(t, 4, telemetry.MaskTrace, schemes)
	if len(serial) == 0 {
		t.Fatal("trace is empty")
	}
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("trace differs between 1 and 4 workers: %d vs %d bytes",
			len(serial), len(parallel))
	}
	// Every non-marker line must decode as an event.
	if _, events := traceLabels(t, serial); events == 0 {
		t.Fatal("trace holds no events")
	}
}

// checkSectionLabels asserts that a traced section wrote the given number
// of cells and some events, every cell labelled under the section's own
// name and one of them labelled has.
func checkSectionLabels(t *testing.T, trace []byte, section string, cells int, has string) {
	t.Helper()
	labels, events := traceLabels(t, trace)
	if len(labels) != cells || events == 0 {
		t.Errorf("%s: %d cells with %d events, want %d cells with events", section, len(labels), events, cells)
	}
	found := false
	for _, l := range labels {
		if !strings.HasPrefix(l, section+"/") {
			t.Errorf("%s: cell labelled %q", section, l)
		}
		found = found || l == has
	}
	if !found {
		t.Errorf("%s: no cell labelled %q in %v", section, has, labels)
	}
}

// TestTraceLabelsNameTheirSection checks that a sweep, which runs through
// the shared matrix pipeline, labels its cells with its own section
// rather than claiming to be a Figure 7-9 cell. The contention section's
// labels are checked by TestContentionFigureWorkerDeterminism.
func TestTraceLabelsNameTheirSection(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick scan sweep")
	}
	trace := runTraced(t, Options{Quick: true, Seed: 1, Workers: 2}, 0, func(o Options) error {
		_, err := SweepScanFrac(o)
		return err
	})
	checkSectionLabels(t, trace, "sweep-scan",
		len(workload.ScanSweepSuite(workload.Options{}))*len(engine.AllSchemes), "sweep-scan/scan00-64/Opt-Redo")
}

// TestGoldenFig7aTrace locks a seeded quick-mode Figure-7a HOOP cell's
// mechanism-event trace (GC epochs, mapping-table evictions, recovery) to
// a checked-in golden JSONL file. Any change to when the simulated
// machine garbage-collects or evicts — intended or not — shows up as a
// diff here. Regenerate deliberately with:
//
//	go test ./internal/harness -run TestGoldenFig7aTrace -update
func TestGoldenFig7aTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run is seconds-long")
	}
	mask := telemetry.MaskOf(telemetry.KindGCStart, telemetry.KindGCEnd,
		telemetry.KindMapEvict, telemetry.KindRecovery)
	got := runTracedMatrix(t, 2, mask, []string{engine.SchemeHOOP})

	path := filepath.Join("testdata", "fig7a_hoop_trace.golden.jsonl")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("telemetry trace diverged from golden %s (%d vs %d bytes).\nIf a simulation-model change is intentional, regenerate with -update.",
			path, len(got), len(want))
	}
}
