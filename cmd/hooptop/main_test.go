package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The fixtures live in testdata so telemetry's FuzzCellStream can seed
// from them too.
const (
	sampleTrace = "testdata/cells.jsonl"
	soakTrace   = "testdata/soak.jsonl"
)

func writeTrace(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSummarizesCells(t *testing.T) {
	var b strings.Builder
	if err := run([]string{sampleTrace}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, needle := range []string{
		"7 events in 2 cells",
		"matrix/hashmap-64/HOOP: 5 events",
		"matrix/hashmap-64/undo-log: 2 events",
		"tx_commit",
		"slice_write",
		"128 B",
		"commits/time",
	} {
		if !strings.Contains(out, needle) {
			t.Errorf("output missing %q:\n%s", needle, out)
		}
	}
}

func TestMarkerlessTraceIsOneCell(t *testing.T) {
	var b strings.Builder
	trace := `{"k":"tx_commit","t":10,"core":0}` + "\n"
	if err := run([]string{writeTrace(t, trace)}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "1 events in 1 cells") {
		t.Fatalf("markerless trace not collapsed into one cell:\n%s", b.String())
	}
}

func TestSoakSummary(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-soak", soakTrace}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, needle := range []string{
		"soak summary, 2 shards",
		"2 ring-routed requests",
		"shard-000", "shard-001",
		"fleet: 3 admitted, 1 shed (25.0%)",
	} {
		if !strings.Contains(out, needle) {
			t.Errorf("output missing %q:\n%s", needle, out)
		}
	}
	// shard-000's pre-arrival commit (t=500, latency 400ps — the preload)
	// must not count toward service latency: only the t>=1000 commits
	// (200ps, 300ps) do, so 400ps appears nowhere in the summary.
	if strings.Contains(out, "400ps") {
		t.Errorf("preload commit leaked into service latency:\n%s", out)
	}
}

func TestSoakRejectsNonSoakTrace(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-soak", sampleTrace}, &b)
	if err == nil || !strings.Contains(err.Error(), "no shard-") {
		t.Fatalf("non-soak trace accepted in -soak mode: %v", err)
	}
}

func TestRejectsBadLines(t *testing.T) {
	var b strings.Builder
	err := run([]string{writeTrace(t, `{"k":"no-such-kind","t":1}`+"\n")}, &b)
	if err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("bad event kind not rejected: %v", err)
	}
	err = run([]string{writeTrace(t, "not json\n")}, &b)
	if err == nil {
		t.Fatal("non-JSON line not rejected")
	}
}
