package main

import (
	"fmt"
	"strings"
	"testing"

	"hoop/internal/clihelp"
	"hoop/internal/engine"
	"hoop/internal/harness"
)

func TestRunSmallWorkload(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-workload", "hashmap-64", "-txs", "200", "-threads", "2"}, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{"scheme=HOOP", "results over 200 transactions", "throughput", "NVM bytes written"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunStatsDump(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-scheme", "Ideal", "-txs", "50", "-threads", "1", "-stats"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "counters:") {
		t.Fatalf("missing counter dump:\n%s", out.String())
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-workload", "no-such-workload"}, &out)
	if err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Fatalf("expected unknown-workload error, got %v", err)
	}
	if !strings.Contains(err.Error(), "hashmap-64") {
		t.Fatalf("error should list available workloads, got %v", err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-txs", "-5"},
		{"-txs", "0"},
		{"-threads", "0"},
		{"-workload", "tpcc", "extra"},
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("run(%q) succeeded:\n%s", args, out.String())
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) printed before rejecting:\n%s", args, out.String())
		}
	}
}

// TestRunMatchesHarnessCell: hoopsim's numbers are the harness cell's
// numbers — the same quiesced window hoopbench measures for the same
// (scheme, workload, txs, threads).
func TestRunMatchesHarnessCell(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-workload", "hashmap-64", "-txs", "200", "-threads", "2"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	wl, ok := clihelp.FindWorkload("hashmap-64")
	if !ok {
		t.Fatal("hashmap-64 not registered")
	}
	cell := harness.Cell{Scheme: engine.SchemeHOOP, Workload: wl, Txs: 200, Seed: 1,
		Mut: func(cfg *engine.Config) { cfg.Threads = 2 }}
	mets, _, err := harness.RunCells([]harness.Cell{cell}, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := mets[0]
	for _, want := range []string{
		fmt.Sprintf("  throughput         %.3f M tx/s\n", m.Throughput()/1e6),
		fmt.Sprintf("  NVM bytes written  %d (%.0f per tx)\n", m.BytesWritten, m.WritesPerTx()),
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("hoopsim output lacks the harness cell's line %q:\n%s", want, out.String())
		}
	}
}
