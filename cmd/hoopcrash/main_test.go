package main

import (
	"strings"
	"testing"
)

func TestRunExhaustiveSingleScheme(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-scheme", "Opt-Redo", "-txs", "4"}, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "Opt-Redo") || !strings.Contains(out.String(), "ok") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
}

func TestRunRandomAllSchemes(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-mode", "random", "-seeds", "3", "-txs", "4"}, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	for _, s := range []string{"HOOP", "Opt-Redo", "Opt-Undo", "OSP", "LSM", "LAD", "Ideal"} {
		if !strings.Contains(out.String(), s) {
			t.Fatalf("missing scheme %s in output:\n%s", s, out.String())
		}
	}
}

// TestRunBuggySchemeFails checks the CLI surfaces violations: driving the
// deliberately-broken scheme must exit with an error and print a repro line.
func TestRunBuggySchemeFails(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-scheme", "Buggy-CommitFirst"}, &out)
	if err == nil {
		t.Fatalf("expected failure for the buggy scheme, got success:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL") || !strings.Contains(out.String(), "repro:") {
		t.Fatalf("violation output missing FAIL/repro:\n%s", out.String())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-scheme", "NoSuch"}, &out); err == nil {
		t.Fatal("expected error for unknown scheme")
	}
	if err := run([]string{"-mode", "sideways"}, &out); err == nil {
		t.Fatal("expected error for unknown mode")
	}
	// Counts below 1 and stray arguments would otherwise check nothing
	// and still report ok.
	for _, args := range [][]string{
		{"-mode", "random", "-seeds", "-3"},
		{"-mode", "random", "-seeds", "0"},
		{"-mode", "exhaustive", "-txs", "0"},
		{"-words", "0"},
		{"-pool", "-1"},
		{"-cores", "0"},
		{"-workloads", "ycsb-a", "-smoketxs", "0"},
		{"-abortevery", "-1"},
		{"-scheme", "HOOP", "extra"},
	} {
		out.Reset()
		if err := run(args, &out); err == nil {
			t.Errorf("run(%q) succeeded:\n%s", args, out.String())
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) printed before rejecting:\n%s", args, out.String())
		}
	}
}
