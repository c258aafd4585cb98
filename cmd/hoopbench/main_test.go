package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestProfilesSurviveErrorExit: an unknown section fails after profiling
// has started, and both profiles are still written in full.
func TestProfilesSurviveErrorExit(t *testing.T) {
	dir := t.TempDir()
	cpu, heap := filepath.Join(dir, "c.pprof"), filepath.Join(dir, "m.pprof")
	err := run([]string{"-sections", "nosuch", "-cpuprofile", cpu, "-memprofile", heap}, io.Discard)
	if !errors.As(err, new(usageError)) {
		t.Fatalf("run = %v, want a usage error", err)
	}
	for _, p := range []string{cpu, heap} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v, want a non-empty profile", filepath.Base(p), err)
		}
	}
}

// TestUsageErrors: bad command lines are usage errors (exit status 2).
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-nosuchflag"},
		{"-cachestats"},
		{"-workloads", "nosuch"},
	} {
		if err := run(args, io.Discard); !errors.As(err, new(usageError)) {
			t.Errorf("run(%q) = %v, want a usage error", args, err)
		}
	}
}
