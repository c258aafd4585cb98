package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hoop/internal/engine"
	"hoop/internal/sim"
	"hoop/internal/telemetry"
)

// tiny returns fast CLI arguments: 2 shards, 2ms simulated, small tables.
func tiny(extra ...string) []string {
	args := []string{"-shards", "2", "-duration", "2ms", "-rate", "100000",
		"-keys", "512", "-val", "16"}
	return append(args, extra...)
}

func TestSoakSharded(t *testing.T) {
	var b strings.Builder
	if err := run(tiny(), &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, needle := range []string{
		"hoopd soak:", "route=sharded", "policy=block",
		"shard", "fleet: offered", "goodput", "sojourn (merged",
	} {
		if !strings.Contains(out, needle) {
			t.Errorf("output missing %q:\n%s", needle, out)
		}
	}
}

func TestSoakRingShed(t *testing.T) {
	var b strings.Builder
	err := run(tiny("-route", "ring", "-policy", "shed", "-sheddelay", "100us",
		"-mix", "mixed", "-arrivals", "bursty"), &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, needle := range []string{"route=ring", "policy=shed"} {
		if !strings.Contains(out, needle) {
			t.Errorf("output missing %q:\n%s", needle, out)
		}
	}
}

// TestEverySchemeServesRing opens a ring-routed fleet on each of the
// seven schemes: every fleet must serve the burst and print its report.
func TestEverySchemeServesRing(t *testing.T) {
	for _, scheme := range engine.AllSchemes {
		var b strings.Builder
		if err := run(tiny("-scheme", scheme, "-route", "ring"), &b); err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		out := b.String()
		for _, needle := range []string{"scheme=" + scheme + " ", "route=ring", "fleet: offered", "sojourn (merged"} {
			if !strings.Contains(out, needle) {
				t.Errorf("%s: output missing %q:\n%s", scheme, needle, out)
			}
		}
		if strings.Contains(out, "goodput 0/s") {
			t.Errorf("%s: fleet served nothing:\n%s", scheme, out)
		}
	}
}

func TestSoakTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "soak.jsonl")
	var b strings.Builder
	if err := run(tiny("-trace", path), &b); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var shard0 bool
	var enqueues int
	if err := telemetry.ReadCells(f, func(c telemetry.Cell) error {
		shard0 = shard0 || c.Label == "shard-000"
		for _, e := range c.Events {
			if e.Kind == telemetry.KindShardEnqueue {
				enqueues++
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !shard0 {
		t.Error("trace file has no shard-000 cell")
	}
	if enqueues == 0 {
		t.Error("trace file missing shard_enqueue events")
	}
}

func TestSweepMode(t *testing.T) {
	var b strings.Builder
	if err := run(tiny("-sweep", "-sweepsteps", "2"), &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "saturation throughput:") {
		t.Errorf("sweep output missing summary:\n%s", b.String())
	}
}

// TestShardZeroInvariantAcrossShardCounts is the CLI-level determinism
// lock: in the default sharded route mode, shard 0's report line is
// identical between -shards 1 and -shards 3 runs of the same seed.
func TestShardZeroInvariantAcrossShardCounts(t *testing.T) {
	shardLine := func(shards string) string {
		var b strings.Builder
		args := []string{"-shards", shards, "-duration", "2ms", "-rate", "100000",
			"-keys", "512", "-val", "16", "-seed", "42"}
		if err := run(args, &b); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(b.String(), "\n") {
			if strings.HasPrefix(line, "0 ") {
				return line
			}
		}
		t.Fatalf("no shard 0 line in output:\n%s", b.String())
		return ""
	}
	one, three := shardLine("1"), shardLine("3")
	if one != three {
		t.Errorf("shard 0 differs across shard counts:\n-shards 1: %s\n-shards 3: %s", one, three)
	}
}

// TestOutputDeterminism: two identical invocations print identical reports.
func TestOutputDeterminism(t *testing.T) {
	strip := func(s string) string {
		// The wall-clock line is real time; drop it.
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if !strings.HasPrefix(line, "wall-clock:") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	gen := func() string {
		var b strings.Builder
		if err := run(tiny("-mix", "read-heavy"), &b); err != nil {
			t.Fatal(err)
		}
		return strip(b.String())
	}
	if a, b := gen(), gen(); a != b {
		t.Errorf("identical runs printed different reports:\n%s\n----\n%s", a, b)
	}
}

func TestBadFlags(t *testing.T) {
	cases := [][]string{
		{"-route", "nope"},
		{"-policy", "nope"},
		{"-mix", "nope"},
		{"-arrivals", "nope"},
		{"-duration", "0s"},
		{"-duration", "bogus"},
		{"-shards", "0"},
		{"extra-arg"},
	}
	for _, args := range cases {
		var b strings.Builder
		if err := run(args, &b); err == nil {
			t.Errorf("args %v: run succeeded, want error", args)
		}
	}
}

func TestParseSimDuration(t *testing.T) {
	d, err := parseSimDuration("1ms")
	if err != nil {
		t.Fatal(err)
	}
	if d != sim.Millisecond {
		t.Fatalf("1ms parsed as %v", d)
	}
	if _, err := parseSimDuration("-5ms"); err == nil {
		t.Fatal("negative duration accepted")
	}
}
