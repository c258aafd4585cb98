package clihelp

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hoop/internal/engine"
	"hoop/internal/telemetry"
)

func TestRegisterBlocks(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	c := Common{Scheme: engine.SchemeHOOP, Seed: 1}
	c.Register(fs, FlagScheme, FlagSeed, FlagWorkers, FlagTrace, FlagProfile)
	err := fs.Parse([]string{
		"-scheme", engine.SchemeRedo, "-seed", "7", "-workers", "3", "-trace", "x.jsonl",
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Scheme != engine.SchemeRedo || c.Seed != 7 || c.Workers != 3 || c.Trace != "x.jsonl" {
		t.Fatalf("parsed values wrong: %+v", c)
	}
	if fs.Lookup("cpuprofile") == nil || fs.Lookup("memprofile") == nil {
		t.Fatal("profile block did not register both flags")
	}
}

func TestRegisterUnknownBlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown block")
		}
	}()
	c := Common{}
	c.Register(flag.NewFlagSet("t", flag.ContinueOnError), "no-such-block")
}

func TestEffectiveWorkers(t *testing.T) {
	c := Common{Workers: 5}
	if c.EffectiveWorkers() != 5 {
		t.Fatal("explicit workers ignored")
	}
	c.Workers = 0
	if c.EffectiveWorkers() < 1 {
		t.Fatal("default workers must be positive")
	}
}

func TestOpenTraceUnsetIsNil(t *testing.T) {
	c := Common{}
	tf, err := c.OpenTrace()
	if err != nil || tf != nil {
		t.Fatalf("unset -trace: got (%v, %v), want (nil, nil)", tf, err)
	}
	// The nil TraceFile must be safe to close.
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenTraceWritesEvents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.jsonl")
	c := Common{Trace: path}
	tf, err := c.OpenTrace()
	if err != nil {
		t.Fatal(err)
	}
	tf.Sink.Emit(telemetry.Event{Kind: telemetry.KindGCStart, Core: -1, Aux: 3})
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"k":"gc_start"`) {
		t.Fatalf("trace file missing event: %q", data)
	}
}

func TestFindWorkload(t *testing.T) {
	names := WorkloadNames()
	if len(names) == 0 {
		t.Fatal("no workloads")
	}
	w, ok := FindWorkload(names[0])
	if !ok || w.Name != names[0] {
		t.Fatalf("FindWorkload(%q) = %v, %v", names[0], w.Name, ok)
	}
	if _, ok := FindWorkload("no-such-workload"); ok {
		t.Fatal("found a workload that does not exist")
	}
}
