// Package clihelp is the flag scaffolding shared by the cmd/* mains: the
// -scheme/-seed/-workers selection flags, the -trace JSONL telemetry sink,
// the -cpuprofile/-memprofile pair, and workload lookup. Keeping the
// spellings and help text here means every command exposes the same
// vocabulary for the same concept.
package clihelp

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"hoop/internal/engine"
	"hoop/internal/telemetry"
	"hoop/internal/workload"
)

// Flag-block names accepted by Register.
const (
	FlagScheme    = "scheme"
	FlagSeed      = "seed"
	FlagWorkers   = "workers"
	FlagTrace     = "trace"
	FlagProfile   = "profile"   // registers -cpuprofile and -memprofile
	FlagWorkloads = "workloads" // registers -workloads and -suite
)

// Common holds the shared flag values. Set a field before Register to
// change that flag's default.
type Common struct {
	Scheme     string
	Seed       uint64
	Workers    int
	Trace      string
	CPUProfile string
	MemProfile string
	// Workloads is a comma-separated list of registry workload names;
	// Suite names a predefined suite. ResolveSuite builds either into
	// workloads.
	Workloads string
	Suite     string
}

// Register adds the requested flag blocks to fs.
func (c *Common) Register(fs *flag.FlagSet, blocks ...string) {
	for _, b := range blocks {
		switch b {
		case FlagScheme:
			fs.StringVar(&c.Scheme, FlagScheme, c.Scheme,
				"persistence scheme ("+strings.Join(engine.AllSchemes, ", ")+")")
		case FlagSeed:
			fs.Uint64Var(&c.Seed, FlagSeed, c.Seed, "PRNG seed (same seed, same simulated run)")
		case FlagWorkers:
			fs.IntVar(&c.Workers, FlagWorkers, c.Workers,
				"simulation cells run concurrently (0 = GOMAXPROCS); results are identical for every value")
		case FlagTrace:
			fs.StringVar(&c.Trace, FlagTrace, c.Trace,
				"write a JSONL telemetry trace to this file (summarize with hooptop)")
		case FlagProfile:
			fs.StringVar(&c.CPUProfile, "cpuprofile", c.CPUProfile, "write a CPU profile of the run to this file")
			fs.StringVar(&c.MemProfile, "memprofile", c.MemProfile, "write a heap profile taken at exit to this file")
		case FlagWorkloads:
			fs.StringVar(&c.Workloads, FlagWorkloads, c.Workloads,
				"comma-separated workload names ("+strings.Join(workload.Registered(), ", ")+")")
			fs.StringVar(&c.Suite, "suite", c.Suite,
				"workload suite ("+strings.Join(workload.SuiteNames(), ", ")+")")
		default:
			panic("clihelp: unknown flag block " + b)
		}
	}
}

// CheckArgs rejects positional arguments left after fs.Parse and any of
// the named int flags set below 1: every count a command takes must name
// at least one thing to do.
func CheckArgs(fs *flag.FlagSet, counts ...string) error {
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	for _, name := range counts {
		if v := fs.Lookup(name).Value.(flag.Getter).Get().(int); v < 1 {
			return fmt.Errorf("-%s must be at least 1, got %d", name, v)
		}
	}
	return nil
}

// EffectiveWorkers resolves the worker count (<= 0 means GOMAXPROCS).
func (c *Common) EffectiveWorkers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// StartProfiles begins CPU profiling if -cpuprofile was given. The
// returned stop function must run at process exit (defer it); it finishes
// the CPU profile and writes the -memprofile heap snapshot.
func (c *Common) StartProfiles() (stop func(), err error) {
	var cpuFile *os.File
	if c.CPUProfile != "" {
		cpuFile, err = os.Create(c.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if c.MemProfile != "" {
			f, err := os.Create(c.MemProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "-memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "-memprofile: %v\n", err)
			}
		}
	}, nil
}

// TraceFile is an opened -trace destination: a JSONL sink over a file.
type TraceFile struct {
	Sink *telemetry.JSONLSink
	f    *os.File
}

// OpenTrace opens the -trace path; (nil, nil) when the flag is unset. A
// nil *TraceFile is valid for Close, so callers need no guard.
func (c *Common) OpenTrace() (*TraceFile, error) {
	if c.Trace == "" {
		return nil, nil
	}
	f, err := os.Create(c.Trace)
	if err != nil {
		return nil, fmt.Errorf("-trace: %w", err)
	}
	return &TraceFile{Sink: telemetry.NewJSONLSink(f), f: f}, nil
}

// Close flushes the sink and closes the file.
func (t *TraceFile) Close() error {
	if t == nil {
		return nil
	}
	if err := t.Sink.Flush(); err != nil {
		t.f.Close()
		return err
	}
	return t.f.Close()
}

// ResolveSuite builds the workloads selected by -workloads/-suite, each
// with base overlaid on its defaults. (nil, nil) when neither flag was
// given, so the caller keeps its default suite; an explicit -workloads
// list wins over -suite.
func (c *Common) ResolveSuite(base workload.Options) ([]workload.Workload, error) {
	if c.Workloads != "" {
		var wls []workload.Workload
		for _, name := range strings.Split(c.Workloads, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			w, err := workload.Build(name, base)
			if err != nil {
				return nil, fmt.Errorf("-workloads: %w", err)
			}
			wls = append(wls, w)
		}
		if len(wls) == 0 {
			return nil, fmt.Errorf("-workloads: no workload names given")
		}
		return wls, nil
	}
	if c.Suite != "" {
		wls, err := workload.Suite(c.Suite, base)
		if err != nil {
			return nil, fmt.Errorf("-suite: %w", err)
		}
		return wls, nil
	}
	return nil, nil
}

// suiteWorkloads is the display set FindWorkload searches first: the
// paper matrix plus the 1 KB-item variants, under default options.
func suiteWorkloads() []workload.Workload {
	return append(workload.PaperSuite(workload.Options{}), workload.LargeItemSuite(workload.Options{})...)
}

// FindWorkload resolves a workload name: first the size-tagged display
// names of the paper and 1 KB suites ("hashmap-1k"), then any registered
// factory name ("ycsb-e"), built with its default options.
func FindWorkload(name string) (workload.Workload, bool) {
	for _, w := range suiteWorkloads() {
		if w.Name == name {
			return w, true
		}
	}
	for _, reg := range workload.Registered() {
		if reg == name {
			return workload.MustBuild(reg, workload.Options{}), true
		}
	}
	return workload.Workload{}, false
}

// WorkloadNames lists every resolvable workload name, for error messages:
// suite display names first, then the registered factory names.
func WorkloadNames() []string {
	seen := map[string]bool{}
	var names []string
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	for _, w := range suiteWorkloads() {
		add(w.Name)
	}
	for _, n := range workload.Registered() {
		add(n)
	}
	return names
}
