// Command simbench measures the simulation-core primitives that bound how
// fast the evaluation harness can replay memory traffic — store word/line
// access (with and without a crash-test journal observer attached), cache
// hierarchy probes, stats counting, and the engine's per-transaction
// operation cost — and writes the results as a machine-readable
// BENCH_simcore.json so the performance trajectory of the simulator itself
// is tracked alongside the paper's figures. End-to-end host time is the
// repo benchmark's job (bench/).
//
// Usage:
//
//	simbench [-o BENCH_simcore.json] [-baseline old.json] [-failregress 0.05]
//	         [-cpuprofile out.pprof] [-memprofile out.pprof]
//
// With -baseline, each primitive also reports its speedup over the
// baseline file's ns/op (speedup > 1 means this tree is faster). With
// -failregress F the process exits non-zero when any primitive is more
// than the fraction F slower than the baseline, allocates more per op, or
// is in the baseline but no longer measured — the CI hot-path gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"testing"

	"hoop/internal/cache"
	"hoop/internal/cc"
	"hoop/internal/clihelp"
	"hoop/internal/engine"
	"hoop/internal/mem"
	"hoop/internal/nstore"
	"hoop/internal/persist"
	"hoop/internal/pmem"
	"hoop/internal/sim"
	"hoop/internal/trace"
)

// PrimitiveResult is one measured primitive.
type PrimitiveResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// SpeedupVsBaseline is baseline ns/op divided by this ns/op (>1 is
	// faster than baseline); omitted when no baseline was supplied.
	SpeedupVsBaseline float64 `json:"speedup_vs_baseline,omitempty"`
}

// File is the BENCH_simcore.json schema.
type File struct {
	Schema     string                     `json:"schema"`
	GoVersion  string                     `json:"go_version"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	Primitives map[string]PrimitiveResult `json:"primitives"`
	// BaselineFile names the file speedups were computed against, if any.
	BaselineFile string `json:"baseline_file,omitempty"`
}

// benchmarks maps primitive names to their measurement loops. This map is
// the sole definition of every gated primitive: no package benchmark
// restates one, so the JSON stays comparable across commits and a change
// to what a primitive measures shows up here and nowhere else.
func benchmarks() map[string]func(b *testing.B) {
	const region = 16 * mem.PageSize
	return map[string]func(b *testing.B){
		// Store word write with a journal-style observer attached: the cost
		// of every durable write in a crash-consistency run.
		"store_write_word_journal": func(b *testing.B) {
			s := mem.NewStore()
			sink := make([]mem.PAddr, 0, 1024)
			s.SetWriteObserver(func(a mem.PAddr, unit [mem.WordSize]byte) {
				if len(sink) == cap(sink) {
					sink = sink[:0]
				}
				sink = append(sink, a)
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.WriteWord(mem.PAddr(uint64(i)*mem.WordSize%region), uint64(i))
			}
		},
		"store_write_word": func(b *testing.B) {
			s := mem.NewStore()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.WriteWord(mem.PAddr(uint64(i)*mem.WordSize%region), uint64(i))
			}
		},
		"store_read_word": func(b *testing.B) {
			s := mem.NewStore()
			for a := mem.PAddr(0); a < region; a += mem.WordSize {
				s.WriteWord(a, uint64(a))
			}
			b.ResetTimer()
			var acc uint64
			for i := 0; i < b.N; i++ {
				acc += s.ReadWord(mem.PAddr(uint64(i) * mem.WordSize % region))
			}
			sinkU64 = acc
		},
		"store_write_line": func(b *testing.B) {
			s := mem.NewStore()
			var line [mem.LineSize]byte
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.WriteLine(mem.PAddr(uint64(i)*mem.LineSize%region), line)
			}
		},
		"store_zero_range": func(b *testing.B) {
			s := mem.NewStore()
			for a := mem.PAddr(0); a < 4*mem.PageSize; a += mem.WordSize {
				s.WriteWord(a, ^uint64(0))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ZeroRange(0, 4*mem.PageSize)
			}
		},
		// The hot-path stats increment as the simulator components issue it:
		// an interned Counter handle obtained once at construction time.
		"stats_increment": func(b *testing.B) {
			s := sim.NewStats()
			c := s.Counter(sim.StatNVMWrites)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Inc()
			}
		},
		"stats_add": func(b *testing.B) {
			s := sim.NewStats()
			c := s.Counter(sim.StatNVMBytesWritten)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Add(64)
			}
		},
		"cache_lookup_l1_hit": func(b *testing.B) {
			h := cache.New(cache.DefaultConfig(1), sim.NewStats())
			h.Fill(0, 0, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Lookup(0, 0, false)
			}
		},
		"engine_tx_write4": func(b *testing.B) {
			sys := engineForBench(b)
			env := sys.NewEnv(0)
			const span = 1 << 20
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base := mem.PAddr(uint64(i) * 4 * mem.WordSize % span)
				env.TxBegin()
				for w := 0; w < 4; w++ {
					env.WriteWord(base+mem.PAddr(w*mem.WordSize), uint64(i))
				}
				env.TxEnd()
			}
		},
		// The bare transaction bracket: TxBegin + TxEnd with no stores. This
		// is pure scheme-state setup/teardown — any per-transaction
		// allocation or map rebuild shows up here undiluted.
		"tx_begin_commit_empty": func(b *testing.B) {
			sys := engineForBench(b)
			env := sys.NewEnv(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.TxBegin()
				env.TxEnd()
			}
		},
		// One committed 4-word read-modify-write transaction through the
		// concurrency-control layer on a single thread: nine steps of the
		// step loop (begin, eight operations, commit) plus OCC's
		// buffer/validate/install bookkeeping. A lone thread is picked at
		// every step; cc_2pl_tx4_t4 passes the step between threads. The
		// alloc gate holds the budget at zero steady-state allocations
		// (validation reuses its scratch buffer).
		"cc_occ_tx4": func(b *testing.B) {
			r, srcs := ccRunnerForBench(b, cc.PolicyOCC, 1)
			r.Run(srcs, 200) // steady state
			b.ResetTimer()
			r.Run(srcs, b.N)
		},
		// Same transaction under wound-wait 2PL: per-line lock acquire and
		// release against the never-deleted lock table. Steady-state budget
		// is likewise zero allocations.
		"cc_2pl_tx4": func(b *testing.B) {
			r, srcs := ccRunnerForBench(b, cc.Policy2PL, 1)
			r.Run(srcs, 200)
			b.ResetTimer()
			r.Run(srcs, b.N)
		},
		// cc_2pl_tx4 over 4 threads on disjoint lines: no conflicts, but
		// the smallest-clock pick moves the step to another thread at
		// nearly every boundary, so this adds the pick over four threads
		// to each step. Zero steady-state allocations.
		"cc_2pl_tx4_t4": func(b *testing.B) {
			r, srcs := ccRunnerForBench(b, cc.Policy2PL, 4)
			r.Run(srcs, 200)
			b.ResetTimer()
			r.Run(srcs, b.N)
		},
		// cc_occ_tx4 over the same 4 disjoint threads: the four-thread
		// pick plus OCC's per-thread buffers. Zero steady-state
		// allocations.
		"cc_occ_tx4_t4": func(b *testing.B) {
			r, srcs := ccRunnerForBench(b, cc.PolicyOCC, 4)
			r.Run(srcs, 200)
			b.ResetTimer()
			r.Run(srcs, b.N)
		},
		// One committed 4-word transaction followed by a forced GC epoch:
		// the scan/coalesce/migrate/recycle pass plus whatever per-epoch
		// state the scheme rebuilds.
		"gc_epoch": func(b *testing.B) {
			sys := engineForBench(b)
			env := sys.NewEnv(0)
			q, ok := sys.Scheme().(persist.Quiescer)
			if !ok {
				b.Fatal("simbench: HOOP scheme lost its Quiescer capability")
			}
			const span = 1 << 20
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base := mem.PAddr(uint64(i) * 4 * mem.WordSize % span)
				env.TxBegin()
				for w := 0; w < 4; w++ {
					env.WriteWord(base+mem.PAddr(w*mem.WordSize), uint64(i))
				}
				env.TxEnd()
				q.Quiesce(env.Now())
			}
		},
		// One 8-item range scan through the ordered N-store's B+-tree
		// leaves — the per-op cost of the YCSB-E scan path (leaf walk plus
		// the NoteScan telemetry/statistics accounting). The scan reuses
		// the caller's record buffer, so steady state allocates nothing.
		"scan_line8": func(b *testing.B) {
			sys := engineForBench(b)
			env := sys.NewEnv(0)
			region := pmem.Partition(sys.Layout().Home, 1)[0]
			env.TxBegin()
			table := nstore.Open(env, region).CreateOrderedTable(64)
			env.TxEnd()
			buf := make([]byte, 64)
			const keys = 1024
			for k := 0; k < keys; k++ {
				env.TxBegin()
				table.Insert(uint64(k), buf)
				env.TxEnd()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.TxBegin()
				table.Scan(uint64(i%(keys-8)), 8, buf)
				env.TxEnd()
			}
		},
		// One recorded 4-word transaction reissued through trace.ApplyOp —
		// the per-transaction cost of the record-once/replay-many matrix
		// pipeline (capture outside the timer, replay inside). Steady-state
		// budget is zero allocations: captured ops and the load scratch
		// buffer are reused across iterations.
		"replay_txs": func(b *testing.B) {
			var sink trace.OpSink
			src := engineForBench(b)
			src.Subscribe(&sink, trace.RecordMask)
			env := src.NewEnv(0)
			const span = 1 << 20
			const captured = 256
			for i := 0; i < captured; i++ {
				base := mem.PAddr(uint64(i) * 4 * mem.WordSize % span)
				env.TxBegin()
				for w := 0; w < 4; w++ {
					env.WriteWord(base+mem.PAddr(w*mem.WordSize), uint64(i))
				}
				env.TxEnd()
			}
			if err := sink.Err(); err != nil {
				b.Fatal(err)
			}
			txs, err := sink.SplitTxs(0, 1)
			payload := sink.Payload()
			if err != nil || len(txs[0]) != captured {
				b.Fatalf("split: %v (%d txs)", err, len(txs))
			}
			sys := engineForBench(b)
			denv := sys.NewEnv(0)
			var scratch []byte
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, op := range txs[0][i%captured] {
					scratch, err = trace.ApplyOp(denv, op, payload, scratch)
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		},
	}
}

var sinkU64 uint64

// ccRunnerForBench builds an abortable Ideal system with the given
// thread count, each thread running a fixed 4-word read-modify-write
// program on its own cache line whose Next allocates nothing, so the
// measurement sees only the cc layer's own cost.
func ccRunnerForBench(b *testing.B, policy cc.Policy, threads int) (*cc.Runner, []cc.TxSource) {
	cfg := engine.DefaultConfig(engine.SchemeNative)
	cfg.Cores, cfg.Threads, cfg.Cache.Cores = threads, threads, threads
	cfg.Ctrl.Agents = threads + 2
	cfg.NVM.Capacity = 1 << 30
	cfg.OOPBytes = 64 << 20
	cfg.Abortable = true
	sys, err := engine.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	r, err := cc.New(sys, cc.Config{Policy: policy})
	if err != nil {
		b.Fatal(err)
	}
	srcs := make([]cc.TxSource, threads)
	for i := range srcs {
		base := mem.PAddr(i * mem.LineSize)
		var prog []cc.Step
		for w := 0; w < 4; w++ {
			a := base + mem.PAddr(w*mem.WordSize)
			prog = append(prog, cc.Step{Kind: cc.OpRead, Addr: a}, cc.Step{Kind: cc.OpWrite, Addr: a, Add: 1})
		}
		srcs[i] = cc.TxSourceFunc(func() []cc.Step { return prog })
	}
	return r, srcs
}

func engineForBench(b *testing.B) *engine.System {
	cfg := engine.DefaultConfig(engine.SchemeHOOP)
	cfg.Cores, cfg.Threads, cfg.Cache.Cores = 1, 1, 1
	cfg.Ctrl.Agents = 3
	cfg.NVM.Capacity = 4 << 30
	cfg.OOPBytes = 128 << 20
	cfg.Hoop.CommitLogBytes = 8 << 20
	sys, err := engine.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
		os.Exit(1)
	}
}

// run measures every primitive in name order, printing one line each to
// stderr, and writes the JSON to -o (out when -o is "-"). The gate's
// verdict is its error, returned once the JSON is written; the deferred
// profile stop runs on every return, so a failing gate keeps both profiles.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	outPath := fs.String("o", "BENCH_simcore.json", "output JSON path (- for stdout)")
	baselinePath := fs.String("baseline", "", "previous BENCH_simcore.json to compute speedups against")
	failRegress := fs.Float64("failregress", 0,
		"fail when any primitive regresses more than this fraction vs -baseline (0 disables; e.g. 0.05 = 5%)")
	var common clihelp.Common
	common.Register(fs, clihelp.FlagProfile)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *failRegress > 0 && *baselinePath == "" {
		return fmt.Errorf("-failregress needs -baseline")
	}
	stopProfiles, err := common.StartProfiles()
	if err != nil {
		return err
	}
	defer stopProfiles()

	f := &File{
		Schema:     "hoop-simcore-bench/v1",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Primitives: map[string]PrimitiveResult{},
	}

	var baseline *File
	if *baselinePath != "" {
		data, err := os.ReadFile(*baselinePath)
		if err != nil {
			return err
		}
		baseline = &File{}
		if err := json.Unmarshal(data, baseline); err != nil {
			return fmt.Errorf("bad baseline: %w", err)
		}
		f.BaselineFile = *baselinePath
	}

	bms := benchmarks()
	for _, name := range sortedNames(bms) {
		fn := bms[name]
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			fn(b)
		})
		pr := PrimitiveResult{
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
		}
		fmt.Fprintf(os.Stderr, "%-28s %10.1f ns/op  %4d allocs/op", name, pr.NsPerOp, pr.AllocsPerOp)
		if baseline != nil {
			base, ok := baseline.Primitives[name]
			switch {
			case !ok:
				fmt.Fprint(os.Stderr, "  no baseline")
			case pr.NsPerOp > 0:
				pr.SpeedupVsBaseline = base.NsPerOp / pr.NsPerOp
				fmt.Fprintf(os.Stderr, "  %5.2fx vs baseline", pr.SpeedupVsBaseline)
			}
		}
		fmt.Fprintln(os.Stderr)
		f.Primitives[name] = pr
	}

	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *outPath == "-" {
		_, err = out.Write(data)
	} else {
		err = os.WriteFile(*outPath, data, 0o644)
	}
	if err != nil {
		return err
	}

	if *failRegress > 0 {
		if regs := regressions(f, baseline, *failRegress); len(regs) > 0 {
			for _, r := range regs {
				fmt.Fprintf(os.Stderr, "simbench: REGRESSION %s\n", r)
			}
			return fmt.Errorf("%d regressions against %s", len(regs), *baselinePath)
		}
	}
	return nil
}

// regressions lists, ordered by primitive name, every way cur fails the
// gate against base: a primitive more than the fraction frac slower in
// ns/op, one with more allocs/op, or one base lists that cur did not
// measure (deleted or renamed). A primitive base does not list yet passes.
func regressions(cur, base *File, frac float64) []string {
	// Wall-clock benchmarks on shared CI runners are noisy; a regression
	// must clear the threshold to fail the gate, and the threshold is the
	// caller's to tune (CI uses 5%).
	limit := 1 / (1 + frac)
	var regs []string
	for _, name := range sortedNames(base.Primitives) {
		b := base.Primitives[name]
		c, ok := cur.Primitives[name]
		if !ok {
			regs = append(regs, fmt.Sprintf("%s: in the baseline but not measured", name))
			continue
		}
		if c.NsPerOp > 0 && b.NsPerOp > 0 {
			if speedup := b.NsPerOp / c.NsPerOp; speedup < limit {
				regs = append(regs, fmt.Sprintf("%s: %.1f%% slower than baseline (%.2fx)",
					name, (1/speedup-1)*100, speedup))
			}
		}
		// Allocation counts are exact integers, not wall-clock noise: any
		// increase over the baseline is a real new allocation on the hot
		// path and fails the gate outright.
		if c.AllocsPerOp > b.AllocsPerOp {
			regs = append(regs, fmt.Sprintf("%s: %d allocs/op, baseline has %d",
				name, c.AllocsPerOp, b.AllocsPerOp))
		}
	}
	return regs
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}
