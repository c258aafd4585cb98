package engine_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"hoop/internal/engine"
	"hoop/internal/mem"
	"hoop/internal/persist"
	"hoop/internal/pmem"
	"hoop/internal/sim"
	"hoop/internal/structures"
)

// testConfig shrinks the machine so tests run fast: 4 cores / 4 threads,
// a 64 MB OOP region, and frequent GC.
func testConfig(scheme string) engine.Config {
	cfg := engine.DefaultConfig(scheme)
	cfg.Cores = 4
	cfg.Threads = 4
	cfg.Cache.Cores = 4
	cfg.Ctrl.Agents = cfg.Cores + 2
	cfg.NVM.Capacity = 4 << 30
	cfg.OOPBytes = 64 << 20
	cfg.Hoop.CommitLogBytes = 1 << 20
	cfg.Hoop.GCPeriod = 500 * sim.Microsecond
	cfg.LSM.GCPeriod = 500 * sim.Microsecond
	cfg.TrackOracle = true
	return cfg
}

// mapRunner drives random Put/Get transactions against a per-thread
// persistent hashmap.
type mapRunner struct {
	h   *structures.HashMap
	rng *sim.Rand
	buf []byte
}

func newMapRunners(t *testing.T, sys *engine.System, valBytes int) []engine.TxRunner {
	t.Helper()
	threads := sys.Config().Threads
	regions := pmem.Partition(sys.Layout().Home, threads)
	runners := make([]engine.TxRunner, threads)
	for i := 0; i < threads; i++ {
		env := sys.NewEnv(i)
		arena := pmem.NewArena(env, regions[i])
		env.TxBegin()
		arena.Init()
		h := structures.NewHashMap(env, arena, 64, valBytes)
		env.TxEnd()
		r := &mapRunner{h: h, rng: sim.NewRand(uint64(i) + 1), buf: make([]byte, valBytes)}
		runners[i] = r
	}
	return runners
}

func (r *mapRunner) RunTx(env *engine.Env) {
	env.TxBegin()
	key := uint64(r.rng.Intn(200))
	for i := range r.buf {
		r.buf[i] = byte(r.rng.Uint64())
	}
	r.h.Put(key, r.buf)
	if r.rng.Bool(0.3) {
		r.h.Get(uint64(r.rng.Intn(200)), r.buf)
	}
	env.TxEnd()
}

func TestAllSchemesRunAndStaySane(t *testing.T) {
	for _, scheme := range engine.AllSchemes {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			sys, err := engine.New(testConfig(scheme))
			if err != nil {
				t.Fatal(err)
			}
			runners := newMapRunners(t, sys, 64)
			sys.Run(runners, 400)
			snap := sys.Snapshot()
			if snap.Txs < 400 {
				t.Fatalf("committed %d txs, want >= 400", snap.Txs)
			}
			if sys.MaxClock() <= 0 {
				t.Fatal("simulated time did not advance")
			}
			if snap.AvgTxLatency() <= 0 {
				t.Fatal("transaction latency not measured")
			}
			if snap.Loads == 0 || snap.Stores == 0 {
				t.Fatalf("ops not counted: loads=%d stores=%d", snap.Loads, snap.Stores)
			}
			if scheme != engine.SchemeNative {
				if sys.Snapshot().Counter(sim.StatNVMBytesWritten) == 0 {
					t.Fatal("persistence scheme wrote no NVM bytes")
				}
			}
		})
	}
}

func TestCrashRecoveryMatchesOracle(t *testing.T) {
	for _, scheme := range engine.AllSchemes {
		if scheme == engine.SchemeNative {
			continue // no persistence guarantee to verify
		}
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			sys, err := engine.New(testConfig(scheme))
			if err != nil {
				t.Fatal(err)
			}
			runners := newMapRunners(t, sys, 64)
			sys.Run(runners, 600)
			sys.Crash()
			if _, err := sys.Recover(4); err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			if mm := sys.VerifyRecovered(5); len(mm) != 0 {
				t.Fatalf("recovered state diverges from committed oracle: %+v", mm)
			}
		})
	}
}

func TestCrashRecoveryMidStreamRepeatedly(t *testing.T) {
	// Crash at several points in the run; every prefix of committed
	// transactions must be recoverable.
	for _, scheme := range []string{engine.SchemeHOOP, engine.SchemeUndo, engine.SchemeRedo} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			sys, err := engine.New(testConfig(scheme))
			if err != nil {
				t.Fatal(err)
			}
			runners := newMapRunners(t, sys, 64)
			for round := 0; round < 3; round++ {
				sys.Run(runners, 150)
				sys.Crash()
				if _, err := sys.Recover(2); err != nil {
					t.Fatalf("round %d: recovery failed: %v", round, err)
				}
				if mm := sys.VerifyRecovered(5); len(mm) != 0 {
					t.Fatalf("round %d: mismatches %+v", round, mm)
				}
				// Note: after a crash the in-Go structure handles (maps)
				// still point at recovered persistent state, which is
				// exactly the committed prefix — continuing to run against
				// them exercises post-recovery operation.
			}
		})
	}
}

func TestHoopGCReducesData(t *testing.T) {
	sys, err := engine.New(testConfig(engine.SchemeHOOP))
	if err != nil {
		t.Fatal(err)
	}
	runners := newMapRunners(t, sys, 64)
	sys.Run(runners, 2000)
	q, ok := sys.Scheme().(persist.Quiescer)
	if !ok {
		t.Fatal("HOOP must implement persist.Quiescer")
	}
	q.Quiesce(sys.MaxClock())
	hs, ok := sys.Scheme().(persist.GCReporter)
	if !ok {
		t.Fatal("HOOP must implement persist.GCReporter")
	}
	if hs.GCModifiedBytes() == 0 {
		t.Fatal("GC scanned nothing")
	}
	if hs.GCMigratedBytes() > hs.GCModifiedBytes() {
		t.Fatal("GC migrated more than it scanned")
	}
	red := hs.DataReduction()
	if red <= 0 || red >= 1 {
		t.Fatalf("data reduction %.3f out of (0,1)", red)
	}
	t.Logf("data reduction: %.1f%% (modified %d, migrated %d)",
		red*100, hs.GCModifiedBytes(), hs.GCMigratedBytes())
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, sim.Time, []sim.CounterSample) {
		sys, err := engine.New(testConfig(engine.SchemeHOOP))
		if err != nil {
			t.Fatal(err)
		}
		runners := newMapRunners(t, sys, 64)
		sys.Run(runners, 500)
		return sys.Snapshot().Txs, sys.MaxClock(), sys.Snapshot().Counters
	}
	tx1, clk1, st1 := run()
	tx2, clk2, st2 := run()
	if tx1 != tx2 || clk1 != clk2 {
		t.Fatalf("non-deterministic: tx %d vs %d, clock %v vs %v", tx1, tx2, clk1, clk2)
	}
	if !reflect.DeepEqual(st1, st2) {
		t.Fatalf("counter snapshots differ:\n%v\n%v", st1, st2)
	}
}

func TestSchemeOrderingSanity(t *testing.T) {
	// The native system must be at least as fast as every persistence
	// scheme, and HOOP must beat the logging schemes on write traffic.
	type result struct {
		name    string
		span    sim.Time
		written int64
	}
	var results []result
	for _, scheme := range engine.AllSchemes {
		sys, err := engine.New(testConfig(scheme))
		if err != nil {
			t.Fatal(err)
		}
		runners := newMapRunners(t, sys, 64)
		sys.Run(runners, 1000)
		results = append(results, result{
			name:    scheme,
			span:    sys.MaxClock(),
			written: sys.Snapshot().Counter(sim.StatNVMBytesWritten),
		})
	}
	byName := map[string]result{}
	for _, r := range results {
		byName[r.name] = r
		t.Logf("%-9s span=%v written=%d", r.name, r.span, r.written)
	}
	if byName[engine.SchemeNative].span > byName[engine.SchemeHOOP].span {
		t.Error("Ideal slower than HOOP")
	}
	if byName[engine.SchemeHOOP].span > byName[engine.SchemeUndo].span {
		t.Error("HOOP slower than Opt-Undo")
	}
	if byName[engine.SchemeHOOP].written > byName[engine.SchemeRedo].written {
		t.Error("HOOP wrote more than Opt-Redo")
	}
	if byName[engine.SchemeHOOP].written > byName[engine.SchemeUndo].written {
		t.Error("HOOP wrote more than Opt-Undo")
	}
}

func ExampleSystem() {
	cfg := engine.DefaultConfig(engine.SchemeHOOP)
	cfg.Cores, cfg.Threads, cfg.Cache.Cores = 2, 1, 2
	cfg.Ctrl.Agents = 4
	cfg.NVM.Capacity = 1 << 30
	cfg.OOPBytes = 32 << 20
	cfg.Hoop.CommitLogBytes = 1 << 20
	sys, _ := engine.New(cfg)
	env := sys.NewEnv(0)
	arena := pmem.NewArena(env, pmem.Partition(sys.Layout().Home, 1)[0])
	env.TxBegin()
	arena.Init()
	v := structures.NewVector(env, arena, 8, 64)
	env.TxEnd()

	env.TxBegin()
	item := make([]byte, 64)
	copy(item, "hello, persistent world")
	v.Append(item)
	env.TxEnd()

	got := make([]byte, 64)
	v.Get(0, got)
	fmt.Println(string(got[:23]))
	// Output: hello, persistent world
}

// ExampleSystem_Recover runs failure-atomic transactions against a
// persistent hashmap on a small HOOP machine, crashes it mid-transaction,
// and recovers: exactly the committed data survives.
func ExampleSystem_Recover() {
	// A small machine: 4 cores, 4 GB NVM with a 128 MB OOP region.
	cfg := engine.DefaultConfig(engine.SchemeHOOP)
	cfg.Cores, cfg.Threads, cfg.Cache.Cores = 4, 1, 4
	cfg.Ctrl.Agents = cfg.Cores + 2
	cfg.NVM.Capacity = 4 << 30
	cfg.OOPBytes = 128 << 20
	cfg.Hoop.CommitLogBytes = 1 << 20
	sys, err := engine.New(cfg)
	if err != nil {
		panic(err)
	}

	// Every thread gets an environment: the load/store interface into the
	// simulated memory hierarchy.
	env := sys.NewEnv(0)
	arena := pmem.NewArena(env, pmem.Partition(sys.Layout().Home, 1)[0])

	// Create a persistent hashmap inside a transaction.
	env.TxBegin()
	arena.Init()
	users := structures.NewHashMap(env, arena, 64, 64)
	env.TxEnd()

	record := func(name string) []byte {
		b := make([]byte, 64)
		copy(b, name)
		return b
	}

	// Committed transactions.
	env.TxBegin()
	users.Put(1, record("alice"))
	users.Put(2, record("bob"))
	env.TxEnd()

	env.TxBegin()
	users.Put(2, record("bob v2"))
	env.TxEnd()

	// A transaction that never commits: the crash erases it.
	env.TxBegin()
	users.Put(1, record("ALICE CORRUPTED"))
	users.Put(3, record("carol (uncommitted)"))
	fmt.Println("power failure strikes mid-transaction...")
	sys.Crash()

	d, err := sys.Recover(4)
	if err != nil {
		panic(err)
	}
	fmt.Printf("recovered in %v (modeled, 4 threads)\n\n", d)

	// The hashmap handle reads through the same environment; after
	// recovery the logical view holds exactly the committed image.
	buf := make([]byte, 64)
	for _, key := range []uint64{1, 2, 3} {
		if users.Get(key, buf) {
			fmt.Printf("user %d: %q\n", key, bytes.TrimRight(buf, "\x00"))
		} else {
			fmt.Printf("user %d: <not present>\n", key)
		}
	}
	fmt.Printf("\ntransactions committed: %d, simulated time: %v\n", sys.Snapshot().Txs, sys.MaxClock())
	// Output:
	// power failure strikes mid-transaction...
	// recovered in 1.12ms (modeled, 4 threads)
	//
	// user 1: "alice"
	// user 2: "bob v2"
	// user 3: <not present>
	//
	// transactions committed: 3, simulated time: 4.86us
}

// TestLayoutAddressesWork: at the paper's 512 GB capacity, and at the
// largest capacity engine.New accepts, a transaction writes the first and
// last words of the home and OOP regions through every layer (cache,
// scheme, store, wear), and the words read back after a drain. A capacity
// past mem.MaxAddr is rejected. HOOP's slice format holds 40-bit home
// addresses, so HOOP runs only at 512 GB.
func TestLayoutAddressesWork(t *testing.T) {
	for _, tc := range []struct {
		scheme   string
		capacity uint64
	}{
		{"HOOP", 512 << 30},
		{"Opt-Redo", 512 << 30},
		{"Opt-Redo", uint64(mem.MaxAddr)},
	} {
		cfg := engine.DefaultConfig(tc.scheme)
		cfg.NVM.Capacity = tc.capacity
		cfg.Threads = 1
		sys, err := engine.New(cfg)
		if err != nil {
			t.Fatalf("%s at %d bytes: %v", tc.scheme, tc.capacity, err)
		}
		l := sys.Layout()
		addrs := []mem.PAddr{l.Home.Base, l.Home.End() - mem.WordSize, l.OOP.Base, l.OOP.End() - mem.WordSize}
		env := sys.NewEnv(0)
		env.TxBegin()
		for i, a := range addrs {
			env.WriteWord(a, uint64(i)+1)
		}
		env.TxEnd()
		sys.DrainCache()
		for i, a := range addrs {
			if got := env.ReadWord(a); got != uint64(i)+1 {
				t.Fatalf("%s at %d bytes: word at %v reads %d, want %d", tc.scheme, tc.capacity, a, got, i+1)
			}
		}
		if _, _, _, total := sys.Device().WearInRegion(mem.Region{Base: 0, Size: tc.capacity}); total == 0 {
			t.Fatalf("%s at %d bytes: no wear recorded", tc.scheme, tc.capacity)
		}
	}
	cfg := engine.DefaultConfig("HOOP")
	cfg.NVM.Capacity = uint64(mem.MaxAddr) + mem.PageSize
	if _, err := engine.New(cfg); err == nil {
		t.Fatal("a capacity past mem.MaxAddr must be rejected")
	}
}
