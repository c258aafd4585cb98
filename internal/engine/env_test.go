package engine_test

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hoop/internal/engine"
	"hoop/internal/mem"
	"hoop/internal/sim"
	"hoop/internal/telemetry"
)

func smallSystem(t *testing.T, scheme string) *engine.System {
	t.Helper()
	cfg := engine.DefaultConfig(scheme)
	cfg.Cores, cfg.Threads, cfg.Cache.Cores = 2, 2, 2
	cfg.Ctrl.Agents = 4
	cfg.NVM.Capacity = 1 << 30
	cfg.OOPBytes = 64 << 20
	cfg.Hoop.CommitLogBytes = 1 << 20
	sys, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func expectPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic: %s", what)
		}
	}()
	fn()
}

func TestEnvMisusePanics(t *testing.T) {
	sys := smallSystem(t, engine.SchemeNative)
	env := sys.NewEnv(0)
	expectPanic(t, "store outside tx", func() {
		env.WriteWord(0x100, 1)
	})
	env.TxBegin()
	expectPanic(t, "nested tx", func() { env.TxBegin() })
	expectPanic(t, "misaligned store", func() {
		env.Write(0x101, make([]byte, 8))
	})
	expectPanic(t, "misaligned size", func() {
		env.Write(0x100, make([]byte, 7))
	})
	env.TxEnd()
	expectPanic(t, "TxEnd without TxBegin", func() { env.TxEnd() })
	expectPanic(t, "thread out of range", func() { sys.NewEnv(99) })
}

func TestEnvReadWriteRoundtrip(t *testing.T) {
	sys := smallSystem(t, engine.SchemeHOOP)
	env := sys.NewEnv(0)
	env.TxBegin()
	env.WriteWord(0x1000, 0xCAFE)
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	env.Write(0x2000, data)
	env.TxEnd()
	if env.ReadWord(0x1000) != 0xCAFE {
		t.Fatal("word roundtrip")
	}
	got := make([]byte, 16)
	env.Read(0x2000, got)
	for i := range data {
		if got[i] != data[i] {
			t.Fatal("slice roundtrip")
		}
	}
	if !env.InTx() == false && env.Thread() != 0 {
		t.Fatal("accessors")
	}
	if env.Now() <= 0 {
		t.Fatal("time must advance")
	}
}

func TestTimeAdvancesMonotonically(t *testing.T) {
	sys := smallSystem(t, engine.SchemeHOOP)
	env := sys.NewEnv(0)
	var prev sim.Time
	for i := 0; i < 100; i++ {
		env.TxBegin()
		env.WriteWord(mem.PAddr(0x1000+i*64), uint64(i))
		env.TxEnd()
		now := env.Now()
		if now <= prev {
			t.Fatalf("time did not advance at tx %d", i)
		}
		prev = now
	}
}

func TestLoadHookCharged(t *testing.T) {
	// LSM implements LoadOverhead; a system running LSM must spend more
	// time per load than Ideal on identical access patterns.
	elapsed := func(scheme string) sim.Time {
		sys := smallSystem(t, scheme)
		env := sys.NewEnv(0)
		env.TxBegin()
		for i := 0; i < 64; i++ {
			env.WriteWord(mem.PAddr(0x1000+i*8), uint64(i))
		}
		env.TxEnd()
		start := env.Now()
		for r := 0; r < 4; r++ {
			for i := 0; i < 64; i++ {
				env.ReadWord(mem.PAddr(0x1000 + i*8))
			}
		}
		return env.Now() - start
	}
	if elapsed(engine.SchemeLSM) <= elapsed(engine.SchemeNative) {
		t.Fatal("LSM's per-load index lookup was not charged")
	}
}

func TestRecoverRequiresCrash(t *testing.T) {
	sys := smallSystem(t, engine.SchemeHOOP)
	if _, err := sys.Recover(2); err == nil {
		t.Fatal("Recover without Crash must fail")
	}
}

func TestVerifyRecoveredRequiresOracle(t *testing.T) {
	sys := smallSystem(t, engine.SchemeHOOP)
	expectPanic(t, "no oracle", func() { sys.VerifyRecovered(1) })
}

// TestVerifyRecoveredStopsAtMaxReport: with far more mismatching bytes
// than maxReport, the scan must return exactly maxReport mismatches and
// stop at the lowest-addressed page rather than walking the whole oracle.
func TestVerifyRecoveredStopsAtMaxReport(t *testing.T) {
	cfg := engine.DefaultConfig(engine.SchemeNative)
	cfg.Cores, cfg.Threads, cfg.Cache.Cores = 2, 2, 2
	cfg.Ctrl.Agents = 4
	cfg.NVM.Capacity = 1 << 30
	cfg.OOPBytes = 64 << 20
	cfg.TrackOracle = true
	sys, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	env := sys.NewEnv(0)
	// Commit one word on each of 8 distinct home pages; the durable store
	// stays empty under the Ideal scheme, so every committed byte
	// mismatches.
	for i := 0; i < 8; i++ {
		env.TxBegin()
		env.WriteWord(mem.PAddr(i)*mem.PageSize, ^uint64(0))
		env.TxEnd()
	}
	mm := sys.VerifyRecovered(3)
	if len(mm) != 3 {
		t.Fatalf("got %d mismatches, want exactly maxReport=3", len(mm))
	}
	for _, m := range mm {
		if m.Addr >= mem.PageSize {
			t.Fatalf("mismatch at %#x: scan should have stopped inside the first page", uint64(m.Addr))
		}
	}
	// A generous cap still reports every mismatching byte (8 words).
	if all := sys.VerifyRecovered(1000); len(all) != 64 {
		t.Fatalf("full scan found %d mismatching bytes, want 64", len(all))
	}
}

func TestDrainCacheWritesBackDirtyData(t *testing.T) {
	sys := smallSystem(t, engine.SchemeNative)
	env := sys.NewEnv(0)
	env.TxBegin()
	env.WriteWord(0x5000, 77)
	env.TxEnd()
	// Dirty data is still cached: durable store may lag.
	sys.DrainCache()
	if got := sys.Durable().ReadWord(0x5000); got != 77 {
		t.Fatalf("durable after drain = %d", got)
	}
}

func TestBadConfigsRejected(t *testing.T) {
	cfg := engine.DefaultConfig("nope")
	if _, err := engine.New(cfg); err == nil {
		t.Fatal("unknown scheme must fail")
	}
	cfg = engine.DefaultConfig(engine.SchemeHOOP)
	cfg.Threads = 99
	if _, err := engine.New(cfg); err == nil {
		t.Fatal("threads > cores must fail")
	}
	cfg = engine.DefaultConfig(engine.SchemeHOOP)
	cfg.OOPBytes = cfg.NVM.Capacity
	if _, err := engine.New(cfg); err == nil {
		t.Fatal("OOP region >= capacity must fail")
	}
	// A machine with more cores than its cache or memory controller was
	// sized for would index past their per-core arrays at the first
	// access or posted write.
	for _, scheme := range []string{engine.SchemeHOOP, engine.SchemeOSP} {
		cfg = engine.DefaultConfig(scheme)
		cfg.Cores, cfg.Threads = 20, 20
		if _, err := engine.New(cfg); err == nil || !strings.Contains(err.Error(), "cache sized for 16 cores") {
			t.Fatalf("%s: cores above Cache.Cores: err %v, want the cache-size error", scheme, err)
		}
		cfg.Cache.Cores = 20
		if _, err := engine.New(cfg); err == nil || !strings.Contains(err.Error(), "tracks 18 agents") {
			t.Fatalf("%s: Ctrl.Agents below cores+2: err %v, want the agent-count error", scheme, err)
		}
		cfg.Ctrl.Agents = 22
		if _, err := engine.New(cfg); err != nil {
			t.Fatalf("%s: 20 cores with a cache and controller sized for them: %v", scheme, err)
		}
	}
}

func TestSyncClocksAndReset(t *testing.T) {
	sys := smallSystem(t, engine.SchemeNative)
	e0, e1 := sys.NewEnv(0), sys.NewEnv(1)
	e0.TxBegin()
	for i := 0; i < 200; i++ {
		e0.WriteWord(mem.PAddr(0x9000+i*64), 1)
	}
	e0.TxEnd()
	if sys.Clock(0) <= sys.Clock(1) {
		t.Fatal("expected skew before sync")
	}
	sys.SyncClocks()
	if sys.Clock(0) != sys.Clock(1) {
		t.Fatal("SyncClocks must align")
	}
	sys.ResetMemoryQueues() // must not panic and must clear backlog
	_ = e1
}

// storeDigest hashes every page of st with its address.
func storeDigest(st *mem.Store) [sha256.Size]byte {
	h := sha256.New()
	st.ForEachPageUntil(func(base mem.PAddr, data []byte) bool {
		fmt.Fprintf(h, "%x:", uint64(base))
		h.Write(data)
		return true
	})
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// kindCounter counts the events it receives by kind.
type kindCounter map[telemetry.Kind]int

func (k kindCounter) Emit(e telemetry.Event) { k[e.Kind]++ }

// TestDetachIsFunctionalOnly: after Detach, transactions still read and
// update the functional view, TxAbort still rolls it back and every op
// still emits its event, but no clock moves, nothing reaches the durable
// store, and Run and Snapshot refuse the system.
func TestDetachIsFunctionalOnly(t *testing.T) {
	cfg := engine.DefaultConfig(engine.SchemeHOOP)
	cfg.Cores, cfg.Threads, cfg.Cache.Cores = 2, 2, 2
	cfg.Ctrl.Agents = 4
	cfg.NVM.Capacity = 1 << 30
	cfg.OOPBytes = 64 << 20
	cfg.Hoop.CommitLogBytes = 1 << 20
	cfg.Abortable = true
	sys, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	env := sys.NewEnv(0)
	env.TxBegin()
	env.WriteWord(64, 1)
	env.TxEnd()
	clocks := []sim.Time{sys.Clock(0), sys.Clock(1)}
	durable := storeDigest(sys.Durable())

	sys.Detach()
	seen := kindCounter{}
	sys.Subscribe(seen, telemetry.MaskAll)
	env.TxBegin()
	env.WriteWord(64, env.ReadWord(64)+1)
	env.WriteWord(128, 7)
	env.TxEnd()
	env.TxBegin()
	env.WriteWord(64, 99)
	env.WriteWord(192, 5)
	env.TxAbort()
	env.TxBegin()
	env.NoteScan(2, 16)
	env.TxEnd()
	env.AdvanceTo(clocks[0] + sim.Time(sim.Second))

	for a, want := range map[mem.PAddr]uint64{64: 2, 128: 7, 192: 0} {
		if got := sys.View().ReadWord(a); got != want {
			t.Fatalf("view word %v = %d, want %d", a, got, want)
		}
	}
	want := kindCounter{telemetry.KindTxBegin: 3, telemetry.KindLoad: 1, telemetry.KindStore: 4,
		telemetry.KindTxCommit: 2, telemetry.KindTxAbort: 1, telemetry.KindScan: 1}
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("detached ops emitted %v, want exactly the per-op events %v", seen, want)
	}
	for th, c := range clocks {
		if sys.Clock(th) != c {
			t.Fatalf("thread %d clock moved from %v to %v on a detached system", th, c, sys.Clock(th))
		}
	}
	if storeDigest(sys.Durable()) != durable {
		t.Fatal("detached transactions reached the durable store")
	}
	expectPanic(t, "Run on a detached system", func() { sys.Run(make([]engine.TxRunner, 2), 1) })
	expectPanic(t, "Snapshot of a detached system", func() { sys.Snapshot() })
}
