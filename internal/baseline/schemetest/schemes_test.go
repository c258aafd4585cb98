// Package schemetest drives each comparison scheme directly (no engine) to
// verify the crash-consistency contract every one of them must uphold:
// after Crash+Recover, the home region holds exactly the committed data.
package schemetest

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"hoop/internal/baseline/lad"
	"hoop/internal/baseline/lsm"
	"hoop/internal/baseline/native"
	"hoop/internal/baseline/osp"
	"hoop/internal/baseline/redo"
	"hoop/internal/baseline/undo"
	"hoop/internal/hoop"
	"hoop/internal/mem"
	"hoop/internal/persist"
	"hoop/internal/persisttest"
	"hoop/internal/sim"
)

func newCtx(t *testing.T, cores int) persist.Context {
	t.Helper()
	return persisttest.NewContext(cores)
}

// build constructs a scheme through the persist registry (the packages are
// imported above for their registration side effect).
func build(t *testing.T, name string, ctx persist.Context) persist.Scheme {
	t.Helper()
	s, err := persist.Build(ctx, name, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// schemeNames are the baselines whose home region must hold exactly the
// committed data after recovery. Ideal (native) is excluded: it models no
// persistence mechanism at all, so data reaches the device only on
// eviction.
var schemeNames = []string{undo.SchemeName, redo.SchemeName, lsm.SchemeName, osp.SchemeName, lad.SchemeName}

// allSchemeNames adds the schemes excluded from the strict home-image
// tests; every registered scheme must still recover idempotently.
var allSchemeNames = append([]string{hoop.SchemeName, native.SchemeName}, schemeNames...)

// runTx forwards to the shared fixture helper.
func runTx(s persist.Scheme, ctx persist.Context, core int, words map[mem.PAddr]uint64) {
	persisttest.RunTx(s, ctx, core, words)
}

func TestCommittedSurvivesCrash(t *testing.T) {
	for _, name := range schemeNames {
		name := name
		t.Run(name, func(t *testing.T) {
			ctx := newCtx(t, 2)
			s := build(t, name, ctx)
			oracle := map[mem.PAddr]uint64{}
			r := sim.NewRand(11)
			for i := 0; i < 150; i++ {
				words := map[mem.PAddr]uint64{}
				for j := 0; j < 1+r.Intn(10); j++ {
					words[mem.PAddr(r.Intn(2048))*8] = r.Uint64()
				}
				runTx(s, ctx, i%2, words)
				for a, v := range words {
					oracle[a] = v
				}
				s.Tick(sim.Time(i) * sim.Microsecond)
			}
			s.Crash()
			if _, err := s.Recover(2); err != nil {
				t.Fatal(err)
			}
			for a, v := range oracle {
				if got := ctx.Dev.Store().ReadWord(a); got != v {
					t.Fatalf("word %v = %#x, want %#x", a, got, v)
				}
			}
		})
	}
}

func TestUncommittedIsRolledBack(t *testing.T) {
	for _, name := range schemeNames {
		name := name
		t.Run(name, func(t *testing.T) {
			ctx := newCtx(t, 1)
			s := build(t, name, ctx)
			// Commit a base value.
			runTx(s, ctx, 0, map[mem.PAddr]uint64{0x100: 1})
			// Open a transaction that writes but never commits; include an
			// eviction so steal-policy schemes write uncommitted data in
			// place.
			tx, now := s.TxBegin(0, 0)
			var buf [8]byte
			buf[0] = 0xAB
			now = s.Store(0, tx, 0x100, buf[:], now)
			ctx.View.Write(0x100, buf[:])
			s.Evict(0, 0x100, now)
			s.Crash()
			if _, err := s.Recover(1); err != nil {
				t.Fatal(err)
			}
			if got := ctx.Dev.Store().ReadWord(0x100); got != 1 {
				t.Fatalf("uncommitted data visible after recovery: %#x", got)
			}
		})
	}
}

// TestDoubleRecoverIdempotent crashes once and recovers twice: the second
// recovery must find a quiesced device and leave the home region image
// bit-for-bit unchanged. A scheme that replays work twice (or trips over
// its own recovery bookkeeping) fails here.
func TestDoubleRecoverIdempotent(t *testing.T) {
	for _, name := range allSchemeNames {
		name := name
		t.Run(name, func(t *testing.T) {
			ctx := newCtx(t, 2)
			s := build(t, name, ctx)
			r := sim.NewRand(23)
			for i := 0; i < 40; i++ {
				words := map[mem.PAddr]uint64{}
				for j := 0; j < 1+r.Intn(6); j++ {
					words[mem.PAddr(r.Intn(512))*8] = r.Uint64()
				}
				runTx(s, ctx, i%2, words)
			}
			s.Crash()
			if _, err := s.Recover(2); err != nil {
				t.Fatal(err)
			}
			home := ctx.Layout.Home
			first := ctx.Dev.Store().Clone()
			if _, err := s.Recover(2); err != nil {
				t.Fatalf("second recovery failed: %v", err)
			}
			var diffs int
			ctx.Dev.Store().ForEachPage(func(base mem.PAddr, data []byte) {
				if base < home.Base || base >= home.End() {
					return
				}
				var want [mem.PageSize]byte
				first.Read(base, want[:])
				for i := range data {
					if data[i] != want[i] {
						diffs++
						if diffs == 1 {
							t.Errorf("home byte %#x changed across second recovery: %#x -> %#x",
								uint64(base)+uint64(i), want[i], data[i])
						}
					}
				}
			})
			if diffs > 0 {
				t.Fatalf("second recovery changed %d home-region bytes", diffs)
			}
		})
	}
}

func TestQuickRandomCrashAllSchemes(t *testing.T) {
	for _, name := range schemeNames {
		name := name
		t.Run(name, func(t *testing.T) {
			// reason records why the property last failed so that a red run
			// reports the seed and failure site, not just "#1: failed".
			var reason string
			f := func(seed uint64) bool {
				ctx := newCtx(t, 2)
				s := build(t, name, ctx)
				r := sim.NewRand(seed)
				oracle := map[mem.PAddr]uint64{}
				txs := 10 + r.Intn(40)
				for i := 0; i < txs; i++ {
					words := map[mem.PAddr]uint64{}
					for j := 0; j < 1+r.Intn(6); j++ {
						words[mem.PAddr(r.Intn(512))*8] = r.Uint64()
					}
					runTx(s, ctx, i%2, words)
					for a, v := range words {
						oracle[a] = v
					}
					if r.Bool(0.2) {
						line := mem.PAddr(r.Intn(512)) * 8
						s.Evict(0, mem.LineAddr(line), 0)
					}
				}
				s.Crash()
				if _, err := s.Recover(1 + r.Intn(3)); err != nil {
					reason = fmt.Sprintf("scheme=%s seed=%d txs=%d: recovery error: %v", name, seed, txs, err)
					return false
				}
				for a, v := range oracle {
					if got := ctx.Dev.Store().ReadWord(a); got != v {
						reason = fmt.Sprintf("scheme=%s seed=%d txs=%d: word %#x = %#x, want %#x",
							name, seed, txs, uint64(a), got, v)
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
				t.Fatalf("%v\nrepro: %s", err, reason)
			}
		})
	}
}

func TestSchemePropertiesPopulated(t *testing.T) {
	for _, name := range schemeNames {
		ctx := newCtx(t, 1)
		s := build(t, name, ctx)
		p := s.Properties()
		if p.ReadLatency == "" || p.WriteTraffic == "" {
			t.Errorf("%s: empty properties", name)
		}
		if s.Name() == "" {
			t.Errorf("%s: empty name", name)
		}
	}
}

func TestUndoCriticalPathExceedsRedo(t *testing.T) {
	// Undo's log-before-data ordering charges per first-touch line during
	// the transaction; redo defers everything to commit. For the same
	// write set, undo's in-transaction time must be longer.
	elapsed := func(name string) sim.Duration {
		ctx := newCtx(t, 1)
		s := build(t, name, ctx)
		tx, now := s.TxBegin(0, 0)
		start := now
		var buf [8]byte
		for i := 0; i < 16; i++ {
			now = s.Store(0, tx, mem.PAddr(i)*mem.LineSize, buf[:], now)
		}
		return now - start
	}
	if elapsed(undo.SchemeName) <= elapsed(redo.SchemeName) {
		t.Fatal("undo stores must carry ordering cost on the critical path")
	}
}

func TestLSMLoadOverheadGrowsWithIndex(t *testing.T) {
	ctx := newCtx(t, 1)
	s := build(t, lsm.SchemeName, ctx).(*lsm.Scheme)
	small := s.LoadOverhead(0, 0x100, 0)
	for i := 0; i < 20000; i++ {
		runTx(s, ctx, 0, map[mem.PAddr]uint64{mem.PAddr(i) * 8: 1})
	}
	big := s.LoadOverhead(0, 0x100, 0)
	if big <= small {
		t.Fatalf("index lookup cost must grow with N: %v -> %v", small, big)
	}
}

func TestLADSpillOnLargeTx(t *testing.T) {
	ctx := newCtx(t, 1)
	s := build(t, lad.SchemeName, ctx)
	before := ctx.Stats.Get(sim.StatNVMBytesWritten)
	// 100 distinct lines exceed the 64-line queue: spills must appear
	// before commit.
	tx, now := s.TxBegin(0, 0)
	var buf [8]byte
	for i := 0; i < 100; i++ {
		now = s.Store(0, tx, mem.PAddr(i)*mem.LineSize, buf[:], now)
		ctx.View.Write(mem.PAddr(i)*mem.LineSize, buf[:])
	}
	preCommit := ctx.Stats.Get(sim.StatNVMBytesWritten)
	if preCommit == before {
		t.Fatal("oversized transaction should have spilled to NVM before commit")
	}
	s.TxEnd(0, tx, now)
}

// ExampleScheme_names lists the registry's schemes once every scheme
// package is linked in; a dropped or renamed scheme changes the output.
func ExampleScheme_names() {
	fmt.Println(strings.Join(persist.Registered(), " "))
	// Output: HOOP Ideal LAD LSM OSP Opt-Redo Opt-Undo
}
