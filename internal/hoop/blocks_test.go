package hoop

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"hoop/internal/persist"
	"hoop/internal/persisttest"
)

// blockAt reads block i's record as an eagerly built table would hold it:
// a block past the end of the grown table is unused with sequence 0.
func (s *Scheme) blockAt(i int) blockInfo {
	if i < len(s.blocks) {
		return s.blocks[i]
	}
	return blockInfo{}
}

// TestBlockTableGrowsOnDemand runs one fill/GC schedule on two HOOP
// schemes over identical two-controller fixtures with a five-block OOP
// region: one as built, whose block table grows as the stripe scans reach
// new blocks, and an eager model whose table the test grows to every block
// right after construction. The schedule
// wraps every controller's stripe at least twice, with a crash and
// recovery after the first wrap. After every round the two must agree on
// every block record, the scan cursors, the active blocks, the activation
// sequence and the bytes of the whole OOP region.
func TestBlockTableGrowsOnDemand(t *testing.T) {
	geom := persisttest.Geometry{HomeBytes: 64 << 20, OOPBytes: 12 << 20}
	build := func() (*Scheme, persist.Context) {
		ctx := persisttest.NewContextGeom(1, geom)
		cfg := DefaultConfig()
		cfg.CommitLogBytes = 1 << 20
		cfg.Controllers = 2
		s, err := New(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s, ctx
	}
	lazy, lctx := build()
	eager, ectx := build()
	if len(lazy.blocks) != 0 {
		t.Fatalf("a new scheme holds %d block records, want 0", len(lazy.blocks))
	}
	eager.growBlocks(eager.nBlocks - 1)

	n := lazy.nBlocks
	stripe := func(m int) int { return (n - m + lazy.nMC - 1) / lazy.nMC }
	activations := make([]int, lazy.nMC) // per controller, counted on the model
	wrapped := func(times int) bool {
		for m, a := range activations {
			if a < times*stripe(m) {
				return false
			}
		}
		return true
	}
	crashed := false
	for round := 0; !wrapped(2); round++ {
		if round > 200 {
			t.Fatalf("stripes did not wrap twice in 200 rounds: activations %v", activations)
		}
		before := make([]uint64, n)
		for i := range before {
			before[i] = eager.blocks[i].seq
		}
		for _, s := range []*Scheme{lazy, eager} {
			if _, err := s.SyntheticFill(600, 64, 1<<20, uint64(round)); err != nil {
				t.Fatal(err)
			}
			s.ForceGC(0)
		}
		for i := range before {
			if eager.blocks[i].seq != before[i] {
				activations[i%lazy.nMC]++
			}
		}
		if !crashed && wrapped(1) {
			crashed = true
			for _, s := range []*Scheme{lazy, eager} {
				s.Crash()
				if _, err := s.Recover(1); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < n; i++ {
			if got, want := lazy.blockAt(i), eager.blocks[i]; got != want {
				t.Fatalf("round %d: block %d is %+v, eager model holds %+v", round, i, got, want)
			}
		}
		for m := range lazy.active {
			if lazy.active[m] != eager.active[m] || lazy.nextScan[m] != eager.nextScan[m] {
				t.Fatalf("round %d: controller %d active %d scan %d, eager model active %d scan %d",
					round, m, lazy.active[m], lazy.nextScan[m], eager.active[m], eager.nextScan[m])
			}
		}
		if lazy.nextBlkSeq != eager.nextBlkSeq || lazy.freeBlocks != eager.freeBlocks {
			t.Fatalf("round %d: block seq %d free %d, eager model %d free %d",
				round, lazy.nextBlkSeq, lazy.freeBlocks, eager.nextBlkSeq, eager.freeBlocks)
		}
		oop := lctx.Layout.OOP
		a, b := make([]byte, oop.Size), make([]byte, oop.Size)
		lctx.Dev.Store().Read(oop.Base, a)
		ectx.Dev.Store().Read(oop.Base, b)
		if !bytes.Equal(a, b) {
			t.Fatalf("round %d: OOP region bytes differ from the eager model's", round)
		}
	}
	if !crashed {
		t.Fatal("the schedule never crashed between wraps")
	}
}

// TestNewAllocatesLittle locks the bytes hoop.New allocates for a
// 512 GB-class machine (a 52 GB OOP region, about 26k blocks). The block
// table starts empty, so construction must not pay one 48-byte record per
// block (1.2 MB in all).
func TestNewAllocatesLittle(t *testing.T) {
	ctx := persisttest.NewContextGeom(8, persisttest.Geometry{HomeBytes: 460 << 30, OOPBytes: 52 << 30})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := New(ctx, DefaultConfig())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if s.nBlocks < 25000 {
		t.Fatalf("layout holds %d blocks, want a 512 GB-class region", s.nBlocks)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 16<<10 {
		t.Errorf("hoop.New allocated %d bytes, budget is %d", got, 16<<10)
	}
}

// TestHomePast40BitsRejected checks that HOOP refuses, at construction, a
// home region that ends past what a data slice's 40-bit home-address field
// can name, and still builds one that ends at 2^40.
func TestHomePast40BitsRejected(t *testing.T) {
	for _, tc := range []struct {
		home uint64
		ok   bool
	}{
		{1 << 40, true},
		{1<<40 + 1<<30, false},
	} {
		ctx := persisttest.NewContextGeom(1, persisttest.Geometry{HomeBytes: tc.home, OOPBytes: 64 << 20})
		_, err := New(ctx, DefaultConfig())
		if tc.ok && err != nil {
			t.Errorf("home of %d bytes: %v", tc.home, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "40-bit")) {
			t.Errorf("home of %d bytes: got error %v, want one naming the 40-bit field", tc.home, err)
		}
	}
}
