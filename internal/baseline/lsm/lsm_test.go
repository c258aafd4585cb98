package lsm

import (
	"encoding/binary"
	"testing"

	"hoop/internal/mem"
	"hoop/internal/persist"
	"hoop/internal/persisttest"
	"hoop/internal/sim"
	"hoop/internal/skiplist"
)

func testScheme(t *testing.T) *Scheme {
	t.Helper()
	// A GC period far past every test's clock: only ForceGC migrates.
	s, err := New(persisttest.NewContext(2), Config{GCPeriod: sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// store writes words as one record per call: vals[i] lands at addr+8i.
func store(s *Scheme, tx persist.TxID, addr mem.PAddr, vals ...uint64) {
	buf := make([]byte, len(vals)*mem.WordSize)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[i*mem.WordSize:], v)
	}
	s.Store(0, tx, addr, buf, 0)
}

func homeWord(s *Scheme, a mem.PAddr) uint64 {
	var b [mem.WordSize]byte
	s.ctx.Dev.Store().Read(a, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// TestForceGCMigratesNewestCommitted checks that a GC pass writes exactly
// the newest committed value of every logged word to its home address:
// later commits win over earlier ones within and across records, records
// of an aborted transaction are skipped, and the migrated byte count is
// one word per distinct committed word.
func TestForceGCMigratesNewestCommitted(t *testing.T) {
	s := testScheme(t)
	const a = mem.PAddr(0x4000) // line-aligned
	want := map[mem.PAddr]uint64{}
	put := func(addr mem.PAddr, vals ...uint64) {
		for i, v := range vals {
			want[addr+mem.PAddr(i*mem.WordSize)] = v
		}
	}

	tx1, _ := s.TxBegin(0, 0)
	store(s, tx1, a, 1, 2, 3, 4) // words 0-3 of line a
	store(s, tx1, a+16, 30)      // overwrites word 2 in the same tx
	store(s, tx1, a+56, 7, 8)    // straddles into the next line
	s.TxEnd(0, tx1, 0)
	put(a, 1, 2, 30, 4)
	put(a+56, 7, 8)

	tx2, _ := s.TxBegin(0, 0)
	store(s, tx2, a+8, 99, 99) // aborted: must never reach home
	store(s, tx2, a+0x1000, 99)
	s.TxAbort(0, tx2, 0)

	tx3, _ := s.TxBegin(0, 0)
	store(s, tx3, a+24, 40)
	store(s, tx3, a+64, 80) // newer than tx1's word at a+64
	store(s, tx3, a+0x2008, 5)
	s.TxEnd(0, tx3, 0)
	put(a+24, 40)
	put(a+64, 80)
	put(a+0x2008, 5)

	migrated := s.statGCMigrated.Value()
	s.ForceGC(0)
	for addr, v := range want {
		if got := homeWord(s, addr); got != v {
			t.Errorf("home word %v = %d, want %d", addr, got, v)
		}
	}
	for _, addr := range []mem.PAddr{a + 0x1000, a + 0x2000, a + 72} {
		if got := homeWord(s, addr); got != 0 {
			t.Errorf("home word %v = %d, want untouched 0", addr, got)
		}
	}
	if got, wantB := s.statGCMigrated.Value()-migrated, int64(len(want)*mem.WordSize); got != wantB {
		t.Errorf("migrated %d bytes, want %d (one per distinct committed word)", got, wantB)
	}
	if s.index.Len() != 0 || len(s.records) != 0 || s.lineWords.Len() != 0 {
		t.Errorf("GC left index=%d records=%d lineWords=%d, want an empty log", s.index.Len(), len(s.records), s.lineWords.Len())
	}
}

// TestGCSteadyCadenceZeroAlloc locks the steady state of a transaction
// stream with periodic GC: once the record list, the index slab and the
// coalescing table cover one GC epoch, a whole epoch — transactions plus
// the pass that migrates them — performs no allocation.
func TestGCSteadyCadenceZeroAlloc(t *testing.T) {
	s := testScheme(t)
	var buf [4 * mem.WordSize]byte
	now := sim.Time(0)
	epoch := func() {
		for i := 0; i < 32; i++ {
			tx, n := s.TxBegin(0, now)
			buf[0] = byte(i)
			now = s.Store(0, tx, mem.PAddr(0x1000+(i%8)*64), buf[:], n)
			now = s.TxEnd(0, tx, now)
		}
		s.ForceGC(now)
	}
	for i := 0; i < 4; i++ {
		epoch()
	}
	if allocs := testing.AllocsPerRun(20, epoch); allocs != 0 {
		t.Fatalf("steady GC epoch allocates %v times, want 0", allocs)
	}
}

// TestStoreMatchesPerWordIndex holds Store's one-call index insertion to
// the per-word loop it replaces: a twin skip list gets one Set per word,
// and every Store must return the time those hops charge. Stores span one
// to several lines, odd lengths included, and GC passes clear the index
// between bursts. The per-line word counts must match a plain map.
func TestStoreMatchesPerWordIndex(t *testing.T) {
	s := testScheme(t)
	twin := skiplist.New(0xBEEF)
	lineWords := map[uint64]int32{}
	rng := sim.NewRand(3)
	now := sim.Time(0)
	for i := 0; i < 3000; i++ {
		tx, _ := s.TxBegin(0, now)
		n := 1 + rng.Intn(200)
		addr := mem.PAddr(0x1000 + rng.Intn(4096)*mem.WordSize)
		got := s.Store(0, tx, addr, make([]byte, n), now)
		at := s.records[len(s.records)-1].at
		hops := 0
		for off := 0; off < n; off += mem.WordSize {
			w := addr + mem.PAddr(off)
			hops = max(hops, twin.Set(uint64(w), uint64(at+recHdrSize+mem.PAddr(off))))
			lineWords[mem.LineIndex(w)]++
		}
		if want := now + indexInsertBase + sim.Duration(hops)*indexHopCost; got != want {
			t.Fatalf("store %d (%d bytes at %#x): Store returned %v, per-word loop %v", i, n, addr, got, want)
		}
		now = s.TxEnd(0, tx, got)
		if rng.Intn(500) == 0 {
			s.ForceGC(now)
			twin.Clear()
			clear(lineWords)
		}
	}
	for line, want := range lineWords {
		if got, _ := s.lineWords.Get(line); got != want {
			t.Fatalf("line %#x: %d log-resident words, want %d", line, got, want)
		}
	}
}
