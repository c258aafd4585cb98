package hoop

import (
	"bytes"
	"testing"
	"testing/quick"

	"hoop/internal/mem"
	"hoop/internal/persist"
	"hoop/internal/persisttest"
	"hoop/internal/sim"
)

func TestDataSliceRoundtrip(t *testing.T) {
	f := func(seed uint64, count8 uint8, first bool) bool {
		r := sim.NewRand(seed)
		var ds DataSlice
		ds.Count = int(count8%8) + 1
		ds.First = first
		ds.TxID = persist.TxID(r.Uint64() & 0xFFFFFFFF)
		ds.Prev = mem.PAddr(r.Uint64() >> 20)
		for i := 0; i < ds.Count; i++ {
			ds.Addrs[i] = mem.PAddr((r.Uint64() % (1 << 37)) &^ 7)
			for b := range ds.Words[i] {
				ds.Words[i][b] = byte(r.Uint64())
			}
		}
		enc := ds.Encode()
		got, err := DecodeDataSlice(enc[:])
		if err != nil {
			return false
		}
		if got.Count != ds.Count || got.First != ds.First || got.TxID != ds.TxID || got.Prev != ds.Prev {
			return false
		}
		for i := 0; i < ds.Count; i++ {
			if got.Addrs[i] != ds.Addrs[i] || got.Words[i] != ds.Words[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDataSliceRejectsGarbage(t *testing.T) {
	var zero [SliceSize]byte
	if _, err := DecodeDataSlice(zero[:]); err == nil {
		t.Fatal("zeroed slice must not decode")
	}
	var short [10]byte
	if _, err := DecodeDataSlice(short[:]); err == nil {
		t.Fatal("short buffer must not decode")
	}
	var bad [SliceSize]byte
	bad[offFlags] = sliceTypeData << 4
	bad[offCount] = 9 // out of range
	if _, err := DecodeDataSlice(bad[:]); err == nil {
		t.Fatal("bad count must not decode")
	}
}

func TestAddr40Bounds(t *testing.T) {
	var b [8]byte
	putAddr40(b[:], (1<<40)-8)
	if getAddr40(b[:]) != (1<<40)-8 {
		t.Fatal("40-bit roundtrip")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic past 40 bits")
		}
	}()
	putAddr40(b[:], 1<<40)
}

func TestBlockHeaderRoundtrip(t *testing.T) {
	h := BlockHeader{State: BlkFull, Seq: 12345, Index: 42}
	enc := h.Encode()
	if got := DecodeBlockHeader(enc[:]); got != h {
		t.Fatalf("header roundtrip: %+v", got)
	}
}

func TestCommitRecRoundtrip(t *testing.T) {
	rec := encodeCommitRec(7, 9, 0x1234560, recFlagDecision)
	seq, tx, last, flags, ok := decodeCommitRec(rec[:])
	if !ok || seq != 7 || tx != 9 || last != 0x1234560 || flags != recFlagDecision {
		t.Fatalf("decoded %d %d %v %#x %v", seq, tx, last, flags, ok)
	}
	var zero [commitRecSize]byte
	if _, _, _, _, ok := decodeCommitRec(zero[:]); ok {
		t.Fatal("zero record must be invalid")
	}
}

func TestMapTableCapacity(t *testing.T) {
	mt := newMapTable(10*entryBytes, false)
	if mt.capacity != 10 {
		t.Fatalf("capacity = %d", mt.capacity)
	}
	for i := uint64(0); i < 10; i++ {
		mt.insert(i, mapEntry{slice: mem.PAddr(i)})
	}
	if !mt.overCap() {
		t.Fatal("table at capacity must report overCap")
	}
	if e, ok := mt.lookup(3); !ok || e.slice != 3 {
		t.Fatal("lookup failed")
	}
	if _, ok := mt.remove(3); !ok {
		t.Fatal("remove failed")
	}
	if _, ok := mt.lookup(3); ok {
		t.Fatal("removed entry still present")
	}
	mt.reset()
	if mt.len() != 0 {
		t.Fatal("reset must clear")
	}
}

func TestEvictBufferFIFO(t *testing.T) {
	b := newEvictBuffer(4 * evictBufEntryBytes)
	for i := uint64(0); i < 4; i++ {
		b.add(i)
	}
	if !b.contains(0) || b.len() != 4 {
		t.Fatal("buffer should hold 4 entries")
	}
	b.add(100) // displaces the oldest (0)
	if b.contains(0) {
		t.Fatal("oldest entry should have been displaced")
	}
	if !b.contains(100) || !b.contains(1) {
		t.Fatal("newer entries must survive")
	}
	b.add(1) // re-add is a no-op
	if b.len() != 4 {
		t.Fatalf("len = %d", b.len())
	}
}

// testScheme builds a HOOP scheme over the shared persisttest fixture (no
// engine): 1 GB home region with a 64 MB OOP region.
func testScheme(t *testing.T, cores int) (*Scheme, persist.Context) {
	t.Helper()
	ctx := persisttest.NewContext(cores)
	cfg := DefaultConfig()
	cfg.CommitLogBytes = 1 << 20
	s, err := New(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, ctx
}

// writeTx drives one transaction of word writes directly through the
// scheme (bypassing the cache hierarchy), mirroring them into view.
func writeTx(s *Scheme, ctx persist.Context, core int, words map[mem.PAddr]uint64) {
	persisttest.RunTx(s, ctx, core, words)
}

func TestSchemeCommitRecoverRoundtrip(t *testing.T) {
	s, ctx := testScheme(t, 2)
	oracle := map[mem.PAddr]uint64{}
	r := sim.NewRand(5)
	for i := 0; i < 200; i++ {
		words := map[mem.PAddr]uint64{}
		for j := 0; j < 1+r.Intn(12); j++ {
			words[mem.PAddr(r.Intn(4096))*8] = r.Uint64()
		}
		writeTx(s, ctx, i%2, words)
		for a, v := range words {
			oracle[a] = v
		}
	}
	s.Crash()
	if _, err := s.Recover(4); err != nil {
		t.Fatal(err)
	}
	for a, v := range oracle {
		if got := ctx.Dev.Store().ReadWord(a); got != v {
			t.Fatalf("word %v = %#x, want %#x", a, got, v)
		}
	}
}

func TestSchemeUncommittedTxIsInvisibleAfterCrash(t *testing.T) {
	s, ctx := testScheme(t, 1)
	// Committed transaction.
	writeTx(s, ctx, 0, map[mem.PAddr]uint64{0x100: 1, 0x200: 2})
	// Open (never committed) transaction with flushed slices.
	tx, now := s.TxBegin(0, 0)
	for i := 0; i < 20; i++ { // > 8 words forces slice flushes
		var buf [8]byte
		buf[0] = 0xEE
		now = s.Store(0, tx, mem.PAddr(0x1000+i*8), buf[:], now)
	}
	s.Crash()
	if _, err := s.Recover(2); err != nil {
		t.Fatal(err)
	}
	st := ctx.Dev.Store()
	if st.ReadWord(0x100) != 1 || st.ReadWord(0x200) != 2 {
		t.Fatal("committed data lost")
	}
	for i := 0; i < 20; i++ {
		if st.ReadWord(mem.PAddr(0x1000+i*8)) != 0 {
			t.Fatalf("uncommitted store leaked to home at %#x", 0x1000+i*8)
		}
	}
}

func TestGCMigratesAndCoalesces(t *testing.T) {
	s, ctx := testScheme(t, 1)
	// Ten transactions overwrite the same two words; GC must write each
	// home word once with the newest value.
	for i := uint64(1); i <= 10; i++ {
		writeTx(s, ctx, 0, map[mem.PAddr]uint64{0x40: i, 0x80: i * 100})
	}
	end := s.ForceGC(0)
	if end <= 0 {
		t.Fatal("GC must take time")
	}
	st := ctx.Dev.Store()
	if st.ReadWord(0x40) != 10 || st.ReadWord(0x80) != 1000 {
		t.Fatalf("home after GC: %d %d", st.ReadWord(0x40), st.ReadWord(0x80))
	}
	if s.PendingCommits() != 0 {
		t.Fatal("GC must clear the pending set")
	}
	red := s.DataReduction()
	if red < 0.85 {
		t.Fatalf("10x overwrite of 2 words should coalesce ~90%%, got %.2f", red)
	}
	// Second GC with nothing pending is a no-op for data.
	mig := s.GCMigratedBytes()
	s.ForceGC(end)
	if s.GCMigratedBytes() != mig {
		t.Fatal("empty GC migrated data")
	}
}

func TestGCIdempotentUnderReplay(t *testing.T) {
	// Crash after GC (watermark written) must not replay migrated txs.
	s, ctx := testScheme(t, 1)
	writeTx(s, ctx, 0, map[mem.PAddr]uint64{0x40: 7})
	s.ForceGC(0)
	// A later transaction writes a different value.
	writeTx(s, ctx, 0, map[mem.PAddr]uint64{0x40: 9})
	s.Crash()
	if _, err := s.Recover(2); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Dev.Store().ReadWord(0x40); got != 9 {
		t.Fatalf("post-recovery value %d, want 9 (stale replay?)", got)
	}
}

func TestQuickRandomCrashRecovery(t *testing.T) {
	f := func(seed uint64) bool {
		s, ctx := testScheme(t, 2)
		r := sim.NewRand(seed)
		oracle := map[mem.PAddr]uint64{}
		n := 20 + r.Intn(60)
		for i := 0; i < n; i++ {
			words := map[mem.PAddr]uint64{}
			for j := 0; j < 1+r.Intn(10); j++ {
				words[mem.PAddr(r.Intn(256))*8] = r.Uint64()
			}
			writeTx(s, ctx, i%2, words)
			for a, v := range words {
				oracle[a] = v
			}
			if r.Bool(0.1) {
				s.ForceGC(0)
			}
		}
		s.Crash()
		if _, err := s.Recover(1 + r.Intn(4)); err != nil {
			return false
		}
		for a, v := range oracle {
			if ctx.Dev.Store().ReadWord(a) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSyntheticFillRecovers(t *testing.T) {
	s, ctx := testScheme(t, 1)
	filled, err := s.SyntheticFill(500, 16, 1<<20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if filled != 500*2*SliceSize {
		t.Fatalf("filled %d bytes", filled)
	}
	s.Crash()
	rep, err := s.RecoverWithReport(4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CommittedTxs != 500 || rep.SlicesScanned != 1000 {
		t.Fatalf("report %+v", rep)
	}
	if rep.WordsRecovered == 0 || rep.ModeledTime <= 0 {
		t.Fatalf("report %+v", rep)
	}
	// The model is monotone in threads and bandwidth.
	if ModelRecoveryTime(rep, 8, 10<<30) > ModelRecoveryTime(rep, 1, 10<<30) {
		t.Fatal("more threads should not slow recovery")
	}
	if ModelRecoveryTime(rep, 8, 30<<30) > ModelRecoveryTime(rep, 8, 10<<30) {
		t.Fatal("more bandwidth should not slow recovery")
	}
	_ = ctx
}

func TestUniformWearAcrossBlocks(t *testing.T) {
	s, ctx := testScheme(t, 1)
	// Fill enough slices to cycle through several blocks, with periodic GC
	// so blocks recycle round-robin.
	for round := 0; round < 6; round++ {
		if _, err := s.SyntheticFill(1200, 64, 1<<20, uint64(round)); err != nil {
			t.Fatal(err)
		}
		s.ForceGC(0)
	}
	dataRegion := mem.Region{Base: s.blockBase, Size: uint64(s.nBlocks) * BlockSize}
	buckets, minW, maxW, total := ctx.Dev.WearInRegion(dataRegion)
	if buckets < 4 || total == 0 {
		t.Fatalf("wear did not spread: %d buckets, %d bytes", buckets, total)
	}
	if maxW > 30*minW {
		t.Fatalf("wear imbalance: min %d max %d over %d buckets", minW, maxW, buckets)
	}
}

func TestReadMissRouting(t *testing.T) {
	s, ctx := testScheme(t, 1)
	// A committed write followed by an eviction creates a mapping entry;
	// the read must hit it and remove it.
	writeTx(s, ctx, 0, map[mem.PAddr]uint64{0x40: 1, 0x48: 2})
	s.Evict(0, 0x40, 0)
	if s.MappingTableLen() != 1 {
		t.Fatalf("mapping entries = %d, want 1", s.MappingTableLen())
	}
	done, dirty := s.ReadMiss(0, 0x40, 0)
	if !dirty {
		t.Fatal("mapping-table hit must fill dirty")
	}
	if done <= 0 {
		t.Fatal("read must take time")
	}
	if s.MappingTableLen() != 0 {
		t.Fatal("entry must be removed on read (newest version now cached)")
	}
	if ctx.Stats.Get(sim.StatMapHits) != 1 {
		t.Fatal("map hit not counted")
	}
	// Second miss goes to the home region.
	s.ReadMiss(0, 0x40, 0)
	if ctx.Stats.Get(sim.StatMapMisses) != 1 {
		t.Fatal("map miss not counted")
	}
}

func TestEvictionOfMigratedLineIsDropped(t *testing.T) {
	s, ctx := testScheme(t, 1)
	writeTx(s, ctx, 0, map[mem.PAddr]uint64{0x40: 1})
	s.ForceGC(0)
	before := ctx.Stats.Get(sim.StatNVMBytesWritten)
	s.Evict(0, 0x40, 0)
	if got := ctx.Stats.Get(sim.StatNVMBytesWritten); got != before {
		t.Fatalf("eviction of a migrated line wrote %d bytes", got-before)
	}
	if s.MappingTableLen() != 0 {
		t.Fatal("no mapping entry should exist for a home-current line")
	}
}

func TestLayoutRegionValidation(t *testing.T) {
	if _, _, _, _, err := layoutRegion(mem.Region{Base: 0, Size: 1 << 20}, 4<<20, 1); err == nil {
		t.Fatal("oversized commit log must fail")
	}
	if _, _, _, _, err := layoutRegion(mem.Region{Base: 0, Size: 3 << 20}, 1<<20, 1); err == nil {
		t.Fatal("region without two blocks must fail")
	}
	if _, _, _, _, err := layoutRegion(mem.Region{Base: 0, Size: 64 << 20}, 1<<20, 0); err == nil {
		t.Fatal("zero controllers must fail")
	}
	wm, logs, base, n, err := layoutRegion(mem.Region{Base: 1 << 30, Size: 64 << 20}, 1<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if wm != 1<<30 || len(logs) != 1 || logs[0].base != (1<<30)+mem.LineSize || n < 2 {
		t.Fatalf("layout: wm=%v base=%v n=%d", wm, base, n)
	}
	// Two controllers split the ring budget and stripe the blocks.
	_, logs2, _, n2, err := layoutRegion(mem.Region{Base: 1 << 30, Size: 64 << 20}, 1<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(logs2) != 2 || logs2[0].capacity != logs[0].capacity/2 || n2 < 4 {
		t.Fatalf("two-controller layout: %d logs, cap %d", len(logs2), logs2[0].capacity)
	}
}

func TestTableIVStyleReductionGrows(t *testing.T) {
	red := func(txs int) float64 {
		s, ctx := testScheme(t, 1)
		r := sim.NewRand(1)
		for i := 0; i < txs; i++ {
			words := map[mem.PAddr]uint64{}
			for j := 0; j < 8; j++ {
				words[mem.PAddr(r.Intn(64))*8] = r.Uint64()
			}
			writeTx(s, ctx, 0, words)
		}
		s.ForceGC(0)
		return s.DataReduction()
	}
	r10, r100, r1000 := red(10), red(100), red(1000)
	if !(r10 < r100 && r100 < r1000) {
		t.Fatalf("reduction must grow: %.2f %.2f %.2f", r10, r100, r1000)
	}
	if r1000 < 0.8 {
		t.Fatalf("heavy overwrite of 64 words should coalesce > 80%%: %.2f", r1000)
	}
}

func TestMapEntryBytesMatchPaper(t *testing.T) {
	if entryBytes != 16 {
		t.Fatal("the paper budgets 16 bytes per mapping entry")
	}
	if DefaultConfig().MapTableBytes != 2<<20 {
		t.Fatal("default mapping table must be 2 MB")
	}
	if DefaultConfig().GCPeriod != 10*sim.Millisecond {
		t.Fatal("default GC period must be 10 ms")
	}
}

func TestWordsOfSplitsAndValidates(t *testing.T) {
	ws := persist.WordsOf(0x100, bytes.Repeat([]byte{1}, 24))
	if len(ws) != 3 || ws[1].Addr != 0x108 {
		t.Fatalf("WordsOf: %+v", ws)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("misaligned store must panic")
		}
	}()
	persist.WordsOf(0x101, make([]byte, 8))
}

// PendingCommits reports committed-but-unmigrated transactions.
func (s *Scheme) PendingCommits() int { return len(s.pending) }
