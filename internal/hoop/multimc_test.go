package hoop

import (
	"testing"
	"testing/quick"

	"hoop/internal/mem"
	"hoop/internal/persist"
	"hoop/internal/persisttest"
	"hoop/internal/sim"
)

// testSchemeMC builds a HOOP scheme with n memory controllers.
func testSchemeMC(t *testing.T, cores, controllers int) (*Scheme, persist.Context) {
	t.Helper()
	ctx := persisttest.NewContext(cores)
	cfg := DefaultConfig()
	cfg.CommitLogBytes = 1 << 20
	cfg.Controllers = controllers
	s, err := New(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, ctx
}

func TestMultiMCCommitRecoverRoundtrip(t *testing.T) {
	for _, n := range []int{2, 4} {
		n := n
		t.Run(map[int]string{2: "2MC", 4: "4MC"}[n], func(t *testing.T) {
			s, ctx := testSchemeMC(t, 2, n)
			if s.Controllers() != n {
				t.Fatalf("Controllers = %d", s.Controllers())
			}
			oracle := map[mem.PAddr]uint64{}
			r := sim.NewRand(21)
			for i := 0; i < 200; i++ {
				words := map[mem.PAddr]uint64{}
				for j := 0; j < 1+r.Intn(12); j++ {
					// Addresses spread over many lines so transactions
					// span controllers.
					words[mem.PAddr(r.Intn(8192))*8] = r.Uint64()
				}
				writeTx(s, ctx, i%2, words)
				for a, v := range words {
					oracle[a] = v
				}
				if r.Bool(0.05) {
					s.ForceGC(0)
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
		})
	}
}

func TestMultiMCUndecidedTxRollsBack(t *testing.T) {
	// A transaction whose PREPARE records were persisted but whose
	// coordinator DECISION record never landed must roll back: this is
	// the crash window between the two phases of §III-I's protocol.
	s, ctx := testSchemeMC(t, 1, 2)
	// One fully committed transaction on both controllers.
	writeTx(s, ctx, 0, map[mem.PAddr]uint64{0x00: 1, 0x40: 2}) // lines 0 and 1 -> MCs 0 and 1
	// Manually construct a prepared-but-undecided transaction: a chain on
	// MC 1 with only a PREPARE record.
	tx := s.alloc.Next()
	var ds DataSlice
	ds.Count = 1
	ds.Addrs[0] = 0x48 // line 1 -> MC 1
	ds.Words[0] = [8]byte{0xEE}
	ds.First = true
	ds.TxID = tx
	a, blk, _ := s.allocSlice(0, 1, 0)
	enc := ds.Encode()
	ctx.Dev.Store().Write(a, enc[:])
	s.blocks[blk].live++
	seq := s.nextSeq
	s.nextSeq++
	s.appendCommitRec(1, seq, tx, a, 0) // PREPARE only, no decision
	s.Crash()
	if _, err := s.Recover(2); err != nil {
		t.Fatal(err)
	}
	st := ctx.Dev.Store()
	if st.ReadWord(0x00) != 1 || st.ReadWord(0x40) != 2 {
		t.Fatal("committed two-controller transaction lost")
	}
	if st.ReadWord(0x48) != 0 {
		t.Fatal("prepared-but-undecided transaction leaked to the home region")
	}
}

func TestMultiMCCommitCostsMore(t *testing.T) {
	// A transaction spanning two controllers pays the prepare/commit
	// rounds; a single-controller transaction of the same size does not.
	commitCost := func(addrs []mem.PAddr) sim.Duration {
		s, _ := testSchemeMC(t, 1, 2)
		tx, now := s.TxBegin(0, 0)
		var buf [8]byte
		for _, a := range addrs {
			now = s.Store(0, tx, a, buf[:], now)
		}
		before := now
		return s.TxEnd(0, tx, now) - before
	}
	oneMC := commitCost([]mem.PAddr{0x00, 0x08}) // both words on line 0 -> MC 0
	twoMC := commitCost([]mem.PAddr{0x00, 0x40}) // lines 0,1 -> MCs 0,1
	if twoMC <= oneMC {
		t.Fatalf("two-phase commit should cost more: %v vs %v", twoMC, oneMC)
	}
	if twoMC < oneMC+2*interMCLatency {
		t.Fatalf("missing prepare/commit rounds: %v vs %v", twoMC, oneMC)
	}
}

func TestMultiMCBlockStriping(t *testing.T) {
	s, ctx := testSchemeMC(t, 1, 2)
	// Words on even lines go to MC 0, odd lines to MC 1; their slices
	// must land in the corresponding block stripes.
	writeTx(s, ctx, 0, map[mem.PAddr]uint64{0x00: 1}) // MC 0
	writeTx(s, ctx, 0, map[mem.PAddr]uint64{0x40: 2}) // MC 1
	b0 := s.sliceOf(0)
	b1 := s.sliceOf(1)
	if blockOf(s.blockBase, b0)%2 != 0 {
		t.Fatalf("MC 0 slice landed in block %d", blockOf(s.blockBase, b0))
	}
	if blockOf(s.blockBase, b1)%2 != 1 {
		t.Fatalf("MC 1 slice landed in block %d", blockOf(s.blockBase, b1))
	}
}

func TestMultiMCSyntheticFillAndGC(t *testing.T) {
	s, ctx := testSchemeMC(t, 1, 2)
	if _, err := s.SyntheticFill(300, 16, 1<<20, 5); err != nil {
		t.Fatal(err)
	}
	s.ForceGC(0)
	if s.PendingCommits() != 0 {
		t.Fatal("GC left pending chains")
	}
	// Everything must be recoverable and idempotent after the GC too.
	writeTx(s, ctx, 0, map[mem.PAddr]uint64{0x80: 42})
	s.Crash()
	if _, err := s.Recover(2); err != nil {
		t.Fatal(err)
	}
	if ctx.Dev.Store().ReadWord(0x80) != 42 {
		t.Fatal("post-GC commit lost")
	}
}

func TestCrashBetweenGCMigrationAndWatermark(t *testing.T) {
	// §III-E: GC is crash-safe because the OOP region stays consistent.
	// The riskiest window is after the GC has written migrated data to
	// the home region but before the durable watermark advances: on
	// recovery the same transactions are replayed, which must be
	// idempotent. Emulate that window by rolling the durable watermark
	// back after a completed GC.
	s, ctx := testSchemeMC(t, 1, 1)
	oracle := map[mem.PAddr]uint64{}
	r := sim.NewRand(77)
	for i := 0; i < 60; i++ {
		words := map[mem.PAddr]uint64{}
		for j := 0; j < 1+r.Intn(6); j++ {
			words[mem.PAddr(r.Intn(256))*8] = r.Uint64()
		}
		writeTx(s, ctx, 0, words)
		for a, v := range words {
			oracle[a] = v
		}
	}
	oldWM := s.watermark
	s.ForceGC(0)
	// Roll the watermark back to the pre-GC value: exactly the durable
	// state a crash in the GC's migrate-then-watermark window leaves.
	s.writeWatermark(oldWM)
	s.Crash()
	if _, err := s.Recover(2); err != nil {
		t.Fatal(err)
	}
	for a, v := range oracle {
		if got := ctx.Dev.Store().ReadWord(a); got != v {
			t.Fatalf("replay after mid-GC crash diverged at %v", a)
		}
	}
}

func TestRecoveryRestartIsIdempotent(t *testing.T) {
	// §III-F: "When system crashes or failures happen during the
	// recovery, HOOP can restart the recovery procedure." A crash right
	// after a completed recovery — or a doubled recovery — must yield the
	// same home-region state.
	s, ctx := testSchemeMC(t, 1, 2)
	oracle := map[mem.PAddr]uint64{}
	r := sim.NewRand(31)
	for i := 0; i < 80; i++ {
		words := map[mem.PAddr]uint64{}
		for j := 0; j < 1+r.Intn(8); j++ {
			words[mem.PAddr(r.Intn(1024))*8] = r.Uint64()
		}
		writeTx(s, ctx, 0, words)
		for a, v := range words {
			oracle[a] = v
		}
	}
	s.Crash()
	if _, err := s.Recover(2); err != nil {
		t.Fatal(err)
	}
	// Crash again immediately (recovery state fully durable) and recover
	// once more.
	s.Crash()
	if _, err := s.Recover(3); err != nil {
		t.Fatal(err)
	}
	for a, v := range oracle {
		if got := ctx.Dev.Store().ReadWord(a); got != v {
			t.Fatalf("double recovery diverged at %v: %#x != %#x", a, got, v)
		}
	}
	// And the system still works afterwards.
	writeTx(s, ctx, 0, map[mem.PAddr]uint64{0x200: 123})
	s.Crash()
	if _, err := s.Recover(1); err != nil {
		t.Fatal(err)
	}
	if ctx.Dev.Store().ReadWord(0x200) != 123 {
		t.Fatal("post-restart commit lost")
	}
}

func TestMultiMCQuickRandom(t *testing.T) {
	f := func(seed uint64) bool {
		s, ctx := testSchemeMC(t, 2, 2)
		r := sim.NewRand(seed)
		oracle := map[mem.PAddr]uint64{}
		for i := 0; i < 15+r.Intn(40); i++ {
			words := map[mem.PAddr]uint64{}
			for j := 0; j < 1+r.Intn(8); j++ {
				words[mem.PAddr(r.Intn(512))*8] = r.Uint64()
			}
			writeTx(s, ctx, i%2, words)
			for a, v := range words {
				oracle[a] = v
			}
		}
		s.Crash()
		if _, err := s.Recover(2); err != nil {
			return false
		}
		for a, v := range oracle {
			if ctx.Dev.Store().ReadWord(a) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Controllers reports the configured memory-controller count.
func (s *Scheme) Controllers() int { return s.nMC }
