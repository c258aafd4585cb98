package redo

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"testing"

	"hoop/internal/mem"
	"hoop/internal/persisttest"
	"hoop/internal/sim"
)

// ringGeometry sizes the log ring to hold records records, so tests can
// drive it to full and exercise the forced checkpoint.
func ringGeometry(records int) persisttest.Geometry {
	return persisttest.Geometry{
		HomeBytes: 1 << 20,
		OOPBytes:  uint64(mem.LineSize + records*(payloadSize+8)),
	}
}

// checkRedirects asserts that the redirect map mirrors the unapplied part
// of the checkpoint queue: its keys are exactly the queued lines, each
// pending count is that line's multiplicity there, and each redirect — the
// record a ReadMiss is served from — holds the line's newest queued image.
func checkRedirects(t *testing.T, s *Scheme, when string) {
	t.Helper()
	count := map[uint64]int32{}
	newest := map[uint64]*ckptItem{}
	for i := s.ckptHead; i < len(s.ckptQueue); i++ {
		item := &s.ckptQueue[i]
		count[item.line]++
		newest[item.line] = item
	}
	if s.redirect.Len() != len(count) {
		t.Fatalf("%s: %d redirects for %d queued lines", when, s.redirect.Len(), len(count))
	}
	store := s.ctx.Dev.Store()
	for line, n := range count {
		r, ok := s.redirect.Get(line)
		if !ok {
			t.Fatalf("%s: queued line %d has no redirect", when, line)
		}
		if r.pending != n {
			t.Fatalf("%s: line %d pending %d, queued %d times", when, line, r.pending, n)
		}
		var rec [8 + payloadSize]byte
		store.Read(r.at, rec[:])
		item := newest[line]
		if seq := binary.LittleEndian.Uint64(rec[0:]); seq != item.seq {
			t.Fatalf("%s: line %d redirect reads record seq %d, newest is %d", when, line, seq, item.seq)
		}
		if a := binary.LittleEndian.Uint64(rec[16:]); a != line<<mem.LineShift {
			t.Fatalf("%s: line %d redirect reads a record for %#x", when, line, a)
		}
		if !bytes.Equal(rec[24:], item.data[:]) {
			t.Fatalf("%s: line %d redirect image differs from its newest queued image", when, line)
		}
	}
}

// TestRedirectsTrackQueue drives seeded transactions over a small line pool
// (so lines recur in the queue) through a ring small enough to fill, with
// background ticks and explicit drains in between, and checks the redirect
// map against the queue after every step.
func TestRedirectsTrackQueue(t *testing.T) {
	ctx := persisttest.NewContextGeom(2, ringGeometry(700))
	s, err := New(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(7, 16))
	var forced, partial, midQueue int
	for step := 0; step < 6000; step++ {
		if s.ckptHead > 0 {
			midQueue++
		}
		switch op := rng.IntN(40); {
		case op < 36:
			words := map[mem.PAddr]uint64{}
			for n := 1 + rng.IntN(40); n > 0; n-- {
				words[mem.PAddr(rng.IntN(96)*mem.LineSize)] = rng.Uint64()
			}
			before := len(s.ckptQueue) - s.ckptHead
			persisttest.RunTx(s, ctx, rng.IntN(2), words)
			if len(s.ckptQueue)-s.ckptHead < before+len(words) {
				forced++
			}
			checkRedirects(t, s, "TxEnd")
		case op < 39:
			if len(s.ckptQueue)-s.ckptHead > checkpointBatch {
				partial++
			}
			s.Tick(sim.Time(step))
			checkRedirects(t, s, "Tick")
		default:
			s.forceCheckpoint(sim.Time(step))
			checkRedirects(t, s, "forceCheckpoint")
			if s.redirect.Len() != 0 || len(s.ckptQueue) != 0 || s.ckptHead != 0 {
				t.Fatalf("drain left %d redirects, queue %d, head %d", s.redirect.Len(), len(s.ckptQueue), s.ckptHead)
			}
		}
	}
	if forced == 0 || partial == 0 || midQueue == 0 {
		t.Fatalf("stream hit %d ring-full checkpoints, %d partial ticks and %d mid-queue heads; want all three",
			forced, partial, midQueue)
	}
	persisttest.RunTx(s, ctx, 0, map[mem.PAddr]uint64{0: 1, 64: 2})
	s.Crash()
	if len(s.ckptQueue) != 0 || s.ckptHead != 0 || s.redirect.Len() != 0 {
		t.Fatalf("Crash left queue %d, head %d, redirects %d", len(s.ckptQueue), s.ckptHead, s.redirect.Len())
	}
}

// TestCheckpointZeroAlloc locks zero allocations for steady-state commits
// and background checkpoint batches once the ring has wrapped and the
// queue, redirect map and touched pages have reached their working size.
func TestCheckpointZeroAlloc(t *testing.T) {
	ctx := persisttest.NewContextGeom(1, ringGeometry(512))
	s, err := New(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var val [8]byte
	i := 0
	step := func() {
		i++
		tx, now := s.TxBegin(0, sim.Time(i))
		for k := 0; k < 8; k++ {
			a := mem.PAddr((i*8+k)%200) * mem.LineSize
			now = s.Store(0, tx, a, val[:], now)
		}
		now = s.TxEnd(0, tx, now)
		if i%4 == 0 {
			s.Tick(now)
		}
	}
	for range 5000 {
		step()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("steady-state TxEnd+Tick allocates %v/run, want 0", allocs)
	}
}
