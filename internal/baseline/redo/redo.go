// Package redo implements the Opt-Redo comparison point, modeled on WrAP
// (Doshi et al., HPCA'16 [13]): hardware redo logging with asynchronous
// data checkpointing, log truncation, and combining. A transaction's dirty
// lines are streamed to the redo log at commit ("one flush for the redo
// logs"), each entry occupying two cache lines — the data line plus a
// metadata line — which is what makes Opt-Redo the most bandwidth-hungry
// scheme in Figure 8 even though its critical path is shorter than undo
// logging's. A background checkpointer later applies committed values in
// place and truncates the log.
package redo

import (
	"encoding/binary"
	"fmt"
	"slices"

	"hoop/internal/baseline/logring"
	"hoop/internal/mem"
	"hoop/internal/persist"
	"hoop/internal/sim"
	"hoop/internal/telemetry"
	"hoop/internal/u64map"
)

// Record payload: [flags|txid u64][home line addr u64][64-byte new image].
const (
	payloadSize = 8 + 8 + mem.LineSize
	commitFlag  = uint64(1) << 63
)

// Accounted traffic: a redo entry is two cache lines (data + metadata); a
// commit record is a 16-byte marker; a checkpoint write is one line.
const (
	entryTraffic  = 2 * mem.LineSize
	commitTraffic = 16
)

// checkpointBatch bounds how many lines the background checkpointer applies
// per Tick, so checkpoint traffic spreads over time instead of arriving in
// bursts.
const checkpointBatch = 256

// Scheme is the hardware redo-logging baseline.
type Scheme struct {
	ctx   persist.Context
	alloc persist.TxnAllocator
	ring  *logring.Ring

	// Per-core live transaction write sets, epoch-cleared per transaction.
	txLines []u64map.Set

	// redirect points reads of not-yet-checkpointed lines at their newest
	// log entry (WrAP's victim/redirect path). Its keys are exactly the
	// lines in ckptQueue[ckptHead:], each with its multiplicity there.
	redirect u64map.Map[redirectEntry]

	// ckptQueue holds committed line images awaiting in-place apply, in
	// commit order; items before ckptHead are already applied.
	ckptQueue []ckptItem
	ckptHead  int
	ckptAgent int

	// Reused scratch state so steady-state commits perform no allocation.
	lineScratch []uint64

	statTxCommitted *sim.Counter
}

// redirectEntry is a line's newest log entry and the number of its images
// still waiting in the checkpoint queue; the redirect retires when the
// count reaches zero.
type redirectEntry struct {
	at      mem.PAddr
	pending int32
}

type ckptItem struct {
	line uint64
	seq  uint64
	data [mem.LineSize]byte
}

// New builds the scheme; the redo log occupies the layout's OOP region.
func New(ctx persist.Context) (*Scheme, error) {
	ring, err := logring.New(ctx.Layout.OOP, payloadSize)
	if err != nil {
		return nil, fmt.Errorf("redo: %w", err)
	}
	return &Scheme{
		ctx:             ctx,
		ring:            ring,
		txLines:         make([]u64map.Set, ctx.Cores),
		ckptAgent:       ctx.Cores + 1,
		statTxCommitted: ctx.Stats.Counter(sim.StatTxCommitted),
	}, nil
}

// SchemeName is the registry name and figure label of this baseline.
const SchemeName = "Opt-Redo"

func init() {
	persist.Register(SchemeName, func(ctx persist.Context, opt any) (persist.Scheme, error) {
		if opt != nil {
			return nil, fmt.Errorf("redo: scheme takes no options, got %T", opt)
		}
		return New(ctx)
	})
}

var _ persist.Quiescer = (*Scheme)(nil)

// Name implements persist.Scheme.
func (s *Scheme) Name() string { return SchemeName }

// Quiesce implements persist.Quiescer: drain the whole checkpoint queue so
// a measurement window closes with the deferred truncation traffic
// accounted.
func (s *Scheme) Quiesce(now sim.Time) { s.forceCheckpoint(now) }

// Properties implements persist.Scheme (Table I, WrAP row).
func (s *Scheme) Properties() persist.Properties {
	return persist.Properties{ReadLatency: "High", OnCriticalPath: true, NeedFlushFence: false, WriteTraffic: "High"}
}

// TxBegin implements persist.Scheme.
func (s *Scheme) TxBegin(core int, now sim.Time) (persist.TxID, sim.Time) {
	s.txLines[core].Clear()
	return s.alloc.Next(), now
}

// Store implements persist.Scheme: updates run at cache speed; the write
// set is tracked for the commit-time log flush.
func (s *Scheme) Store(core int, tx persist.TxID, addr mem.PAddr, val []byte, now sim.Time) sim.Time {
	end := addr + mem.PAddr(len(val))
	for a := mem.LineAddr(addr); a < end; a += mem.LineSize {
		s.txLines[core].Add(mem.LineIndex(a))
	}
	return now
}

// TxEnd implements persist.Scheme: stream one two-line redo entry per dirty
// line, drain, then persist the commit marker. Checkpointing is deferred.
func (s *Scheme) TxEnd(core int, tx persist.TxID, now sim.Time) sim.Time {
	lines := s.txLines[core].Keys(s.lineScratch[:0])
	s.lineScratch = lines
	slices.Sort(lines)
	var buf [mem.LineSize]byte
	for _, l := range lines {
		lineAddr := mem.PAddr(l << mem.LineShift)
		s.ctx.View.Read(lineAddr, buf[:])
		if s.ring.Full() {
			now = s.forceCheckpoint(now)
		}
		var payload [payloadSize]byte
		binary.LittleEndian.PutUint64(payload[0:], uint64(tx))
		binary.LittleEndian.PutUint64(payload[8:], uint64(lineAddr))
		copy(payload[16:], buf[:])
		seq, at := s.ring.Append(s.ctx.Dev.Store(), payload[:])
		s.ctx.Ctrl.PostWrite(core, at, entryTraffic, now)
		if s.ctx.Tel.Enabled(telemetry.KindLogWrite) {
			s.ctx.Tel.Emit(telemetry.Event{
				Kind: telemetry.KindLogWrite, Time: now, Core: int16(core),
				Tx: uint64(tx), Addr: at, Bytes: entryTraffic,
			})
		}
		r := s.redirect.Ref(l)
		r.at = at
		r.pending++
		var item ckptItem
		item.line = l
		item.seq = seq
		copy(item.data[:], buf[:])
		s.ckptQueue = append(s.ckptQueue, item)
	}
	if len(lines) > 0 {
		now = s.ctx.Ctrl.Drain(core, now)
		if s.ring.Full() {
			now = s.forceCheckpoint(now)
		}
		var payload [payloadSize]byte
		binary.LittleEndian.PutUint64(payload[0:], uint64(tx)|commitFlag)
		_, at := s.ring.Append(s.ctx.Dev.Store(), payload[:])
		now = s.ctx.Ctrl.Write(at, commitTraffic, now)
		if s.ctx.Tel.Enabled(telemetry.KindLogWrite) {
			s.ctx.Tel.Emit(telemetry.Event{
				Kind: telemetry.KindLogWrite, Time: now, Core: int16(core),
				Tx: uint64(tx), Addr: at, Bytes: commitTraffic,
			})
		}
	}
	s.txLines[core].Clear()
	s.statTxCommitted.Inc()
	return now
}

// TxAbort implements persist.Scheme. Redo logging does all durable work at
// commit, so an abort only drops the volatile write set — nothing reached
// the log, and Evict already withholds transactional lines from home.
func (s *Scheme) TxAbort(core int, tx persist.TxID, now sim.Time) sim.Time {
	s.txLines[core].Clear()
	return now
}

// ReadMiss implements persist.Scheme: a miss on a line whose newest value
// is still only in the log is redirected there.
func (s *Scheme) ReadMiss(core int, addr mem.PAddr, now sim.Time) (sim.Time, bool) {
	line := mem.LineIndex(addr)
	if r, ok := s.redirect.Get(line); ok {
		return s.ctx.Ctrl.Read(r.at, mem.LineSize, now), false
	}
	return s.ctx.Ctrl.Read(mem.LineAddr(addr), mem.LineSize, now), false
}

// Evict implements persist.Scheme. Transactional lines must not reach the
// home region before their redo entries (in-place update is deferred), so
// they are dropped; committed values reach home via the checkpointer.
func (s *Scheme) Evict(core int, line mem.PAddr, now sim.Time) sim.Time {
	return now
}

// Tick implements persist.Scheme: run a bounded slice of background
// checkpointing.
func (s *Scheme) Tick(now sim.Time) {
	s.checkpoint(now, checkpointBatch, false)
}

// forceCheckpoint drains the whole checkpoint queue synchronously (log
// ring full): truncation moves onto the critical path.
func (s *Scheme) forceCheckpoint(now sim.Time) sim.Time {
	return s.checkpoint(now, len(s.ckptQueue)-s.ckptHead, true)
}

// checkpoint applies up to n committed line images in place and truncates
// the log past them. A checkpoint batch is this scheme's cleanup epoch, so
// it brackets the work with GC start/end events; onDemand marks batches
// forced by a full log ring (truncation on the critical path).
func (s *Scheme) checkpoint(now sim.Time, n int, onDemand bool) sim.Time {
	n = min(n, len(s.ckptQueue)-s.ckptHead)
	if n == 0 {
		return now
	}
	if s.ctx.Tel.Enabled(telemetry.KindGCStart) {
		var flags uint8
		if onDemand {
			flags = telemetry.FlagOnDemand
		}
		s.ctx.Tel.Emit(telemetry.Event{
			Kind: telemetry.KindGCStart, Time: now, Core: -1,
			Aux: int64(n), Flags: flags,
		})
	}
	// The batch is issued as a burst at the current time; its completion
	// comes from the accumulated queueing (matters when the log ring is
	// full and truncation lands on the critical path).
	arr := now
	done := now
	var maxSeq uint64
	for i := s.ckptHead; i < s.ckptHead+n; i++ {
		item := &s.ckptQueue[i]
		lineAddr := mem.PAddr(item.line << mem.LineShift)
		s.ctx.Dev.Store().Write(lineAddr, item.data[:])
		if d := s.ctx.Ctrl.Write(lineAddr, mem.LineSize, arr); d > done {
			done = d
		}
		if item.seq > maxSeq {
			maxSeq = item.seq
		}
		// Once a line has no image left in the queue the home region
		// holds its newest value and the redirect retires.
		r := s.redirect.Ref(item.line)
		r.pending--
		if r.pending == 0 {
			s.redirect.Delete(item.line)
		}
	}
	now = done
	s.advanceHead(n)
	// Truncate: records up to maxSeq are checkpointed. Records of live
	// (uncommitted) transactions never precede maxSeq because entries are
	// only appended at commit.
	if maxSeq > s.ring.Watermark() {
		s.ring.Truncate(s.ctx.Dev.Store(), maxSeq)
		s.ctx.Ctrl.PostWrite(s.ckptAgent, s.ring.WatermarkAddr(), mem.LineSize, now)
	}
	if s.ctx.Tel.Enabled(telemetry.KindGCEnd) {
		s.ctx.Tel.Emit(telemetry.Event{
			Kind: telemetry.KindGCEnd, Time: now, Core: -1,
			Bytes: int64(n) * mem.LineSize, Aux: int64(n),
		})
	}
	return now
}

// advanceHead retires n applied items from the front of the checkpoint
// queue. The slots are reused once the queue empties, or compacted once the
// head passes half the slice, so the queue never shifts per batch.
func (s *Scheme) advanceHead(n int) {
	s.ckptHead += n
	switch {
	case s.ckptHead == len(s.ckptQueue):
		s.ckptQueue = s.ckptQueue[:0]
		s.ckptHead = 0
	case s.ckptHead > len(s.ckptQueue)/2:
		s.ckptQueue = s.ckptQueue[:copy(s.ckptQueue, s.ckptQueue[s.ckptHead:])]
		s.ckptHead = 0
	}
}

// Crash implements persist.Scheme.
func (s *Scheme) Crash() {
	for i := range s.txLines {
		s.txLines[i].Clear()
	}
	s.redirect.Clear()
	s.ckptQueue = s.ckptQueue[:0]
	s.ckptHead = 0
	s.ctx.Ctrl.ResetPending()
}

// Recover implements persist.Scheme: replay committed redo entries in log
// order onto the home region; uncommitted entries are discarded.
func (s *Scheme) Recover(threads int) (sim.Duration, error) {
	store := s.ctx.Dev.Store()
	s.ring.ResetVolatile(store)
	type entry struct {
		tx   uint64
		addr mem.PAddr
		data [mem.LineSize]byte
	}
	var entries []entry
	committed := make(map[uint64]struct{})
	var scanned int64
	s.ring.Scan(store, func(seq uint64, at mem.PAddr, payload []byte) {
		scanned += int64(s.ring.RecordBytes())
		word := binary.LittleEndian.Uint64(payload[0:])
		if word&commitFlag != 0 {
			committed[word&^commitFlag] = struct{}{}
			return
		}
		var e entry
		e.tx = word
		e.addr = mem.PAddr(binary.LittleEndian.Uint64(payload[8:]))
		copy(e.data[:], payload[16:])
		entries = append(entries, e)
	})
	var applied int64
	for _, e := range entries { // log order: later entries overwrite earlier
		if _, ok := committed[e.tx]; !ok {
			continue
		}
		store.Write(e.addr, e.data[:])
		applied += mem.LineSize
	}
	s.ring.Truncate(store, s.ring.NextSeq()-1)
	bw := s.ctx.Dev.Params().Bandwidth
	modeled := sim.Duration(1*sim.Millisecond) +
		sim.Duration((scanned+applied)*int64(sim.Second)/bw)
	return modeled, nil
}
