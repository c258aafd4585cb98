// Package undo implements the Opt-Undo comparison point, modeled on ATOM
// (Joshi et al., HPCA'17 [24]): hardware undo logging in the memory
// controller. Before a transaction's first update to a cache line, the
// controller reads the line's pre-transaction image and durably appends it
// to the undo log; only then may the new data proceed. The strict
// log-before-data persist ordering sits on the critical path of every
// first-touch store (Figure 4a), and commit must force the transaction's
// dirty lines to NVM (undo logging is a FORCE policy), which is why
// Opt-Undo shows both long critical paths and roughly doubled write
// traffic in the paper's evaluation.
package undo

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

// Record payload: [flags|txid u64][home line addr u64][64-byte old image].
// abortFlag marks a *completed* abort: the old images were already restored
// to their home addresses in the foreground, so recovery must not roll the
// transaction back again (later committed data may since have overwritten
// those lines). A crash mid-abort leaves no marker and recovery rolls back
// from the log as for any uncommitted transaction — the restores are
// idempotent re-applications of the same old images.
const (
	payloadSize = 8 + 8 + mem.LineSize
	commitFlag  = uint64(1) << 63
	abortFlag   = uint64(1) << 62
)

// Accounted traffic sizes: an undo log entry carries the 64-byte old image
// plus an 8-byte address; a commit record is a 16-byte marker.
const (
	entryTraffic  = mem.LineSize + 8
	commitTraffic = 16
)

// Scheme is the hardware undo-logging baseline.
type Scheme struct {
	ctx   persist.Context
	alloc persist.TxnAllocator
	ring  *logring.Ring

	// Per-core live-transaction state.
	logged   []u64map.Set // lines already undo-logged this tx (epoch-cleared)
	dirty    [][]uint64   // line order for the commit-time force
	firstSeq []uint64     // first log record of the live tx (truncation bound)

	statTxCommitted *sim.Counter
}

// New builds the scheme; the undo log occupies the layout's OOP region.
func New(ctx persist.Context) (*Scheme, error) {
	ring, err := logring.New(ctx.Layout.OOP, payloadSize)
	if err != nil {
		return nil, fmt.Errorf("undo: %w", err)
	}
	return &Scheme{
		ctx:             ctx,
		ring:            ring,
		logged:          make([]u64map.Set, ctx.Cores),
		dirty:           make([][]uint64, ctx.Cores),
		firstSeq:        make([]uint64, ctx.Cores),
		statTxCommitted: ctx.Stats.Counter(sim.StatTxCommitted),
	}, nil
}

// SchemeName is the registry name and figure label of this baseline.
const SchemeName = "Opt-Undo"

func init() {
	persist.Register(SchemeName, func(ctx persist.Context, opt any) (persist.Scheme, error) {
		if opt != nil {
			return nil, fmt.Errorf("undo: scheme takes no options, got %T", opt)
		}
		return New(ctx)
	})
}

// Name implements persist.Scheme.
func (s *Scheme) Name() string { return SchemeName }

// Properties implements persist.Scheme (Table I, ATOM row).
func (s *Scheme) Properties() persist.Properties {
	return persist.Properties{ReadLatency: "Low", OnCriticalPath: true, NeedFlushFence: false, WriteTraffic: "Medium"}
}

// TxBegin implements persist.Scheme.
func (s *Scheme) TxBegin(core int, now sim.Time) (persist.TxID, sim.Time) {
	tx := s.alloc.Next()
	s.logged[core].Clear()
	s.dirty[core] = s.dirty[core][:0]
	s.firstSeq[core] = 0
	return tx, now
}

// mcQueueCost is the per-first-touch cost of enqueueing the log-before-
// data ordering dependency in the controller (ATOM's hardware mechanism
// removes the flush from software but the dependency still serializes the
// store against the log-entry enqueue).
const mcQueueCost = 15 * sim.Nanosecond

// Store implements persist.Scheme: on the first touch of each line, the
// controller reads the old image and appends the undo record. ATOM posts
// both (the core does not stall for the NVM write), but the ordering
// dependency costs queue occupancy on the critical path, and the commit
// must later drain every log write before the data force.
func (s *Scheme) Store(core int, tx persist.TxID, addr mem.PAddr, val []byte, now sim.Time) sim.Time {
	end := addr + mem.PAddr(len(val))
	for a := mem.LineAddr(addr); a < end; a += mem.LineSize {
		line := mem.LineIndex(a)
		if !s.logged[core].Add(line) {
			continue
		}
		s.dirty[core] = append(s.dirty[core], line)
		lineAddr := mem.PAddr(line << mem.LineShift)

		// Fetch the pre-transaction image. The engine applies each store
		// to View after this hook, so View still holds it.
		var old [mem.LineSize]byte
		s.ctx.View.Read(lineAddr, old[:])

		if s.ring.Full() {
			s.truncate(now)
			if s.ring.Full() {
				panic("undo: log ring full with live transactions (increase log region)")
			}
		}
		var payload [payloadSize]byte
		binary.LittleEndian.PutUint64(payload[0:], uint64(tx))
		binary.LittleEndian.PutUint64(payload[8:], uint64(lineAddr))
		copy(payload[16:], old[:])
		seq, at := s.ring.Append(s.ctx.Dev.Store(), payload[:])
		if s.firstSeq[core] == 0 {
			s.firstSeq[core] = seq
		}
		if s.ctx.Tel.Enabled(telemetry.KindLogWrite) {
			s.ctx.Tel.Emit(telemetry.Event{
				Kind: telemetry.KindLogWrite, Time: now, Core: int16(core),
				Tx: uint64(tx), Addr: at, Bytes: entryTraffic,
			})
		}

		// Log-before-data ordering enforced in the controller: the old-
		// image read and log write are posted back-to-back on the core's
		// agent (Drain at commit waits for them); the core itself only
		// pays the queue-occupancy cost.
		rd := s.ctx.Ctrl.Read(lineAddr, mem.LineSize, now)
		s.ctx.Ctrl.PostWrite(core, at, entryTraffic, rd)
		now += mcQueueCost
	}
	return now
}

// TxEnd implements persist.Scheme: force every dirty line to its home
// address (undo logging requires committed data to be durable), then
// persist the commit marker and truncate.
func (s *Scheme) TxEnd(core int, tx persist.TxID, now sim.Time) sim.Time {
	// Sorting the dirty list in place is fine: it is reset before reuse.
	lines := s.dirty[core]
	slices.Sort(lines)
	var buf [mem.LineSize]byte
	for _, l := range lines {
		lineAddr := mem.PAddr(l << mem.LineShift)
		s.ctx.Hier.FlushLine(lineAddr, false)
		s.ctx.View.Read(lineAddr, buf[:])
		s.ctx.Dev.Store().Write(lineAddr, buf[:])
		s.ctx.Ctrl.PostWrite(core, lineAddr, mem.LineSize, now)
	}
	if len(lines) > 0 {
		now = s.ctx.Ctrl.Drain(core, now)
		if s.ring.Full() {
			s.truncate(now)
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
	s.logged[core].Clear()
	s.dirty[core] = s.dirty[core][:0]
	s.firstSeq[core] = 0
	s.truncate(now)
	s.statTxCommitted.Inc()
	return now
}

// TxAbort implements persist.Scheme. Undo logging is a STEAL policy:
// uncommitted data may already sit in the home region (mid-transaction
// evictions write in place), so the abort must actively restore the
// pre-transaction images — the engine has already rolled the View back, so
// the dirty lines are read from it exactly as TxEnd reads committed ones.
// Once every restore is drained, an abort marker retires the transaction
// in the log; see the abortFlag comment for the crash-timing argument.
func (s *Scheme) TxAbort(core int, tx persist.TxID, now sim.Time) sim.Time {
	lines := s.dirty[core]
	slices.Sort(lines)
	var buf [mem.LineSize]byte
	for _, l := range lines {
		lineAddr := mem.PAddr(l << mem.LineShift)
		s.ctx.Hier.FlushLine(lineAddr, false)
		s.ctx.View.Read(lineAddr, buf[:])
		s.ctx.Dev.Store().Write(lineAddr, buf[:])
		s.ctx.Ctrl.PostWrite(core, lineAddr, mem.LineSize, now)
	}
	if len(lines) > 0 {
		now = s.ctx.Ctrl.Drain(core, now)
		if s.ring.Full() {
			s.truncate(now)
		}
		var payload [payloadSize]byte
		binary.LittleEndian.PutUint64(payload[0:], uint64(tx)|abortFlag)
		_, at := s.ring.Append(s.ctx.Dev.Store(), payload[:])
		now = s.ctx.Ctrl.Write(at, commitTraffic, now)
		if s.ctx.Tel.Enabled(telemetry.KindLogWrite) {
			s.ctx.Tel.Emit(telemetry.Event{
				Kind: telemetry.KindLogWrite, Time: now, Core: int16(core),
				Tx: uint64(tx), Addr: at, Bytes: commitTraffic,
			})
		}
	}
	s.logged[core].Clear()
	s.dirty[core] = s.dirty[core][:0]
	s.firstSeq[core] = 0
	s.truncate(now)
	return now
}

// truncate advances the log watermark past every record not needed by a
// still-live transaction (committed transactions' records are dead the
// moment their data is forced).
func (s *Scheme) truncate(now sim.Time) {
	bound := s.ring.NextSeq() - 1
	for core := range s.firstSeq {
		if s.firstSeq[core] != 0 && s.firstSeq[core]-1 < bound {
			bound = s.firstSeq[core] - 1
		}
	}
	if bound > s.ring.Watermark() {
		retired := int64(bound - s.ring.Watermark())
		s.ring.Truncate(s.ctx.Dev.Store(), bound)
		s.ctx.Ctrl.PostWrite(s.ctx.Cores, s.ring.WatermarkAddr(), mem.LineSize, now)
		// Log truncation is this scheme's cleanup epoch: it retires dead
		// undo records, the analogue of HOOP's GC advancing its watermark.
		if s.ctx.Tel.Enabled(telemetry.KindGCStart) {
			s.ctx.Tel.Emit(telemetry.Event{
				Kind: telemetry.KindGCStart, Time: now, Core: -1, Aux: retired,
			})
		}
		if s.ctx.Tel.Enabled(telemetry.KindGCEnd) {
			s.ctx.Tel.Emit(telemetry.Event{
				Kind: telemetry.KindGCEnd, Time: now, Core: -1,
				Bytes: retired * int64(s.ring.RecordBytes()), Aux: retired,
			})
		}
	}
}

// ReadMiss implements persist.Scheme: data lives in place, so misses read
// the home region.
func (s *Scheme) ReadMiss(core int, addr mem.PAddr, now sim.Time) (sim.Time, bool) {
	return s.ctx.Ctrl.Read(mem.LineAddr(addr), mem.LineSize, now), false
}

// Evict implements persist.Scheme. Undo logging is a STEAL policy: an
// uncommitted dirty line may be written in place because its old image is
// already in the log.
func (s *Scheme) Evict(core int, line mem.PAddr, now sim.Time) sim.Time {
	var buf [mem.LineSize]byte
	s.ctx.View.Read(line, buf[:])
	s.ctx.Dev.Store().Write(line, buf[:])
	s.ctx.Ctrl.PostWrite(core, line, mem.LineSize, now)
	return now
}

// Tick implements persist.Scheme.
func (s *Scheme) Tick(now sim.Time) {}

// Crash implements persist.Scheme.
func (s *Scheme) Crash() {
	for i := range s.logged {
		s.logged[i].Clear()
		s.dirty[i] = s.dirty[i][:0]
		s.firstSeq[i] = 0
	}
	s.ctx.Ctrl.ResetPending()
}

// Recover implements persist.Scheme: scan the live log, roll back every
// transaction without a commit marker by re-applying old images in reverse
// log order.
func (s *Scheme) Recover(threads int) (sim.Duration, error) {
	store := s.ctx.Dev.Store()
	s.ring.ResetVolatile(store)
	type entry struct {
		seq  uint64
		tx   uint64
		addr mem.PAddr
		old  [mem.LineSize]byte
	}
	var entries []entry
	committed := make(map[uint64]struct{})
	var scanned int64
	s.ring.Scan(store, func(seq uint64, at mem.PAddr, payload []byte) {
		scanned += int64(s.ring.RecordBytes())
		word := binary.LittleEndian.Uint64(payload[0:])
		if word&(commitFlag|abortFlag) != 0 {
			// Commit and completed-abort markers both mean "do not roll this
			// transaction back": commit because the new data is durable,
			// abort because the old images were already restored in the
			// foreground.
			committed[word&^(commitFlag|abortFlag)] = struct{}{}
			return
		}
		var e entry
		e.seq = seq
		e.tx = word
		e.addr = mem.PAddr(binary.LittleEndian.Uint64(payload[8:]))
		copy(e.old[:], payload[16:])
		entries = append(entries, e)
	})
	var undone int64
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		if _, ok := committed[e.tx]; ok {
			continue
		}
		store.Write(e.addr, e.old[:])
		undone += mem.LineSize
	}
	s.ring.Truncate(store, s.ring.NextSeq()-1)
	bw := s.ctx.Dev.Params().Bandwidth
	modeled := sim.Duration(1*sim.Millisecond) +
		sim.Duration((scanned+undone)*int64(sim.Second)/bw)
	return modeled, nil
}
