// Package lad implements the LAD comparison point (Gupta et al., "Distributed
// Logless Atomic Durability with Persistent Memory", MICRO'19 [16]): a
// transaction's updates are held in the memory controller's queues — which
// sit inside the persistence domain — until Tx_end, then committed to NVM
// in place at cache-line granularity, with no log at all.
//
// Because commit transfers and persists whole cache lines (no word-level
// packing) and nothing coalesces across transactions, LAD writes more NVM
// bytes than HOOP on sparse-update workloads, and its commit must move every
// dirty line through the controller before acknowledging — the two effects
// the paper measures in Figures 7–8.
package lad

import (
	"fmt"
	"slices"

	"hoop/internal/mem"
	"hoop/internal/persist"
	"hoop/internal/sim"
	"hoop/internal/telemetry"
	"hoop/internal/u64map"
)

// Timing constants.
const (
	// perLineTransfer is the cache-controller to memory-controller
	// transfer cost per dirty line at commit: the line is flushed from
	// the cache hierarchy and acknowledged by the controller queue
	// (§III-I: "waits for all outstanding flushes to be acknowledged").
	perLineTransfer = 30 * sim.Nanosecond
	// commitRound is the prepare/commit handshake between the cache
	// controller and the memory controller (§III-I describes the
	// two-phase protocol; a single controller still pays one round).
	commitRound = 120 * sim.Nanosecond
	// queueCapLines bounds how many distinct lines the persistent
	// controller queue can buffer per core. Transactions larger than
	// this spill lines to an NVM staging area eagerly — and must write
	// them again if re-dirtied — which is where LAD's line-granularity
	// buffering loses to HOOP's packed slices on large transactions.
	queueCapLines = 64
)

// Scheme is the logless atomic-durability baseline.
type Scheme struct {
	ctx   persist.Context
	alloc persist.TxnAllocator
	// Per-core transaction write sets (line-granular), modelling the
	// controller queue contents; epoch-cleared per transaction.
	txLines  []u64map.Set
	spillCnt []int

	// lineScratch is the reused commit-time sort buffer.
	lineScratch []uint64

	statTxCommitted *sim.Counter
}

// New builds the LAD scheme.
func New(ctx persist.Context) *Scheme {
	return &Scheme{
		ctx:             ctx,
		txLines:         make([]u64map.Set, ctx.Cores),
		spillCnt:        make([]int, ctx.Cores),
		statTxCommitted: ctx.Stats.Counter(sim.StatTxCommitted),
	}
}

// SchemeName is the registry name and figure label of this baseline.
const SchemeName = "LAD"

func init() {
	persist.Register(SchemeName, func(ctx persist.Context, opt any) (persist.Scheme, error) {
		if opt != nil {
			return nil, fmt.Errorf("lad: scheme takes no options, got %T", opt)
		}
		return New(ctx), nil
	})
}

// Name implements persist.Scheme.
func (s *Scheme) Name() string { return SchemeName }

// Properties implements persist.Scheme.
func (s *Scheme) Properties() persist.Properties {
	return persist.Properties{ReadLatency: "Low", OnCriticalPath: true, NeedFlushFence: false, WriteTraffic: "Medium"}
}

// TxBegin implements persist.Scheme.
func (s *Scheme) TxBegin(core int, now sim.Time) (persist.TxID, sim.Time) {
	s.txLines[core].Clear()
	return s.alloc.Next(), now
}

// Store implements persist.Scheme: the update is captured in the
// controller queue. When the queue is full, the oldest buffered line
// spills to the NVM staging area (one posted line write); if that line is
// dirtied again it will be written again.
func (s *Scheme) Store(core int, tx persist.TxID, addr mem.PAddr, val []byte, now sim.Time) sim.Time {
	set := &s.txLines[core]
	end := addr + mem.PAddr(len(val))
	for a := mem.LineAddr(addr); a < end; a += mem.LineSize {
		line := mem.LineIndex(a)
		if set.Contains(line) {
			continue
		}
		if set.Len() >= queueCapLines {
			// Spill one buffered line to the staging area. The spill
			// target cycles through a per-core staging stripe.
			spill := s.ctx.Layout.OOP.Base + mem.PAddr(core*queueCapLines*mem.LineSize) +
				mem.PAddr((s.spillCnt[core]%queueCapLines)*mem.LineSize)
			s.spillCnt[core]++
			s.ctx.Ctrl.PostWrite(core, spill, mem.LineSize, now)
			// LAD has no log; the staging spill is its only out-of-place
			// write, so it reports as the scheme's log traffic.
			if s.ctx.Tel.Enabled(telemetry.KindLogWrite) {
				s.ctx.Tel.Emit(telemetry.Event{
					Kind: telemetry.KindLogWrite, Time: now, Core: int16(core),
					Tx: uint64(tx), Addr: spill, Bytes: mem.LineSize,
				})
			}
		}
		set.Add(line)
	}
	return now
}

// TxEnd implements persist.Scheme: every dirty line is transferred to the
// controller, written to its home address, and the commit handshake
// completes. The queue is in the persistence domain, so the transaction is
// durable once the handshake finishes; the NVM writes drain as posted
// writes.
func (s *Scheme) TxEnd(core int, tx persist.TxID, now sim.Time) sim.Time {
	lines := s.txLines[core].Keys(s.lineScratch[:0])
	s.lineScratch = lines
	slices.Sort(lines)
	var buf [mem.LineSize]byte
	// The controller queues sit inside the persistence domain: once the
	// commit handshake accepts the line set, the hardware drains it to NVM
	// all-or-nothing even across power failure. The atomic-persist bracket
	// tells the crash-point journal exactly that — LAD's atomicity is a
	// hardware property, not a software ordering.
	s.ctx.Dev.BeginAtomicPersist()
	for _, l := range lines {
		lineAddr := mem.PAddr(l << mem.LineShift)
		s.ctx.View.Read(lineAddr, buf[:])
		s.ctx.Dev.Store().Write(lineAddr, buf[:])
		s.ctx.Ctrl.PostWrite(core, lineAddr, mem.LineSize, now)
		now += perLineTransfer
	}
	s.ctx.Dev.EndAtomicPersist()
	if len(lines) > 0 {
		// §IV-C: LAD "still persists data at cache-line granularity upon
		// transaction commits" — the commit acknowledgment waits for the
		// queued lines to drain to NVM.
		now = s.ctx.Ctrl.Drain(core, now)
		now += commitRound
	}
	s.txLines[core].Clear()
	s.statTxCommitted.Inc()
	return now
}

// TxAbort implements persist.Scheme: the controller queue simply discards
// the buffered lines. Spilled staging lines are dead garbage — nothing
// points at the staging stripe until the commit handshake, which never
// happens for an aborted transaction.
func (s *Scheme) TxAbort(core int, tx persist.TxID, now sim.Time) sim.Time {
	s.txLines[core].Clear()
	return now
}

// ReadMiss implements persist.Scheme: reads are served from the home
// region (the controller forwards from its queue when it holds a newer
// copy, at no extra cost in this model).
func (s *Scheme) ReadMiss(core int, addr mem.PAddr, now sim.Time) (sim.Time, bool) {
	return s.ctx.Ctrl.Read(mem.LineAddr(addr), mem.LineSize, now), false
}

// Evict implements persist.Scheme. Transactional lines are absorbed by the
// controller queue (already captured at store time), so the eviction
// writes nothing.
func (s *Scheme) Evict(core int, line mem.PAddr, now sim.Time) sim.Time {
	return now
}

// Tick implements persist.Scheme.
func (s *Scheme) Tick(now sim.Time) {}

// Crash implements persist.Scheme: in-flight (uncommitted) queue contents
// are discarded at recovery, which is trivially correct because their data
// never reached the home region.
func (s *Scheme) Crash() {
	for i := range s.txLines {
		s.txLines[i].Clear()
	}
	s.ctx.Ctrl.ResetPending()
}

// Recover implements persist.Scheme: the home region is always
// transactionally consistent (commits apply atomically from the persistent
// controller queue), so recovery is a fixed small cost.
func (s *Scheme) Recover(threads int) (sim.Duration, error) {
	return 2 * sim.Millisecond, nil
}
