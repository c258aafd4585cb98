// Package native implements the paper's "Ideal" comparison point: a system
// with no persistence guarantee at all. Stores cost nothing beyond the
// cache hierarchy, transactions have no commit work, and dirty lines write
// back in place when evicted. It upper-bounds throughput and lower-bounds
// critical-path latency and write traffic (Figures 7–9 normalize to it).
package native

import (
	"fmt"

	"hoop/internal/mem"
	"hoop/internal/persist"
	"hoop/internal/sim"
)

// Scheme is the no-persistence baseline.
type Scheme struct {
	ctx   persist.Context
	alloc persist.TxnAllocator

	statTxCommitted *sim.Counter
}

// New builds the native scheme.
func New(ctx persist.Context) *Scheme {
	return &Scheme{ctx: ctx, statTxCommitted: ctx.Stats.Counter(sim.StatTxCommitted)}
}

// SchemeName is the registry name and figure label of this baseline.
const SchemeName = "Ideal"

func init() {
	persist.Register(SchemeName, func(ctx persist.Context, opt any) (persist.Scheme, error) {
		if opt != nil {
			return nil, fmt.Errorf("native: scheme takes no options, got %T", opt)
		}
		return New(ctx), nil
	})
}

// Name implements persist.Scheme.
func (s *Scheme) Name() string { return SchemeName }

// Properties implements persist.Scheme. The native system provides no
// durability, so the Table I attributes describe its raw behaviour.
func (s *Scheme) Properties() persist.Properties {
	return persist.Properties{ReadLatency: "Low", OnCriticalPath: false, NeedFlushFence: false, WriteTraffic: "Low"}
}

// TxBegin implements persist.Scheme.
func (s *Scheme) TxBegin(core int, now sim.Time) (persist.TxID, sim.Time) {
	return s.alloc.Next(), now
}

// Store implements persist.Scheme: no persistence work at all.
func (s *Scheme) Store(core int, tx persist.TxID, addr mem.PAddr, val []byte, now sim.Time) sim.Time {
	return now
}

// TxEnd implements persist.Scheme: commits are free.
func (s *Scheme) TxEnd(core int, tx persist.TxID, now sim.Time) sim.Time {
	s.statTxCommitted.Inc()
	return now
}

// TxAbort implements persist.Scheme: with no persistence machinery there
// is nothing durable to discard. (The in-place evictions an aborted
// transaction may have pushed home are exactly the inconsistency the Ideal
// system tolerates by design.)
func (s *Scheme) TxAbort(core int, tx persist.TxID, now sim.Time) sim.Time {
	return now
}

// ReadMiss implements persist.Scheme: always read the home region.
func (s *Scheme) ReadMiss(core int, addr mem.PAddr, now sim.Time) (sim.Time, bool) {
	return s.ctx.Ctrl.Read(mem.LineAddr(addr), mem.LineSize, now), false
}

// Evict implements persist.Scheme: ordinary in-place writeback.
func (s *Scheme) Evict(core int, line mem.PAddr, now sim.Time) sim.Time {
	var buf [mem.LineSize]byte
	s.ctx.View.Read(line, buf[:])
	s.ctx.Dev.Store().Write(line, buf[:])
	s.ctx.Ctrl.PostWrite(core, line, mem.LineSize, now)
	return now
}

// Tick implements persist.Scheme.
func (s *Scheme) Tick(now sim.Time) {}

// Crash implements persist.Scheme. The native system loses whatever was in
// the caches — that is precisely why it is not crash consistent.
func (s *Scheme) Crash() { s.ctx.Ctrl.ResetPending() }

// Recover implements persist.Scheme: there is nothing to recover with; the
// home region is left in whatever (possibly inconsistent) state the crash
// produced.
func (s *Scheme) Recover(threads int) (sim.Duration, error) { return 0, nil }
