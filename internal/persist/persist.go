// Package persist defines the interface every crash-consistency technique
// in this reproduction implements — HOOP itself plus the five comparison
// points of the paper's evaluation (Opt-Redo, Opt-Undo, OSP, LSM, LAD) and
// the no-persistence Native/Ideal system.
//
// The execution engine (internal/engine) simulates the workload's cache
// behaviour itself; a Scheme only sees the events that matter for
// persistence — stores inside transactions, transaction boundaries, LLC
// misses, and dirty LLC evictions — and responds with the extra time its
// mechanism puts on the critical path plus the NVM traffic it generates.
// Schemes are also *functional*: committed data must actually be
// reconstructable from NVM contents after Crash + Recover, which the test
// suite verifies against an oracle.
package persist

import (
	"hoop/internal/cache"
	"hoop/internal/mem"
	"hoop/internal/memctrl"
	"hoop/internal/nvm"
	"hoop/internal/sim"
	"hoop/internal/telemetry"
)

// TxID identifies a transaction. IDs are assigned by the memory controller
// at Tx_begin (§III-D of the paper) and are strictly increasing in *begin*
// order. Without a concurrency-control layer transactions also commit in
// that order; with one (internal/cc) commits may interleave, so schemes
// must order durable state by log-append position, never by TxID.
type TxID uint64

// Context bundles the shared machinery a scheme operates on.
type Context struct {
	Cores  int
	Layout mem.Layout
	Dev    *nvm.Device
	Ctrl   *memctrl.Controller
	Hier   *cache.Hierarchy
	Stats  *sim.Stats
	// View is the volatile logical memory image: the newest value of every
	// address as seen by the program, regardless of where (cache, MC
	// buffer, OOP region, home region) that value currently lives. The
	// engine applies each store to View *after* calling Scheme.Store, so
	// undo-style schemes can still read the pre-store value from View,
	// while out-of-place schemes take the new value from the Store
	// argument. View is lost on Crash.
	View *mem.Store
	// Tel is the system's telemetry hub. Schemes emit structured events
	// (GC epochs, persist drains, slice writes...) through it, guarding
	// hot-path emission with Tel.Enabled. A nil hub is valid and disabled.
	Tel *telemetry.Hub
}

// Scheme is one crash-consistency technique.
type Scheme interface {
	// Name is the short name used in result tables ("HOOP", "Opt-Redo"...).
	Name() string

	// Properties returns the scheme's Table I characterization.
	Properties() Properties

	// TxBegin opens a failure-atomic region on core and returns the
	// assigned transaction ID and the time after any begin-cost.
	TxBegin(core int, now sim.Time) (TxID, sim.Time)

	// Store notifies the scheme of a store of val at addr inside tx.
	// It is called after the engine has simulated the cache access; the
	// returned time includes any persistence work the scheme puts on
	// the critical path (log writes, orderings). addr is word-aligned
	// and len(val) is a multiple of the word size.
	Store(core int, tx TxID, addr mem.PAddr, val []byte, now sim.Time) sim.Time

	// TxEnd commits tx, returning the time at which the transaction is
	// durable (all commit-path flushes and fences done).
	TxEnd(core int, tx TxID, now sim.Time) sim.Time

	// TxAbort tears down tx without committing, returning the time at
	// which the abort work completes. The engine has already rolled the
	// volatile View back to its pre-transaction contents, so schemes may
	// read restored pre-images from View (mirroring how undo-style
	// schemes read pre-store values during Store). The scheme must
	// discard or neutralize every durable trace of tx so that a crash at
	// any point — before, during, or after the abort — never resurrects
	// the aborted writes through Recover.
	TxAbort(core int, tx TxID, now sim.Time) sim.Time

	// ReadMiss services an LLC miss for the line containing addr: the
	// scheme routes the fill (home region, OOP region, log, shadow
	// copy...) and returns the fill completion time. fillDirty reports
	// whether the line must be installed dirty (true when the
	// newest version only exists out-of-place, so a future eviction must
	// re-persist it out-of-place).
	ReadMiss(core int, addr mem.PAddr, now sim.Time) (done sim.Time, fillDirty bool)

	// Evict handles the dirty line at address line leaving the LLC on
	// behalf of core (the core whose fill displaced it). Every dirty line
	// was modified by a transaction: the engine has no plain stores.
	Evict(core int, line mem.PAddr, now sim.Time) sim.Time

	// Tick lets background machinery (GC, checkpointing, log truncation)
	// run up to now. The engine calls it between operations.
	Tick(now sim.Time)

	// Crash models power failure: all volatile scheme state is dropped.
	// NVM contents survive. The engine separately drops cache state.
	Crash()

	// Recover rebuilds a consistent home region from NVM contents using
	// the given number of recovery threads, returning the modeled
	// recovery time. After Recover, the home region in the NVM store
	// holds exactly the committed data.
	Recover(threads int) (sim.Duration, error)
}

// LoadHook is an optional interface a Scheme may implement when its
// mechanism adds cost to *every* load, not just LLC misses — the
// software-indexed LSM baseline pays an O(log N) address translation per
// read. The engine calls it once per load operation.
type LoadHook interface {
	LoadOverhead(core int, addr mem.PAddr, now sim.Time) sim.Time
}

// Properties is a scheme's row in Table I of the paper.
type Properties struct {
	ReadLatency    string // "Low" or "High"
	OnCriticalPath bool   // persistence work on the critical path?
	NeedFlushFence bool   // requires cache flushes & fences from software?
	WriteTraffic   string // "Low", "Medium", "High"
}

// TxnAllocator hands out controller-assigned transaction IDs; schemes embed
// it. The zero value is ready to use; the first ID is 1 (0 means "no
// transaction").
type TxnAllocator struct {
	next TxID
}

// Next returns a fresh transaction ID.
func (a *TxnAllocator) Next() TxID {
	a.next++
	return a.next
}

// Reset restarts ID assignment (after recovery).
func (a *TxnAllocator) Reset(from TxID) { a.next = from }

// WordsOf splits a (word-aligned address, byte slice) store into 8-byte
// word updates, the granularity HOOP tracks (§III-C). It panics on
// misaligned input — the pmem layer only issues word-aligned stores.
func WordsOf(addr mem.PAddr, val []byte) []WordUpdate {
	if !mem.IsWordAligned(addr) || len(val)%mem.WordSize != 0 {
		panic("persist: store must be word-aligned")
	}
	out := make([]WordUpdate, 0, len(val)/mem.WordSize)
	for off := 0; off < len(val); off += mem.WordSize {
		var w [mem.WordSize]byte
		copy(w[:], val[off:off+mem.WordSize])
		out = append(out, WordUpdate{Addr: addr + mem.PAddr(off), Val: w})
	}
	return out
}

// WordUpdate is one 8-byte word store.
type WordUpdate struct {
	Addr mem.PAddr
	Val  [mem.WordSize]byte
}
