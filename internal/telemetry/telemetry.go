// Package telemetry is the simulator's structured observability layer: a
// typed event stream threaded through the simulation core, replacing both
// the bespoke engine.Tracer interface and ad-hoc counter spelunking.
//
// Components emit Events — transaction begin/commit/abort, persist-ordering
// drains, OOP slice writes, GC epochs with migration counts, mapping-table
// evictions, cache misses, recovery phases — into a Hub. Consumers attach
// Sinks with a Mask of the kinds they care about; the Hub unions all
// subscriber masks so the per-event cost at an emission site is a nil check
// plus one bitmask test when nobody is listening. The simulation itself is
// never affected: telemetry observes simulated time, it does not advance it.
package telemetry

import (
	"hoop/internal/mem"
	"hoop/internal/sim"
)

// Kind identifies what happened. The zero value is invalid so that an
// all-zero Event is recognizably empty.
type Kind uint8

const (
	kindInvalid Kind = iota
	// KindTxBegin fires when a thread opens a transaction. Tx carries the
	// global transaction id, Core the issuing thread.
	KindTxBegin
	// KindTxCommit fires when a transaction becomes durable. Aux carries
	// the commit latency in picoseconds (a sim.Duration).
	KindTxCommit
	// KindTxAbort fires when an open transaction is torn down without
	// committing — today that means a crash was injected while it ran.
	KindTxAbort
	// KindLoad fires per transactional read. Addr/Bytes give the access.
	KindLoad
	// KindStore fires per transactional write. Addr/Bytes give the access
	// and Data aliases the written bytes (valid only during Emit).
	KindStore
	// KindPersistDrain fires when a scheme forces posted writes to the
	// persistence domain before proceeding (an ordering stall). Aux counts
	// drained agents or queued writes, scheme-dependent.
	KindPersistDrain
	// KindSliceWrite fires when HOOP seals a memory slice into the OOP
	// region. Addr is the slice base, Bytes the slice size, Aux the number
	// of dirty words it carries.
	KindSliceWrite
	// KindGCStart opens a cleanup epoch: HOOP GC coalescing, redo/undo log
	// checkpoint/truncate batches, OSP consolidation, LSM compaction. Aux
	// counts the pending units being reclaimed; FlagOnDemand marks epochs
	// forced by backpressure rather than the periodic timer.
	KindGCStart
	// KindGCEnd closes the epoch opened by the latest KindGCStart on the
	// same core. Bytes counts migrated (written-back) bytes, Aux the units
	// scanned.
	KindGCEnd
	// KindMapEvict fires when the mapping table retires an entry: the GC
	// has migrated the line's newest version to the home region, so reads
	// no longer need the out-of-place indirection. Addr is the home line
	// address. A burst of these inside an on-demand GC epoch is the
	// signature of mapping-table pressure (Figure 13).
	KindMapEvict
	// KindCacheMiss fires when an access misses every cache level and goes
	// to memory. Addr is the line address; FlagWrite marks stores. Cache
	// misses carry no Time: the hierarchy is untimed (latency is charged
	// by the memory model), and events stay cheap enough to leave on.
	KindCacheMiss
	// KindNVMRead/KindNVMWrite fire per device access with Addr/Bytes.
	// They are the highest-rate kinds; subscribe only when reconstructing
	// device-level traffic.
	KindNVMRead
	KindNVMWrite
	// KindLogWrite fires when a baseline appends to its WAL/undo/LSM log
	// or writes a checkpoint record. Addr is the record address, Bytes its
	// size.
	KindLogWrite
	// KindRecovery fires per recovery phase from the recovery master
	// thread. Aux is the RecoveryPhase, Bytes the data the phase touched.
	KindRecovery
	// KindShardEnqueue fires when a service shard admits a request from its
	// mailbox. Time is the request's open-loop arrival time, Tx the global
	// request sequence number, and Aux the simulated queueing delay the
	// request suffered before admission (picoseconds).
	KindShardEnqueue
	// KindShardShed fires when a shard's admission control drops a request
	// whose simulated queueing delay exceeded the backpressure bound. Time,
	// Tx, and Aux carry the same fields as KindShardEnqueue; the service
	// tier accounts a shed like a tx_abort (offered but not committed).
	KindShardShed
	// KindRingRoute fires when the service router assigns a request to a
	// shard. Time is the arrival time, Tx the request sequence number, Aux
	// the chosen shard index. Per-request rate: subscribe only when
	// reconstructing routing decisions.
	KindRingRoute
	// KindScan fires once per structure-level range scan after its last
	// item lands. Bytes is the total value bytes the scan read, Aux the
	// item count, Core the issuing thread. Per-scan-op rate (not per item),
	// so it rides in MaskPhases.
	KindScan

	numKinds
)

// kindNames is indexed by Kind and doubles as the JSONL wire name.
var kindNames = [numKinds]string{
	kindInvalid:      "invalid",
	KindTxBegin:      "tx_begin",
	KindTxCommit:     "tx_commit",
	KindTxAbort:      "tx_abort",
	KindLoad:         "load",
	KindStore:        "store",
	KindPersistDrain: "persist_drain",
	KindSliceWrite:   "slice_write",
	KindGCStart:      "gc_start",
	KindGCEnd:        "gc_end",
	KindMapEvict:     "map_evict",
	KindCacheMiss:    "cache_miss",
	KindNVMRead:      "nvm_read",
	KindNVMWrite:     "nvm_write",
	KindLogWrite:     "log_write",
	KindRecovery:     "recovery",
	KindShardEnqueue: "shard_enqueue",
	KindShardShed:    "shard_shed",
	KindRingRoute:    "ring_route",
	KindScan:         "scan",
}

// String returns the stable wire name of the kind ("tx_commit", "gc_start").
func (k Kind) String() string {
	if k >= numKinds {
		return "invalid"
	}
	return kindNames[k]
}

// KindByName resolves a wire name back to its Kind; ok is false for
// unknown names.
func KindByName(name string) (Kind, bool) {
	for k := KindTxBegin; k < numKinds; k++ {
		if kindNames[k] == name {
			return k, true
		}
	}
	return kindInvalid, false
}

// NumKinds is the number of valid kinds, for sinks that keep per-kind
// arrays. Valid kinds are 1..NumKinds.
const NumKinds = int(numKinds) - 1

// Event flags.
const (
	// FlagOnDemand marks a GC epoch forced by allocation backpressure.
	FlagOnDemand uint8 = 1 << iota
	// FlagWrite marks the miss of a store (KindCacheMiss).
	FlagWrite
)

// RecoveryPhase values carried in Aux by KindRecovery events.
const (
	RecoveryPhaseLogScan   = 1 // commit-log / WAL scan
	RecoveryPhaseChainScan = 2 // parallel OOP chain scan
	RecoveryPhaseMerge     = 3 // per-thread result merge
	RecoveryPhaseWriteBack = 4 // write committed data home
	RecoveryPhaseClear     = 5 // clear / reset persistent metadata
)

// Event is one structured simulation event. Fields beyond Kind are
// kind-specific; unused fields are zero. Events are passed by value and
// must not be retained past Emit when Data is set — sinks that buffer
// (ring, JSONL) copy what they keep.
type Event struct {
	// Time is the simulated time of the event in the emitting thread's
	// frame, or 0 for untimed sites (cache lookups).
	Time sim.Time
	// Addr is the physical address the event concerns, if any.
	Addr mem.PAddr
	// Tx is the global transaction id for tx-scoped events, else 0.
	Tx uint64
	// Bytes is the payload size the event accounts for, if any.
	Bytes int64
	// Aux is a kind-specific extra (latency, counts, recovery phase).
	Aux int64
	// Data aliases written bytes for KindStore; valid only during Emit.
	Data []byte
	// Core is the issuing core/thread, or -1 when not thread-scoped.
	Core int16
	// Flags carries Flag* bits.
	Flags uint8
	// Kind says what happened.
	Kind Kind
}

// Mask selects a set of kinds; bit k selects Kind(k).
type Mask uint32

// MaskOf builds a Mask selecting exactly the given kinds.
func MaskOf(kinds ...Kind) Mask {
	var m Mask
	for _, k := range kinds {
		m |= 1 << k
	}
	return m
}

// Has reports whether the mask selects k.
func (m Mask) Has(k Kind) bool { return m&(1<<k) != 0 }

// MaskAll selects every kind.
const MaskAll Mask = (1<<numKinds - 1) &^ 1

// MaskOps selects the per-operation kinds: tx lifecycle plus every load
// and store. This is what trace recording subscribes to; it is also the
// expensive end of the taxonomy (events per memory operation).
var MaskOps = MaskOf(KindTxBegin, KindTxCommit, KindTxAbort, KindLoad, KindStore)

// MaskPhases selects the low-rate mechanism kinds — persist drains, slice
// writes, GC epochs, mapping-table evictions, log writes, aborts, recovery
// phases. The harness leaves these on for its per-cell phase breakdowns;
// their rate is per-transaction or lower, so the overhead stays in the
// noise.
var MaskPhases = MaskOf(KindTxAbort, KindPersistDrain, KindSliceWrite,
	KindGCStart, KindGCEnd, KindMapEvict, KindLogWrite, KindRecovery, KindScan)

// MaskTrace is the default -trace subscription: mechanism phases plus
// commits, enough to reconstruct a run's timeline without per-op volume.
var MaskTrace = MaskPhases | MaskOf(KindTxCommit)

// Sink consumes events. Emit is called synchronously from the simulation
// loop with events matching the sink's subscription mask; implementations
// must not retain e.Data past the call.
type Sink interface {
	Emit(e Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(e Event)

// Emit implements Sink.
func (f SinkFunc) Emit(e Event) { f(e) }

// Hub fans events out to subscribed sinks. A nil *Hub is valid and always
// disabled, so components can hold one unconditionally. Hub is not safe
// for concurrent use — like the rest of the simulation core, one Hub
// belongs to one engine.System, and independent systems get independent
// hubs.
type Hub struct {
	subs []subscription
	mask Mask // union of all subscriber masks
}

type subscription struct {
	sink Sink
	mask Mask
}

// NewHub returns an empty hub with no subscribers.
func NewHub() *Hub { return &Hub{} }

// Subscribe attaches sink for the kinds in mask. Each call adds one
// subscription; subscribing the same sink twice delivers overlapping kinds
// twice.
func (h *Hub) Subscribe(sink Sink, mask Mask) {
	mask &= MaskAll
	h.subs = append(h.subs, subscription{sink: sink, mask: mask})
	h.mask |= mask
}

// Enabled reports whether any subscriber wants kind k. It is the hot-path
// guard: with no subscribers (or a nil hub) it is a pointer check and one
// bitmask test.
func (h *Hub) Enabled(k Kind) bool {
	return h != nil && h.mask&(1<<k) != 0
}

// Emit delivers e to every sink subscribed to e.Kind. Callers on hot paths
// should guard with Enabled to avoid building the Event at all.
func (h *Hub) Emit(e Event) {
	if h == nil || h.mask&(1<<e.Kind) == 0 {
		return
	}
	for i := range h.subs {
		if h.subs[i].mask&(1<<e.Kind) != 0 {
			h.subs[i].sink.Emit(e)
		}
	}
}
