package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Stats is a named-counter registry. Components register counters for
// events worth reporting (NVM bytes written, LLC misses, GC migrations...);
// the harness snapshots them to build the paper's tables. Stats is not safe
// for concurrent use: each simulated system owns one and the engine runs
// single-goroutine.
//
// Counters are interned: Counter returns a stable handle whose Inc/Add are
// a plain int64 bump with no map hash, for call sites that fire on every
// simulated event. The name-keyed Add/Inc/Set/Get remain for cold paths
// and out-of-tree schemes; both routes update the same underlying value.
type Stats struct {
	counters map[string]*Counter
	order    []string
}

// Counter is an interned handle to one named counter — an *int64 in all
// but syntax. Hot paths resolve the handle once (at construction) and
// bump it directly.
type Counter struct {
	v int64
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v++ }

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.v += delta }

// Value reports the counter's current value.
func (c *Counter) Value() int64 { return c.v }

// NewStats returns an empty registry.
func NewStats() *Stats {
	return &Stats{counters: make(map[string]*Counter)}
}

// Counter interns name, registering it on first use, and returns its
// handle. Handles stay valid (and keep counting into the same slot) for
// the life of the registry, across Reset.
func (s *Stats) Counter(name string) *Counter {
	if c, ok := s.counters[name]; ok {
		return c
	}
	c := &Counter{}
	s.counters[name] = c
	s.order = append(s.order, name)
	return c
}

// Add increments counter name by delta, creating it on first use.
func (s *Stats) Add(name string, delta int64) { s.Counter(name).v += delta }

// Get reports counter name (zero if never touched).
//
// Deprecated for hot paths: Get pays a map hash per call. Code that reads
// a counter repeatedly should intern a handle with Counter and call
// Value; code that consumes the whole registry should use Snapshot.
func (s *Stats) Get(name string) int64 {
	if c, ok := s.counters[name]; ok {
		return c.v
	}
	return 0
}

// CounterSample is one counter's value at snapshot time. Samples are
// plain data — ordered, comparable, and JSON-marshalable — so reports and
// CLIs can consume counters without string formatting or map iteration.
type CounterSample struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Snapshot returns every counter's current value in first-use
// registration order. Registration order is deterministic for a given
// system construction, so two identical runs snapshot identical slices.
func (s *Stats) Snapshot() []CounterSample {
	out := make([]CounterSample, len(s.order))
	for i, name := range s.order {
		out[i] = CounterSample{Name: name, Value: s.counters[name].v}
	}
	return out
}

// String renders the counters sorted by name, one per line — handy in test
// failures.
func (s *Stats) String() string {
	names := make([]string, 0, len(s.counters))
	for k := range s.counters {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "%-40s %d\n", k, s.counters[k].v)
	}
	return b.String()
}

// Canonical counter names shared across packages. Keeping them here avoids
// typo-drift between the component that increments a counter and the
// harness that reads it.
const (
	StatNVMBytesRead    = "nvm.bytes_read"
	StatNVMBytesWritten = "nvm.bytes_written"
	StatNVMReads        = "nvm.reads"
	StatNVMWrites       = "nvm.writes"

	StatL1Hits    = "cache.l1_hits"
	StatL2Hits    = "cache.l2_hits"
	StatLLCHits   = "cache.llc_hits"
	StatLLCMisses = "cache.llc_misses"
	StatEvictions = "cache.dirty_evictions"

	StatTxCommitted = "tx.committed"
	StatTxStores    = "tx.stores"
	StatTxLoads     = "tx.loads"

	StatScanOps   = "scan.ops"
	StatScanItems = "scan.items"

	StatGCRuns          = "gc.runs"
	StatGCBytesMigrated = "gc.bytes_migrated"
	StatGCBytesScanned  = "gc.bytes_scanned"
	StatGCBytesCoalesed = "gc.bytes_coalesced"
	StatGCOnDemand      = "gc.on_demand"

	StatMapHits      = "hoop.maptable_hits"
	StatMapMisses    = "hoop.maptable_misses"
	StatSliceFlushes = "hoop.slice_flushes"
	StatParallelRead = "hoop.parallel_reads"
	StatEvictBufHits = "hoop.evict_buffer_hits"
)
