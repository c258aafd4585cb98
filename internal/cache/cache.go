// Package cache models the volatile cache hierarchy from Table II of the
// HOOP paper: per-core 32 KB 4-way L1 and 256 KB 8-way L2, and a shared
// 2 MB 16-way inclusive LLC, all with 64-byte lines and LRU replacement.
//
// The model is tag-only (no data bytes): functional memory contents live in
// the persistence scheme and the NVM store, which is exactly the separation
// a crash needs — everything in this package is volatile and vanishes on
// power failure. What the hierarchy does carry, faithfully to the paper, is
// the per-line dirty bit and HOOP's extra "persistent bit" marking lines
// modified inside a transaction (§III-G), because where an evicted line must
// be written (home region vs OOP region) depends on that bit.
package cache

import (
	"math/bits"
	"slices"

	"hoop/internal/mem"
	"hoop/internal/sim"
	"hoop/internal/telemetry"
)

// Config sizes the hierarchy. All sizes are in bytes, latencies in
// simulated time (Table II uses a 2.5 GHz clock: L1 4 cycles, L2 12, LLC 40).
type Config struct {
	Cores      int
	L1Size     int
	L1Ways     int
	L1Latency  sim.Duration
	L2Size     int
	L2Ways     int
	L2Latency  sim.Duration
	LLCSize    int
	LLCWays    int
	LLCLatency sim.Duration
}

// DefaultConfig returns the Table II hierarchy for n cores at 2.5 GHz.
func DefaultConfig(n int) Config {
	const cycle = 400 * sim.Picosecond // 2.5 GHz
	return Config{
		Cores:      n,
		L1Size:     32 << 10,
		L1Ways:     4,
		L1Latency:  4 * cycle,
		L2Size:     256 << 10,
		L2Ways:     8,
		L2Latency:  12 * cycle,
		LLCSize:    2 << 20,
		LLCWays:    16,
		LLCLatency: 40 * cycle,
	}
}

// line is one cache-line tag entry.
type line struct {
	idx        uint64 // line index (addr >> 6); tag and set derive from it
	valid      bool
	dirty      bool
	persistent bool // HOOP per-line transaction bit
	stamp      uint64
}

// level is one set-associative tag array. The set count is a power of two,
// so a line's set is its index masked by setMask.
type level struct {
	sets    int
	setMask uint64
	ways    int
	latency sim.Duration
	meta    []line
	tick    uint64
}

// levelSets returns the set count of a size-byte, ways-way level,
// panicking unless it is a positive power of two.
func levelSets(size, ways int) int {
	sets := size / mem.LineSize / ways
	if sets <= 0 {
		panic("cache: level too small")
	}
	if sets&(sets-1) != 0 {
		panic("cache: set count must be a power of two")
	}
	return sets
}

func newLevel(size, ways int, lat sim.Duration) *level {
	sets := levelSets(size, ways)
	return &level{sets: sets, setMask: uint64(sets - 1), ways: ways, latency: lat, meta: make([]line, sets*ways)}
}

func (l *level) set(idx uint64) []line {
	s := int(idx & l.setMask)
	return l.meta[s*l.ways : (s+1)*l.ways]
}

// lookup finds the line, bumping LRU on hit.
func (l *level) lookup(idx uint64) *line {
	set := l.set(idx)
	for i := range set {
		if set[i].valid && set[i].idx == idx {
			l.tick++
			set[i].stamp = l.tick
			return &set[i]
		}
	}
	return nil
}

// insert places idx into the level, returning the victim that was evicted
// (valid==true) if the set was full.
func (l *level) insert(idx uint64, dirty, persistent bool) (victim line) {
	set := l.set(idx)
	// Prefer an invalid way.
	vi := -1
	var oldest uint64 = ^uint64(0)
	for i := range set {
		if !set[i].valid {
			vi = i
			victim = line{}
			break
		}
		if set[i].stamp < oldest {
			oldest = set[i].stamp
			vi = i
		}
	}
	if set[vi].valid {
		victim = set[vi]
	}
	l.tick++
	set[vi] = line{idx: idx, valid: true, dirty: dirty, persistent: persistent, stamp: l.tick}
	return victim
}

// invalidate drops idx, returning the dropped entry if it was present.
func (l *level) invalidate(idx uint64) (line, bool) {
	set := l.set(idx)
	for i := range set {
		if set[i].valid && set[i].idx == idx {
			old := set[i]
			set[i] = line{}
			return old, true
		}
	}
	return line{}, false
}

// Eviction describes a dirty line leaving the LLC toward memory. The
// persistence scheme decides where it lands (home region, OOP region, log).
type Eviction struct {
	Line       mem.PAddr
	Persistent bool // modified inside a transaction (HOOP persistent bit)
}

// Hierarchy is the full multi-core cache system.
type Hierarchy struct {
	cfg Config
	// l1[c] and l2[c] are core c's private levels, nil until the core's
	// first Lookup or Fill: a system sized for more cores than it runs
	// threads never pays for the idle cores' tag arrays. Only a core with
	// levels can set its presence bit, so the masked probes below never
	// meet a nil level.
	l1  []*level
	l2  []*level
	llc *level
	// Interned counter handles: exactly one of these fires per Lookup, so
	// they bypass the name-keyed stats map.
	l1Hits    *sim.Counter
	l2Hits    *sim.Counter
	llcHits   *sim.Counter
	llcMisses *sim.Counter
	evictions *sim.Counter
	// present maps line index -> bitmask of cores whose private hierarchy
	// (L1 or L2) may hold the line. Invariant: the mask is a superset of
	// the cores that hold it, which is what lets write-invalidation, Fill's
	// back-invalidation, FlushLine and the tests' ClearPersistent probe only those
	// cores instead of all of them.
	present presenceIndex
	// evScratch backs the slice Fill returns; the caller owns the contents
	// only until the next Fill call.
	evScratch []Eviction
	// drainKeys is DirtyEvictions' reused sort scratch.
	drainKeys []uint64

	tel *telemetry.Hub
}

// Presence-index geometry: the core-presence bitmasks live in direct-mapped
// pages of presenceLines consecutive line indices (one page spans
// presenceLines × 64 B = 16 KB of address space), found through a page table
// with a last-touched-page cache — the same structure mem.Store uses for
// data. Every hot-path presence read or update is then an array index; the
// page-table map is only consulted when the access stream crosses a page
// boundary.
const (
	presenceShift = 8 // lines per page (256)
	presenceLines = 1 << presenceShift
	presenceMask  = presenceLines - 1
)

type presencePage [presenceLines]uint32

type presenceIndex struct {
	pages   map[uint64]*presencePage
	lastKey uint64
	last    *presencePage
}

func (p *presenceIndex) reset() {
	p.pages = make(map[uint64]*presencePage)
	p.lastKey = 0
	p.last = nil
}

// page returns the page covering line idx, or nil when no bit in it was
// ever set.
func (p *presenceIndex) page(idx uint64) *presencePage {
	key := idx >> presenceShift
	if p.last != nil && key == p.lastKey {
		return p.last
	}
	pg := p.pages[key]
	if pg != nil {
		p.lastKey = key
		p.last = pg
	}
	return pg
}

func (p *presenceIndex) pageOrCreate(idx uint64) *presencePage {
	if pg := p.page(idx); pg != nil {
		return pg
	}
	key := idx >> presenceShift
	pg := new(presencePage)
	p.pages[key] = pg
	p.lastKey = key
	p.last = pg
	return pg
}

// get returns the presence mask for line idx (0 when never set).
func (p *presenceIndex) get(idx uint64) uint32 {
	if pg := p.page(idx); pg != nil {
		return pg[idx&presenceMask]
	}
	return 0
}

// set stores the presence mask for line idx. Storing 0 keeps the page: the
// pages track the touched footprint, which is bounded by the run's working
// set just like mem.Store's data pages.
func (p *presenceIndex) set(idx uint64, mask uint32) {
	if mask == 0 {
		if pg := p.page(idx); pg != nil {
			pg[idx&presenceMask] = 0
		}
		return
	}
	p.pageOrCreate(idx)[idx&presenceMask] = mask
}

// or sets bits in the presence mask for line idx.
func (p *presenceIndex) or(idx uint64, bits uint32) {
	pg := p.pageOrCreate(idx)
	pg[idx&presenceMask] |= bits
}

// New builds a hierarchy for cfg.
func New(cfg Config, stats *sim.Stats) *Hierarchy {
	if cfg.Cores < 1 || cfg.Cores > 32 {
		panic("cache: cores must be in [1,32]")
	}
	h := &Hierarchy{
		cfg:       cfg,
		llc:       newLevel(cfg.LLCSize, cfg.LLCWays, cfg.LLCLatency),
		l1Hits:    stats.Counter(sim.StatL1Hits),
		l2Hits:    stats.Counter(sim.StatL2Hits),
		llcHits:   stats.Counter(sim.StatLLCHits),
		llcMisses: stats.Counter(sim.StatLLCMisses),
		evictions: stats.Counter(sim.StatEvictions),
	}
	h.present.reset()
	// Reject a bad private geometry now, not at some core's first touch.
	levelSets(cfg.L1Size, cfg.L1Ways)
	levelSets(cfg.L2Size, cfg.L2Ways)
	h.l1 = make([]*level, cfg.Cores)
	h.l2 = make([]*level, cfg.Cores)
	return h
}

// allocPrivate gives core its private levels on its first access.
func (h *Hierarchy) allocPrivate(core int) {
	h.l1[core] = newLevel(h.cfg.L1Size, h.cfg.L1Ways, h.cfg.L1Latency)
	h.l2[core] = newLevel(h.cfg.L2Size, h.cfg.L2Ways, h.cfg.L2Latency)
}

// AttachTelemetry connects the hierarchy to a telemetry hub. A
// KindCacheMiss event fires per full-hierarchy miss while subscribed; the
// events carry no time — the hierarchy is tag-only and untimed, latency
// is charged by the caller.
func (h *Hierarchy) AttachTelemetry(hub *telemetry.Hub) { h.tel = hub }

// Result reports the outcome of a Lookup.
type Result struct {
	// Latency is the total tag-probe latency down to the level that hit
	// (or the full L1+L2+LLC probe time on a miss).
	Latency sim.Duration
	// HitLevel is 1, 2 or 3 for L1/L2/LLC hits, 0 for a miss.
	HitLevel int
}

// Lookup probes the hierarchy for core's access to address a. On a hit the
// line is promoted (and marked dirty/persistent for writes). On a miss the
// caller must obtain the data from the persistence scheme / NVM and then
// call Fill. Write hits invalidate other cores' private copies.
func (h *Hierarchy) Lookup(core int, a mem.PAddr, write, persistent bool) Result {
	if h.l1[core] == nil {
		h.allocPrivate(core)
	}
	idx := mem.LineIndex(a)
	lat := h.cfg.L1Latency
	if ln := h.l1[core].lookup(idx); ln != nil {
		if write {
			ln.dirty = true
			ln.persistent = ln.persistent || persistent
			h.markL2Dirty(core, idx, persistent)
			h.invalidateOthers(core, idx)
		}
		h.l1Hits.Inc()
		return Result{Latency: lat, HitLevel: 1}
	}
	lat += h.cfg.L2Latency
	if ln := h.l2[core].lookup(idx); ln != nil {
		// Promote into L1.
		h.fillL1(core, idx, write, write && persistent || ln.persistent)
		if write {
			ln.dirty = true
			ln.persistent = ln.persistent || persistent
			h.invalidateOthers(core, idx)
		}
		h.l2Hits.Inc()
		return Result{Latency: lat, HitLevel: 2}
	}
	lat += h.cfg.LLCLatency
	if ln := h.llc.lookup(idx); ln != nil {
		h.fillPrivate(core, idx, write, write && persistent || ln.persistent)
		if write {
			ln.dirty = true
			ln.persistent = ln.persistent || persistent
			h.invalidateOthers(core, idx)
		}
		h.llcHits.Inc()
		return Result{Latency: lat, HitLevel: 3}
	}
	h.llcMisses.Inc()
	if h.tel.Enabled(telemetry.KindCacheMiss) {
		var flags uint8
		if write {
			flags = telemetry.FlagWrite
		}
		h.tel.Emit(telemetry.Event{
			Kind:  telemetry.KindCacheMiss,
			Core:  int16(core),
			Addr:  mem.PAddr(idx << mem.LineShift),
			Bytes: mem.LineSize,
			Flags: flags,
		})
	}
	return Result{Latency: lat, HitLevel: 0}
}

// markL2Dirty keeps the inclusive L2 copy's dirty/persistent bits in sync
// when an L1 write hit occurs. (Real hardware defers this to L1 writeback;
// folding it early is equivalent for our accounting because only LLC
// evictions reach memory.)
func (h *Hierarchy) markL2Dirty(core int, idx uint64, persistent bool) {
	if ln := h.l2[core].lookup(idx); ln != nil {
		ln.dirty = true
		ln.persistent = ln.persistent || persistent
	}
	if ln := h.llc.lookup(idx); ln != nil {
		ln.dirty = true
		ln.persistent = ln.persistent || persistent
	}
}

// invalidateOthers removes the line from every other core's private levels
// (simple write-invalidate coherence).
func (h *Hierarchy) invalidateOthers(core int, idx uint64) {
	mask := h.present.get(idx)
	if mask == 0 {
		return
	}
	for c := 0; c < h.cfg.Cores; c++ {
		if c == core || mask&(1<<uint(c)) == 0 {
			continue
		}
		if old, ok := h.l1[c].invalidate(idx); ok && old.dirty {
			// Fold dirtiness into the shared LLC copy.
			if ln := h.llc.lookup(idx); ln != nil {
				ln.dirty = true
				ln.persistent = ln.persistent || old.persistent
			}
		}
		if old, ok := h.l2[c].invalidate(idx); ok && old.dirty {
			if ln := h.llc.lookup(idx); ln != nil {
				ln.dirty = true
				ln.persistent = ln.persistent || old.persistent
			}
		}
		mask &^= 1 << uint(c)
	}
	mask |= 1 << uint(core)
	h.present.set(idx, mask)
}

// fillL1 installs a line into core's L1 only (it is already in L2/LLC).
func (h *Hierarchy) fillL1(core int, idx uint64, dirty, persistent bool) {
	v := h.l1[core].insert(idx, dirty, persistent)
	if v.valid && v.dirty {
		// Victim folds into L2 (inclusive: it is there).
		if ln := h.l2[core].lookup(v.idx); ln != nil {
			ln.dirty = true
			ln.persistent = ln.persistent || v.persistent
		} else if ln := h.llc.lookup(v.idx); ln != nil {
			// L2 copy was itself evicted earlier; fold into LLC.
			ln.dirty = true
			ln.persistent = ln.persistent || v.persistent
		}
	}
}

// fillPrivate installs a line into core's L2 and L1 (already in LLC).
func (h *Hierarchy) fillPrivate(core int, idx uint64, dirty, persistent bool) {
	v := h.l2[core].insert(idx, dirty, persistent)
	if v.valid {
		if v.dirty {
			if ln := h.llc.lookup(v.idx); ln != nil {
				ln.dirty = true
				ln.persistent = ln.persistent || v.persistent
			}
		}
		// The victim leaves this core's private hierarchy entirely
		// (its L1 copy, if any, is dropped to preserve inclusion).
		if old, ok := h.l1[core].invalidate(v.idx); ok && old.dirty {
			if ln := h.llc.lookup(v.idx); ln != nil {
				ln.dirty = true
				ln.persistent = ln.persistent || old.persistent
			}
		}
		h.dropPresence(core, v.idx)
	}
	h.fillL1(core, idx, dirty, persistent)
	h.addPresence(core, idx)
}

func (h *Hierarchy) addPresence(core int, idx uint64) {
	h.present.or(idx, 1<<uint(core))
}

func (h *Hierarchy) dropPresence(core int, idx uint64) {
	if pg := h.present.page(idx); pg != nil {
		pg[idx&presenceMask] &^= 1 << uint(core)
	}
}

// Fill installs the line containing a into the shared LLC and core's
// private levels after a miss has been serviced by memory. Dirty LLC
// victims are returned so the persistence scheme can write them to NVM.
func (h *Hierarchy) Fill(core int, a mem.PAddr, write, persistent bool) []Eviction {
	if h.l1[core] == nil {
		h.allocPrivate(core)
	}
	idx := mem.LineIndex(a)
	out := h.evScratch[:0]
	v := h.llc.insert(idx, write, persistent)
	if v.valid {
		dirty := v.dirty
		pers := v.persistent
		// Inclusive LLC: back-invalidate every private copy.
		if mask := h.present.get(v.idx); mask != 0 {
			for c := 0; c < h.cfg.Cores; c++ {
				if mask&(1<<uint(c)) == 0 {
					continue
				}
				if old, ok := h.l1[c].invalidate(v.idx); ok && old.dirty {
					dirty = true
					pers = pers || old.persistent
				}
				if old, ok := h.l2[c].invalidate(v.idx); ok && old.dirty {
					dirty = true
					pers = pers || old.persistent
				}
			}
			h.present.set(v.idx, 0)
		}
		if dirty {
			h.evictions.Inc()
			out = append(out, Eviction{Line: mem.PAddr(v.idx << mem.LineShift), Persistent: pers})
		}
	}
	h.fillPrivate(core, idx, write, persistent)
	if write {
		h.invalidateOthers(core, idx)
	}
	h.evScratch = out
	return out
}

// FlushLine writes back and optionally invalidates the line containing a
// across the whole hierarchy (clwb/clflush semantics used by the logging
// baselines). It reports whether the line was dirty anywhere (in which case
// the caller must perform the NVM write) and whether it carried the
// persistent bit. Only the cores in the line's presence mask can hold it
// privately, so only their levels are probed.
func (h *Hierarchy) FlushLine(a mem.PAddr, invalidate bool) (dirty, persistent bool) {
	idx := mem.LineIndex(a)
	fold := func(l *level) {
		var old line
		var ok bool
		if invalidate {
			old, ok = l.invalidate(idx)
		} else if ln := l.lookup(idx); ln != nil {
			old, ok = *ln, true
			ln.dirty = false
		}
		if ok && old.dirty {
			dirty = true
			persistent = persistent || old.persistent
		}
	}
	for mask := h.present.get(idx); mask != 0; mask &= mask - 1 {
		c := bits.TrailingZeros32(mask)
		fold(h.l1[c])
		fold(h.l2[c])
	}
	fold(h.llc)
	if invalidate {
		h.present.set(idx, 0)
	}
	return dirty, persistent
}

// DirtyEvictions returns the eviction records (address + persistent bit) a
// full writeback of the LLC would produce, in ascending address order. The
// harness uses it to close measurement windows so that every scheme —
// including the native baseline — accounts the traffic its still-cached
// dirty data will eventually cost.
func (h *Hierarchy) DirtyEvictions() []Eviction {
	// A line address has its low LineShift bits free, so the persistent
	// bit rides in bit 0 and a plain integer sort orders by address.
	keys := h.drainKeys[:0]
	for i := range h.llc.meta {
		ln := &h.llc.meta[i]
		if ln.valid && ln.dirty {
			k := ln.idx << mem.LineShift
			if ln.persistent {
				k |= 1
			}
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	h.drainKeys = keys
	out := make([]Eviction, len(keys))
	for i, k := range keys {
		out[i] = Eviction{Line: mem.PAddr(k &^ 1), Persistent: k&1 != 0}
	}
	return out
}

// DropAll models power loss: every cached line vanishes and the hierarchy
// is back in its freshly built state. The private levels go back to
// untouched, so a core allocates them again only if it runs after the
// crash.
func (h *Hierarchy) DropAll() {
	clear(h.l1)
	clear(h.l2)
	clear(h.llc.meta)
	h.llc.tick = 0
	h.present.reset()
}
