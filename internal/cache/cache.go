// Package cache models the volatile cache hierarchy from Table II of the
// HOOP paper: per-core 32 KB 4-way L1 and 256 KB 8-way L2, and a shared
// 2 MB 16-way inclusive LLC, all with 64-byte lines and LRU replacement.
//
// The model is tag-only (no data bytes): functional memory contents live in
// the persistence scheme and the NVM store, which is exactly the separation
// a crash needs — everything in this package is volatile and vanishes on
// power failure. What the hierarchy does carry is the per-line dirty bit.
// The paper's HOOP cache adds a "persistent bit" marking lines modified
// inside a transaction (§III-G), so an eviction can tell transactional
// lines (out of place) from plain stores (in place). This simulator has no
// plain stores — a store outside a transaction panics in the engine — so
// every dirty line is transactional and the dirty bit alone decides: a
// dirty line leaving the LLC goes to the persistence scheme.
//
// Host representation: each level keeps one packed 8-byte tag word per way
// (line index plus valid and dirty bits) and a parallel array
// of LRU stamps, so a set probe reads only tag words (a 16-way LLC set is
// 128 B, an 8-way L2 set one host cache line). The per-line core-presence
// masks live in a mem.Dir radix page directory; no access path hashes.
package cache

import (
	"math/bits"
	"slices"
	"sync"

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

// A way's tag word packs the line index (addr >> 6) above two flag bits:
// valid and dirty. A zero word is an invalid way, so a set probe compares
// tag words only.
const (
	tagValid    = 1 << 0
	tagDirty    = 1 << 1
	tagFlagBits = 2
)

// tagIndex returns the line index a valid tag word holds.
func tagIndex(t uint64) uint64 { return t >> tagFlagBits }

// level is one set-associative tag array. The set count is a power of two,
// so a line's set is its index masked by setMask. Set s occupies ways
// [s*ways, (s+1)*ways) of tags and of the parallel LRU stamps; stamps are
// read only to pick a victim in a full set.
type level struct {
	sets    int
	setMask uint64
	ways    int
	latency sim.Duration
	tags    []uint64
	stamps  []uint64
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

// levelGeom keys the free lists of levelPools.
type levelGeom struct{ sets, ways int }

// levelPools holds a free list (a *sync.Pool) of cleared levels per
// geometry, so a run that builds many hierarchies one after another
// reuses the tag arrays of the ones it released instead of allocating
// about 0.8 MB per simulated machine.
var levelPools sync.Map

func levelPool(g levelGeom) *sync.Pool {
	if p, ok := levelPools.Load(g); ok {
		return p.(*sync.Pool)
	}
	p, _ := levelPools.LoadOrStore(g, new(sync.Pool))
	return p.(*sync.Pool)
}

// newLevel returns an empty level, recycled from the free list of its
// geometry when one is there.
func newLevel(size, ways int, lat sim.Duration) *level {
	sets := levelSets(size, ways)
	if l, _ := levelPool(levelGeom{sets, ways}).Get().(*level); l != nil {
		l.latency = lat
		return l
	}
	return &level{sets: sets, setMask: uint64(sets - 1), ways: ways, latency: lat,
		tags: make([]uint64, sets*ways), stamps: make([]uint64, sets*ways)}
}

// release clears l and puts it on its geometry's free list. The caller
// must drop every reference to l.
func (l *level) release() {
	clear(l.tags)
	clear(l.stamps)
	l.tick = 0
	levelPool(levelGeom{l.sets, l.ways}).Put(l)
}

// setBase returns the position of the first way of idx's set.
func (l *level) setBase(idx uint64) int { return int(idx&l.setMask) * l.ways }

// find returns the position of idx's way, or -1, without touching LRU.
func (l *level) find(idx uint64) int {
	b := l.setBase(idx)
	want := idx<<tagFlagBits | tagValid
	for i, t := range l.tags[b : b+l.ways] {
		if t&^tagDirty == want {
			return b + i
		}
	}
	return -1
}

// lookup finds the line, bumping LRU on hit. It returns the way's
// position in tags, or -1 on a miss.
func (l *level) lookup(idx uint64) int {
	w := l.find(idx)
	if w >= 0 {
		l.tick++
		l.stamps[w] = l.tick
	}
	return w
}

// fold marks idx's way dirty if the level holds it (bumping its LRU stamp
// like any hit). It reports whether the level held idx.
func (l *level) fold(idx uint64) bool {
	w := l.lookup(idx)
	if w >= 0 {
		l.tags[w] |= tagDirty
	}
	return w >= 0
}

// insert places idx into the level, returning the tag word of the victim
// it evicted, or 0 if the set had an invalid way.
func (l *level) insert(idx uint64, dirty bool) (victim uint64) {
	b := l.setBase(idx)
	vi := -1
	for i, t := range l.tags[b : b+l.ways] {
		if t == 0 {
			vi = b + i
			break
		}
	}
	if vi < 0 {
		// Full set: the least recently used way goes.
		vi = b
		for i := b + 1; i < b+l.ways; i++ {
			if l.stamps[i] < l.stamps[vi] {
				vi = i
			}
		}
		victim = l.tags[vi]
	}
	t := idx<<tagFlagBits | tagValid
	if dirty {
		t |= tagDirty
	}
	l.tick++
	l.tags[vi] = t
	l.stamps[vi] = l.tick
	return victim
}

// invalidate drops idx, returning its tag word, or 0 if it was absent.
func (l *level) invalidate(idx uint64) uint64 {
	w := l.find(idx)
	if w < 0 {
		return 0
	}
	old := l.tags[w]
	l.tags[w] = 0
	l.stamps[w] = 0
	return old
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
	// back-invalidation and FlushLine probe only those cores instead of all
	// of them.
	present presenceIndex
	// evScratch backs the slice Fill returns; the caller owns the contents
	// only until the next Fill call.
	evScratch []mem.PAddr
	// drainScratch backs the slice DirtyEvictions returns, on the same
	// terms.
	drainScratch []mem.PAddr

	tel *telemetry.Hub
}

// Presence-index geometry: the core-presence bitmasks live in pages of
// presenceLines consecutive line indices (one page spans presenceLines ×
// 64 B = 16 KB of address space), found through a mem.Dir radix page
// directory. Every presence read or update is three array indexings and
// no hashing.
const (
	presenceShift = 8 // lines per page (256)
	presenceLines = 1 << presenceShift
	presenceMask  = presenceLines - 1
)

type presencePage [presenceLines]uint32

type presenceIndex struct {
	dir mem.Dir[presencePage]
}

// reset drops every page.
func (p *presenceIndex) reset() {
	p.dir = mem.NewDir[presencePage](presenceShift + mem.LineShift)
}

// page returns the page covering line idx, or nil when no bit in it was
// ever set.
func (p *presenceIndex) page(idx uint64) *presencePage {
	return p.dir.Page(mem.PAddr(idx << mem.LineShift))
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
	p.dir.PageOrNew(mem.PAddr(idx << mem.LineShift))[idx&presenceMask] = mask
}

// or sets bits in the presence mask for line idx.
func (p *presenceIndex) or(idx uint64, bits uint32) {
	p.dir.PageOrNew(mem.PAddr(idx << mem.LineShift))[idx&presenceMask] |= bits
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
// line is promoted (and marked dirty for writes). On a miss the caller must
// obtain the data from the persistence scheme / NVM and then call Fill.
// Write hits invalidate other cores' private copies.
func (h *Hierarchy) Lookup(core int, a mem.PAddr, write bool) Result {
	if h.l1[core] == nil {
		h.allocPrivate(core)
	}
	idx := mem.LineIndex(a)
	lat := h.cfg.L1Latency
	l1 := h.l1[core]
	if w := l1.lookup(idx); w >= 0 {
		if write {
			l1.tags[w] |= tagDirty
			h.markL2Dirty(core, idx)
			h.invalidateOthers(core, idx)
		}
		h.l1Hits.Inc()
		return Result{Latency: lat, HitLevel: 1}
	}
	lat += h.cfg.L2Latency
	l2 := h.l2[core]
	if w := l2.lookup(idx); w >= 0 {
		// Promote into L1.
		h.fillL1(core, idx, write)
		if write {
			l2.tags[w] |= tagDirty
			h.invalidateOthers(core, idx)
		}
		h.l2Hits.Inc()
		return Result{Latency: lat, HitLevel: 2}
	}
	lat += h.cfg.LLCLatency
	if w := h.llc.lookup(idx); w >= 0 {
		h.fillPrivate(core, idx, write)
		if write {
			h.llc.tags[w] |= tagDirty
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

// markL2Dirty keeps the inclusive L2 and LLC copies' dirty bits in sync
// when an L1 write hit occurs. (Real hardware defers this to L1 writeback;
// folding it early is equivalent for our accounting because only LLC
// evictions reach memory.)
func (h *Hierarchy) markL2Dirty(core int, idx uint64) {
	h.l2[core].fold(idx)
	h.llc.fold(idx)
}

// invalidateOthers removes the line from every other core's private levels
// (simple write-invalidate coherence). Only other cores' presence bits
// matter: with none set there is nothing to invalidate, and the mask is
// left as it is.
func (h *Hierarchy) invalidateOthers(core int, idx uint64) {
	mask := h.present.get(idx)
	if mask&^(1<<uint(core)) == 0 {
		return
	}
	for c := 0; c < h.cfg.Cores; c++ {
		if c == core || mask&(1<<uint(c)) == 0 {
			continue
		}
		// Fold dirtiness into the shared LLC copy.
		if old := h.l1[c].invalidate(idx); old&tagDirty != 0 {
			h.llc.fold(idx)
		}
		if old := h.l2[c].invalidate(idx); old&tagDirty != 0 {
			h.llc.fold(idx)
		}
		mask &^= 1 << uint(c)
	}
	mask |= 1 << uint(core)
	h.present.set(idx, mask)
}

// fillL1 installs a line into core's L1 only (it is already in L2/LLC).
func (h *Hierarchy) fillL1(core int, idx uint64, dirty bool) {
	v := h.l1[core].insert(idx, dirty)
	if v&tagDirty != 0 {
		// Victim folds into L2 (inclusive: it is there).
		vidx := tagIndex(v)
		if !h.l2[core].fold(vidx) {
			// L2 copy was itself evicted earlier; fold into LLC.
			h.llc.fold(vidx)
		}
	}
}

// fillPrivate installs a line into core's L2 and L1 (already in LLC).
func (h *Hierarchy) fillPrivate(core int, idx uint64, dirty bool) {
	if v := h.l2[core].insert(idx, dirty); v != 0 {
		vidx := tagIndex(v)
		if v&tagDirty != 0 {
			h.llc.fold(vidx)
		}
		// The victim leaves this core's private hierarchy entirely
		// (its L1 copy, if any, is dropped to preserve inclusion).
		if old := h.l1[core].invalidate(vidx); old&tagDirty != 0 {
			h.llc.fold(vidx)
		}
		h.dropPresence(core, vidx)
	}
	h.fillL1(core, idx, dirty)
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
// private levels after a miss has been serviced by memory. The addresses
// of dirty LLC victims are returned so the persistence scheme can write
// them to NVM.
func (h *Hierarchy) Fill(core int, a mem.PAddr, write bool) []mem.PAddr {
	if h.l1[core] == nil {
		h.allocPrivate(core)
	}
	idx := mem.LineIndex(a)
	out := h.evScratch[:0]
	if v := h.llc.insert(idx, write); v != 0 {
		vidx := tagIndex(v)
		flags := v
		// Inclusive LLC: back-invalidate every private copy.
		if mask := h.present.get(vidx); mask != 0 {
			for c := 0; c < h.cfg.Cores; c++ {
				if mask&(1<<uint(c)) == 0 {
					continue
				}
				// Every copy holds vidx, so only the dirty bit can add.
				flags |= h.l1[c].invalidate(vidx) | h.l2[c].invalidate(vidx)
			}
			h.present.set(vidx, 0)
		}
		if flags&tagDirty != 0 {
			h.evictions.Inc()
			out = append(out, mem.PAddr(vidx<<mem.LineShift))
		}
	}
	h.fillPrivate(core, idx, write)
	if write {
		h.invalidateOthers(core, idx)
	}
	h.evScratch = out
	return out
}

// FlushLine writes back and optionally invalidates the line containing a
// across the whole hierarchy (clwb/clflush semantics used by the logging
// baselines): every copy comes out clean, or absent when invalidate. The
// caller performs the NVM write. Only the cores in the line's presence
// mask can hold it privately, so only their levels are probed.
func (h *Hierarchy) FlushLine(a mem.PAddr, invalidate bool) {
	idx := mem.LineIndex(a)
	drain := func(l *level) {
		if invalidate {
			l.invalidate(idx)
		} else if w := l.lookup(idx); w >= 0 {
			l.tags[w] &^= tagDirty
		}
	}
	for mask := h.present.get(idx); mask != 0; mask &= mask - 1 {
		c := bits.TrailingZeros32(mask)
		drain(h.l1[c])
		drain(h.l2[c])
	}
	drain(h.llc)
	if invalidate {
		h.present.set(idx, 0)
	}
}

// DirtyEvictions returns the addresses of the dirty lines a full writeback
// of the LLC would evict, in ascending order. The harness uses it to close
// measurement windows so that every scheme — including the native
// baseline — accounts the traffic its still-cached dirty data will
// eventually cost. The caller owns the slice only until the next
// DirtyEvictions call.
func (h *Hierarchy) DirtyEvictions() []mem.PAddr {
	out := h.drainScratch[:0]
	for _, t := range h.llc.tags {
		if t&tagDirty != 0 {
			out = append(out, mem.PAddr(tagIndex(t)<<mem.LineShift))
		}
	}
	slices.Sort(out)
	h.drainScratch = out
	return out
}

// DropAll models power loss: every cached line vanishes and the hierarchy
// is back in its freshly built state. The private levels return to the
// free list, so a core takes a cleared pair again only if it runs after
// the crash.
func (h *Hierarchy) DropAll() {
	h.releasePrivate()
	clear(h.llc.tags)
	clear(h.llc.stamps)
	h.llc.tick = 0
	h.present.reset()
}

// Release returns every tag array to the free list for the next
// hierarchy of the same geometry. The hierarchy must not be used again.
func (h *Hierarchy) Release() {
	h.releasePrivate()
	h.llc.release()
	h.llc = nil
}

// releasePrivate returns every core's private levels to the free list and
// leaves the cores untouched.
func (h *Hierarchy) releasePrivate() {
	for c, l := range h.l1 {
		if l != nil {
			l.release()
			h.l2[c].release()
		}
	}
	clear(h.l1)
	clear(h.l2)
}
