package cache

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"hoop/internal/mem"
	"hoop/internal/sim"
)

func newHier(t *testing.T, cores int) (*Hierarchy, *sim.Stats) {
	t.Helper()
	st := sim.NewStats()
	return New(DefaultConfig(cores), st), st
}

func addr(line int) mem.PAddr { return mem.PAddr(line * mem.LineSize) }

func TestMissThenHitLadder(t *testing.T) {
	h, st := newHier(t, 2)
	r := h.Lookup(0, addr(1), false)
	if r.HitLevel != 0 {
		t.Fatal("cold access must miss")
	}
	h.Fill(0, addr(1), false)
	r = h.Lookup(0, addr(1), false)
	if r.HitLevel != 1 {
		t.Fatalf("after fill, hit level = %d", r.HitLevel)
	}
	if r.Latency != DefaultConfig(2).L1Latency {
		t.Fatalf("L1 hit latency = %v", r.Latency)
	}
	if st.Get(sim.StatL1Hits) != 1 || st.Get(sim.StatLLCMisses) != 1 {
		t.Fatalf("stats: %s", st)
	}
}

func TestOtherCoreHitsSharedLLC(t *testing.T) {
	h, _ := newHier(t, 2)
	h.Fill(0, addr(7), false)
	r := h.Lookup(1, addr(7), false)
	if r.HitLevel != 3 {
		t.Fatalf("core 1 should hit the shared LLC, got level %d", r.HitLevel)
	}
	// And now it is in core 1's private levels too.
	if r := h.Lookup(1, addr(7), false); r.HitLevel != 1 {
		t.Fatalf("promotion failed, level %d", r.HitLevel)
	}
}

func TestWriteInvalidatesOtherCores(t *testing.T) {
	h, _ := newHier(t, 2)
	h.Fill(0, addr(3), false)
	h.Fill(1, addr(3), false)
	// Core 0 writes: core 1's private copies must go.
	if r := h.Lookup(0, addr(3), true); r.HitLevel != 1 {
		t.Fatalf("write should hit L1, level %d", r.HitLevel)
	}
	if r := h.Lookup(1, addr(3), false); r.HitLevel == 1 || r.HitLevel == 2 {
		t.Fatalf("core 1 should have been invalidated, hit level %d", r.HitLevel)
	}
}

func TestLLCEvictionReturnsDirtyPersistent(t *testing.T) {
	cfg := DefaultConfig(1)
	// Tiny LLC: 2 sets x 2 ways forces quick evictions.
	cfg.LLCSize = 4 * mem.LineSize
	cfg.LLCWays = 2
	cfg.L1Size = 4 * mem.LineSize
	cfg.L1Ways = 1
	cfg.L2Size = 8 * mem.LineSize
	cfg.L2Ways = 2
	h := New(cfg, sim.NewStats())
	// Dirty (transactional) line 0, then displace it with clean same-set
	// fills.
	h.Fill(0, addr(0), true)
	var evs []mem.PAddr
	for i := 1; i < 16; i++ {
		evs = append(evs, h.Fill(0, addr(i*2), false)...) // stride hits set 0
	}
	if !slices.Contains(evs, addr(0)) {
		t.Fatal("dirty line was never evicted")
	}
	if !slices.Equal(evs, []mem.PAddr{addr(0)}) {
		t.Fatalf("evictions %v, want only the dirty line %v", evs, addr(0))
	}
}

func TestFlushLine(t *testing.T) {
	h, _ := newHier(t, 1)
	h.Fill(0, addr(9), true)
	if evs := h.DirtyEvictions(); !slices.Equal(evs, []mem.PAddr{addr(9)}) {
		t.Fatalf("dirty lines before flush = %v, want %v", evs, addr(9))
	}
	h.FlushLine(addr(9), false)
	if evs := h.DirtyEvictions(); len(evs) != 0 {
		t.Fatalf("line should be clean after flush, dirty lines %v", evs)
	}
	if !h.Contains(addr(9)) {
		t.Fatal("non-invalidating flush must keep the line")
	}
	h.FlushLine(addr(9), true)
	if h.Contains(addr(9)) {
		t.Fatal("invalidating flush must drop the line")
	}
}

func TestDropAll(t *testing.T) {
	h, _ := newHier(t, 2)
	for i := 0; i < 50; i++ {
		h.Fill(i%2, addr(i), true)
	}
	if len(h.DirtyEvictions()) == 0 {
		t.Fatal("expected dirty lines")
	}
	h.DropAll()
	if len(h.DirtyEvictions()) != 0 || h.Contains(addr(1)) {
		t.Fatal("DropAll must erase everything")
	}
}

func TestDirtyEvictionsSortedAndFlagged(t *testing.T) {
	h, _ := newHier(t, 1)
	h.Fill(0, addr(30), true)
	h.Fill(0, addr(10), true)
	h.Fill(0, addr(20), false)
	evs := h.DirtyEvictions()
	if len(evs) != 2 {
		t.Fatalf("want 2 dirty lines, got %d", len(evs))
	}
	if evs[0] != addr(10) || evs[1] != addr(30) {
		t.Fatalf("not sorted: %v", evs)
	}
}

func TestLRUWithinSet(t *testing.T) {
	l := newLevel(4*mem.LineSize, 4, 0) // one set, 4 ways
	for i := uint64(0); i < 4; i++ {
		l.insert(i, false)
	}
	l.lookup(0) // touch 0 -> victim should be 1
	v := l.insert(99, false)
	if v == 0 || tagIndex(v) != 1 {
		t.Fatalf("victim = %#x, want idx 1", v)
	}
}

func TestConfigGeometry(t *testing.T) {
	cfg := DefaultConfig(16)
	if cfg.L1Size/mem.LineSize/cfg.L1Ways != 128 {
		t.Fatal("L1 must have 128 sets (32KB, 4-way)")
	}
	if cfg.LLCSize != 2<<20 || cfg.LLCWays != 16 {
		t.Fatal("LLC must be 2MB 16-way (Table II)")
	}
}

// holds reports whether l has a valid way for idx without touching LRU
// state, so invariant checks do not perturb the hierarchy they inspect.
func holds(l *level, idx uint64) bool { return l.find(idx) >= 0 }

// privateLevels returns core c's L1 and L2, or empty levels of the same
// geometry when c was never touched: an untouched core holds no lines.
func privateLevels(h *Hierarchy, c int) (l1, l2 *level) {
	if h.l1[c] == nil {
		return newLevel(h.cfg.L1Size, h.cfg.L1Ways, h.cfg.L1Latency), newLevel(h.cfg.L2Size, h.cfg.L2Ways, h.cfg.L2Latency)
	}
	return h.l1[c], h.l2[c]
}

// dirtyAnywhere reports whether any level of any core holds the line
// containing a dirty, without touching LRU state or the presence index.
func dirtyAnywhere(h *Hierarchy, a mem.PAddr) bool {
	idx := mem.LineIndex(a)
	levels := []*level{h.llc}
	for c := 0; c < h.cfg.Cores; c++ {
		if h.l1[c] != nil {
			levels = append(levels, h.l1[c], h.l2[c])
		}
	}
	for _, l := range levels {
		if w := l.find(idx); w >= 0 && l.tags[w]&tagDirty != 0 {
			return true
		}
	}
	return false
}

// refFlushLine is FlushLine probing every core's private levels rather
// than only the cores in the presence mask: the oracle the masked version
// must match bit for bit. It reports whether the line was dirty anywhere.
func refFlushLine(h *Hierarchy, a mem.PAddr, invalidate bool) (dirty bool) {
	idx := mem.LineIndex(a)
	fold := func(l *level) {
		var old uint64
		if invalidate {
			old = l.invalidate(idx)
		} else if w := l.lookup(idx); w >= 0 {
			old = l.tags[w]
			l.tags[w] &^= tagDirty
		}
		dirty = dirty || old&tagDirty != 0
	}
	for c := 0; c < h.cfg.Cores; c++ {
		l1, l2 := privateLevels(h, c)
		fold(l1)
		fold(l2)
	}
	fold(h.llc)
	if invalidate {
		h.present.set(idx, 0)
	}
	return dirty
}

// checkHierarchy asserts the structural invariants the masked flush relies
// on: every way sits in the set its index maps to, L1 ⊆ L2 ⊆ LLC per core,
// and the presence mask covers every core holding the line privately.
func checkHierarchy(t *testing.T, h *Hierarchy, step int) {
	t.Helper()
	levels := []*level{h.llc}
	for c := 0; c < h.cfg.Cores; c++ {
		l1, l2 := privateLevels(h, c)
		levels = append(levels, l1, l2)
	}
	for _, l := range levels {
		for i, tag := range l.tags {
			if idx := tagIndex(tag); tag != 0 && int(idx%uint64(l.sets)) != i/l.ways {
				t.Fatalf("step %d: line %d in set %d, want %d", step, idx, i/l.ways, idx%uint64(l.sets))
			}
			if tag == 0 && l.stamps[i] != 0 {
				t.Fatalf("step %d: invalid way %d keeps LRU stamp %d", step, i, l.stamps[i])
			}
		}
	}
	for c := 0; c < h.cfg.Cores; c++ {
		l1, l2 := privateLevels(h, c)
		for _, tag := range l1.tags {
			if tag != 0 && !holds(l2, tagIndex(tag)) {
				t.Fatalf("step %d: core %d L1 holds line %d without L2", step, c, tagIndex(tag))
			}
		}
		for _, tag := range l2.tags {
			if tag == 0 {
				continue
			}
			idx := tagIndex(tag)
			if !holds(h.llc, idx) {
				t.Fatalf("step %d: core %d L2 holds line %d without LLC", step, c, idx)
			}
			if h.present.get(idx)&(1<<uint(c)) == 0 {
				t.Fatalf("step %d: core %d holds line %d outside its presence mask %#x", step, c, idx, h.present.get(idx))
			}
		}
	}
}

// sameState asserts two hierarchies hold identical tag state: the tag word
// (line index, valid and dirty bits) and stamp of every way,
// every level's LRU clock, and every presence mask.
func sameState(t *testing.T, got, want *Hierarchy, lines, step int) {
	t.Helper()
	same := func(name string, a, b *level) {
		if a.tick != b.tick || !slices.Equal(a.tags, b.tags) || !slices.Equal(a.stamps, b.stamps) {
			t.Fatalf("step %d: %s diverged from the all-cores reference", step, name)
		}
	}
	same("LLC", got.llc, want.llc)
	for c := 0; c < got.cfg.Cores; c++ {
		g1, g2 := privateLevels(got, c)
		w1, w2 := privateLevels(want, c)
		same(fmt.Sprintf("core %d L1", c), g1, w1)
		same(fmt.Sprintf("core %d L2", c), g2, w2)
	}
	for i := 0; i < lines; i++ {
		if g, w := got.present.get(uint64(i)), want.present.get(uint64(i)); g != w {
			t.Fatalf("step %d: presence of line %d = %#x, reference %#x", step, i, g, w)
		}
	}
}

// driveSeeded runs a seeded Lookup/Fill/FlushLine stream over the given
// cores and 64 lines, returning a transcript of every result (and of each
// flushed line's dirtiness) so two runs can be compared.
func driveSeeded(h *Hierarchy, cores []int, seed uint64) []string {
	rng := rand.New(rand.NewPCG(seed, 19))
	var out []string
	for step := 0; step < 4000; step++ {
		core := cores[rng.IntN(len(cores))]
		a := addr(rng.IntN(64))
		if rng.IntN(10) < 7 {
			write := rng.IntN(2) == 0
			r := h.Lookup(core, a, write)
			out = append(out, fmt.Sprint(r))
			if r.HitLevel == 0 {
				out = append(out, fmt.Sprint(h.Fill(core, a, write)))
			}
			continue
		}
		out = append(out, fmt.Sprint(dirtyAnywhere(h, a)))
		h.FlushLine(a, rng.IntN(2) == 0)
	}
	return append(out, fmt.Sprint(h.DirtyEvictions()))
}

// TestPrivateLevelsOnFirstTouch: a 16-core hierarchy driven only by cores
// 0 and 3 allocates exactly those cores' private levels, and after
// DropAll the same seeded stream reproduces a fresh hierarchy's results
// and state.
func TestPrivateLevelsOnFirstTouch(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.L1Size, cfg.L1Ways = 4*mem.LineSize, 2
	cfg.L2Size, cfg.L2Ways = 8*mem.LineSize, 2
	cfg.LLCSize, cfg.LLCWays = 32*mem.LineSize, 4
	h := New(cfg, sim.NewStats())
	for c := 0; c < cfg.Cores; c++ {
		if h.l1[c] != nil || h.l2[c] != nil {
			t.Fatalf("core %d has private levels before any access", c)
		}
	}
	cores := []int{0, 3}
	first := driveSeeded(h, cores, 7)
	for c := 0; c < cfg.Cores; c++ {
		touched := c == 0 || c == 3
		if (h.l1[c] != nil) != touched || (h.l2[c] != nil) != touched {
			t.Fatalf("core %d: L1 allocated %v, L2 allocated %v, touched %v", c, h.l1[c] != nil, h.l2[c] != nil, touched)
		}
	}
	checkHierarchy(t, h, -1)

	h.DropAll()
	for c := 0; c < cfg.Cores; c++ {
		if h.l1[c] != nil || h.l2[c] != nil {
			t.Fatalf("core %d keeps private levels after DropAll", c)
		}
	}
	sameState(t, h, New(cfg, sim.NewStats()), 64, -1)
	if again := driveSeeded(h, cores, 7); !slices.Equal(again, first) {
		t.Fatal("the stream after DropAll diverged from the fresh hierarchy's run")
	}
	fresh := New(cfg, sim.NewStats())
	driveSeeded(fresh, cores, 7)
	sameState(t, h, fresh, 64, -1)
}

// TestReleaseRecyclesClearedLevels releases a used hierarchy and builds
// the next one of the same geometry from its levels: the new hierarchy
// must start in the freshly built state and replay the same seeded stream
// to the same results, and across a few rounds (sync.Pool may drop an
// item) some round must really reuse the released LLC.
func TestReleaseRecyclesClearedLevels(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.L1Size, cfg.L1Ways = 8*mem.LineSize, 2
	cfg.L2Size, cfg.L2Ways = 16*mem.LineSize, 2
	cfg.LLCSize, cfg.LLCWays = 64*mem.LineSize, 4
	cores := []int{1, 5}
	h := New(cfg, sim.NewStats())
	first := driveSeeded(h, cores, 11)
	reused := false
	for round := 0; round < 8; round++ {
		llc := h.llc
		h.Release()
		h = New(cfg, sim.NewStats())
		reused = reused || h.llc == llc
		driveSeeded(h, []int{0}, 12) // touches core 0's private levels, which then get released too
		h.Release()
		h = New(cfg, sim.NewStats())
		sameState(t, h, New(cfg, sim.NewStats()), 64, -1)
		if again := driveSeeded(h, cores, 11); !slices.Equal(again, first) {
			t.Fatalf("round %d: the stream on recycled levels diverged from the first run", round)
		}
	}
	if !reused {
		t.Fatal("no round reused a released LLC")
	}
}

// TestMaskedFlushMatchesAllCores drives a seeded random access stream over
// a small 16-core hierarchy and, after every step, checks the structural
// invariants and that FlushLine (which probes only the cores in the
// presence mask) leaves exactly the state of probing every core, with no
// dirty copy left behind.
func TestMaskedFlushMatchesAllCores(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.L1Size, cfg.L1Ways = 4*mem.LineSize, 2    // 2 sets
	cfg.L2Size, cfg.L2Ways = 8*mem.LineSize, 2    // 4 sets
	cfg.LLCSize, cfg.LLCWays = 32*mem.LineSize, 4 // 8 sets
	h, ref := New(cfg, sim.NewStats()), New(cfg, sim.NewStats())
	const lines = 64
	rng := rand.New(rand.NewPCG(1, 16))
	var flushes, dirtyFlushes int
	for step := 0; step < 20000; step++ {
		core := rng.IntN(cfg.Cores)
		a := addr(rng.IntN(lines))
		if rng.IntN(10) < 6 {
			write := rng.IntN(2) == 0
			r, rr := h.Lookup(core, a, write), ref.Lookup(core, a, write)
			if r != rr {
				t.Fatalf("step %d: Lookup %+v, reference %+v", step, r, rr)
			}
			if r.HitLevel == 0 {
				ev := slices.Clone(h.Fill(core, a, write))
				if rev := ref.Fill(core, a, write); !slices.Equal(ev, rev) {
					t.Fatalf("step %d: Fill evicted %v, reference %v", step, ev, rev)
				}
			}
		} else {
			inv := rng.IntN(2) == 0
			d := dirtyAnywhere(h, a)
			h.FlushLine(a, inv)
			if rd := refFlushLine(ref, a, inv); d != rd {
				t.Fatalf("step %d: line dirty before FlushLine(%v) = %v, reference %v", step, inv, d, rd)
			}
			if dirtyAnywhere(h, a) {
				t.Fatalf("step %d: FlushLine(%v) left a dirty copy", step, inv)
			}
			flushes++
			if d {
				dirtyFlushes++
			}
		}
		checkHierarchy(t, h, step)
		sameState(t, h, ref, lines, step)
	}
	if dirtyFlushes == 0 || dirtyFlushes == flushes {
		t.Fatalf("stream exercised %d dirty of %d flushes; want both outcomes", dirtyFlushes, flushes)
	}
}

func TestLevelRejectsNonPowerOfTwoSets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("3-set level must panic")
		}
	}()
	newLevel(3*mem.LineSize, 1, 0)
}

// Contains reports whether the line holding a is present anywhere in the
// hierarchy. It probes every core, so it does not depend on the presence
// index; tests use it to observe flush and power-loss effects.
func (h *Hierarchy) Contains(a mem.PAddr) bool {
	idx := mem.LineIndex(a)
	if h.llc.lookup(idx) >= 0 {
		return true
	}
	for c := 0; c < h.cfg.Cores; c++ {
		if h.l1[c] == nil {
			continue
		}
		if h.l1[c].lookup(idx) >= 0 || h.l2[c].lookup(idx) >= 0 {
			return true
		}
	}
	return false
}

// refLine is the 24-byte tag entry the packed tag words replaced; the
// reference model below keeps it.
type refLine struct {
	idx   uint64
	valid bool
	dirty bool
	stamp uint64
}

// refLevel is a set-associative level over refLine entries: the set is
// scanned entry by entry and the LRU stamp lives in the entry.
type refLevel struct {
	sets, ways int
	meta       []refLine
	tick       uint64
}

func newRefLevel(size, ways int) *refLevel {
	sets := levelSets(size, ways)
	return &refLevel{sets: sets, ways: ways, meta: make([]refLine, sets*ways)}
}

func (l *refLevel) set(idx uint64) []refLine {
	s := int(idx % uint64(l.sets))
	return l.meta[s*l.ways : (s+1)*l.ways]
}

func (l *refLevel) lookup(idx uint64) *refLine {
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

func (l *refLevel) insert(idx uint64, dirty bool) (victim refLine) {
	set := l.set(idx)
	vi := -1
	oldest := ^uint64(0)
	for i := range set {
		if !set[i].valid {
			vi = i
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
	set[vi] = refLine{idx: idx, valid: true, dirty: dirty, stamp: l.tick}
	return victim
}

func (l *refLevel) invalidate(idx uint64) (refLine, bool) {
	set := l.set(idx)
	for i := range set {
		if set[i].valid && set[i].idx == idx {
			old := set[i]
			set[i] = refLine{}
			return old, true
		}
	}
	return refLine{}, false
}

// fold marks idx dirty if l holds it.
func (l *refLevel) fold(idx uint64) bool {
	if ln := l.lookup(idx); ln != nil {
		ln.dirty = true
		return true
	}
	return false
}

// refHierarchy is the hierarchy over refLevels, with every core's levels
// built up front and every coherence action probing every core: no
// presence index, no first-touch allocation.
type refHierarchy struct {
	cfg    Config
	l1, l2 []*refLevel
	llc    *refLevel
	stats  *sim.Stats
}

func newRefHierarchy(cfg Config) *refHierarchy {
	h := &refHierarchy{cfg: cfg, stats: sim.NewStats()}
	h.DropAll()
	return h
}

func (h *refHierarchy) DropAll() {
	h.llc = newRefLevel(h.cfg.LLCSize, h.cfg.LLCWays)
	h.l1, h.l2 = nil, nil
	for c := 0; c < h.cfg.Cores; c++ {
		h.l1 = append(h.l1, newRefLevel(h.cfg.L1Size, h.cfg.L1Ways))
		h.l2 = append(h.l2, newRefLevel(h.cfg.L2Size, h.cfg.L2Ways))
	}
}

func (h *refHierarchy) Lookup(core int, a mem.PAddr, write bool) Result {
	idx := mem.LineIndex(a)
	lat := h.cfg.L1Latency
	if ln := h.l1[core].lookup(idx); ln != nil {
		if write {
			ln.dirty = true
			h.l2[core].fold(idx)
			h.llc.fold(idx)
			h.invalidateOthers(core, idx)
		}
		h.stats.Add(sim.StatL1Hits, 1)
		return Result{Latency: lat, HitLevel: 1}
	}
	lat += h.cfg.L2Latency
	if ln := h.l2[core].lookup(idx); ln != nil {
		h.fillL1(core, idx, write)
		if write {
			ln.dirty = true
			h.invalidateOthers(core, idx)
		}
		h.stats.Add(sim.StatL2Hits, 1)
		return Result{Latency: lat, HitLevel: 2}
	}
	lat += h.cfg.LLCLatency
	if ln := h.llc.lookup(idx); ln != nil {
		h.fillPrivate(core, idx, write)
		if write {
			ln.dirty = true
			h.invalidateOthers(core, idx)
		}
		h.stats.Add(sim.StatLLCHits, 1)
		return Result{Latency: lat, HitLevel: 3}
	}
	h.stats.Add(sim.StatLLCMisses, 1)
	return Result{Latency: lat, HitLevel: 0}
}

func (h *refHierarchy) invalidateOthers(core int, idx uint64) {
	for c := 0; c < h.cfg.Cores; c++ {
		if c == core {
			continue
		}
		if old, ok := h.l1[c].invalidate(idx); ok && old.dirty {
			h.llc.fold(idx)
		}
		if old, ok := h.l2[c].invalidate(idx); ok && old.dirty {
			h.llc.fold(idx)
		}
	}
}

func (h *refHierarchy) fillL1(core int, idx uint64, dirty bool) {
	if v := h.l1[core].insert(idx, dirty); v.valid && v.dirty {
		if !h.l2[core].fold(v.idx) {
			h.llc.fold(v.idx)
		}
	}
}

func (h *refHierarchy) fillPrivate(core int, idx uint64, dirty bool) {
	if v := h.l2[core].insert(idx, dirty); v.valid {
		if v.dirty {
			h.llc.fold(v.idx)
		}
		if old, ok := h.l1[core].invalidate(v.idx); ok && old.dirty {
			h.llc.fold(v.idx)
		}
	}
	h.fillL1(core, idx, dirty)
}

func (h *refHierarchy) Fill(core int, a mem.PAddr, write bool) []mem.PAddr {
	idx := mem.LineIndex(a)
	var out []mem.PAddr
	if v := h.llc.insert(idx, write); v.valid {
		dirty := v.dirty
		for c := 0; c < h.cfg.Cores; c++ {
			for _, l := range []*refLevel{h.l1[c], h.l2[c]} {
				if old, ok := l.invalidate(v.idx); ok && old.dirty {
					dirty = true
				}
			}
		}
		if dirty {
			h.stats.Add(sim.StatEvictions, 1)
			out = append(out, mem.PAddr(v.idx<<mem.LineShift))
		}
	}
	h.fillPrivate(core, idx, write)
	if write {
		h.invalidateOthers(core, idx)
	}
	return out
}

// FlushLine reports whether the line was dirty anywhere.
func (h *refHierarchy) FlushLine(a mem.PAddr, invalidate bool) (dirty bool) {
	idx := mem.LineIndex(a)
	drain := func(l *refLevel) {
		var old refLine
		var ok bool
		if invalidate {
			old, ok = l.invalidate(idx)
		} else if ln := l.lookup(idx); ln != nil {
			old, ok = *ln, true
			ln.dirty = false
		}
		dirty = dirty || ok && old.dirty
	}
	for c := 0; c < h.cfg.Cores; c++ {
		drain(h.l1[c])
		drain(h.l2[c])
	}
	drain(h.llc)
	return dirty
}

func (h *refHierarchy) DirtyEvictions() []mem.PAddr {
	var out []mem.PAddr
	for _, ln := range h.llc.meta {
		if ln.valid && ln.dirty {
			out = append(out, mem.PAddr(ln.idx<<mem.LineShift))
		}
	}
	slices.Sort(out)
	return out
}

// sameAsReference fails unless every way of every level holds what the
// reference holds: line index, valid and dirty bits and LRU stamp, with
// the same LRU clock per level.
func sameAsReference(t *testing.T, h *Hierarchy, ref *refHierarchy, step int) {
	t.Helper()
	same := func(name string, l *level, r *refLevel) {
		t.Helper()
		if l.tick != r.tick {
			t.Fatalf("step %d: %s LRU clock %d, reference %d", step, name, l.tick, r.tick)
		}
		for i, ln := range r.meta {
			var want uint64
			if ln.valid {
				want = ln.idx<<tagFlagBits | tagValid
				if ln.dirty {
					want |= tagDirty
				}
			}
			if l.tags[i] != want || l.stamps[i] != ln.stamp {
				t.Fatalf("step %d: %s way %d holds tag %#x stamp %d, reference %+v", step, name, i, l.tags[i], l.stamps[i], ln)
			}
		}
	}
	same("LLC", h.llc, ref.llc)
	for c := 0; c < h.cfg.Cores; c++ {
		l1, l2 := privateLevels(h, c)
		same(fmt.Sprintf("core %d L1", c), l1, ref.l1[c])
		same(fmt.Sprintf("core %d L2", c), l2, ref.l2[c])
	}
}

// TestHierarchyMatchesReferenceLevels drives the packed-tag hierarchy and
// the 24-byte-entry reference with one seeded 16-core stream of Lookup,
// Fill, FlushLine, DirtyEvictions and DropAll, and compares every result,
// every eviction, every counter, and the tag state (so every LRU victim).
// The small geometry is compared way by way after every step; the Table
// II geometry, whose LLC the stream overflows, every 2000 steps.
func TestHierarchyMatchesReferenceLevels(t *testing.T) {
	small := DefaultConfig(16)
	small.L1Size, small.L1Ways = 4*mem.LineSize, 2
	small.L2Size, small.L2Ways = 8*mem.LineSize, 2
	small.LLCSize, small.LLCWays = 32*mem.LineSize, 4
	const oop = mem.PAddr(460 << 30) // inside a 512 GB layout's OOP region
	for _, tc := range []struct {
		name       string
		cfg        Config
		steps      int
		hot, lines int // per-core hot window, shared range
		every      int
	}{
		{"small", small, 30000, 8, 96, 1},
		{"tableII", DefaultConfig(16), 120000, 1024, 1 << 15, 2000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := sim.NewStats()
			h := New(tc.cfg, st)
			ref := newRefHierarchy(tc.cfg)
			rng := rand.New(rand.NewPCG(29, uint64(tc.steps)))
			pick := func(core int) mem.PAddr {
				// Odd cores' hot windows and half the shared lines sit in
				// the OOP region, so the presence directory spans
				// far-apart pages.
				if rng.IntN(2) == 0 {
					return mem.PAddr(core%2)*oop + addr(core*tc.hot+rng.IntN(tc.hot))
				}
				return mem.PAddr(rng.IntN(2))*oop + addr(rng.IntN(tc.lines))
			}
			var evictions, flushes, drops int
			for step := 0; step < tc.steps; step++ {
				core := rng.IntN(tc.cfg.Cores)
				a := pick(core)
				switch op := rng.IntN(1000); {
				case op < 800:
					write := rng.IntN(2) == 0
					r, rr := h.Lookup(core, a, write), ref.Lookup(core, a, write)
					if r != rr {
						t.Fatalf("step %d: Lookup %+v, reference %+v", step, r, rr)
					}
					if r.HitLevel == 0 {
						ev, rev := h.Fill(core, a, write), ref.Fill(core, a, write)
						if !slices.Equal(ev, rev) {
							t.Fatalf("step %d: Fill evicted %v, reference %v", step, ev, rev)
						}
						evictions += len(ev)
					}
				case op < 990:
					inv := rng.IntN(2) == 0
					d := dirtyAnywhere(h, a)
					h.FlushLine(a, inv)
					if rd := ref.FlushLine(a, inv); d != rd {
						t.Fatalf("step %d: line dirty before FlushLine(%v) = %v, reference %v", step, inv, d, rd)
					}
					if dirtyAnywhere(h, a) {
						t.Fatalf("step %d: FlushLine(%v) left a dirty copy", step, inv)
					}
					if d {
						flushes++
					}
				case op < 999:
					if ev, rev := h.DirtyEvictions(), ref.DirtyEvictions(); !slices.Equal(ev, rev) {
						t.Fatalf("step %d: DirtyEvictions %d lines, reference %d", step, len(ev), len(rev))
					}
				case rng.IntN(tc.steps/4000+1) == 0:
					// About four power losses per stream.
					h.DropAll()
					ref.DropAll()
					drops++
				}
				for _, name := range []string{sim.StatL1Hits, sim.StatL2Hits, sim.StatLLCHits, sim.StatLLCMisses, sim.StatEvictions} {
					if g, w := st.Get(name), ref.stats.Get(name); g != w {
						t.Fatalf("step %d: %s = %d, reference %d", step, name, g, w)
					}
				}
				if step%tc.every == 0 {
					sameAsReference(t, h, ref, step)
				}
			}
			sameAsReference(t, h, ref, tc.steps)
			for _, name := range []string{sim.StatL1Hits, sim.StatL2Hits, sim.StatLLCHits, sim.StatLLCMisses} {
				if st.Get(name) == 0 {
					t.Fatalf("stream never produced %s", name)
				}
			}
			if evictions == 0 || flushes == 0 || drops == 0 {
				t.Fatalf("stream produced %d evictions, %d dirty flushes and %d power losses; want each", evictions, flushes, drops)
			}
		})
	}
}
