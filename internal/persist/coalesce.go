package persist

import (
	"math/bits"
	"slices"

	"hoop/internal/mem"
	"hoop/internal/u64map"
)

// Coalescer is the coalescing table of one garbage-collection pass: the
// newest version of every word the pass will migrate home, grouped by home
// cache line. HOOP's GC and the LSM baseline's log GC both scan their logs
// newest-first and offer every logged word to Ref; the first offer for a
// word wins, so later (older) offers are recognised as stale. Lines then
// hands each touched line back in ascending address order, and Migrate
// writes them home that way, so a pass issues one home write per line,
// smallest address first.
//
// Keying by line rather than by word means a pass sorts and looks up one
// entry per migrated line instead of one per word. Clear is O(1) and keeps
// every backing array, so a steady GC cadence performs no allocation.
// The zero value is ready to use.
type Coalescer struct {
	slot  u64map.Map[int32] // line index -> position in lines
	lines []coalescedLine
	order []uint64 // line indices in first-offer order; sorted by Lines

	// last caches the most recent line's position: a record's words are
	// offered back to back, so consecutive offers usually share a line.
	last    uint64
	lastPos int32
	hasLast bool
}

// coalescedLine holds the words collected for one home line; bit i of
// mask is set once word i of the line holds its newest version.
type coalescedLine struct {
	mask  uint8
	words [mem.WordsPerLine][mem.WordSize]byte
}

// Ref offers the word at the word-aligned address w. It returns the word's
// slot and whether this is the word's first offer since the last Clear.
// On a first offer the caller fills the slot with the word's value; a
// repeat offer returns the slot holding the earlier (newer) value, which
// the caller must leave alone. The slot is valid until the next Ref.
func (c *Coalescer) Ref(w mem.PAddr) (slot *[mem.WordSize]byte, fresh bool) {
	line := mem.LineIndex(w)
	if !c.hasLast || line != c.last {
		n := c.slot.Len()
		p := c.slot.Ref(line)
		if c.slot.Len() != n {
			*p = int32(len(c.lines))
			c.lines = append(c.lines, coalescedLine{})
			c.order = append(c.order, line)
		}
		c.last, c.lastPos, c.hasLast = line, *p, true
	}
	e := &c.lines[c.lastPos]
	i := mem.WordInLine(w)
	bit := uint8(1) << i
	fresh = e.mask&bit == 0
	e.mask |= bit
	return &e.words[i], fresh
}

// Lines calls fn for every line offered since the last Clear, in ascending
// address order, with the line index, the mask of offered words and the
// words themselves (only the words whose mask bit is set are meaningful).
// fn must not call Ref.
func (c *Coalescer) Lines(fn func(line uint64, mask uint8, words *[mem.WordsPerLine][mem.WordSize]byte)) {
	slices.Sort(c.order)
	for _, line := range c.order {
		p, _ := c.slot.Get(line)
		e := &c.lines[p]
		fn(line, e.mask, &e.words)
	}
}

// Migrate writes every coalesced word to its home address in st — lines in
// ascending address order, words ascending within a line — and after each
// line calls fn with the line's address and the popcount(mask)×8 bytes
// written to it, for the caller to charge the line's home write.
func (c *Coalescer) Migrate(st *mem.Store, fn func(lineAddr mem.PAddr, n int)) {
	c.Lines(func(line uint64, mask uint8, words *[mem.WordsPerLine][mem.WordSize]byte) {
		lineAddr := mem.PAddr(line << mem.LineShift)
		for m := mask; m != 0; m &= m - 1 {
			w := bits.TrailingZeros8(m)
			st.Write(lineAddr+mem.PAddr(w*mem.WordSize), words[w][:])
		}
		fn(lineAddr, bits.OnesCount8(mask)*mem.WordSize)
	})
}

// Clear empties the table, keeping its storage for the next pass.
func (c *Coalescer) Clear() {
	c.slot.Clear()
	c.lines = c.lines[:0]
	c.order = c.order[:0]
	c.hasLast = false
}
