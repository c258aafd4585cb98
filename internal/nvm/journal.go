package nvm

import (
	"fmt"

	"hoop/internal/mem"
)

// JournalEntry is one atomically-persistable NVM write: the post-image of a
// single aligned 8-byte persist unit. Real persistent memory guarantees
// atomicity only at this granularity, so every durable store a scheme
// issues — a 128-byte HOOP slice, a 64-byte log line, a 1-byte bitmap
// flip — decomposes into a sequence of these units in program order.
type JournalEntry struct {
	Addr mem.PAddr
	Val  [mem.WordSize]byte
}

// span marks a half-open range [start, end) of journal indices that the
// hardware persists atomically (e.g. a persistence-domain controller queue
// drained all-or-nothing by the ADR/battery path). A crash point may not
// fall strictly inside a span.
type span struct{ start, end int }

// Journal records every durable write reaching the device's functional
// store as an ordered sequence of 8-byte atomic persist units, so that a
// crash can be declared at any journal index k: ReconstructAt(k) rebuilds
// the NVM image as "every unit before k is durable, nothing at or after k
// is". This naturally models torn slices, torn commit records, and
// half-applied GC migrations — the unit sequence of a multi-line write cut
// anywhere in the middle.
//
// The journal observes the functional store (mem.Store), not Device.Write:
// schemes write contents through Store() and account timing separately, so
// the store is the single point every durable byte passes through.
type Journal struct {
	dev     *Device
	base    *mem.Store
	entries []JournalEntry
	groups  []span
	open    int // start index of the open atomic group, -1 if none
}

// AttachJournal snapshots the device's current durable contents and begins
// recording every subsequent write as 8-byte atomic units. Attach before
// building a scheme so that any durable-format initialization the
// constructor performs is journaled too. Only one journal may be attached
// at a time.
func (d *Device) AttachJournal() *Journal {
	if d.journal != nil {
		panic("nvm: journal already attached")
	}
	j := &Journal{dev: d, base: d.store.Clone(), open: -1}
	d.journal = j
	d.store.SetWriteObserver(func(a mem.PAddr, unit [mem.WordSize]byte) {
		j.entries = append(j.entries, JournalEntry{Addr: a, Val: unit})
	})
	return j
}

// BeginAtomicPersist opens an atomic persist group: all units recorded
// until the matching EndAtomicPersist reach NVM all-or-nothing. This models
// hardware whose persistence domain covers the controller queues (LAD's
// battery-backed write queues), not ordering tricks done in software. A
// no-op when no journal is attached. Groups do not nest.
func (d *Device) BeginAtomicPersist() {
	if d.journal != nil {
		d.journal.beginAtomic()
	}
}

// EndAtomicPersist closes the group opened by BeginAtomicPersist. A no-op
// when no journal is attached.
func (d *Device) EndAtomicPersist() {
	if d.journal != nil {
		d.journal.endAtomic()
	}
}

func (j *Journal) beginAtomic() {
	if j.open >= 0 {
		panic("nvm: atomic persist groups do not nest")
	}
	j.open = len(j.entries)
}

func (j *Journal) endAtomic() {
	if j.open < 0 {
		panic("nvm: EndAtomicPersist without BeginAtomicPersist")
	}
	if end := len(j.entries); end > j.open {
		j.groups = append(j.groups, span{start: j.open, end: end})
	}
	j.open = -1
}

// Len is the number of persist units recorded so far. Crash point k = Len()
// means "everything so far is durable".
func (j *Journal) Len() int { return len(j.entries) }

// AlignPoint rounds k down out of the interior of any atomic group, since a
// crash cannot observe a partially-drained atomic queue. Points at a group
// boundary (nothing drained / everything drained) are untouched.
func (j *Journal) AlignPoint(k int) int {
	if k < 0 {
		k = 0
	}
	if k > len(j.entries) {
		k = len(j.entries)
	}
	for _, g := range j.groups {
		if k > g.start && k < g.end {
			return g.start
		}
	}
	if j.open >= 0 && k > j.open {
		return j.open
	}
	return k
}

// CrashPoints enumerates every distinct crash point: each index 0..Len()
// that is not strictly inside an atomic group. Exhaustive drivers iterate
// this; random drivers may pick any k and rely on ReconstructAt's rounding.
func (j *Journal) CrashPoints() []int {
	pts := make([]int, 0, len(j.entries)+1)
	for k := 0; k <= len(j.entries); k++ {
		if j.AlignPoint(k) == k {
			pts = append(pts, k)
		}
	}
	return pts
}

// ReconstructAt rebuilds the durable NVM image at crash point k: a fresh
// store holding the pre-attach snapshot plus entries[0:k] applied in order.
// k inside an atomic group is rounded down to the group start. The returned
// store is independent of the live one and carries no observer.
func (j *Journal) ReconstructAt(k int) *mem.Store {
	k = j.AlignPoint(k)
	st := j.base.Clone()
	for i := 0; i < k; i++ {
		e := j.entries[i]
		st.Write(e.Addr, e.Val[:])
	}
	return st
}

// String summarizes the journal for failure reports.
func (j *Journal) String() string {
	return fmt.Sprintf("journal{units=%d groups=%d}", len(j.entries), len(j.groups))
}
