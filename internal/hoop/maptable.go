package hoop

import (
	"hoop/internal/mem"
	"hoop/internal/persist"
	"hoop/internal/u64map"
)

// mapEntry is one record of the hash-based physical-to-physical address
// mapping table (§III-C): it maps a home-region cache line to the OOP
// eviction slice holding its newest version. Hardware budgets 16 bytes per
// entry (home address + OOP address); the extra fields here are the
// controller-side tag bits that decide when an entry may be dropped.
type mapEntry struct {
	slice mem.PAddr // OOP address of the eviction slice
	mask  uint8     // which words of the line the slice carries
	count int       // popcount(mask)
	// ownerTx is the still-live transaction that last wrote the line when
	// it was evicted; the entry must outlive that transaction's
	// migration. Zero means every writer had already committed, and seq
	// bounds the commit sequence of the newest writer.
	ownerTx persist.TxID
	seq     uint64
	block   int // block containing slice (for reclamation refcounts)
}

// entryBytes is the hardware cost of one mapping-table entry (paper §III-C:
// home-region address plus OOP-region address).
const entryBytes = 16

// condenseShift groups lines into 4-line (256-byte) neighbourhoods for the
// §III-I entry-condensing optimization.
const condenseShift = 2

// mapTable is the controller-resident mapping table. It is volatile: a
// crash loses it entirely and recovery rebuilds consistent home contents
// without it. With condense enabled, entries for neighbouring lines share
// one hardware entry's budget (the paper's future-work locality
// optimization), so the same byte budget indexes a larger reach.
//
// It is the simulation of a hardware hash table, so it is backed by one:
// u64map's open-addressed table gives each lookup/insert/remove a single
// probe sequence with no allocation, and reset reuses the slot array.
type mapTable struct {
	entries  u64map.Map[mapEntry] // keyed by home line index
	capacity int                  // maximum hardware entries (budget / entryBytes)
	condense bool
	groups   u64map.Map[int32] // 4-line group -> member count (condense mode)
}

func newMapTable(bytes int, condense bool) *mapTable {
	cap := bytes / entryBytes
	if cap < 1 {
		cap = 1
	}
	return &mapTable{capacity: cap, condense: condense}
}

func (t *mapTable) lookup(line uint64) (mapEntry, bool) {
	return t.entries.Get(line)
}

func (t *mapTable) insert(line uint64, e mapEntry) {
	before := t.entries.Len()
	t.entries.Put(line, e)
	if t.condense && t.entries.Len() != before {
		g := t.groups.Ref(line >> condenseShift)
		*g++
	}
}

func (t *mapTable) remove(line uint64) (mapEntry, bool) {
	e, ok := t.entries.Delete(line)
	if ok && t.condense {
		g := line >> condenseShift
		c := t.groups.Ref(g)
		*c--
		if *c == 0 {
			t.groups.Delete(g)
		}
	}
	return e, ok
}

// hwEntries reports the hardware-entry occupancy: one per line normally,
// one per 4-line group with condensing.
func (t *mapTable) hwEntries() int {
	if t.condense {
		return t.groups.Len()
	}
	return t.entries.Len()
}

func (t *mapTable) overCap() bool { return t.hwEntries() >= t.capacity }

func (t *mapTable) reset() {
	t.entries.Clear()
	t.groups.Clear()
}

// evictBuffer models the 128 KB eviction buffer (§III-C): a FIFO of cache
// lines recently migrated to the home region by the GC, so that an LLC miss
// racing with a mapping-table removal still finds fresh data without an NVM
// access. Like the mapping table it is volatile.
type evictBuffer struct {
	lines    u64map.Set
	fifo     []uint64
	head     int
	capacity int
}

// evictBufEntryBytes is the hardware cost per entry: a 64-byte line plus
// its 8-byte home address.
const evictBufEntryBytes = mem.LineSize + 8

func newEvictBuffer(bytes int) *evictBuffer {
	cap := bytes / evictBufEntryBytes
	if cap < 1 {
		cap = 1
	}
	return &evictBuffer{capacity: cap}
}

func (b *evictBuffer) contains(line uint64) bool {
	return b.lines.Contains(line)
}

// add inserts a line, displacing the oldest entry once full.
func (b *evictBuffer) add(line uint64) {
	if b.lines.Contains(line) {
		return
	}
	if b.lines.Len() >= b.capacity {
		// Drop the oldest still-present entry.
		for b.head < len(b.fifo) {
			old := b.fifo[b.head]
			b.head++
			if b.lines.Delete(old) {
				break
			}
		}
		// Compact the fifo slab occasionally.
		if b.head > 4096 && b.head*2 > len(b.fifo) {
			n := copy(b.fifo, b.fifo[b.head:])
			b.fifo = b.fifo[:n]
			b.head = 0
		}
	}
	b.lines.Add(line)
	b.fifo = append(b.fifo, line)
}

func (b *evictBuffer) reset() {
	b.lines.Clear()
	b.fifo = b.fifo[:0]
	b.head = 0
}

func (b *evictBuffer) len() int { return b.lines.Len() }
