// Package structures implements the five persistent data structures the
// paper's synthetic benchmarks exercise (Table III): vector, hashmap,
// queue, red-black tree, and B-tree. Every structure lives entirely in
// simulated NVM and manipulates its nodes through pmem.Memory loads and
// stores, so each operation produces the realistic fine-grained access
// pattern (pointer chases, metadata updates, scattered small writes) that
// distinguishes the crash-consistency schemes.
//
// All mutating methods must be called inside a transaction.
package structures

import (
	"fmt"

	"hoop/internal/mem"
	"hoop/internal/pmem"
)

// Vector is a persistent fixed-capacity vector of fixed-size items.
// Layout: header line [len][cap][itemBytes][dataPtr], then the item array.
type Vector struct {
	m    pmem.Memory
	base mem.PAddr
	item int
}

const (
	vecOffLen  = 0
	vecOffCap  = 8
	vecOffItem = 16
	vecOffData = 24
)

// NewVector allocates a vector with the given capacity and item size
// (item size must be a word multiple). Must run inside a transaction.
func NewVector(m pmem.Memory, a *pmem.Arena, capacity, itemBytes int) *Vector {
	if itemBytes <= 0 || itemBytes%mem.WordSize != 0 {
		panic(fmt.Sprintf("structures: item size %d must be a positive word multiple", itemBytes))
	}
	base := a.AllocAligned(mem.LineSize, mem.LineSize)
	data := a.AllocAligned(capacity*itemBytes, mem.LineSize)
	m.WriteWord(base+vecOffLen, 0)
	m.WriteWord(base+vecOffCap, uint64(capacity))
	m.WriteWord(base+vecOffItem, uint64(itemBytes))
	m.WriteWord(base+vecOffData, uint64(data))
	return &Vector{m: m, base: base, item: itemBytes}
}

// Len reports the number of items.
func (v *Vector) Len() int { return int(v.m.ReadWord(v.base + vecOffLen)) }

// Cap reports the capacity.
func (v *Vector) Cap() int { return int(v.m.ReadWord(v.base + vecOffCap)) }

func (v *Vector) slot(i int) mem.PAddr {
	data := mem.PAddr(v.m.ReadWord(v.base + vecOffData))
	return data + mem.PAddr(i*v.item)
}

// Append inserts item at the end. The item is written in cache-line-sized
// chunks (so a 64-byte item is 8 word-stores when written word-wise by the
// caller, or 1 chunked store here — the synthetic workloads choose the
// granularity).
func (v *Vector) Append(item []byte) int {
	v.checkItem(item)
	n := v.Len()
	if n >= v.Cap() {
		panic("structures: vector full (size the capacity at setup)")
	}
	v.writeItem(v.slot(n), item)
	v.m.WriteWord(v.base+vecOffLen, uint64(n+1))
	return n
}

// UpdateWord overwrites one 8-byte word of item i (a sparse field update).
// Must run inside a transaction.
func (v *Vector) UpdateWord(i, wordIdx int, val uint64) {
	v.checkIndex(i)
	if wordIdx < 0 || wordIdx*mem.WordSize >= v.item {
		panic(fmt.Sprintf("structures: word index %d out of item range", wordIdx))
	}
	v.m.WriteWord(v.slot(i)+mem.PAddr(wordIdx*mem.WordSize), val)
}

// Get reads item i into buf.
func (v *Vector) Get(i int, buf []byte) {
	v.checkItem(buf)
	v.checkIndex(i)
	v.m.Read(v.slot(i), buf)
}

// writeItem stores an item word-by-word for small items (matching the
// paper's 8 stores per 64-byte insert) and in 64-byte chunks for large
// ones.
func (v *Vector) writeItem(at mem.PAddr, item []byte) {
	writeItemChunks(v.m, at, item)
}

func (v *Vector) checkItem(b []byte) {
	if len(b) != v.item {
		panic(fmt.Sprintf("structures: item is %d bytes, vector holds %d-byte items", len(b), v.item))
	}
}

func (v *Vector) checkIndex(i int) {
	if i < 0 || i >= v.Len() {
		panic(fmt.Sprintf("structures: index %d out of range [0,%d)", i, v.Len()))
	}
}

// writeItemWhole writes item data in line-sized stores (one store for a
// 64-byte value): the granularity the tree benchmarks use, where Table III
// counts only 2–12 object-level stores per transaction.
func writeItemWhole(m pmem.Memory, at mem.PAddr, item []byte) {
	for off := 0; off < len(item); off += mem.LineSize {
		end := off + mem.LineSize
		if end > len(item) {
			end = len(item)
		}
		m.Write(at+mem.PAddr(off), item[off:end])
	}
}

// writeItemChunks writes item data with the granularity the paper's
// workloads use: word stores for items up to a cache line (8 stores for
// 64 B), line-sized stores beyond that (16 stores for 1 KB).
func writeItemChunks(m pmem.Memory, at mem.PAddr, item []byte) {
	if len(item) <= mem.LineSize {
		for off := 0; off < len(item); off += mem.WordSize {
			m.Write(at+mem.PAddr(off), item[off:off+mem.WordSize])
		}
		return
	}
	for off := 0; off < len(item); off += mem.LineSize {
		end := off + mem.LineSize
		if end > len(item) {
			end = len(item)
		}
		m.Write(at+mem.PAddr(off), item[off:end])
	}
}
