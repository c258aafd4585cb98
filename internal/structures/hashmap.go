package structures

import (
	"fmt"

	"hoop/internal/mem"
	"hoop/internal/pmem"
)

// HashMap is a persistent chained hash map from uint64 keys to fixed-size
// values.
//
// Layout:
//
//	header line: [buckets][count][valBytes][tablePtr]
//	table:       buckets × 8-byte head pointers
//	node:        [key][next][value...]
type HashMap struct {
	m       pmem.Memory
	arena   *pmem.Arena
	base    mem.PAddr
	val     int
	buckets int
}

const (
	hmOffBuckets = 0
	hmOffCount   = 8
	hmOffVal     = 16
	hmOffTable   = 24

	nodeOffKey  = 0
	nodeOffNext = 8
	nodeOffVal  = 16
)

// NewHashMap allocates a map with the given bucket count and value size.
// Must run inside a transaction.
func NewHashMap(m pmem.Memory, a *pmem.Arena, buckets, valBytes int) *HashMap {
	if valBytes <= 0 || valBytes%mem.WordSize != 0 {
		panic(fmt.Sprintf("structures: value size %d must be a positive word multiple", valBytes))
	}
	if buckets <= 0 {
		panic("structures: need at least one bucket")
	}
	base := a.AllocAligned(mem.LineSize, mem.LineSize)
	table := a.AllocAligned(buckets*mem.WordSize, mem.LineSize)
	m.WriteWord(base+hmOffBuckets, uint64(buckets))
	m.WriteWord(base+hmOffCount, 0)
	m.WriteWord(base+hmOffVal, uint64(valBytes))
	m.WriteWord(base+hmOffTable, uint64(table))
	// Bucket heads start zeroed (fresh arena memory is zero); writing
	// them here would be buckets extra stores for nothing.
	return &HashMap{m: m, arena: a, base: base, val: valBytes, buckets: buckets}
}

// Len reports the number of keys.
func (h *HashMap) Len() int { return int(h.m.ReadWord(h.base + hmOffCount)) }

func (h *HashMap) bucketAddr(key uint64) mem.PAddr {
	table := mem.PAddr(h.m.ReadWord(h.base + hmOffTable))
	// Fibonacci hashing spreads sequential keys.
	idx := ((key * 0x9E3779B97F4A7C15) >> 32) % uint64(h.buckets)
	return table + mem.PAddr(idx*mem.WordSize)
}

// find walks the chain for key, returning the node address (or Null).
func (h *HashMap) find(key uint64) mem.PAddr {
	node := mem.PAddr(h.m.ReadWord(h.bucketAddr(key)))
	for node != pmem.Null {
		if h.m.ReadWord(node+nodeOffKey) == key {
			return node
		}
		node = mem.PAddr(h.m.ReadWord(node + nodeOffNext))
	}
	return pmem.Null
}

// Put inserts key or overwrites its value. Must run inside a transaction.
func (h *HashMap) Put(key uint64, val []byte) {
	h.checkVal(val)
	if node := h.find(key); node != pmem.Null {
		writeItemChunks(h.m, node+nodeOffVal, val)
		return
	}
	bucket := h.bucketAddr(key)
	head := h.m.ReadWord(bucket)
	node := h.arena.Alloc(nodeOffVal + h.val)
	h.m.WriteWord(node+nodeOffKey, key)
	h.m.WriteWord(node+nodeOffNext, head)
	writeItemChunks(h.m, node+nodeOffVal, val)
	h.m.WriteWord(bucket, uint64(node))
	h.m.WriteWord(h.base+hmOffCount, uint64(h.Len()+1))
}

// UpdateWord overwrites one 8-byte word of key's value (a sparse field
// update), reporting whether the key exists. Must run inside a
// transaction.
func (h *HashMap) UpdateWord(key uint64, wordIdx int, v uint64) bool {
	if wordIdx < 0 || wordIdx*mem.WordSize >= h.val {
		panic(fmt.Sprintf("structures: word index %d out of value range", wordIdx))
	}
	node := h.find(key)
	if node == pmem.Null {
		return false
	}
	h.m.WriteWord(node+nodeOffVal+mem.PAddr(wordIdx*mem.WordSize), v)
	return true
}

// Get reads key's value into buf, reporting whether the key exists.
func (h *HashMap) Get(key uint64, buf []byte) bool {
	h.checkVal(buf)
	node := h.find(key)
	if node == pmem.Null {
		return false
	}
	h.m.Read(node+nodeOffVal, buf)
	return true
}

// Delete unlinks key, reporting whether it was present. The node itself is
// not reclaimed (the arena is bump-only). Must run inside a transaction.
func (h *HashMap) Delete(key uint64) bool {
	bucket := h.bucketAddr(key)
	prev := pmem.Null
	node := mem.PAddr(h.m.ReadWord(bucket))
	for node != pmem.Null {
		if h.m.ReadWord(node+nodeOffKey) == key {
			next := h.m.ReadWord(node + nodeOffNext)
			if prev == pmem.Null {
				h.m.WriteWord(bucket, next)
			} else {
				h.m.WriteWord(prev+nodeOffNext, next)
			}
			h.m.WriteWord(h.base+hmOffCount, uint64(h.Len()-1))
			return true
		}
		prev = node
		node = mem.PAddr(h.m.ReadWord(node + nodeOffNext))
	}
	return false
}

func (h *HashMap) checkVal(b []byte) {
	if len(b) != h.val {
		panic(fmt.Sprintf("structures: value is %d bytes, map holds %d-byte values", len(b), h.val))
	}
}
