package structures

import (
	"fmt"

	"hoop/internal/mem"
	"hoop/internal/pmem"
)

// B-tree order: each node holds up to btMaxKeys keys. Seven keys per node
// keeps a node's key array within two cache lines — typical for PM B-trees.
const (
	btMaxKeys = 7
	btMinKeys = btMaxKeys / 2
)

// BTree is a persistent B-tree from uint64 keys to fixed-size values.
// Values live in separately allocated blobs; leaves store blob pointers.
// Inserts split full nodes on the way down (proactive splitting), giving
// the 2–12 stores per insert of Table III.
//
// Node layout (words):
//
//	[nkeys][leaf][keys ×7][children ×8 | valptrs ×7 +pad]
type BTree struct {
	m     pmem.Memory
	arena *pmem.Arena
	base  mem.PAddr
	val   int
}

const (
	btOffRoot  = 0
	btOffCount = 8
	btOffVal   = 16

	btNodeN    = 0
	btNodeLeaf = 8
	btNodeKeys = 16                           // 7 keys
	btNodePtrs = btNodeKeys + 8*btMaxKeys     // 8 children or 7 value ptrs
	btNodeSize = btNodePtrs + 8*(btMaxKeys+1) // 136 B -> allocates 192 aligned
)

// NewBTree allocates an empty tree. Must run inside a transaction.
func NewBTree(m pmem.Memory, a *pmem.Arena, valBytes int) *BTree {
	if valBytes <= 0 || valBytes%mem.WordSize != 0 {
		panic(fmt.Sprintf("structures: value size %d must be a positive word multiple", valBytes))
	}
	base := a.AllocAligned(mem.LineSize, mem.LineSize)
	root := a.AllocAligned(btNodeSize, mem.LineSize)
	m.WriteWord(root+btNodeLeaf, 1)
	m.WriteWord(base+btOffRoot, uint64(root))
	m.WriteWord(base+btOffCount, 0)
	m.WriteWord(base+btOffVal, uint64(valBytes))
	return &BTree{m: m, arena: a, base: base, val: valBytes}
}

// Len reports the number of keys.
func (t *BTree) Len() int { return int(t.m.ReadWord(t.base + btOffCount)) }

func (t *BTree) nkeys(n mem.PAddr) int   { return int(t.m.ReadWord(n + btNodeN)) }
func (t *BTree) isLeaf(n mem.PAddr) bool { return t.m.ReadWord(n+btNodeLeaf) != 0 }
func (t *BTree) keyAt(n mem.PAddr, i int) uint64 {
	return t.m.ReadWord(n + btNodeKeys + mem.PAddr(8*i))
}
func (t *BTree) ptrAt(n mem.PAddr, i int) mem.PAddr {
	return mem.PAddr(t.m.ReadWord(n + btNodePtrs + mem.PAddr(8*i)))
}
func (t *BTree) setNKeys(n mem.PAddr, v int) { t.m.WriteWord(n+btNodeN, uint64(v)) }
func (t *BTree) setKeyAt(n mem.PAddr, i int, k uint64) {
	t.m.WriteWord(n+btNodeKeys+mem.PAddr(8*i), k)
}
func (t *BTree) setPtrAt(n mem.PAddr, i int, p mem.PAddr) {
	t.m.WriteWord(n+btNodePtrs+mem.PAddr(8*i), uint64(p))
}

// Get reads key's value into buf, reporting whether the key exists.
func (t *BTree) Get(key uint64, buf []byte) bool {
	t.checkVal(buf)
	n := mem.PAddr(t.m.ReadWord(t.base + btOffRoot))
	for {
		nk := t.nkeys(n)
		i := 0
		for i < nk && key > t.keyAt(n, i) {
			i++
		}
		if t.isLeaf(n) {
			if i < nk && key == t.keyAt(n, i) {
				t.m.Read(t.ptrAt(n, i), buf)
				return true
			}
			return false
		}
		// Separator keys are copies whose originals live in the left
		// subtree, so equality descends left (ptr i) as well.
		n = t.ptrAt(n, i)
	}
}

// UpdateWord overwrites one 8-byte word of key's value (a sparse field
// update), reporting whether the key exists. Must run inside a
// transaction.
func (t *BTree) UpdateWord(key uint64, wordIdx int, v uint64) bool {
	if wordIdx < 0 || wordIdx*mem.WordSize >= t.val {
		panic(fmt.Sprintf("structures: word index %d out of value range", wordIdx))
	}
	n := mem.PAddr(t.m.ReadWord(t.base + btOffRoot))
	for {
		nk := t.nkeys(n)
		i := 0
		for i < nk && key > t.keyAt(n, i) {
			i++
		}
		if t.isLeaf(n) {
			if i < nk && key == t.keyAt(n, i) {
				t.m.WriteWord(t.ptrAt(n, i)+mem.PAddr(wordIdx*mem.WordSize), v)
				return true
			}
			return false
		}
		n = t.ptrAt(n, i)
	}
}

// Put inserts key or overwrites its value. Must run inside a transaction.
func (t *BTree) Put(key uint64, val []byte) {
	t.checkVal(val)
	root := mem.PAddr(t.m.ReadWord(t.base + btOffRoot))
	if t.nkeys(root) == btMaxKeys {
		// Grow: new root, split old root.
		newRoot := t.arena.AllocAligned(btNodeSize, mem.LineSize)
		// leaf=0 and nkeys=0 are already zero in fresh memory.
		t.setPtrAt(newRoot, 0, root)
		t.splitChild(newRoot, 0)
		t.m.WriteWord(t.base+btOffRoot, uint64(newRoot))
		root = newRoot
	}
	if t.insertNonFull(root, key, val) {
		t.m.WriteWord(t.base+btOffCount, uint64(t.Len()+1))
	}
}

// insertNonFull inserts into a node known to have room, splitting children
// proactively. It reports whether a new key was added (false = overwrite).
func (t *BTree) insertNonFull(n mem.PAddr, key uint64, val []byte) bool {
	for {
		nk := t.nkeys(n)
		i := 0
		for i < nk && key > t.keyAt(n, i) {
			i++
		}
		if t.isLeaf(n) {
			if i < nk && key == t.keyAt(n, i) {
				writeItemWhole(t.m, t.ptrAt(n, i), val)
				return false
			}
			// Shift keys/ptrs right.
			for j := nk; j > i; j-- {
				t.setKeyAt(n, j, t.keyAt(n, j-1))
				t.setPtrAt(n, j, t.ptrAt(n, j-1))
			}
			blob := t.arena.Alloc(t.val)
			writeItemWhole(t.m, blob, val)
			t.setKeyAt(n, i, key)
			t.setPtrAt(n, i, blob)
			t.setNKeys(n, nk+1)
			return true
		}
		child := t.ptrAt(n, i)
		if t.nkeys(child) == btMaxKeys {
			t.splitChild(n, i)
			// Equal keys stay with the left subtree (separators are
			// copies), so only strictly-greater keys move right.
			if key > t.keyAt(n, i) {
				i++
			}
			child = t.ptrAt(n, i)
		}
		n = child
	}
}

// splitChild splits the full child at index i of parent n around its
// median key.
func (t *BTree) splitChild(n mem.PAddr, i int) {
	child := t.ptrAt(n, i)
	leaf := t.isLeaf(child)
	right := t.arena.AllocAligned(btNodeSize, mem.LineSize)
	if leaf {
		t.m.WriteWord(right+btNodeLeaf, 1)
	}
	mid := btMaxKeys / 2
	// Move upper keys to the new right node.
	rk := 0
	for j := mid + 1; j < btMaxKeys; j++ {
		t.setKeyAt(right, rk, t.keyAt(child, j))
		t.setPtrAt(right, rk, t.ptrAt(child, j))
		rk++
	}
	if !leaf {
		// Children: ptrs mid+1..max move; for interior nodes ptr slot k
		// pairs with key slot k as the left child.
		for j := mid + 1; j <= btMaxKeys; j++ {
			t.setPtrAt(right, j-(mid+1), t.ptrAt(child, j))
		}
		t.setNKeys(right, btMaxKeys-mid-1)
	} else {
		// Leaves keep the median key's value with the median key, which
		// moves up; to preserve lookups, the median stays in the left
		// leaf too (B+-tree style separator copy).
		t.setNKeys(right, rk)
	}
	midKey := t.keyAt(child, mid)
	if leaf {
		// The median stays in the left leaf; the parent's separator is a
		// copy (B+-tree style).
		t.setNKeys(child, mid+1)
	} else {
		t.setNKeys(child, mid)
	}
	// Shift parent entries right to make room at i.
	pn := t.nkeys(n)
	for j := pn; j > i; j-- {
		t.setKeyAt(n, j, t.keyAt(n, j-1))
	}
	for j := pn + 1; j > i+1; j-- {
		t.setPtrAt(n, j, t.ptrAt(n, j-1))
	}
	t.setKeyAt(n, i, midKey)
	t.setPtrAt(n, i+1, right)
	t.setNKeys(n, pn+1)
}

// scanNoter is implemented by memories that account range scans
// (engine.Env); plain stores and pmem.Direct simply skip the accounting.
type scanNoter interface {
	NoteScan(items, bytes int)
}

// Scan reads up to max values with key >= start into buf in ascending key
// order, one at a time (buf is reused per item; fn, when non-nil, observes
// each key after its value lands in buf). It returns the number of items
// read. Keys and their values live only in leaves — interior separators
// are copies whose originals sit in the left subtree — so a leaf-only
// in-order traversal yields each key exactly once. Every node and value
// access flows through the simulated hierarchy; the memory's scan
// accounting (engine.Env.NoteScan) observes the op's item and byte counts.
func (t *BTree) Scan(start uint64, max int, buf []byte, fn func(key uint64)) int {
	t.checkVal(buf)
	if max <= 0 {
		return 0
	}
	count := 0
	t.scan(mem.PAddr(t.m.ReadWord(t.base+btOffRoot)), start, max, buf, fn, &count)
	if n, ok := t.m.(scanNoter); ok {
		n.NoteScan(count, count*t.val)
	}
	return count
}

func (t *BTree) scan(n mem.PAddr, start uint64, max int, buf []byte, fn func(uint64), count *int) bool {
	nk := t.nkeys(n)
	i := 0
	for i < nk && start > t.keyAt(n, i) {
		i++
	}
	if t.isLeaf(n) {
		for ; i < nk && *count < max; i++ {
			t.m.Read(t.ptrAt(n, i), buf)
			if fn != nil {
				fn(t.keyAt(n, i))
			}
			*count++
		}
		return *count < max
	}
	for ; i <= nk; i++ {
		if !t.scan(t.ptrAt(n, i), start, max, buf, fn, count) {
			return false
		}
	}
	return true
}

func (t *BTree) checkVal(b []byte) {
	if len(b) != t.val {
		panic(fmt.Sprintf("structures: value is %d bytes, tree holds %d-byte values", len(b), t.val))
	}
}
