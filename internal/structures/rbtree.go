package structures

import (
	"fmt"

	"hoop/internal/mem"
	"hoop/internal/pmem"
)

// RBTree is a persistent red-black tree from uint64 keys to fixed-size
// values. Rebalancing rotations produce the scattered small pointer writes
// (2–10 stores per insert, Table III) that make trees the sparse-update
// stress case for crash-consistency schemes.
//
// Layout:
//
//	header line: [root][count][valBytes]
//	node:        [key][left][right][parent][color][value...]
type RBTree struct {
	m     pmem.Memory
	arena *pmem.Arena
	base  mem.PAddr
	val   int
}

const (
	rbOffRoot  = 0
	rbOffCount = 8
	rbOffVal   = 16

	rbNodeKey    = 0
	rbNodeLeft   = 8
	rbNodeRight  = 16
	rbNodeParent = 24
	rbNodeColor  = 32
	rbNodeVal    = 40

	rbRed   = 0
	rbBlack = 1
)

// NewRBTree allocates an empty tree. Must run inside a transaction.
func NewRBTree(m pmem.Memory, a *pmem.Arena, valBytes int) *RBTree {
	if valBytes <= 0 || valBytes%mem.WordSize != 0 {
		panic(fmt.Sprintf("structures: value size %d must be a positive word multiple", valBytes))
	}
	base := a.AllocAligned(mem.LineSize, mem.LineSize)
	m.WriteWord(base+rbOffRoot, 0)
	m.WriteWord(base+rbOffCount, 0)
	m.WriteWord(base+rbOffVal, uint64(valBytes))
	return &RBTree{m: m, arena: a, base: base, val: valBytes}
}

// Len reports the number of keys.
func (t *RBTree) Len() int { return int(t.m.ReadWord(t.base + rbOffCount)) }

// Accessor helpers (each is one simulated load or store).
func (t *RBTree) root() mem.PAddr             { return mem.PAddr(t.m.ReadWord(t.base + rbOffRoot)) }
func (t *RBTree) setRoot(n mem.PAddr)         { t.m.WriteWord(t.base+rbOffRoot, uint64(n)) }
func (t *RBTree) key(n mem.PAddr) uint64      { return t.m.ReadWord(n + rbNodeKey) }
func (t *RBTree) left(n mem.PAddr) mem.PAddr  { return mem.PAddr(t.m.ReadWord(n + rbNodeLeft)) }
func (t *RBTree) right(n mem.PAddr) mem.PAddr { return mem.PAddr(t.m.ReadWord(n + rbNodeRight)) }
func (t *RBTree) parent(n mem.PAddr) mem.PAddr {
	return mem.PAddr(t.m.ReadWord(n + rbNodeParent))
}
func (t *RBTree) color(n mem.PAddr) uint64 {
	if n == pmem.Null {
		return rbBlack // nil leaves are black
	}
	return t.m.ReadWord(n + rbNodeColor)
}
func (t *RBTree) setLeft(n, v mem.PAddr)   { t.m.WriteWord(n+rbNodeLeft, uint64(v)) }
func (t *RBTree) setRight(n, v mem.PAddr)  { t.m.WriteWord(n+rbNodeRight, uint64(v)) }
func (t *RBTree) setParent(n, v mem.PAddr) { t.m.WriteWord(n+rbNodeParent, uint64(v)) }
func (t *RBTree) setColor(n mem.PAddr, c uint64) {
	if n == pmem.Null {
		return
	}
	t.m.WriteWord(n+rbNodeColor, c)
}

// UpdateWord overwrites one 8-byte word of key's value (a sparse field
// update — the 2-store transactions of Table III), reporting whether the
// key exists. Must run inside a transaction.
func (t *RBTree) UpdateWord(key uint64, wordIdx int, v uint64) bool {
	if wordIdx < 0 || wordIdx*mem.WordSize >= t.val {
		panic(fmt.Sprintf("structures: word index %d out of value range", wordIdx))
	}
	n := t.findNode(key)
	if n == pmem.Null {
		return false
	}
	t.m.WriteWord(n+rbNodeVal+mem.PAddr(wordIdx*mem.WordSize), v)
	return true
}

func (t *RBTree) findNode(key uint64) mem.PAddr {
	n := t.root()
	for n != pmem.Null {
		k := t.key(n)
		switch {
		case key == k:
			return n
		case key < k:
			n = t.left(n)
		default:
			n = t.right(n)
		}
	}
	return pmem.Null
}

// Put inserts key or overwrites its value. Must run inside a transaction.
func (t *RBTree) Put(key uint64, val []byte) {
	t.checkVal(val)
	parent := pmem.Null
	n := t.root()
	for n != pmem.Null {
		parent = n
		k := t.key(n)
		switch {
		case key == k:
			writeItemWhole(t.m, n+rbNodeVal, val)
			return
		case key < k:
			n = t.left(n)
		default:
			n = t.right(n)
		}
	}
	node := t.arena.Alloc(rbNodeVal + t.val)
	t.m.WriteWord(node+rbNodeKey, key)
	// Left/right are zero in fresh arena memory; only parent and color
	// need explicit initialization.
	t.setParent(node, parent)
	t.setColor(node, rbRed)
	writeItemWhole(t.m, node+rbNodeVal, val)
	if parent == pmem.Null {
		t.setRoot(node)
	} else if key < t.key(parent) {
		t.setLeft(parent, node)
	} else {
		t.setRight(parent, node)
	}
	t.m.WriteWord(t.base+rbOffCount, uint64(t.Len()+1))
	t.insertFixup(node)
}

func (t *RBTree) insertFixup(z mem.PAddr) {
	for {
		p := t.parent(z)
		if p == pmem.Null || t.color(p) != rbRed {
			break
		}
		g := t.parent(p)
		if g == pmem.Null {
			break
		}
		if p == t.left(g) {
			u := t.right(g)
			if t.color(u) == rbRed {
				t.setColor(p, rbBlack)
				t.setColor(u, rbBlack)
				t.setColor(g, rbRed)
				z = g
				continue
			}
			if z == t.right(p) {
				z = p
				t.rotateLeft(z)
				p = t.parent(z)
				g = t.parent(p)
			}
			t.setColor(p, rbBlack)
			t.setColor(g, rbRed)
			t.rotateRight(g)
		} else {
			u := t.left(g)
			if t.color(u) == rbRed {
				t.setColor(p, rbBlack)
				t.setColor(u, rbBlack)
				t.setColor(g, rbRed)
				z = g
				continue
			}
			if z == t.left(p) {
				z = p
				t.rotateRight(z)
				p = t.parent(z)
				g = t.parent(p)
			}
			t.setColor(p, rbBlack)
			t.setColor(g, rbRed)
			t.rotateLeft(g)
		}
	}
	t.setColor(t.root(), rbBlack)
}

func (t *RBTree) rotateLeft(x mem.PAddr) {
	y := t.right(x)
	yl := t.left(y)
	t.setRight(x, yl)
	if yl != pmem.Null {
		t.setParent(yl, x)
	}
	p := t.parent(x)
	t.setParent(y, p)
	if p == pmem.Null {
		t.setRoot(y)
	} else if x == t.left(p) {
		t.setLeft(p, y)
	} else {
		t.setRight(p, y)
	}
	t.setLeft(y, x)
	t.setParent(x, y)
}

func (t *RBTree) rotateRight(x mem.PAddr) {
	y := t.left(x)
	yr := t.right(y)
	t.setLeft(x, yr)
	if yr != pmem.Null {
		t.setParent(yr, x)
	}
	p := t.parent(x)
	t.setParent(y, p)
	if p == pmem.Null {
		t.setRoot(y)
	} else if x == t.right(p) {
		t.setRight(p, y)
	} else {
		t.setLeft(p, y)
	}
	t.setRight(y, x)
	t.setParent(x, y)
}

func (t *RBTree) checkVal(b []byte) {
	if len(b) != t.val {
		panic(fmt.Sprintf("structures: value is %d bytes, tree holds %d-byte values", len(b), t.val))
	}
}
