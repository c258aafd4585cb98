// Operations only the tests use: lookups, deletion, ordered walks and the
// invariant checks behind the structure tests and examples.

package structures

import (
	"hoop/internal/mem"
	"hoop/internal/pmem"
)

// Get reads key's value into buf, reporting whether the key exists.
func (t *RBTree) Get(key uint64, buf []byte) bool {
	t.checkVal(buf)
	n := t.findNode(key)
	if n == pmem.Null {
		return false
	}
	t.m.Read(n+rbNodeVal, buf)
	return true
}

// transplant replaces the subtree rooted at u with the subtree rooted at v
// (v may be Null).
func (t *RBTree) transplant(u, v mem.PAddr) {
	p := t.parent(u)
	if p == pmem.Null {
		t.setRoot(v)
	} else if u == t.left(p) {
		t.setLeft(p, v)
	} else {
		t.setRight(p, v)
	}
	if v != pmem.Null {
		t.setParent(v, p)
	}
}

// minNode returns the leftmost node of the subtree rooted at n.
func (t *RBTree) minNode(n mem.PAddr) mem.PAddr {
	for {
		l := t.left(n)
		if l == pmem.Null {
			return n
		}
		n = l
	}
}

// Delete removes key, reporting whether it was present. The node is not
// reclaimed (the arena is bump-only). Must run inside a transaction.
func (t *RBTree) Delete(key uint64) bool {
	z := t.findNode(key)
	if z == pmem.Null {
		return false
	}
	y := z
	yColor := t.color(y)
	var x, xp mem.PAddr
	switch {
	case t.left(z) == pmem.Null:
		x, xp = t.right(z), t.parent(z)
		t.transplant(z, x)
	case t.right(z) == pmem.Null:
		x, xp = t.left(z), t.parent(z)
		t.transplant(z, x)
	default:
		y = t.minNode(t.right(z))
		yColor = t.color(y)
		x = t.right(y)
		if t.parent(y) == z {
			xp = y
		} else {
			xp = t.parent(y)
			t.transplant(y, x)
			t.setRight(y, t.right(z))
			t.setParent(t.right(y), y)
		}
		t.transplant(z, y)
		t.setLeft(y, t.left(z))
		t.setParent(t.left(y), y)
		t.setColor(y, t.color(z))
	}
	if yColor == rbBlack {
		t.deleteFixup(x, xp)
	}
	t.m.WriteWord(t.base+rbOffCount, uint64(t.Len()-1))
	return true
}

// deleteFixup restores the red-black invariants after removing a black
// node; x is the doubly-black node (possibly Null) and xp its parent.
func (t *RBTree) deleteFixup(x, xp mem.PAddr) {
	for x != t.root() && t.color(x) == rbBlack {
		if xp == pmem.Null {
			break
		}
		if x == t.left(xp) {
			w := t.right(xp)
			if t.color(w) == rbRed {
				t.setColor(w, rbBlack)
				t.setColor(xp, rbRed)
				t.rotateLeft(xp)
				w = t.right(xp)
			}
			if t.color(t.left(w)) == rbBlack && t.color(t.right(w)) == rbBlack {
				t.setColor(w, rbRed)
				x = xp
				xp = t.parent(x)
			} else {
				if t.color(t.right(w)) == rbBlack {
					t.setColor(t.left(w), rbBlack)
					t.setColor(w, rbRed)
					t.rotateRight(w)
					w = t.right(xp)
				}
				t.setColor(w, t.color(xp))
				t.setColor(xp, rbBlack)
				t.setColor(t.right(w), rbBlack)
				t.rotateLeft(xp)
				x = t.root()
				xp = pmem.Null
			}
		} else {
			w := t.left(xp)
			if t.color(w) == rbRed {
				t.setColor(w, rbBlack)
				t.setColor(xp, rbRed)
				t.rotateRight(xp)
				w = t.left(xp)
			}
			if t.color(t.right(w)) == rbBlack && t.color(t.left(w)) == rbBlack {
				t.setColor(w, rbRed)
				x = xp
				xp = t.parent(x)
			} else {
				if t.color(t.left(w)) == rbBlack {
					t.setColor(t.right(w), rbBlack)
					t.setColor(w, rbRed)
					t.rotateLeft(w)
					w = t.left(xp)
				}
				t.setColor(w, t.color(xp))
				t.setColor(xp, rbBlack)
				t.setColor(t.left(w), rbBlack)
				t.rotateRight(xp)
				x = t.root()
				xp = pmem.Null
			}
		}
	}
	t.setColor(x, rbBlack)
}

// CheckInvariants validates the red-black properties (root black, no red
// node with a red child, equal black heights) and the BST ordering,
// returning an error description or "" when valid. Used by tests.
func (t *RBTree) CheckInvariants() string {
	root := t.root()
	if root == pmem.Null {
		return ""
	}
	if t.color(root) != rbBlack {
		return "root is red"
	}
	msg := ""
	var lastKey uint64
	haveLast := false
	var walk func(n mem.PAddr) int
	walk = func(n mem.PAddr) int {
		if msg != "" {
			return 0
		}
		if n == pmem.Null {
			return 1
		}
		l, r := t.left(n), t.right(n)
		if t.color(n) == rbRed && (t.color(l) == rbRed || t.color(r) == rbRed) {
			msg = "red node with red child"
			return 0
		}
		lb := walk(l)
		if msg == "" {
			k := t.key(n)
			if haveLast && k <= lastKey {
				msg = "BST order violated"
				return 0
			}
			lastKey, haveLast = k, true
		}
		rb := walk(r)
		if msg == "" && lb != rb {
			msg = "black heights differ"
			return 0
		}
		bh := lb
		if t.color(n) == rbBlack {
			bh++
		}
		return bh
	}
	walk(root)
	return msg
}

// Min returns the smallest key (ok=false when empty).
func (t *RBTree) Min() (uint64, bool) {
	n := t.root()
	if n == pmem.Null {
		return 0, false
	}
	for {
		l := t.left(n)
		if l == pmem.Null {
			return t.key(n), true
		}
		n = l
	}
}

// Walk calls fn for every key in ascending order until fn returns false.
// Used by tests to validate structure against an oracle.
func (t *RBTree) Walk(fn func(key uint64) bool) {
	t.walk(t.root(), fn)
}

func (t *RBTree) walk(n mem.PAddr, fn func(key uint64) bool) bool {
	if n == pmem.Null {
		return true
	}
	if !t.walk(t.left(n), fn) {
		return false
	}
	if !fn(t.key(n)) {
		return false
	}
	return t.walk(t.right(n), fn)
}

// Depth reports the height of the tree (for balance checks in tests).
func (t *RBTree) Depth() int { return t.depth(t.root()) }

func (t *RBTree) depth(n mem.PAddr) int {
	if n == pmem.Null {
		return 0
	}
	l, r := t.depth(t.left(n)), t.depth(t.right(n))
	if l > r {
		return l + 1
	}
	return r + 1
}

// Walk calls fn for every key in ascending order until fn returns false
// (duplicate separator copies are suppressed).
func (t *BTree) Walk(fn func(key uint64) bool) {
	var last uint64
	var seen bool
	t.walk(mem.PAddr(t.m.ReadWord(t.base+btOffRoot)), func(k uint64) bool {
		if seen && k == last {
			return true
		}
		last, seen = k, true
		return fn(k)
	})
}

func (t *BTree) walk(n mem.PAddr, fn func(uint64) bool) bool {
	nk := t.nkeys(n)
	if t.isLeaf(n) {
		for i := 0; i < nk; i++ {
			if !fn(t.keyAt(n, i)) {
				return false
			}
		}
		return true
	}
	for i := 0; i < nk; i++ {
		if !t.walk(t.ptrAt(n, i), fn) {
			return false
		}
		if !fn(t.keyAt(n, i)) {
			return false
		}
	}
	return t.walk(t.ptrAt(n, nk), fn)
}

// Depth reports tree height (every root-to-leaf path has equal length).
func (t *BTree) Depth() int {
	d := 1
	n := mem.PAddr(t.m.ReadWord(t.base + btOffRoot))
	for !t.isLeaf(n) {
		n = t.ptrAt(n, 0)
		d++
	}
	return d
}

// Peek reads the oldest item without removing it.
func (q *Queue) Peek(buf []byte) bool {
	q.checkItem(buf)
	head := mem.PAddr(q.m.ReadWord(q.base + qOffHead))
	if head == pmem.Null {
		return false
	}
	q.m.Read(head+qNodeOffItem, buf)
	return true
}

// OpenVector reattaches to a vector previously created at base.
func OpenVector(m pmem.Memory, base mem.PAddr) *Vector {
	return &Vector{m: m, base: base, item: int(m.ReadWord(base + vecOffItem))}
}

// Base reports the vector's persistent root address.
func (v *Vector) Base() mem.PAddr { return v.base }

// Update overwrites item i.
func (v *Vector) Update(i int, item []byte) {
	v.checkItem(item)
	v.checkIndex(i)
	v.writeItem(v.slot(i), item)
}
