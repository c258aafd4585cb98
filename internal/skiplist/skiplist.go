// Package skiplist implements a deterministic skip list keyed by uint64,
// used as the DRAM-cached address-mapping index of the log-structured NVM
// baseline (LSNVMM caches its mapping tree in DRAM; the HOOP paper's LSM
// comparison point implements that tree with a skip list, §IV-A).
//
// The list exposes the structural cost of each operation (the number of
// node hops performed), which the LSM scheme converts into index-lookup
// latency — the O(log N) read penalty that Table I calls "High" read
// latency.
package skiplist

const maxLevel = 24

// chunkNodes is the number of nodes in one slab chunk.
const chunkNodes = 256

// node is one skip-list tower.
type node struct {
	key  uint64
	val  uint64
	next [maxLevel]*node
}

// List is a skip list mapping uint64 keys to uint64 values. Not safe for
// concurrent use.
//
// Nodes come from slab chunks the list owns. Delete leaves a node's slot
// unused until the next Clear, and Clear rewinds the slab so the next fill
// reuses every chunk: a list cleared every GC epoch stops allocating once
// its chunks cover the largest epoch.
type List struct {
	head     *node
	level    int
	length   int
	rngState uint64
	chunks   [][]node
	used     int // slab slots handed out since the last Clear
}

// New returns an empty list. The level generator is seeded deterministically
// so simulation runs are reproducible.
func New(seed uint64) *List {
	if seed == 0 {
		seed = 0x5DEECE66D
	}
	return &List{head: &node{}, level: 1, rngState: seed}
}

func (l *List) randLevel() int {
	x := l.rngState
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	l.rngState = x
	bits := x * 0x2545F4914F6CDD1D
	lvl := 1
	for bits&1 == 1 && lvl < maxLevel {
		lvl++
		bits >>= 1
	}
	return lvl
}

// Len reports the number of keys stored.
func (l *List) Len() int { return l.length }

// Get returns the value for key and the number of node hops the search
// performed.
func (l *List) Get(key uint64) (val uint64, ok bool, hops int) {
	x := l.head
	for i := l.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < key {
			x = x.next[i]
			hops++
		}
		hops++
	}
	x = x.next[0]
	if x != nil && x.key == key {
		return x.val, true, hops
	}
	return 0, false, hops
}

// Set inserts or updates key, returning the hop count.
func (l *List) Set(key, val uint64) (hops int) {
	var update [maxLevel]*node
	x := l.head
	for i := l.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < key {
			x = x.next[i]
			hops++
		}
		hops++
		update[i] = x
	}
	if nx := x.next[0]; nx != nil && nx.key == key {
		nx.val = val
		return hops
	}
	lvl := l.randLevel()
	if lvl > l.level {
		for i := l.level; i < lvl; i++ {
			update[i] = l.head
		}
		l.level = lvl
	}
	n := l.newNode(key, val)
	for i := 0; i < lvl; i++ {
		n.next[i] = update[i].next[i]
		update[i].next[i] = n
	}
	l.length++
	return hops
}

// newNode takes the next slab slot, adding a chunk when the slab is full.
// A reused slot keeps its old tower above the new node's level: searches
// follow next[i] only from nodes taller than i, and Set overwrites
// next[:level], so those stale pointers are never read.
func (l *List) newNode(key, val uint64) *node {
	c, i := l.used/chunkNodes, l.used%chunkNodes
	if c == len(l.chunks) {
		l.chunks = append(l.chunks, make([]node, chunkNodes))
	}
	l.used++
	n := &l.chunks[c][i]
	n.key, n.val = key, val
	return n
}

// Delete removes key if present, returning whether it was found and the
// hop count.
func (l *List) Delete(key uint64) (found bool, hops int) {
	var update [maxLevel]*node
	x := l.head
	for i := l.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < key {
			x = x.next[i]
			hops++
		}
		hops++
		update[i] = x
	}
	target := x.next[0]
	if target == nil || target.key != key {
		return false, hops
	}
	for i := 0; i < l.level; i++ {
		if update[i].next[i] == target {
			update[i].next[i] = target.next[i]
		}
	}
	for l.level > 1 && l.head.next[l.level-1] == nil {
		l.level--
	}
	l.length--
	return true, hops
}

// Range calls fn for every key in [lo, hi) in ascending order until fn
// returns false.
func (l *List) Range(lo, hi uint64, fn func(key, val uint64) bool) {
	x := l.head
	for i := l.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < lo {
			x = x.next[i]
		}
	}
	for x = x.next[0]; x != nil && x.key < hi; x = x.next[0] {
		if !fn(x.key, x.val) {
			return
		}
	}
}

// Clear drops every entry and rewinds the node slab for reuse. The level
// generator is not reseeded, so the level sequence continues across Clears.
func (l *List) Clear() {
	l.head.next = [maxLevel]*node{}
	l.level = 1
	l.length = 0
	l.used = 0
}
