// Package skiplist implements a deterministic skip list keyed by uint64,
// used as the DRAM-cached address-mapping index of the log-structured NVM
// baseline (LSNVMM caches its mapping tree in DRAM; the HOOP paper's LSM
// comparison point implements that tree with a skip list, §IV-A).
//
// The list exposes the structural cost of each operation (the number of
// node hops performed), which the LSM scheme converts into index-lookup
// latency — the O(log N) read penalty that Table I calls "High" read
// latency.
//
// SetSeq inserts a run of evenly spaced keys (the words of one store) with
// one head descent: each following key is reached from the node just set,
// and its hop count is derived from that node's, so the run reports
// exactly the hops that one Set per key would.
package skiplist

import "slices"

const maxLevel = 24

// inlineLevels is the number of tower links a node stores inline. A node
// reaches level k+1 with probability 2^-k, so 15 of 16 nodes fit inline
// and only the rest take links from the overflow arena.
const inlineLevels = 4

// chunkNodes is the node array's initial capacity.
const chunkNodes = 256

// node is one skip-list tower. Links are indexes into List.nodes. Index 0
// is the head, which no link ever targets, so 0 also means nil. Links at
// level inlineLevels and above live in List.tower, from List.more[n] on.
//
// A node is 32 bytes, so two share a cache line and none straddles one;
// keeping the tower offset inline would make it 40 and slow every search.
type node struct {
	key  uint64
	val  uint64
	next [inlineLevels]uint32
}

// List is a skip list mapping uint64 keys to uint64 values. Not safe for
// concurrent use.
//
// Nodes live in one array and hold no pointers, so the garbage collector
// never scans them. Delete leaves a node's slot unused until the next
// Clear, and Clear rewinds the arrays so the next fill reuses them: a
// list cleared every GC epoch stops allocating once the arrays cover the
// largest epoch.
type List struct {
	nodes    []node   // nodes[0] is the head
	more     []uint32 // more[n]: where node n's links above inlineLevels start in tower
	tower    []uint32 // links above inlineLevels; the head's come first
	level    int
	length   int
	rngState uint64
}

// New returns an empty list. The level generator is seeded deterministically
// so simulation runs are reproducible.
func New(seed uint64) *List {
	if seed == 0 {
		seed = 0x5DEECE66D
	}
	return &List{
		nodes:    make([]node, 1, chunkNodes),
		more:     make([]uint32, 1, chunkNodes),
		tower:    make([]uint32, maxLevel-inlineLevels),
		level:    1,
		rngState: seed,
	}
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

// link returns node x's successor at level i. Callers only ask a node
// for levels below its height, so a short node's more entry is never read.
func (l *List) link(x uint32, i int) uint32 {
	if i < inlineLevels {
		return l.nodes[x].next[i]
	}
	return l.tower[l.more[x]+uint32(i-inlineLevels)]
}

func (l *List) setLink(x uint32, i int, to uint32) {
	if i < inlineLevels {
		l.nodes[x].next[i] = to
		return
	}
	l.tower[l.more[x]+uint32(i-inlineLevels)] = to
}

// Len reports the number of keys stored.
func (l *List) Len() int { return l.length }

// descend walks from the head toward key, recording in update[i] the last
// node at level i whose key is below key. It returns the level-0 one and
// the node hops taken: one per link followed plus one per level.
func (l *List) descend(key uint64, update *[maxLevel]uint32) (x uint32, hops int) {
	nodes, more, tower := l.nodes, l.more, l.tower
	i := l.level - 1
	for ; i >= inlineLevels; i-- {
		for {
			nx := tower[more[x]+uint32(i-inlineLevels)]
			if nx == 0 || nodes[nx].key >= key {
				break
			}
			x = nx
			hops++
		}
		hops++
		update[i] = x
	}
	for ; i >= 0; i-- {
		for {
			nx := nodes[x].next[i]
			if nx == 0 || nodes[nx].key >= key {
				break
			}
			x = nx
			hops++
		}
		hops++
		update[i] = x
	}
	return x, hops
}

// Get returns the value for key and the number of node hops the search
// performed.
func (l *List) Get(key uint64) (val uint64, ok bool, hops int) {
	var update [maxLevel]uint32
	x, hops := l.descend(key, &update)
	if nx := l.nodes[x].next[0]; nx != 0 && l.nodes[nx].key == key {
		return l.nodes[nx].val, true, hops
	}
	return 0, false, hops
}

// Set inserts or updates key, returning the hop count.
func (l *List) Set(key, val uint64) (hops int) {
	var update [maxLevel]uint32
	_, hops = l.descend(key, &update)
	l.put(key, val, &update)
	return hops
}

// put inserts or updates key at the position update records (update[i]
// is the last node at level i whose key is below key). It returns key's
// node and, if the node is new, its height; an updated node reports 0.
func (l *List) put(key, val uint64, update *[maxLevel]uint32) (n uint32, lvl int) {
	if nx := l.nodes[update[0]].next[0]; nx != 0 && l.nodes[nx].key == key {
		l.nodes[nx].val = val
		return nx, 0
	}
	lvl = l.randLevel()
	if lvl > l.level {
		// update[l.level:lvl] is already 0, the head.
		l.level = lvl
	}
	n = l.newNode(key, val, lvl)
	for i := 0; i < lvl; i++ {
		l.setLink(n, i, l.link(update[i], i))
		l.setLink(update[i], i, n)
	}
	l.length++
	return n, lvl
}

// SetSeq sets the n keys key, key+stride, ..., key+(n-1)*stride to val,
// val+stride, ..., val+(n-1)*stride. It leaves the list and the level
// generator exactly as n calls to Set would, and returns the largest hop
// count among those calls.
//
// It descends from the head once, then reaches each following key from
// the node x just set (finger insertion). If x has height h and no key
// lies between x's key and the next one, the next search path is x's
// own path down to level h-1, one more link to x there, and no link on
// the h-1 levels below. So its hop count is x's minus the links x's path
// took below level h-1, plus one, plus any levels x added to the list.
// A key inside the gap, or a run that wraps, takes a full descent.
func (l *List) SetSeq(key, val, stride uint64, n int) (maxHops int) {
	if n <= 1 {
		if n == 1 {
			return l.Set(key, val)
		}
		return 0
	}
	var update [maxLevel]uint32
	_, hops := l.descend(key, &update)
	for j := 0; ; j++ {
		under := l.level
		x, h := l.put(key, val, &update)
		maxHops = max(maxHops, hops)
		if j == n-1 {
			return maxHops
		}
		next := key + stride
		if succ := l.nodes[x].next[0]; next <= key || succ != 0 && l.nodes[succ].key < next {
			_, hops = l.descend(next, &update)
		} else {
			if h == 0 {
				for h = 1; h < l.level && l.link(update[h], h) == x; h++ {
				}
			}
			hops += max(h-under, 0) + 1
			for i := 0; i < h-1; i++ {
				hops -= l.links(update[i+1], update[i], i)
			}
			for i := 0; i < h; i++ {
				update[i] = x
			}
		}
		key, val = next, val+stride
	}
}

// links counts the level-i links from node from to node to, which the
// search path reaches from from at that level.
func (l *List) links(from, to uint32, i int) (n int) {
	for ; from != to; n++ {
		from = l.link(from, i)
	}
	return n
}

// newNode appends a node of height lvl, taking its links above
// inlineLevels from the tower arena. Both arrays only grow between
// Clears, so every new node starts with nil links.
func (l *List) newNode(key, val uint64, lvl int) uint32 {
	n := len(l.nodes)
	if uint64(n) >= 1<<32 || uint64(len(l.tower)) >= 1<<32-maxLevel {
		panic("skiplist: node index overflows uint32")
	}
	var more uint32
	if lvl > inlineLevels {
		more = uint32(len(l.tower))
		for i := inlineLevels; i < lvl; i++ {
			l.tower = append(l.tower, 0)
		}
	}
	if n == cap(l.nodes) {
		// Double: append grows a large slice by about a quarter, so a list
		// filled from empty (one per LSM scheme built) would copy its
		// nodes about four times over.
		l.nodes = slices.Grow(l.nodes, n)
		l.more = slices.Grow(l.more, n)
	}
	l.nodes = append(l.nodes, node{key: key, val: val})
	l.more = append(l.more, more)
	return uint32(n)
}

// Delete removes key if present, returning whether it was found and the
// hop count.
func (l *List) Delete(key uint64) (found bool, hops int) {
	var update [maxLevel]uint32
	x, hops := l.descend(key, &update)
	target := l.nodes[x].next[0]
	if target == 0 || l.nodes[target].key != key {
		return false, hops
	}
	for i := 0; i < l.level; i++ {
		if l.link(update[i], i) == target {
			l.setLink(update[i], i, l.link(target, i))
		}
	}
	for l.level > 1 && l.link(0, l.level-1) == 0 {
		l.level--
	}
	l.length--
	return true, hops
}

// Clear drops every entry and rewinds the node and tower arrays for reuse.
// The level generator is not reseeded, so the level sequence continues
// across Clears.
func (l *List) Clear() {
	l.nodes = l.nodes[:1]
	l.more = l.more[:1]
	l.nodes[0] = node{}
	l.tower = l.tower[:maxLevel-inlineLevels]
	clear(l.tower)
	l.level = 1
	l.length = 0
}
