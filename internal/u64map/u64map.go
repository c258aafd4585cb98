// Package u64map provides the specialized index structures used on the
// simulator's per-transaction hot paths: an open-addressed hash table keyed
// by uint64 (Map) and a set built on it (Set).
//
// The structures exist because the simulator spends its wall clock in
// metadata indexing, not simulated work: HOOP's mapping table, the per-line
// write tracking, the cache presence index and the baselines' write sets
// are all keyed by small integers (line indices, physical addresses,
// transaction IDs), are cleared wholesale at epoch boundaries (GC passes,
// transaction commits), and sit under every simulated store. A generic Go
// map pays interface hashing, random iteration order, and a fresh
// allocation per make(); this table pays one multiplicative hash, iterates
// deterministically in slot order, and clears in O(1) without freeing its
// backing arrays.
//
// Properties:
//
//   - Open addressing with linear probing over a power-of-two slot array.
//   - Deletion by backward shift, so there are never tombstones and probe
//     chains stay short regardless of churn.
//   - O(1) Clear via epoch stamps: a slot is live iff its stamp equals the
//     table's current epoch, so clearing is one counter increment and the
//     key/value arrays are reused across epochs instead of reallocated.
//     When the 32-bit epoch counter would wrap, the stamp array is zeroed
//     once — amortized to nothing.
//   - Steady-state Get/Put/Delete/Clear perform zero heap allocations
//     (locked by tests with testing.AllocsPerRun).
//   - Iteration (Keys, Range) walks slots in index order: deterministic for
//     a given insertion/deletion history, unlike Go's randomized map order.
//     Callers that need address order still sort, but no caller needs to
//     defend against run-to-run nondeterminism.
//
// Memory bounds: a table that has grown to capacity C holds C×(8 bytes key
// + sizeof(V) value + 4 bytes stamp) and never shrinks; capacity doubles at
// 3/4 occupancy. This mirrors the hardware structures being simulated,
// which are fixed-size tables, not garbage-collected heaps.
package u64map

import "math/bits"

// minCap is the smallest slot-array capacity (must be a power of two).
const minCap = 8

// Map is an open-addressed hash table from uint64 keys to V values.
// The zero value is ready to use.
type Map[V any] struct {
	keys  []uint64
	vals  []V
	stamp []uint32 // slot live iff stamp[i] == epoch
	epoch uint32   // current epoch; starts at 1, never 0 (0 = dead slot)
	mask  uint64   // len(keys) - 1
	n     int
}

// hash is the splitmix64 finalizer: a full-avalanche multiplicative mix so
// that sequential line indices (the dominant key distribution) spread
// uniformly over the slot array.
func hash(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

func (m *Map[V]) init(capacity int) {
	c := minCap
	for c < capacity {
		c <<= 1
	}
	m.keys = make([]uint64, c)
	m.vals = make([]V, c)
	m.stamp = make([]uint32, c)
	m.epoch = 1
	m.mask = uint64(c - 1)
	m.n = 0
}

// Len reports the number of live entries.
func (m *Map[V]) Len() int { return m.n }

// find returns the slot of k, or -1 when absent.
func (m *Map[V]) find(k uint64) int {
	if m.n == 0 {
		return -1
	}
	for i := hash(k) & m.mask; ; i = (i + 1) & m.mask {
		if m.stamp[i] != m.epoch {
			return -1
		}
		if m.keys[i] == k {
			return int(i)
		}
	}
}

// Get returns the value stored under k.
func (m *Map[V]) Get(k uint64) (V, bool) {
	if i := m.find(k); i >= 0 {
		return m.vals[i], true
	}
	var zero V
	return zero, false
}

// Contains reports whether k is present.
func (m *Map[V]) Contains(k uint64) bool { return m.find(k) >= 0 }

// Put stores v under k, replacing any existing value.
func (m *Map[V]) Put(k uint64, v V) { *m.Ref(k) = v }

// Ref returns a pointer to the value stored under k, inserting a zero
// value first when k is absent. The pointer is valid until the next
// insertion into the map (which may grow the backing array).
func (m *Map[V]) Ref(k uint64) *V {
	if m.stamp == nil {
		m.init(minCap)
	}
	i := hash(k) & m.mask
	for ; ; i = (i + 1) & m.mask {
		if m.stamp[i] != m.epoch {
			break
		}
		if m.keys[i] == k {
			return &m.vals[i]
		}
	}
	if (m.n+1)*4 > len(m.keys)*3 {
		m.grow()
		// Re-probe in the grown array for the insertion slot.
		for i = hash(k) & m.mask; m.stamp[i] == m.epoch; i = (i + 1) & m.mask {
		}
	}
	var zero V
	m.keys[i] = k
	m.vals[i] = zero
	m.stamp[i] = m.epoch
	m.n++
	return &m.vals[i]
}

// grow doubles the slot array and rehashes every live entry.
func (m *Map[V]) grow() {
	oldKeys, oldVals, oldStamp, oldEpoch := m.keys, m.vals, m.stamp, m.epoch
	m.init(len(oldKeys) * 2)
	for i := range oldKeys {
		if oldStamp[i] != oldEpoch {
			continue
		}
		j := hash(oldKeys[i]) & m.mask
		for ; m.stamp[j] == m.epoch; j = (j + 1) & m.mask {
		}
		m.keys[j] = oldKeys[i]
		m.vals[j] = oldVals[i]
		m.stamp[j] = m.epoch
		m.n++
	}
}

// Delete removes k, returning the removed value. Removal backward-shifts
// the following probe chain so no tombstone is left behind.
func (m *Map[V]) Delete(k uint64) (V, bool) {
	var zero V
	i := m.find(k)
	if i < 0 {
		return zero, false
	}
	old := m.vals[i]
	hole := uint64(i)
	for j := (hole + 1) & m.mask; m.stamp[j] == m.epoch; j = (j + 1) & m.mask {
		// Slot j may fill the hole iff its home position does not lie in
		// the cyclic range (hole, j] — otherwise moving it would break its
		// own probe chain.
		home := hash(m.keys[j]) & m.mask
		if ((j - home) & m.mask) >= ((j - hole) & m.mask) {
			m.keys[hole] = m.keys[j]
			m.vals[hole] = m.vals[j]
			hole = j
		}
	}
	m.stamp[hole] = 0
	m.vals[hole] = zero // release any pointers held by V
	m.n--
	return old, true
}

// Clear drops every entry in O(1), keeping the backing arrays for reuse.
func (m *Map[V]) Clear() {
	if m.stamp == nil || m.n == 0 && m.epoch != 0 {
		m.n = 0
		return
	}
	m.n = 0
	m.epoch++
	if m.epoch == 0 {
		// The 32-bit epoch wrapped (once per ~4 billion clears): reset the
		// stamps wholesale so stale stamps from old epochs cannot read as
		// live again.
		clear(m.stamp)
		m.epoch = 1
	}
	// Dead slots keep their old values until overwritten (Ref zeroes the
	// slot on insert, so they are never observable). That retention only
	// matters to the GC for pointer-valued V; every table in this codebase
	// holds scalars, and paying an O(cap) memset here would defeat the
	// point of epoch clearing.
}

// Keys appends every live key to dst in slot order (deterministic for a
// given history, not sorted) and returns the extended slice.
func (m *Map[V]) Keys(dst []uint64) []uint64 {
	for i := range m.keys {
		if m.stamp[i] == m.epoch {
			dst = append(dst, m.keys[i])
		}
	}
	return dst
}

// Range calls f for every live entry in slot order until f returns false.
// f must not insert into or delete from the map.
func (m *Map[V]) Range(f func(k uint64, v *V) bool) {
	for i := range m.keys {
		if m.stamp[i] == m.epoch {
			if !f(m.keys[i], &m.vals[i]) {
				return
			}
		}
	}
}

// Set is an open-addressed set of uint64 keys with the same properties as
// Map (epoch clearing, backward-shift delete, deterministic iteration).
// The zero value is ready to use.
type Set struct {
	m Map[struct{}]
}

// Len reports the number of members.
func (s *Set) Len() int { return s.m.Len() }

// Contains reports whether k is a member.
func (s *Set) Contains(k uint64) bool { return s.m.Contains(k) }

// Add inserts k, reporting whether it was newly added.
func (s *Set) Add(k uint64) bool {
	before := s.m.n
	s.m.Ref(k)
	return s.m.n != before
}

// Delete removes k, reporting whether it was present.
func (s *Set) Delete(k uint64) bool {
	_, ok := s.m.Delete(k)
	return ok
}

// Clear drops every member in O(1), keeping the backing arrays.
func (s *Set) Clear() { s.m.Clear() }

// Keys appends the members to dst in slot order and returns it.
func (s *Set) Keys(dst []uint64) []uint64 { return s.m.Keys(dst) }

// powerOfTwo is kept for the tests' capacity assertions.
func powerOfTwo(n int) bool { return n > 0 && bits.OnesCount(uint(n)) == 1 }
