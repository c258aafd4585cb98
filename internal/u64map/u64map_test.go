package u64map

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// TestBasicOps exercises the plain insert/lookup/overwrite/delete cycle.
func TestBasicOps(t *testing.T) {
	var m Map[int]
	if m.Len() != 0 {
		t.Fatalf("zero-value Len = %d, want 0", m.Len())
	}
	if _, ok := m.Get(7); ok {
		t.Fatal("Get on empty map reported a hit")
	}
	m.Put(7, 70)
	m.Put(8, 80)
	m.Put(7, 71) // overwrite
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	if v, ok := m.Get(7); !ok || v != 71 {
		t.Fatalf("Get(7) = %d,%v, want 71,true", v, ok)
	}
	if v, ok := m.Delete(7); !ok || v != 71 {
		t.Fatalf("Delete(7) = %d,%v, want 71,true", v, ok)
	}
	if m.Contains(7) {
		t.Fatal("Contains(7) after delete")
	}
	if _, ok := m.Delete(7); ok {
		t.Fatal("double Delete(7) reported present")
	}
	if v, ok := m.Get(8); !ok || v != 80 {
		t.Fatalf("Get(8) after unrelated delete = %d,%v, want 80,true", v, ok)
	}
}

// TestZeroKey checks that key 0 is an ordinary key (liveness comes from the
// epoch stamp, not from a reserved empty-key sentinel).
func TestZeroKey(t *testing.T) {
	var m Map[string]
	m.Put(0, "zero")
	if v, ok := m.Get(0); !ok || v != "zero" {
		t.Fatalf("Get(0) = %q,%v", v, ok)
	}
	m.Clear()
	if m.Contains(0) {
		t.Fatal("Contains(0) after Clear")
	}
}

// TestGrow inserts past several doublings and checks every entry survives
// each rehash and the capacity stays a power of two.
func TestGrow(t *testing.T) {
	var m Map[uint64]
	const n = 10_000
	for i := uint64(0); i < n; i++ {
		m.Put(i*2654435761, i)
		if !powerOfTwo(m.Cap()) {
			t.Fatalf("cap %d not a power of two after %d inserts", m.Cap(), i+1)
		}
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := m.Get(i * 2654435761); !ok || v != i {
			t.Fatalf("Get(%d) = %d,%v after grow", i*2654435761, v, ok)
		}
	}
	// Load factor must stay below 3/4 after growth.
	if m.Len()*4 > m.Cap()*3 {
		t.Fatalf("load factor %d/%d exceeds 3/4", m.Len(), m.Cap())
	}
}

// TestEpochClear checks Clear drops all entries without shrinking, and the
// table is fully reusable afterwards.
func TestEpochClear(t *testing.T) {
	var m Map[int]
	for i := uint64(0); i < 100; i++ {
		m.Put(i, int(i))
	}
	capBefore := m.Cap()
	m.Clear()
	if m.Len() != 0 {
		t.Fatalf("Len after Clear = %d", m.Len())
	}
	if m.Cap() != capBefore {
		t.Fatalf("Clear changed cap %d -> %d", capBefore, m.Cap())
	}
	for i := uint64(0); i < 100; i++ {
		if m.Contains(i) {
			t.Fatalf("Contains(%d) after Clear", i)
		}
	}
	// Reuse across many epochs; each epoch must see only its own entries.
	for epoch := 0; epoch < 50; epoch++ {
		m.Clear()
		base := uint64(epoch * 1000)
		for i := uint64(0); i < 10; i++ {
			m.Put(base+i, epoch)
		}
		if m.Len() != 10 {
			t.Fatalf("epoch %d: Len = %d, want 10", epoch, m.Len())
		}
		if epoch > 0 && m.Contains(uint64((epoch-1)*1000)) {
			t.Fatalf("epoch %d sees previous epoch's key", epoch)
		}
	}
}

// TestEpochWraparound forces the 32-bit epoch counter past zero and checks
// stale stamps cannot resurrect.
func TestEpochWraparound(t *testing.T) {
	var m Map[int]
	m.Put(42, 1)
	slot := m.find(42)
	m.epoch = ^uint32(0) - 1
	m.stamp[slot] = m.epoch // keep the entry live in the forced epoch
	m.Clear()               // -> ^uint32(0)
	m.Put(99, 2)
	m.Clear() // wraps: stamps zeroed, epoch back to 1
	if m.epoch != 1 {
		t.Fatalf("epoch after wraparound = %d, want 1", m.epoch)
	}
	if m.Contains(42) || m.Contains(99) {
		t.Fatal("stale entry visible after epoch wraparound")
	}
	m.Put(7, 3)
	if v, ok := m.Get(7); !ok || v != 3 {
		t.Fatalf("map unusable after wraparound: Get(7) = %d,%v", v, ok)
	}
}

// TestCollisionChains builds keys that collide into the same home slot and
// checks lookups and backward-shift deletion keep every chain intact.
func TestCollisionChains(t *testing.T) {
	var m Map[uint64]
	m.init(16)
	// Find 6 keys whose home slot is identical at the initial capacity.
	home := hash(1) & m.mask
	keys := []uint64{1}
	for k := uint64(2); len(keys) < 6; k++ {
		if hash(k)&m.mask == home {
			keys = append(keys, k)
		}
	}
	for _, k := range keys {
		m.Put(k, k*10)
	}
	for _, k := range keys {
		if v, ok := m.Get(k); !ok || v != k*10 {
			t.Fatalf("colliding Get(%d) = %d,%v", k, v, ok)
		}
	}
	// Delete from the middle of the chain; the rest must stay reachable.
	mid := keys[2]
	m.Delete(mid)
	for _, k := range keys {
		want := k != mid
		if m.Contains(k) != want {
			t.Fatalf("after mid-chain delete, Contains(%d) = %v, want %v", k, m.Contains(k), want)
		}
	}
	// Delete the head; tail still reachable.
	m.Delete(keys[0])
	for _, k := range keys[3:] {
		if !m.Contains(k) {
			t.Fatalf("after head delete, lost %d", k)
		}
	}
}

// TestRef checks in-place mutation through the returned pointer.
func TestRef(t *testing.T) {
	var m Map[[2]int]
	p := m.Ref(5)
	p[0] = 1
	q := m.Ref(5)
	if q[0] != 1 {
		t.Fatal("Ref did not return the stored value")
	}
	q[1] = 2
	if v, _ := m.Get(5); v != [2]int{1, 2} {
		t.Fatalf("Get(5) = %v", v)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
}

// TestKeysDeterministic checks that two maps built by the same history
// iterate in the same order (Go maps famously do not).
func TestKeysDeterministic(t *testing.T) {
	build := func() []uint64 {
		var m Map[int]
		rng := rand.New(rand.NewSource(17))
		for i := 0; i < 500; i++ {
			m.Put(rng.Uint64()%1000, i)
		}
		for i := 0; i < 200; i++ {
			m.Delete(rng.Uint64() % 1000)
		}
		return m.Keys(nil)
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("iteration order diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestRange checks Range visits every entry exactly once and honors early
// termination.
func TestRange(t *testing.T) {
	var m Map[int]
	for i := uint64(0); i < 64; i++ {
		m.Put(i, int(i))
	}
	seen := map[uint64]int{}
	m.Range(func(k uint64, v *int) bool {
		seen[k]++
		if uint64(*v) != k {
			t.Fatalf("Range value mismatch: %d -> %d", k, *v)
		}
		return true
	})
	if len(seen) != 64 {
		t.Fatalf("Range visited %d keys, want 64", len(seen))
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("Range visited %d %d times", k, c)
		}
	}
	count := 0
	m.Range(func(uint64, *int) bool { count++; return count < 5 })
	if count != 5 {
		t.Fatalf("early-terminated Range visited %d, want 5", count)
	}
}

// mapOp is one step of a randomized history for the model check.
type mapOp struct {
	Kind uint8 // 0 put, 1 delete, 2 get, 3 clear (rare)
	Key  uint16
	Val  uint32
}

// TestQuickAgainstGoMap model-checks Map against the built-in map over
// random operation histories generated by testing/quick.
func TestQuickAgainstGoMap(t *testing.T) {
	check := func(ops []mapOp) bool {
		var m Map[uint32]
		ref := map[uint64]uint32{}
		for _, op := range ops {
			k := uint64(op.Key) % 512 // force collisions and re-insertion
			switch op.Kind % 8 {      // clear at 1/8 frequency
			case 0, 1, 2:
				m.Put(k, op.Val)
				ref[k] = op.Val
			case 3, 4:
				_, gotOK := m.Delete(k)
				_, wantOK := ref[k]
				delete(ref, k)
				if gotOK != wantOK {
					return false
				}
			case 5, 6:
				got, gotOK := m.Get(k)
				want, wantOK := ref[k]
				if gotOK != wantOK || (gotOK && got != want) {
					return false
				}
			case 7:
				m.Clear()
				clear(ref)
			}
			if m.Len() != len(ref) {
				return false
			}
		}
		// Full sweep: both directions.
		for k, want := range ref {
			if got, ok := m.Get(k); !ok || got != want {
				return false
			}
		}
		keys := m.Keys(nil)
		if len(keys) != len(ref) {
			return false
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for i := 1; i < len(keys); i++ {
			if keys[i] == keys[i-1] {
				return false // duplicate live slot
			}
		}
		for _, k := range keys {
			if _, ok := ref[k]; !ok {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestSet exercises the Set wrapper.
func TestSet(t *testing.T) {
	var s Set
	if !s.Add(3) || s.Add(3) {
		t.Fatal("Add newness reporting wrong")
	}
	s.Add(9)
	if s.Len() != 2 || !s.Contains(3) || !s.Contains(9) || s.Contains(4) {
		t.Fatal("Set membership wrong")
	}
	if !s.Delete(3) || s.Delete(3) {
		t.Fatal("Delete presence reporting wrong")
	}
	s.Clear()
	if s.Len() != 0 || s.Contains(9) {
		t.Fatal("Clear left members behind")
	}
	if got := NewSet(100).m.Cap(); !powerOfTwo(got) || got < 100 {
		t.Fatalf("NewSet(100) cap = %d", got)
	}
}

// TestSteadyStateZeroAlloc locks the zero-allocation guarantee for the
// steady-state operation mix once the table has reached its working size.
func TestSteadyStateZeroAlloc(t *testing.T) {
	m := NewMap[uint64](256)
	for i := uint64(0); i < 256; i++ {
		m.Put(i, i)
	}
	i := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		k := i % 256
		m.Put(k, i)
		m.Get(k)
		m.Contains(k + 1)
		m.Delete(k)
		m.Put(k, i)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Map ops allocate %v/run, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		m.Clear()
		for j := uint64(0); j < 64; j++ {
			m.Put(j, j)
		}
	})
	if allocs != 0 {
		t.Fatalf("Clear+refill allocates %v/run, want 0", allocs)
	}
	s := NewSet(64)
	k := uint64(0)
	allocs = testing.AllocsPerRun(1000, func() {
		k++
		s.Add(k % 64)
		s.Contains(k)
		s.Delete(k % 64)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Set ops allocate %v/run, want 0", allocs)
	}
}

func BenchmarkPutGetDelete(b *testing.B) {
	m := NewMap[uint64](1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := uint64(i) % 1024
		m.Put(k, uint64(i))
		m.Get(k)
		if i%4 == 3 {
			m.Delete(k)
		}
	}
}

func BenchmarkClearRefill(b *testing.B) {
	m := NewMap[uint64](256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Clear()
		for j := uint64(0); j < 64; j++ {
			m.Put(j, j)
		}
	}
}

// NewMap returns a map pre-sized to hold about capHint entries without
// growing. The zero value works too; NewMap just avoids the early doublings.
func NewMap[V any](capHint int) *Map[V] {
	m := &Map[V]{}
	m.init(capHint * 4 / 3)
	return m
}

// Cap reports the current slot-array capacity (for memory accounting).
func (m *Map[V]) Cap() int { return len(m.keys) }

// NewSet returns a set pre-sized for about capHint members.
func NewSet(capHint int) *Set {
	s := &Set{}
	s.m.init(capHint * 4 / 3)
	return s
}
