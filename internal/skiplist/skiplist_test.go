package skiplist

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	l := New(1)
	if _, ok, _ := l.Get(5); ok {
		t.Fatal("empty list must not contain keys")
	}
	l.Set(5, 50)
	l.Set(3, 30)
	l.Set(7, 70)
	if v, ok, _ := l.Get(5); !ok || v != 50 {
		t.Fatal("Get(5)")
	}
	l.Set(5, 55) // overwrite
	if v, _, _ := l.Get(5); v != 55 {
		t.Fatal("overwrite failed")
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	if found, _ := l.Delete(3); !found {
		t.Fatal("Delete(3)")
	}
	if found, _ := l.Delete(3); found {
		t.Fatal("double delete")
	}
	if l.Len() != 2 {
		t.Fatalf("Len after delete = %d", l.Len())
	}
}

func TestRangeOrdered(t *testing.T) {
	l := New(2)
	for _, k := range []uint64{9, 1, 5, 3, 7} {
		l.Set(k, k*10)
	}
	var got []uint64
	l.Range(2, 8, func(k, v uint64) bool {
		if v != k*10 {
			t.Fatalf("value mismatch at %d", k)
		}
		got = append(got, k)
		return true
	})
	want := []uint64{3, 5, 7}
	if len(got) != len(want) {
		t.Fatalf("Range returned %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Range order %v", got)
		}
	}
	// Early stop.
	n := 0
	l.Range(0, 100, func(k, v uint64) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestHopsGrowLogarithmically(t *testing.T) {
	l := New(3)
	for i := uint64(0); i < 100000; i++ {
		l.Set(i, i)
	}
	_, ok, hops := l.Get(77777)
	if !ok {
		t.Fatal("key missing")
	}
	if hops > 120 {
		t.Fatalf("search took %d hops for 100k keys (not logarithmic)", hops)
	}
	if hops < 5 {
		t.Fatalf("suspiciously few hops: %d", hops)
	}
}

func TestAgainstOracleQuick(t *testing.T) {
	f := func(ops []uint16) bool {
		l := New(7)
		oracle := map[uint64]uint64{}
		for i, op := range ops {
			k := uint64(op % 256)
			switch i % 3 {
			case 0, 1:
				l.Set(k, uint64(i))
				oracle[k] = uint64(i)
			case 2:
				l.Delete(k)
				delete(oracle, k)
			}
		}
		if l.Len() != len(oracle) {
			return false
		}
		for k, v := range oracle {
			if got, ok, _ := l.Get(k); !ok || got != v {
				return false
			}
		}
		// Ordered iteration agrees with the sorted oracle keys.
		var keys []uint64
		for k := range oracle {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		i := 0
		okOrder := true
		l.Range(0, 1<<62, func(k, v uint64) bool {
			if i >= len(keys) || keys[i] != k {
				okOrder = false
				return false
			}
			i++
			return true
		})
		return okOrder && i == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestClear(t *testing.T) {
	l := New(0)
	for i := uint64(0); i < 10; i++ {
		l.Set(i, i)
	}
	l.Clear()
	if l.Len() != 0 {
		t.Fatal("Clear")
	}
	if _, ok, _ := l.Get(5); ok {
		t.Fatal("key survived Clear")
	}
}

// TestClearRefillAgainstModel runs Set/Delete/Clear/refill cycles against
// a sorted-map model. Clear rewinds the node and tower arrays, so a refill
// reuses slots that were linked before: no key from before a Clear may be
// reachable through Get, Range or Len.
func TestClearRefillAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := New(11)
	for cycle := 0; cycle < 40; cycle++ {
		model := map[uint64]uint64{}
		// Key ranges shift between cycles so stale keys are distinguishable.
		lo := uint64(cycle%4) * 1000
		n := rng.Intn(3 * chunkNodes)
		for i := 0; i < n; i++ {
			k := lo + uint64(rng.Intn(800))
			if rng.Intn(4) == 0 {
				l.Delete(k)
				delete(model, k)
				continue
			}
			v := rng.Uint64()
			l.Set(k, v)
			model[k] = v
		}
		if l.Len() != len(model) {
			t.Fatalf("cycle %d: Len = %d, model %d", cycle, l.Len(), len(model))
		}
		for k := uint64(0); k < 4000; k++ {
			got, ok, _ := l.Get(k)
			want, in := model[k]
			if ok != in || got != want {
				t.Fatalf("cycle %d: Get(%d) = %d,%v, model %d,%v", cycle, k, got, ok, want, in)
			}
		}
		keys := make([]uint64, 0, len(model))
		for k := range model {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		var seen []uint64
		l.Range(0, 1<<62, func(k, v uint64) bool {
			if v != model[k] {
				t.Fatalf("cycle %d: Range value %d at key %d, model %d", cycle, v, k, model[k])
			}
			seen = append(seen, k)
			return true
		})
		if !slices.Equal(seen, keys) {
			t.Fatalf("cycle %d: Range keys %v, model %v", cycle, seen, keys)
		}
		l.Clear()
		if l.Len() != 0 {
			t.Fatalf("cycle %d: Len after Clear = %d", cycle, l.Len())
		}
		l.Range(0, 1<<62, func(k, _ uint64) bool {
			t.Fatalf("cycle %d: key %d visible after Clear", cycle, k)
			return false
		})
	}
}

// TestHopSequenceStable locks the level generator and every hop count for a
// fixed mixed history with Clears. Hops are simulated index latency for the
// LSM baseline, so node storage must never change them.
func TestHopSequenceStable(t *testing.T) {
	l := New(0xBEEF)
	var sum uint64
	mix := func(h int) { sum = sum*1099511628211 + uint64(h) }
	x := uint64(1)
	for cycle := 0; cycle < 6; cycle++ {
		for i := 0; i < 3000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			k := (x >> 33) % 5000
			switch x >> 62 {
			case 0:
				_, h := l.Delete(k)
				mix(h)
			case 1:
				_, _, h := l.Get(k)
				mix(h)
			default:
				mix(l.Set(k, x))
			}
		}
		l.Clear()
	}
	if sum != 0x4962ad36d407075f {
		t.Fatalf("hop sequence checksum = %#x", sum)
	}
}

// TestSetAfterClearZeroAlloc locks slab reuse: once the chunks cover an
// epoch, refilling the list after Clear allocates nothing.
func TestSetAfterClearZeroAlloc(t *testing.T) {
	l := New(3)
	fill := func() {
		l.Clear()
		for k := uint64(0); k < 2*chunkNodes; k++ {
			l.Set(k*7919%4096, k)
		}
	}
	fill()
	if allocs := testing.AllocsPerRun(50, fill); allocs != 0 {
		t.Fatalf("Set after Clear allocates %v/run, want 0", allocs)
	}
}

// BenchmarkEpoch times one LSM index epoch: Clear, then 60k mixed Set/Get
// calls over 200k word-aligned keys, as the LSM baseline's mapping index
// sees between GC passes.
func BenchmarkEpoch(b *testing.B) {
	const ops, keys = 60000, 200000
	l := New(0xBEEF)
	x := uint64(1)
	for i := 0; i < b.N; i++ {
		l.Clear()
		for j := 0; j < ops; j++ {
			x = x*6364136223846793005 + 1442695040888963407
			k := (x >> 33) % keys * 8
			if x>>63 == 0 {
				l.Set(k, x)
			} else {
				l.Get(k)
			}
		}
	}
}

// Range calls fn for every key in [lo, hi) in ascending order until fn
// returns false.
func (l *List) Range(lo, hi uint64, fn func(key, val uint64) bool) {
	var update [maxLevel]uint32
	x, _ := l.descend(lo, &update)
	for x = l.nodes[x].next[0]; x != 0 && l.nodes[x].key < hi; x = l.nodes[x].next[0] {
		if !fn(l.nodes[x].key, l.nodes[x].val) {
			return
		}
	}
}

// TestSetSeqMatchesSet holds SetSeq to its contract on seeded random
// histories: a twin list gets one Set per key, and after every call both
// must report the same maximum hop count. Runs mix fresh keys, overwrites
// of existing keys and existing keys inside the stride gap; Deletes,
// Clears and towers above inlineLevels mix in. At the end every key must
// read back the same value with the same hops from both lists.
func TestSetSeqMatchesSet(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		seq, twin := New(uint64(seed)), New(uint64(seed))
		span := uint64(64 + rng.Intn(4000))
		for op := 0; op < 600; op++ {
			switch r := rng.Intn(40); {
			case r == 0:
				seq.Clear()
				twin.Clear()
			case r < 8:
				k := uint64(rng.Int63n(int64(span)))
				f1, h1 := seq.Delete(k)
				f2, h2 := twin.Delete(k)
				if f1 != f2 || h1 != h2 {
					t.Fatalf("seed %d op %d: Delete(%d) = %v,%d, twin %v,%d", seed, op, k, f1, h1, f2, h2)
				}
			default:
				key := uint64(rng.Int63n(int64(span)))
				stride := []uint64{1, 2, 8, 8, 8, 16, 64}[rng.Intn(7)]
				n := rng.Intn(12)
				if rng.Intn(8) == 0 {
					n = 100 + rng.Intn(300)
				}
				val := rng.Uint64()
				got := seq.SetSeq(key, val, stride, n)
				want := 0
				for j := 0; j < n; j++ {
					want = max(want, twin.Set(key+uint64(j)*stride, val+uint64(j)*stride))
				}
				if got != want {
					t.Fatalf("seed %d op %d: SetSeq(%d, stride %d, n %d) = %d hops, Set loop %d", seed, op, key, stride, n, got, want)
				}
			}
		}
		if seq.Len() != twin.Len() || seq.level != twin.level {
			t.Fatalf("seed %d: Len %d level %d, twin Len %d level %d", seed, seq.Len(), seq.level, twin.Len(), twin.level)
		}
		for k := uint64(0); k < span+400*64; k++ {
			v1, ok1, h1 := seq.Get(k)
			v2, ok2, h2 := twin.Get(k)
			if v1 != v2 || ok1 != ok2 || h1 != h2 {
				t.Fatalf("seed %d: Get(%d) = %d,%v,%d, twin %d,%v,%d", seed, k, v1, ok1, h1, v2, ok2, h2)
			}
		}
		if seq.rngState != twin.rngState {
			t.Fatalf("seed %d: level generator diverged", seed)
		}
	}
}

// TestSetSeqTallTowers runs long strided runs into a large list, so nodes
// and the list itself grow past inlineLevels inside a run.
func TestSetSeqTallTowers(t *testing.T) {
	seq, twin := New(9), New(9)
	key := uint64(0)
	for run := 0; run < 200; run++ {
		n := 1 + run%500
		got := seq.SetSeq(key, key, 8, n)
		want := 0
		for j := 0; j < n; j++ {
			want = max(want, twin.Set(key+uint64(j)*8, key+uint64(j)*8))
		}
		if got != want {
			t.Fatalf("run %d: SetSeq = %d hops, Set loop %d", run, got, want)
		}
		key += uint64(n) * 8
	}
	if seq.level <= inlineLevels {
		t.Fatalf("list level %d never passed inlineLevels", seq.level)
	}
	for k := uint64(0); k < key; k += 4 {
		v1, ok1, h1 := seq.Get(k)
		v2, ok2, h2 := twin.Get(k)
		if v1 != v2 || ok1 != ok2 || h1 != h2 {
			t.Fatalf("Get(%d) = %d,%v,%d, twin %d,%v,%d", k, v1, ok1, h1, v2, ok2, h2)
		}
	}
}

func TestSetSeqEdgeCases(t *testing.T) {
	l := New(4)
	if h := l.SetSeq(5, 5, 8, 0); h != 0 || l.Len() != 0 {
		t.Fatalf("n=0: hops %d, Len %d", h, l.Len())
	}
	// A zero stride and a run that wraps past 2^64 both fall back to full
	// descents; the twin sees the same wrapped keys.
	twin := New(4)
	for _, c := range []struct{ key, stride uint64 }{{100, 0}, {^uint64(0) - 16, 8}} {
		got := l.SetSeq(c.key, 1, c.stride, 5)
		want := 0
		for j := uint64(0); j < 5; j++ {
			want = max(want, twin.Set(c.key+j*c.stride, 1+j*c.stride))
		}
		if got != want || l.Len() != twin.Len() {
			t.Fatalf("key %d stride %d: hops %d Len %d, twin %d Len %d", c.key, c.stride, got, l.Len(), want, twin.Len())
		}
	}
}

// BenchmarkSetSeq times line-sized stores into the LSM index: 8 word keys
// per SetSeq call over 200k word-aligned keys, cleared every 7500 stores as
// a GC epoch would.
func BenchmarkSetSeq(b *testing.B) {
	const stores, keys = 7500, 200000
	l := New(0xBEEF)
	x := uint64(1)
	for i := 0; i < b.N; i++ {
		if i%stores == 0 {
			l.Clear()
		}
		x = x*6364136223846793005 + 1442695040888963407
		l.SetSeq((x>>33)%keys*8&^63, x, 8, 8)
	}
}
