package persist

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"hoop/internal/mem"
)

// TestCoalescerMatchesWordMap drives the coalescer with random newest-first
// streams — words repeated within a line and across lines, lines revisited
// after other lines — and checks it against a word-keyed reference map:
// the first offer of each word wins, Lines visits lines in ascending order
// with their words ascending, and each line carries popcount(mask)×8 bytes.
func TestCoalescerMatchesWordMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var c Coalescer
	var lastW mem.PAddr
	for round := 0; round < 200; round++ {
		c.Clear()
		ref := map[mem.PAddr]uint64{}
		base := mem.PAddr(rng.Intn(1<<20)) * mem.LineSize
		span := 1 + rng.Intn(64) // lines the stream draws from
		n := rng.Intn(600)
		for i := 0; i < n; i++ {
			w := base + mem.PAddr(rng.Intn(span*mem.WordsPerLine))*mem.WordSize
			if i == 0 && round%2 == 1 {
				// The last word offered before Clear must be fresh again.
				w = lastW
			}
			lastW = w
			v := rng.Uint64()
			slot, fresh := c.Ref(w)
			_, seen := ref[w]
			if fresh == seen {
				t.Fatalf("round %d: Ref(%v) fresh=%v, reference seen=%v", round, w, fresh, seen)
			}
			if fresh {
				binary.LittleEndian.PutUint64(slot[:], v)
				ref[w] = v
			} else if got := binary.LittleEndian.Uint64(slot[:]); got != ref[w] {
				t.Fatalf("round %d: repeat Ref(%v) slot holds %#x, want first offer %#x", round, w, got, ref[w])
			}
		}

		var got []mem.PAddr
		prevLine, first := uint64(0), true
		c.Lines(func(line uint64, mask uint8, words *[mem.WordsPerLine][mem.WordSize]byte) {
			if !first && line <= prevLine {
				t.Fatalf("round %d: line %d visited after %d", round, line, prevLine)
			}
			prevLine, first = line, false
			if mask == 0 {
				t.Fatalf("round %d: line %d visited with an empty mask", round, line)
			}
			bytes := 0
			for m := mask; m != 0; m &= m - 1 {
				j := bits.TrailingZeros8(m)
				w := mem.PAddr(line<<mem.LineShift) + mem.PAddr(j*mem.WordSize)
				if v := binary.LittleEndian.Uint64(words[j][:]); v != ref[w] {
					t.Fatalf("round %d: word %v = %#x, want newest %#x", round, w, v, ref[w])
				}
				got = append(got, w)
				bytes += mem.WordSize
			}
			if bytes != bits.OnesCount8(mask)*mem.WordSize {
				t.Fatalf("round %d: line %d carries %d bytes for mask %08b", round, line, bytes, mask)
			}
		})
		want := make([]mem.PAddr, 0, len(ref))
		for w := range ref {
			want = append(want, w)
		}
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: Lines visited %d words in order %v, want %v", round, len(got), got, want)
		}

		// Migrate writes exactly those words home and reports each line's
		// bytes in the same ascending order.
		st := mem.NewStore()
		var migrated []mem.PAddr
		var total int
		c.Migrate(st, func(lineAddr mem.PAddr, n int) {
			migrated = append(migrated, lineAddr)
			total += n
		})
		if total != len(ref)*mem.WordSize {
			t.Fatalf("round %d: Migrate reported %d bytes, want %d", round, total, len(ref)*mem.WordSize)
		}
		if !slices.IsSorted(migrated) {
			t.Fatalf("round %d: Migrate lines out of order: %v", round, migrated)
		}
		for w, v := range ref {
			var b [mem.WordSize]byte
			st.Read(w, b[:])
			if got := binary.LittleEndian.Uint64(b[:]); got != v {
				t.Fatalf("round %d: home word %v = %#x after Migrate, want %#x", round, w, got, v)
			}
		}
	}
}

// TestCoalescerClearRefillZeroAlloc locks the steady GC cadence: once the
// table has held a pass's lines, Clear plus a refill of the same size and
// the migration walk perform no allocation.
func TestCoalescerClearRefillZeroAlloc(t *testing.T) {
	var c Coalescer
	st := mem.NewStore()
	fill := func() {
		c.Clear()
		for i := 511; i >= 0; i-- {
			w := mem.PAddr(0x10000 + (i*37%512)*mem.WordSize)
			if slot, fresh := c.Ref(w); fresh {
				slot[0] = byte(i)
			}
		}
		var bytes int
		c.Migrate(st, func(_ mem.PAddr, n int) { bytes += n })
	}
	fill()
	if allocs := testing.AllocsPerRun(100, fill); allocs != 0 {
		t.Fatalf("Clear+refill allocates %v/run, want 0", allocs)
	}
}
