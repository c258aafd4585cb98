package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"testing"
)

// mapStore is the map-backed store the radix page directory replaced,
// kept as the reference model: a map from page number to a 4 KB page,
// walked in sorted order.
type mapStore struct {
	pages map[uint64][]byte
	obs   WriteObserver
}

func newMapStore() *mapStore { return &mapStore{pages: make(map[uint64][]byte)} }

func (s *mapStore) page(a PAddr, create bool) []byte {
	idx := uint64(a) >> PageShift
	p, ok := s.pages[idx]
	if !ok && create {
		p = make([]byte, PageSize)
		s.pages[idx] = p
	}
	return p
}

func (s *mapStore) notifyRange(a PAddr, n uint64) {
	if s.obs == nil || n == 0 {
		return
	}
	for w := uint64(WordAddr(a)); w < uint64(a)+n; w += WordSize {
		var unit [WordSize]byte
		s.Read(PAddr(w), unit[:])
		s.obs(PAddr(w), unit)
	}
}

// span calls fn for each page-bounded piece of [a, a+n).
func span(a PAddr, n int, fn func(a PAddr, off, i, c int)) {
	for i := 0; i < n; {
		off := int((a + PAddr(i)) & PageOffMask)
		c := min(PageSize-off, n-i)
		fn(a+PAddr(i), off, i, c)
		i += c
	}
}

func (s *mapStore) Read(a PAddr, dst []byte) {
	span(a, len(dst), func(a PAddr, off, i, c int) {
		if p := s.page(a, false); p != nil {
			copy(dst[i:i+c], p[off:])
		} else {
			clear(dst[i : i+c])
		}
	})
}

func (s *mapStore) Write(a PAddr, src []byte) {
	s.page(a, true)
	span(a, len(src), func(a PAddr, off, i, c int) {
		copy(s.page(a, true)[off:off+c], src[i:i+c])
	})
	s.notifyRange(a, uint64(len(src)))
}

func (s *mapStore) ReadWord(a PAddr) uint64 {
	var w [WordSize]byte
	s.Read(a, w[:])
	return binary.LittleEndian.Uint64(w[:])
}

func (s *mapStore) WriteWord(a PAddr, v uint64) {
	var w [WordSize]byte
	binary.LittleEndian.PutUint64(w[:], v)
	s.Write(a, w[:])
}

func (s *mapStore) ReadLine(a PAddr) [LineSize]byte {
	var l [LineSize]byte
	s.Read(LineAddr(a), l[:])
	return l
}

func (s *mapStore) WriteLine(a PAddr, l [LineSize]byte) { s.Write(LineAddr(a), l[:]) }

func (s *mapStore) ZeroRange(a PAddr, n uint64) {
	for n > 0 {
		c := min(uint64(PageSize-int(a&PageOffMask)), n)
		if p := s.page(a, false); p != nil {
			clear(p[a&PageOffMask : uint64(a&PageOffMask)+c])
			s.notifyRange(a, c)
		}
		a += PAddr(c)
		n -= c
	}
}

func (s *mapStore) ForEachPageUntil(fn func(base PAddr, data []byte) bool) {
	idxs := make([]uint64, 0, len(s.pages))
	for idx := range s.pages {
		idxs = append(idxs, idx)
	}
	slices.Sort(idxs)
	for _, idx := range idxs {
		if !fn(PAddr(idx<<PageShift), s.pages[idx]) {
			return
		}
	}
}

func (s *mapStore) Clone() *mapStore {
	c := newMapStore()
	for idx, p := range s.pages {
		c.pages[idx] = slices.Clone(p)
	}
	return c
}

func (s *mapStore) CopyFrom(o *mapStore) { s.pages = o.Clone().pages }

func (s *mapStore) Reset() { s.pages = make(map[uint64][]byte) }

// countPages returns the number of pages d holds.
func countPages[P any](d *Dir[P]) int {
	n := 0
	d.Walk(func(PAddr, *P) bool { n++; return true })
	return n
}

// sameContents fails unless the store and the reference materialize the
// same pages, in the same ascending order, with the same bytes.
func sameContents(t *testing.T, what string, s *Store, ref *mapStore) {
	t.Helper()
	type page struct {
		base PAddr
		data []byte
	}
	var got, want []page
	s.ForEachPage(func(base PAddr, data []byte) { got = append(got, page{base, slices.Clone(data)}) })
	ref.ForEachPageUntil(func(base PAddr, data []byte) bool {
		want = append(want, page{base, slices.Clone(data)})
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("%s: %d pages, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].base != want[i].base || !bytes.Equal(got[i].data, want[i].data) {
			t.Fatalf("%s: page %d at %v differs from the reference's at %v", what, i, got[i].base, want[i].base)
		}
	}
}

// TestStoreMatchesMapReference drives the store and the map-backed
// reference with one seeded stream of every operation over far-apart
// regions of a 512 GB layout (home, the OOP region, a log near the top of
// the device) and a shadow space above it, with accesses that cross page
// boundaries. It compares every read, every write-observer unit in
// order, and the page walk.
func TestStoreMatchesMapReference(t *testing.T) {
	layout := NewLayout(512<<30, 0.10)
	bases := []PAddr{
		layout.Home.Base,
		layout.Home.Base + 7<<30,
		layout.OOP.Base,
		layout.OOP.End() - 64<<20,
		1<<41 + 3<<20, // the shadow space the OSP baseline places above the device
	}
	rng := rand.New(rand.NewPCG(23, 5))
	addrIn := func() PAddr {
		// A window of 4 pages per base keeps overlap (and page reuse) high.
		return bases[rng.IntN(len(bases))] + PAddr(rng.IntN(4*PageSize))
	}
	s, ref := NewStore(), newMapStore()
	type unit struct {
		a PAddr
		u [WordSize]byte
	}
	var units, refUnits []unit
	s.SetWriteObserver(func(a PAddr, u [WordSize]byte) { units = append(units, unit{a, u}) })
	ref.obs = func(a PAddr, u [WordSize]byte) { refUnits = append(refUnits, unit{a, u}) }

	var snap *Store
	var refSnap *mapStore
	for step := 0; step < 20000; step++ {
		a := addrIn()
		switch op := rng.IntN(100); {
		case op < 25:
			v := rng.Uint64()
			s.WriteWord(WordAddr(a), v)
			ref.WriteWord(WordAddr(a), v)
		case op < 40:
			if g, w := s.ReadWord(WordAddr(a)), ref.ReadWord(WordAddr(a)); g != w {
				t.Fatalf("step %d: ReadWord(%v) = %#x, reference %#x", step, WordAddr(a), g, w)
			}
		case op < 48:
			var l [LineSize]byte
			for i := range l {
				l[i] = byte(rng.Uint32())
			}
			s.WriteLine(a, l)
			ref.WriteLine(a, l)
		case op < 56:
			if g, w := s.ReadLine(a), ref.ReadLine(a); g != w {
				t.Fatalf("step %d: ReadLine(%v) differs from the reference", step, a)
			}
		case op < 68:
			src := make([]byte, rng.IntN(2*PageSize+1)) // empty writes too
			for i := range src {
				src[i] = byte(rng.Uint32())
			}
			s.Write(a, src)
			ref.Write(a, src)
		case op < 80:
			n := rng.IntN(2*PageSize + 1)
			g, w := make([]byte, n), make([]byte, n)
			s.Read(a, g)
			ref.Read(a, w)
			if !bytes.Equal(g, w) {
				t.Fatalf("step %d: Read(%v, %d) differs from the reference", step, a, n)
			}
		case op < 88:
			n := uint64(rng.IntN(2 * PageSize))
			s.ZeroRange(a, n)
			ref.ZeroRange(a, n)
		case op < 92:
			snap, refSnap = s.Clone(), ref.Clone()
		case op < 95:
			if snap != nil {
				// The clone must have stayed independent of the writes since.
				sameContents(t, fmt.Sprintf("step %d clone", step), snap, refSnap)
				s.CopyFrom(snap)
				ref.CopyFrom(refSnap)
			}
		case op < 96:
			s.Reset()
			ref.Reset()
		default:
			// An early-stopped walk visits the same ascending prefix.
			stop := rng.IntN(6) + 1
			var g, w []PAddr
			s.ForEachPageUntil(func(base PAddr, _ []byte) bool { g = append(g, base); return len(g) < stop })
			ref.ForEachPageUntil(func(base PAddr, _ []byte) bool { w = append(w, base); return len(w) < stop })
			if !slices.Equal(g, w) {
				t.Fatalf("step %d: walk prefix %v, reference %v", step, g, w)
			}
		}
		if !slices.Equal(units, refUnits) {
			t.Fatalf("step %d: observer saw %d units, reference %d, or in another order", step, len(units), len(refUnits))
		}
		units, refUnits = units[:0], refUnits[:0]
		if step%500 == 0 {
			sameContents(t, fmt.Sprintf("step %d", step), s, ref)
		}
	}
	sameContents(t, "end", s, ref)
	if countPages(&s.pages) == 0 {
		t.Fatal("stream ended with an empty store")
	}
}

// TestStoreAddressBound pins the directory's address bound: the last word
// below MaxAddr works like any other, and every access at or past it
// panics, naming the address, instead of landing on another page.
func TestStoreAddressBound(t *testing.T) {
	s := NewStore()
	top := MaxAddr - WordSize
	s.WriteWord(top, 0xAB)
	s.WriteWord(PageSize, 0xCD)
	if s.ReadWord(top) != 0xAB || s.ReadWord(PageSize) != 0xCD {
		t.Fatal("words below the bound lost")
	}
	mustPanic := func(a PAddr, what string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s at %v did not panic", what, a)
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, a.String()) {
				t.Fatalf("%s at %v panicked with %q, which does not name the address", what, a, msg)
			}
		}()
		f()
	}
	// Past the bound with the low bits of the pages written above: a
	// directory that masked the page number would alias them.
	for _, a := range []PAddr{MaxAddr, MaxAddr + PageSize, MaxAddr | top, 1<<63 + PageSize} {
		mustPanic(a, "WriteWord", func() { s.WriteWord(a, 0xEE) })
		mustPanic(a, "ReadWord", func() { s.ReadWord(a) })
		mustPanic(a, "ZeroRange", func() { s.ZeroRange(a, WordSize) })
	}
	span := make([]byte, 2*WordSize)
	binary.LittleEndian.PutUint64(span, 0xAB) // rewrites the top word unchanged
	mustPanic(MaxAddr, "Write across the bound", func() { s.Write(top, span) })
	if s.ReadWord(top) != 0xAB || s.ReadWord(PageSize) != 0xCD {
		t.Fatal("an access past the bound changed a page below it")
	}
	if countPages(&s.pages) != 2 {
		t.Fatalf("store holds %d pages, want 2", countPages(&s.pages))
	}
	// Every directory shape keeps the same bound.
	wide := NewDir[[8]int64](AddrBits - 2*dirBits)
	if wide.PageOrNew(MaxAddr-1) == nil {
		t.Fatal("widest directory page below the bound")
	}
	mustPanic(MaxAddr, "widest directory", func() { wide.Page(MaxAddr) })
	defer func() {
		if recover() == nil {
			t.Fatal("a directory whose root resolves no bit must be rejected")
		}
	}()
	NewDir[[8]int64](AddrBits - 2*dirBits + 1)
}

// TestStoreConcurrentReaders runs several goroutines reading one store —
// words, lines, spans across pages and unwritten regions, and page walks —
// so the race detector can check that reads never write.
func TestStoreConcurrentReaders(t *testing.T) {
	s := NewStore()
	oop := PageAddr(NewLayout(512<<30, 0.10).OOP.Base)
	for a := PAddr(0); a < 8*PageSize; a += WordSize {
		s.WriteWord(a, uint64(a))
		s.WriteWord(oop+a, ^uint64(a))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 3*PageSize)
			for i := 0; i < 2000; i++ {
				a := PAddr((i*37+g*911)%(8*PageSize)) &^ (WordSize - 1)
				if s.ReadWord(a) != uint64(a) || s.ReadWord(oop+a) != ^uint64(a) {
					errs <- fmt.Errorf("goroutine %d: wrong word at %v", g, a)
					return
				}
				if s.ReadWord(MaxAddr-PageSize+a%PageSize) != 0 {
					errs <- fmt.Errorf("goroutine %d: unwritten memory is not zero", g)
					return
				}
				s.ReadLine(oop + a)
				s.Read(a, buf)
				if i%200 == 0 {
					n := 0
					s.ForEachPage(func(PAddr, []byte) { n++ })
					if n != 16 {
						errs <- fmt.Errorf("goroutine %d: walked %d pages, want 16", g, n)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestStoreExistingPagesZeroAlloc locks zero allocations for reading and
// rewriting pages that already exist, with a write observer attached.
func TestStoreExistingPagesZeroAlloc(t *testing.T) {
	s := NewStore()
	oop := NewLayout(512<<30, 0.10).OOP.Base
	for _, base := range []PAddr{0, oop} {
		s.Write(base, make([]byte, 4*PageSize))
	}
	var units int
	s.SetWriteObserver(func(PAddr, [WordSize]byte) { units++ })
	buf := make([]byte, PageSize+LineSize)
	var line [LineSize]byte
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		for _, base := range []PAddr{0, oop} {
			a := base + PAddr(i*LineSize%(3*PageSize))
			s.WriteWord(a, uint64(i))
			_ = s.ReadWord(a)
			s.WriteLine(a, line)
			line = s.ReadLine(a + LineSize)
			s.Write(a+PageSize-WordSize, buf[:2*WordSize]) // crosses a page
			s.Read(a, buf)
			s.ZeroRange(a, LineSize)
		}
	})
	if allocs != 0 {
		t.Fatalf("reading and rewriting existing pages allocates %v/run, want 0", allocs)
	}
	if units == 0 {
		t.Fatal("observer never ran")
	}
}
