package mem

import "encoding/binary"

// Store is the functional contents of the simulated NVM: a sparse byte
// store over the simulated physical address space. Pages (4 KB) are
// allocated lazily on first write and found through a radix page
// directory (Dir), so simulating a huge DIMM costs memory proportional to
// the working set only, and a lookup is three array indexings with no
// hashing.
//
// Store carries no timing information — timing lives in internal/nvm. The
// split lets crash-consistency tests reason about "what survives a crash"
// (this store) separately from "how long did it take".
//
// Reads never write the store, so concurrent readers are safe; any write
// requires exclusive access.
type Store struct {
	pages Dir[[PageSize]byte]
	obs   WriteObserver
}

// A WriteObserver is notified after every mutation of the store, decomposed
// into aligned 8-byte persist units: for each unit overlapping the mutated
// range it receives the unit's address and post-image. Real PM hardware
// guarantees atomicity only at this granularity, so the observer sees
// exactly the sequence of atomically-persistable writes — the basis of the
// crash-point journal in internal/nvm.
//
// Reset and CopyFrom are wholesale state swaps used by test harnesses, not
// NVM writes; they are not observed and must not be called while an
// observer that models durability is attached.
type WriteObserver func(a PAddr, unit [WordSize]byte)

// SetWriteObserver installs fn (nil detaches). Only one observer is
// supported at a time; Clone does not carry the observer over.
func (s *Store) SetWriteObserver(fn WriteObserver) { s.obs = fn }

// notifyRange reports the aligned 8-byte units overlapping [a, a+n) to the
// observer, reading each unit's post-image directly from the page slice
// (units are 8-byte aligned and pages 4 KB aligned, so a unit never
// straddles a page).
func (s *Store) notifyRange(a PAddr, n uint64) {
	if s.obs == nil || n == 0 {
		return
	}
	end := uint64(a) + n
	for w := uint64(WordAddr(a)); w < end; {
		p := s.pages.Page(PAddr(w))
		pageEnd := (w &^ uint64(PageOffMask)) + PageSize
		for ; w < end && w < pageEnd; w += WordSize {
			var unit [WordSize]byte
			if p != nil {
				off := w & PageOffMask
				copy(unit[:], p[off:off+WordSize])
			}
			s.obs(PAddr(w), unit)
		}
	}
}

// NewStore returns an empty (all-zero) store.
func NewStore() *Store {
	return &Store{pages: NewDir[[PageSize]byte](PageShift)}
}

// Read copies len(dst) bytes starting at a into dst. Unwritten memory
// reads as zero.
func (s *Store) Read(a PAddr, dst []byte) {
	for len(dst) > 0 {
		off := int(a & PageOffMask)
		n := PageSize - off
		if n > len(dst) {
			n = len(dst)
		}
		if p := s.pages.Page(a); p != nil {
			copy(dst[:n], p[off:off+n])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		a += PAddr(n)
	}
}

// Write copies src into the store starting at a.
func (s *Store) Write(a PAddr, src []byte) {
	if off := int(a & PageOffMask); off+len(src) <= PageSize {
		// Single-page fast path: the vast majority of simulated writes are
		// word/line/slice granules that never cross a page.
		copy(s.pages.PageOrNew(a)[off:off+len(src)], src)
		s.notifyRange(a, uint64(len(src)))
		return
	}
	start, total := a, uint64(len(src))
	for len(src) > 0 {
		off := int(a & PageOffMask)
		n := PageSize - off
		if n > len(src) {
			n = len(src)
		}
		copy(s.pages.PageOrNew(a)[off:off+n], src[:n])
		src = src[n:]
		a += PAddr(n)
	}
	s.notifyRange(start, total)
}

// ReadWord reads the 8-byte little-endian word at a (must be word-aligned).
func (s *Store) ReadWord(a PAddr) uint64 {
	p := s.pages.Page(a)
	if p == nil {
		return 0
	}
	off := a & PageOffMask
	return binary.LittleEndian.Uint64(p[off : off+WordSize])
}

// WriteWord writes the 8-byte little-endian word v at a (must be
// word-aligned).
func (s *Store) WriteWord(a PAddr, v uint64) {
	p := s.pages.PageOrNew(a)
	off := a & PageOffMask
	binary.LittleEndian.PutUint64(p[off:off+WordSize], v)
	if s.obs != nil {
		var unit [WordSize]byte
		binary.LittleEndian.PutUint64(unit[:], v)
		s.obs(a, unit)
	}
}

// WriteLine writes a full 64-byte cache line at the line containing a.
func (s *Store) WriteLine(a PAddr, line [LineSize]byte) {
	la := LineAddr(a)
	p := s.pages.PageOrNew(la)
	off := la & PageOffMask
	copy(p[off:off+LineSize], line[:])
	if s.obs != nil {
		for w := 0; w < LineSize; w += WordSize {
			var unit [WordSize]byte
			copy(unit[:], line[w:w+WordSize])
			s.obs(la+PAddr(w), unit)
		}
	}
}

// Clone returns a deep copy of the store. Used by tests to snapshot
// durable state before injecting a crash.
func (s *Store) Clone() *Store {
	c := NewStore()
	c.copyPages(s)
	return c
}

// copyPages deep-copies every page of other into s.
func (s *Store) copyPages(other *Store) {
	other.pages.Walk(func(base PAddr, p *[PageSize]byte) bool {
		*s.pages.PageOrNew(base) = *p
		return true
	})
}

// ForEachPage calls fn for every materialized page with its base address
// and contents, in ascending address order. fn must not modify the store.
func (s *Store) ForEachPage(fn func(base PAddr, data []byte)) {
	s.ForEachPageUntil(func(base PAddr, data []byte) bool {
		fn(base, data)
		return true
	})
}

// ForEachPageUntil is ForEachPage with early termination: it stops as soon
// as fn returns false. Scans that only need a bounded prefix (recovery
// verification reporting the first few mismatches) avoid walking the rest
// of the working set.
func (s *Store) ForEachPageUntil(fn func(base PAddr, data []byte) bool) {
	s.pages.Walk(func(base PAddr, p *[PageSize]byte) bool {
		return fn(base, p[:])
	})
}

// Reset drops every page, returning the store to all-zeros, while keeping
// the store object (and every pointer to it) valid.
func (s *Store) Reset() { s.pages.Reset() }

// CopyFrom replaces this store's contents with a deep copy of other's.
func (s *Store) CopyFrom(other *Store) {
	s.Reset()
	s.copyPages(other)
}

// zeroPage is the shared all-zero source for ZeroRange; it is never
// written to.
var zeroPage [PageSize]byte

// ZeroRange clears [a, a+n). Used when a scheme recycles log/OOP space.
// Only materialized pages are touched (unwritten memory already reads as
// zero), and only those mutated subranges are reported to the observer.
func (s *Store) ZeroRange(a PAddr, n uint64) {
	for n > 0 {
		off := int(a & PageOffMask)
		c := uint64(PageSize - off)
		if c > n {
			c = n
		}
		if p := s.pages.Page(a); p != nil {
			copy(p[off:off+int(c)], zeroPage[:c])
			s.notifyRange(a, c)
		}
		a += PAddr(c)
		n -= c
	}
}
