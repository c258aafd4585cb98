package mem

import (
	"encoding/binary"
	"slices"
)

// Store is the functional contents of the simulated NVM: a sparse byte
// store over the 512 GB physical address space. Pages (4 KB) are allocated
// lazily on first write, so simulating a huge DIMM costs memory
// proportional to the working set only.
//
// Store carries no timing information — timing lives in internal/nvm. The
// split lets crash-consistency tests reason about "what survives a crash"
// (this store) separately from "how long did it take".
//
// The store remembers the last page it touched: simulated traffic is
// bursty at line/page granularity (slice streaming, log appends, GC
// migration), so sequential word and line accesses hit the cached page and
// skip the page-map hash.
type Store struct {
	pages map[uint64][]byte
	obs   WriteObserver

	lastIdx  uint64
	lastPage []byte // nil when the cache is empty
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
		p := s.page(PAddr(w), false)
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
	return &Store{pages: make(map[uint64][]byte)}
}

// page returns the page backing a, allocating it when create is true.
// Only the create (mutating) path refreshes the last-page cache: read
// paths must stay free of writes so concurrent readers remain safe, the
// same contract the bare map gave (reads may run concurrently, any write
// requires exclusive access).
func (s *Store) page(a PAddr, create bool) []byte {
	idx := uint64(a) >> PageShift
	if s.lastPage != nil && s.lastIdx == idx {
		return s.lastPage
	}
	p, ok := s.pages[idx]
	if !ok && create {
		p = make([]byte, PageSize)
		s.pages[idx] = p
	}
	if create {
		s.lastIdx, s.lastPage = idx, p
	}
	return p
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
		if p := s.page(a, false); p != nil {
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
		copy(s.page(a, true)[off:off+len(src)], src)
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
		copy(s.page(a, true)[off:off+n], src[:n])
		src = src[n:]
		a += PAddr(n)
	}
	s.notifyRange(start, total)
}

// ReadWord reads the 8-byte little-endian word at a (must be word-aligned).
func (s *Store) ReadWord(a PAddr) uint64 {
	p := s.page(a, false)
	if p == nil {
		return 0
	}
	off := a & PageOffMask
	return binary.LittleEndian.Uint64(p[off : off+WordSize])
}

// WriteWord writes the 8-byte little-endian word v at a (must be
// word-aligned).
func (s *Store) WriteWord(a PAddr, v uint64) {
	p := s.page(a, true)
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
	p := s.page(la, true)
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
	for idx, p := range s.pages {
		cp := make([]byte, PageSize)
		copy(cp, p)
		c.pages[idx] = cp
	}
	return c
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

// Reset drops every page, returning the store to all-zeros, while keeping
// the store object (and every pointer to it) valid.
func (s *Store) Reset() {
	s.pages = make(map[uint64][]byte)
	s.lastPage = nil
}

// CopyFrom replaces this store's contents with a deep copy of other's.
func (s *Store) CopyFrom(other *Store) {
	s.Reset()
	for idx, p := range other.pages {
		cp := make([]byte, PageSize)
		copy(cp, p)
		s.pages[idx] = cp
	}
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
		if p := s.page(a, false); p != nil {
			copy(p[off:off+int(c)], zeroPage[:c])
			s.notifyRange(a, c)
		}
		a += PAddr(c)
		n -= c
	}
}
