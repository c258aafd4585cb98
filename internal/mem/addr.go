// Package mem defines the physical address space shared by the whole
// simulator: address arithmetic at word and cache-line granularity, the
// home-region / OOP-region split, and a sparse functional byte store that
// holds the actual contents of the simulated NVM so that crash recovery can
// be verified for real, not just timed.
package mem

import "fmt"

// PAddr is a physical NVM address in bytes.
type PAddr uint64

// Geometry constants used throughout the reproduction. These mirror the
// paper: 64-byte cache lines and 8-byte words (HOOP tracks dirty data at
// word granularity, §III-C).
const (
	WordSize     = 8
	LineSize     = 64
	WordsPerLine = LineSize / WordSize
	LineShift    = 6
	WordShift    = 3
	LineOffMask  = LineSize - 1
	PageSize     = 4096
	PageShift    = 12
	PageOffMask  = PageSize - 1
)

// LineAddr returns the address of the cache line containing a.
func LineAddr(a PAddr) PAddr { return a &^ PAddr(LineOffMask) }

// LineIndex returns the line number (address >> 6) of the line containing a.
func LineIndex(a PAddr) uint64 { return uint64(a) >> LineShift }

// WordAddr returns the address of the 8-byte word containing a.
func WordAddr(a PAddr) PAddr { return a &^ PAddr(WordSize-1) }

// WordInLine returns the index (0..7) of the word containing a within its
// cache line.
func WordInLine(a PAddr) int { return int(a&LineOffMask) >> WordShift }

// IsWordAligned reports whether a is 8-byte aligned.
func IsWordAligned(a PAddr) bool { return a&(WordSize-1) == 0 }

// String renders the address in hex.
func (a PAddr) String() string { return fmt.Sprintf("0x%x", uint64(a)) }

// Region describes a contiguous physical address range [Base, Base+Size).
type Region struct {
	Base PAddr
	Size uint64
}

// Contains reports whether a falls inside the region.
func (r Region) Contains(a PAddr) bool {
	return a >= r.Base && uint64(a-r.Base) < r.Size
}

// End returns the first address past the region.
func (r Region) End() PAddr { return r.Base + PAddr(r.Size) }

// Lines returns the number of cache lines the region spans.
func (r Region) Lines() uint64 { return r.Size / LineSize }

// String renders the region as [base, end).
func (r Region) String() string {
	return fmt.Sprintf("[%v, %v)", r.Base, r.End())
}

// Layout is the physical partitioning of the simulated NVM DIMM: a home
// region holding application data at its "home addresses" and a dedicated
// OOP region (10% of capacity by default, §III-H) holding out-of-place
// updates. Baseline schemes reuse the OOP region's space for their logs or
// shadow copies so all schemes see the same device capacity.
type Layout struct {
	Home Region
	OOP  Region
}
