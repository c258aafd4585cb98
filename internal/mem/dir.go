package mem

import "fmt"

// AddrBits bounds the simulated physical address space: every address is
// below 1<<AddrBits (256 TB, 512× the paper's 512 GB DIMM). engine.New
// rejects a larger capacity, so every address a layout can produce fits
// every page directory.
const (
	AddrBits = 48
	MaxAddr  = PAddr(1) << AddrBits
)

// Directory geometry: below the root, a mid node and a leaf each resolve
// dirBits of the page number.
const (
	dirBits = 9
	dirFan  = 1 << dirBits
	dirMask = dirFan - 1
)

type dirLeaf[P any] [dirFan]*P

type dirMid[P any] [dirFan]*dirLeaf[P]

// Dir is a radix page directory: a sparse table from page number to a
// page of type P, where a page covers 1<<shift bytes of address space. A
// lookup is three array indexings (root, mid node, leaf) with no hashing.
// Mid nodes, leaves and pages are allocated on first write, and the root
// grows only as far as the highest page written, so a directory costs
// memory in proportion to the address ranges it touches.
//
// Lookups never write, so any number of goroutines may read a Dir
// concurrently; a write needs exclusive access. Addresses at or past
// MaxAddr panic on every path rather than alias another page.
type Dir[P any] struct {
	root  []*dirMid[P]
	shift uint
}

// NewDir returns an empty directory whose pages cover 1<<shift bytes.
func NewDir[P any](shift uint) Dir[P] {
	if shift > AddrBits-2*dirBits {
		// The root must resolve at least one bit, or an address past
		// the bound would index a valid root slot.
		panic("mem: directory page too large for the address space")
	}
	return Dir[P]{shift: shift}
}

// Page returns the page covering a, or nil when none was created.
func (d *Dir[P]) Page(a PAddr) *P {
	k := uint64(a) >> d.shift
	i := k >> (2 * dirBits)
	if i >= uint64(len(d.root)) {
		checkAddr(a)
		return nil
	}
	m := d.root[i]
	if m == nil {
		return nil
	}
	l := m[k>>dirBits&dirMask]
	if l == nil {
		return nil
	}
	return l[k&dirMask]
}

// PageOrNew returns the page covering a, creating it (zeroed) and any
// missing interior nodes first.
func (d *Dir[P]) PageOrNew(a PAddr) *P {
	if p := d.Page(a); p != nil {
		return p
	}
	k := uint64(a) >> d.shift
	i := k >> (2 * dirBits)
	if i >= uint64(len(d.root)) {
		d.root = append(d.root, make([]*dirMid[P], i+1-uint64(len(d.root)))...)
	}
	m := d.root[i]
	if m == nil {
		m = new(dirMid[P])
		d.root[i] = m
	}
	l := m[k>>dirBits&dirMask]
	if l == nil {
		l = new(dirLeaf[P])
		m[k>>dirBits&dirMask] = l
	}
	p := new(P)
	l[k&dirMask] = p
	return p
}

// checkAddr panics when a lies past the directory bound.
func checkAddr(a PAddr) {
	if a >= MaxAddr {
		panic(fmt.Sprintf("mem: address %v is past the %d-bit address space", a, AddrBits))
	}
}

// Walk calls fn for every page with its base address, in ascending
// address order, and stops as soon as fn returns false.
func (d *Dir[P]) Walk(fn func(base PAddr, p *P) bool) {
	for i, m := range d.root {
		if m == nil {
			continue
		}
		for j, l := range m {
			if l == nil {
				continue
			}
			for k, p := range l {
				if p == nil {
					continue
				}
				key := uint64(i)<<(2*dirBits) | uint64(j)<<dirBits | uint64(k)
				if !fn(PAddr(key<<d.shift), p) {
					return
				}
			}
		}
	}
}

// Reset drops every page.
func (d *Dir[P]) Reset() { d.root = nil }
