// Package pmem is the thin persistent-memory programming layer the
// workloads build on: a Memory interface abstracting simulated loads and
// stores, and a persistent bump allocator whose cursor itself lives in NVM
// (so allocator metadata updates generate the same transactional traffic a
// real PM allocator would).
package pmem

import (
	"fmt"

	"hoop/internal/mem"
)

// Memory is the word-granular load/store interface (implemented by
// engine.Env). All addresses and sizes must be 8-byte aligned.
type Memory interface {
	Read(addr mem.PAddr, buf []byte)
	Write(addr mem.PAddr, data []byte)
	ReadWord(addr mem.PAddr) uint64
	WriteWord(addr mem.PAddr, v uint64)
}

// Arena is a persistent region with a bump allocator. The allocation
// cursor is stored in the region's first cache line, so Alloc performs one
// load and one store through the simulated hierarchy — allocator metadata
// churn is part of the workload, exactly the fine-grained metadata updates
// whose coalescing Table IV measures.
type Arena struct {
	m      Memory
	region mem.Region
}

const (
	arenaMagic   = 0xA11C_0C8E_D00D_F00D
	arenaHdrSize = mem.LineSize
	offMagic     = 0
	offNext      = 8
)

// NewArena wraps region; call Init (inside a transaction) before first use.
func NewArena(m Memory, region mem.Region) *Arena {
	if region.Size < arenaHdrSize+mem.LineSize {
		panic(fmt.Sprintf("pmem: arena region %v too small", region))
	}
	return &Arena{m: m, region: region}
}

// Init formats the arena header. Must run inside a transaction.
func (a *Arena) Init() {
	a.m.WriteWord(a.region.Base+offMagic, arenaMagic)
	a.m.WriteWord(a.region.Base+offNext, arenaHdrSize)
}

// Alloc returns n bytes (rounded up to a word) of zeroed persistent
// memory. Must run inside a transaction (it updates the cursor).
func (a *Arena) Alloc(n int) mem.PAddr {
	return a.AllocAligned(n, mem.WordSize)
}

// AllocAligned is Alloc with a stronger alignment (e.g. cache-line-aligned
// nodes). align must be a power of two.
func (a *Arena) AllocAligned(n, align int) mem.PAddr {
	if n <= 0 {
		panic("pmem: Alloc of non-positive size")
	}
	if align&(align-1) != 0 || align < mem.WordSize {
		panic("pmem: alignment must be a power of two >= 8")
	}
	size := uint64((n + mem.WordSize - 1) &^ (mem.WordSize - 1))
	next := a.m.ReadWord(a.region.Base + offNext)
	next = (next + uint64(align-1)) &^ uint64(align-1)
	if next+size > a.region.Size {
		panic(fmt.Sprintf("pmem: arena exhausted (%d of %d bytes used)", next, a.region.Size))
	}
	a.m.WriteWord(a.region.Base+offNext, next+size)
	return a.region.Base + mem.PAddr(next)
}

// Null is the persistent null pointer.
const Null mem.PAddr = 0

// Direct is a Memory backed by a raw Store with no timing simulation. It
// lets data-structure code be tested (and fuzzed) at full speed, decoupled
// from the engine.
type Direct struct {
	St *mem.Store
}

// NewDirect wraps a fresh store.
func NewDirect() *Direct { return &Direct{St: mem.NewStore()} }

// Read implements Memory.
func (d *Direct) Read(addr mem.PAddr, buf []byte) { d.St.Read(addr, buf) }

// Write implements Memory.
func (d *Direct) Write(addr mem.PAddr, data []byte) { d.St.Write(addr, data) }

// ReadWord implements Memory.
func (d *Direct) ReadWord(addr mem.PAddr) uint64 { return d.St.ReadWord(addr) }

// WriteWord implements Memory.
func (d *Direct) WriteWord(addr mem.PAddr, v uint64) { d.St.WriteWord(addr, v) }

// Partition splits a parent region into count equal, line-aligned
// sub-regions — one arena per workload thread, mirroring the paper's
// per-thread tables.
func Partition(parent mem.Region, count int) []mem.Region {
	if count <= 0 {
		panic("pmem: Partition count must be positive")
	}
	size := (parent.Size / uint64(count)) &^ uint64(mem.LineSize-1)
	out := make([]mem.Region, count)
	for i := range out {
		out[i] = mem.Region{Base: parent.Base + mem.PAddr(uint64(i)*size), Size: size}
	}
	return out
}
