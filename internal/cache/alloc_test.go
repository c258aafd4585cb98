package cache

import (
	"testing"

	"hoop/internal/mem"
	"hoop/internal/sim"
)

// TestLookupZeroAlloc locks the zero-allocation guarantee for the Lookup
// hot path: hits at every level, write hits (which consult the presence
// index), and misses must all run without touching the heap.
func TestLookupZeroAlloc(t *testing.T) {
	h := New(DefaultConfig(2), sim.NewStats())
	for i := 0; i < 16; i++ {
		h.Fill(0, mem.PAddr(i*mem.LineSize), i%2 == 0, false)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		a := mem.PAddr((i % 16) * mem.LineSize)
		h.Lookup(0, a, i%2 == 0, i%4 == 0)
		h.Lookup(0, mem.PAddr(1<<30)+a, false, false) // guaranteed miss
	})
	if allocs != 0 {
		t.Fatalf("Lookup allocates %v/run, want 0", allocs)
	}
}

// TestFillSteadyStateZeroAlloc locks zero allocations for Fill once the
// presence pages and the eviction scratch for the touched footprint exist.
func TestFillSteadyStateZeroAlloc(t *testing.T) {
	h := New(DefaultConfig(2), sim.NewStats())
	// Warm the footprint: enough lines in one LLC set to force evictions,
	// so the steady state exercises the back-invalidate + eviction path.
	sets := h.llc.sets
	for i := 0; i < 64; i++ {
		h.Fill(i%2, mem.PAddr(i*sets*mem.LineSize), true, true)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		h.Fill(i%2, mem.PAddr((i%64)*sets*mem.LineSize), true, i%2 == 0)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Fill allocates %v/run, want 0", allocs)
	}
}

// TestPresenceIndex exercises the paged presence index directly, including
// the page-boundary and never-touched cases.
func TestPresenceIndex(t *testing.T) {
	var p presenceIndex
	p.reset()
	if got := p.get(5); got != 0 {
		t.Fatalf("get on empty index = %#x", got)
	}
	p.or(5, 1<<3)
	p.or(5, 1<<7)
	if got := p.get(5); got != 1<<3|1<<7 {
		t.Fatalf("get(5) = %#x", got)
	}
	// Same slot in a different page must be independent.
	far := uint64(5 + presenceLines*3)
	if got := p.get(far); got != 0 {
		t.Fatalf("distinct page aliased: get(%d) = %#x", far, got)
	}
	p.set(far, 0xffffffff)
	if p.get(5) != 1<<3|1<<7 || p.get(far) != 0xffffffff {
		t.Fatal("cross-page interference")
	}
	p.set(5, 0)
	if p.get(5) != 0 {
		t.Fatal("set(5, 0) did not clear")
	}
	// set(idx, 0) on a never-touched page must not materialize one.
	pages := func() int {
		n := 0
		p.dir.Walk(func(mem.PAddr, *presencePage) bool { n++; return true })
		return n
	}
	before := pages()
	p.set(uint64(presenceLines*99), 0)
	if pages() != before {
		t.Fatal("set(_, 0) created a page")
	}
	p.reset()
	if p.get(far) != 0 {
		t.Fatal("reset left bits behind")
	}
}
