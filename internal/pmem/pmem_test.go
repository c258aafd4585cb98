package pmem

import (
	"testing"

	"hoop/internal/mem"
)

func TestArenaAllocBasics(t *testing.T) {
	d := NewDirect()
	a := NewArena(d, mem.Region{Base: 0, Size: 1 << 20})
	a.Init()
	p1 := a.Alloc(10) // rounds to 16
	p2 := a.Alloc(8)
	if p1 < mem.LineSize {
		t.Fatalf("allocation inside header: %v", p1)
	}
	if p2 != p1+16 {
		t.Fatalf("bump allocation: %v then %v", p1, p2)
	}
	if a.Used() == 0 {
		t.Fatal("Used")
	}
	p3 := a.AllocAligned(8, 64)
	if p3%64 != 0 {
		t.Fatalf("alignment: %v", p3)
	}
}

func TestArenaExhaustionPanics(t *testing.T) {
	d := NewDirect()
	a := NewArena(d, mem.Region{Base: 0, Size: 256})
	a.Init()
	defer func() {
		if recover() == nil {
			t.Fatal("expected exhaustion panic")
		}
	}()
	a.Alloc(1024)
}

func TestArenaCursorIsPersistent(t *testing.T) {
	d := NewDirect()
	a := NewArena(d, mem.Region{Base: 4096, Size: 1 << 20})
	a.Init()
	a.Alloc(100)
	// Reattach over the same memory: the cursor must persist.
	b := NewArena(d, mem.Region{Base: 4096, Size: 1 << 20})
	if b.Used() != a.Used() {
		t.Fatal("allocator cursor not persistent")
	}
	p := b.Alloc(8)
	if p < 4096+mem.LineSize+104 {
		t.Fatalf("reattached arena re-allocated used space: %v", p)
	}
}

func TestPartition(t *testing.T) {
	rs := Partition(mem.Region{Base: 0, Size: 1 << 20}, 4)
	if len(rs) != 4 {
		t.Fatal("count")
	}
	for i, r := range rs {
		if r.Size != (1<<20)/4 {
			t.Fatalf("region %d size %d", i, r.Size)
		}
		if r.Base%mem.LineSize != 0 {
			t.Fatalf("region %d misaligned", i)
		}
		if i > 0 && r.Base != rs[i-1].End() {
			t.Fatalf("region %d not contiguous", i)
		}
	}
}

func TestDirectRoundtrip(t *testing.T) {
	d := NewDirect()
	d.WriteWord(0x80, 42)
	if d.ReadWord(0x80) != 42 {
		t.Fatal("word roundtrip")
	}
	buf := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	d.Write(0x100, buf)
	got := make([]byte, 8)
	d.Read(0x100, got)
	for i := range buf {
		if got[i] != buf[i] {
			t.Fatal("byte roundtrip")
		}
	}
}

// Used reports allocated bytes (including the header).
func (a *Arena) Used() uint64 {
	return a.m.ReadWord(a.region.Base + offNext)
}
