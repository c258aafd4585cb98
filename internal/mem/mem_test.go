package mem

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestAddrArithmetic(t *testing.T) {
	a := PAddr(0x12345)
	if LineAddr(a) != 0x12340 {
		t.Fatalf("LineAddr = %v", LineAddr(a))
	}
	if LineIndex(a) != 0x12345>>6 {
		t.Fatalf("LineIndex = %d", LineIndex(a))
	}
	if WordAddr(PAddr(0x17)) != 0x10 {
		t.Fatal("WordAddr")
	}
	if WordInLine(PAddr(0x38)) != 7 {
		t.Fatalf("WordInLine = %d", WordInLine(PAddr(0x38)))
	}
	if PageAddr(PAddr(0x1FFF)) != 0x1000 {
		t.Fatal("PageAddr")
	}
	if !IsLineAligned(0x40) || IsLineAligned(0x41) {
		t.Fatal("IsLineAligned")
	}
	if !IsWordAligned(0x8) || IsWordAligned(0x9) {
		t.Fatal("IsWordAligned")
	}
}

func TestRegion(t *testing.T) {
	r := Region{Base: 100 * LineSize, Size: 10 * LineSize}
	if !r.Contains(r.Base) || !r.Contains(r.End()-1) || r.Contains(r.End()) || r.Contains(r.Base-1) {
		t.Fatal("Contains boundaries wrong")
	}
	if r.Lines() != 10 {
		t.Fatalf("Lines = %d", r.Lines())
	}
}

func TestLayoutSplit(t *testing.T) {
	l := NewLayout(512<<30, 0.10)
	if l.Home.Base != 0 {
		t.Fatal("home must start at zero")
	}
	if l.Home.Size+l.OOP.Size > 512<<30 {
		t.Fatal("layout exceeds capacity")
	}
	if l.OOP.Base != PAddr(l.Home.Size) {
		t.Fatal("OOP region must follow home region")
	}
	frac := float64(l.OOP.Size) / float64(512<<30)
	if frac < 0.099 || frac > 0.101 {
		t.Fatalf("OOP fraction = %f", frac)
	}
}

func TestStoreReadWrite(t *testing.T) {
	s := NewStore()
	// Unwritten memory reads as zero.
	buf := make([]byte, 100)
	s.Read(5000, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("fresh store must read zero")
		}
	}
	// Cross-page write/read roundtrip.
	data := make([]byte, 3*PageSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	base := PAddr(PageSize - 100)
	s.Write(base, data)
	got := make([]byte, len(data))
	s.Read(base, got)
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page roundtrip mismatch")
	}
}

func TestStoreWords(t *testing.T) {
	s := NewStore()
	s.WriteWord(0x1000, 0xDEADBEEFCAFEF00D)
	if s.ReadWord(0x1000) != 0xDEADBEEFCAFEF00D {
		t.Fatal("word roundtrip")
	}
	var line [LineSize]byte
	line[0] = 0xAA
	line[63] = 0xBB
	s.WriteLine(0x2001, line) // aligned down to 0x2000
	got := s.ReadLine(0x2005)
	if got != line {
		t.Fatal("line roundtrip")
	}
}

func TestStoreCloneIsDeep(t *testing.T) {
	s := NewStore()
	s.WriteWord(0x100, 1)
	c := s.Clone()
	s.WriteWord(0x100, 2)
	if c.ReadWord(0x100) != 1 {
		t.Fatal("clone must be independent")
	}
}

func TestStoreResetAndCopyFrom(t *testing.T) {
	s := NewStore()
	s.WriteWord(0x100, 42)
	s.Reset()
	if s.ReadWord(0x100) != 0 {
		t.Fatal("Reset must clear contents")
	}
	other := NewStore()
	other.WriteWord(0x200, 7)
	s.CopyFrom(other)
	if s.ReadWord(0x200) != 7 {
		t.Fatal("CopyFrom missed data")
	}
	other.WriteWord(0x200, 8)
	if s.ReadWord(0x200) != 7 {
		t.Fatal("CopyFrom must deep-copy")
	}
}

func TestStoreZeroRange(t *testing.T) {
	s := NewStore()
	for i := PAddr(0); i < 3*PageSize; i += WordSize {
		s.WriteWord(i, 0xFF)
	}
	s.ZeroRange(100*WordSize, PageSize)
	if s.ReadWord(99*WordSize) != 0xFF {
		t.Fatal("ZeroRange clobbered preceding data")
	}
	if s.ReadWord(100*WordSize) != 0 {
		t.Fatal("ZeroRange missed start")
	}
	end := PAddr(100*WordSize) + PageSize
	if s.ReadWord(end-WordSize) != 0 {
		t.Fatal("ZeroRange missed end")
	}
	if s.ReadWord(end) != 0xFF {
		t.Fatal("ZeroRange clobbered following data")
	}
}

func TestStoreForEachPageOrdered(t *testing.T) {
	s := NewStore()
	for _, p := range []PAddr{7 * PageSize, 2 * PageSize, 100 * PageSize, 3 * PageSize} {
		s.WriteWord(p, 1)
	}
	var got []PAddr
	s.ForEachPage(func(base PAddr, _ []byte) { got = append(got, base) })
	if len(got) != 4 {
		t.Fatalf("visited %d pages", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatal("pages must visit in ascending order")
		}
	}
}

// TestStoreForEachPageUntilStops verifies the bool-returning walk actually
// stops visiting pages once the callback returns false (callers like the
// engine's VerifyRecovered rely on this to bail out early).
func TestStoreForEachPageUntilStops(t *testing.T) {
	s := NewStore()
	for i := 0; i < 16; i++ {
		s.WriteWord(PAddr(i)*PageSize, uint64(i)+1)
	}
	visits := 0
	s.ForEachPageUntil(func(base PAddr, _ []byte) bool {
		visits++
		return visits < 3
	})
	if visits != 3 {
		t.Fatalf("visited %d pages after returning false, want 3", visits)
	}
	// Lowest-addressed pages come first, so an early stop sees a prefix.
	var bases []PAddr
	s.ForEachPageUntil(func(base PAddr, _ []byte) bool {
		bases = append(bases, base)
		return len(bases) < 2
	})
	if len(bases) != 2 || bases[0] != 0 || bases[1] != PageSize {
		t.Fatalf("early-stopped walk saw %v, want first two pages", bases)
	}
}

// Property: any write then read of the same range returns the same bytes.
func TestStoreQuickRoundtrip(t *testing.T) {
	f := func(addr uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 10000 {
			data = data[:10000]
		}
		s := NewStore()
		a := PAddr(addr)
		s.Write(a, data)
		got := make([]byte, len(data))
		s.Read(a, got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// PageAddr returns the address of the 4 KB page containing a.
func PageAddr(a PAddr) PAddr { return a &^ PAddr(PageOffMask) }

// IsLineAligned reports whether a is 64-byte aligned.
func IsLineAligned(a PAddr) bool { return a&LineOffMask == 0 }

// NewLayout splits capacity into a home region and an OOP region of
// oopFraction (e.g. 0.10). The OOP region sits above the home region.
func NewLayout(capacity uint64, oopFraction float64) Layout {
	if oopFraction <= 0 || oopFraction >= 1 {
		panic("mem: oopFraction must be in (0,1)")
	}
	oopSize := uint64(float64(capacity) * oopFraction)
	// Align both regions to cache lines.
	oopSize &^= uint64(LineOffMask)
	homeSize := (capacity - oopSize) &^ uint64(LineOffMask)
	return Layout{
		Home: Region{Base: 0, Size: homeSize},
		OOP:  Region{Base: PAddr(homeSize), Size: oopSize},
	}
}

// ReadLine reads the 64-byte cache line containing a.
func (s *Store) ReadLine(a PAddr) [LineSize]byte {
	var line [LineSize]byte
	la := LineAddr(a)
	if p := s.pages.Page(la); p != nil {
		off := la & PageOffMask
		copy(line[:], p[off:off+LineSize])
	}
	return line
}
