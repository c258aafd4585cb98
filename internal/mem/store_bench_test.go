package mem

import "testing"

// The store benchmarks cover the access shapes cmd/simbench does not gate:
// line-granule reads (cache fills) and the walk over materialized pages.
// simbench's store_* primitives are the one definition of word reads and
// writes, line writes and ZeroRange. benchRegion spans multiple
// pages so the page-lookup cost is exercised, while staying small enough
// to keep the working set in host cache — the numbers then isolate the
// store's own bookkeeping.
const benchRegion = 16 * PageSize

func BenchmarkStoreReadLineSeq(b *testing.B) {
	s := NewStore()
	for a := PAddr(0); a < benchRegion; a += WordSize {
		s.WriteWord(a, uint64(a))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var acc byte
	for i := 0; i < b.N; i++ {
		a := PAddr(uint64(i) * LineSize % benchRegion)
		l := s.ReadLine(a)
		acc += l[0]
	}
	benchSinkByte = acc
}

func BenchmarkStoreForEachPage(b *testing.B) {
	s := NewStore()
	for a := PAddr(0); a < 256*PageSize; a += PageSize {
		s.WriteWord(a, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		s.ForEachPage(func(base PAddr, data []byte) { n++ })
	}
	benchSinkInt = n
}

var (
	benchSinkByte byte
	benchSinkInt  int
)
