package cache

import (
	"testing"

	"hoop/internal/mem"
	"hoop/internal/sim"
)

// Hierarchy.Lookup runs once per simulated load/store line touch; Fill
// once per LLC miss. Together with mem.Store they bound the replay rate of
// every figure in the evaluation. The read-hit probe is simbench's
// cache_lookup_l1_hit primitive.

func BenchmarkLookupWriteHit(b *testing.B) {
	h := New(DefaultConfig(1), sim.NewStats())
	h.Fill(0, 0, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Lookup(0, 0, true)
	}
}

func BenchmarkMissFillCycle(b *testing.B) {
	// Streaming misses through a full LLC: every Fill evicts a victim.
	h := New(DefaultConfig(1), sim.NewStats())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := mem.PAddr(uint64(i) * mem.LineSize)
		h.Lookup(0, a, true)
		h.Fill(0, a, true)
	}
}
