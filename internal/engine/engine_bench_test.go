package engine_test

import (
	"testing"

	"hoop/internal/engine"
	"hoop/internal/mem"
)

// benchSystem builds a small HOOP system, sized like simbench's engine
// primitives and driven directly through an Env so the engine's
// per-operation cost (clock advance, cache access, logical view) is
// measured without workload logic on top. The four-store transaction is
// simbench's engine_tx_write4 primitive.
func benchSystem(b *testing.B) *engine.System {
	b.Helper()
	cfg := engine.DefaultConfig(engine.SchemeHOOP)
	cfg.Cores, cfg.Threads, cfg.Cache.Cores = 1, 1, 1
	cfg.Ctrl.Agents = 3
	cfg.NVM.Capacity = 4 << 30
	cfg.OOPBytes = 128 << 20
	cfg.Hoop.CommitLogBytes = 8 << 20
	sys, err := engine.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkEngineReadWord measures one non-transactional load through the
// cache hierarchy and logical view.
func BenchmarkEngineReadWord(b *testing.B) {
	sys := benchSystem(b)
	env := sys.NewEnv(0)
	const span = 1 << 20
	env.TxBegin()
	for a := mem.PAddr(0); a < span; a += mem.WordSize {
		env.WriteWord(a, uint64(a))
	}
	env.TxEnd()
	b.ReportAllocs()
	b.ResetTimer()
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc += env.ReadWord(mem.PAddr(uint64(i) * mem.WordSize % span))
	}
	benchSink = acc
}

var benchSink uint64
