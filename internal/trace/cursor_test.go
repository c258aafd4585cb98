package trace

import (
	"testing"

	"hoop/internal/engine"
	"hoop/internal/mem"
)

// cursorBenchSystem is traceSystem without oracle tracking (the shadow
// map would show up in allocation counts), on the in-place Native scheme
// (out-of-place schemes keep faulting fresh mem.Store pages until their
// rings wrap, which reads as allocation even though the replay path
// itself allocates nothing).
func cursorBenchSystem(t *testing.T) *engine.System {
	t.Helper()
	cfg := engine.DefaultConfig(engine.SchemeNative)
	cfg.Cores, cfg.Threads, cfg.Cache.Cores = 1, 1, 1
	cfg.Ctrl.Agents = 4
	cfg.NVM.Capacity = 1 << 30
	sys, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestCursorReplayZeroAllocs locks the replay fast path: once a cursor's
// scratch buffer is warm, replaying recorded transactions allocates
// nothing. This is the per-op budget behind runMatrixReplay.
func TestCursorReplayZeroAllocs(t *testing.T) {
	src := cursorBenchSystem(t)
	var sink OpSink
	src.Subscribe(&sink, RecordMask)
	env := src.NewEnv(0)
	const txCount = 64
	for i := 0; i < txCount; i++ {
		base := mem.PAddr(uint64(i%16) * 4 * mem.WordSize)
		env.TxBegin()
		for w := 0; w < 4; w++ {
			env.WriteWord(base+mem.PAddr(w*mem.WordSize), uint64(i)*0x9E3779B97F4A7C15)
		}
		env.TxEnd()
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	txs, err := sink.SplitTxs(0, 1)
	if err != nil || len(txs[0]) != txCount {
		t.Fatalf("split: %v (%d txs)", err, len(txs[0]))
	}
	payload := sink.Payload()

	dst := cursorBenchSystem(t)
	denv := dst.NewEnv(0)
	var cur Cursor
	cur.Reset("alloc-test", 0, txs[0], payload)
	for cur.Done() < txCount { // warm pass: grows the scratch buffer
		cur.RunTx(denv)
	}
	allocs := testing.AllocsPerRun(2*txCount, func() {
		if cur.Done() == txCount {
			cur.Reset("alloc-test", 0, txs[0], payload)
		}
		cur.RunTx(denv)
	})
	if allocs != 0 {
		t.Fatalf("cursor replay allocates %.1f objects per transaction, want 0", allocs)
	}
}

// Done reports how many transactions the cursor has replayed.
func (c *Cursor) Done() int { return c.next }
