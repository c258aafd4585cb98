package trace

import (
	"math"
	"strings"
	"testing"

	"hoop/internal/engine"
	"hoop/internal/mem"
	"hoop/internal/sim"
	"hoop/internal/telemetry"
)

func traceSystem(t *testing.T, scheme string) *engine.System {
	t.Helper()
	cfg := engine.DefaultConfig(scheme)
	cfg.Cores, cfg.Threads, cfg.Cache.Cores = 2, 2, 2
	cfg.Ctrl.Agents = 4
	cfg.NVM.Capacity = 1 << 30
	cfg.OOPBytes = 64 << 20
	cfg.Hoop.CommitLogBytes = 1 << 20
	cfg.TrackOracle = true
	sys, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestRecordReplayEquivalence records a run on one system, replays the
// trace on a fresh system with a different scheme, and checks the durable
// outcome matches after crash+recovery.
func TestRecordReplayEquivalence(t *testing.T) {
	var sink OpSink
	src := traceSystem(t, engine.SchemeHOOP)
	src.Subscribe(&sink, RecordMask)
	envs := []*engine.Env{src.NewEnv(0), src.NewEnv(1)}
	r := sim.NewRand(13)
	for i := 0; i < 100; i++ {
		env := envs[i%2]
		env.TxBegin()
		for j := 0; j < 1+r.Intn(5); j++ {
			env.WriteWord(mem.PAddr(r.Intn(512))*8, r.Uint64())
		}
		env.ReadWord(mem.PAddr(r.Intn(512)) * 8)
		env.TxEnd()
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	if len(sink.Ops) == 0 {
		t.Fatal("nothing recorded")
	}

	// Replay onto Opt-Undo and verify its recovered state matches the
	// original system's committed oracle.
	dst := traceSystem(t, engine.SchemeUndo)
	txs, err := ReplayOps(dst, sink.Ops, sink.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if txs != 100 {
		t.Fatalf("replayed %d txs", txs)
	}
	dst.Crash()
	if _, err := dst.Recover(2); err != nil {
		t.Fatal(err)
	}
	if mm := dst.VerifyRecovered(3); len(mm) != 0 {
		t.Fatalf("replayed system diverged: %+v", mm)
	}
	// Cross-check against the source oracle: same committed bytes.
	src.Crash()
	if _, err := src.Recover(2); err != nil {
		t.Fatal(err)
	}
	srcHome := src.Durable()
	dstHome := dst.Durable()
	for a := mem.PAddr(0); a < 512*8; a += 8 {
		if srcHome.ReadWord(a) != dstHome.ReadWord(a) {
			t.Fatalf("source and replay diverge at %v", a)
		}
	}
}

func TestReplayThreadBoundsChecked(t *testing.T) {
	sys := traceSystem(t, engine.SchemeNative)
	if _, err := ReplayOps(sys, []Op{{Kind: OpTxBegin, Thread: 9}}, nil); err == nil {
		t.Fatal("out-of-range thread must fail")
	}
}

// TestOpSinkRejectsUnrepresentableCore: a core outside Op's uint16 thread
// field fails the capture instead of wrapping, and the error is sticky —
// later events are dropped rather than recorded. telemetry.Event.Core is
// an int16, so negative cores are the unrepresentable ones and the
// largest core carries through unchanged.
func TestOpSinkRejectsUnrepresentableCore(t *testing.T) {
	for _, core := range []int16{-1, math.MinInt16} {
		var sink OpSink
		sink.Emit(telemetry.Event{Kind: telemetry.KindTxBegin, Core: math.MaxInt16})
		sink.Emit(telemetry.Event{Kind: telemetry.KindTxBegin, Core: core})
		if err := sink.Err(); err == nil || !strings.Contains(err.Error(), "thread field") {
			t.Fatalf("core %d must fail the capture, got %v", core, err)
		}
		sink.Emit(telemetry.Event{Kind: telemetry.KindTxCommit, Core: 0})
		if len(sink.Ops) != 1 || sink.Ops[0].Thread != math.MaxInt16 {
			t.Fatalf("core %d: recorded %+v, want only the op before the error", core, sink.Ops)
		}
	}
}

// TestRecordReplayAbortEquivalence records an abort-carrying run and
// replays it on a different scheme: aborted transactions must stay
// invisible and committed state must match word for word.
func TestRecordReplayAbortEquivalence(t *testing.T) {
	abortSys := func(scheme string) *engine.System {
		cfg := engine.DefaultConfig(scheme)
		cfg.Cores, cfg.Threads, cfg.Cache.Cores = 2, 2, 2
		cfg.Ctrl.Agents = 4
		cfg.NVM.Capacity = 1 << 30
		cfg.OOPBytes = 64 << 20
		cfg.Hoop.CommitLogBytes = 1 << 20
		cfg.Abortable = true
		sys, err := engine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	var sink OpSink
	src := abortSys(engine.SchemeHOOP)
	src.Subscribe(&sink, RecordMask)
	envs := []*engine.Env{src.NewEnv(0), src.NewEnv(1)}
	r := sim.NewRand(29)
	commits, aborts := 0, 0
	for i := 0; i < 120; i++ {
		env := envs[i%2]
		env.TxBegin()
		for j := 0; j < 1+r.Intn(4); j++ {
			env.WriteWord(mem.PAddr(r.Intn(256))*8, r.Uint64())
		}
		if i%5 == 3 {
			env.TxAbort()
			aborts++
		} else {
			env.TxEnd()
			commits++
		}
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}

	dst := abortSys(engine.SchemeUndo)
	txs, err := ReplayOps(dst, sink.Ops, sink.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if txs != int64(commits) {
		t.Fatalf("replayed %d committed txs, want %d", txs, commits)
	}
	snap := dst.Snapshot()
	if snap.Aborts != int64(aborts) {
		t.Fatalf("replay saw %d aborts, want %d", snap.Aborts, aborts)
	}
	src.Crash()
	if _, err := src.Recover(2); err != nil {
		t.Fatal(err)
	}
	dst.Crash()
	if _, err := dst.Recover(2); err != nil {
		t.Fatal(err)
	}
	srcHome, dstHome := src.Durable(), dst.Durable()
	for a := mem.PAddr(0); a < 256*8; a += 8 {
		if srcHome.ReadWord(a) != dstHome.ReadWord(a) {
			t.Fatalf("source and replay diverge at %v", a)
		}
	}
}

func TestSplitTxs(t *testing.T) {
	ops := []Op{
		{Kind: OpLoad, Thread: 1, Addr: 0, Size: 8}, // pre-tx op attaches forward
		{Kind: OpTxBegin, Thread: 0},
		{Kind: OpTxBegin, Thread: 1},
		{Kind: OpStore, Thread: 0, Addr: 8, Size: 8, Off: 16},
		{Kind: OpTxAbort, Thread: 1},
		{Kind: OpTxEnd, Thread: 0},
		{Kind: OpTxBegin, Thread: 0},
		{Kind: OpTxEnd, Thread: 0},
	}
	txs, err := SplitTxs(ops, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(txs[0]) != 2 || len(txs[1]) != 1 {
		t.Fatalf("segment counts: t0=%d t1=%d", len(txs[0]), len(txs[1]))
	}
	if len(txs[1][0]) != 3 || txs[1][0][0].Kind != OpLoad || txs[1][0][2].Kind != OpTxAbort {
		t.Fatalf("thread 1 segment wrong: %v", txs[1][0])
	}
	if txs[0][0][1] != ops[3] {
		t.Fatalf("store split as %+v, want %+v (payload offset kept)", txs[0][0][1], ops[3])
	}
	if _, err := SplitTxs([]Op{{Kind: OpTxBegin, Thread: 5}}, 2); err == nil {
		t.Fatal("out-of-range thread must fail")
	}
	if _, err := SplitTxs([]Op{{Kind: OpTxBegin, Thread: 0}}, 1); err == nil {
		t.Fatal("trailing open transaction must fail")
	}
}

// TestApplyOpPayloadBounds pins the store bounds check: a store whose
// bytes end exactly at the end of the payload replays, and one reaching a
// byte past it, or starting past it, is an error rather than a slice
// panic.
func TestApplyOpPayloadBounds(t *testing.T) {
	sys := traceSystem(t, engine.SchemeNative)
	env := sys.NewEnv(0)
	payload := make([]byte, 24)
	for i := range payload {
		payload[i] = byte(i + 1)
	}
	env.TxBegin()
	if _, err := ApplyOp(env, Op{Kind: OpStore, Addr: 64, Size: 16, Off: 8}, payload, nil); err != nil {
		t.Fatalf("store ending at the payload's end: %v", err)
	}
	if got, want := env.ReadWord(64), uint64(0x100f0e0d0c0b0a09); got != want {
		t.Fatalf("stored word %#x, want %#x", got, want)
	}
	for _, op := range []Op{
		{Kind: OpStore, Addr: 64, Size: 16, Off: 9},
		{Kind: OpStore, Addr: 64, Size: 17, Off: 8},
		{Kind: OpStore, Addr: 64, Size: 0, Off: 25},
		{Kind: OpStore, Addr: 64, Size: 8, Off: math.MaxUint64 - 3},
	} {
		if _, err := ApplyOp(env, op, payload, nil); err == nil || !strings.Contains(err.Error(), "payload") {
			t.Fatalf("store %+v over a %d-byte payload: got %v, want a payload error", op, len(payload), err)
		}
	}
	env.TxEnd()
}
