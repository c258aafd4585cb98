package trace

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"hoop/internal/engine"
	"hoop/internal/mem"
	"hoop/internal/sim"
	"hoop/internal/telemetry"
)

// refSink is the flat recording OpSink's chunks must reproduce: every op
// appended to one slice and every store's bytes to one payload buffer.
type refSink struct {
	ops     []Op
	payload []byte
}

func (r *refSink) Emit(e telemetry.Event) {
	op, ok, err := opFromEvent(e)
	if err != nil || !ok {
		return
	}
	if op.Kind == OpStore {
		op.Off = uint64(len(r.payload))
		r.payload = append(r.payload, e.Data...)
	}
	r.ops = append(r.ops, op)
}

// randomEvents draws a seeded two-thread event stream of n transactions:
// loads, scans and stores of 1 to maxWords words, each transaction
// committed or aborted. data backs the stores' bytes.
func randomEvents(seed uint64, n, maxWords int) []telemetry.Event {
	rng := sim.NewRand(seed)
	data := make([]byte, maxWords*mem.WordSize)
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	var evs []telemetry.Event
	for tx := 0; tx < n; tx++ {
		core := int16(tx % 2)
		evs = append(evs, telemetry.Event{Kind: telemetry.KindTxBegin, Core: core})
		for k := rng.Intn(6); k >= 0; k-- {
			addr := mem.PAddr(rng.Intn(1<<16)) * mem.WordSize
			words := 1 + rng.Intn(maxWords)
			switch rng.Intn(4) {
			case 0:
				evs = append(evs, telemetry.Event{Kind: telemetry.KindLoad, Core: core, Addr: addr, Bytes: int64(words * mem.WordSize)})
			case 1:
				evs = append(evs, telemetry.Event{Kind: telemetry.KindScan, Core: core, Bytes: int64(words), Aux: 3})
			default:
				off := rng.Intn(len(data)-words*mem.WordSize+1) &^ (mem.WordSize - 1)
				evs = append(evs, telemetry.Event{Kind: telemetry.KindStore, Core: core, Addr: addr, Data: data[off : off+words*mem.WordSize]})
			}
		}
		kind := telemetry.KindTxCommit
		if rng.Intn(5) == 0 {
			kind = telemetry.KindTxAbort
		}
		evs = append(evs, telemetry.Event{Kind: kind, Core: core})
	}
	return evs
}

// checkSinkMatches compares a sink's copies against the flat reference.
func checkSinkMatches(t *testing.T, what string, s *OpSink, ref *refSink) {
	t.Helper()
	if s.Len() != len(ref.ops) {
		t.Fatalf("%s: sink holds %d ops, reference %d", what, s.Len(), len(ref.ops))
	}
	for _, r := range [][2]int{{0, len(ref.ops)}, {len(ref.ops) / 3, len(ref.ops)}, {1, len(ref.ops) - 1}, {len(ref.ops) / 2, len(ref.ops) / 2}} {
		got := s.Ops(r[0], r[1])
		if len(got) != r[1]-r[0] || cap(got) != len(got) {
			t.Fatalf("%s: Ops(%d, %d) returned len %d cap %d", what, r[0], r[1], len(got), cap(got))
		}
		for i, op := range got {
			if op != ref.ops[r[0]+i] {
				t.Fatalf("%s: op %d is %+v, reference %+v", what, r[0]+i, op, ref.ops[r[0]+i])
			}
		}
	}
	payload := s.Payload()
	if !bytes.Equal(payload, ref.payload) || cap(payload) != len(payload) {
		t.Fatalf("%s: payload of %d bytes (cap %d) differs from the %d-byte reference", what, len(payload), cap(payload), len(ref.payload))
	}
	for _, from := range []int{0, len(ref.ops) / 2} {
		// Cut at a transaction boundary so both splits see closed streams.
		for from > 0 && ref.ops[from-1].Kind != OpTxEnd && ref.ops[from-1].Kind != OpTxAbort {
			from--
		}
		got, err := s.SplitTxs(from, 2)
		if err != nil {
			t.Fatalf("%s: splitFlat(%d): %v", what, from, err)
		}
		want, err := splitFlat(ref.ops[from:], 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: split into %d threads, want %d", what, len(got), len(want))
		}
		for th := range want {
			if len(got[th]) != len(want[th]) {
				t.Fatalf("%s: thread %d split into %d txs, want %d", what, th, len(got[th]), len(want[th]))
			}
			for i := range want[th] {
				for j := range want[th][i] {
					if got[th][i][j] != want[th][i][j] {
						t.Fatalf("%s: thread %d tx %d op %d differs", what, th, i, j)
					}
				}
			}
		}
		closes, err := s.Closes(from, 2)
		if err != nil || closes[0] != len(want[0]) || closes[1] != len(want[1]) {
			t.Fatalf("%s: Closes(%d) = %v, %v; want %d and %d", what, from, closes, err, len(want[0]), len(want[1]))
		}
	}
}

// TestOpSinkChunksMatchFlatRecording records seeded streams that span
// several chunks — one of many small ops that fills op chunks, one of
// large stores that fill payload chunks and straddle their ends — and
// holds every copy the sink makes to a flat append-only recording of the
// same events.
func TestOpSinkChunksMatchFlatRecording(t *testing.T) {
	for _, c := range []struct {
		seed          uint64
		txs, maxWords int
	}{{1, 10000, 4}, {2, 10000, 4}, {3, 300, 4096}, {4, 300, 4096}} {
		var s OpSink
		ref := &refSink{}
		for _, e := range randomEvents(c.seed, c.txs, c.maxWords) {
			s.Emit(e)
			ref.Emit(e)
		}
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		if len(s.full) == 0 && len(s.fullPay) == 0 {
			t.Fatalf("seed %d: the stream fit one op chunk and one payload chunk", c.seed)
		}
		checkSinkMatches(t, fmt.Sprintf("seed %d", c.seed), &s, ref)
	}
}

// TestOpSinkChunkBoundaries runs the default geometry across its edges:
// stores that end exactly at a payload chunk's end, a store larger than a
// chunk, and an op stream that fills an op chunk exactly and spills into
// the next. Every store must replay its own bytes from the copied
// payload, and offsets outside it must stay errors.
func TestOpSinkChunkBoundaries(t *testing.T) {
	var s OpSink
	ref := &refSink{}
	emit := func(e telemetry.Event) { s.Emit(e); ref.Emit(e) }
	value := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }

	const big = 64 << 10
	emit(telemetry.Event{Kind: telemetry.KindTxBegin})
	for i := 0; i < chunkBytes/big; i++ { // the last one ends at the chunk's end
		emit(telemetry.Event{Kind: telemetry.KindStore, Addr: 0, Data: value(big, byte(i+1))})
	}
	emit(telemetry.Event{Kind: telemetry.KindStore, Addr: 0, Data: value(8, 0xA0)})            // opens the next chunk
	emit(telemetry.Event{Kind: telemetry.KindStore, Addr: 0, Data: value(chunkBytes+8, 0xB0)}) // a chunk of its own
	emit(telemetry.Event{Kind: telemetry.KindStore, Addr: 0, Data: value(16, 0xC0)})
	emit(telemetry.Event{Kind: telemetry.KindLoad, Addr: 0, Bytes: 8}) // an even op count so far
	emit(telemetry.Event{Kind: telemetry.KindTxCommit})
	for s.Len() < chunkOps {
		emit(telemetry.Event{Kind: telemetry.KindTxBegin})
		emit(telemetry.Event{Kind: telemetry.KindTxCommit})
	}
	if s.Len() != chunkOps || len(s.full) != 0 {
		t.Fatalf("%d ops in %d full chunks, want exactly one full op chunk", s.Len(), len(s.full))
	}
	emit(telemetry.Event{Kind: telemetry.KindTxBegin})
	emit(telemetry.Event{Kind: telemetry.KindStore, Addr: 0, Data: value(8, 0xD0)})
	emit(telemetry.Event{Kind: telemetry.KindTxCommit})
	if len(s.full) != 1 || len(s.fullPay) != 3 {
		t.Fatalf("%d full op chunks and %d full payload chunks, want 1 and 3", len(s.full), len(s.fullPay))
	}
	checkSinkMatches(t, "default geometry", &s, ref)

	// Every recorded store replays from the copied payload; offsets
	// outside it stay errors, never slice panics.
	env := traceSystem(t, engine.SchemeNative).NewEnv(0)
	payload := s.Payload()
	env.TxBegin()
	for _, op := range s.Ops(0, s.Len()) {
		if op.Kind != OpStore {
			continue
		}
		if _, err := ApplyOp(env, op, payload, nil); err != nil {
			t.Fatalf("recorded store %+v: %v", op, err)
		}
	}
	for _, op := range []Op{
		{Kind: OpStore, Size: 8, Off: uint64(len(payload)) - 7},
		{Kind: OpStore, Size: 8, Off: uint64(len(payload))},
		{Kind: OpStore, Size: chunkBytes + 16, Off: uint64(len(payload)) - chunkBytes},
		{Kind: OpStore, Size: 8, Off: math.MaxUint64 - 3},
	} {
		if _, err := ApplyOp(env, op, payload, nil); err == nil || !strings.Contains(err.Error(), "payload") {
			t.Fatalf("store %+v over a %d-byte payload: got %v, want a payload error", op, len(payload), err)
		}
	}
	env.TxEnd()
}

// TestOpSinkRecordsWithoutRegrowth bounds the recording's memory churn.
// Recording a capture that spans several chunks and copying out its setup
// ops, per-thread transactions and payload stores each op and payload
// byte twice — once in a chunk, once in the column — so it may allocate
// at most twice what the column retains, plus one unfilled chunk of each
// kind and 5% for chunk tails and the chunk lists. Regrowing a flat
// recording with append would allocate several times the column.
func TestOpSinkRecordsWithoutRegrowth(t *testing.T) {
	evs := randomEvents(7, 10000, 64)
	setup := len(evs) / 10
	for setup > 0 && evs[setup-1].Kind != telemetry.KindTxCommit && evs[setup-1].Kind != telemetry.KindTxAbort {
		setup--
	}
	const opBytes, sliceBytes = 24, 24
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var s OpSink
	for _, e := range evs[:setup] {
		s.Emit(e)
	}
	setupOps := s.Len()
	for _, e := range evs[setup:] {
		s.Emit(e)
	}
	ops := s.Ops(0, setupOps)
	txs, err := s.SplitTxs(setupOps, 2)
	if err != nil {
		t.Fatal(err)
	}
	payload := s.Payload()
	runtime.ReadMemStats(&after)
	if len(s.full) < 2 || len(s.fullPay) < 2 {
		t.Fatalf("the capture filled %d op and %d payload chunks, want several of each", len(s.full), len(s.fullPay))
	}
	retained := uint64(len(ops)*opBytes + len(payload) + len(txs)*sliceBytes)
	for _, th := range txs {
		retained += uint64(len(th) * sliceBytes)
		for _, tx := range th {
			retained += uint64(len(tx) * opBytes)
		}
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	bound := 1.05 * float64(2*retained+chunkOps*opBytes+chunkBytes)
	t.Logf("recording allocated %d bytes for a column that retains %d (%.3fx); bound %.0f", alloc, retained, float64(alloc)/float64(retained), bound)
	if float64(alloc) > bound {
		t.Fatalf("recording allocated %d bytes for a column that retains %d, want at most %.0f", alloc, retained, bound)
	}
}
