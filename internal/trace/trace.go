// Package trace captures and replays memory-operation traces. A trace
// holds the exact operation stream a workload issued — transaction
// boundaries, loads, stores with their data — so the run can be replayed
// bit-identically against any persistence scheme. This mirrors how the
// paper's platform consumed Pin-captured application traces. Captures
// live in memory: OpSink records them and splits them per thread
// (OpSink.SplitTxs), and ReplayOps and Cursor reissue them.
package trace

import (
	"fmt"

	"hoop/internal/mem"
	"hoop/internal/telemetry"
)

// Op kinds.
const (
	OpTxBegin byte = iota + 1
	OpTxEnd
	OpLoad
	OpStore
	OpTxAbort
	OpScan
)

// Op is one traced operation. Thread identifies the issuing workload
// thread. A store's data is the Size bytes at Off in the capture's payload
// buffer (OpSink.Payload); Off is zero for every other kind. Scan ops
// reuse the fields for accounting: Size carries the item count and Addr
// the total value bytes the scan read.
//
// Op holds no pointers and packs into 24 bytes, so a capture's op stream
// is one flat allocation the garbage collector never scans.
type Op struct {
	Kind   byte
	Thread uint16
	Size   uint32
	Addr   mem.PAddr
	Off    uint64
}

// RecordMask is the telemetry subscription an OpSink needs: the per-op
// kinds it converts into Ops. Subscribe the sink with
// sys.Subscribe(sink, trace.RecordMask).
var RecordMask = telemetry.MaskOf(telemetry.KindTxBegin, telemetry.KindTxCommit,
	telemetry.KindTxAbort, telemetry.KindLoad, telemetry.KindStore, telemetry.KindScan)

// opFromEvent converts one per-op telemetry event into a trace Op.
// ok is false for kinds outside RecordMask; err is set when the event
// cannot be represented (core outside the uint16 thread field). A store's
// Size is its data length; the caller places the data and sets Off.
func opFromEvent(e telemetry.Event) (op Op, ok bool, err error) {
	if e.Core < 0 || int64(e.Core) > 0xFFFF {
		// Wrapping would route ops to the wrong replay env, so fail the
		// capture instead.
		return Op{}, false, fmt.Errorf("trace: core %d does not fit Op's uint16 thread field", e.Core)
	}
	th := uint16(e.Core)
	switch e.Kind {
	case telemetry.KindTxBegin:
		return Op{Kind: OpTxBegin, Thread: th}, true, nil
	case telemetry.KindTxCommit:
		return Op{Kind: OpTxEnd, Thread: th}, true, nil
	case telemetry.KindTxAbort:
		return Op{Kind: OpTxAbort, Thread: th}, true, nil
	case telemetry.KindLoad:
		return Op{Kind: OpLoad, Thread: th, Addr: e.Addr, Size: uint32(e.Bytes)}, true, nil
	case telemetry.KindStore:
		return Op{Kind: OpStore, Thread: th, Addr: e.Addr, Size: uint32(len(e.Data))}, true, nil
	case telemetry.KindScan:
		// Size is the item count (Aux), Addr the value bytes the scan
		// read (Bytes).
		return Op{Kind: OpScan, Thread: th, Addr: mem.PAddr(e.Bytes), Size: uint32(e.Aux)}, true, nil
	}
	return Op{}, false, nil
}

// Chunk geometry of an OpSink recording: 16 Ki ops (384 KB) per op chunk
// and 1 MB per payload chunk.
const (
	chunkOps   = 16 << 10
	chunkBytes = 1 << 20
)

// OpSink is a telemetry.Sink that collects a workload's operations in
// memory while they execute: subscribe it to a system's hub with
// RecordMask and run the workload. The engine executes on one goroutine
// and emits exactly one event per operation in issue order, so the
// recorded ops are the operation stream. Store data is copied into the
// sink's payload (events only alias the written bytes during Emit), and
// each store Op's Off is where its bytes sit in the payload that Payload
// returns.
//
// Recording never regrows a buffer: ops and store data land in fixed-size
// chunks. A store's bytes never span two payload chunks; one that does not
// fit the current chunk opens the next, and one larger than a chunk gets a
// chunk of its own. Ops, Payload and SplitTxs copy what they return out of
// the chunks into exactly sized slices, so the chunks die with the sink.
//
// An event Op cannot represent makes the sink's error sticky: further
// events are dropped and the error surfaces from Err. Emit cannot return
// an error — it is a telemetry.Sink — and panicking from inside the
// engine's emit path would kill the whole worker, so sticky-and-surface
// is the contract.
type OpSink struct {
	// full and fullPay are the filled chunks in recording order; cur and
	// curPay are the chunks being filled.
	full    [][]Op
	fullPay [][]byte
	cur     []Op
	curPay  []byte
	n       int    // ops recorded
	npay    uint64 // payload bytes recorded
	err     error
}

// Emit implements telemetry.Sink.
func (s *OpSink) Emit(e telemetry.Event) {
	if s.err != nil {
		return
	}
	op, ok, err := opFromEvent(e)
	if err != nil {
		s.err = err
		return
	}
	if !ok {
		return
	}
	if op.Kind == OpStore {
		op.Off = s.npay
		s.recordData(e.Data)
	}
	if len(s.cur) == cap(s.cur) {
		if s.cur != nil {
			s.full = append(s.full, s.cur)
		}
		s.cur = make([]Op, 0, chunkOps)
	}
	s.cur = append(s.cur, op)
	s.n++
}

// recordData appends one store's bytes to the payload, keeping them in
// one chunk.
func (s *OpSink) recordData(data []byte) {
	if len(data) > cap(s.curPay)-len(s.curPay) {
		if len(s.curPay) > 0 {
			s.fullPay = append(s.fullPay, s.curPay)
		}
		s.curPay = nil
		if len(data) > chunkBytes {
			s.fullPay = append(s.fullPay, append([]byte(nil), data...))
			s.npay += uint64(len(data))
			return
		}
		s.curPay = make([]byte, 0, chunkBytes)
	}
	s.curPay = append(s.curPay, data...)
	s.npay += uint64(len(data))
}

// Err reports the sticky collection error, if any.
func (s *OpSink) Err() error { return s.err }

// Len reports how many ops the sink has recorded.
func (s *OpSink) Len() int { return s.n }

// chunksFrom returns the recorded ops from index from on, as the chunks
// that hold them.
func (s *OpSink) chunksFrom(from int) [][]Op {
	var out [][]Op
	for _, c := range append(s.full[:len(s.full):len(s.full)], s.cur) {
		if from >= len(c) {
			from -= len(c)
			continue
		}
		out = append(out, c[from:])
		from = 0
	}
	return out
}

// Ops copies the recorded ops [from, to) into one exactly sized slice.
func (s *OpSink) Ops(from, to int) []Op {
	if from < 0 || to < from || to > s.n {
		panic(fmt.Sprintf("trace: ops [%d, %d) outside the %d recorded", from, to, s.n))
	}
	out := make([]Op, 0, to-from)
	for _, c := range s.chunksFrom(from) {
		out = append(out, c[:min(len(c), to-from-len(out))]...)
	}
	return out
}

// Payload copies the recorded store data into one exactly sized buffer,
// which every recorded store's Off indexes.
func (s *OpSink) Payload() []byte {
	out := make([]byte, 0, s.npay)
	for _, c := range s.fullPay {
		out = append(out, c...)
	}
	return append(out, s.curPay...)
}

// SplitTxs partitions the recorded ops from index from on into per-thread
// transaction segments: out[t][i] is thread t's i-th transaction, the ops
// from its opening TxBegin (plus any preceding out-of-transaction ops,
// which attach forward) through the TxEnd or TxAbort that closes it.
// Per-thread order is preserved; the global interleaving is deliberately
// discarded — a replayer reissues each thread's transactions under its
// own scheme's timing, letting the engine's min-clock scheduler rebuild
// that scheme's interleaving. Store ops keep their payload offsets, so
// the segments replay against the payload Payload returns. An op naming
// a thread at or past threads, or a thread left with an open transaction,
// is an error.
func (s *OpSink) SplitTxs(from, threads int) ([][][]Op, error) {
	return splitTxs(s.chunksFrom(from), threads)
}

// Closes counts each thread's transaction closes (TxEnd or TxAbort) among
// the recorded ops from index from on.
func (s *OpSink) Closes(from, threads int) ([]int, error) {
	_, ntxs, _, err := countTxs(s.chunksFrom(from), threads)
	return ntxs, err
}

var _ telemetry.Sink = (*OpSink)(nil)
