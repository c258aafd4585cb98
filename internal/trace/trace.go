// Package trace captures and replays memory-operation traces. A trace
// holds the exact operation stream a workload issued — transaction
// boundaries, loads, stores with their data — so the run can be replayed
// bit-identically against any persistence scheme. This mirrors how the
// paper's platform consumed Pin-captured application traces. Captures
// live in memory: OpSink records them, and ReplayOps, SplitTxs and Cursor
// reissue them.
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

// OpSink is a telemetry.Sink that collects a workload's operations in
// memory while they execute: subscribe it to a system's hub with
// RecordMask and run the workload. The engine executes on one goroutine
// and emits exactly one event per operation in issue order, so Ops is the
// operation stream. Store data is copied onto the end of Payload (events
// only alias the written bytes during Emit), and each store Op records
// where its bytes landed; Ops and Payload are replayed together.
//
// An event Op cannot represent makes the sink's error sticky: further
// events are dropped and the error surfaces from Err. Emit cannot return
// an error — it is a telemetry.Sink — and panicking from inside the
// engine's emit path would kill the whole worker, so sticky-and-surface
// is the contract.
type OpSink struct {
	Ops     []Op
	Payload []byte
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
	if ok {
		if op.Kind == OpStore {
			op.Off = uint64(len(s.Payload))
			s.Payload = append(s.Payload, e.Data...)
		}
		s.Ops = append(s.Ops, op)
	}
}

// Err reports the sticky collection error, if any.
func (s *OpSink) Err() error { return s.err }

var _ telemetry.Sink = (*OpSink)(nil)
