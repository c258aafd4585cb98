// Package trace records and replays memory-operation traces. A trace
// captures the exact operation stream a workload issued — transaction
// boundaries, loads, stores with their data — in a compact binary format,
// so a run can be (a) inspected offline, (b) replayed bit-identically
// against any persistence scheme, or (c) exported for analysis outside the
// simulator. This mirrors how the paper's platform consumed Pin-captured
// application traces.
//
// The wire format is v3, the compact format: ops are grouped into chunks
// whose header stream is varint/delta-encoded and deflated, while bulk
// store payloads live in a separate uncompressed data arena (see
// wire3.go). Traces in the fixed-header v1/v2 formats are rejected with a
// request to re-record them.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"hoop/internal/mem"
)

// Op kinds.
const (
	OpTxBegin byte = iota + 1
	OpTxEnd
	OpLoad
	OpStore
	OpTxAbort // v2 and later
	OpScan    // v3 and later
)

// Op is one traced operation. Thread identifies the issuing workload
// thread; Data is present only for stores. Ops decoded from a v3 stream
// alias the Reader's internal arenas: treat Data as read-only.
type Op struct {
	Kind   byte
	Thread uint16
	Addr   mem.PAddr
	Size   uint32
	Data   []byte
}

// String renders the op for human inspection.
func (o Op) String() string {
	switch o.Kind {
	case OpTxBegin:
		return fmt.Sprintf("t%d TX_BEGIN", o.Thread)
	case OpTxEnd:
		return fmt.Sprintf("t%d TX_END", o.Thread)
	case OpTxAbort:
		return fmt.Sprintf("t%d TX_ABORT", o.Thread)
	case OpLoad:
		return fmt.Sprintf("t%d LOAD  %v +%d", o.Thread, o.Addr, o.Size)
	case OpStore:
		return fmt.Sprintf("t%d STORE %v +%d", o.Thread, o.Addr, o.Size)
	case OpScan:
		return fmt.Sprintf("t%d SCAN  %d items / %d B", o.Thread, o.Size, uint64(o.Addr))
	}
	return fmt.Sprintf("t%d ?%d", o.Thread, o.Kind)
}

// Magic and version of the binary format. The file header is 8 bytes:
// magic u32le, version u32le; the v3 chunks defined in wire3.go follow.
// Scan ops reuse the op fields for accounting: Size carries the item count
// and Addr the total value bytes the scan read.
const (
	magic   = 0x484F5452 // "HOTR"
	version = 3
)

// maxStoreSize bounds a single store's payload; anything larger in a
// stream is treated as corruption.
const maxStoreSize = 1 << 20

// Writer streams ops into an io.Writer, always in the current (v3) format.
// Ops accumulate into an in-memory chunk that is emitted when it reaches
// the chunk target or on Flush, so memory stays bounded for arbitrarily
// long recordings. Write copies what it needs from op.Data before
// returning, so callers may reuse their buffers.
type Writer struct {
	w       *bufio.Writer
	started bool
	count   int64
	enc     wire3Enc
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

func (t *Writer) header() error {
	var h [8]byte
	binary.LittleEndian.PutUint32(h[0:], magic)
	binary.LittleEndian.PutUint32(h[4:], version)
	_, err := t.w.Write(h[:])
	return err
}

// Write appends one op.
func (t *Writer) Write(op Op) error {
	if !t.started {
		if err := t.header(); err != nil {
			return err
		}
		t.started = true
	}
	switch op.Kind {
	case OpTxBegin, OpTxEnd, OpTxAbort, OpLoad, OpScan:
	case OpStore:
		if uint32(len(op.Data)) != op.Size {
			return fmt.Errorf("trace: store op with %d data bytes but size %d", len(op.Data), op.Size)
		}
		if op.Size > maxStoreSize {
			return fmt.Errorf("trace: unreasonable store size %d", op.Size)
		}
	default:
		return fmt.Errorf("trace: unknown op kind %d", op.Kind)
	}
	t.enc.encode(op)
	t.count++
	if t.enc.pendingBytes() >= chunkTarget {
		return t.enc.emitChunk(t.w)
	}
	return nil
}

// Count reports ops written.
func (t *Writer) Count() int64 { return t.count }

// Flush emits the pending chunk and drains the buffer; call before closing
// the underlying writer. Flushing mid-stream is fine: the Writer keeps
// appending afterwards (each flush just closes a chunk).
func (t *Writer) Flush() error {
	if !t.started {
		if err := t.header(); err != nil {
			return err
		}
		t.started = true
	}
	if err := t.enc.emitChunk(t.w); err != nil {
		return err
	}
	return t.w.Flush()
}

// Reader streams ops from an io.Reader in the current (v3) format.
type Reader struct {
	r       *bufio.Reader
	started bool
	dec     wire3Dec
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

func (t *Reader) header() error {
	var h [8]byte
	if _, err := io.ReadFull(t.r, h[:]); err != nil {
		return fmt.Errorf("trace: reading header: %w", err)
	}
	if binary.LittleEndian.Uint32(h[0:]) != magic {
		return fmt.Errorf("trace: bad magic")
	}
	switch v := binary.LittleEndian.Uint32(h[4:]); v {
	case version:
		return nil
	case 1, 2:
		return fmt.Errorf("trace: version %d trace predates the compact v3 format; re-record it with the current writer", v)
	default:
		return fmt.Errorf("trace: unsupported version %d", v)
	}
}

// Read returns the next op, or io.EOF at the end of the trace.
func (t *Reader) Read() (Op, error) {
	if !t.started {
		if err := t.header(); err != nil {
			return Op{}, err
		}
		t.started = true
	}
	return t.dec.read(t.r)
}

// ReadAll drains the trace.
func (t *Reader) ReadAll() ([]Op, error) {
	var ops []Op
	for {
		op, err := t.Read()
		if err == io.EOF {
			return ops, nil
		}
		if err != nil {
			return ops, err
		}
		ops = append(ops, op)
	}
}
