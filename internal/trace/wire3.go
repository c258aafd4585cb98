// Wire format v3: the compact chunked encoding.
//
// After the 8-byte file header the stream is a sequence of chunks:
//
//	u32le opLen    — byte length of the op-stream section as stored
//	u32le dataLen  — byte length of the data arena
//	u32le opCount  — ops in this chunk
//	u8    flags    — bit0: op stream is DEFLATE-compressed
//	[opLen bytes]  — op stream (varint/delta encoded, maybe deflated)
//	[dataLen bytes] — data arena, never compressed (bulk store payloads
//	                  are workload-generated and typically incompressible)
//
// EOF at a chunk boundary ends the trace. Encoder and decoder carry
// identical model state *across* chunks (chunks are pure framing, so a
// Writer can flush mid-stream without hurting the ratio much):
//
//   - curThread: ops apply to the current thread; a 0x0E escape followed
//     by a uvarint switches it. Workload schedulers emit long per-thread
//     runs, so this amortizes the thread field to ~0 bits.
//   - lastAddr[thread]: load/store addresses are zigzag-varint deltas
//     against the thread's previous address.
//   - lastVal[wordAddr]: stores may encode per-word zigzag-varint deltas
//     against the last value traced at each 8-byte word. Data-structure
//     words (pointers, lengths, sequence counters) change by small
//     amounts; random payloads don't, and fall through to the raw arena.
//   - dict: 256 most-recently-first-seen payloads ≤64 B, replaced
//     round-robin; a store whose payload is resident encodes as a 1-byte
//     slot reference.
//
// Op lead bytes (low bits carry size/mode codes):
//
//	0x01/0x02/0x05  TxBegin / TxEnd / TxAbort (same values as the Op kinds)
//	0x0E            thread switch: uvarint thread
//	0x10|sz         Load:  svarint addrDelta [uvarint size if sz==2]
//	0x18            Scan:  uvarint items, uvarint bytes (no addr-delta state)
//	0x20|mode<<2|sz Store: svarint addrDelta [uvarint size if sz==2] then
//	                 mode 0: payload in data arena
//	                 mode 1: per-word svarint value deltas; non-word tail
//	                         bytes in the arena
//	                 mode 2: uvarint dictionary slot
//
// with sz: 0 → 8 B, 1 → 64 B, 2 → explicit uvarint. The encoder picks the
// cheaper of raw/delta by exact byte count and prefers a dictionary hit
// outright; every choice is deterministic, so identical op streams encode
// to identical bytes (the golden fixture pins them).
package trace

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"

	"hoop/internal/mem"
)

const (
	leadTxBegin = 0x01
	leadTxEnd   = 0x02
	leadTxAbort = 0x05
	leadThread  = 0x0E
	leadLoad    = 0x10
	leadScan    = 0x18
	leadStore   = 0x20

	szWord = 0 // 8 bytes
	szLine = 1 // 64 bytes
	szVar  = 2 // explicit uvarint

	dmRaw   = 0
	dmDelta = 1
	dmDict  = 2

	dictSlots   = 256
	dictMaxSize = 64

	// chunkTarget bounds Writer memory; flateMin keeps tiny chunks (and
	// golden fixtures) byte-stable across compressor revisions.
	chunkTarget = 256 << 10
	flateMin    = 1 << 10

	chunkHeaderLen = 13
	flagDeflate    = 1

	// maxChunkBytes bounds every length in a chunk: stored op stream,
	// inflated op stream, and data arena. The Writer emits a chunk once
	// it holds chunkTarget bytes, so the last op can push either section
	// past that by at most one maximal store plus its varint framing; the
	// slack also covers deflate's stored-block overhead.
	maxChunkBytes = chunkTarget + maxStoreSize + 1<<10
)

func zigzag(d int64) uint64   { return uint64(d<<1) ^ uint64(d>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func uvarintLen(u uint64) int {
	n := 1
	for u >= 0x80 {
		u >>= 7
		n++
	}
	return n
}

// wire3Model is the shared encoder/decoder prediction state.
type wire3Model struct {
	curThread uint16
	lastAddr  map[uint16]uint64
	lastVal   map[uint64]uint64
	dict      [dictSlots][]byte
	dictNext  int
}

func (m *wire3Model) init() {
	if m.lastAddr == nil {
		m.lastAddr = make(map[uint16]uint64)
		m.lastVal = make(map[uint64]uint64)
	}
}

// noteStore updates per-word value predictions and (for small payloads not
// already resident) the dictionary. Both sides call it with identical
// arguments in identical order. data must be an owned copy when inserted.
func (m *wire3Model) noteWords(addr uint64, data []byte) {
	for off := 0; off+8 <= len(data); off += 8 {
		m.lastVal[addr+uint64(off)] = binary.LittleEndian.Uint64(data[off:])
	}
}

type wire3Enc struct {
	wire3Model
	dictIdx map[string]int // payload -> resident slot
	ops     bytes.Buffer
	arena   bytes.Buffer
	pending uint32
	varbuf  [binary.MaxVarintLen64]byte
	flate   *flate.Writer
}

func (e *wire3Enc) putUvarint(u uint64) {
	n := binary.PutUvarint(e.varbuf[:], u)
	e.ops.Write(e.varbuf[:n])
}

func (e *wire3Enc) putSvarint(d int64) { e.putUvarint(zigzag(d)) }

func (e *wire3Enc) putSize(lead byte, size uint32) byte {
	switch size {
	case 8:
		return lead | szWord
	case 64:
		return lead | szLine
	default:
		return lead | szVar
	}
}

func (e *wire3Enc) pendingBytes() int { return e.ops.Len() + e.arena.Len() }

// encode appends one (already validated) op to the pending chunk.
func (e *wire3Enc) encode(op Op) {
	e.init()
	if e.dictIdx == nil {
		e.dictIdx = make(map[string]int)
	}
	if op.Thread != e.curThread {
		e.ops.WriteByte(leadThread)
		e.putUvarint(uint64(op.Thread))
		e.curThread = op.Thread
	}
	e.pending++
	switch op.Kind {
	case OpTxBegin, OpTxEnd, OpTxAbort:
		e.ops.WriteByte(op.Kind)
	case OpScan:
		e.ops.WriteByte(leadScan)
		e.putUvarint(uint64(op.Size))
		e.putUvarint(uint64(op.Addr))
	case OpLoad:
		e.ops.WriteByte(e.putSize(leadLoad, op.Size))
		e.putSvarint(int64(op.Addr) - int64(e.lastAddr[op.Thread]))
		if op.Size != 8 && op.Size != 64 {
			e.putUvarint(uint64(op.Size))
		}
		e.lastAddr[op.Thread] = uint64(op.Addr)
	case OpStore:
		e.encodeStore(op)
	}
}

func (e *wire3Enc) encodeStore(op Op) {
	addr := uint64(op.Addr)
	mode := byte(dmRaw)
	slot := 0
	if len(op.Data) > 0 && len(op.Data) <= dictMaxSize {
		if s, ok := e.dictIdx[string(op.Data)]; ok {
			mode, slot = dmDict, s
		}
	}
	if mode == dmRaw {
		// Choose raw vs per-word delta by exact encoded size. Tail bytes
		// (size % 8) cost the same either way, so compare full words only.
		words := len(op.Data) / 8
		deltaCost, rawCost := 0, 8*words
		for off := 0; off < words*8; off += 8 {
			w := binary.LittleEndian.Uint64(op.Data[off:])
			deltaCost += uvarintLen(zigzag(int64(w) - int64(e.lastVal[addr+uint64(off)])))
			if deltaCost >= rawCost {
				break
			}
		}
		if deltaCost < rawCost {
			mode = dmDelta
		}
	}
	e.ops.WriteByte(e.putSize(leadStore|mode<<2, op.Size))
	e.putSvarint(int64(addr) - int64(e.lastAddr[op.Thread]))
	if op.Size != 8 && op.Size != 64 {
		e.putUvarint(uint64(op.Size))
	}
	switch mode {
	case dmRaw:
		e.arena.Write(op.Data)
	case dmDelta:
		words := len(op.Data) / 8
		for off := 0; off < words*8; off += 8 {
			w := binary.LittleEndian.Uint64(op.Data[off:])
			e.putSvarint(int64(w) - int64(e.lastVal[addr+uint64(off)]))
		}
		e.arena.Write(op.Data[words*8:])
	case dmDict:
		e.putUvarint(uint64(slot))
	}
	e.lastAddr[op.Thread] = addr
	e.noteWords(addr, op.Data)
	if mode != dmDict && len(op.Data) > 0 && len(op.Data) <= dictMaxSize {
		e.dictInsert(op.Data)
	}
}

// dictInsert copies data into the next round-robin slot. The caller has
// already established the payload is not resident.
func (e *wire3Enc) dictInsert(data []byte) {
	s := e.dictNext % dictSlots
	e.dictNext++
	if old := e.dict[s]; old != nil {
		delete(e.dictIdx, string(old))
	}
	cp := append([]byte(nil), data...)
	e.dict[s] = cp
	e.dictIdx[string(cp)] = s
}

// emitChunk writes the pending chunk to w (no-op when empty).
func (e *wire3Enc) emitChunk(w io.Writer) error {
	if e.pending == 0 {
		return nil
	}
	opBytes := e.ops.Bytes()
	var flags byte
	if len(opBytes) >= flateMin {
		var cb bytes.Buffer
		if e.flate == nil {
			fw, err := flate.NewWriter(&cb, flate.DefaultCompression)
			if err != nil {
				return fmt.Errorf("trace: flate init: %w", err)
			}
			e.flate = fw
		} else {
			e.flate.Reset(&cb)
		}
		if _, err := e.flate.Write(opBytes); err != nil {
			return fmt.Errorf("trace: compressing op stream: %w", err)
		}
		if err := e.flate.Close(); err != nil {
			return fmt.Errorf("trace: compressing op stream: %w", err)
		}
		opBytes = cb.Bytes()
		flags = flagDeflate
	}
	var h [chunkHeaderLen]byte
	binary.LittleEndian.PutUint32(h[0:], uint32(len(opBytes)))
	binary.LittleEndian.PutUint32(h[4:], uint32(e.arena.Len()))
	binary.LittleEndian.PutUint32(h[8:], e.pending)
	h[12] = flags
	if _, err := w.Write(h[:]); err != nil {
		return err
	}
	if _, err := w.Write(opBytes); err != nil {
		return err
	}
	if _, err := w.Write(e.arena.Bytes()); err != nil {
		return err
	}
	e.ops.Reset()
	e.arena.Reset()
	e.pending = 0
	return nil
}

type wire3Dec struct {
	wire3Model
	queue []Op
	qpos  int
	out   byteArena // materialized delta/tail payloads
	// inflated is the reusable inflate buffer; decoded ops never alias it.
	inflated []byte
}

// read returns the next op, decoding the next chunk when the current one
// is drained.
func (d *wire3Dec) read(r *bufio.Reader) (Op, error) {
	for d.qpos >= len(d.queue) {
		if err := d.readChunk(r); err != nil {
			return Op{}, err
		}
	}
	op := d.queue[d.qpos]
	d.qpos++
	return op, nil
}

func (d *wire3Dec) readChunk(r *bufio.Reader) error {
	var h [chunkHeaderLen]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("trace: reading chunk header: %w", err)
	}
	opLen := binary.LittleEndian.Uint32(h[0:])
	dataLen := binary.LittleEndian.Uint32(h[4:])
	opCount := binary.LittleEndian.Uint32(h[8:])
	flags := h[12]
	if opLen > maxChunkBytes || dataLen > maxChunkBytes {
		return fmt.Errorf("trace: unreasonable chunk header (%d op bytes, %d data bytes)", opLen, dataLen)
	}
	opBytes := make([]byte, opLen)
	if _, err := io.ReadFull(r, opBytes); err != nil {
		return fmt.Errorf("trace: reading op stream: %w", err)
	}
	arena := make([]byte, dataLen)
	if _, err := io.ReadFull(r, arena); err != nil {
		return fmt.Errorf("trace: reading data arena: %w", err)
	}
	if flags&flagDeflate != 0 {
		raw, err := d.inflate(opBytes)
		if err != nil {
			return err
		}
		opBytes = raw
	}
	// Every op starts with a lead byte, so a chunk cannot hold more ops
	// than op-stream bytes; checking first bounds the queue allocation.
	if int64(opCount) > int64(len(opBytes)) {
		return fmt.Errorf("trace: chunk claims %d ops in %d op-stream bytes", opCount, len(opBytes))
	}
	return d.decodeChunk(opBytes, arena, int(opCount))
}

// inflate decompresses a chunk's op stream into the decoder's reusable
// buffer, failing once the output passes maxChunkBytes so a deflate bomb
// cannot balloon memory.
func (d *wire3Dec) inflate(src []byte) ([]byte, error) {
	fr := flate.NewReader(bytes.NewReader(src))
	buf := d.inflated[:0]
	if buf == nil {
		buf = make([]byte, 0, 512)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := fr.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if len(buf) > maxChunkBytes {
			return nil, fmt.Errorf("trace: op stream inflates past %d bytes", maxChunkBytes)
		}
		if err == io.EOF {
			d.inflated = buf
			return buf, nil
		}
		if err != nil {
			return nil, fmt.Errorf("trace: inflating op stream: %w", err)
		}
	}
}

// decodeChunk rebuilds opCount ops. Raw store payloads alias the arena;
// delta and tail payloads are materialized into the decoder's own arena.
func (d *wire3Dec) decodeChunk(ops, arena []byte, opCount int) error {
	d.init()
	if cap(d.queue) < opCount {
		d.queue = make([]Op, 0, opCount)
	}
	d.queue = d.queue[:0]
	d.qpos = 0
	p, ap := 0, 0
	uvarint := func() (uint64, error) {
		u, n := binary.Uvarint(ops[p:])
		if n <= 0 {
			return 0, fmt.Errorf("trace: truncated varint in op stream")
		}
		p += n
		return u, nil
	}
	takeArena := func(n int) ([]byte, error) {
		if n < 0 || ap+n > len(arena) {
			return nil, fmt.Errorf("trace: data arena overrun")
		}
		b := arena[ap : ap+n : ap+n]
		ap += n
		return b, nil
	}
	for len(d.queue) < opCount {
		if p >= len(ops) {
			return fmt.Errorf("trace: op stream truncated (%d of %d ops)", len(d.queue), opCount)
		}
		lead := ops[p]
		p++
		switch {
		case lead == leadTxBegin || lead == leadTxEnd || lead == leadTxAbort:
			d.queue = append(d.queue, Op{Kind: lead, Thread: d.curThread})
		case lead == leadThread:
			th, err := uvarint()
			if err != nil {
				return err
			}
			if th > 0xFFFF {
				return fmt.Errorf("trace: thread %d out of range", th)
			}
			d.curThread = uint16(th)
		case lead == leadScan:
			items, err := uvarint()
			if err != nil {
				return err
			}
			nbytes, err := uvarint()
			if err != nil {
				return err
			}
			if items > 1<<32-1 {
				return fmt.Errorf("trace: scan item count %d out of range", items)
			}
			d.queue = append(d.queue, Op{Kind: OpScan, Thread: d.curThread, Addr: mem.PAddr(nbytes), Size: uint32(items)})
		case lead&^0x03 == leadLoad:
			addr, size, err := d.addrSize(lead, uvarint)
			if err != nil {
				return err
			}
			d.lastAddr[d.curThread] = addr
			d.queue = append(d.queue, Op{Kind: OpLoad, Thread: d.curThread, Addr: mem.PAddr(addr), Size: size})
		case lead >= leadStore && lead < leadStore+12 && lead&0x03 != 3:
			op, err := d.decodeStore(lead, uvarint, takeArena)
			if err != nil {
				return err
			}
			d.queue = append(d.queue, op)
		default:
			return fmt.Errorf("trace: unknown op lead byte 0x%02x", lead)
		}
	}
	if p != len(ops) {
		return fmt.Errorf("trace: %d trailing bytes in op stream", len(ops)-p)
	}
	if ap != len(arena) {
		return fmt.Errorf("trace: %d trailing bytes in data arena", len(arena)-ap)
	}
	return nil
}

// addrSize decodes the shared addr-delta + size suffix of loads/stores.
func (d *wire3Dec) addrSize(lead byte, uvarint func() (uint64, error)) (uint64, uint32, error) {
	du, err := uvarint()
	if err != nil {
		return 0, 0, err
	}
	addr := uint64(int64(d.lastAddr[d.curThread]) + unzigzag(du))
	var size uint32
	switch lead & 0x03 {
	case szWord:
		size = 8
	case szLine:
		size = 64
	case szVar:
		s, err := uvarint()
		if err != nil {
			return 0, 0, err
		}
		if s > maxStoreSize {
			return 0, 0, fmt.Errorf("trace: unreasonable store size %d", s)
		}
		size = uint32(s)
	}
	return addr, size, nil
}

func (d *wire3Dec) decodeStore(lead byte, uvarint func() (uint64, error), takeArena func(int) ([]byte, error)) (Op, error) {
	addr, size, err := d.addrSize(lead, uvarint)
	if err != nil {
		return Op{}, err
	}
	mode := (lead >> 2) & 0x03
	var data []byte
	switch mode {
	case dmRaw:
		if data, err = takeArena(int(size)); err != nil {
			return Op{}, err
		}
	case dmDelta:
		words := int(size) / 8
		data = d.out.alloc(int(size))
		for off := 0; off < words*8; off += 8 {
			du, err := uvarint()
			if err != nil {
				return Op{}, err
			}
			w := uint64(int64(d.lastVal[addr+uint64(off)]) + unzigzag(du))
			binary.LittleEndian.PutUint64(data[off:], w)
		}
		tail, err := takeArena(int(size) % 8)
		if err != nil {
			return Op{}, err
		}
		copy(data[words*8:], tail)
	case dmDict:
		slot, err := uvarint()
		if err != nil {
			return Op{}, err
		}
		if slot >= dictSlots || d.dict[slot] == nil {
			return Op{}, fmt.Errorf("trace: dictionary reference to empty slot %d", slot)
		}
		data = d.dict[slot]
		if uint32(len(data)) != size {
			return Op{}, fmt.Errorf("trace: dictionary slot %d holds %d bytes, store wants %d", slot, len(data), size)
		}
	default:
		return Op{}, fmt.Errorf("trace: unknown store data mode %d", mode)
	}
	d.lastAddr[d.curThread] = addr
	d.noteWords(addr, data)
	if mode != dmDict && len(data) > 0 && len(data) <= dictMaxSize {
		s := d.dictNext % dictSlots
		d.dictNext++
		d.dict[s] = data
	}
	return Op{Kind: OpStore, Thread: d.curThread, Addr: mem.PAddr(addr), Size: size, Data: data}, nil
}

// byteArena hands out chunks of a grow-only backing store. Previously
// returned slices stay valid forever (blocks are never reused), which is
// what lets decoded ops alias it.
type byteArena struct {
	cur    []byte
	blocks int
}

const arenaBlock = 64 << 10

func (a *byteArena) alloc(n int) []byte {
	if n > arenaBlock/2 {
		return make([]byte, n)
	}
	if len(a.cur)+n > cap(a.cur) {
		a.cur = make([]byte, 0, arenaBlock)
		a.blocks++
	}
	b := a.cur[len(a.cur) : len(a.cur)+n : len(a.cur)+n]
	a.cur = a.cur[:len(a.cur)+n]
	return b
}
