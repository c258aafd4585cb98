// Package logring provides the durable fixed-record log ring shared by the
// logging-style baselines (Opt-Undo, Opt-Redo, LSM): sequence-numbered
// records in a circular NVM region, plus a durable truncation watermark so
// recovery can tell live records from recycled slots after wrap-around.
package logring

import (
	"encoding/binary"
	"fmt"

	"hoop/internal/mem"
)

// headerSize prefixes every record with its 8-byte sequence number.
const headerSize = 8

const watermarkMagic = 0x4C4F4752 // "LOGR"

// Ring is a durable circular log of fixed-size records. All bookkeeping
// except the watermark is volatile; recovery reconstructs the live set by
// scanning the region.
type Ring struct {
	wmAddr    mem.PAddr
	base      mem.PAddr
	recSize   int // payload size; the stored record is headerSize larger
	capacity  uint64
	nextSeq   uint64
	watermark uint64
}

// New lays a ring with payloadSize-byte records over region. The first
// cache line of the region holds the truncation watermark.
func New(region mem.Region, payloadSize int) (*Ring, error) {
	rec := payloadSize + headerSize
	if uint64(rec+mem.LineSize) > region.Size {
		return nil, fmt.Errorf("logring: region %v too small for %d-byte records", region, payloadSize)
	}
	capacity := (region.Size - mem.LineSize) / uint64(rec)
	return &Ring{
		wmAddr:   region.Base,
		base:     region.Base + mem.LineSize,
		recSize:  payloadSize,
		capacity: capacity,
		nextSeq:  1,
	}, nil
}

// RecordBytes is the durable size of one record including its header.
func (r *Ring) RecordBytes() int { return r.recSize + headerSize }

// Live reports the number of un-truncated records.
func (r *Ring) Live() uint64 { return r.nextSeq - 1 - r.watermark }

// Full reports whether appending would overwrite a live record.
func (r *Ring) Full() bool { return r.Live() >= r.capacity }

// NextSeq reports the sequence number the next Append will use.
func (r *Ring) NextSeq() uint64 { return r.nextSeq }

// Watermark reports the volatile view of the truncation point.
func (r *Ring) Watermark() uint64 { return r.watermark }

func (r *Ring) addr(seq uint64) mem.PAddr {
	return r.base + mem.PAddr(((seq-1)%r.capacity)*uint64(r.RecordBytes()))
}

// Append durably writes payload as the next record, returning its sequence
// number and NVM address. The caller is responsible for the timing/traffic
// accounting (via memctrl) and for not appending when Full.
func (r *Ring) Append(store *mem.Store, payload []byte) (seq uint64, at mem.PAddr) {
	if len(payload) != r.recSize {
		panic(fmt.Sprintf("logring: payload %d bytes, want %d", len(payload), r.recSize))
	}
	if r.Full() {
		panic("logring: append to full ring (caller must truncate first)")
	}
	seq = r.nextSeq
	r.nextSeq++
	at = r.addr(seq)
	// Payload first, 8-byte sequence header last: the header is the single
	// atomic persist unit that makes the record valid. A crash anywhere
	// mid-payload leaves the slot carrying its previous header (zero, or a
	// sequence at or below the watermark), so Scan never surfaces a torn
	// record.
	store.Write(at+headerSize, payload)
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint64(hdr[:], seq)
	store.Write(at, hdr[:])
	return seq, at
}

// PayloadAddr reports where the payload of the record Append placed at at
// begins.
func (r *Ring) PayloadAddr(at mem.PAddr) mem.PAddr { return at + headerSize }

// Truncate durably advances the watermark to seq: records at or below it
// are dead and their slots may be reused.
func (r *Ring) Truncate(store *mem.Store, seq uint64) {
	if seq < r.watermark {
		return
	}
	var b [mem.LineSize]byte
	binary.LittleEndian.PutUint32(b[0:], watermarkMagic)
	binary.LittleEndian.PutUint64(b[8:], seq)
	store.Write(r.wmAddr, b[:])
	r.watermark = seq
}

// WatermarkAddr reports where the watermark line lives (for traffic
// accounting of Truncate writes).
func (r *Ring) WatermarkAddr() mem.PAddr { return r.wmAddr }

// Scan reads every live record (watermark < seq < nextSeq as found on the
// device) in sequence order and calls fn with its payload. It is used by
// recovery, so it trusts only durable state: the watermark line and the
// per-record sequence headers.
func (r *Ring) Scan(store *mem.Store, fn func(seq uint64, at mem.PAddr, payload []byte)) {
	wm := r.readWatermark(store)
	type liveRec struct {
		seq uint64
		at  mem.PAddr
	}
	var live []liveRec
	buf := make([]byte, headerSize)
	for i := uint64(0); i < r.capacity; i++ {
		at := r.base + mem.PAddr(i*uint64(r.RecordBytes()))
		store.Read(at, buf)
		seq := binary.LittleEndian.Uint64(buf)
		if seq == 0 || seq <= wm {
			continue
		}
		live = append(live, liveRec{seq: seq, at: at})
	}
	// Insertion sort by seq (live sets are small relative to capacity and
	// nearly sorted already).
	for i := 1; i < len(live); i++ {
		for j := i; j > 0 && live[j-1].seq > live[j].seq; j-- {
			live[j-1], live[j] = live[j], live[j-1]
		}
	}
	payload := make([]byte, r.recSize)
	for _, rec := range live {
		store.Read(rec.at+headerSize, payload)
		fn(rec.seq, rec.at, payload)
	}
}

// readWatermark parses the durable watermark (zero if never written).
func (r *Ring) readWatermark(store *mem.Store) uint64 {
	var b [mem.LineSize]byte
	store.Read(r.wmAddr, b[:])
	if binary.LittleEndian.Uint32(b[0:]) != watermarkMagic {
		return 0
	}
	return binary.LittleEndian.Uint64(b[8:])
}

// ResetVolatile rebuilds the volatile cursors from durable state after a
// crash: nextSeq continues above the highest live sequence found.
func (r *Ring) ResetVolatile(store *mem.Store) {
	wm := r.readWatermark(store)
	maxSeq := wm
	buf := make([]byte, headerSize)
	for i := uint64(0); i < r.capacity; i++ {
		at := r.base + mem.PAddr(i*uint64(r.RecordBytes()))
		store.Read(at, buf)
		if seq := binary.LittleEndian.Uint64(buf); seq > maxSeq {
			maxSeq = seq
		}
	}
	r.watermark = wm
	r.nextSeq = maxSeq + 1
}
