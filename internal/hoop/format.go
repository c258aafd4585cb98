// Package hoop implements the paper's contribution: the hardware-assisted
// out-of-place update mechanism living in the memory controller. It
// comprises the per-core OOP data buffer with word-granularity data
// packing (§III-C, Figure 3), the log-structured OOP region of 2 MB blocks
// holding 128-byte memory slices (§III-D, Figure 5), the hash-based
// physical-to-physical mapping table and eviction buffer (§III-C), the
// adaptive garbage collector with data coalescing (§III-E, Algorithm 1),
// and multi-threaded data recovery (§III-F).
//
// Everything durable is represented as real bytes in the simulated NVM
// store, so crash recovery genuinely reparses device contents rather than
// consulting in-memory state.
package hoop

import (
	"encoding/binary"
	"fmt"

	"hoop/internal/mem"
	"hoop/internal/persist"
)

// On-NVM geometry (Figure 5).
const (
	// SliceSize is the fixed size of a memory slice: 64 B of packed
	// 8-byte data words plus 64 B of metadata, flushable in two
	// consecutive memory bursts.
	SliceSize = 128
	// WordsPerSlice is the data capacity of one slice.
	WordsPerSlice = 8
	// BlockSize is one OOP block (2 MB).
	BlockSize = 2 << 20
	// SlicesPerBlock counts slices per block; slice 0 holds the block
	// header.
	SlicesPerBlock = BlockSize / SliceSize
	// HomeAddrBytes encodes a 40-bit home-region word address
	// (addresses 1 TB, §III-C).
	HomeAddrBytes = 5
)

// Block states (§III-D).
const (
	BlkUnused byte = iota
	BlkInUse
	BlkFull
	BlkGC
)

// Slice type flags stored in the metadata flag nibble.
const (
	sliceTypeData byte = 1
)

// Data-slice metadata byte offsets within the 128-byte slice. Bytes 0–63
// hold the packed data words; the metadata half (64–127) holds the reverse
// mappings and chain linkage. The paper packs a 24-bit next-slice offset;
// we store a full 8-byte previous-slice pointer in the pad area for decode
// simplicity — the *accounted* metadata still fits the 64-byte metadata
// line (8×5 B addresses + 3 B link + 4 B TxID + 1 B flags = 48 B ≤ 64 B).
const (
	offData   = 0
	offAddrs  = 64  // 8 × 5-byte home word addresses
	offPrev   = 104 // 8-byte previous-slice NVM address (0 = chain start)
	offTxID   = 112 // 4-byte transaction ID
	offCount  = 116 // 1 byte: number of valid words (1..8)
	offFlags  = 117 // bit0: first slice of tx; bits 4..7: slice type
	offUnused = 118
)

// DataSlice is the decoded form of a data memory slice (Figure 5b).
type DataSlice struct {
	Words [WordsPerSlice][mem.WordSize]byte
	Addrs [WordsPerSlice]mem.PAddr // home word addresses
	Prev  mem.PAddr                // previous slice in this tx's chain (0 = first)
	TxID  persist.TxID
	Count int  // valid words, 1..8
	First bool // first slice written by the transaction
}

// Encode serializes the slice into a 128-byte buffer.
func (s *DataSlice) Encode() [SliceSize]byte {
	var b [SliceSize]byte
	if s.Count < 1 || s.Count > WordsPerSlice {
		panic(fmt.Sprintf("hoop: slice count %d out of range", s.Count))
	}
	for i := 0; i < s.Count; i++ {
		copy(b[offData+i*mem.WordSize:], s.Words[i][:])
		putAddr40(b[offAddrs+i*HomeAddrBytes:], s.Addrs[i])
	}
	binary.LittleEndian.PutUint64(b[offPrev:], uint64(s.Prev))
	binary.LittleEndian.PutUint32(b[offTxID:], uint32(s.TxID))
	b[offCount] = byte(s.Count)
	fl := sliceTypeData << 4
	if s.First {
		fl |= 1
	}
	b[offFlags] = fl
	return b
}

// DecodeDataSlice parses a 128-byte buffer as a data slice. It returns an
// error if the flag nibble does not mark a data slice or the count is out
// of range — recovery uses this to reject torn or stale slices.
func DecodeDataSlice(b []byte) (DataSlice, error) {
	var s DataSlice
	if len(b) < SliceSize {
		return s, fmt.Errorf("hoop: short slice buffer (%d bytes)", len(b))
	}
	if b[offFlags]>>4 != sliceTypeData {
		return s, fmt.Errorf("hoop: not a data slice (flags=%#x)", b[offFlags])
	}
	cnt := int(b[offCount])
	if cnt < 1 || cnt > WordsPerSlice {
		return s, fmt.Errorf("hoop: bad word count %d", cnt)
	}
	s.Count = cnt
	s.First = b[offFlags]&1 != 0
	s.TxID = persist.TxID(binary.LittleEndian.Uint32(b[offTxID:]))
	s.Prev = mem.PAddr(binary.LittleEndian.Uint64(b[offPrev:]))
	for i := 0; i < cnt; i++ {
		copy(s.Words[i][:], b[offData+i*mem.WordSize:])
		s.Addrs[i] = getAddr40(b[offAddrs+i*HomeAddrBytes:])
	}
	return s, nil
}

// maxHomeEnd bounds the home region: a data slice records each word's
// home address in HomeAddrBytes, so every home address lies below it.
const maxHomeEnd = mem.PAddr(1) << (8 * HomeAddrBytes)

func putAddr40(b []byte, a mem.PAddr) {
	if a >= maxHomeEnd {
		panic(fmt.Sprintf("hoop: home address %v exceeds 40-bit metadata field", a))
	}
	b[0] = byte(a)
	b[1] = byte(a >> 8)
	b[2] = byte(a >> 16)
	b[3] = byte(a >> 24)
	b[4] = byte(a >> 32)
}

func getAddr40(b []byte) mem.PAddr {
	return mem.PAddr(uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 |
		uint64(b[3])<<24 | uint64(b[4])<<32)
}

// Block header layout (slice 0 of each block): state byte, activation
// sequence number, block index. The slice bitmap the paper mentions is
// volatile controller state (allocation is strictly sequential within a
// block), so it is not persisted.
const (
	hdrState = 0
	hdrSeq   = 8  // 8-byte activation sequence
	hdrIndex = 16 // 8-byte block index (sanity checking)
)

// BlockHeader is the decoded durable header of one OOP block.
type BlockHeader struct {
	State byte
	Seq   uint64 // monotone activation sequence: larger = activated later
	Index uint64
}

// Encode serializes the header into a slice-sized buffer.
func (h BlockHeader) Encode() [SliceSize]byte {
	var b [SliceSize]byte
	b[hdrState] = h.State
	binary.LittleEndian.PutUint64(b[hdrSeq:], h.Seq)
	binary.LittleEndian.PutUint64(b[hdrIndex:], h.Index)
	return b
}

// DecodeBlockHeader parses a block header.
func DecodeBlockHeader(b []byte) BlockHeader {
	return BlockHeader{
		State: b[hdrState],
		Seq:   binary.LittleEndian.Uint64(b[hdrSeq:]),
		Index: binary.LittleEndian.Uint64(b[hdrIndex:]),
	}
}
