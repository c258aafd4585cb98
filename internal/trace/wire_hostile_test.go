package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// chunkFile builds a v3 stream holding one chunk with the given header
// fields and body bytes.
func chunkFile(opLen, dataLen, opCount uint32, flags byte, body []byte) []byte {
	b := make([]byte, 8+chunkHeaderLen, 8+chunkHeaderLen+len(body))
	binary.LittleEndian.PutUint32(b[0:], magic)
	binary.LittleEndian.PutUint32(b[4:], version)
	binary.LittleEndian.PutUint32(b[8:], opLen)
	binary.LittleEndian.PutUint32(b[12:], dataLen)
	binary.LittleEndian.PutUint32(b[16:], opCount)
	b[20] = flags
	return append(b, body...)
}

// TestReaderBoundsHostileChunks: chunk headers that lie about their
// sizes fail without allocating what they claim. Each input must error,
// and decoding it must allocate at most a few chunk-sized buffers.
func TestReaderBoundsHostileChunks(t *testing.T) {
	var bomb bytes.Buffer
	fw, err := flate.NewWriter(&bomb, flate.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	fw.Write(make([]byte, 8<<20)) // 8 MB of zeros deflates to ~8 KB
	fw.Close()

	inputs := map[string][]byte{
		"4M ops in 0 bytes":       chunkFile(0, 0, 1<<22, 0, nil),
		"1 GiB op stream":         chunkFile(1<<30, 0, 1, 0, nil),
		"1 GiB data arena":        chunkFile(1, 1<<30, 1, 0, []byte{leadTxBegin}),
		"op stream past the body": chunkFile(maxChunkBytes, 0, 1, 0, []byte{leadTxBegin}),
		"deflate bomb":            chunkFile(uint32(bomb.Len()), 0, 1, flagDeflate, bomb.Bytes()),
	}
	const budget = 8 << 20
	for name, raw := range inputs {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := NewReader(bytes.NewReader(raw)).ReadAll()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded without error", name)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > budget {
			t.Errorf("%s: allocated %d bytes, budget %d", name, alloc, budget)
		}
	}
}

// FuzzTraceReader: whatever the bytes, ReadAll either fails or returns
// ops that re-encode and decode to themselves. It must never panic.
func FuzzTraceReader(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_v3.trc"))
	if err != nil {
		f.Fatal(err)
	}
	for n := 0; n <= len(golden); n++ {
		f.Add(golden[:n])
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		ops, err := NewReader(bytes.NewReader(raw)).ReadAll()
		if err != nil {
			return
		}
		wire, err := WriteOps(ops)
		if err != nil {
			t.Fatalf("decoded ops do not re-encode: %v", err)
		}
		again, err := NewReader(bytes.NewReader(wire)).ReadAll()
		if err != nil {
			t.Fatalf("re-encoded ops do not decode: %v", err)
		}
		opsEquivalent(t, again, ops)
	})
}
