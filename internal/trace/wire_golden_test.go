package trace

import (
	"bytes"
	"encoding/binary"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"hoop/internal/mem"
)

var updateWire = flag.Bool("update", false, "rewrite the wire-format golden fixtures from this run")

// goldenOps walks every op kind and every store encoding mode: raw
// (first sight of a payload), dictionary (exact repeat), and per-word
// delta (a near-miss of a cached line), plus aborts, uint16 threads,
// forward and backward address deltas, and both load sizes.
func goldenOps() []Op {
	line := make([]byte, 64)
	for i := range line {
		line[i] = byte(i * 11)
	}
	near := append([]byte(nil), line...)
	near[8] ^= 0x5A // one word differs: delta mode
	return []Op{
		{Kind: OpTxBegin, Thread: 0},
		{Kind: OpLoad, Thread: 0, Addr: 0x1000, Size: 8},
		{Kind: OpStore, Thread: 0, Addr: 0x1000, Size: 8, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{Kind: OpTxEnd, Thread: 0},
		{Kind: OpTxBegin, Thread: 7},
		{Kind: OpStore, Thread: 7, Addr: 0x2040, Size: 3, Data: []byte{0xAA, 0xBB, 0xCC}},
		{Kind: OpTxEnd, Thread: 7},
		{Kind: OpTxBegin, Thread: 65535},
		{Kind: OpStore, Thread: 65535, Addr: 0x3000, Size: 8, Data: []byte{8, 7, 6, 5, 4, 3, 2, 1}},
		{Kind: OpTxAbort, Thread: 65535},
		{Kind: OpTxBegin, Thread: 2},
		{Kind: OpLoad, Thread: 2, Addr: 0x8000, Size: 64},
		{Kind: OpStore, Thread: 2, Addr: 0x8000, Size: 64, Data: line},
		{Kind: OpStore, Thread: 2, Addr: 0x9000, Size: 64, Data: append([]byte(nil), line...)},
		{Kind: OpStore, Thread: 2, Addr: 0x8000, Size: 64, Data: near},
		{Kind: OpLoad, Thread: 2, Addr: 0x7F00, Size: 16},
		{Kind: OpScan, Thread: 2, Addr: 0x4000, Size: 5}, // 5 items, 0x4000 value bytes
		{Kind: OpTxEnd, Thread: 2},
	}
}

// opsEquivalent compares decoded ops field for field against the source.
func opsEquivalent(t *testing.T, got, want []Op) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d ops, want %d", len(got), len(want))
	}
	for i := range want {
		w := want[i]
		g := got[i]
		if g.Kind != w.Kind || g.Thread != w.Thread || g.Addr != w.Addr || g.Size != w.Size {
			t.Fatalf("op %d: got %v want %v", i, g, w)
		}
		if !bytes.Equal(g.Data, w.Data) {
			t.Fatalf("op %d: data %x want %x", i, g.Data, w.Data)
		}
	}
}

// TestWireGoldenFixtures pins the v3 wire to a byte fixture in testdata:
// the fixture must keep decoding to the same ops, and the writer must
// keep producing it byte for byte. Regenerate with -update only for a
// deliberate format change.
func TestWireGoldenFixtures(t *testing.T) {
	raw, err := WriteOps(goldenOps())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden_v3.trc")
	if *updateWire {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read fixture (regenerate with -update): %v", err)
	}
	if !bytes.Equal(raw, want) {
		t.Errorf("encoded bytes diverge from fixture (%d vs %d bytes); a deliberate format change needs -update", len(raw), len(want))
	}
	got, err := NewReader(bytes.NewReader(want)).ReadAll()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	opsEquivalent(t, got, goldenOps())
}

// TestReaderRejectsPreV3: the fixed-header v1/v2 formats are no longer
// read; their headers fail with a request to re-record.
func TestReaderRejectsPreV3(t *testing.T) {
	for _, v := range []uint32{1, 2} {
		var h [8 + 15]byte // header plus one op's worth of old-format bytes
		binary.LittleEndian.PutUint32(h[0:], magic)
		binary.LittleEndian.PutUint32(h[4:], v)
		_, err := NewReader(bytes.NewReader(h[:])).ReadAll()
		if err == nil || !strings.Contains(err.Error(), "re-record") {
			t.Errorf("v%d header: got %v, want a re-record error", v, err)
		}
	}
}

// randomOps generates a valid random op stream: arbitrary interleaving of
// kinds across uint16 threads, stores from 1 byte to past the dict's 64-byte
// limit, payload distributions that exercise raw, delta, and dictionary
// encodings, and addresses that stress the per-thread signed deltas.
func randomOps(r *rand.Rand, n int) []Op {
	hot := make([]byte, 64)
	r.Read(hot)
	ops := make([]Op, n)
	for i := range ops {
		threads := []uint16{0, 1, 2, 255, 256, 65535}
		th := threads[r.Intn(len(threads))]
		addr := mem.PAddr(r.Int63n(1 << 40))
		switch r.Intn(10) {
		case 0:
			ops[i] = Op{Kind: OpTxBegin, Thread: th}
		case 1:
			ops[i] = Op{Kind: OpTxEnd, Thread: th}
		case 2:
			ops[i] = Op{Kind: OpTxAbort, Thread: th}
		case 3:
			sizes := []uint32{8, 16, 64, 4096}
			ops[i] = Op{Kind: OpLoad, Thread: th, Addr: addr, Size: sizes[r.Intn(len(sizes))]}
		case 4: // scan: Size carries the item count, Addr the value bytes
			ops[i] = Op{Kind: OpScan, Thread: th, Addr: addr, Size: uint32(r.Intn(1 << 10))}
		default:
			size := []int{1, 7, 8, 63, 64, 65, 200}[r.Intn(7)]
			data := make([]byte, size)
			switch r.Intn(3) {
			case 0: // fresh random payload (raw mode)
				r.Read(data)
			case 1: // repeat of a hot payload (dict mode)
				copy(data, hot)
			case 2: // near-miss of the hot payload (delta mode)
				copy(data, hot)
				data[r.Intn(size)] ^= byte(1 + r.Intn(255))
			}
			ops[i] = Op{Kind: OpStore, Thread: th, Addr: addr, Size: uint32(size), Data: data}
		}
	}
	return ops
}

// TestWireV3RoundtripProperty is the quick-check property: any valid op
// stream round-trips through the v3 encoder bit for bit — kinds, threads,
// addresses, sizes, payloads, scan item counts.
func TestWireV3RoundtripProperty(t *testing.T) {
	prop := func(seed int64, nRaw uint16) bool {
		r := rand.New(rand.NewSource(seed))
		ops := randomOps(r, int(nRaw%512))
		wire, err := WriteOps(ops)
		if err != nil {
			t.Logf("seed %d: encode: %v", seed, err)
			return false
		}
		got, err := NewReader(bytes.NewReader(wire)).ReadAll()
		if err != nil {
			t.Logf("seed %d: decode: %v", seed, err)
			return false
		}
		if len(got) != len(ops) {
			t.Logf("seed %d: %d ops decoded, want %d", seed, len(got), len(ops))
			return false
		}
		for i := range ops {
			w, g := ops[i], got[i]
			if g.Kind != w.Kind || g.Thread != w.Thread || g.Addr != w.Addr ||
				g.Size != w.Size || !bytes.Equal(g.Data, w.Data) {
				t.Logf("seed %d op %d: got %+v want %+v", seed, i, g, w)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestWireV3MidStreamFlush: Flush is a chunk boundary, not a terminator —
// a trace written across many flushes decodes identically to one written
// in a single burst (the dict/delta model persists across chunks).
func TestWireV3MidStreamFlush(t *testing.T) {
	ops := goldenOps()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i, op := range ops {
		if err := w.Write(op); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	opsEquivalent(t, got, ops)
}
