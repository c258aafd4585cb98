package telemetry

import (
	"bytes"
	"errors"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
)

// readAll collects every cell of a cell-marked stream.
func readAll(r io.Reader, maxLine int) ([]Cell, error) {
	var cells []Cell
	err := readCells(r, maxLine, func(c Cell) error {
		cells = append(cells, c)
		return nil
	})
	return cells, err
}

// writeAll writes cells back out as one cell-marked stream.
func writeAll(t *testing.T, cells []Cell) []byte {
	t.Helper()
	var ct CellTrace
	for _, c := range cells {
		s := ct.Add(c.Label)
		for _, e := range c.Events {
			s.Emit(e)
		}
	}
	var buf bytes.Buffer
	if _, err := ct.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCellTraceLayout(t *testing.T) {
	ct := CellTrace{Mask: MaskOf(KindTxCommit, KindRingRoute)}
	router := ct.AddOptional("router")
	a := ct.Add("a")
	ct.Add("empty")
	ct.AddOptional("unused")
	a.Emit(Event{Kind: KindTxCommit, Time: 5, Core: 0, Tx: 1})
	a.Emit(Event{Kind: KindGCStart, Time: 6, Core: -1}) // outside Mask
	router.Emit(Event{Kind: KindRingRoute, Time: 1, Core: -1, Aux: 2})
	if ct.Len() != 4 {
		t.Fatalf("Len = %d, want 4", ct.Len())
	}
	var buf bytes.Buffer
	n, err := ct.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"cell":"router"}
{"k":"ring_route","t":1,"aux":2}
{"cell":"a"}
{"k":"tx_commit","t":5,"core":0,"tx":1}
{"cell":"empty"}
`
	if buf.String() != want || n != int64(len(want)) {
		t.Fatalf("WriteTo wrote %d bytes:\n%s\nwant:\n%s", n, buf.String(), want)
	}
}

func TestCellTraceMarkerEscapes(t *testing.T) {
	var ct CellTrace
	ct.Add(`a"b\c<&>` + "\x01")
	var buf bytes.Buffer
	if _, err := ct.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if want := `{"cell":"a\"b\\c\u003c\u0026\u003e\u0001"}` + "\n"; buf.String() != want {
		t.Fatalf("marker = %q, want %q", buf.String(), want)
	}
	cells, err := readAll(&buf, maxTraceLine)
	if err != nil || len(cells) != 1 || cells[0].Label != `a"b\c<&>`+"\x01" {
		t.Fatalf("read back %+v, %v", cells, err)
	}
}

func TestReadCells(t *testing.T) {
	in := `{"k":"tx_commit","t":1,"core":0}

{"cell":"x"}
{"cell":"y"}
{"k":"gc_start","t":2,"aux":3}
{"k":"gc_end","t":4}
`
	cells, err := readAll(strings.NewReader(in), maxTraceLine)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, c := range cells {
		got = append(got, c.Label+":"+strings.Repeat("e", len(c.Events)))
	}
	if want := ":e x: y:ee"; strings.Join(got, " ") != want {
		t.Fatalf("cells = %q, want %q", strings.Join(got, " "), want)
	}
	if e := cells[2].Events[0]; e.Kind != KindGCStart || e.Time != 2 || e.Aux != 3 || e.Core != -1 {
		t.Fatalf("decoded %+v", e)
	}
	stop := errors.New("stop")
	calls := 0
	err = ReadCells(strings.NewReader(in), func(Cell) error { calls++; return stop })
	if err != stop || calls != 1 {
		t.Fatalf("ReadCells after a failing callback: %v after %d calls", err, calls)
	}
}

func TestReadCellsRejectsMalformedLines(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{`{"cell":5}`, "line 1: bad cell marker"},
		{`{"cell":"a","k":"tx_commit"}`, "line 1: bad cell marker"},
		{`{"cell":"a"}}`, "line 1: bad cell marker"},
		{`{"cell":"a"} {"cell":"b"}`, "line 1: bad cell marker"},
		{`{"cell":"a"` + "\n", "line 1: bad cell marker"},
		{"{\"cell\":\"a\"}\nnot json", "line 2:"},
		{"{\"cell\":\"a\"}\n{\"k\":\"no-such-kind\"}", "line 2: telemetry: unknown event kind"},
		{`{"k":"store","data":"abc"}`, "line 1: telemetry: bad data field"},
		{`{"k":"tx_commit","core":70000}`, "line 1:"},
		{"\n\n" + strings.Repeat("x", 100), "line 3: bufio.Scanner: token too long"},
	} {
		_, err := readAll(strings.NewReader(tc.in), 64)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: error %v, want one containing %q", tc.in, err, tc.want)
		}
	}
}

// endless is a reader that never reaches the end of its line.
type endless struct{}

func (endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	return len(p), nil
}

// TestReadCellsBoundsLineBuffer feeds a line that never ends: the reader
// must give up at its line cap instead of growing its buffer with the
// input.
func TestReadCellsBoundsLineBuffer(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := ReadCells(io.MultiReader(strings.NewReader(`{"cell":"`), endless{}), func(Cell) error { return nil })
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "token too long") {
		t.Fatalf("endless line: %v, want a too-long error", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*maxTraceLine {
		t.Fatalf("reading one over-long line allocated %d bytes, cap is %d", got, maxTraceLine)
	}
}

// fuzzLineCap keeps the fuzzer's over-long lines cheap to build.
const fuzzLineCap = 4 << 10

// FuzzCellStream treats its input as a hostile trace file. The reader
// must return an error, never panic, on any line that is neither a marker
// nor an event and on any line over its cap, and must give up on a line
// that never ends rather than allocate for it. Whatever it accepts must
// survive write -> read -> write unchanged.
//
//	go test ./internal/telemetry -run '^$' -fuzz FuzzCellStream -fuzztime 30s -fuzzminimizetime 5s
func FuzzCellStream(f *testing.F) {
	for _, path := range []string{
		"../harness/testdata/fig7a_hoop_trace.golden.jsonl",
		"../../cmd/hooptop/testdata/cells.jsonl",
		"../../cmd/hooptop/testdata/soak.jsonl",
	} {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"k":"store","t":-3,"core":-5,"data":"ABff"}`))
	f.Add([]byte(`{"cell":"a"}}` + "\n"))
	f.Add([]byte("{\"cell\":\"\\ud800\"}\r\n\n{\"k\":\"tx_commit\"}"))
	f.Add([]byte(strings.Repeat("x", fuzzLineCap+1)))
	f.Fuzz(func(t *testing.T, in []byte) {
		cells, err := readAll(bytes.NewReader(in), fuzzLineCap)
		for _, line := range bytes.Split(in, []byte("\n")) {
			if len(line) > fuzzLineCap && err == nil {
				t.Fatalf("a %d-byte line was accepted over the %d-byte cap", len(line), fuzzLineCap)
			}
		}
		if _, err := readAll(io.MultiReader(bytes.NewReader(in), endless{}), fuzzLineCap); err == nil {
			t.Fatal("a line that never ends was accepted")
		}
		if err != nil {
			return
		}
		first := writeAll(t, cells)
		again, err := readAll(bytes.NewReader(first), maxTraceLine)
		if err != nil {
			t.Fatalf("re-reading the written stream: %v\n%s", err, first)
		}
		if second := writeAll(t, again); !bytes.Equal(first, second) {
			t.Fatalf("write -> read -> write changed the stream:\n%s\n----\n%s", first, second)
		}
	})
}
