package telemetry

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"hoop/internal/sim"
)

func TestKindNamesRoundTrip(t *testing.T) {
	for k := KindTxBegin; k < numKinds; k++ {
		name := k.String()
		if name == "" || name == "invalid" {
			t.Fatalf("kind %d has no name", k)
		}
		got, ok := KindByName(name)
		if !ok || got != k {
			t.Fatalf("KindByName(%q) = %v, %v; want %v", name, got, ok, k)
		}
	}
	if _, ok := KindByName("bogus"); ok {
		t.Fatal("KindByName accepted unknown name")
	}
	if Kind(200).String() != "invalid" {
		t.Fatal("out-of-range kind should stringify as invalid")
	}
}

func TestMask(t *testing.T) {
	m := MaskOf(KindTxCommit, KindGCStart)
	if !m.Has(KindTxCommit) || !m.Has(KindGCStart) || m.Has(KindLoad) {
		t.Fatalf("MaskOf selected wrong kinds: %b", m)
	}
	for k := KindTxBegin; k < numKinds; k++ {
		if !MaskAll.Has(k) {
			t.Fatalf("MaskAll missing %v", k)
		}
	}
	if MaskAll.Has(kindInvalid) {
		t.Fatal("MaskAll must not select the invalid kind")
	}
}

func TestNilHubIsDisabled(t *testing.T) {
	var h *Hub
	if h.Enabled(KindTxCommit) {
		t.Fatal("nil hub reported enabled")
	}
	h.Emit(Event{Kind: KindTxCommit}) // must not panic
}

func TestHubSubscriptionFiltering(t *testing.T) {
	h := NewHub()
	if h.Enabled(KindGCStart) {
		t.Fatal("empty hub reported enabled")
	}
	var commits, gcs []Event
	h.Subscribe(SinkFunc(func(e Event) { commits = append(commits, e) }), MaskOf(KindTxCommit))
	h.Subscribe(SinkFunc(func(e Event) { gcs = append(gcs, e) }), MaskOf(KindGCStart, KindGCEnd))

	if !h.Enabled(KindTxCommit) || !h.Enabled(KindGCEnd) || h.Enabled(KindLoad) {
		t.Fatal("union mask wrong")
	}
	h.Emit(Event{Kind: KindTxCommit, Tx: 7})
	h.Emit(Event{Kind: KindGCStart, Aux: 3})
	h.Emit(Event{Kind: KindLoad}) // nobody listens
	if len(commits) != 1 || commits[0].Tx != 7 {
		t.Fatalf("commit sink got %v", commits)
	}
	if len(gcs) != 1 || gcs[0].Aux != 3 {
		t.Fatalf("gc sink got %v", gcs)
	}
}

func TestHubMultipleSubscriptions(t *testing.T) {
	h := NewHub()
	var got []Event
	sink := SinkFunc(func(e Event) { got = append(got, e) })
	h.Subscribe(sink, MaskOf(KindTxCommit))
	h.Subscribe(sink, MaskOf(KindGCStart))
	h.Emit(Event{Kind: KindTxCommit})
	h.Emit(Event{Kind: KindGCStart})
	if len(got) != 2 {
		t.Fatalf("sink saw %d events, want 2", len(got))
	}
}

func TestJSONRoundTrip(t *testing.T) {
	cases := []Event{
		{Kind: KindTxCommit, Time: 12345, Core: 2, Tx: 99, Aux: 5600},
		{Kind: KindStore, Time: 7, Core: 0, Tx: 1, Addr: 4096, Bytes: 8, Data: []byte{0xde, 0xad}},
		{Kind: KindCacheMiss, Core: 1, Addr: 64, Flags: FlagWrite},
		{Kind: KindRecovery, Core: -1, Aux: RecoveryPhaseWriteBack, Bytes: 1 << 20},
		{Kind: KindGCStart, Time: 1, Core: -1, Aux: 17, Flags: FlagOnDemand},
	}
	for _, want := range cases {
		line := AppendJSON(nil, want)
		got, err := DecodeJSON(line)
		if err != nil {
			t.Fatalf("DecodeJSON(%s): %v", line, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip mismatch:\n line %s\n got  %+v\n want %+v", line, got, want)
		}
	}
}

func TestJSONOmitsZeroFields(t *testing.T) {
	line := string(AppendJSON(nil, Event{Kind: KindGCEnd, Core: -1}))
	if line != `{"k":"gc_end"}` {
		t.Fatalf("minimal event encoded as %s", line)
	}
	if strings.Contains(line, "core") {
		t.Fatal("core -1 must be omitted")
	}
}

func TestDecodeJSONErrors(t *testing.T) {
	if _, err := DecodeJSON([]byte(`{"k":"nope"}`)); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := DecodeJSON([]byte(`not json`)); err == nil {
		t.Fatal("bad JSON accepted")
	}
	if _, err := DecodeJSON([]byte(`{"k":"store","data":"xyz"}`)); err == nil {
		t.Fatal("bad hex accepted")
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.Emit(Event{Kind: KindTxCommit, Time: 5, Core: 0, Tx: 1})
	s.Emit(Event{Kind: KindGCStart, Time: 9, Core: -1, Aux: 2})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want := `{"k":"tx_commit","t":5,"core":0,"tx":1}` + "\n" +
		`{"k":"gc_start","t":9,"aux":2}` + "\n"
	if buf.String() != want {
		t.Fatalf("JSONL output:\n%swant:\n%s", buf.String(), want)
	}
}

type failWriter struct{ err error }

func (w failWriter) Write(p []byte) (int, error) { return 0, w.err }

func TestJSONLSinkStickyError(t *testing.T) {
	wantErr := errors.New("disk full")
	s := NewJSONLSink(failWriter{err: wantErr})
	big := make([]byte, 128<<10) // force a flush mid-Emit
	s.Emit(Event{Kind: KindStore, Core: 0, Data: big})
	s.Emit(Event{Kind: KindTxCommit, Core: 0})
	if err := s.Flush(); !errors.Is(err, wantErr) {
		t.Fatalf("Flush() = %v, want %v", err, wantErr)
	}
}

func TestCountingSink(t *testing.T) {
	var c CountingSink
	c.Emit(Event{Kind: KindSliceWrite, Bytes: 256})
	c.Emit(Event{Kind: KindSliceWrite, Bytes: 256})
	c.Emit(Event{Kind: KindGCEnd, Bytes: 1024, Aux: 4})
	if c.N(KindSliceWrite) != 2 || c.BytesOf(KindSliceWrite) != 512 {
		t.Fatalf("slice tally n=%d bytes=%d", c.N(KindSliceWrite), c.BytesOf(KindSliceWrite))
	}
	counts := c.Counts()
	if len(counts) != 2 || counts[0].Kind != KindSliceWrite || counts[1].Kind != KindGCEnd {
		t.Fatalf("Counts() = %+v", counts)
	}
}

func TestEventTimeType(t *testing.T) {
	// Compile-time drift guard: Event.Time must stay a sim.Time so traces
	// share the simulator clock domain.
	var e Event
	e.Time = sim.Time(42)
	if e.Time != 42 {
		t.Fatal("unexpected time")
	}
}

// N reports how many events of kind k were seen.
func (c *CountingSink) N(k Kind) int64 {
	if int(k) > NumKinds {
		return 0
	}
	return c.n[k]
}

// BytesOf reports the summed Bytes field of kind k.
func (c *CountingSink) BytesOf(k Kind) int64 {
	if int(k) > NumKinds {
		return 0
	}
	return c.bytes[k]
}
