package logring

import (
	"bytes"
	"testing"

	"hoop/internal/mem"
)

func newRing(t *testing.T, regionBytes uint64, payload int) (*Ring, *mem.Store) {
	t.Helper()
	st := mem.NewStore()
	r, err := New(mem.Region{Base: 4096, Size: regionBytes}, payload)
	if err != nil {
		t.Fatal(err)
	}
	return r, st
}

func TestAppendScanRoundtrip(t *testing.T) {
	r, st := newRing(t, 1<<16, 24)
	var want [][]byte
	for i := 0; i < 20; i++ {
		p := bytes.Repeat([]byte{byte(i + 1)}, 24)
		seq, _ := r.Append(st, p)
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d", seq)
		}
		want = append(want, p)
	}
	var got [][]byte
	r.Scan(st, func(seq uint64, at mem.PAddr, payload []byte) {
		cp := make([]byte, len(payload))
		copy(cp, payload)
		got = append(got, cp)
	})
	if len(got) != len(want) {
		t.Fatalf("scanned %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestTruncateHidesRecords(t *testing.T) {
	r, st := newRing(t, 1<<16, 16)
	for i := 0; i < 10; i++ {
		r.Append(st, make([]byte, 16))
	}
	r.Truncate(st, 7)
	if r.Live() != 3 {
		t.Fatalf("Live = %d", r.Live())
	}
	n := 0
	r.Scan(st, func(seq uint64, _ mem.PAddr, _ []byte) {
		if seq <= 7 {
			t.Fatalf("truncated record %d visible", seq)
		}
		n++
	})
	if n != 3 {
		t.Fatalf("scanned %d, want 3", n)
	}
}

func TestWrapAround(t *testing.T) {
	r, st := newRing(t, mem.LineSize+10*24, 16) // capacity 10
	if r.Capacity() != 10 {
		t.Fatalf("capacity = %d", r.Capacity())
	}
	for round := 0; round < 5; round++ {
		for i := 0; i < 10; i++ {
			p := make([]byte, 16)
			p[0] = byte(round)
			r.Append(st, p)
		}
		if !r.Full() {
			t.Fatal("ring should be full")
		}
		r.Truncate(st, r.NextSeq()-1)
	}
	// After full truncation nothing is live.
	n := 0
	r.Scan(st, func(uint64, mem.PAddr, []byte) { n++ })
	if n != 0 {
		t.Fatalf("scanned %d after truncate-all", n)
	}
}

func TestResetVolatileAfterCrash(t *testing.T) {
	r, st := newRing(t, 1<<16, 16)
	for i := 0; i < 5; i++ {
		r.Append(st, make([]byte, 16))
	}
	r.Truncate(st, 2)
	// "Crash": rebuild a fresh ring over the same region and recover
	// cursors from durable state.
	r2, err := New(mem.Region{Base: 4096, Size: 1 << 16}, 16)
	if err != nil {
		t.Fatal(err)
	}
	r2.ResetVolatile(st)
	if r2.NextSeq() != 6 || r2.Watermark() != 2 {
		t.Fatalf("recovered nextSeq=%d wm=%d", r2.NextSeq(), r2.Watermark())
	}
	n := 0
	r2.Scan(st, func(uint64, mem.PAddr, []byte) { n++ })
	if n != 3 {
		t.Fatalf("recovered %d live records, want 3", n)
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(mem.Region{Base: 0, Size: 64}, 128); err == nil {
		t.Fatal("too-small region must fail")
	}
	r, st := newRing(t, 1<<12, 16)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong payload size must panic")
		}
	}()
	r.Append(st, make([]byte, 8))
}

// Capacity reports how many records fit.
func (r *Ring) Capacity() uint64 { return r.capacity }
