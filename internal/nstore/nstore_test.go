package nstore

import (
	"bytes"
	"testing"

	"hoop/internal/mem"
	"hoop/internal/pmem"
	"hoop/internal/sim"
)

func TestTableCRUD(t *testing.T) {
	d := pmem.NewDirect()
	db := Open(d, mem.Region{Base: 0, Size: 16 << 20})
	tbl := db.CreateTable(256, 128)
	if tbl.RecSize() != 128 {
		t.Fatal("RecSize")
	}
	rec := bytes.Repeat([]byte{7}, 128)
	tbl.Insert(42, rec)
	got := make([]byte, 128)
	if !tbl.Read(42, got) || !bytes.Equal(got, rec) {
		t.Fatal("Read after Insert")
	}
	rec2 := bytes.Repeat([]byte{9}, 128)
	tbl.Update(42, rec2)
	tbl.Read(42, got)
	if !bytes.Equal(got, rec2) {
		t.Fatal("Update")
	}
	if !tbl.Delete(42) || tbl.Read(42, got) {
		t.Fatal("Delete")
	}
	if tbl.Len() != 0 {
		t.Fatal("Len")
	}
}

func TestTableAgainstOracle(t *testing.T) {
	d := pmem.NewDirect()
	db := Open(d, mem.Region{Base: 0, Size: 64 << 20})
	tbl := db.CreateTable(1024, 64)
	r := sim.NewRand(3)
	oracle := map[uint64][]byte{}
	for i := 0; i < 3000; i++ {
		k := uint64(r.Intn(500))
		rec := make([]byte, 64)
		for j := range rec {
			rec[j] = byte(r.Uint64())
		}
		tbl.Insert(k, rec)
		oracle[k] = rec
	}
	buf := make([]byte, 64)
	for k, v := range oracle {
		if !tbl.Read(k, buf) || !bytes.Equal(buf, v) {
			t.Fatalf("key %d", k)
		}
	}
	if tbl.Len() != len(oracle) {
		t.Fatalf("Len=%d oracle=%d", tbl.Len(), len(oracle))
	}
}

func TestWrongRecordSizePanics(t *testing.T) {
	d := pmem.NewDirect()
	db := Open(d, mem.Region{Base: 0, Size: 1 << 20})
	tbl := db.CreateTable(16, 64)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tbl.Insert(1, make([]byte, 32))
}

// RecSize reports the table's record size.
func (t *Table) RecSize() int { return t.recSize }

// Len reports the number of records.
func (t *Table) Len() int { return t.h.Len() }

// Delete removes key. Must run inside a transaction.
func (t *Table) Delete(key uint64) bool { return t.h.Delete(key) }
