// Package nstore is a minimal persistent key-value storage engine in the
// spirit of N-store (Arulraj et al., SIGMOD'15), which the paper uses as
// the database back-end for its YCSB and TPC-C experiments (§IV-A). Each
// database owns an arena; tables are persistent hash maps of fixed-size
// records, and every record access flows through the simulated memory
// hierarchy.
package nstore

import (
	"fmt"

	"hoop/internal/mem"
	"hoop/internal/pmem"
	"hoop/internal/structures"
)

// DB is one thread-private database instance (the paper runs one set of
// tables per worker thread).
type DB struct {
	m     pmem.Memory
	arena *pmem.Arena
}

// Open formats a database over region. Must run inside a transaction.
func Open(m pmem.Memory, region mem.Region) *DB {
	a := pmem.NewArena(m, region)
	a.Init()
	return &DB{m: m, arena: a}
}

// Table is a keyed table of fixed-size records.
type Table struct {
	h       *structures.HashMap
	recSize int
}

// CreateTable allocates a table expecting roughly expectKeys records of
// recSize bytes. Must run inside a transaction.
func (db *DB) CreateTable(expectKeys, recSize int) *Table {
	buckets := expectKeys / 4
	if buckets < 16 {
		buckets = 16
	}
	return &Table{
		h:       structures.NewHashMap(db.m, db.arena, buckets, recSize),
		recSize: recSize,
	}
}

// Insert adds or overwrites the record for key. Must run inside a
// transaction.
func (t *Table) Insert(key uint64, rec []byte) {
	if len(rec) != t.recSize {
		panic(fmt.Sprintf("nstore: record is %d bytes, table holds %d", len(rec), t.recSize))
	}
	t.h.Put(key, rec)
}

// Update is Insert for existing keys (N-store updates are full-record
// writes).
func (t *Table) Update(key uint64, rec []byte) { t.Insert(key, rec) }

// Read fetches the record for key into buf.
func (t *Table) Read(key uint64, buf []byte) bool {
	return t.h.Get(key, buf)
}

// OrderedTable is a keyed table of fixed-size records with ascending-key
// range scans, backed by the persistent B-tree. The YCSB A–F suite runs
// over it (workload E needs scans, which the hash-backed Table cannot
// serve).
type OrderedTable struct {
	bt      *structures.BTree
	recSize int
}

// CreateOrderedTable allocates an ordered table of recSize-byte records.
// Must run inside a transaction.
func (db *DB) CreateOrderedTable(recSize int) *OrderedTable {
	return &OrderedTable{
		bt:      structures.NewBTree(db.m, db.arena, recSize),
		recSize: recSize,
	}
}

// Insert adds or overwrites the record for key. Must run inside a
// transaction.
func (t *OrderedTable) Insert(key uint64, rec []byte) {
	if len(rec) != t.recSize {
		panic(fmt.Sprintf("nstore: record is %d bytes, table holds %d", len(rec), t.recSize))
	}
	t.bt.Put(key, rec)
}

// Update is Insert for existing keys (full-record writes).
func (t *OrderedTable) Update(key uint64, rec []byte) { t.Insert(key, rec) }

// Read fetches the record for key into buf.
func (t *OrderedTable) Read(key uint64, buf []byte) bool {
	return t.bt.Get(key, buf)
}

// Scan reads up to max records with key >= start in ascending key order,
// reusing buf per record, and returns the number read.
func (t *OrderedTable) Scan(start uint64, max int, buf []byte) int {
	return t.bt.Scan(start, max, buf, nil)
}
