package structures

import (
	"fmt"

	"hoop/internal/mem"
	"hoop/internal/pmem"
)

// Queue is a persistent FIFO of fixed-size items built from linked nodes.
//
// Layout:
//
//	header line: [head][tail][count][itemBytes]
//	node:        [next][item...]
type Queue struct {
	m     pmem.Memory
	arena *pmem.Arena
	base  mem.PAddr
	item  int
}

const (
	qOffHead  = 0
	qOffTail  = 8
	qOffCount = 16
	qOffItem  = 24

	qNodeOffNext = 0
	qNodeOffItem = 8
)

// NewQueue allocates an empty queue. Must run inside a transaction.
func NewQueue(m pmem.Memory, a *pmem.Arena, itemBytes int) *Queue {
	if itemBytes <= 0 || itemBytes%mem.WordSize != 0 {
		panic(fmt.Sprintf("structures: item size %d must be a positive word multiple", itemBytes))
	}
	base := a.AllocAligned(mem.LineSize, mem.LineSize)
	m.WriteWord(base+qOffHead, 0)
	m.WriteWord(base+qOffTail, 0)
	m.WriteWord(base+qOffCount, 0)
	m.WriteWord(base+qOffItem, uint64(itemBytes))
	return &Queue{m: m, arena: a, base: base, item: itemBytes}
}

// Len reports the number of queued items.
func (q *Queue) Len() int { return int(q.m.ReadWord(q.base + qOffCount)) }

// Enqueue appends item (the paper's queue benchmark: node write, tail-link
// update, tail pointer, count — about 4 object-level stores). Must run
// inside a transaction.
func (q *Queue) Enqueue(item []byte) {
	q.checkItem(item)
	node := q.arena.Alloc(qNodeOffItem + q.item)
	writeItemChunks(q.m, node+qNodeOffItem, item)
	q.m.WriteWord(node+qNodeOffNext, 0)
	tail := mem.PAddr(q.m.ReadWord(q.base + qOffTail))
	if tail == pmem.Null {
		q.m.WriteWord(q.base+qOffHead, uint64(node))
	} else {
		q.m.WriteWord(tail+qNodeOffNext, uint64(node))
	}
	q.m.WriteWord(q.base+qOffTail, uint64(node))
	q.m.WriteWord(q.base+qOffCount, uint64(q.Len()+1))
}

// Dequeue pops the oldest item into buf, reporting whether the queue was
// non-empty. Must run inside a transaction.
func (q *Queue) Dequeue(buf []byte) bool {
	q.checkItem(buf)
	head := mem.PAddr(q.m.ReadWord(q.base + qOffHead))
	if head == pmem.Null {
		return false
	}
	q.m.Read(head+qNodeOffItem, buf)
	next := q.m.ReadWord(head + qNodeOffNext)
	q.m.WriteWord(q.base+qOffHead, next)
	if next == 0 {
		q.m.WriteWord(q.base+qOffTail, 0)
	}
	q.m.WriteWord(q.base+qOffCount, uint64(q.Len()-1))
	return true
}

func (q *Queue) checkItem(b []byte) {
	if len(b) != q.item {
		panic(fmt.Sprintf("structures: item is %d bytes, queue holds %d-byte items", len(b), q.item))
	}
}
