package trace

import (
	"fmt"

	"hoop/internal/engine"
)

// Cursor feeds one thread's pre-segmented (SplitTxs) transactions to the
// engine, one segment per RunTx call, exactly as the direct workload
// runner would have issued them. It implements engine.TxRunner. A Cursor
// is reusable: Reset points it at another thread's segments while keeping
// its load scratch buffer, so a pool of warm cursors replays cell after
// cell with zero per-op and zero steady-state per-cell allocation.
type Cursor struct {
	label   string
	thread  int
	txs     [][]Op
	payload []byte
	next    int
	buf     []byte
}

// Reset points the cursor at a thread's transaction segments and the
// capture's store-data buffer. label names the capture (for the ran-dry
// panic); the scratch buffer is retained.
func (c *Cursor) Reset(label string, thread int, txs [][]Op, payload []byte) {
	c.label = label
	c.thread = thread
	c.txs = txs
	c.payload = payload
	c.next = 0
}

// RunTx replays the next recorded transaction. Running dry means the
// capture's padding was undersized for the requested window — a harness
// bug — so it panics rather than silently measuring a partial run.
func (c *Cursor) RunTx(env *engine.Env) {
	if c.next >= len(c.txs) {
		panic(fmt.Sprintf("trace: %s replay ran thread %d dry after %d recorded transactions (capture padding too small)",
			c.label, c.thread, c.next))
	}
	for _, op := range c.txs[c.next] {
		var err error
		c.buf, err = ApplyOp(env, op, c.payload, c.buf)
		if err != nil {
			panic(err)
		}
	}
	c.next++
}

var _ engine.TxRunner = (*Cursor)(nil)
