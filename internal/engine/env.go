package engine

import (
	"encoding/binary"
	"fmt"

	"hoop/internal/mem"
	"hoop/internal/sim"
	"hoop/internal/telemetry"
)

// Env is the memory interface handed to workload code. Every access is
// word-aligned (the pmem layer guarantees this) and is simulated through
// the cache hierarchy and the persistence scheme before the functional
// value is returned from the logical view. On a detached system (see
// System.Detach) each method skips that timing work and keeps only the
// functional view, the abort rollback and its per-op event.
type Env struct {
	sys    *System
	thread int
	core   int
	// Scratch word buffers for ReadWord/WriteWord. A stack buffer would
	// escape through the scheme/view interface calls and cost one heap
	// allocation per access; the Env is thread-private, and every callee
	// copies what it keeps, so reuse is safe.
	rbuf [mem.WordSize]byte
	wbuf [mem.WordSize]byte
}

// NewEnv binds an environment to thread t (thread t runs on core t).
func (s *System) NewEnv(t int) *Env {
	if t < 0 || t >= s.cfg.Threads {
		panic(fmt.Sprintf("engine: thread %d out of range", t))
	}
	return &Env{sys: s, thread: t, core: t}
}

// Now reports the thread's simulated time.
func (e *Env) Now() sim.Time { return e.sys.clocks[e.thread].Now() }

// AdvanceTo moves the thread's clock forward to t if t is later than the
// current time — the thread idles until t. The service tier uses it to
// align a shard with a request's open-loop arrival time; it never moves
// time backwards.
func (e *Env) AdvanceTo(t sim.Time) {
	if !e.sys.detached {
		e.sys.clocks[e.thread].AdvanceTo(t)
	}
}

// TxBegin opens a failure-atomic region (the paper's Tx_begin).
func (e *Env) TxBegin() {
	s := e.sys
	if s.txOpen[e.thread] {
		panic("engine: nested transactions are not supported")
	}
	clk := s.clocks[e.thread]
	if !s.detached {
		// Background machinery (GC, checkpointing) catches up between
		// transactions.
		s.scheme.Tick(clk.Now())
		clk.AdvanceCycles(2) // set transaction state bit
		tx, t := s.scheme.TxBegin(e.core, clk.Now())
		clk.AdvanceTo(t)
		s.txID[e.thread] = tx
		s.txBegan[e.thread] = clk.Now()
	}
	s.txOpen[e.thread] = true
	if s.undo != nil {
		s.undo[e.thread].reset()
	}
	if s.tel.Enabled(telemetry.KindTxBegin) {
		s.tel.Emit(telemetry.Event{
			Kind: telemetry.KindTxBegin,
			Time: clk.Now(),
			Core: int16(e.thread),
			Tx:   uint64(s.txID[e.thread]),
		})
	}
}

// TxEnd commits the transaction; on return the updates are durable under
// the scheme's guarantee.
func (e *Env) TxEnd() {
	s := e.sys
	if !s.txOpen[e.thread] {
		panic("engine: TxEnd without TxBegin")
	}
	clk := s.clocks[e.thread]
	var lat sim.Duration
	if !s.detached {
		clk.AdvanceCycles(2) // clear transaction state bit / commit barrier
		t := s.scheme.TxEnd(e.core, s.txID[e.thread], clk.Now())
		clk.AdvanceTo(t)
		lat = clk.Now() - s.txBegan[e.thread]
		s.txLatSum += lat
		s.txLatHist.Observe(lat)
		s.txCount++
	}
	s.txOpen[e.thread] = false
	if s.tel.Enabled(telemetry.KindTxCommit) {
		s.tel.Emit(telemetry.Event{
			Kind: telemetry.KindTxCommit,
			Time: clk.Now(),
			Core: int16(e.thread),
			Tx:   uint64(s.txID[e.thread]),
			Aux:  int64(lat),
		})
	}
	if s.oracle != nil {
		for _, w := range s.txWrites[e.thread] {
			s.oracle.Write(w.addr, w.data)
		}
	}
	s.txWrites[e.thread] = s.txWrites[e.thread][:0]
}

// TxAbort abandons the open transaction (requires Config.Abortable): the
// volatile view rolls back to its pre-transaction contents, then the
// scheme discards or neutralizes its durable traces — HOOP's OOP slices
// become dead garbage for free, undo logging restores old images in the
// foreground, redo-style schemes just drop their write sets. Aborted
// writes never reach the committed-write oracle.
func (e *Env) TxAbort() {
	s := e.sys
	if !s.txOpen[e.thread] {
		panic("engine: TxAbort without TxBegin")
	}
	if s.undo == nil {
		panic("engine: TxAbort requires Config.Abortable")
	}
	// Roll the view back in reverse write order so the oldest pre-image of
	// a re-written address wins. This happens before the scheme hook: the
	// persist.Scheme contract lets abort paths read restored pre-images
	// from View (the undo baseline forces them home).
	u := &s.undo[e.thread]
	for i := len(u.spans) - 1; i >= 0; i-- {
		sp := u.spans[i]
		s.view.Write(sp.addr, u.buf[sp.off:sp.off+sp.n])
	}
	u.reset()
	clk := s.clocks[e.thread]
	if !s.detached {
		clk.AdvanceCycles(2) // clear transaction state bit
		t := s.scheme.TxAbort(e.core, s.txID[e.thread], clk.Now())
		clk.AdvanceTo(t)
		s.txAborts++
	}
	s.txOpen[e.thread] = false
	if s.tel.Enabled(telemetry.KindTxAbort) {
		s.tel.Emit(telemetry.Event{
			Kind: telemetry.KindTxAbort,
			Time: clk.Now(),
			Core: int16(e.thread),
			Tx:   uint64(s.txID[e.thread]),
			Aux:  int64(clk.Now() - s.txBegan[e.thread]),
		})
	}
	s.txWrites[e.thread] = s.txWrites[e.thread][:0]
}

// Read performs a load of len(buf) bytes at addr, filling buf with the
// current logical contents. addr and len(buf) must be word-aligned.
func (e *Env) Read(addr mem.PAddr, buf []byte) {
	checkAligned(addr, len(buf))
	s := e.sys
	clk := s.clocks[e.thread]
	if !s.detached {
		clk.Advance(s.cfg.OpCost)
		e.access(addr, len(buf), false)
		if s.hook != nil {
			clk.AdvanceTo(s.hook.LoadOverhead(e.core, addr, clk.Now()))
		}
		s.loadOps++
		s.statTxLoads.Inc()
	}
	s.view.Read(addr, buf)
	if s.tel.Enabled(telemetry.KindLoad) {
		s.tel.Emit(telemetry.Event{
			Kind:  telemetry.KindLoad,
			Time:  clk.Now(),
			Core:  int16(e.thread),
			Tx:    uint64(s.txID[e.thread]),
			Addr:  addr,
			Bytes: int64(len(buf)),
		})
	}
}

// ReadWord loads the 8-byte word at addr.
func (e *Env) ReadWord(addr mem.PAddr) uint64 {
	e.Read(addr, e.rbuf[:])
	return leU64(e.rbuf[:])
}

// Write performs a transactional store of data at addr. It must be called
// inside a transaction; addr and len(data) must be word-aligned.
func (e *Env) Write(addr mem.PAddr, data []byte) {
	checkAligned(addr, len(data))
	s := e.sys
	if !s.txOpen[e.thread] {
		panic("engine: store outside a transaction (wrap updates in TxBegin/TxEnd)")
	}
	clk := s.clocks[e.thread]
	if !s.detached {
		clk.Advance(s.cfg.OpCost)
		e.access(addr, len(data), true)
		t := s.scheme.Store(e.core, s.txID[e.thread], addr, data, clk.Now())
		clk.AdvanceTo(t)
		s.storeOps++
		s.statTxStores.Inc()
	}
	if s.undo != nil {
		// Capture the pre-image (the view is written below, after the
		// scheme hook) so TxAbort can roll the view back. The arena append
		// reserves the span; the read then fills it with the old bytes.
		u := &s.undo[e.thread]
		off := len(u.buf)
		u.buf = append(u.buf, data...)
		s.view.Read(addr, u.buf[off:off+len(data)])
		u.spans = append(u.spans, undoSpan{addr: addr, off: off, n: len(data)})
	}
	if s.oracle != nil {
		cp := make([]byte, len(data))
		copy(cp, data)
		s.txWrites[e.thread] = append(s.txWrites[e.thread], writeRec{addr: addr, data: cp})
	}
	s.view.Write(addr, data)
	if s.tel.Enabled(telemetry.KindStore) {
		s.tel.Emit(telemetry.Event{
			Kind:  telemetry.KindStore,
			Time:  clk.Now(),
			Core:  int16(e.thread),
			Tx:    uint64(s.txID[e.thread]),
			Addr:  addr,
			Bytes: int64(len(data)),
			Data:  data,
		})
	}
}

// WriteWord stores the 8-byte word v at addr. Store events alias the
// written bytes only for the duration of Emit (sinks copy what they
// keep), so the traced path shares the per-env scratch buffer too and
// stays allocation-free.
func (e *Env) WriteWord(addr mem.PAddr, v uint64) {
	putLE64(e.wbuf[:], v)
	e.Write(addr, e.wbuf[:])
}

// NoteScan accounts one structure-level range scan that read items values
// totalling bytes. The data and node accesses were already simulated (and
// charged) through Read; NoteScan only records the op-level fact — scan
// counters and one KindScan event — so reports can attribute traffic to
// scans without per-item event volume. It advances no clock.
func (e *Env) NoteScan(items, bytes int) {
	s := e.sys
	if !s.detached {
		s.statScanOps.Inc()
		s.statScanItems.Add(int64(items))
	}
	if s.tel.Enabled(telemetry.KindScan) {
		s.tel.Emit(telemetry.Event{
			Kind:  telemetry.KindScan,
			Time:  s.clocks[e.thread].Now(),
			Core:  int16(e.thread),
			Tx:    uint64(s.txID[e.thread]),
			Bytes: int64(bytes),
			Aux:   int64(items),
		})
	}
}

// access simulates the cache behaviour of touching [addr, addr+size).
func (e *Env) access(addr mem.PAddr, size int, write bool) {
	s := e.sys
	clk := s.clocks[e.thread]
	for a := mem.LineAddr(addr); a < addr+mem.PAddr(size); a += mem.LineSize {
		r := s.hier.Lookup(e.core, a, write)
		clk.Advance(r.Latency)
		if r.HitLevel != 0 {
			continue
		}
		done, fillDirty := s.scheme.ReadMiss(e.core, a, clk.Now())
		clk.AdvanceTo(done)
		for _, line := range s.hier.Fill(e.core, a, write || fillDirty) {
			t := s.scheme.Evict(e.core, line, clk.Now())
			clk.AdvanceTo(t)
		}
	}
}

func checkAligned(addr mem.PAddr, n int) {
	if !mem.IsWordAligned(addr) || n%mem.WordSize != 0 || n == 0 {
		panic(fmt.Sprintf("engine: access must be word-aligned and non-empty (addr=%v, n=%d)", addr, n))
	}
}

func leU64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

func putLE64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }
