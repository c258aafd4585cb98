// Package lsm implements the LSM comparison point, modeled on LSNVMM (Hu et
// al., USENIX ATC'17 [17]): software log-structured non-volatile main
// memory. Every update is appended to a log, and a DRAM-cached address
// mapping — implemented with a skip list, as in the paper's §IV-A — maps
// home addresses to log locations. Appending avoids the double writes of
// undo/redo logging, but every load pays an O(log N) software index lookup,
// the "High read latency" of Table I. A background GC (run at the same
// frequency as HOOP's, for fairness) migrates committed values to their
// home addresses and resets the log.
package lsm

import (
	"encoding/binary"
	"fmt"

	"hoop/internal/mem"
	"hoop/internal/persist"
	"hoop/internal/sim"
	"hoop/internal/skiplist"
	"hoop/internal/telemetry"
	"hoop/internal/u64map"
)

// Log record: [magic u32][epoch u32][txid u64][addr u64][len u32][pad u32]
// followed by len bytes of data rounded up to 8. A commit record carries
// the commitSentinel address (no real store can target it) and len == 0.
const (
	recMagic   = 0x4C534E4D // "LSNM"
	recHdrSize = 32
)

// commitSentinel marks commit records; it is outside any addressable
// region of the simulated device.
const commitSentinel mem.PAddr = ^mem.PAddr(0)

// Software cost constants. The index is cached in DRAM and its upper
// levels stay warm in the CPU caches, so per-hop cost is far below a DRAM
// round trip; the point is that it grows with log₂(N).
const (
	indexHopCost    = 1200 * sim.Picosecond
	indexLookupBase = 6 * sim.Nanosecond
	indexInsertBase = 10 * sim.Nanosecond
	commitFence     = 40 * sim.Nanosecond
)

// Config tunes the LSM baseline.
type Config struct {
	// GCPeriod matches HOOP's GC frequency (§IV-A: "we conduct GC
	// operations in LSNVMM at the same frequency as HOOP").
	GCPeriod sim.Duration
}

// DefaultConfig mirrors HOOP's defaults.
func DefaultConfig() Config { return Config{GCPeriod: 10 * sim.Millisecond} }

// Scheme is the log-structured NVM baseline.
type Scheme struct {
	ctx   persist.Context
	cfg   Config
	alloc persist.TxnAllocator

	logBase mem.PAddr
	logEnd  mem.PAddr
	cursor  mem.PAddr
	epoch   uint32

	index     *skiplist.List     // home word addr -> log data addr
	lineWords u64map.Map[int32]  // home line -> log-resident word count
	records   []record           // volatile mirror of live log records
	committed u64map.Set         // tx committed since last GC
	liveTx    u64map.Map[txRecs] // live tx -> its records

	// GC coalescing table, cleared and reused across passes.
	gcLines persist.Coalescer

	nextGC  sim.Time
	gcBusy  sim.Time
	gcAgent int

	statTxCommitted *sim.Counter
	statGCRuns      *sim.Counter
	statGCScanned   *sim.Counter
	statGCMigrated  *sim.Counter
}

// record mirrors one live log record.
type record struct {
	tx   persist.TxID
	addr mem.PAddr // home address (0 = commit record)
	n    int
	at   mem.PAddr // record header address in the log
}

// txRecs locates a live transaction's n records: the first sits at
// records[first] and the rest after it. runGC defers while any transaction
// is live, so records is never truncated under one.
type txRecs struct{ first, n int32 }

// New builds the scheme; the log occupies the layout's OOP region.
func New(ctx persist.Context, cfg Config) (*Scheme, error) {
	if ctx.Layout.OOP.Size < 1<<20 {
		return nil, fmt.Errorf("lsm: log region too small (%d bytes)", ctx.Layout.OOP.Size)
	}
	s := &Scheme{
		ctx:             ctx,
		cfg:             cfg,
		logBase:         ctx.Layout.OOP.Base + mem.LineSize,
		logEnd:          ctx.Layout.OOP.End(),
		index:           skiplist.New(0xBEEF),
		nextGC:          cfg.GCPeriod,
		gcAgent:         ctx.Cores,
		statTxCommitted: ctx.Stats.Counter(sim.StatTxCommitted),
		statGCRuns:      ctx.Stats.Counter(sim.StatGCRuns),
		statGCScanned:   ctx.Stats.Counter(sim.StatGCBytesScanned),
		statGCMigrated:  ctx.Stats.Counter(sim.StatGCBytesMigrated),
	}
	s.cursor = s.logBase
	// Adopt the durable epoch if the device already carries one (rebuilding
	// over a crashed image must not clobber the epoch the log was written
	// under — Recover would then skip every live record). Only a pristine
	// device gets the initial header written.
	if e, ok := s.readEpochOK(); ok {
		s.epoch = e
	} else {
		s.writeEpoch()
	}
	return s, nil
}

// SchemeName is the registry name and figure label of this baseline.
const SchemeName = "LSM"

func init() {
	persist.Register(SchemeName, func(ctx persist.Context, opt any) (persist.Scheme, error) {
		cfg := DefaultConfig()
		switch o := opt.(type) {
		case nil:
		case Config:
			cfg = o
		default:
			return nil, fmt.Errorf("lsm: options must be lsm.Config, got %T", opt)
		}
		return New(ctx, cfg)
	})
}

var _ persist.Quiescer = (*Scheme)(nil)

// Name implements persist.Scheme.
func (s *Scheme) Name() string { return "LSM" }

// Properties implements persist.Scheme (Table I, LSNVMM row).
func (s *Scheme) Properties() persist.Properties {
	return persist.Properties{ReadLatency: "High", OnCriticalPath: false, NeedFlushFence: false, WriteTraffic: "Medium"}
}

func (s *Scheme) writeEpoch() {
	var b [mem.LineSize]byte
	binary.LittleEndian.PutUint32(b[0:], recMagic)
	binary.LittleEndian.PutUint32(b[4:], s.epoch)
	s.ctx.Dev.Store().Write(s.ctx.Layout.OOP.Base, b[:])
}

func (s *Scheme) readEpoch() uint32 {
	e, _ := s.readEpochOK()
	return e
}

// readEpochOK reports the durable epoch and whether the epoch header has
// ever been written (magic present).
func (s *Scheme) readEpochOK() (uint32, bool) {
	var b [mem.LineSize]byte
	s.ctx.Dev.Store().Read(s.ctx.Layout.OOP.Base, b[:])
	if binary.LittleEndian.Uint32(b[0:]) != recMagic {
		return 0, false
	}
	return binary.LittleEndian.Uint32(b[4:]), true
}

func recSize(n int) mem.PAddr {
	return mem.PAddr(recHdrSize + (n+7)&^7)
}

// recTraffic is the accounted NVM traffic for one record: LSNVMM's log
// entries carry a compact 16-byte header (address + length packed with the
// transaction tag); our durable layout uses a 32-byte header for decoding
// convenience, but traffic is charged at the real format's cost.
func recTraffic(n int) int {
	return 16 + (n+7)&^7
}

// appendRecord durably writes one log record at the cursor.
func (s *Scheme) appendRecord(tx persist.TxID, addr mem.PAddr, data []byte) (at mem.PAddr, size int) {
	size = int(recSize(len(data)))
	if s.cursor+mem.PAddr(size) > s.logEnd {
		panic("lsm: log region exhausted (increase region or GC frequency)")
	}
	var hdr [recHdrSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], recMagic)
	binary.LittleEndian.PutUint32(hdr[4:], s.epoch)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(tx))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(addr))
	binary.LittleEndian.PutUint32(hdr[24:], uint32(len(data)))
	at = s.cursor
	st := s.ctx.Dev.Store()
	// Body first, then the first header unit (magic+epoch) last: that unit
	// is the atomic write that makes the record decodable, so a crash
	// mid-record leaves a slot whose magic/epoch does not match and the
	// recovery scan stops cleanly before the tear.
	st.Write(at+8, hdr[8:])
	if len(data) > 0 {
		st.Write(at+recHdrSize, data)
	}
	st.Write(at, hdr[:8])
	s.cursor += mem.PAddr(size)
	s.records = append(s.records, record{tx: tx, addr: addr, n: len(data), at: at})
	return at, size
}

// TxBegin implements persist.Scheme.
func (s *Scheme) TxBegin(core int, now sim.Time) (persist.TxID, sim.Time) {
	tx := s.alloc.Next()
	s.liveTx.Put(uint64(tx), txRecs{})
	return tx, now
}

// Store implements persist.Scheme: append the update to the log (posted
// write) and insert the log location into the DRAM index — the skip-list
// insertion cost lands on the critical path because it is software.
func (s *Scheme) Store(core int, tx persist.TxID, addr mem.PAddr, val []byte, now sim.Time) sim.Time {
	at, _ := s.appendRecord(tx, addr, val)
	s.ctx.Ctrl.PostWrite(core, at, recTraffic(len(val)), now)
	if s.ctx.Tel.Enabled(telemetry.KindLogWrite) {
		s.ctx.Tel.Emit(telemetry.Event{
			Kind: telemetry.KindLogWrite, Time: now, Core: int16(core),
			Tx: uint64(tx), Addr: at, Bytes: int64(recTraffic(len(val))),
		})
	}
	l := s.liveTx.Ref(uint64(tx))
	if l.n == 0 {
		l.first = int32(len(s.records) - 1) // the record just appended
	}
	l.n++
	// One index insertion per word, charged at the deepest one's hops.
	words := (len(val) + mem.WordSize - 1) / mem.WordSize
	hops := s.index.SetSeq(uint64(addr), uint64(at+recHdrSize), mem.WordSize, words)
	for off := 0; off < len(val); off += mem.WordSize {
		*s.lineWords.Ref(mem.LineIndex(addr + mem.PAddr(off)))++
	}
	return now + indexInsertBase + sim.Duration(hops)*indexHopCost
}

// TxEnd implements persist.Scheme: drain the posted appends, then persist
// the commit record with a fence.
func (s *Scheme) TxEnd(core int, tx persist.TxID, now sim.Time) sim.Time {
	if l, _ := s.liveTx.Get(uint64(tx)); l.n > 0 {
		now = s.ctx.Ctrl.Drain(core, now)
		at, _ := s.appendRecord(tx, commitSentinel, nil)
		now = s.ctx.Ctrl.Write(at, recTraffic(0), now)
		now += commitFence
		s.committed.Add(uint64(tx))
		if s.ctx.Tel.Enabled(telemetry.KindLogWrite) {
			s.ctx.Tel.Emit(telemetry.Event{
				Kind: telemetry.KindLogWrite, Time: now, Core: int16(core),
				Tx: uint64(tx), Addr: at, Bytes: int64(recTraffic(0)),
			})
		}
	}
	s.liveTx.Delete(uint64(tx))
	s.statTxCommitted.Inc()
	return now
}

// TxAbort implements persist.Scheme. The aborted records already sit in
// the log, but they carry no commit sentinel, so GC coalescing and
// recovery both skip them — durably the abort is free, the records are
// dead space until the next epoch reset. Volatile state must be unwound:
// the index entries and per-line word counts the aborted stores installed
// are removed (a software walk, so the skip-list hop cost lands on the
// critical path), and the live-transaction entry is dropped — GC defers
// while any transaction is live, and an aborted one must not pin it.
func (s *Scheme) TxAbort(core int, tx persist.TxID, now sim.Time) sim.Time {
	var hops, words int
	l, _ := s.liveTx.Delete(uint64(tx))
	// Walk only the transaction's own records, in append order (the hop
	// count depends on the deletion order): from its first to its last.
	for i, left := int(l.first), l.n; left > 0; i++ {
		r := &s.records[i]
		if r.tx != tx {
			continue
		}
		left--
		for off := 0; off < r.n; off += mem.WordSize {
			w := r.addr + mem.PAddr(off)
			if _, h := s.index.Delete(uint64(w)); h > hops {
				hops = h
			}
			words++
			p := s.lineWords.Ref(mem.LineIndex(w))
			*p--
			if *p <= 0 {
				s.lineWords.Delete(mem.LineIndex(w))
			}
		}
	}
	if words > 0 {
		now += sim.Duration(words)*indexInsertBase + sim.Duration(hops)*indexHopCost
	}
	return now
}

// LoadOverhead implements the optional per-load hook: every read must
// translate its home address through the software index, costing
// O(log N) hops.
func (s *Scheme) LoadOverhead(core int, addr mem.PAddr, now sim.Time) sim.Time {
	_, _, hops := s.index.Get(uint64(mem.WordAddr(addr)))
	return now + indexLookupBase + sim.Duration(hops)*indexHopCost
}

// ReadMiss implements persist.Scheme: if any word of the line lives in the
// log, the line is reconstructed from the log entry and the home copy.
func (s *Scheme) ReadMiss(core int, addr mem.PAddr, now sim.Time) (sim.Time, bool) {
	line := mem.LineIndex(addr)
	if n, _ := s.lineWords.Get(line); n > 0 {
		logAt, ok, _ := s.index.Get(uint64(mem.WordAddr(addr)))
		if !ok {
			logAt = uint64(s.logBase)
		}
		logDone := s.ctx.Ctrl.Read(mem.PAddr(logAt), mem.LineSize, now)
		homeDone := s.ctx.Ctrl.Read(mem.LineAddr(addr), mem.LineSize, now)
		return sim.MaxTime(logDone, homeDone), true
	}
	return s.ctx.Ctrl.Read(mem.LineAddr(addr), mem.LineSize, now), false
}

// Evict implements persist.Scheme: transactional data lives in the log, so
// evicted lines are dropped.
func (s *Scheme) Evict(core int, line mem.PAddr, now sim.Time) sim.Time {
	return now
}

// Tick implements persist.Scheme: run the periodic log GC.
func (s *Scheme) Tick(now sim.Time) {
	for s.nextGC <= now {
		s.runGC(s.nextGC)
		s.nextGC += s.cfg.GCPeriod
	}
}

// ForceGC runs a GC pass immediately (harness: close a measurement window
// with migration traffic accounted, mirroring hoop.Scheme.ForceGC).
func (s *Scheme) ForceGC(now sim.Time) { s.runGC(now) }

// Quiesce implements persist.Quiescer: drain the deferred log GC.
func (s *Scheme) Quiesce(now sim.Time) { s.ForceGC(now) }

// runGC migrates the newest committed value of every logged word to its
// home address, then resets the log under a new epoch. It requires no live
// transactions (the engine ticks between transactions); records of
// uncommitted-but-crashed transactions never occur during a run.
func (s *Scheme) runGC(start sim.Time) {
	if s.liveTx.Len() > 0 {
		// Defer: a GC with live transactions would have to relocate
		// their records; the next between-transaction tick will run it.
		return
	}
	if len(s.records) == 0 {
		return
	}
	arr := sim.MaxTime(start, s.gcBusy)
	t := arr
	s.statGCRuns.Inc()
	if s.ctx.Tel.Enabled(telemetry.KindGCStart) {
		s.ctx.Tel.Emit(telemetry.Event{
			Kind: telemetry.KindGCStart, Time: arr, Core: -1,
			Aux: int64(len(s.records)),
		})
	}
	scannedBefore := s.statGCScanned.Value()
	migratedBefore := s.statGCMigrated.Value()
	// newest is the pass-scoped coalescing table, cleared and reused so a
	// steady GC cadence performs no allocation (the same table HOOP's GC
	// coalesces through).
	newest := &s.gcLines
	newest.Clear()
	st := s.ctx.Dev.Store()
	for i := len(s.records) - 1; i >= 0; i-- {
		r := s.records[i]
		if r.addr == commitSentinel || !s.committed.Contains(uint64(r.tx)) {
			continue
		}
		t = sim.MaxTime(t, s.ctx.Ctrl.Read(r.at, recHdrSize+r.n, arr))
		s.statGCScanned.Add(int64(recHdrSize + r.n))
		for off := 0; off < r.n; off += mem.WordSize {
			if p, fresh := newest.Ref(r.addr + mem.PAddr(off)); fresh {
				st.Read(r.at+recHdrSize+mem.PAddr(off), p[:])
			}
		}
	}
	newest.Migrate(st, func(lineAddr mem.PAddr, n int) {
		t = sim.MaxTime(t, s.ctx.Ctrl.Write(lineAddr, n, arr))
		s.statGCMigrated.Add(int64(n))
	})
	// Reset the log under a fresh epoch.
	s.epoch++
	s.writeEpoch()
	t = sim.MaxTime(t, s.ctx.Ctrl.Write(s.ctx.Layout.OOP.Base, mem.LineSize, arr))
	s.cursor = s.logBase
	s.records = s.records[:0]
	s.committed.Clear()
	s.index.Clear()
	s.lineWords.Clear()
	if s.ctx.Tel.Enabled(telemetry.KindGCEnd) {
		s.ctx.Tel.Emit(telemetry.Event{
			Kind: telemetry.KindGCEnd, Time: t, Core: -1,
			Bytes: s.statGCMigrated.Value() - migratedBefore,
			Aux:   s.statGCScanned.Value() - scannedBefore,
		})
	}
	s.gcBusy = t
}

// Crash implements persist.Scheme: the DRAM index and all volatile cursors
// are lost.
func (s *Scheme) Crash() {
	s.index.Clear()
	s.lineWords.Clear()
	s.records = s.records[:0]
	s.committed.Clear()
	s.liveTx.Clear()
	s.ctx.Ctrl.ResetPending()
}

// Recover implements persist.Scheme: scan the log from its base under the
// durable epoch, replay committed transactions' records in append order,
// and reset the log.
func (s *Scheme) Recover(threads int) (sim.Duration, error) {
	st := s.ctx.Dev.Store()
	epoch := s.readEpoch()
	type rec struct {
		tx   persist.TxID
		addr mem.PAddr
		n    int
		at   mem.PAddr
	}
	var recs []rec
	committed := make(map[persist.TxID]bool)
	var scanned int64
	cur := s.logBase
	var hdr [recHdrSize]byte
	for cur+recHdrSize <= s.logEnd {
		st.Read(cur, hdr[:])
		if binary.LittleEndian.Uint32(hdr[0:]) != recMagic ||
			binary.LittleEndian.Uint32(hdr[4:]) != epoch {
			break
		}
		tx := persist.TxID(binary.LittleEndian.Uint64(hdr[8:]))
		addr := mem.PAddr(binary.LittleEndian.Uint64(hdr[16:]))
		n := int(binary.LittleEndian.Uint32(hdr[24:]))
		if addr == commitSentinel && n == 0 {
			committed[tx] = true
		} else {
			recs = append(recs, rec{tx: tx, addr: addr, n: n, at: cur})
		}
		sz := recSize(n)
		scanned += int64(sz)
		cur += sz
	}
	var applied int64
	data := make([]byte, 0, 1024)
	for _, r := range recs { // append order: later records overwrite
		if !committed[r.tx] {
			continue
		}
		if cap(data) < r.n {
			data = make([]byte, r.n)
		}
		data = data[:r.n]
		st.Read(r.at+recHdrSize, data)
		st.Write(r.addr, data)
		applied += int64(r.n)
	}
	s.epoch = epoch + 1
	s.writeEpoch()
	s.cursor = s.logBase
	s.records = s.records[:0]
	s.committed.Clear()
	s.index.Clear()
	s.lineWords.Clear()
	bw := s.ctx.Dev.Params().Bandwidth
	modeled := sim.Duration(1*sim.Millisecond) +
		sim.Duration((scanned+applied)*int64(sim.Second)/bw)
	return modeled, nil
}
