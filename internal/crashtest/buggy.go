package crashtest

import (
	"encoding/binary"
	"fmt"

	"hoop/internal/baseline/logring"
	"hoop/internal/mem"
	"hoop/internal/persist"
	"hoop/internal/sim"
)

// BuggySchemeName is the deliberately-broken negative control: a redo-style
// log whose TxEnd persists the commit marker BEFORE the transaction's data
// records. Between operations the bug is invisible — by the time TxEnd
// returns, marker and data are all durable — but a crash landing between
// the marker and the data records makes recovery replay a half-written
// transaction. The oracle must reject it; if it ever passes, the harness
// has lost its teeth.
const BuggySchemeName = "Buggy-CommitFirst"

// BuggyAbortLeakName is the second negative control, aimed at the abort
// path: its commit ordering is correct (data records first, marker last),
// but TxAbort durably leaks the first buffered write to its home address
// before dropping the write set. Recovery never touches home words without
// a commit marker, so the leaked value survives every later crash point —
// the abort-injecting oracle (Workload.AbortEvery > 0) must reject it.
const BuggyAbortLeakName = "Buggy-AbortLeak"

// Buggy log record payload: [flags|txid u64][word addr u64][value u64].
const (
	buggyPayload    = 24
	buggyCommitFlag = uint64(1) << 63
)

type buggyScheme struct {
	name string
	// commitFirst plants the ordering bug (marker before data);
	// leakAborts plants the abort bug (first write escapes to home).
	commitFirst bool
	leakAborts  bool

	ctx   persist.Context
	alloc persist.TxnAllocator
	ring  *logring.Ring
	// Per-core write sets of the live transaction, in program order.
	words [][]persist.WordUpdate

	statTxCommitted *sim.Counter
}

func init() {
	register := func(name string, commitFirst, leakAborts bool) {
		persist.Register(name, func(ctx persist.Context, opt any) (persist.Scheme, error) {
			if opt != nil {
				return nil, fmt.Errorf("%s: scheme takes no options, got %T", name, opt)
			}
			ring, err := logring.New(ctx.Layout.OOP, buggyPayload)
			if err != nil {
				return nil, err
			}
			return &buggyScheme{
				name:            name,
				commitFirst:     commitFirst,
				leakAborts:      leakAborts,
				ctx:             ctx,
				ring:            ring,
				words:           make([][]persist.WordUpdate, ctx.Cores),
				statTxCommitted: ctx.Stats.Counter(sim.StatTxCommitted),
			}, nil
		})
	}
	register(BuggySchemeName, true, false)
	register(BuggyAbortLeakName, false, true)
}

func (s *buggyScheme) Name() string { return s.name }

func (s *buggyScheme) Properties() persist.Properties {
	return persist.Properties{ReadLatency: "Low", OnCriticalPath: false, NeedFlushFence: true, WriteTraffic: "Medium"}
}

func (s *buggyScheme) TxBegin(core int, now sim.Time) (persist.TxID, sim.Time) {
	s.words[core] = s.words[core][:0]
	return s.alloc.Next(), now
}

func (s *buggyScheme) Store(core int, tx persist.TxID, addr mem.PAddr, val []byte, now sim.Time) sim.Time {
	s.words[core] = append(s.words[core], persist.WordsOf(addr, val)...)
	return now
}

func (s *buggyScheme) appendRec(word1 uint64, addr mem.PAddr, val uint64) mem.PAddr {
	if s.ring.Full() {
		panic("crashtest: buggy scheme log full (enlarge the OOP region)")
	}
	var payload [buggyPayload]byte
	binary.LittleEndian.PutUint64(payload[0:], word1)
	binary.LittleEndian.PutUint64(payload[8:], uint64(addr))
	binary.LittleEndian.PutUint64(payload[16:], val)
	_, at := s.ring.Append(s.ctx.Dev.Store(), payload[:])
	return at
}

// TxEnd persists the transaction's log records. The commit-first variant
// plants the ordering bug — marker persisted before the data records it
// vouches for; the abort-leak variant orders correctly (data, drain,
// marker).
func (s *buggyScheme) TxEnd(core int, tx persist.TxID, now sim.Time) sim.Time {
	if len(s.words[core]) > 0 {
		if s.commitFirst {
			at := s.appendRec(uint64(tx)|buggyCommitFlag, 0, 0)
			now = s.ctx.Ctrl.Write(at, buggyPayload, now)
			for _, w := range s.words[core] {
				at := s.appendRec(uint64(tx), w.Addr, binary.LittleEndian.Uint64(w.Val[:]))
				s.ctx.Ctrl.PostWrite(core, at, buggyPayload, now)
			}
			now = s.ctx.Ctrl.Drain(core, now)
		} else {
			for _, w := range s.words[core] {
				at := s.appendRec(uint64(tx), w.Addr, binary.LittleEndian.Uint64(w.Val[:]))
				s.ctx.Ctrl.PostWrite(core, at, buggyPayload, now)
			}
			now = s.ctx.Ctrl.Drain(core, now)
			at := s.appendRec(uint64(tx)|buggyCommitFlag, 0, 0)
			now = s.ctx.Ctrl.Write(at, buggyPayload, now)
		}
	}
	s.words[core] = s.words[core][:0]
	s.statTxCommitted.Inc()
	return now
}

// TxAbort drops the volatile write set — which would be a correct abort
// for a redo-style log — except that the abort-leak variant first writes
// the set's first word durably to its home address, leaving exactly the
// residue an abort must never leave.
func (s *buggyScheme) TxAbort(core int, tx persist.TxID, now sim.Time) sim.Time {
	if s.leakAborts && len(s.words[core]) > 0 {
		w := s.words[core][0]
		s.ctx.Dev.Store().Write(w.Addr, w.Val[:])
		now = s.ctx.Ctrl.Write(w.Addr, len(w.Val), now)
	}
	s.words[core] = s.words[core][:0]
	return now
}

func (s *buggyScheme) ReadMiss(core int, addr mem.PAddr, now sim.Time) (sim.Time, bool) {
	return s.ctx.Ctrl.Read(mem.LineAddr(addr), mem.LineSize, now), false
}

func (s *buggyScheme) Evict(core int, line mem.PAddr, now sim.Time) sim.Time {
	return now // transactional data lives in the log until recovery
}

func (s *buggyScheme) Tick(now sim.Time) {}

func (s *buggyScheme) Crash() {
	for i := range s.words {
		s.words[i] = nil
	}
	s.ctx.Ctrl.ResetPending()
}

// Recover replays the data records of every transaction with a commit
// marker, in log order, then truncates the log. The replay itself is
// faithful — the corruption comes from the append order in TxEnd.
func (s *buggyScheme) Recover(threads int) (sim.Duration, error) {
	store := s.ctx.Dev.Store()
	s.ring.ResetVolatile(store)
	committed := make(map[uint64]struct{})
	type rec struct {
		tx   uint64
		addr mem.PAddr
		val  uint64
	}
	var recs []rec
	s.ring.Scan(store, func(seq uint64, at mem.PAddr, payload []byte) {
		word1 := binary.LittleEndian.Uint64(payload[0:])
		if word1&buggyCommitFlag != 0 {
			committed[word1&^buggyCommitFlag] = struct{}{}
			return
		}
		recs = append(recs, rec{
			tx:   word1,
			addr: mem.PAddr(binary.LittleEndian.Uint64(payload[8:])),
			val:  binary.LittleEndian.Uint64(payload[16:]),
		})
	})
	for _, r := range recs {
		if _, ok := committed[r.tx]; ok {
			store.WriteWord(r.addr, r.val)
		}
	}
	s.ring.Truncate(store, s.ring.NextSeq()-1)
	return sim.Millisecond, nil
}
