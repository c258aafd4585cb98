package trace

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"hoop/internal/engine"
	"hoop/internal/mem"
)

// Fuzz input format: a sequence of records, each a header byte followed
// by its action's argument bytes. The header's low two bits name the
// thread (3 is out of range for the three-thread fuzz system) and the
// remaining bits, mod fzActions, the action. A word-range byte holds a
// word index in its low six bits and the word count minus one in its high
// two. A back-offset byte counts words back from the current end of the
// payload buffer; counting back past its start wraps the offset to the top
// of the uint64 range, where no payload reaches and the end overflows. A
// truncated final record is dropped.
const (
	fzLoad   = 0 << 2 // + word-range byte
	fzStore  = 1 << 2 // + word-range byte, value byte
	fzScan   = 2 << 2 // + item-count byte
	fzCommit = 3 << 2
	fzAbort  = 4 << 2
	fzReuse  = 5 << 2 // + word-range byte, back-offset byte: a store replaying payload bytes, in range or not

	fzActions    = 6
	fuzzThreads  = 3
	fuzzRegion   = 1 << 12 // bytes per thread; threads never share a word
	fuzzRegionWd = fuzzRegion / mem.WordSize
)

// fuzzTraceFixture is a hand-written capture: committed, aborted, empty
// and interleaved transactions on all three threads, rewrites of the same
// words, scans, and a final out-of-range thread. Every prefix of it seeds
// FuzzTraceReader, so the corpus holds accepted streams (cuts at points
// where every thread is closed), trailing open transactions, and, only in
// the full fixture, the out-of-range thread.
var fuzzTraceFixture = []byte{
	fzStore | 0, 0x01, 0x11, // t0 begins: word 1
	fzStore | 0, 0x42, 0x12, // words 2-3
	fzReuse | 0, 0x44, 0x03, // words 4-5 take the payload's first two words
	fzLoad | 0, 0xC0, //        words 0-3
	fzCommit | 0,
	fzStore | 1, 0x05, 0x21,
	fzScan | 1, 0x07,
	fzCommit | 1,
	fzStore | 2, 0xC0, 0x31, // t2 fills words 0-3
	fzStore | 2, 0x01, 0x32, // and rewrites word 1 in the same tx
	fzLoad | 2, 0x80,
	fzCommit | 2,
	fzStore | 0, 0x01, 0x13, // t0 and t1 interleave; t1 aborts
	fzStore | 1, 0x05, 0x22,
	fzStore | 0, 0x43, 0x14,
	fzStore | 1, 0x46, 0x23,
	fzAbort | 1,
	fzLoad | 1, 0x45,
	fzCommit | 1,
	fzCommit | 0,
	fzStore | 2, 0x02, 0x33, // t2 aborts a rewrite of committed words
	fzStore | 2, 0x81, 0x34,
	fzAbort | 2,
	fzCommit | 1, //            empty transactions
	fzAbort | 0,
	fzStore | 0, 0x3F, 0x15, // last word of t0's window
	fzScan | 0, 0x00,
	fzCommit | 0,
	fzStore | 1, 0xFC, 0x24, // t1 and t2 interleave; both commit
	fzStore | 2, 0xFC, 0x35,
	fzLoad | 1, 0xFC,
	fzStore | 1, 0x10, 0x25,
	fzScan | 2, 0x30,
	fzCommit | 2,
	fzStore | 1, 0x10, 0x26,
	fzCommit | 1,
	fzStore | 0, 0x20, 0x16, // three open transactions at once
	fzStore | 1, 0x20, 0x27,
	fzStore | 2, 0x20, 0x36,
	fzCommit | 1,
	fzStore | 0, 0x61, 0x17,
	fzAbort | 2,
	fzStore | 2, 0x21, 0x37,
	fzCommit | 0,
	fzCommit | 2,
	fzStore | 0, 0x08, 0x18,
	fzStore | 0, 0x08, 0x19, // same word twice, then abort
	fzAbort | 0,
	fzStore | 0, 0x08, 0x1A,
	fzCommit | 0,
	fzLoad | 2, 0x21,
	fzScan | 2, 0xFF,
	fzCommit | 2,
	fzStore | 1, 0x30, 0x28,
	fzCommit | 1,
	fzStore | 2, 0x3F, 0x38, // t2 writes across word 63
	fzStore | 2, 0x40, 0x39,
	fzCommit | 2,
	fzStore | 0, 0xFF, 0x1B, // words 63-66
	fzLoad | 0, 0x3C,
	fzCommit | 0,
	fzStore | 1, 0x11, 0x29, // all three write word 17 of their region
	fzStore | 2, 0x11, 0x3A,
	fzStore | 0, 0x11, 0x1C,
	fzCommit | 2,
	fzAbort | 0,
	fzCommit | 1,
	fzStore | 1, 0x12, 0x2A,
	fzScan | 1, 0x01,
	fzAbort | 1,
	fzStore | 2, 0x80, 0x3B, // t2 rewrites and reads, then aborts
	fzStore | 2, 0x81, 0x3C,
	fzLoad | 2, 0xC0,
	fzAbort | 2,
	fzStore | 0, 0x02, 0x1D,
	fzStore | 1, 0x02, 0x2B,
	fzCommit | 0,
	fzCommit | 1,
	fzReuse | 2, 0x85, 0x03, // a window ending at the payload's current end
	fzCommit | 2,
	fzReuse | 1, 0x46, 0x01, // a window one word past the current end
	fzCommit | 1,
	fzReuse | 0, 0x07, 0x7F, // counted back past the start: the offset wraps
	fzCommit | 0,
	fzStore | 3, 0x00, 0x41, // thread 3 is out of range
	fzCommit | 3,
}

// decodeFuzzOps turns fuzz bytes into an op stream and its payload
// buffer, well formed per thread except for what SplitTxs and ReplayOps
// must catch: a thread outside the system, a transaction left open at the
// end (SplitTxs), and a store whose bytes fall outside the payload
// (ReplayOps and Cursor). Every action opens its thread's transaction
// first if none is open, and each thread addresses only its own region.
func decodeFuzzOps(raw []byte) (ops []Op, payload []byte) {
	var open [4]bool
	wordRange := func(th uint16, b byte) (mem.PAddr, uint32) {
		word := uint64(th)*fuzzRegionWd + uint64(b&0x3F)
		return mem.PAddr(word * mem.WordSize), uint32(1+b>>6) * mem.WordSize
	}
	for len(raw) > 0 {
		h := raw[0]
		th := uint16(h & 3)
		var op Op
		n := 1
		switch (h >> 2) % fzActions {
		case fzLoad >> 2:
			if n = 2; len(raw) < n {
				return ops, payload
			}
			addr, size := wordRange(th, raw[1])
			op = Op{Kind: OpLoad, Addr: addr, Size: size}
		case fzStore >> 2:
			if n = 3; len(raw) < n {
				return ops, payload
			}
			addr, size := wordRange(th, raw[1])
			op = Op{Kind: OpStore, Addr: addr, Size: size, Off: uint64(len(payload))}
			for w := uint32(0); w < size; w += mem.WordSize {
				payload = binary.LittleEndian.AppendUint64(payload, uint64(raw[2])<<8|uint64(w))
			}
		case fzReuse >> 2:
			if n = 3; len(raw) < n {
				return ops, payload
			}
			addr, size := wordRange(th, raw[1])
			off := uint64(len(payload)) - uint64(raw[2]&0x7F)*mem.WordSize
			op = Op{Kind: OpStore, Addr: addr, Size: size, Off: off}
		case fzScan >> 2:
			if n = 2; len(raw) < n {
				return ops, payload
			}
			op = Op{Kind: OpScan, Addr: mem.PAddr(raw[1]) * 16, Size: uint32(raw[1])}
		case fzCommit >> 2:
			op = Op{Kind: OpTxEnd}
		case fzAbort >> 2:
			op = Op{Kind: OpTxAbort}
		}
		if !open[th] {
			ops = append(ops, Op{Kind: OpTxBegin, Thread: th})
			open[th] = true
		}
		op.Thread = th
		ops = append(ops, op)
		if op.Kind == OpTxEnd || op.Kind == OpTxAbort {
			open[th] = false
		}
		raw = raw[n:]
	}
	return ops, payload
}

func fuzzSystem(t *testing.T, scheme string) *engine.System {
	t.Helper()
	cfg := engine.DefaultConfig(scheme)
	cfg.Cores, cfg.Threads, cfg.Cache.Cores = fuzzThreads, fuzzThreads, fuzzThreads
	cfg.Ctrl.Agents = fuzzThreads + 2
	cfg.NVM.Capacity = 1 << 30
	cfg.OOPBytes = 64 << 20
	cfg.Hoop.CommitLogBytes = 1 << 20
	cfg.Abortable = true
	cfg.TrackOracle = true
	sys, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func isClose(op Op) bool { return op.Kind == OpTxEnd || op.Kind == OpTxAbort }

// runCursor replays segs through cur on env and returns what it panicked
// with, if anything.
func runCursor(cur *Cursor, env *engine.Env, segs [][]Op) (panicked any) {
	defer func() { panicked = recover() }()
	for cur.Done() < len(segs) {
		cur.RunTx(env)
	}
	return nil
}

// FuzzTraceReader drives the in-memory trace readers with arbitrary op
// streams. ReplayOps must reject exactly the streams naming a thread
// outside the system or a store outside the payload, and SplitTxs, which
// never reads the payload, the first plus streams that leave a
// transaction open. A stream SplitTxs accepts must come back as each
// thread's ops in order, cut after every TxEnd/TxAbort and nowhere else.
// Replaying those segments through Cursors on Opt-Undo must panic with
// the payload error exactly when a store falls outside the payload, and
// otherwise commit the same transactions, abort the same ones and recover
// the same durable words as ReplayOps of the captured interleaving on
// HOOP.
func FuzzTraceReader(f *testing.F) {
	for n := 0; n <= len(fuzzTraceFixture); n++ {
		f.Add(fuzzTraceFixture[:n])
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		ops, payload := decodeFuzzOps(raw)
		var outOfRange, openTail, badStore bool
		var last [4]Op
		for _, op := range ops {
			outOfRange = outOfRange || op.Thread >= fuzzThreads
			n := uint64(len(payload))
			badStore = badStore || (op.Kind == OpStore && (op.Off > n || uint64(op.Size) > n-op.Off))
			last[op.Thread] = op
		}
		for _, op := range last {
			openTail = openTail || (op.Kind != 0 && !isClose(op))
		}

		direct := fuzzSystem(t, engine.SchemeHOOP)
		commits, replayErr := ReplayOps(direct, ops, payload)
		if (replayErr != nil) != (outOfRange || badStore) {
			t.Fatalf("ReplayOps error %v, out-of-range thread %v, store outside the payload %v", replayErr, outOfRange, badStore)
		}
		txs, splitErr := SplitTxs(ops, fuzzThreads)
		if (splitErr != nil) != (outOfRange || openTail) {
			t.Fatalf("SplitTxs error %v, out-of-range thread %v, open transaction %v", splitErr, outOfRange, openTail)
		}
		if splitErr != nil {
			return
		}

		replayed := fuzzSystem(t, engine.SchemeUndo)
		var cur Cursor
		var panicked any
		for th, segs := range txs {
			var joined []Op
			for i, seg := range segs {
				for j, op := range seg {
					if isClose(op) != (j == len(seg)-1) {
						t.Fatalf("thread %d segment %d: op %d (%+v) misplaced against the close", th, i, j, op)
					}
				}
				joined = append(joined, seg...)
			}
			var want []Op
			for _, op := range ops {
				if int(op.Thread) == th {
					want = append(want, op)
				}
			}
			if len(joined) != len(want) {
				t.Fatalf("thread %d: segments hold %d ops, stream has %d", th, len(joined), len(want))
			}
			for i := range want {
				g, w := joined[i], want[i]
				if g != w {
					t.Fatalf("thread %d op %d: segments hold %+v, stream has %+v", th, i, g, w)
				}
			}
			cur.Reset("fuzz", th, segs, payload)
			if p := runCursor(&cur, replayed.NewEnv(th), segs); p != nil && panicked == nil {
				panicked = p
			}
		}
		if panicked != nil {
			if !badStore || !strings.Contains(fmt.Sprint(panicked), "payload") {
				t.Fatalf("cursor replay panicked with %v, store outside the payload %v", panicked, badStore)
			}
			return
		}
		if badStore {
			t.Fatal("cursor replay accepted a store outside the payload")
		}

		ds, rs := direct.Snapshot(), replayed.Snapshot()
		if rs.Txs != commits || rs.Aborts != ds.Aborts {
			t.Fatalf("cursor replay committed %d and aborted %d, ReplayOps %d and %d", rs.Txs, rs.Aborts, commits, ds.Aborts)
		}
		for _, sys := range []*engine.System{direct, replayed} {
			sys.Crash()
			if _, err := sys.Recover(2); err != nil {
				t.Fatal(err)
			}
			if mm := sys.VerifyRecovered(3); len(mm) != 0 {
				t.Fatalf("%s recovery diverged from its oracle: %+v", sys.Config().Scheme, mm)
			}
		}
		dh, rh := direct.Durable(), replayed.Durable()
		for a := mem.PAddr(0); a < fuzzThreads*fuzzRegion; a += mem.WordSize {
			if dh.ReadWord(a) != rh.ReadWord(a) {
				t.Fatalf("durable word %v: ReplayOps %#x, cursors %#x", a, dh.ReadWord(a), rh.ReadWord(a))
			}
		}
	})
}
