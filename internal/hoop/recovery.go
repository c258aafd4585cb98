package hoop

import (
	"fmt"
	"sort"
	"sync"

	"hoop/internal/mem"
	"hoop/internal/persist"
	"hoop/internal/sim"
	"hoop/internal/telemetry"
)

// Recovery throughput tunables. A recovery thread is software: it reads
// slices, hashes home addresses, and merges — its per-thread scan rate is
// well below the device's channel bandwidth, which is why the paper's
// Figure 11 scales with threads until the NVM bandwidth saturates.
const (
	recoveryPerThreadScanBW  = 4 << 30 // bytes/s one thread can scan+hash
	recoveryPerThreadApplyBW = 2 << 30 // bytes/s one thread can write back
	recoveryStartupCost      = 1 * sim.Millisecond
	// recoveryBarrierCost is the flat merge/aggregation coordination cost
	// (master-thread merge, kmap/kunmap, final fences).
	recoveryBarrierCost = 50 * sim.Microsecond
)

// RecoveryReport aliases the persist-level report type so HOOP's recovery
// machinery satisfies persist.RecoveryScanner while existing callers keep
// naming it hoop.RecoveryReport.
type RecoveryReport = persist.RecoveryReport

// Recover implements persist.Scheme. It rebuilds a consistent home region
// purely from durable NVM contents (commit log, data slices, watermark),
// using `threads` OS threads exactly as §III-F describes: parallel chain
// scanning into per-thread hash maps keyed by home address, a master merge
// keeping only the newest committed version of each word, and a parallel
// write-back. The returned duration is the modeled wall-clock recovery
// time under the device's current bandwidth.
func (s *Scheme) Recover(threads int) (sim.Duration, error) {
	d, _, err := s.recoverInternal(threads)
	return d, err
}

// RecoverWithReport is Recover plus the detailed accounting used by the
// Figure 11 harness.
func (s *Scheme) RecoverWithReport(threads int) (RecoveryReport, error) {
	_, rep, err := s.recoverInternal(threads)
	return rep, err
}

func (s *Scheme) recoverInternal(threads int) (sim.Duration, RecoveryReport, error) {
	if threads < 1 {
		threads = 1
	}
	if threads > 64 {
		threads = 64
	}
	store := s.ctx.Dev.Store()
	wm := s.readWatermark()

	// Phase 1: scan every controller's commit-log ring for records above
	// the watermark. With multiple controllers (§III-I), a transaction is
	// committed iff its coordinator's DECISION record exists; PREPARE
	// records only contribute their chains once the decision is known —
	// the controllers "reach a consensus regarding the committed
	// transactions".
	type rec struct {
		seq  uint64
		tx   persist.TxID
		last mem.PAddr
	}
	var recs []rec
	decided := make(map[persist.TxID]bool)
	var buf [commitRecSize]byte
	maxSeq := wm
	var maxTx uint64
	var logCapacity uint64
	for m := range s.logs {
		l := &s.logs[m]
		logCapacity += l.capacity
		for i := uint64(0); i < l.capacity; i++ {
			addr := l.base + mem.PAddr(i*commitRecSize)
			store.Read(addr, buf[:])
			seq, tx, last, flags, ok := decodeCommitRec(buf[:])
			if !ok || seq <= wm {
				continue
			}
			recs = append(recs, rec{seq: seq, tx: tx, last: last})
			if flags&recFlagDecision != 0 {
				decided[tx] = true
			}
			if seq > maxSeq {
				maxSeq = seq
			}
			if uint64(tx) > maxTx {
				maxTx = uint64(tx)
			}
		}
	}
	// Keep only chains of decided transactions (undecided two-phase
	// participants roll back by omission).
	kept := recs[:0]
	for _, r := range recs {
		if decided[r.tx] {
			kept = append(kept, r)
		}
	}
	recs = kept
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].seq != recs[j].seq {
			return recs[i].seq < recs[j].seq
		}
		return recs[i].last < recs[j].last
	})
	s.emitRecoveryPhase(telemetry.RecoveryPhaseLogScan, int64(logCapacity)*commitRecSize)

	// Phase 2: distribute transactions round-robin to recovery threads;
	// each walks its chains in reverse order, keeping the newest value
	// per word tagged with the commit sequence.
	type wordVer struct {
		seq uint64
		val [mem.WordSize]byte
	}
	locals := make([]map[mem.PAddr]wordVer, threads)
	sliceCounts := make([]int, threads)
	var wg sync.WaitGroup
	var scanErr error
	var errOnce sync.Once
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			local := make(map[mem.PAddr]wordVer)
			var raw [SliceSize]byte
			for i := t; i < len(recs); i += threads {
				r := recs[i]
				for a := r.last; a != 0; {
					store.Read(a, raw[:])
					sliceCounts[t]++
					ds, err := DecodeDataSlice(raw[:])
					if err != nil {
						errOnce.Do(func() {
							scanErr = fmt.Errorf("recovery: corrupt slice at %v (commit seq %d): %w", a, r.seq, err)
						})
						return
					}
					for j := ds.Count - 1; j >= 0; j-- {
						w := ds.Addrs[j]
						if prev, ok := local[w]; !ok || r.seq > prev.seq {
							local[w] = wordVer{seq: r.seq, val: ds.Words[j]}
						}
					}
					a = ds.Prev
				}
			}
			locals[t] = local
		}(t)
	}
	wg.Wait()
	if scanErr != nil {
		return 0, RecoveryReport{}, scanErr
	}
	totalSlices := 0
	for _, c := range sliceCounts {
		totalSlices += c
	}
	s.emitRecoveryPhase(telemetry.RecoveryPhaseChainScan, int64(totalSlices)*SliceSize)

	// Phase 3: master merge, newest commit sequence wins.
	global := make(map[mem.PAddr]wordVer)
	for _, local := range locals {
		for w, v := range local {
			if prev, ok := global[w]; !ok || v.seq > prev.seq {
				global[w] = v
			}
		}
	}
	s.emitRecoveryPhase(telemetry.RecoveryPhaseMerge, int64(len(global))*mem.WordSize)

	// Phase 4: write the recovered words to their home addresses. (The
	// modeled time treats this as parallel across threads; the functional
	// writes are applied in deterministic address order.)
	words := make([]mem.PAddr, 0, len(global))
	for w := range global {
		words = append(words, w)
	}
	sort.Slice(words, func(i, j int) bool { return words[i] < words[j] })
	for _, w := range words {
		v := global[w]
		store.Write(w, v.val[:])
	}
	s.emitRecoveryPhase(telemetry.RecoveryPhaseWriteBack, int64(len(words))*mem.WordSize)

	// Phase 5: clear the OOP region — advance the watermark past every
	// replayed commit and recycle all blocks.
	s.writeWatermark(maxSeq)
	headersReset := 0
	var hdr [mem.LineSize]byte
	for i := 0; i < s.nBlocks; i++ {
		store.Read(blockAddr(s.blockBase, i), hdr[:])
		h := DecodeBlockHeader(hdr[:])
		seq := h.Seq
		if h.State != BlkUnused {
			bh := BlockHeader{State: BlkUnused, Seq: seq, Index: uint64(i)}
			enc := bh.Encode()
			store.Write(blockAddr(s.blockBase, i), enc[:])
			headersReset++
		}
		// A block past the table's end with sequence 0 already reads as
		// unused; any other block keeps its sequence in the table.
		if i < len(s.blocks) || seq != 0 {
			s.growBlocks(i)
			s.blocks[i] = blockInfo{state: BlkUnused, seq: seq}
		}
		if seq >= s.nextBlkSeq {
			s.nextBlkSeq = seq
		}
	}
	s.freeBlocks = s.nBlocks
	for m := range s.active {
		s.active[m] = -1
	}
	s.pending = s.pending[:0]
	s.watermark = maxSeq
	s.nextSeq = maxSeq + 1
	for m := range s.logs {
		s.logs[m].count = 0
		s.logs[m].live = 0
	}
	s.table.reset()
	s.evbuf.reset()
	if maxTx > 0 {
		s.alloc.Reset(persist.TxID(maxTx))
	}

	// Modeled recovery time: scanning is parallel across threads and
	// bounded by either per-thread processing or device bandwidth; the
	// final write-back likewise.
	bw := s.ctx.Dev.Params().Bandwidth
	scanBytes := int64(logCapacity)*commitRecSize +
		int64(totalSlices)*SliceSize +
		int64(s.nBlocks)*mem.LineSize
	applyBytes := int64(len(words))*mem.WordSize +
		int64(headersReset+1)*mem.LineSize
	scanBW := minI64(bw, int64(threads)*recoveryPerThreadScanBW)
	applyBW := minI64(bw, int64(threads)*recoveryPerThreadApplyBW)
	modeled := recoveryStartupCost +
		bytesOver(scanBytes, scanBW) +
		bytesOver(applyBytes, applyBW) +
		recoveryBarrierCost

	rep := RecoveryReport{
		CommittedTxs:   len(recs),
		SlicesScanned:  totalSlices,
		WordsRecovered: len(words),
		ScanBytes:      scanBytes,
		ApplyBytes:     applyBytes,
		Threads:        threads,
		ModeledTime:    modeled,
	}
	s.emitRecoveryPhase(telemetry.RecoveryPhaseClear, int64(headersReset)*mem.LineSize)
	s.ctx.Stats.Add("recovery.txs", int64(len(recs)))
	s.ctx.Stats.Add("recovery.words", int64(len(words)))
	return modeled, rep, nil
}

// emitRecoveryPhase publishes one recovery-phase event. It is only ever
// called from the recovery master thread — the parallel chain-scan workers
// report through it after the join — so emission never races.
func (s *Scheme) emitRecoveryPhase(phase int, bytes int64) {
	if !s.ctx.Tel.Enabled(telemetry.KindRecovery) {
		return
	}
	s.ctx.Tel.Emit(telemetry.Event{
		Kind:  telemetry.KindRecovery,
		Core:  -1,
		Aux:   int64(phase),
		Bytes: bytes,
	})
}

func bytesOver(n, bw int64) sim.Duration {
	if n <= 0 {
		return 0
	}
	// Computed in floating point: n * picoseconds-per-second overflows
	// int64 already at ~9 MB.
	return sim.Duration(float64(n) / float64(bw) * float64(sim.Second))
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
