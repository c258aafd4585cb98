// Package osp implements the OSP comparison point, modeled on SSP (Ni et
// al., HotStorage'18/MICRO'19 [38,39]): optimized shadow paging at
// cache-line granularity. Every virtual cache line is backed by two
// physical lines; a transaction writes the inactive copy, eagerly flushes
// it at commit, and atomically flips a durable current-copy bit. The
// commit-time line flushes and the TLB shootdowns needed to keep the
// remapping coherent across cores are the costs the paper measures; page
// consolidation (copying shadow-current lines back to their primary
// locations) adds the scheme's extra write traffic.
package osp

import (
	"fmt"
	"slices"

	"hoop/internal/mem"
	"hoop/internal/persist"
	"hoop/internal/sim"
	"hoop/internal/telemetry"
	"hoop/internal/u64map"
)

// shadowBase maps a home line to its shadow twin: shadow(x) = shadowBase+x.
// The shadow space sits above the simulated DIMM's address range; a real
// SSP pairs lines inside the device, but only the traffic and latency of
// the accesses matter to the evaluation.
const shadowBase mem.PAddr = 1 << 41

// Timing constants.
const (
	// shootdownCost is the TLB-shootdown penalty per committing
	// transaction (IPIs to the other cores plus invalidations).
	shootdownCost = 600 * sim.Nanosecond
	// shootdownPerPage adds cost per additional page remapped.
	shootdownPerPage = 60 * sim.Nanosecond
	// consolidationPeriod is how often shadow-current lines are copied
	// back to their primary location.
	consolidationPeriod = 10 * sim.Millisecond
	// consolidationBatch bounds lines consolidated per pass.
	consolidationBatch = 4096
)

// Commit intent record. A transaction's current-copy flips may span many
// bitmap bytes, and per-line read-modify-writes are not atomic as a group:
// a crash between two flips would expose half a transaction. TxEnd instead
// persists the full set of new bitmap word values as an intent record —
// entries first, then a single 8-byte header (magic+count) whose write is
// the atomic commit point — before applying them to the bitmap. Recovery
// replays a valid intent, making the flip set all-or-nothing.
const (
	intentMagic       = 0x4F535049 // "OSPI"
	intentEntrySize   = 16         // [bitmap word addr u64][new value u64]
	intentMaxEntries  = (mem.PageSize - 8) / intentEntrySize
	intentRegionBytes = mem.PageSize
)

// Scheme is the optimized-shadow-paging baseline.
type Scheme struct {
	ctx   persist.Context
	alloc persist.TxnAllocator

	bitmapBase mem.PAddr
	intentBase mem.PAddr
	txLines    []u64map.Set // per-core write sets, epoch-cleared per tx
	// shadowCur mirrors the durable bitmap: lines whose current copy is
	// the shadow one.
	shadowCur u64map.Set
	// consQ orders shadowCur for consolidation (oldest flip first).
	// Iterating the set directly would tie the consolidation batch to the
	// probe-chain layout; the queue keeps it in flip order.
	consQ     []uint64
	nextCons  sim.Time
	consAgent int

	// Reused commit/consolidation scratch so steady-state transactions
	// perform no allocation.
	lineScratch []uint64
	bitWords    u64map.Map[uint64] // aligned bitmap word addr -> XOR mask
	bwScratch   []uint64
	valScratch  []uint64
	consScratch []uint64

	statTxCommitted *sim.Counter
}

// New builds the scheme. The durable current-copy bitmap occupies the head
// of the layout's OOP region (1 bit per home line), followed by one
// page-aligned page holding the commit intent record.
func New(ctx persist.Context) (*Scheme, error) {
	bitmapEnd := ctx.Layout.OOP.Base + mem.PAddr(ctx.Layout.Home.Lines()/8) + 1
	intentBase := (bitmapEnd + mem.PageSize - 1) &^ (mem.PageSize - 1)
	if uint64(intentBase)+intentRegionBytes > uint64(ctx.Layout.OOP.End()) {
		return nil, fmt.Errorf("osp: OOP region too small for current-copy bitmap (%d bytes) plus intent page",
			bitmapEnd-ctx.Layout.OOP.Base)
	}
	return &Scheme{
		ctx:             ctx,
		bitmapBase:      ctx.Layout.OOP.Base,
		intentBase:      intentBase,
		txLines:         make([]u64map.Set, ctx.Cores),
		nextCons:        consolidationPeriod,
		consAgent:       ctx.Cores + 1,
		statTxCommitted: ctx.Stats.Counter(sim.StatTxCommitted),
	}, nil
}

// SchemeName is the registry name and figure label of this baseline.
const SchemeName = "OSP"

func init() {
	persist.Register(SchemeName, func(ctx persist.Context, opt any) (persist.Scheme, error) {
		if opt != nil {
			return nil, fmt.Errorf("osp: scheme takes no options, got %T", opt)
		}
		return New(ctx)
	})
}

var _ persist.Quiescer = (*Scheme)(nil)

// Name implements persist.Scheme.
func (s *Scheme) Name() string { return SchemeName }

// Quiesce implements persist.Quiescer: consolidate every shadow-current
// line so a measurement window closes with the deferred copy traffic
// accounted.
func (s *Scheme) Quiesce(now sim.Time) { s.ForceConsolidate(now) }

// Properties implements persist.Scheme (Table I, SSP row).
func (s *Scheme) Properties() persist.Properties {
	return persist.Properties{ReadLatency: "Low", OnCriticalPath: true, NeedFlushFence: true, WriteTraffic: "Low"}
}

func (s *Scheme) bitAddr(line uint64) (mem.PAddr, byte) {
	return s.bitmapBase + mem.PAddr(line>>3), byte(1 << (line & 7))
}

func (s *Scheme) isShadowCurrent(line uint64) bool {
	return s.shadowCur.Contains(line)
}

// setCurrent durably records which copy of line is current and keeps the
// volatile mirror in sync. It returns the bitmap byte address so callers
// can account the write.
func (s *Scheme) setCurrent(line uint64, shadow bool) mem.PAddr {
	at, mask := s.bitAddr(line)
	var b [1]byte
	s.ctx.Dev.Store().Read(at, b[:])
	if shadow {
		b[0] |= mask
		if s.shadowCur.Add(line) {
			s.consQ = append(s.consQ, line)
		}
	} else {
		b[0] &^= mask
		s.shadowCur.Delete(line)
	}
	s.ctx.Dev.Store().Write(at, b[:])
	return at
}

// toggleVolatile flips line's current copy in the volatile mirror only;
// the durable bitmap change travels through the commit intent record.
func (s *Scheme) toggleVolatile(line uint64) {
	if !s.shadowCur.Delete(line) {
		s.consQ = append(s.consQ, line)
		s.shadowCur.Add(line)
	}
}

// currentAddr returns the physical address of line's current copy.
func (s *Scheme) currentAddr(line uint64) mem.PAddr {
	home := mem.PAddr(line << mem.LineShift)
	if s.isShadowCurrent(line) {
		return shadowBase + home
	}
	return home
}

// inactiveAddr returns the physical address of line's inactive copy.
func (s *Scheme) inactiveAddr(line uint64) mem.PAddr {
	home := mem.PAddr(line << mem.LineShift)
	if s.isShadowCurrent(line) {
		return home
	}
	return shadowBase + home
}

// TxBegin implements persist.Scheme.
func (s *Scheme) TxBegin(core int, now sim.Time) (persist.TxID, sim.Time) {
	s.txLines[core].Clear()
	return s.alloc.Next(), now
}

// Store implements persist.Scheme: track the write set; data is written at
// commit via copy-on-write to the inactive lines.
func (s *Scheme) Store(core int, tx persist.TxID, addr mem.PAddr, val []byte, now sim.Time) sim.Time {
	end := addr + mem.PAddr(len(val))
	for a := mem.LineAddr(addr); a < end; a += mem.LineSize {
		s.txLines[core].Add(mem.LineIndex(a))
	}
	return now
}

// TxEnd implements persist.Scheme: eagerly flush each updated line to its
// inactive copy, drain, durably flip the current-copy bits (8-byte bitmap
// words cover 64 lines each), and pay the TLB shootdown for the remapping.
func (s *Scheme) TxEnd(core int, tx persist.TxID, now sim.Time) sim.Time {
	lines := s.txLines[core].Keys(s.lineScratch[:0])
	s.lineScratch = lines
	slices.Sort(lines)
	var buf [mem.LineSize]byte
	npages := 0
	var lastPage uint64
	for _, l := range lines {
		lineAddr := mem.PAddr(l << mem.LineShift)
		target := s.inactiveAddr(l)
		s.ctx.View.Read(lineAddr, buf[:])
		s.ctx.Dev.Store().Write(target, buf[:])
		s.ctx.Ctrl.PostWrite(core, target, mem.LineSize, now)
		// The eager flush leaves the cached copy clean — its data is
		// durable in the (about-to-be-current) shadow copy.
		s.ctx.Hier.FlushLine(lineAddr, false)
		// 64 lines per 4 KB page; lines are sorted, so distinct pages are
		// exactly the page-index changes.
		if npages == 0 || l>>6 != lastPage {
			npages++
			lastPage = l >> 6
		}
	}
	if len(lines) > 0 {
		now = s.ctx.Ctrl.Drain(core, now)
		// Group the flips by aligned 8-byte bitmap word and compute each
		// word's post-image (a flip is a toggle, so an XOR mask per word).
		// Lines are sorted, so the word addresses surface in ascending
		// order and bws needs no separate sort.
		s.bitWords.Clear()
		bws := s.bwScratch[:0]
		for _, l := range lines {
			at, mask := s.bitAddr(l)
			w := at &^ 7
			before := s.bitWords.Len()
			p := s.bitWords.Ref(uint64(w))
			if s.bitWords.Len() != before {
				bws = append(bws, uint64(w))
			}
			*p |= uint64(mask) << (8 * uint(at-w))
			s.toggleVolatile(l)
		}
		s.bwScratch = bws
		if len(bws) > intentMaxEntries {
			panic(fmt.Sprintf("osp: transaction flips %d bitmap words, intent record holds %d", len(bws), intentMaxEntries))
		}
		st := s.ctx.Dev.Store()
		vals := s.valScratch[:0]
		for _, w := range bws {
			xor, _ := s.bitWords.Get(w)
			vals = append(vals, st.ReadWord(mem.PAddr(w))^xor)
		}
		s.valScratch = vals
		// Durable intent: entries first, then the single-unit header that
		// atomically commits the whole flip set; recovery replays it.
		for i, w := range bws {
			ent := s.intentBase + 8 + mem.PAddr(i*intentEntrySize)
			st.WriteWord(ent, w)
			st.WriteWord(ent+8, vals[i])
			s.ctx.Ctrl.PostWrite(core, ent, intentEntrySize, now)
		}
		now = s.ctx.Ctrl.Drain(core, now)
		st.WriteWord(s.intentBase, intentMagic|uint64(len(bws))<<32)
		now = s.ctx.Ctrl.Write(s.intentBase, 8, now)
		// Apply the flips (each word write is atomic; the intent covers
		// the group), then retire the intent.
		for i, w := range bws {
			st.WriteWord(mem.PAddr(w), vals[i])
			now = s.ctx.Ctrl.Write(mem.PAddr(w), 8, now)
		}
		st.WriteWord(s.intentBase, 0)
		s.ctx.Ctrl.PostWrite(core, s.intentBase, 8, now)
		// The intent record is this scheme's commit log: one append per
		// transaction covering the header plus flip entries.
		if s.ctx.Tel.Enabled(telemetry.KindLogWrite) {
			s.ctx.Tel.Emit(telemetry.Event{
				Kind: telemetry.KindLogWrite, Time: now, Core: int16(core),
				Tx: uint64(tx), Addr: s.intentBase,
				Bytes: 8 + int64(len(bws))*intentEntrySize,
			})
		}
		now += shootdownCost + shootdownPerPage*sim.Duration(npages-1)
	}
	s.txLines[core].Clear()
	s.statTxCommitted.Inc()
	return now
}

// TxAbort implements persist.Scheme. All durable commit work (CoW flushes,
// the intent record, bitmap flips) happens at TxEnd; mid-transaction
// evictions only wrote the *inactive* copies, which stay dead garbage
// because the current-copy bits never flip. Dropping the write set is the
// whole abort.
func (s *Scheme) TxAbort(core int, tx persist.TxID, now sim.Time) sim.Time {
	s.txLines[core].Clear()
	return now
}

// ReadMiss implements persist.Scheme: read whichever physical copy is
// current (the remapping itself is free — it lives in the TLB).
func (s *Scheme) ReadMiss(core int, addr mem.PAddr, now sim.Time) (sim.Time, bool) {
	line := mem.LineIndex(addr)
	return s.ctx.Ctrl.Read(s.currentAddr(line), mem.LineSize, now), false
}

// Evict implements persist.Scheme. A transactional line evicted mid-
// transaction performs its copy-on-write early, to the inactive copy.
func (s *Scheme) Evict(core int, line mem.PAddr, now sim.Time) sim.Time {
	var buf [mem.LineSize]byte
	s.ctx.View.Read(line, buf[:])
	target := s.inactiveAddr(mem.LineIndex(line))
	s.ctx.Dev.Store().Write(target, buf[:])
	s.ctx.Ctrl.PostWrite(core, target, mem.LineSize, now)
	return now
}

// Tick implements persist.Scheme: periodic page consolidation copies
// shadow-current lines back to their primary location so that page-level
// operations (and reads of cold data) do not fragment across copies.
func (s *Scheme) Tick(now sim.Time) {
	for s.nextCons <= now {
		s.consolidate(s.nextCons, consolidationBatch)
		s.nextCons += consolidationPeriod
	}
}

// ForceConsolidate runs consolidation over every shadow-current line
// (harness: close a measurement window with the scheme's deferred copy
// traffic accounted).
func (s *Scheme) ForceConsolidate(now sim.Time) {
	for s.shadowCur.Len() > 0 {
		s.consolidate(now, consolidationBatch)
	}
}

func (s *Scheme) consolidate(now sim.Time, batch int) {
	// Pop the oldest still-shadow-current lines; entries flipped back by a
	// later transaction are dropped lazily.
	lines := s.consScratch[:0]
	for len(s.consQ) > 0 && len(lines) < batch {
		l := s.consQ[0]
		s.consQ = s.consQ[1:]
		if s.isShadowCurrent(l) {
			lines = append(lines, l)
		}
	}
	s.consScratch = lines
	slices.Sort(lines)
	if len(lines) == 0 {
		return
	}
	// A consolidation pass is this scheme's cleanup epoch: shadow-current
	// lines migrate back to their primary location.
	if s.ctx.Tel.Enabled(telemetry.KindGCStart) {
		s.ctx.Tel.Emit(telemetry.Event{
			Kind: telemetry.KindGCStart, Time: now, Core: -1, Aux: int64(len(lines)),
		})
	}
	var buf [mem.LineSize]byte
	for _, l := range lines {
		home := mem.PAddr(l << mem.LineShift)
		s.ctx.Dev.Store().Read(shadowBase+home, buf[:])
		s.ctx.Ctrl.Read(shadowBase+home, mem.LineSize, now)
		s.ctx.Dev.Store().Write(home, buf[:])
		s.ctx.Ctrl.Write(home, mem.LineSize, now)
		at := s.setCurrent(l, false)
		s.ctx.Ctrl.PostWrite(s.consAgent, at, 8, now)
	}
	if s.ctx.Tel.Enabled(telemetry.KindGCEnd) {
		s.ctx.Tel.Emit(telemetry.Event{
			Kind: telemetry.KindGCEnd, Time: now, Core: -1,
			Bytes: int64(len(lines)) * mem.LineSize, Aux: int64(len(lines)),
		})
	}
}

// Crash implements persist.Scheme: the TLB remappings and volatile mirror
// vanish; the durable bitmap survives.
func (s *Scheme) Crash() {
	for i := range s.txLines {
		s.txLines[i].Clear()
	}
	s.shadowCur.Clear()
	s.consQ = s.consQ[:0]
	s.ctx.Ctrl.ResetPending()
}

// Recover implements persist.Scheme: replay a valid commit intent (a crash
// may have landed between the intent header and the bitmap flips it
// covers), then rebuild from the durable current-copy bitmap and
// consolidate every shadow-current line into the home region so the home
// region holds exactly the committed data.
func (s *Scheme) Recover(threads int) (sim.Duration, error) {
	store := s.ctx.Dev.Store()
	if hdr := store.ReadWord(s.intentBase); uint32(hdr) == intentMagic {
		n := int(hdr >> 32)
		if n > intentMaxEntries {
			return 0, fmt.Errorf("osp: corrupt intent record (%d entries)", n)
		}
		for i := 0; i < n; i++ {
			ent := s.intentBase + 8 + mem.PAddr(i*intentEntrySize)
			store.WriteWord(mem.PAddr(store.ReadWord(ent)), store.ReadWord(ent+8))
		}
		store.WriteWord(s.intentBase, 0)
	}
	bitmapEnd := s.bitmapBase + mem.PAddr(s.ctx.Layout.Home.Lines()/8) + 1
	var consolidated int64
	var scanned int64
	var buf [mem.LineSize]byte
	store.ForEachPage(func(base mem.PAddr, data []byte) {
		if base+mem.PageSize <= s.bitmapBase || base >= bitmapEnd {
			return
		}
		scanned += mem.PageSize
		for off, b := range data {
			if b == 0 {
				continue
			}
			at := base + mem.PAddr(off)
			if at < s.bitmapBase || at >= bitmapEnd {
				continue
			}
			for bit := 0; bit < 8; bit++ {
				if b&(1<<uint(bit)) == 0 {
					continue
				}
				line := (uint64(at-s.bitmapBase) << 3) | uint64(bit)
				home := mem.PAddr(line << mem.LineShift)
				store.Read(shadowBase+home, buf[:])
				store.Write(home, buf[:])
				consolidated += mem.LineSize
			}
		}
	})
	// Clear the bitmap durably.
	store.ZeroRange(s.bitmapBase, uint64(bitmapEnd-s.bitmapBase))
	s.shadowCur.Clear()
	s.consQ = s.consQ[:0]
	bw := s.ctx.Dev.Params().Bandwidth
	modeled := sim.Duration(1*sim.Millisecond) +
		sim.Duration((scanned+2*consolidated)*int64(sim.Second)/bw)
	return modeled, nil
}
