package cc

import (
	"hoop/internal/mem"
	"hoop/internal/sim"
	"hoop/internal/u64map"
)

// OCC timing constants. The version table is a small SRAM/DRAM-resident
// structure beside the memory controller's transaction state; probing it
// is far cheaper than a memory access.
const (
	// occBufferCost is a store-buffer insert (the write intention is held
	// privately until commit, never reaching the cache hierarchy).
	occBufferCost = 4 * sim.Nanosecond
	// occProbeCost is one version-table probe, paid per read-set entry at
	// validation and per version bump at install.
	occProbeCost = 2 * sim.Nanosecond
)

// occState is one thread's per-attempt OCC state, epoch-cleared on begin.
type occState struct {
	wbuf  u64map.Map[uint64] // word addr -> buffered value
	order []uint64           // word addrs in first-write order
	rset  u64map.Map[uint64] // line -> version at first read
	// scratch is the validation key buffer (reused, so validation costs
	// no steady-state allocation).
	scratch []uint64
}

// occPolicy implements optimistic concurrency control: reads record the
// per-line version they observed, writes buffer privately, and commit
// validates the read set against the current versions and installs the
// write buffer in one atomic scheduler step. Because nothing reaches the
// engine (or the persist scheme) before a successful validation, an abort
// has an empty durable footprint under every scheme.
type occPolicy struct {
	r        *Runner
	versions u64map.Map[uint64] // line -> install version
}

func newOCCPolicy(r *Runner) *occPolicy { return &occPolicy{r: r} }

func (p *occPolicy) begin(t *thread) {
	t.env.TxBegin()
	t.occ.wbuf.Clear()
	t.occ.order = t.occ.order[:0]
	t.occ.rset.Clear()
}

func (p *occPolicy) read(t *thread, addr mem.PAddr) (uint64, bool) {
	w := uint64(addr)
	if v, ok := t.occ.wbuf.Get(w); ok {
		// Read-your-own-write: forwarded from the store buffer.
		t.advance(occBufferCost)
		return v, true
	}
	v := t.env.ReadWord(addr)
	line := mem.LineIndex(addr)
	if !t.occ.rset.Contains(line) {
		ver, _ := p.versions.Get(line)
		t.occ.rset.Put(line, ver)
		t.advance(occProbeCost)
	}
	return v, true
}

func (p *occPolicy) write(t *thread, addr mem.PAddr, v uint64) bool {
	w := uint64(addr)
	if !t.occ.wbuf.Contains(w) {
		t.occ.order = append(t.occ.order, w)
	}
	t.occ.wbuf.Put(w, v)
	t.advance(occBufferCost)
	return true
}

func (p *occPolicy) commit(t *thread) bool {
	// Validate: every line the attempt read must still be at the version
	// it observed. The whole commit runs as one scheduler step, so
	// validation and install are atomic with respect to every other
	// transaction — the serialization point of the policy.
	keys := t.occ.rset.Keys(t.occ.scratch[:0])
	t.occ.scratch = keys
	t.advance(sim.Duration(len(keys)) * occProbeCost)
	for _, line := range keys {
		seen, _ := t.occ.rset.Get(line)
		cur, _ := p.versions.Get(line)
		if cur != seen {
			return false
		}
	}
	// Install: replay the buffered writes through the engine in first-
	// write order (deterministic), then commit; the persist scheme sees
	// the stores only now, so its durable work is exactly one committed
	// transaction's worth.
	for _, w := range t.occ.order {
		v, _ := t.occ.wbuf.Get(w)
		t.env.WriteWord(mem.PAddr(w), v)
	}
	t.env.TxEnd()
	for _, w := range t.occ.order {
		(*p.versions.Ref(mem.LineIndex(mem.PAddr(w))))++
	}
	t.advance(sim.Duration(len(t.occ.order)) * occProbeCost)
	return true
}

func (p *occPolicy) abort(t *thread) {
	// Nothing was installed, so the engine rollback is a no-op on the
	// view and the scheme abort sees an empty write set — OCC aborts are
	// cheap by construction under every scheme.
	t.env.TxAbort()
}
