package nvm

import (
	"testing"

	"hoop/internal/mem"
	"hoop/internal/sim"
)

func journalDevice(t *testing.T) (*Device, *mem.Store) {
	t.Helper()
	store := mem.NewStore()
	return NewDevice(DefaultParams(), store, sim.NewStats()), store
}

func TestJournalRecordsUnitsInOrder(t *testing.T) {
	dev, store := journalDevice(t)
	j := dev.AttachJournal()
	defer dev.DetachJournal()

	store.WriteWord(0x100, 0xdead)
	store.WriteWord(0x108, 0xbeef)
	line := [mem.LineSize]byte{1, 2, 3}
	store.WriteLine(0x200, line)

	if got, want := j.Len(), 2+mem.LineSize/mem.WordSize; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	e := j.Entries()
	if e[0].Addr != 0x100 || e[1].Addr != 0x108 || e[2].Addr != 0x200 {
		t.Fatalf("unexpected entry addresses: %#x %#x %#x", e[0].Addr, e[1].Addr, e[2].Addr)
	}
}

func TestJournalSubWordWriteEmitsPostImage(t *testing.T) {
	dev, store := journalDevice(t)
	j := dev.AttachJournal()
	defer dev.DetachJournal()

	store.WriteWord(0x40, 0x1122334455667788)
	// A 1-byte read-modify-write (OSP's bitmap flip) must journal the
	// whole containing unit's post-image.
	store.Write(0x42, []byte{0xff})
	e := j.Entries()
	if len(e) != 2 {
		t.Fatalf("want 2 entries, got %d", len(e))
	}
	if e[1].Addr != 0x40 {
		t.Fatalf("sub-word write journaled at %#x, want unit base 0x40", e[1].Addr)
	}
	st := j.ReconstructAt(2)
	if got := st.ReadWord(0x40); got != 0x1122334455ff7788 {
		t.Fatalf("post-image = %#x", got)
	}
}

func TestJournalReconstructPrefix(t *testing.T) {
	dev, store := journalDevice(t)
	store.WriteWord(0x1000, 7) // pre-attach: part of the base snapshot
	j := dev.AttachJournal()
	defer dev.DetachJournal()

	store.WriteWord(0x1000, 8)
	store.WriteWord(0x1008, 9)

	if got := j.ReconstructAt(0).ReadWord(0x1000); got != 7 {
		t.Fatalf("at k=0 want base value 7, got %d", got)
	}
	st := j.ReconstructAt(1)
	if st.ReadWord(0x1000) != 8 || st.ReadWord(0x1008) != 0 {
		t.Fatalf("at k=1: %d %d", st.ReadWord(0x1000), st.ReadWord(0x1008))
	}
	st = j.ReconstructAt(2)
	if st.ReadWord(0x1008) != 9 {
		t.Fatalf("at k=2: second write missing")
	}
	// Reconstruction must not disturb the live store.
	if store.ReadWord(0x1000) != 8 {
		t.Fatal("live store mutated by reconstruction")
	}
}

func TestJournalZeroRangeObserved(t *testing.T) {
	dev, store := journalDevice(t)
	j := dev.AttachJournal()
	defer dev.DetachJournal()

	store.WriteWord(0x80, 42)
	store.ZeroRange(0x80, 16)
	// Zeroing an unmaterialized page is a functional no-op and not journaled.
	store.ZeroRange(1<<30, 4096)

	st := j.ReconstructAt(j.Len())
	if got := st.ReadWord(0x80); got != 0 {
		t.Fatalf("zeroed word reads %d", got)
	}
	if j.ReconstructAt(1).ReadWord(0x80) != 42 {
		t.Fatal("prefix before zeroing lost the value")
	}
}

func TestJournalAtomicGroups(t *testing.T) {
	dev, store := journalDevice(t)
	j := dev.AttachJournal()
	defer dev.DetachJournal()

	store.WriteWord(0x0, 1) // unit 0
	dev.BeginAtomicPersist()
	store.WriteWord(0x8, 2)  // unit 1
	store.WriteWord(0x10, 3) // unit 2
	dev.EndAtomicPersist()
	store.WriteWord(0x18, 4) // unit 3

	pts := j.CrashPoints()
	want := []int{0, 1, 3, 4}
	if len(pts) != len(want) {
		t.Fatalf("crash points %v, want %v", pts, want)
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Fatalf("crash points %v, want %v", pts, want)
		}
	}
	// A point inside the group rounds down: neither grouped unit visible.
	st := j.ReconstructAt(2)
	if st.ReadWord(0x8) != 0 || st.ReadWord(0x10) != 0 {
		t.Fatal("crash inside an atomic group exposed a partial drain")
	}
	if st.ReadWord(0x0) != 1 {
		t.Fatal("unit before the group should be durable")
	}
	// At the boundary the whole group is visible.
	st = j.ReconstructAt(3)
	if st.ReadWord(0x8) != 2 || st.ReadWord(0x10) != 3 {
		t.Fatal("group not fully applied at its end boundary")
	}
}

func TestJournalCrashInsideOpenGroupRoundsDown(t *testing.T) {
	dev, store := journalDevice(t)
	j := dev.AttachJournal()
	defer dev.DetachJournal()

	store.WriteWord(0x0, 1)
	dev.BeginAtomicPersist()
	store.WriteWord(0x8, 2)
	// Crash while the group is still open: the queued unit is not durable.
	st := j.ReconstructAt(j.Len())
	if st.ReadWord(0x8) != 0 {
		t.Fatal("open atomic group leaked a queued unit")
	}
	if st.ReadWord(0x0) != 1 {
		t.Fatal("unit before the open group should be durable")
	}
	dev.EndAtomicPersist()
}

func TestJournalDetachStopsRecording(t *testing.T) {
	dev, store := journalDevice(t)
	j := dev.AttachJournal()
	store.WriteWord(0x0, 1)
	dev.DetachJournal()
	store.WriteWord(0x8, 2)
	if j.Len() != 1 {
		t.Fatalf("detached journal kept recording: %d entries", j.Len())
	}
	if dev.Journal() != nil {
		t.Fatal("Journal() should be nil after detach")
	}
	// Atomic markers are no-ops with no journal attached.
	dev.BeginAtomicPersist()
	dev.EndAtomicPersist()
}

// Journal returns the attached journal, or nil.
func (d *Device) Journal() *Journal { return d.journal }

// DetachJournal stops recording and releases the journal.
func (d *Device) DetachJournal() {
	if d.journal == nil {
		return
	}
	d.store.SetWriteObserver(nil)
	d.journal = nil
}

// Entries exposes the recorded unit sequence (read-only; do not mutate).
func (j *Journal) Entries() []JournalEntry { return j.entries }
