package nvm

import (
	"maps"
	"math/rand/v2"
	"testing"

	"hoop/internal/mem"
	"hoop/internal/sim"
)

func newDev(t *testing.T) (*Device, *sim.Stats) {
	t.Helper()
	st := sim.NewStats()
	p := DefaultParams()
	return NewDevice(p, mem.NewStore(), st), st
}

func TestReadWriteLatency(t *testing.T) {
	d, st := newDev(t)
	done := d.Read(0, mem.LineSize, 0)
	if done < 50*sim.Nanosecond {
		t.Fatalf("read finished in %v, below the 50ns device latency", done)
	}
	done = d.Write(mem.LineSize, mem.LineSize, 0)
	if done < 150*sim.Nanosecond {
		t.Fatalf("write finished in %v, below the 150ns device latency", done)
	}
	if st.Get(sim.StatNVMBytesRead) != 64 || st.Get(sim.StatNVMBytesWritten) != 64 {
		t.Fatalf("traffic accounting: %s", st)
	}
}

func TestBankQueueingBuildsUp(t *testing.T) {
	d, _ := newDev(t)
	// Hammer one bank at the same instant: completions must serialize.
	a := mem.PAddr(0)
	first := d.Write(a, mem.LineSize, 0)
	tenth := first
	for i := 0; i < 9; i++ {
		tenth = d.Write(a, mem.LineSize, 0)
	}
	if tenth < first+9*150*sim.Nanosecond {
		t.Fatalf("10 same-bank writes at t=0 must serialize: first %v, tenth %v", first, tenth)
	}
}

func TestBankParallelism(t *testing.T) {
	d, _ := newDev(t)
	// Writes to different banks at the same instant overlap (only the
	// shared channel transfer serializes).
	var last sim.Time
	for i := 0; i < d.Params().Banks; i++ {
		last = d.Write(mem.PAddr(i*mem.LineSize), mem.LineSize, 0)
	}
	// 16 writes serialized would take 2.4 µs; parallel banks finish in
	// roughly one write latency plus the channel transfers.
	if last > 300*sim.Nanosecond {
		t.Fatalf("bank-parallel writes took %v", last)
	}
}

func TestQueueDrainsOverTime(t *testing.T) {
	d, _ := newDev(t)
	a := mem.PAddr(0)
	for i := 0; i < 10; i++ {
		d.Write(a, mem.LineSize, 0)
	}
	// Far in the future the backlog has drained: latency back to ~150ns.
	done := d.Write(a, mem.LineSize, 1*sim.Millisecond)
	if done > 1*sim.Millisecond+200*sim.Nanosecond {
		t.Fatalf("backlog did not drain: %v", done)
	}
}

func TestOutOfOrderArrivalIsNotPenalized(t *testing.T) {
	d, _ := newDev(t)
	// An agent far in the future touches a bank...
	d.Write(0, mem.LineSize, 1*sim.Millisecond)
	// ...an agent in its past must not wait until that future time.
	done := d.Read(0, mem.LineSize, 10*sim.Nanosecond)
	if done > 10*sim.Nanosecond+300*sim.Nanosecond {
		t.Fatalf("past arrival stalled to the future frontier: %v", done)
	}
}

func TestResetQueues(t *testing.T) {
	d, _ := newDev(t)
	for i := 0; i < 100; i++ {
		d.Write(0, mem.LineSize, 0)
	}
	d.ResetQueues()
	if done := d.Write(0, mem.LineSize, 0); done > 200*sim.Nanosecond {
		t.Fatalf("queues not reset: %v", done)
	}
}

func TestEnergyModel(t *testing.T) {
	d, _ := newDev(t)
	d.Read(0, mem.LineSize, 0)
	wantRead := 64 * 8 * (0.93 + 2.47)
	if got := d.ReadEnergyPJ(); got < wantRead*0.99 || got > wantRead*1.01 {
		t.Fatalf("read energy %f, want %f", got, wantRead)
	}
	d.Write(0, mem.LineSize, 0)
	wantWrite := 64 * 8 * (1.02 + 16.82)
	if got := d.WriteEnergyPJ(); got < wantWrite*0.99 || got > wantWrite*1.01 {
		t.Fatalf("write energy %f, want %f", got, wantWrite)
	}
	if d.TotalEnergyPJ() != d.ReadEnergyPJ()+d.WriteEnergyPJ() {
		t.Fatal("total energy mismatch")
	}
}

func TestWearTracking(t *testing.T) {
	d, _ := newDev(t)
	d.Write(0, mem.LineSize, 0)
	d.Write(5<<20, 2*mem.LineSize, 0)
	buckets, minW, maxW, total := d.WearInRegion(mem.Region{Base: 0, Size: 8 << 20})
	if buckets != 2 || total != 3*mem.LineSize {
		t.Fatalf("wear: buckets=%d total=%d", buckets, total)
	}
	if minW != mem.LineSize || maxW != 2*mem.LineSize {
		t.Fatalf("wear min/max: %d/%d", minW, maxW)
	}
	if len(d.WearBuckets()) != 2 {
		t.Fatal("WearBuckets")
	}
}

// mapWear is the map model the wear directory replaced: bytes written per
// 1 MB bucket, keyed by bucket, with WearInRegion probing every bucket of
// the region.
type mapWear map[uint64]int64

func (m mapWear) inRegion(r mem.Region) (buckets int, minW, maxW, total int64) {
	for b := uint64(r.Base) >> wearBucketShift; b <= uint64(r.End()-1)>>wearBucketShift; b++ {
		w, ok := m[b]
		if !ok {
			continue
		}
		if buckets == 0 || w < minW {
			minW = w
		}
		if buckets == 0 || w > maxW {
			maxW = w
		}
		buckets++
		total += w
	}
	return buckets, minW, maxW, total
}

// TestWearMatchesMapModel writes a seeded stream across a 512 GB layout's
// home and OOP regions (and OSP's shadow space above the device) and
// checks WearBuckets and WearInRegion against the map model, for regions
// that start and end inside a bucket, span wear-page boundaries, and
// cover nothing written.
func TestWearMatchesMapModel(t *testing.T) {
	d, _ := newDev(t)
	model := mapWear{}
	const capacity = 512 << 30
	oop := mem.PAddr(capacity - capacity/10)
	rng := rand.New(rand.NewPCG(3, 17))
	for i := 0; i < 20000; i++ {
		var a mem.PAddr
		switch rng.IntN(4) {
		case 0:
			a = mem.PAddr(rng.Uint64N(8 << 30)) // home, several wear pages
		case 1:
			a = oop + mem.PAddr(rng.Uint64N(2<<30))
		case 2:
			a = mem.PAddr(capacity - 1<<20 + rng.Uint64N(1<<20)) // the top bucket
		default:
			a = 1<<41 + mem.PAddr(rng.Uint64N(1<<30))
		}
		a = mem.LineAddr(a)
		size := mem.LineSize * (1 + rng.IntN(64))
		d.Write(a, size, 0)
		model[uint64(a)>>wearBucketShift] += int64(size)
	}
	if got := d.WearBuckets(); !maps.Equal(got, model) {
		t.Fatalf("WearBuckets holds %d buckets, map model %d, or a count differs", len(got), len(model))
	}
	regions := []mem.Region{
		{Base: 0, Size: capacity},
		{Base: 0, Size: 8 << 30},
		{Base: oop, Size: capacity / 10},
		{Base: 511<<20 + 12345, Size: 3<<20 + 77}, // crosses a 512 MB wear page
		{Base: 9 << 30, Size: 100 << 20},          // nothing written
		{Base: 1 << 41, Size: 1 << 30},
	}
	for i := 0; i < 200; i++ {
		base := rng.Uint64N(10 << 30)
		regions = append(regions, mem.Region{Base: mem.PAddr(base), Size: 1 + rng.Uint64N(1<<30)})
	}
	for _, r := range regions {
		b, lo, hi, tot := d.WearInRegion(r)
		wb, wlo, whi, wtot := model.inRegion(r)
		if b != wb || lo != wlo || hi != whi || tot != wtot {
			t.Fatalf("WearInRegion(%v) = (%d, %d, %d, %d), map model (%d, %d, %d, %d)", r, b, lo, hi, tot, wb, wlo, whi, wtot)
		}
	}
}

func TestSensitivityKnobs(t *testing.T) {
	d, _ := newDev(t)
	d.SetLatencies(250*sim.Nanosecond, 150*sim.Nanosecond)
	if done := d.Read(0, mem.LineSize, 0); done < 250*sim.Nanosecond {
		t.Fatalf("read latency knob ignored: %v", done)
	}
	d.SetBandwidth(1 << 30)
	if d.Params().Bandwidth != 1<<30 {
		t.Fatal("bandwidth knob ignored")
	}
	if d.String() == "" {
		t.Fatal("String")
	}
}

func TestMultiLineAccessPipelines(t *testing.T) {
	d, _ := newDev(t)
	// A 1 KB read spans 16 lines over 16 banks: roughly one latency plus
	// transfer, far below 16 serialized reads.
	done := d.Read(0, 1024, 0)
	if done > 400*sim.Nanosecond {
		t.Fatalf("multi-line read did not pipeline: %v", done)
	}
}

// SetLatencies changes the read/write latencies in place.
func (d *Device) SetLatencies(read, write sim.Duration) {
	d.params.ReadLatency = read
	d.params.WriteLatency = write
}

// SetBandwidth changes the channel bandwidth in place.
func (d *Device) SetBandwidth(bytesPerSec int64) {
	d.params.Bandwidth = bytesPerSec
}

// TotalEnergyPJ reports total read+write energy in picojoules.
func (d *Device) TotalEnergyPJ() float64 { return d.readEnergyPJ + d.writeEnergyPJ }
