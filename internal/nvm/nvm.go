// Package nvm models the timing, bandwidth, energy, and wear behaviour of
// the simulated byte-addressable non-volatile DIMM, mirroring Table II of
// the HOOP paper: 50 ns reads, 150 ns writes, 512 GB capacity, with the
// published per-bit row-buffer and array energies.
//
// The device is a bank-parallel, single-channel model: each 64-byte line
// access occupies one bank for the access latency and the shared channel
// for the transfer time. Bank conflicts and channel saturation therefore
// emerge naturally — they are what make double-write schemes (redo/undo
// logging) lose throughput, and what makes garbage collection interfere
// with foreground traffic in Figure 10.
package nvm

import (
	"fmt"

	"hoop/internal/mem"
	"hoop/internal/sim"
	"hoop/internal/telemetry"
)

// Params configures the device.
type Params struct {
	// ReadLatency is the time for a bank to service a 64-byte read
	// (paper default 50 ns).
	ReadLatency sim.Duration
	// WriteLatency is the time for a bank to service a 64-byte write
	// (paper default 150 ns).
	WriteLatency sim.Duration
	// Bandwidth is the shared channel bandwidth in bytes/second
	// (Figure 11 sweeps 10–30 GB/s).
	Bandwidth int64
	// Banks is the number of independent banks (line-interleaved).
	Banks int
	// Capacity is the DIMM capacity in bytes (paper default 512 GB).
	Capacity uint64
	// Energy holds the per-bit energy coefficients from Table II.
	Energy EnergyParams
}

// EnergyParams are the Table II energy coefficients, in picojoules per bit.
type EnergyParams struct {
	RowBufferRead  float64 // 0.93 pJ/bit
	RowBufferWrite float64 // 1.02 pJ/bit
	ArrayRead      float64 // 2.47 pJ/bit
	ArrayWrite     float64 // 16.82 pJ/bit
}

// DefaultParams returns the paper's Table II configuration.
func DefaultParams() Params {
	return Params{
		ReadLatency:  50 * sim.Nanosecond,
		WriteLatency: 150 * sim.Nanosecond,
		Bandwidth:    15 << 30, // 15 GB/s channel
		Banks:        16,
		Capacity:     512 << 30,
		Energy: EnergyParams{
			RowBufferRead:  0.93,
			RowBufferWrite: 1.02,
			ArrayRead:      2.47,
			ArrayWrite:     16.82,
		},
	}
}

// wearBucketShift groups wear accounting into 1 MB buckets; fine enough to
// observe uniform aging of OOP blocks (2 MB) without per-line maps.
const wearBucketShift = 20

// queue models contention on one resource (a bank or the shared channel)
// as a leaky bucket: outstanding service time drains in real time, and a
// new access waits behind whatever backlog remains. Unlike an absolute
// "free at time T" frontier, this stays correct when accesses arrive out
// of global time order — the engine simulates threads at transaction
// granularity, so a lagging thread must not be penalized for accesses its
// peers performed in its simulated future.
type queue struct {
	last    sim.Time
	backlog sim.Duration
}

// acquire reserves service time starting no earlier than now and returns
// the queueing delay.
func (q *queue) acquire(now sim.Time, service sim.Duration) sim.Duration {
	if now > q.last {
		elapsed := now - q.last
		if elapsed >= q.backlog {
			q.backlog = 0
		} else {
			q.backlog -= elapsed
		}
		q.last = now
	}
	wait := q.backlog
	q.backlog += service
	return wait
}

// Device is the simulated NVM DIMM: functional contents plus a timing,
// traffic, energy and wear model. Device is not safe for concurrent use;
// the engine serializes access.
type Device struct {
	params Params
	store  *mem.Store

	// Interned counter handles: one of these fires per simulated line
	// access, so they bypass the name-keyed map.
	reads        *sim.Counter
	bytesRead    *sim.Counter
	writes       *sim.Counter
	bytesWritten *sim.Counter

	banks   []queue
	channel queue

	readEnergyPJ  float64
	writeEnergyPJ float64

	wear map[uint64]int64

	journal *Journal
	tel     *telemetry.Hub
}

// NewDevice builds a device with the given parameters, contents store, and
// stats registry.
func NewDevice(p Params, store *mem.Store, stats *sim.Stats) *Device {
	if p.Banks <= 0 {
		panic("nvm: need at least one bank")
	}
	if p.Bandwidth <= 0 {
		panic("nvm: bandwidth must be positive")
	}
	return &Device{
		params:       p,
		store:        store,
		reads:        stats.Counter(sim.StatNVMReads),
		bytesRead:    stats.Counter(sim.StatNVMBytesRead),
		writes:       stats.Counter(sim.StatNVMWrites),
		bytesWritten: stats.Counter(sim.StatNVMBytesWritten),
		banks:        make([]queue, p.Banks),
		wear:         make(map[uint64]int64),
	}
}

// AttachTelemetry connects the device to a telemetry hub; per-access
// KindNVMRead/KindNVMWrite events fire while a sink subscribes to them.
// These are the highest-rate kinds in the taxonomy, so the default trace
// masks leave them off and the cost stays at one Enabled check per access.
func (d *Device) AttachTelemetry(h *telemetry.Hub) { d.tel = h }

// Params reports the device configuration.
func (d *Device) Params() Params { return d.params }

// Store exposes the functional contents.
func (d *Device) Store() *mem.Store { return d.store }

func (d *Device) bank(a mem.PAddr) int {
	return int(mem.LineIndex(a)) % d.params.Banks
}

// transferTime is the channel occupancy to move n bytes.
func (d *Device) transferTime(n int) sim.Duration {
	// ps = bytes * 1e12 / bandwidth
	return sim.Duration(int64(n) * int64(sim.Second) / d.params.Bandwidth)
}

// access serializes one line-granule access through bank+channel and
// returns its completion time: queueing delay (the longer of the bank and
// channel backlogs), then the device latency and transfer time.
func (d *Device) access(a mem.PAddr, bytes int, now sim.Time, lat sim.Duration) sim.Time {
	xfer := d.transferTime(bytes)
	chWait := d.channel.acquire(now, xfer)
	bWait := d.banks[d.bank(a)].acquire(now, lat)
	wait := chWait
	if bWait > wait {
		wait = bWait
	}
	return now + wait + lat + xfer
}

// Read performs a read of size bytes at address a starting no earlier than
// now, returning the completion time. Traffic and energy are accounted.
// The read is split into line-granule bank accesses that pipeline across
// banks.
func (d *Device) Read(a mem.PAddr, size int, now sim.Time) sim.Time {
	if size <= 0 {
		return now
	}
	done := now
	for off := 0; off < size; off += mem.LineSize {
		n := size - off
		if n > mem.LineSize {
			n = mem.LineSize
		}
		t := d.access(a+mem.PAddr(off), n, now, d.params.ReadLatency)
		done = sim.MaxTime(done, t)
	}
	d.reads.Inc()
	d.bytesRead.Add(int64(size))
	bits := float64(size) * 8
	d.readEnergyPJ += bits * (d.params.Energy.RowBufferRead + d.params.Energy.ArrayRead)
	if d.tel.Enabled(telemetry.KindNVMRead) {
		d.tel.Emit(telemetry.Event{
			Kind:  telemetry.KindNVMRead,
			Time:  done,
			Core:  -1,
			Addr:  a,
			Bytes: int64(size),
		})
	}
	return done
}

// Write performs a write of size bytes at address a starting no earlier
// than now, returning the completion time. Traffic, energy and wear are
// accounted. Write does not touch the functional store — persistence
// schemes decide what bytes land where via Store().
func (d *Device) Write(a mem.PAddr, size int, now sim.Time) sim.Time {
	if size <= 0 {
		return now
	}
	done := now
	for off := 0; off < size; off += mem.LineSize {
		n := size - off
		if n > mem.LineSize {
			n = mem.LineSize
		}
		t := d.access(a+mem.PAddr(off), n, now, d.params.WriteLatency)
		done = sim.MaxTime(done, t)
	}
	d.writes.Inc()
	d.bytesWritten.Add(int64(size))
	bits := float64(size) * 8
	d.writeEnergyPJ += bits * (d.params.Energy.RowBufferWrite + d.params.Energy.ArrayWrite)
	d.wear[uint64(a)>>wearBucketShift] += int64(size)
	if d.tel.Enabled(telemetry.KindNVMWrite) {
		d.tel.Emit(telemetry.Event{
			Kind:  telemetry.KindNVMWrite,
			Time:  done,
			Core:  -1,
			Addr:  a,
			Bytes: int64(size),
		})
	}
	return done
}

// ResetQueues clears all bank and channel backlog. The harness calls it
// after accounting-only phases (cache drains, forced GC at a measurement
// boundary) whose burst of device work is bookkeeping, not load the next
// window's transactions should queue behind.
func (d *Device) ResetQueues() {
	for i := range d.banks {
		d.banks[i] = queue{}
	}
	d.channel = queue{}
}

// ReadEnergyPJ reports accumulated read energy in picojoules.
func (d *Device) ReadEnergyPJ() float64 { return d.readEnergyPJ }

// WriteEnergyPJ reports accumulated write energy in picojoules.
func (d *Device) WriteEnergyPJ() float64 { return d.writeEnergyPJ }

// WearBuckets returns a copy of per-1MB-bucket bytes-written counters, used
// to verify the round-robin OOP block allocation achieves uniform aging.
func (d *Device) WearBuckets() map[uint64]int64 {
	out := make(map[uint64]int64, len(d.wear))
	for k, v := range d.wear {
		out[k] = v
	}
	return out
}

// WearInRegion summarizes wear over a region: number of touched 1 MB
// buckets, min, max, and total bytes written.
func (d *Device) WearInRegion(r mem.Region) (buckets int, minW, maxW, total int64) {
	lo := uint64(r.Base) >> wearBucketShift
	hi := uint64(r.End()-1) >> wearBucketShift
	first := true
	for b := lo; b <= hi; b++ {
		w, ok := d.wear[b]
		if !ok {
			continue
		}
		buckets++
		total += w
		if first || w < minW {
			minW = w
		}
		if first || w > maxW {
			maxW = w
		}
		first = false
	}
	return buckets, minW, maxW, total
}

// String describes the device.
func (d *Device) String() string {
	return fmt.Sprintf("nvm(read=%v write=%v bw=%.1fGB/s banks=%d cap=%dGB)",
		d.params.ReadLatency, d.params.WriteLatency,
		float64(d.params.Bandwidth)/float64(1<<30), d.params.Banks,
		d.params.Capacity>>30)
}
