// Package memctrl is the memory-controller substrate shared by every
// persistence scheme: it mediates access to the NVM device, adding a fixed
// controller processing overhead, and models posted (asynchronous) writes
// with per-agent drain/fence semantics. HOOP and the hardware-logging
// baselines are all "implemented in the memory controller" in the paper;
// in this reproduction they are built on top of this type.
package memctrl

import (
	"hoop/internal/mem"
	"hoop/internal/nvm"
	"hoop/internal/sim"
	"hoop/internal/telemetry"
)

// Config tunes the controller model.
type Config struct {
	// Overhead is the fixed controller processing time added to every
	// request (queue slot, scheduling decision).
	Overhead sim.Duration
	// Agents is the number of independent request sources tracked for
	// posted-write draining (one per core plus background agents).
	Agents int
}

// DefaultConfig returns sensible defaults: 4 ns controller overhead.
func DefaultConfig(agents int) Config {
	return Config{
		Overhead: 4 * sim.Nanosecond,
		Agents:   agents,
	}
}

// Controller fronts the NVM device.
type Controller struct {
	cfg     Config
	dev     *nvm.Device
	pending []sim.Time // per-agent completion time of the latest posted write
	tel     *telemetry.Hub
}

// New builds a controller over dev.
func New(cfg Config, dev *nvm.Device) *Controller {
	if cfg.Agents <= 0 {
		panic("memctrl: need at least one agent")
	}
	return &Controller{cfg: cfg, dev: dev, pending: make([]sim.Time, cfg.Agents)}
}

// AttachTelemetry connects the controller to a telemetry hub. Drain emits
// a KindPersistDrain event whenever an agent actually stalls on posted
// writes — the persist-ordering stalls the paper's critical-path analysis
// is about. Zero-wait drains stay silent.
func (c *Controller) AttachTelemetry(h *telemetry.Hub) { c.tel = h }

// Read performs a synchronous NVM read and returns its completion time.
func (c *Controller) Read(a mem.PAddr, size int, now sim.Time) sim.Time {
	return c.dev.Read(a, size, now+c.cfg.Overhead)
}

// Write performs a synchronous NVM write and returns its completion time.
func (c *Controller) Write(a mem.PAddr, size int, now sim.Time) sim.Time {
	return c.dev.Write(a, size, now+c.cfg.Overhead)
}

// PostWrite issues an asynchronous (posted) NVM write on behalf of agent.
// The caller's clock is not expected to advance; the write's completion is
// remembered so a later Drain (memory fence / Tx_end) can wait for it.
// The completion time is returned for callers that want it.
func (c *Controller) PostWrite(agent int, a mem.PAddr, size int, now sim.Time) sim.Time {
	done := c.dev.Write(a, size, now+c.cfg.Overhead)
	if done > c.pending[agent] {
		c.pending[agent] = done
	}
	return done
}

// Drain blocks agent until all of its posted writes have completed,
// returning the time at which the drain finishes.
func (c *Controller) Drain(agent int, now sim.Time) sim.Time {
	done := sim.MaxTime(now, c.pending[agent])
	if done > now && c.tel.Enabled(telemetry.KindPersistDrain) {
		c.tel.Emit(telemetry.Event{
			Kind: telemetry.KindPersistDrain,
			Time: done,
			Core: int16(agent),
			Aux:  int64(done - now),
		})
	}
	return done
}

// ResetPending clears posted-write tracking (crash: in-flight posted writes
// that did not complete are simply gone — callers must have ordered their
// durability-critical writes with Drain).
func (c *Controller) ResetPending() {
	for i := range c.pending {
		c.pending[i] = 0
	}
}
