package memctrl

import (
	"testing"

	"hoop/internal/mem"
	"hoop/internal/nvm"
	"hoop/internal/sim"
)

func newCtrl(t *testing.T) *Controller {
	t.Helper()
	dev := nvm.NewDevice(nvm.DefaultParams(), mem.NewStore(), sim.NewStats())
	return New(DefaultConfig(4), dev)
}

func TestSyncAccessesAddOverhead(t *testing.T) {
	c := newCtrl(t)
	done := c.Read(0, mem.LineSize, 0)
	if done < c.cfg.Overhead+50*sim.Nanosecond {
		t.Fatalf("read %v below overhead+latency", done)
	}
	done = c.Write(mem.LineSize, mem.LineSize, 0)
	if done < c.cfg.Overhead+150*sim.Nanosecond {
		t.Fatalf("write %v below overhead+latency", done)
	}
}

func TestPostedWritesAndDrain(t *testing.T) {
	c := newCtrl(t)
	if got := c.Drain(0, 100); got != 100 {
		t.Fatalf("drain with nothing pending must return now, got %v", got)
	}
	d1 := c.PostWrite(0, 0, mem.LineSize, 0)
	d2 := c.PostWrite(0, 0, mem.LineSize, 0) // same bank: later completion
	if d2 <= d1 {
		t.Fatal("second same-bank posted write must finish later")
	}
	if c.Pending(0) != d2 {
		t.Fatalf("pending = %v, want %v", c.Pending(0), d2)
	}
	if got := c.Drain(0, 0); got != d2 {
		t.Fatalf("drain = %v, want %v", got, d2)
	}
	// Other agents are unaffected.
	if got := c.Drain(1, 5); got != 5 {
		t.Fatalf("agent isolation broken: %v", got)
	}
	c.ResetPending()
	if c.Pending(0) != 0 {
		t.Fatal("ResetPending")
	}
}

func TestDevice(t *testing.T) {
	c := newCtrl(t)
	if c.Device() == nil {
		t.Fatal("device accessor")
	}
}

// Device exposes the underlying NVM device.
func (c *Controller) Device() *nvm.Device { return c.dev }

// Pending reports the completion time of agent's latest posted write.
func (c *Controller) Pending(agent int) sim.Time { return c.pending[agent] }
