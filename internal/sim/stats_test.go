package sim

import "testing"

// TestStatsHandleNameEquivalence pins the contract between the interned
// Counter handles and the name-keyed convenience API: both views mutate
// the same underlying value, in either direction.
func TestStatsHandleNameEquivalence(t *testing.T) {
	s := NewStats()
	c := s.Counter("x")
	c.Inc()
	c.Add(4)
	if s.Get("x") != 5 {
		t.Fatalf("name view sees %d after handle writes, want 5", s.Get("x"))
	}
	s.Inc("x")
	s.Add("x", 10)
	if c.Value() != 16 {
		t.Fatalf("handle sees %d after name writes, want 16", c.Value())
	}
	s.Set("x", 3)
	if c.Value() != 3 {
		t.Fatalf("handle sees %d after Set, want 3", c.Value())
	}
	if snap := s.Snapshot(); len(snap) != 1 || snap[0] != (CounterSample{Name: "x", Value: 3}) {
		t.Fatalf("Snapshot = %v", snap)
	}
}

func TestStatsCounterInterned(t *testing.T) {
	s := NewStats()
	a := s.Counter("same")
	b := s.Counter("same")
	if a != b {
		t.Fatal("Counter must return the same handle for the same name")
	}
	if names := s.Names(); len(names) != 1 || names[0] != "same" {
		t.Fatalf("Names = %v", names)
	}
}

// TestStatsResetKeepsHandles: Reset zeroes values but previously interned
// handles stay live — schemes cache them across harness Reset boundaries.
func TestStatsResetKeepsHandles(t *testing.T) {
	s := NewStats()
	c := s.Counter("k")
	c.Add(7)
	s.Reset()
	if c.Value() != 0 {
		t.Fatalf("handle value after Reset = %d, want 0", c.Value())
	}
	c.Inc()
	if s.Get("k") != 1 {
		t.Fatalf("handle detached from registry after Reset: Get = %d", s.Get("k"))
	}
}

func TestStatsCounterRegistersImmediately(t *testing.T) {
	s := NewStats()
	s.Counter("early")
	if s.Get("early") != 0 {
		t.Fatal("fresh counter must read zero")
	}
	if names := s.Names(); len(names) != 1 || names[0] != "early" {
		t.Fatalf("interning must register the name: %v", names)
	}
}

// Inc increments counter name by one.
func (s *Stats) Inc(name string) { s.Counter(name).v++ }

// Set overwrites counter name.
func (s *Stats) Set(name string, v int64) { s.Counter(name).v = v }

// Names returns the registered counter names in first-use order.
func (s *Stats) Names() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Reset zeroes every counter but keeps registration order (and every
// interned handle).
func (s *Stats) Reset() {
	for _, c := range s.counters {
		c.v = 0
	}
}
