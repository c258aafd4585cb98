package workload

import "testing"

// TestContentionSourceNextAllocatesNothing checks that a contention
// source's Next refills its buffers in place and hands back the same body:
// a steady-state transaction costs no allocation on the source side.
func TestContentionSourceNextAllocatesNothing(t *testing.T) {
	c := Contention{Keys: 64, OpsPerTx: 4, Theta: 0.99}
	for _, src := range c.Sources(2, 1) {
		src.Next() // warm up
		if got := testing.AllocsPerRun(100, func() { src.Next() }); got != 0 {
			t.Errorf("Next allocates %.1f per call, want 0", got)
		}
	}
}
