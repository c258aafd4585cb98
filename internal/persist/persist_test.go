package persist

import (
	"bytes"
	"testing"
	"testing/quick"

	"hoop/internal/mem"
)

func TestTxnAllocatorMonotone(t *testing.T) {
	var a TxnAllocator
	if a.Current() != 0 {
		t.Fatal("zero value must start at 0")
	}
	first := a.Next()
	if first != 1 {
		t.Fatalf("first ID = %d, want 1 (0 means no transaction)", first)
	}
	prev := first
	for i := 0; i < 100; i++ {
		id := a.Next()
		if id <= prev {
			t.Fatal("IDs must be strictly increasing")
		}
		prev = id
	}
	a.Reset(500)
	if a.Next() != 501 {
		t.Fatal("Reset must continue above the given ID")
	}
}

func TestWordsOfRoundtrip(t *testing.T) {
	f := func(raw []byte, base uint32) bool {
		n := (len(raw) / mem.WordSize) * mem.WordSize
		if n == 0 {
			return true
		}
		data := raw[:n]
		addr := mem.PAddr(base) &^ 7
		ws := WordsOf(addr, data)
		if len(ws) != n/mem.WordSize {
			return false
		}
		var rebuilt []byte
		for i, w := range ws {
			if w.Addr != addr+mem.PAddr(i*mem.WordSize) {
				return false
			}
			rebuilt = append(rebuilt, w.Val[:]...)
		}
		return bytes.Equal(rebuilt, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWordsOfRejectsMisalignment(t *testing.T) {
	for _, c := range []struct {
		addr mem.PAddr
		n    int
	}{{1, 8}, {8, 7}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WordsOf(%v, %d bytes) must panic", c.addr, c.n)
				}
			}()
			WordsOf(c.addr, make([]byte, c.n))
		}()
	}
}

// Current reports the most recently issued ID.
func (a *TxnAllocator) Current() TxID { return a.next }
