package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"hoop/internal/cc"
	"hoop/internal/engine"
	"hoop/internal/mem"
	"hoop/internal/workload"
)

// durableDigest hashes a store's nonzero pages with their addresses, in
// address order: stores with equal contents have equal digests.
func durableDigest(s *mem.Store) [sha256.Size]byte {
	h := sha256.New()
	var base [8]byte
	s.ForEachPage(func(a mem.PAddr, data []byte) {
		for _, b := range data {
			if b != 0 {
				binary.LittleEndian.PutUint64(base[:], uint64(a))
				h.Write(base[:])
				h.Write(data)
				return
			}
		}
	})
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// TestRecycledTagArraysLeakNoState is the state-leak oracle for the cache
// tag arrays a released system hands to the next one. It runs every
// contention point, and every scheme × registered workload at a small
// transaction count, twice: first each on fresh arrays (the free lists
// are emptied before each run), then in reverse order, so each run takes
// the arrays the run before it released — a cell of another scheme,
// workload or thread count. Both runs of a cell must produce DeepEqual
// Metrics and byte-identical durable stores, and the second pass must
// allocate measurably less: it really ran on recycled arrays.
func TestRecycledTagArraysLeakNoState(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every contention point and scheme × workload cell twice")
	}
	opts := Options{Quick: true, Seed: 1}
	var cells []Cell
	var names []string
	for _, scheme := range engine.AllSchemes {
		for _, pol := range cc.Policies {
			for _, theta := range contentionThetas {
				for _, n := range contentionThreads {
					cells = append(cells, contentionPoint(scheme, pol, theta, n, opts))
					names = append(names, fmt.Sprintf("%s/%s/%s", scheme, pol, contentionColName(theta, n)))
				}
			}
		}
	}
	for _, name := range workload.Registered() {
		wl := workload.MustBuild(name, workload.Options{Keys: 256})
		for _, scheme := range engine.AllSchemes {
			cells = append(cells, Cell{Scheme: scheme, Workload: wl, Txs: 40, Seed: 3, Mut: smallMut})
			names = append(names, scheme+"/"+name)
		}
	}

	type result struct {
		m       Metrics
		durable [sha256.Size]byte
	}
	// run executes cell i and reports its result and the bytes it
	// allocated.
	run := func(i int) (result, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, sys, err := runCellSystem(cells[i])
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		res := result{m, durableDigest(sys.Durable())}
		sys.Release()
		runtime.ReadMemStats(&after)
		return res, after.TotalAlloc - before.TotalAlloc
	}

	fresh := make([]result, len(cells))
	var freshBytes, recycledBytes uint64
	for i := range cells {
		// Two collections empty every sync.Pool, so this run allocates
		// its tag arrays.
		runtime.GC()
		runtime.GC()
		res, n := run(i)
		fresh[i] = res
		freshBytes += n
	}
	for i := len(cells) - 1; i >= 0; i-- {
		res, n := run(i)
		recycledBytes += n
		if !reflect.DeepEqual(res.m, fresh[i].m) {
			t.Errorf("%s: metrics on recycled tag arrays differ\nfresh:    %+v\nrecycled: %+v", names[i], fresh[i].m, res.m)
		}
		if res.durable != fresh[i].durable {
			t.Errorf("%s: durable store on recycled tag arrays differs from the fresh run's", names[i])
		}
	}
	t.Logf("allocated %d B fresh, %d B recycled over %d cells", freshBytes, recycledBytes, len(cells))
	// A cell's hierarchy is at least the 512 KB LLC tag and stamp arrays;
	// require the recycled pass to have saved half of that per cell.
	if saved := int64(freshBytes) - int64(recycledBytes); saved < int64(len(cells))*256<<10 {
		t.Errorf("recycled pass allocated %d B against the fresh pass's %d B; want at least %d B saved", recycledBytes, freshBytes, len(cells)*256<<10)
	}
}
