package trace

import "fmt"

// SplitTxs partitions a recorded op stream into per-thread transaction
// segments: out[t][i] is thread t's i-th transaction, the ops from its
// opening TxBegin (plus any preceding out-of-transaction ops, which attach
// forward) through the TxEnd or TxAbort that closes it. Per-thread order
// is preserved; the global interleaving is deliberately discarded — a
// replayer reissues each thread's transactions under its own scheme's
// timing, letting the engine's min-clock scheduler rebuild that scheme's
// interleaving. Store ops keep their payload offsets, so the segments
// replay against the capture's payload buffer.
//
// A first pass counts each thread's ops and transactions, so every
// thread's ops land in one exactly sized backing array and every
// segment header in another.
func SplitTxs(ops []Op, threads int) ([][][]Op, error) {
	nops := make([]int, threads)
	ntxs := make([]int, threads)
	open := make([]int, threads) // ops since the thread's last close
	for _, op := range ops {
		t := int(op.Thread)
		if t >= threads {
			return nil, fmt.Errorf("trace: op for thread %d but only %d threads expected", op.Thread, threads)
		}
		nops[t]++
		open[t]++
		if op.Kind == OpTxEnd || op.Kind == OpTxAbort {
			ntxs[t]++
			open[t] = 0
		}
	}
	for t, n := range open {
		if n != 0 {
			return nil, fmt.Errorf("trace: thread %d has %d trailing ops after its last transaction close", t, n)
		}
	}
	totalTxs := 0
	for _, n := range ntxs {
		totalTxs += n
	}
	// Carve each thread's op region and segment list out of the shared
	// backing arrays; fill appends within each region's exact capacity.
	opBack := make([]Op, len(ops))
	segBack := make([][]Op, totalTxs)
	perThread := make([][]Op, threads)
	out := make([][][]Op, threads)
	for t, o, s := 0, 0, 0; t < threads; t++ {
		perThread[t] = opBack[o : o : o+nops[t]]
		out[t] = segBack[s : s : s+ntxs[t]]
		o += nops[t]
		s += ntxs[t]
	}
	start := make([]int, threads)
	for _, op := range ops {
		t := op.Thread
		perThread[t] = append(perThread[t], op)
		if op.Kind == OpTxEnd || op.Kind == OpTxAbort {
			end := len(perThread[t])
			out[t] = append(out[t], perThread[t][start[t]:end:end])
			start[t] = end
		}
	}
	return out, nil
}
