package trace

import "fmt"

// countTxs counts each thread's ops and transaction closes over a stream
// held in chunks, and checks that every op names a thread below threads
// and that no thread ends with an open transaction.
func countTxs(chunks [][]Op, threads int) (nops, ntxs []int, total int, err error) {
	nops = make([]int, threads)
	ntxs = make([]int, threads)
	open := make([]int, threads) // ops since the thread's last close
	for _, c := range chunks {
		for _, op := range c {
			t := int(op.Thread)
			if t >= threads {
				return nil, nil, 0, fmt.Errorf("trace: op for thread %d but only %d threads expected", op.Thread, threads)
			}
			nops[t]++
			open[t]++
			if op.Kind == OpTxEnd || op.Kind == OpTxAbort {
				ntxs[t]++
				open[t] = 0
			}
		}
	}
	for t, n := range open {
		if n != 0 {
			return nil, nil, 0, fmt.Errorf("trace: thread %d has %d trailing ops after its last transaction close", t, n)
		}
		total += nops[t]
	}
	return nops, ntxs, total, nil
}

// splitTxs partitions an op stream, held in chunks in order, into
// per-thread transaction segments (see OpSink.SplitTxs). A first pass
// counts each thread's ops and transactions, so every thread's ops land
// in one exactly sized backing array and every segment header in another.
func splitTxs(chunks [][]Op, threads int) ([][][]Op, error) {
	nops, ntxs, total, err := countTxs(chunks, threads)
	if err != nil {
		return nil, err
	}
	totalTxs := 0
	for _, n := range ntxs {
		totalTxs += n
	}
	// Carve each thread's op region and segment list out of the shared
	// backing arrays; fill appends within each region's exact capacity.
	opBack := make([]Op, total)
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
	for _, c := range chunks {
		for _, op := range c {
			t := op.Thread
			perThread[t] = append(perThread[t], op)
			if op.Kind == OpTxEnd || op.Kind == OpTxAbort {
				end := len(perThread[t])
				out[t] = append(out[t], perThread[t][start[t]:end:end])
				start[t] = end
			}
		}
	}
	return out, nil
}
