package trace

import (
	"fmt"

	"hoop/internal/engine"
)

// ApplyOp issues one recorded op against env. buf is a scratch buffer for
// load destinations, grown as needed and returned for reuse; pass nil on
// the first call.
func ApplyOp(env *engine.Env, op Op, buf []byte) ([]byte, error) {
	switch op.Kind {
	case OpTxBegin:
		env.TxBegin()
	case OpTxEnd:
		env.TxEnd()
	case OpTxAbort:
		env.TxAbort()
	case OpLoad:
		if cap(buf) < int(op.Size) {
			buf = make([]byte, op.Size)
		}
		env.Read(op.Addr, buf[:op.Size])
	case OpStore:
		env.Write(op.Addr, op.Data)
	case OpScan:
		env.NoteScan(int(op.Size), int(op.Addr))
	default:
		return buf, fmt.Errorf("trace: unknown op kind %d", op.Kind)
	}
	return buf, nil
}

// ReplayOps drives a recorded op stream against a fresh system: every
// thread's operations execute in recorded order (interleaved exactly as
// captured), through whatever persistence scheme sys is configured with.
// It returns the number of committed transactions replayed. Replaying ops
// that carry aborts requires a system built with Config.Abortable.
func ReplayOps(sys *engine.System, ops []Op) (int64, error) {
	envs := make([]*engine.Env, sys.Config().Threads)
	for i := range envs {
		envs[i] = sys.NewEnv(i)
	}
	buf := make([]byte, 0, 1024)
	var txs int64
	for _, op := range ops {
		if int(op.Thread) >= len(envs) {
			return txs, fmt.Errorf("trace: op for thread %d but system has %d threads", op.Thread, len(envs))
		}
		var err error
		if buf, err = ApplyOp(envs[op.Thread], op, buf); err != nil {
			return txs, err
		}
		if op.Kind == OpTxEnd {
			txs++
		}
	}
	return txs, nil
}
