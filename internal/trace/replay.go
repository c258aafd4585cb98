package trace

import (
	"fmt"

	"hoop/internal/engine"
)

// ApplyOp issues one recorded op against env. payload is the capture's
// store-data buffer (OpSink.Payload); a store whose bytes fall outside it
// is an error. buf is a scratch buffer for load destinations, grown as
// needed and returned for reuse; pass nil on the first call.
func ApplyOp(env *engine.Env, op Op, payload, buf []byte) ([]byte, error) {
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
		if op.Off > uint64(len(payload)) || uint64(op.Size) > uint64(len(payload))-op.Off {
			return buf, fmt.Errorf("trace: store of %d bytes at payload offset %d overruns the %d-byte payload", op.Size, op.Off, len(payload))
		}
		env.Write(op.Addr, payload[op.Off:op.Off+uint64(op.Size)])
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
// that carry aborts requires a system built with Config.Abortable. payload
// is the capture's store-data buffer.
func ReplayOps(sys *engine.System, ops []Op, payload []byte) (int64, error) {
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
		if buf, err = ApplyOp(envs[op.Thread], op, payload, buf); err != nil {
			return txs, err
		}
		if op.Kind == OpTxEnd {
			txs++
		}
	}
	return txs, nil
}
