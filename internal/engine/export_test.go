// Test-only accessors for the external engine tests.

package engine

// Thread reports the environment's thread index.
func (e *Env) Thread() int { return e.thread }

// InTx reports whether the thread has an open transaction.
func (e *Env) InTx() bool { return e.sys.txOpen[e.thread] }
