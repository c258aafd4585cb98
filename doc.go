// Package hoopnvm is a from-scratch Go reproduction of "HOOP: Efficient
// Hardware-Assisted Out-of-Place Update for Non-Volatile Memory" (Cai,
// Coats, Huang — ISCA 2020), including the full simulation platform the
// paper evaluates on.
//
// The library lives under internal/:
//
//   - internal/hoop       — the paper's contribution: the out-of-place
//     update mechanism in the memory controller (OOP data buffer, memory
//     slices, mapping table, eviction buffer, GC with data coalescing,
//     parallel recovery)
//   - internal/baseline/* — the five comparison points (Opt-Redo, Opt-Undo,
//     OSP, LSM, LAD) plus the no-persistence Ideal system
//   - internal/engine     — the simulated machine (cores, caches, memory
//     controller, NVM) that replaces McSimA+
//   - internal/workload   — Table III's benchmarks (five data structures,
//     YCSB, TPC-C new-order)
//   - internal/harness    — regenerates every table and figure of §IV
//
// Entry points: cmd/hoopbench (full evaluation, Figure 11's recovery
// experiment included), cmd/hoopsim (single configuration), cmd/hoopd
// (the sharded service tier), cmd/hoopcrash (crash-point enumeration) and
// cmd/hooptop (trace summaries). The worked examples are Example functions
// with checked output in internal/engine and internal/hoop; DESIGN.md (S18)
// names the one job of every cmd/ program.
package hoopnvm
