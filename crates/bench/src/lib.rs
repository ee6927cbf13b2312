//! Experiment harness: one module per experiment in DESIGN.md's index
//! (E1–E13), each printing the paper-claim-vs-measured table recorded in
//! EXPERIMENTS.md, plus small table-formatting utilities.
//!
//! Every experiment takes an explicit seed and a `quick` flag (smaller
//! sweeps for CI); the `exp` binary runs one by name, or all of them. The
//! machine-readable perf harness (`perf_harness`, `power-sched perf`,
//! `BENCH_solver.json`) lives in [`perf`].

pub mod experiments;
pub mod loadgen;
pub mod perf;
pub mod table;

pub use table::Table;

/// Default seed used by the binaries (date of the thesis defense).
pub const DEFAULT_SEED: u64 = 20100521;
