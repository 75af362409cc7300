//! Support crate for the benchmarks under `benches/`:
//!
//! * `engine_fastforward` times the engines' fast-forward against naive
//!   stepping and records `BENCH_engine.json`;
//! * `sweep_throughput` times `Sweep::run` (sequential, multi-threaded,
//!   warm cache, adaptive) and records `BENCH_sweep.json`.
//!
//! The paper's tables and figures are regenerated and golden-checked by
//! the `dva-experiments` binaries, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
