//! Sweep-as-a-service: a persistent daemon (and client library) that
//! runs [`Sweep`](dva_sim_api::Sweep) jobs behind a content-addressed
//! result cache.
//!
//! The paper's evaluation is a grid of simulations — machines × programs
//! × latencies × memory models — and most experiment iterations re-run
//! grids that overlap heavily with what has already been measured. This
//! crate makes that overlap free:
//!
//! 1. **Identity** ([`key`]): every grid point gets a [`PointKey`] built
//!    from the *content* of its inputs — a 128-bit FNV hash of the
//!    program's instruction stream, the machine's full configuration and
//!    the fast-forward flag — as plain data that hashes without
//!    formatting anything. Equal keys ⇒ byte-identical results.
//! 2. **Storage** ([`cache`]): a bounded in-memory LRU tier over an
//!    optional append-only JSON-lines disk tier, invalidated wholesale
//!    when [`dva_engine::ENGINE_VERSION`] moves. Each result is held
//!    once, as its canonical JSON bytes shared by both tiers, and the
//!    daemon splices those bytes into its `point` frames.
//! 3. **Execution** ([`exec`]): [`SweepService::submit`] resolves a job's
//!    grid against the cache and simulates only the misses, streaming
//!    merged results back in deterministic grid order — byte-identical
//!    to `Sweep::run`, with a [`JobSummary`] of hits vs simulations.
//!    [`SweepService::run_adaptive_with`] drives an
//!    [`AdaptiveSweep`](dva_sim_api::AdaptiveSweep) session the same
//!    way, round by round — and because adaptive samples are ordinary
//!    grid points with ordinary keys, dense and adaptive jobs share
//!    cache entries in both directions.
//! 4. **Transport** ([`proto`], [`server`], [`client`]): newline-delimited
//!    JSON over stdin/stdout or a Unix socket (`dva-serve` binary), with
//!    a typed [`Client`].
//!
//! # Example
//!
//! ```
//! use dva_serve::{ResultCache, SweepService};
//! use dva_sim_api::{Machine, Sweep};
//! use dva_workloads::{Benchmark, Scale};
//!
//! let service = SweepService::new(ResultCache::in_memory(1024));
//! let sweep = Sweep::new()
//!     .machines([Machine::reference(1), Machine::dva(1)])
//!     .benchmark(Benchmark::Trfd)
//!     .latencies([1, 30])
//!     .scale(Scale::Quick);
//!
//! let (first, cost) = service.run(&sweep).unwrap();
//! assert_eq!(cost.simulated, 4);
//! let (second, cost) = service.run(&sweep).unwrap();
//! assert_eq!(cost.cache_hits, 4, "repeat jobs simulate nothing");
//! assert_eq!(first, second);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Counts allocations, so that unit tests can pin what a warm job costs.
#[cfg(test)]
#[global_allocator]
static ALLOC: dva_testutil::CountingAllocator = dva_testutil::CountingAllocator;

pub mod cache;
pub mod client;
pub mod error;
pub mod exec;
pub mod key;
pub mod proto;
pub mod server;

pub use cache::{ResultCache, DEFAULT_MEMORY_CAPACITY};
pub use client::{Client, RetryPolicy};
pub use dva_engine::ENGINE_VERSION;
pub use error::ServeError;
pub use exec::{AdaptiveSummary, JobSummary, ServeRun, SweepService};
pub use key::PointKey;
pub use server::{serve_connection, serve_stdio, serve_unix, serve_unix_with, ServeOptions};
