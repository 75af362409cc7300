//! Memory subsystem models for the *Decoupled Vector Architectures*
//! reproduction.
//!
//! The paper's memory model (Section 4.2) has:
//!
//! * a **single pipelined memory port** shared by all accesses, modeled as
//!   a common shared [`AddressBus`] plus physically separate data paths for
//!   loads and stores;
//! * a configurable **memory latency** `L`: the first element of a load
//!   arrives `L` cycles after its address issues, while stores never expose
//!   latency to the processor;
//! * a small **scalar cache** that holds only scalar data — vector accesses
//!   go directly to main memory.
//!
//! One [`Memory`] runs that model for both simulators: every access
//! goes through it, so their memory timing rules are identical by
//! construction. The configuration's [`MemoryModelKind`] generalizes the
//! model along two axes — how many ports there are
//! ([`MemoryModelKind::ports`]) and how long a vector access holds one
//! ([`MemoryModelKind::slowdown`]):
//!
//! | kind | ports | a length-`VL` vector access holds its port |
//! |---|---|---|
//! | [`Flat`](MemoryModelKind::Flat) | 1 | `VL` cycles (the paper's model) |
//! | [`Banked`](MemoryModelKind::Banked) | 1 | `VL * slowdown(stride)` cycles: strides that revisit a busy bank throttle the stream |
//! | [`MultiPort`](MemoryModelKind::MultiPort) | `N` | `VL` cycles on the first free port |
//!
//! so bank conflicts and extra memory ports become sweep axes without
//! either engine changing.
//!
//! # Examples
//!
//! ```
//! use dva_memory::{Memory, MemoryModelKind, MemoryParams};
//! use dva_isa::VectorLength;
//!
//! let mut mem = Memory::new(MemoryParams::with_latency(30)); // flat by default
//! let vl = VectorLength::new(64).unwrap();
//! let issue = mem.issue_vector_load(0, vl, None);
//! assert_eq!(issue.port_free_at, 64);     // bus held for VL cycles
//! assert_eq!(issue.data_complete_at, 94); // L + VL
//!
//! let two = MemoryParams::with_latency(30)
//!     .with_model(MemoryModelKind::MultiPort { ports: 2 });
//! mem.reset(two); // same storage, another kind
//! assert_eq!(mem.ports().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backends;
mod bus;
mod cache;
mod model;

pub use backends::Memory;
pub use bus::AddressBus;
pub use cache::{CacheAccess, ScalarCache, ScalarCacheParams, MAX_CACHE_LINES};
pub use model::{LoadIssue, MemoryModelKind, MemoryParams, MAX_BANKS, MAX_BANK_BUSY, MAX_PORTS};
