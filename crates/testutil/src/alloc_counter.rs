//! A counting global allocator for allocation-regression tests.
//!
//! The engines promise an allocation-free steady-state tick loop; this
//! module gives tests a way to *pin* that promise. A test binary
//! registers the [`CountingAllocator`] as its global allocator and
//! compares [`allocation_count`] deltas around engine runs — if a run
//! twice as long allocates exactly as much as a short one, the per-tick
//! allocation count is provably zero.
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: dva_testutil::CountingAllocator = dva_testutil::CountingAllocator;
//!
//! let before = dva_testutil::thread_allocation_count();
//! run_the_engine();
//! let allocs = dva_testutil::thread_allocation_count() - before;
//! ```
//!
//! [`thread_allocation_count`] counts only the calling thread, so a
//! measurement on one thread is immune to allocations elsewhere in the
//! process (another test, the test harness). [`allocation_count`] is
//! process-wide, for work spread across worker threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so the allocator can
    // touch it on any thread at any time without allocating itself.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Heap allocations (including reallocations) performed since process
/// start, on every thread, when [`CountingAllocator`] is installed as
/// the global allocator. Always zero otherwise.
pub fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Heap allocations (including reallocations) performed by the calling
/// thread since it started, when [`CountingAllocator`] is installed as
/// the global allocator. Always zero otherwise.
pub fn thread_allocation_count() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

fn count() {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    THREAD_ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

/// A [`System`]-backed allocator that counts every allocation.
///
/// Deallocations are deliberately not tracked: regression tests compare
/// *allocation* deltas, and frees of equal-sized buffers would mask a
/// steady-state churn of alloc/free pairs.
pub struct CountingAllocator;

// The impl forwards verbatim to `System`; the only addition is a
// counter increment on each allocating entry point.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}
