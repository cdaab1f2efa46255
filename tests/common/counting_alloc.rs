//! A counting global allocator for allocation-budget assertions.
//!
//! Install it in the test binary's root —
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOCATOR: common::counting_alloc::CountingAlloc =
//!     common::counting_alloc::CountingAlloc;
//! ```
//!
//! — then bracket the code under measurement with [`start`]/[`stop`].
//! Counting is armed per thread: only allocations made by the thread that
//! called [`start`] are counted, so tests running in parallel in the same
//! binary (and the test harness itself) never pollute each other's
//! windows. Code under measurement that hands work to other threads is
//! not charged for their allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// A `#[global_allocator]` that counts `alloc`/`realloc` calls made by a
/// thread armed via [`start`], delegating all actual work to [`System`].
pub struct CountingAlloc;

thread_local! {
    // Const-initialised `Cell`s of plain data have no destructor and need
    // no lazy initialisation, so touching them from inside the allocator
    // never allocates (or recurses into it).
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` tolerates calls during thread-local teardown.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Zero this thread's counter and start counting its allocations.
pub fn start() {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
}

/// Stop counting on this thread and return the number of `alloc`/`realloc`
/// calls it made since [`start`].
pub fn stop() -> u64 {
    COUNTING.with(|c| c.set(false));
    ALLOCS.with(Cell::get)
}
