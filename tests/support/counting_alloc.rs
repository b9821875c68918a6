//! A counting global allocator, so "zero-alloc" claims are measured, not
//! asserted.
//!
//! Not a test target of its own: the allocation-count tests
//! (`tests/alloc_gate.rs`, `tests/idle_fabric.rs`) include this file with
//! `#[path]` and register [`CountingAlloc`] as their `#[global_allocator]`.
//! Counters are process-global relaxed atomics, exact as long as nothing
//! else in the process allocates while a count is taken — which is why each
//! of those binaries holds a single `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Forwards to [`System`] while counting every allocation.
///
/// Reallocations count as one allocation (the common grow-in-place path a
/// pooled buffer is supposed to avoid); deallocations are not tracked —
/// the interesting metric for a recycling free-list is how often fresh
/// memory is requested at all.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc;

// SAFETY: pure pass-through to `System`; the counter updates have no effect
// on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Total allocations since process start.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Total bytes requested since process start.
pub fn bytes_allocated() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

/// Runs `f` and returns `(result, allocations, bytes)` attributed to it.
pub fn counting<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let a0 = allocations();
    let b0 = bytes_allocated();
    let out = f();
    (out, allocations() - a0, bytes_allocated() - b0)
}
