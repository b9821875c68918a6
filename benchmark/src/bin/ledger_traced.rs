//! The ledger with a counting global allocator registered. Only the
//! traced pass runs this binary, so the end-to-end numbers never pay for
//! the two relaxed atomic adds per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Forwards to [`System`], counting every allocation and reallocation
/// (frees are not counted: the interesting number is how often fresh
/// memory is requested at all).
struct CountingAlloc;

// SAFETY: a pure pass-through to `System`, which upholds the `GlobalAlloc`
// contract; the counter updates touch no allocator state and no returned
// memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let probe = nylon_ledger::AllocProbe {
        allocations: || ALLOCATIONS.load(Ordering::Relaxed),
        bytes: || BYTES.load(Ordering::Relaxed),
    };
    std::process::exit(nylon_ledger::run(Some(probe)));
}
