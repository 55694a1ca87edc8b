//! Counting global allocator: exact heap-allocation counts for the
//! timed region. Every binary and test of this package links it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator, counting calls and bytes.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// statistics and publish no other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size as u64, Relaxed);
        FREED.fetch_add(layout.size() as u64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED.fetch_add(layout.size() as u64, Relaxed);
        System.dealloc(ptr, layout)
    }
}

/// Allocator counters at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    /// `alloc`, `alloc_zeroed` and `realloc` calls so far.
    pub calls: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Bytes handed back so far.
    pub freed: u64,
}

impl Counts {
    /// The counters now.
    pub fn now() -> Counts {
        Counts {
            calls: CALLS.load(Relaxed),
            bytes: BYTES.load(Relaxed),
            freed: FREED.load(Relaxed),
        }
    }

    /// Calls and bytes since `earlier`.
    pub fn since(self, earlier: Counts) -> Counts {
        Counts {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
            freed: self.freed - earlier.freed,
        }
    }

    /// Bytes allocated and not yet freed.
    pub fn live(self) -> i128 {
        self.bytes as i128 - self.freed as i128
    }
}
