//! Counting global allocator: tracks live heap bytes and their high-water
//! mark so `peak_heap_mb` is the peak above a pre-call baseline.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Wraps the system allocator and counts every byte it hands out. The
/// counters are statistics only (they publish no other data), hence
/// `Relaxed`.
pub struct CountingAlloc {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl CountingAlloc {
    /// An allocator with zeroed counters.
    pub const fn new() -> Self {
        CountingAlloc {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    fn grew(&self, bytes: usize) {
        let now = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    fn shrank(&self, bytes: usize) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Live heap bytes right now.
    pub fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Runs `f` and returns its value with the peak live heap during the
    /// call minus the live heap before it, in bytes.
    pub fn peak_during<T>(&self, f: impl FnOnce() -> T) -> (T, usize) {
        let base = self.live();
        self.peak.store(base, Ordering::Relaxed);
        let out = f();
        (out, self.peak.load(Ordering::Relaxed).saturating_sub(base))
    }
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged, so `System`'s guarantees carry over; the counters are
// plain atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            self.grew(layout.size());
        }
        p
    }

    // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            self.grew(layout.size());
        }
        p
    }

    // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        self.shrank(layout.size());
    }

    // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            self.shrank(layout.size());
            self.grew(new_size);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_known_allocation_is_counted_exactly_once() {
        // A private instance, so other test threads cannot move its counters.
        let a = CountingAlloc::new();
        let layout = Layout::from_size_align(8 << 20, 64).unwrap();
        let ((), peak) = a.peak_during(|| {
            // SAFETY: non-zero size; the block is freed below with its layout.
            let p = unsafe { a.alloc(layout) };
            assert!(!p.is_null());
            assert_eq!(a.live(), 8 << 20);
            // SAFETY: `p` came from `a.alloc(layout)`; the new size is non-zero.
            let q = unsafe { a.realloc(p, layout, 12 << 20) };
            assert!(!q.is_null());
            assert_eq!(a.live(), 12 << 20);
            let grown = Layout::from_size_align(12 << 20, 64).unwrap();
            // SAFETY: `q` is the live block of size 12 MiB from `realloc`.
            unsafe { a.dealloc(q, grown) };
        });
        assert_eq!((a.live(), peak), (0, 12 << 20));
    }
}
