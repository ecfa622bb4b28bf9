//! Heap footprint of the in-memory pipeline.
//!
//! `DTucker::decompose` must read the input tensor in place: the
//! approximation phase gathers each permuted frontal slice straight from
//! the caller's storage, so the heap above the pre-call baseline holds the
//! slices in flight, the compressed slices and the small factors — never a
//! second, permuted copy of the input. A counting global allocator
//! measures that peak. This file holds a single test so no other test's
//! allocations land in the counters.

use dtucker_core::{DTucker, DTuckerConfig};
use dtucker_tensor::random::low_rank_plus_noise;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards to `System` and tracks live bytes and their high-water mark.
struct CountingAlloc {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl CountingAlloc {
    fn grew(&self, bytes: usize) {
        let now = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Peak live bytes during `f`, above the live bytes before it.
    fn peak_during<T>(&self, f: impl FnOnce() -> T) -> (T, usize) {
        let base = self.live.load(Ordering::Relaxed);
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

    // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        self.live.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc {
    live: AtomicUsize::new(0),
    peak: AtomicUsize::new(0),
};

#[test]
fn decompose_never_copies_the_input() {
    // Modes are reordered to (240, 200, 40): a non-identity permutation,
    // so any materialized permutation would be a full input-sized buffer.
    let mut rng = StdRng::seed_from_u64(7);
    let x = low_rank_plus_noise(&[40, 240, 200], &[5, 5, 5], 0.1, &mut rng).unwrap();
    let input_bytes = x.numel() * std::mem::size_of::<f64>();
    let cfg = DTuckerConfig::uniform(5, 3).with_threads(1);
    let (out, peak) = ALLOC.peak_during(|| DTucker::new(cfg).decompose(&x));
    let out = out.unwrap();
    assert_eq!(out.decomposition.core.shape(), &[5, 5, 5]);
    assert!(
        peak < input_bytes / 2,
        "decompose peaked at {peak} bytes above baseline for a {input_bytes}-byte input"
    );
}
