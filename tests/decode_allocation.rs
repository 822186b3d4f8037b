//! Decoding allocates in proportion to the payload, not to the counts it
//! claims. A forged checkpoint whose partition count equals the bytes left
//! after it must fail with a typed error, and the decode's peak heap use
//! must stay a small multiple of the payload size.
//!
//! The counting allocator is global to this test binary, so the file
//! holds this one test only.

use indoor_dq::core::{decode_checkpoint, FORMAT};
use indoor_dq::storage::StorageError;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call forwards its layout and pointer unchanged to
// `System`, so `System`'s contract holds whenever the caller keeps
// `GlobalAlloc`'s; the counters only read `layout.size()`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK.fetch_max(live, Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_forged_partition_count_allocates_in_proportion_to_the_payload() {
    const LEFT: usize = 1 << 20;
    let mut payload = vec![FORMAT];
    payload.extend_from_slice(&4.0f64.to_bits().to_le_bytes()); // floor height
    payload.extend_from_slice(&1.0f64.to_bits().to_le_bytes()); // stair walk factor
    payload.extend_from_slice(&1u64.to_le_bytes()); // floor count
    payload.extend_from_slice(&0u64.to_le_bytes()); // version
    payload.extend_from_slice(&(LEFT as u64).to_le_bytes()); // partition count
                                                             // Zeros: the first partition's polygon has no vertices and fails.
    payload.resize(payload.len() + LEFT, 0);

    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let result = decode_checkpoint(&payload);
    let peak = PEAK.load(Relaxed) - before;
    assert!(
        matches!(result, Err(StorageError::Decode { .. })),
        "{:?}",
        result.err()
    );
    assert!(
        peak < 4 << 20,
        "decoding {} B peaked at {peak} B of heap",
        payload.len()
    );
}
