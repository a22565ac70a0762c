//! The arrival-barrier driver sizes each shard's outcome log once.
//!
//! A barrier shard's share of the stream is known only once routed, so
//! its outcome log is reserved ahead at its even share plus slack.
//! Growing a log copies it and leaves the old block resident in the
//! process, which raises the serve's peak memory. This test serves the canonical day under power-of-two-choices routing at
//! the size the end-to-end benchmark serves it (40,000 requests) and
//! asserts that no block of outcome records as large as a shard's even
//! share is reallocated during the serve.
//!
//! A thread-local allocator records the reallocations: the barrier
//! driver serves on the caller's thread, and other tests' threads
//! cannot perturb the record. It exists in debug builds only
//! (`cfg(debug_assertions)`), and forwards to [`System`].
#![cfg(debug_assertions)]

use s2ta_bench::cluster_scenario;
use s2ta_serve::{OutcomeLog, RoutingPolicy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// The largest block of outcome records reallocated on this thread.
    static LARGEST_LOG_REALLOC: Cell<usize> = const { Cell::new(0) };
}

struct ReallocRecorder;

// SAFETY: pure pass-through to `System`; the only addition is a
// thread-local update, and `try_with` keeps calls during TLS teardown
// from panicking.
unsafe impl GlobalAlloc for ReallocRecorder {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if layout.size().is_multiple_of(OutcomeLog::ROW_BYTES) {
            let _ = LARGEST_LOG_REALLOC.try_with(|c| c.set(c.get().max(layout.size())));
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static RECORDER: ReallocRecorder = ReallocRecorder;

/// Requests the end-to-end benchmark serves the barrier day at.
const REQUESTS: usize = 40_000;

#[test]
fn barrier_outcome_logs_are_never_regrown() {
    let models = cluster_scenario::models();
    let mut spec = cluster_scenario::workload();
    spec.requests = REQUESTS;
    let stream = spec.generate();
    let cluster = cluster_scenario::cluster(RoutingPolicy::PowerOfTwo);
    let even_share = REQUESTS / cluster.shards().len();
    LARGEST_LOG_REALLOC.with(|c| c.set(0));
    let report = cluster.serve(&models, &stream);
    let largest = LARGEST_LOG_REALLOC.with(Cell::get);
    assert_eq!(report.total_requests(), REQUESTS);
    let busiest = report.routed.iter().max().copied().unwrap_or(0);
    assert!(
        largest < even_share * OutcomeLog::ROW_BYTES,
        "a {largest} B block of outcome records was regrown: a shard's log is reserved short \
         of its share (busiest shard {busiest} requests, even share {even_share})"
    );
}
