//! Debug-build counting allocator proving the serving hot loop is
//! allocation-free in steady state.
//!
//! [`Accelerator::run_stage_events`] is documented to allocate nothing
//! once the plan cache, activation-profile cache, and the caller's
//! [`Scratch`] arena are warm: per-position profiles are plain cached
//! tally vectors, the SMT path regenerates activations into the
//! arena's recycled buffer, and events are summed without building
//! per-layer report vectors. This test pins that claim with a global
//! counting allocator — warm the caches with two batches, then assert
//! the third, including its warm [`Accelerator::plan_model`] lookup
//! (a lane looks its plan up once per batch), performs **zero** heap
//! allocations on every architecture.
//!
//! The counter is thread-local, so worker threads of other tests in
//! this binary cannot perturb it, and it only exists in debug builds
//! (`cfg(debug_assertions)`): release benches keep the system
//! allocator untouched. This is the one spot outside `shims/` that
//! needs `unsafe` — the `GlobalAlloc` trait requires it — and the impl
//! only forwards to [`System`] after bumping a `Cell`.
#![cfg(debug_assertions)]

use s2ta_bench::SEED;
use s2ta_core::{Accelerator, ActProfileCache, ArchKind, Scratch, WeightResidency};
use s2ta_dbb::dap::LayerNnz;
use s2ta_models::{cifar10_convnet, lenet5};
use s2ta_serve::{FaultSpec, FlightRecorder, Request, RetryQueue, TraceEvent, TraceEventKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: pure pass-through to `System`; the only addition is a
// thread-local counter bump, and `try_with` keeps alloc calls during
// TLS teardown from panicking.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs_here() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn counter_actually_counts() {
    let before = allocs_here();
    std::hint::black_box(vec![0u8; 4096]);
    assert!(allocs_here() > before, "counting allocator is not installed");
}

#[test]
fn steady_state_batch_allocates_nothing_on_every_arch() {
    let model = lenet5();
    for kind in ArchKind::ALL {
        let acc = Accelerator::preset(kind);
        let plan = acc.plan_model(&model, SEED);
        let mut scratch = Scratch::new();
        let full = 0..model.layers.len();

        // Warmup: first batch compiles profiles and grows the arena;
        // second proves the buffers settled before we start counting.
        let warm = acc.run_stage_events(
            &plan,
            &model,
            full.clone(),
            SEED,
            WeightResidency::Resident,
            &mut scratch,
        );
        acc.run_stage_events(
            &plan,
            &model,
            full.clone(),
            SEED,
            WeightResidency::Resident,
            &mut scratch,
        );

        let before = allocs_here();
        let plan = acc.plan_model(&model, SEED);
        let events = acc.run_stage_events(
            &plan,
            &model,
            full.clone(),
            SEED,
            WeightResidency::Resident,
            &mut scratch,
        );
        let grew = allocs_here() - before;
        assert_eq!(events, warm, "{kind:?}: steady-state events drifted from warmup");
        assert_eq!(grew, 0, "{kind:?}: steady-state batch performed {grew} heap allocations");
    }
}

/// One compile per activation profile: with a warm arena, a cold
/// [`ActProfileCache`] lookup generates the matrix into the arena and
/// tallies both sides in one pass, so it allocates exactly the memo
/// entry's compile slot, the entry's two `K`-length tally vectors (raw
/// and post-DAP) and the shared value; the next lookup of the key
/// allocates nothing, both sides included — no second generation.
#[test]
fn cold_profile_compiles_both_sides_at_once() {
    let model = cifar10_convnet();
    let layer = &model.layers[1];
    let (bz, adbb) = (8, LayerNnz::Prune(4));
    let cache = ActProfileCache::new();
    let mut scratch = Scratch::new();
    // Warm the arena (and the table's first allocation) on another
    // entry of the same shape.
    cache.get_or_profile(layer, SEED, bz, adbb, &mut scratch);

    let before = allocs_here();
    let cold = cache.get_or_profile(layer, SEED + 1, bz, adbb, &mut scratch);
    let compile = allocs_here() - before;
    let before = allocs_here();
    let warm = cache.get_or_profile(layer, SEED + 1, bz, adbb, &mut scratch);
    std::hint::black_box((warm.dense(), warm.postdap()));
    let second_lookup = allocs_here() - before;
    assert_eq!(cold.dense().counts().len(), layer.gemm.k, "one tally per reduction position");
    assert_eq!(compile, 4, "slot, two tally vectors and the shared value");
    assert_eq!(second_lookup, 0, "both sides come from the one compile");
}

/// The activation generator sizes its buffer exactly: a cold compile
/// into a fresh arena retains one `K x N` matrix and no slack, so
/// recycled arenas never regrow past the largest layer.
#[test]
fn cold_compile_retains_exactly_one_activation_matrix() {
    let model = cifar10_convnet();
    let layer = &model.layers[1]; // conv2: K 288 x N 256
    let mut scratch = Scratch::new();
    ActProfileCache::new().get_or_profile(layer, SEED, 8, LayerNnz::Prune(4), &mut scratch);
    assert_eq!(scratch.retained_bytes(), layer.gemm.k * layer.gemm.n);
}

/// The flight recorder's half of the same claim: the event ring is
/// fully preallocated at construction, so recording — including
/// drop-oldest overwrites far past capacity — performs **zero** heap
/// allocations. This is what lets the engine record on its hot event
/// handlers without perturbing the allocation-free serving loop.
#[test]
fn flight_recorder_records_without_allocating() {
    let mut recorder = FlightRecorder::new(64);
    let event = TraceEvent {
        cycle: 0,
        kind: TraceEventKind::BatchSealed,
        shard: 0,
        lane: 1,
        model: 2,
        stage: 0,
        a: 7,
        b: 4,
    };

    let before = allocs_here();
    // Fill the ring, then overflow it 15 times over: every overwrite
    // must happen in place.
    for cycle in 0..1024u64 {
        recorder.record(TraceEvent { cycle, ..event });
    }
    let grew = allocs_here() - before;
    assert_eq!(grew, 0, "recording performed {grew} heap allocations");
    assert_eq!(recorder.len(), 64, "ring must cap at capacity");
    assert_eq!(recorder.overwritten(), 1024 - 64, "every overflow counted");
    let oldest = recorder.iter().next().expect("ring is full");
    assert_eq!(oldest.cycle, 1024 - 64, "drop-oldest: the survivors are the newest events");
}

/// The fault-injection bookkeeping's half of the same claim: once the
/// retry queue's slab/free-list/wheel have grown to their high-water
/// mark and the fault plan is expanded, steady-state fault handling —
/// scheduling and draining retries, probing lane health and slowdown
/// factors, probing shard outage windows — performs **zero** heap
/// allocations per event. This is what lets the engine react to
/// crashes on its hot handlers without perturbing the allocation-free
/// serving loop.
#[test]
fn fault_bookkeeping_steady_state_allocates_nothing() {
    let spec = FaultSpec {
        seed: 9,
        lane_crashes: 4,
        lane_slowdowns: 3,
        shard_outages: 1,
        horizon_cycles: 1_000_000,
        mean_down_cycles: 50_000,
        mean_outage_cycles: 0,
        slowdown_factor: 3,
    };
    // Plan expansion allocates (it is run setup, not an event).
    let plan = spec.schedule(&[2, 2]);
    let timeline = plan.shard_timeline(0);
    let mut retries = RetryQueue::new();
    let req = |id: u64| Request { id, model: 0, arrival: id * 10, act_seed: id };

    // Warm: two full schedule/drain rounds grow the slab, the free
    // list, and the wheel's due-heap to their steady-state capacity.
    for round in 0..2u32 {
        for i in 0..32u64 {
            retries.schedule(i, req(i), round + 1);
        }
        while retries.pop().is_some() {}
    }

    let before = allocs_here();
    for round in 2..6u32 {
        for i in 0..32u64 {
            retries.schedule(i, req(i), round + 1);
        }
        while let Some((t, r, attempts)) = retries.pop() {
            std::hint::black_box((t, r.id, attempts));
            // The health probes the engine makes per fault-mode event.
            std::hint::black_box(timeline.is_lane_down(0, t));
            std::hint::black_box(timeline.next_up_time(0, t));
            std::hint::black_box(timeline.slow_factor_at(1, t));
            std::hint::black_box(plan.is_shard_up(1, t));
            std::hint::black_box(plan.any_shard_down(t));
        }
        assert!(retries.is_empty());
    }
    let grew = allocs_here() - before;
    assert_eq!(grew, 0, "steady-state fault bookkeeping performed {grew} heap allocations");
}
