//! Debug-build counting allocator proving the serving hot loop is
//! allocation-free in steady state.
//!
//! [`Accelerator::run_stage_events`] is documented to allocate nothing
//! once the plan cache, activation-profile cache, and the caller's
//! [`Scratch`] arena are warm: per-position profiles are plain cached
//! tally buffers, the SMT path regenerates activations into the
//! arena's recycled buffer, and events are summed without building
//! per-layer report vectors. This test pins that claim with a global
//! counting allocator — warm the caches with two batches, then assert
//! the third, including its warm [`Accelerator::plan_model`] lookup
//! (a lane looks its plan up once per batch), performs **zero** heap
//! allocations on every architecture.
//!
//! The same allocator also tracks this thread's live heap and its
//! peak, which pins the host memory a run holds: compiled weight plans
//! at about their weight-profile bytes, and a served stream at a fixed
//! ceiling of bytes per request.
//!
//! The counters are thread-local, so worker threads of other tests in
//! this binary cannot perturb them, and they only exist in debug builds
//! (`cfg(debug_assertions)`): release benches keep the system
//! allocator untouched. This is the one spot outside `shims/` that
//! needs `unsafe` — the `GlobalAlloc` trait requires it — and the impl
//! only forwards to [`System`] after bumping a `Cell`.
#![cfg(debug_assertions)]

use s2ta_bench::{chaos_scenario, cluster_scenario, SEED};
use s2ta_core::{pool::Executor, Accelerator, ActProfileCache, ArchKind, Scratch, WeightResidency};
use s2ta_dbb::dap::LayerNnz;
use s2ta_models::{cifar10_convnet, lenet5};
use s2ta_serve::{
    ClusterReport, FaultSpec, FlightRecorder, Request, RequestOutcome, RoutingPolicy, TraceEvent,
    TraceEventKind,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread (a block freed
    /// on another thread than its allocation skews both threads; every
    /// measurement here runs on one thread).
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE` since the last [`reset_peak`].
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Moves this thread's live-heap tally by `bytes`.
fn track(bytes: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

struct CountingAlloc;

// SAFETY: pure pass-through to `System`; the only additions are
// thread-local counter updates, and `try_with` keeps alloc calls during
// TLS teardown from panicking.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        track(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        track(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs_here() -> u64 {
    ALLOCS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

/// Restarts the peak at the current live heap and returns it.
fn reset_peak() -> i64 {
    let live = live_bytes();
    PEAK.with(|p| p.set(live));
    live
}

fn peak_bytes() -> i64 {
    PEAK.with(Cell::get)
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
/// [`ActProfileCache`] lookup generates the matrix into the arena,
/// tallies both sides in one pass into the arena's `u16` buffers and
/// narrows them together, so it allocates exactly the memo entry's
/// compile slot, the entry's one narrow tally buffer (raw and post-DAP
/// sides back to back) and the shared value; the next lookup of the key
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
    assert_eq!(cold.dense().len(), layer.gemm.k, "one tally per reduction position");
    assert_eq!(cold.postdap().len(), layer.gemm.k, "one tally per reduction position");
    assert_eq!(compile, 3, "slot, one tally buffer and the shared value");
    assert_eq!(second_lookup, 0, "both sides come from the one compile");
}

/// The activation-profile cache holds each input's tallies at the
/// width its largest count needs: one seed of each served model
/// profiles every layer into at most the bytes below (526, 1,462 and
/// 9,434 B today), where `u16` tallies took 3,116, 6,508 and 22,772 B.
/// Batch-1 FC layers (`N = 1`) hold one bit per position and side, and
/// the first layer, which bypasses DAP, holds one side for both.
#[test]
fn act_profiles_hold_their_narrow_bytes_per_seed() {
    const BOUNDS: [(&str, u64); 3] =
        [("LeNet-5", 550), ("CIFAR10-ConvNet", 1_500), ("Deep-ConvNet", 9_460)];
    let models = cluster_scenario::models();
    assert_eq!(models.len(), BOUNDS.len());
    for (model, (name, bound)) in models.iter().zip(BOUNDS) {
        assert_eq!(model.name, name);
        let acc = Accelerator::preset(ArchKind::S2taAw);
        let plan = acc.plan_model(model, SEED);
        let layers = 0..model.layers.len();
        acc.run_stage_events(
            &plan,
            model,
            layers,
            SEED,
            WeightResidency::Resident,
            &mut Scratch::new(),
        );
        let cache = acc.act_profiles();
        assert_eq!(cache.len(), model.layers.len(), "{name}: one entry per layer");
        let bytes = cache.resident_bytes();
        assert!(bytes <= bound, "{name}: {bytes} B of activation profiles per seed, above {bound}");
    }
}

/// The activation generator and the tally kernel size their buffers
/// exactly: a cold compile into a fresh arena retains one `K x N`
/// matrix and two `K`-long `u16` tally vectors and no slack, so
/// recycled arenas never regrow past the largest layer.
#[test]
fn cold_compile_retains_exactly_one_activation_matrix() {
    let model = cifar10_convnet();
    let layer = &model.layers[1]; // conv2: K 288 x N 256
    let mut scratch = Scratch::new();
    ActProfileCache::new().get_or_profile(layer, SEED, 8, LayerNnz::Prune(4), &mut scratch);
    let tallies = 2 * std::mem::size_of::<u16>() * layer.gemm.k;
    assert_eq!(scratch.retained_bytes(), layer.gemm.k * layer.gemm.n + tallies);
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
/// fault plan is expanded, steady-state fault handling — probing lane
/// slowdown factors and shard outage windows — performs **zero** heap allocations per event. This is what lets the
/// engine react to crashes on its hot handlers without perturbing the
/// allocation-free serving loop. (The retry slab's reuse is pinned by
/// `FaultState`'s own unit test.)
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

    let before = allocs_here();
    for _ in 0..4 {
        for t in 0..32u64 {
            // The timeline and plan probes: the engine's slowdown lookup
            // per stage run, and the router's shard-health checks.
            std::hint::black_box(timeline.slow_factor_at(1, t));
            std::hint::black_box(plan.is_shard_up(1, t));
            std::hint::black_box(plan.any_shard_down(t));
        }
    }
    let grew = allocs_here() - before;
    assert_eq!(grew, 0, "steady-state fault bookkeeping performed {grew} heap allocations");
}

/// Weight plans hold their weights' profile, not their values: a
/// plan keeps each layer's `K` weight-profile counts plus a fixed-size
/// record, and the weight matrix it compiled from is freed. Compiling
/// a model's S2TA-AW or SA-ZVCG plan makes a fixed number of
/// allocations per layer, however many weights the layer has (pruning
/// ranks each block on the stack), and the compiled plan's live heap
/// stays within 1.5x its weight-profile bytes plus a small constant
/// per layer (the layer record, and the cache entry, plan handle and
/// model name spread over the layers). Retaining the weight matrix
/// would add `M x K` bytes per layer.
#[test]
fn lean_plans_hold_about_their_weight_profile_bytes() {
    const ALLOCS_PER_LAYER: u64 = 16;
    const BYTES_PER_LAYER: u64 = 256;
    for kind in [ArchKind::S2taAw, ArchKind::SaZvcg] {
        for model in cluster_scenario::models() {
            let acc = Accelerator::preset(kind);
            let (allocs, live) = (allocs_here(), live_bytes());
            let plan = acc.plan_model(&model, SEED);
            let (allocs, held) = (allocs_here() - allocs, (live_bytes() - live) as u64);
            let layers = plan.layers().len() as u64;
            let weights: usize =
                plan.layers().iter().map(|l| l.weight_desc().rows() * l.weight_desc().k()).sum();
            let profile_bytes: usize = plan
                .layers()
                .iter()
                .map(|l| std::mem::size_of_val(l.weight_profile().counts()))
                .sum();
            let name = format!("{kind} {}", model.name);
            assert!(
                weights as u64 > 400 * ALLOCS_PER_LAYER * layers,
                "{name}: too few weights to tell"
            );
            assert!(
                allocs <= ALLOCS_PER_LAYER * (layers + 1),
                "{name}: {allocs} allocations compiling {layers} layers of {weights} weights"
            );
            let bound = profile_bytes as u64 * 3 / 2 + BYTES_PER_LAYER * layers;
            assert!(
                held <= bound,
                "{name}: plan holds {held} B of heap, above 1.5x its {profile_bytes} weight-profile \
                 bytes plus {BYTES_PER_LAYER} B per layer ({weights} weights)"
            );
        }
    }
}

/// The host memory a served stream costs per request: on warm caches,
/// the live-heap peak of a cluster run above its pre-serve baseline
/// grows by at most 100 B per request on both drivers and on the
/// protected chaos cluster, measured as the difference between a run
/// of the whole stream and a run of its first half (so the per-run
/// constants — lane arenas, engine tables — drop out). What grows is
/// the outcome log (one 72 B record per request, reserved exactly on
/// the pre-routed driver and grown by eighths on the barrier driver),
/// the 8 B latency sample and the pre-routed driver's 4 B stream index;
/// batch records live only while their batch is in flight, and a
/// faulted shard keeps attempt counts only for the requests a crash
/// has cancelled.
#[test]
fn served_stream_costs_at_most_100_bytes_per_request() {
    assert_eq!(std::mem::size_of::<RequestOutcome>(), 72, "one outcome record");
    let models = cluster_scenario::models();
    let mut spec = cluster_scenario::workload();
    spec.requests = 2 * HALF;
    spec.act_seed_pool = 32;
    let stream = spec.generate();
    let inline = Executor::new(1);
    let prerouted = cluster_scenario::cluster(RoutingPolicy::Random);
    assert_heap_per_request("pre-routed", &stream, |s| prerouted.serve_on(&inline, &models, s));
    let barrier = cluster_scenario::cluster(RoutingPolicy::PowerOfTwo);
    assert_heap_per_request("barrier", &stream, |s| barrier.serve(&models, s));
    let horizon = stream.last().map_or(1, |r| r.arrival);
    let chaos = chaos_scenario::cluster().with_faults(chaos_scenario::protected(horizon));
    assert_heap_per_request("protected chaos", &stream, |s| chaos.serve_on(&inline, &models, s));
}

/// Requests in the first, shorter measured run.
const HALF: usize = 3_000;

fn assert_heap_per_request(
    driver: &str,
    stream: &[Request],
    serve: impl Fn(&[Request]) -> ClusterReport,
) {
    const CEILING: f64 = 100.0;
    // The first run compiles the plans and activation profiles the
    // stream needs; the measured runs serve on warm caches.
    let warm = serve(stream);
    let peak_above_baseline = |requests: &[Request]| {
        let base = reset_peak();
        let report = serve(requests);
        assert_eq!(report.total_requests(), requests.len());
        (peak_bytes() - base, report)
    };
    let (half, _) = peak_above_baseline(&stream[..HALF]);
    let (whole, report) = peak_above_baseline(stream);
    assert_eq!(report, warm, "{driver}: the warm run must reproduce the cold one");
    let per_request = (whole - half) as f64 / (stream.len() - HALF) as f64;
    assert!(
        per_request <= CEILING,
        "{driver}: {per_request:.1} B of live heap per request, above {CEILING} B"
    );
}
