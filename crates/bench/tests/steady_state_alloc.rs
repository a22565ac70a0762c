//! Debug-build counting allocator proving the serving hot loop is
//! allocation-free in steady state.
//!
//! [`Accelerator::run_stage_events`] is documented to allocate nothing
//! once the plan cache, activation-counter table, and the caller's
//! [`Scratch`] arena are warm: a warm input's counters are copied out
//! of the table, the SMT path regenerates activations into the arena's
//! recycled buffer, and events are summed without building per-layer
//! report vectors. This test pins that claim with a global counting
//! allocator — warm the caches with two batches, then assert the
//! third, including its warm [`Accelerator::plan_model`] lookup (a
//! lane looks its plan up once per batch), performs **zero** heap
//! allocations on every architecture; so does a batch of a single-use
//! input, which is tallied in the arena and never kept.
//!
//! The same allocator also tracks this thread's live heap and its
//! peak, which pins the host memory a run holds: compiled weight plans
//! at about their weight-profile bytes, and a served stream at a fixed
//! ceiling of bytes per request, fresh inputs included.
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
use s2ta_models::{cifar10_convnet, lenet5};
use s2ta_serve::{
    Cluster, ClusterReport, FaultSpec, FlightRecorder, OutcomeLog, Request, RoutingPolicy,
    TraceEvent, TraceEventKind,
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

        // Warmup: first batch tallies the input and grows the arena;
        // second proves the buffers settled before we start counting.
        let warm = acc.run_stage_events(
            &plan,
            &model,
            full.clone(),
            SEED,
            WeightResidency::Resident,
            true,
            &mut scratch,
        );
        acc.run_stage_events(
            &plan,
            &model,
            full.clone(),
            SEED,
            WeightResidency::Resident,
            true,
            &mut scratch,
        );

        let (before, base) = (allocs_here(), reset_peak());
        let hits = acc.act_profiles().stats().hits;
        let plan = acc.plan_model(&model, SEED);
        let events = acc.run_stage_events(
            &plan,
            &model,
            full.clone(),
            SEED,
            WeightResidency::Resident,
            true,
            &mut scratch,
        );
        let (grew, bytes) = (allocs_here() - before, peak_bytes() - base);
        assert_eq!(events, warm, "{kind:?}: steady-state events drifted from warmup");
        assert_eq!(acc.act_profiles().stats().hits, hits + 1, "{kind:?}: a warm counters hit");
        assert_eq!(grew, 0, "{kind:?}: steady-state batch performed {grew} heap allocations");
        assert_eq!(bytes, 0, "{kind:?}: steady-state batch allocated {bytes} heap bytes");

        // A single-use input misses the profile table: it is tallied
        // into the warm arena and read in place, allocating nothing.
        let (before, entries) = (allocs_here(), acc.act_profiles().len());
        let plan = acc.plan_model(&model, SEED);
        acc.run_stage_events(
            &plan,
            &model,
            full.clone(),
            SEED + 1,
            WeightResidency::Resident,
            false,
            &mut scratch,
        );
        let grew = allocs_here() - before;
        assert_eq!(acc.act_profiles().len(), entries, "{kind:?}: a single-use input is not kept");
        assert_eq!(grew, 0, "{kind:?}: single-use batch performed {grew} heap allocations");
    }
}

/// One tally per layer fills every plan that reads the table: on a
/// fleet-like pair of S2TA-AW and SA-ZVCG lanes sharing their caches, a
/// cold input missed on one lane is generated and tallied once per
/// layer, its counters enter the table for both plans, and the other
/// lane's first lookup of it is a hit that allocates nothing.
#[test]
fn cold_counters_tally_once_for_every_plan() {
    let model = cifar10_convnet();
    let aw = Accelerator::preset(ArchKind::S2taAw);
    let (plans, table) = (aw.plans().clone(), ActProfileCache::new());
    let aw = aw.sharing_act_profiles(table.clone());
    let zv = Accelerator::preset(ArchKind::SaZvcg)
        .sharing_plans(plans.clone())
        .sharing_act_profiles(table.clone());
    let (aw_plan, zv_plan) = (aw.plan_model(&model, SEED), zv.plan_model(&model, SEED));
    let all = 0..model.layers.len();
    let mut scratch = Scratch::new();
    let mut run = |acc: &Accelerator, plan, seed| {
        let r = WeightResidency::Resident;
        acc.run_stage_events(plan, &model, all.clone(), seed, r, true, &mut scratch)
    };
    // Warm the arena and the table's first allocation on another seed.
    run(&aw, &aw_plan, SEED);
    let (passes, entries) = (table.tally_passes(), table.len());
    run(&aw, &aw_plan, SEED + 1);
    assert_eq!(table.tally_passes() - passes, model.layers.len() as u64, "a tally per layer");
    assert_eq!(table.len() - entries, 2, "one entry per plan");
    let (before, hits) = (allocs_here(), table.stats().hits);
    run(&zv, &zv_plan, SEED + 1);
    let grew = allocs_here() - before;
    assert_eq!(table.stats().hits, hits + 1, "the sibling lane hits the filled entry");
    assert_eq!(table.tally_passes() - passes, model.layers.len() as u64, "and tallies nothing");
    assert_eq!(grew, 0, "a counters hit allocates nothing");
}

/// The counter table holds a fixed 72 B per plan and seed, however
/// large the model: serving one seed of each served model on a
/// S2TA-AW lane that shares its table with an SA-ZVCG lane keeps one
/// entry per plan, where the narrowest activation profiles of the
/// same seed took 526, 1,462 and 9,434 B.
#[test]
fn act_counters_hold_one_entry_per_plan_and_seed() {
    for model in cluster_scenario::models() {
        let table = ActProfileCache::new();
        let aw = Accelerator::preset(ArchKind::S2taAw).sharing_act_profiles(table.clone());
        let _zv = Accelerator::preset(ArchKind::SaZvcg).sharing_act_profiles(table.clone());
        let plan = aw.plan_model(&model, SEED);
        let layers = 0..model.layers.len();
        let r = WeightResidency::Resident;
        aw.run_stage_events(&plan, &model, layers, SEED, r, true, &mut Scratch::new());
        let name = model.name;
        assert_eq!(table.len(), 2, "{name}: one entry per plan");
        assert_eq!(ActProfileCache::ENTRY_BYTES, 72, "a 48 B key and 24 B of counters");
        assert_eq!(table.resident_bytes(), 2 * 72, "{name}: fixed bytes per entry");
    }
}

/// The activation generator and the tally kernel size their buffers
/// exactly: an in-place tally into a fresh arena retains one `K x N`
/// matrix and two `K`-long `u16` tally vectors and no slack, so
/// recycled arenas never regrow past the largest layer.
#[test]
fn cold_compile_retains_exactly_one_activation_matrix() {
    let model = cifar10_convnet();
    let layer = &model.layers[1]; // conv2: K 288 x N 256
    let acc = Accelerator::preset(ArchKind::S2taAw);
    let plan = acc.plan_model(&model, SEED);
    let mut scratch = Scratch::new();
    let r = WeightResidency::Resident;
    acc.run_stage_events(&plan, &model, 1..2, SEED, r, false, &mut scratch);
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

/// The ceiling on host memory a served stream grows by per request.
const BYTES_PER_REQUEST: f64 = 64.0;

/// The host memory a served stream costs per request: on warm caches,
/// the live-heap peak of a cluster run above its pre-serve baseline
/// grows by at most [`BYTES_PER_REQUEST`] on both drivers and on the
/// protected chaos cluster, measured as the difference between a run
/// of the whole stream and a run of its first half (so the per-run
/// constants — lane arenas, engine tables — drop out). What grows is
/// the outcome log (one 40 B row per request, reserved exactly on the
/// pre-routed driver and once, at the even share plus an eighth, on
/// the barrier driver), the latency histogram (a 16 B run per distinct
/// latency, about 60% of them at this size, and while it is built an
/// 8 B sample per request) and the pre-routed driver's 4 B stream index;
/// batch records live only while their batch is in flight, and a
/// faulted shard keeps attempt counts only for the requests a crash
/// has cancelled. The three drivers measured 45-54 B per request here
/// (81-86 B while the log kept a 72 B `RequestOutcome` per request).
#[test]
fn served_stream_costs_at_most_64_bytes_per_request() {
    assert_eq!(OutcomeLog::ROW_BYTES, 40, "one outcome row");
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

/// Fresh-input serving keeps no activation profiles: a stream whose
/// every request names a new input (`act_seed_pool = 0`), served on a
/// freshly built cluster with warm plans by each driver, grows the live
/// heap, and its peak, by at most the same [`BYTES_PER_REQUEST`] as warm
/// serving, and leaves the shared profile table empty: each input is
/// profiled in place, in its engine's arena. Keeping those profiles
/// grew the heap by about 1.8 KB per request.
#[test]
fn fresh_input_serving_keeps_no_activation_profiles() {
    let mut spec = cluster_scenario::workload();
    spec.requests = 2 * FRESH_HALF;
    spec.act_seed_pool = 0;
    let stream = spec.generate();
    let horizon = stream.last().map_or(1, |r| r.arrival);
    let chaos = || chaos_scenario::cluster().with_faults(chaos_scenario::protected(horizon));
    assert_fresh_heap("pre-routed", &stream, || cluster_scenario::cluster(RoutingPolicy::Random));
    assert_fresh_heap("barrier", &stream, || cluster_scenario::cluster(RoutingPolicy::PowerOfTwo));
    assert_fresh_heap("protected chaos", &stream, chaos);
}

/// Requests in the first, shorter fresh-input run.
const FRESH_HALF: usize = 50;

fn assert_fresh_heap(driver: &str, stream: &[Request], build: impl Fn() -> Cluster) {
    let models = cluster_scenario::models();
    let inline = Executor::new(1);
    let grown = |requests: &[Request]| {
        let cluster = build();
        // Every lane compiles every model's plan (with the fleets'
        // default weight seed) before the measured run.
        for lane in cluster.shards().iter().flat_map(|f| f.lanes()) {
            for model in &models {
                lane.accelerator().plan_model(model, 42);
            }
        }
        let base = reset_peak();
        let report = cluster.serve_on(&inline, &models, requests);
        let grown = (live_bytes() - base, peak_bytes() - base);
        assert_eq!(report.total_requests(), requests.len());
        let acts = cluster.shards()[0].accelerator().act_profiles();
        assert_eq!(acts.len(), 0, "{driver}: a fresh-input stream leaves no profile behind");
        assert!(acts.stats().misses > 0, "{driver}: every input is profiled");
        grown
    };
    let (half, whole) = (grown(&stream[..FRESH_HALF]), grown(stream));
    let per_request = |half: i64, whole: i64| (whole - half) as f64 / FRESH_HALF as f64;
    let (live, peak) = (per_request(half.0, whole.0), per_request(half.1, whole.1));
    assert!(
        live <= BYTES_PER_REQUEST,
        "{driver}: {live:.1} B of live heap per request, above {BYTES_PER_REQUEST} B"
    );
    assert!(
        peak <= BYTES_PER_REQUEST,
        "{driver}: {peak:.1} B of peak heap per request, above {BYTES_PER_REQUEST} B"
    );
}

/// Requests in the first, shorter measured run.
const HALF: usize = 3_000;

fn assert_heap_per_request(
    driver: &str,
    stream: &[Request],
    serve: impl Fn(&[Request]) -> ClusterReport,
) {
    // The first run compiles the plans and activation counters the
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
        per_request <= BYTES_PER_REQUEST,
        "{driver}: {per_request:.1} B of live heap per request, above {BYTES_PER_REQUEST} B"
    );
}
