//! Cross-crate observability tests: flight-recorder determinism,
//! equality-neutrality of an attached recorder (no report byte
//! changes), the completions-equal-served conservation law on the
//! monolithic, pipelined and crash-retrying paths, drop-oldest ring
//! overflow at the trace level, per-model drop / deadline-miss
//! accounting on a bounded queue, and serial-vs-pre-routed
//! merged-trace identity for the cluster tier.

use proptest::prop_assert_eq;
use s2ta::core::pool::Executor;
use s2ta::core::ArchKind;
use s2ta::energy::TechParams;
use s2ta::models::{lenet5, ModelSpec};
use s2ta::serve::{
    AutoscalePolicy, Cluster, FaultConfig, FaultSpec, FixedPolicy, Fleet, Request, RetryPolicy,
    RoutingPolicy, TraceConfig, TraceEventKind, WorkloadSpec,
};

fn models() -> Vec<ModelSpec> {
    vec![lenet5()]
}

fn stream(seed: u64, n: usize) -> Vec<Request> {
    WorkloadSpec::uniform(seed, n, 2_000.0, 1).generate()
}

fn big_trace() -> TraceConfig {
    TraceConfig { event_capacity: 1 << 16, metrics_interval_cycles: 5_000 }
}

/// The same traced scenario run twice must reproduce the trace exactly
/// — events, metrics samples, p99 series — and the exported artifacts
/// byte-for-byte (host-side halves excluded from equality, but the
/// deterministic JSON content compared here is the equality-carrying
/// part serialized the same way).
#[test]
fn same_scenario_twice_reproduces_the_trace() {
    let models = s2ta_bench::hetero_scenario::models();
    let mut spec = s2ta_bench::hetero_scenario::workload();
    spec.requests = 400;
    let requests = spec.generate();
    let run = || {
        Fleet::from_spec(s2ta_bench::hetero_scenario::fleet_spec())
            .with_policy(s2ta_bench::hetero_scenario::policy())
            .with_trace(big_trace())
            .serve(&models, &requests)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "traced runs must stay deterministic");
    let (ta, tb) = (a.trace().expect("recorder attached"), b.trace().expect("recorder attached"));
    assert_eq!(ta, tb, "the recorded trace must be a pure function of the run");
    assert!(!ta.events().is_empty());
    assert!(!ta.metrics().is_empty());
    assert_eq!(ta.dropped_events(), 0, "capacity must hold this scenario");
    assert_eq!(ta.completed_requests(), a.served_count() as u64, "conservation law");
}

/// Attaching a recorder must change **no byte** of the simulated
/// result: full report equality against the untraced run on the
/// heterogeneous and pipelined golden scenarios, including the per-model drop/miss table and the rendered
/// breakdowns.
#[test]
fn recorder_is_equality_neutral_on_golden_scenarios() {
    let tech = TechParams::tsmc16();
    {
        let models = s2ta_bench::hetero_scenario::models();
        let mut spec = s2ta_bench::hetero_scenario::workload();
        spec.requests = 300;
        let requests = spec.generate();
        let fleet = Fleet::from_spec(s2ta_bench::hetero_scenario::fleet_spec())
            .with_policy(s2ta_bench::hetero_scenario::policy());
        let untraced = fleet.serve(&models, &requests);
        let traced = fleet.clone().with_trace(big_trace()).serve(&models, &requests);
        assert!(untraced.trace().is_none());
        assert!(traced.trace().is_some());
        assert_eq!(untraced, traced, "hetero: recorder must be observability only");
        assert_eq!(untraced.per_model, traced.per_model);
        assert_eq!(untraced.lane_breakdown(&tech), traced.lane_breakdown(&tech));
    }
    {
        let models = s2ta_bench::pipeline_scenario::models();
        let mut spec = s2ta_bench::pipeline_scenario::workload();
        spec.requests = 60;
        let requests = spec.generate();
        let untraced = s2ta_bench::pipeline_scenario::pipelined_fleet().serve(&models, &requests);
        let traced = s2ta_bench::pipeline_scenario::pipelined_fleet()
            .with_trace(big_trace())
            .serve(&models, &requests);
        assert_eq!(untraced, traced, "pipelined: recorder must be observability only");
        assert_eq!(untraced.pipeline_breakdown(), traced.pipeline_breakdown());
        let trace = traced.trace().expect("recorder attached");
        let stage_events =
            trace.events().iter().filter(|e| e.kind == TraceEventKind::StageDispatch).count();
        assert!(stage_events > 0, "pipelined dispatch must record stage events");
        assert_eq!(trace.dropped_events(), 0, "capacity must hold this scenario");
        assert_eq!(trace.completed_requests(), traced.served_count() as u64, "conservation law");
    }
}

/// The conservation law under crashes: on a traced protected-crash
/// fleet, whose crash windows cancel in-flight batches and retry their
/// members, the recorded completions still equal the served count — a
/// crash-cancelled batch records no completion — and the recorder
/// changes no report byte.
#[test]
fn traced_protected_crashes_conserve_requests() {
    let models = models();
    // Dense single-lane traffic so crash windows reliably intersect
    // in-flight batches.
    let requests = stream(11, 60);
    let base = Fleet::new(ArchKind::S2taAw, 1).serve(&models, &requests);
    let spec = FaultSpec {
        seed: 7,
        lane_crashes: 6,
        lane_slowdowns: 0,
        shard_outages: 0,
        horizon_cycles: base.makespan_cycles.max(1),
        mean_down_cycles: base.makespan_cycles / 4 + 1,
        mean_outage_cycles: 0,
        slowdown_factor: 4,
    };
    let mut config = FaultConfig::protected(spec);
    config.retry = RetryPolicy { max_attempts: 4, backoff_base_cycles: 500, deadline_cycles: 0 };
    let fleet = Fleet::new(ArchKind::S2taAw, 1).with_faults(config);
    let untraced = fleet.serve(&models, &requests);
    let traced = fleet.with_trace(big_trace()).serve(&models, &requests);
    assert_eq!(untraced, traced, "crashes: recorder must be observability only");
    assert!(traced.fault.retries > 0, "the schedule must cancel in-flight batches");
    let trace = traced.trace().expect("recorder attached");
    assert_eq!(trace.dropped_events(), 0, "capacity must hold this scenario");
    assert_eq!(trace.completed_requests(), traced.served_count() as u64, "conservation law");
}

/// Drop-oldest overflow at the trace level: a tiny ring retains
/// exactly the **newest** events of the full stream (the suffix a
/// full-capacity run records), a zero-capacity ring retains nothing,
/// and both count every overwritten event.
#[test]
fn trace_ring_overflow_drops_oldest() {
    let models = models();
    let requests = stream(7, 120);
    let run = |capacity: usize| {
        Fleet::new(ArchKind::S2taAw, 2)
            .with_trace(TraceConfig { event_capacity: capacity, metrics_interval_cycles: 10_000 })
            .serve(&models, &requests)
    };
    let full = run(1 << 16);
    let full_trace = full.trace().unwrap();
    assert_eq!(full_trace.dropped_events(), 0);
    let total = full_trace.events().len();
    assert!(total > 8, "scenario must record enough events to overflow");

    for capacity in [0usize, 1, 5, total, total + 9] {
        let small = run(capacity);
        let trace = small.trace().unwrap();
        let kept = total.min(capacity);
        assert_eq!(trace.events().len(), kept, "capacity {capacity}");
        assert_eq!(trace.dropped_events(), (total - kept) as u64, "capacity {capacity}");
        // Drop-oldest: what survives is exactly the tail of the full
        // stream.
        assert_eq!(trace.events(), &full_trace.events()[total - kept..], "capacity {capacity}");
        assert_eq!(small, full, "ring capacity must not perturb the simulation");
    }
}

/// The satellite regression for per-model serving stats: a capacity-1
/// bounded queue under a hot stream must tail-drop, the per-model
/// drop tallies must sum to the report's dropped count, deadline
/// misses must be attributed, and — because `per_model` participates
/// in report equality — the traced and untraced runs must agree on
/// every tally.
#[test]
fn per_model_drops_and_deadline_misses_on_a_capacity_one_queue() {
    let models = models();
    // ~250-cycle gaps against a capacity-1 queue and a long batching
    // window: the queue refuses most arrivals, and the batches that do
    // form seal by timeout (deadline misses), not by size.
    let requests = WorkloadSpec::uniform(11, 200, 250.0, 1).generate();
    let fleet = Fleet::new(ArchKind::S2taAw, 1)
        .with_policy(FixedPolicy { max_batch: 64, max_wait_cycles: 40_000 })
        .with_queue_capacity(1);
    let untraced = fleet.serve(&models, &requests);
    let traced = fleet.clone().with_trace(big_trace()).serve(&models, &requests);
    assert_eq!(untraced, traced, "per-model stats must agree traced and untraced");

    assert!(untraced.dropped_count() > 0, "capacity-1 queue must drop");
    assert!(untraced.deadline_miss_count() > 0, "timeout-sealed batches must count as misses");
    let dropped: u64 = untraced.per_model.iter().map(|m| m.dropped).sum();
    assert_eq!(dropped, untraced.dropped_count() as u64);
    let missed: u64 = untraced.per_model.iter().map(|m| m.deadline_misses).sum();
    assert_eq!(missed, untraced.deadline_miss_count());
    assert_eq!(untraced.per_model.len(), 1);
    assert_eq!(untraced.per_model[0].model, "LeNet-5");

    // The retained events corroborate the report tallies (nothing was
    // overwritten, so the ring holds the whole run).
    let trace = traced.trace().unwrap();
    assert_eq!(trace.dropped_events(), 0);
    assert_eq!(trace.dropped_requests(), untraced.dropped_count() as u64);
    let miss_events: u64 =
        trace.events().iter().filter(|e| e.kind == TraceEventKind::DeadlineMiss).map(|e| e.a).sum();
    assert_eq!(miss_events, untraced.deadline_miss_count());
    assert_eq!(trace.completed_requests(), untraced.served_count() as u64);
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(5))]

    /// The tentpole invariant at cluster scale: with a recorder
    /// attached, the serial barrier driver and `serve` (the pre-routed
    /// driver under `Random`, on several worker counts) must produce
    /// **byte-identical merged traces** — events, metrics samples,
    /// per-model series — across routing policies, shard counts, and
    /// autoscale on/off, exactly like the report-equality property the
    /// cluster already pins.
    #[test]
    fn prop_cluster_trace_is_identical_serial_vs_parallel(
        seed in 1u64..1_000,
        n in 60usize..110,
        policy_idx in 0usize..3,
        autoscale in proptest::arbitrary::any::<bool>(),
    ) {
        let models = models();
        let requests = stream(seed, n);
        let routing = [
            RoutingPolicy::Random,
            RoutingPolicy::JoinShortestQueue,
            RoutingPolicy::PowerOfTwo,
        ][policy_idx];
        for shard_count in [1usize, 2, 4] {
            let fleets = (0..shard_count).map(|_| Fleet::new(ArchKind::S2taAw, 2)).collect();
            let mut cluster = Cluster::new(fleets)
                .with_routing(routing)
                .with_router_seed(seed ^ 0x5eed)
                .with_trace(TraceConfig {
                    event_capacity: 1 << 14,
                    metrics_interval_cycles: 7_000,
                });
            if autoscale {
                cluster = cluster.with_autoscale(AutoscalePolicy {
                    eval_interval_cycles: 20_000,
                    scale_up_depth: 2,
                    scale_down_depth: 0,
                    min_lanes: 1,
                });
            }
            let serial = cluster.serve_serial(&models, &requests);
            let serial_trace = serial.merged_trace().expect("recorder attached");
            // Only the pre-routed driver (Random) runs on the executor.
            let worker_counts: &[Option<usize>] = match routing {
                RoutingPolicy::Random => &[Some(2), None],
                _ => &[None],
            };
            for &workers in worker_counts {
                let parallel = match workers {
                    Some(w) => cluster.serve_on(&Executor::new(w), &models, &requests),
                    None => cluster.serve(&models, &requests),
                };
                prop_assert_eq!(&parallel, &serial,
                    "policy {:?}, {} shards, workers {:?}", routing, shard_count, workers);
                let parallel_trace = parallel.merged_trace().expect("recorder attached");
                prop_assert_eq!(&parallel_trace, &serial_trace,
                    "trace: policy {:?}, {} shards, workers {:?}", routing, shard_count, workers);
            }
        }
    }
}

/// Cluster per-model rollup: shard tallies aggregate index-wise, and
/// the merged trace's request-drop events corroborate the router-level
/// drop count when nothing overflowed the rings.
#[test]
fn cluster_per_model_rollup_matches_shard_reports() {
    let models = models();
    let requests = WorkloadSpec::uniform(9, 300, 250.0, 1).generate();
    let fleets = (0..2)
        .map(|_| {
            Fleet::new(ArchKind::S2taAw, 2)
                .with_policy(FixedPolicy { max_batch: 8, max_wait_cycles: 10_000 })
                .with_queue_capacity(3)
        })
        .collect();
    let report = Cluster::new(fleets)
        .with_routing(RoutingPolicy::PowerOfTwo)
        .with_trace(big_trace())
        .serve(&models, &requests);
    assert!(report.dropped_count() > 0, "scenario must actually drop");
    let rollup = report.per_model();
    assert_eq!(rollup.len(), 1);
    assert_eq!(rollup[0].dropped, report.dropped_count() as u64);
    let per_shard: u64 =
        report.shards.iter().flat_map(|s| s.per_model.iter().map(|m| m.deadline_misses)).sum();
    assert_eq!(rollup[0].deadline_misses, per_shard);
    let trace = report.merged_trace().expect("recorder attached");
    assert_eq!(trace.dropped_events(), 0);
    assert_eq!(trace.dropped_requests(), report.dropped_count() as u64);
    assert_eq!(trace.completed_requests(), report.served_count() as u64);
}
