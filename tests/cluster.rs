//! Cross-crate cluster tests: router conservation invariants,
//! single-shard degeneration to a bare fleet, determinism of sharded
//! runs, merged-percentile rollup, and lane autoscaling.

use proptest::{prop_assert, prop_assert_eq};
use s2ta::core::pool::Executor;
use s2ta::core::ArchKind;
use s2ta::energy::TechParams;
use s2ta::models::{cifar10_convnet, lenet5, ModelSpec};
use s2ta::serve::{
    AutoscalePolicy, Cluster, ClusterReport, DegradedMode, DiurnalSpec, FaultConfig, FaultSpec,
    FixedPolicy, Fleet, FleetSpec, RateSegment, Request, RequestOutcome, RoutingPolicy, ScaleEvent,
    TraceConfig, TraceEventKind, WorkloadSpec,
};
use s2ta_bench::{chaos_scenario, cluster_scenario};
use std::collections::HashMap;

fn models() -> Vec<ModelSpec> {
    vec![lenet5()]
}

fn stream(seed: u64, n: usize) -> Vec<Request> {
    WorkloadSpec::uniform(seed, n, 2_000.0, 1).generate()
}

fn shards(count: usize, lanes: usize) -> Vec<Fleet> {
    (0..count).map(|_| Fleet::new(ArchKind::S2taAw, lanes)).collect()
}

/// Every input request must land on exactly one shard — no loss, no
/// duplication — under every routing policy, and the router's own
/// per-shard tallies must agree with the shard reports.
#[test]
fn router_conserves_requests_under_every_policy() {
    let models = models();
    let requests = stream(5, 200);
    for routing in
        [RoutingPolicy::Random, RoutingPolicy::JoinShortestQueue, RoutingPolicy::PowerOfTwo]
    {
        let report = Cluster::new(shards(3, 2))
            .with_routing(routing)
            .with_router_seed(11)
            .serve(&models, &requests);
        assert_eq!(report.total_requests(), 200, "{routing:?}");
        assert_eq!(report.routed.iter().sum::<usize>(), 200, "{routing:?}");
        let mut ids: Vec<u64> =
            report.shards.iter().flat_map(|s| s.outcomes.iter().map(|o| o.id())).collect();
        ids.sort_unstable();
        assert_eq!(
            ids,
            (0..200).collect::<Vec<u64>>(),
            "{routing:?}: every id exactly once across shards"
        );
        for (i, shard) in report.shards.iter().enumerate() {
            assert_eq!(shard.outcomes.len(), report.routed[i], "{routing:?} shard {i} tally");
        }
    }
}

/// Conservation must survive admission drops: a bounded shard queue
/// tail-drops requests, but every id still appears exactly once in the
/// union of served + dropped outcomes.
#[test]
fn conservation_holds_under_admission_drops() {
    let models = models();
    // A hot stream against queues bounded below `max_batch` forces
    // drops: each shard's queue fills long before the timeout can
    // close a batch (~250-cycle global gaps → ~500 per shard).
    let requests = WorkloadSpec::uniform(9, 300, 250.0, 1).generate();
    let fleets = (0..2)
        .map(|_| {
            Fleet::new(ArchKind::S2taAw, 2)
                .with_policy(FixedPolicy { max_batch: 8, max_wait_cycles: 10_000 })
                .with_queue_capacity(3)
        })
        .collect();
    let report =
        Cluster::new(fleets).with_routing(RoutingPolicy::PowerOfTwo).serve(&models, &requests);
    assert!(report.dropped_count() > 0, "scenario must actually drop");
    assert!(report.served_count() > 0);
    assert_eq!(report.served_count() + report.dropped_count(), 300);
    let mut ids: Vec<u64> =
        report.shards.iter().flat_map(|s| s.outcomes.iter().map(|o| o.id())).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..300).collect::<Vec<u64>>());
    assert!(report.drop_rate() > 0.0 && report.drop_rate() < 1.0);
}

/// A single-shard cluster is the degenerate case: whatever the routing
/// policy, every request goes to shard 0, and the shard's report must
/// be **identical** to serving the same stream on the bare fleet.
#[test]
fn single_shard_cluster_matches_bare_fleet_exactly() {
    let models = models();
    let requests = stream(13, 150);
    let bare = Fleet::new(ArchKind::S2taAw, 3).serve(&models, &requests);
    for routing in
        [RoutingPolicy::Random, RoutingPolicy::JoinShortestQueue, RoutingPolicy::PowerOfTwo]
    {
        let cluster = Cluster::new(shards(1, 3)).with_routing(routing).serve(&models, &requests);
        assert_eq!(cluster.shards.len(), 1);
        assert_eq!(
            cluster.shards[0], bare,
            "{routing:?}: routing through a 1-shard cluster must not perturb the simulation"
        );
        assert_eq!(cluster.p99_cycles(), bare.p99_cycles());
        assert_eq!(cluster.makespan_cycles(), bare.makespan_cycles);
    }
}

/// The same cluster spec must reproduce the identical report, and the
/// router seed is the only randomness: a different seed reroutes a
/// random-policy run.
#[test]
fn cluster_runs_are_deterministic_in_the_router_seed() {
    let models = models();
    let requests = stream(21, 180);
    let run = |seed: u64| {
        Cluster::new(shards(4, 1))
            .with_routing(RoutingPolicy::Random)
            .with_router_seed(seed)
            .serve(&models, &requests)
    };
    let a = run(3);
    let b = run(3);
    assert_eq!(a, b, "same seed must reproduce the identical cluster report");
    let c = run(4);
    assert_ne!(a.routed, c.routed, "a different router seed must reroute");
    // JSQ consumes no randomness, so its runs ignore the seed entirely.
    let jsq = |seed: u64| {
        Cluster::new(shards(4, 1))
            .with_routing(RoutingPolicy::JoinShortestQueue)
            .with_router_seed(seed)
            .serve(&models, &requests)
    };
    assert_eq!(jsq(3), jsq(999));
}

/// Global percentiles are those of the merged per-request population:
/// the cluster p99 must be a latency some shard actually observed, and
/// must sit within the range of per-shard extremes (an averaged
/// percentile generally is neither).
#[test]
fn global_percentiles_come_from_merged_samples() {
    let models = models();
    let requests = stream(31, 240);
    let report = Cluster::new(shards(3, 2))
        .with_routing(RoutingPolicy::PowerOfTwo)
        .serve(&models, &requests);
    let mut all: Vec<u64> = report
        .shards
        .iter()
        .flat_map(|s| s.served_outcomes().map(|r| r.latency_cycles()))
        .collect();
    all.sort_unstable();
    for pct in [50.0, 95.0, 99.0] {
        let global = report.latency_percentile_cycles(pct);
        assert!(all.contains(&global), "p{pct} {global} is not an observed sample");
    }
    assert!(report.p50_cycles() <= report.p95_cycles());
    assert!(report.p95_cycles() <= report.p99_cycles());
    assert!(report.goodput_ips(&TechParams::tsmc16()) > 0.0);
}

/// The nearest-rank `pct`-th percentile of `sorted` (0 when empty).
fn nearest_rank(sorted: &[u64], pct: f64) -> u64 {
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len().max(1)) - 1).copied().unwrap_or(0)
}

/// The served latencies among `outcomes`, sorted.
fn sorted_latencies(outcomes: impl IntoIterator<Item = RequestOutcome>) -> Vec<u64> {
    let mut latencies: Vec<u64> =
        outcomes.into_iter().filter_map(|o| Some(o.served()?.latency_cycles())).collect();
    latencies.sort_unstable();
    latencies
}

/// `(served, dropped, failed)` among `outcomes`.
fn kind_counts(outcomes: impl IntoIterator<Item = RequestOutcome>) -> (u64, u64, u64) {
    outcomes.into_iter().fold((0, 0, 0), |(s, d, f), o| match o {
        RequestOutcome::Served(_) => (s + 1, d, f),
        RequestOutcome::Dropped(_) => (s, d + 1, f),
        RequestOutcome::Failed(_) => (s, d, f + 1),
    })
}

/// Checks every rollup of `report` against the reference recomputed
/// from its shards' outcome logs and fields.
fn assert_rollups_match_logs(run: &str, report: &ClusterReport, models: &[ModelSpec]) {
    let outcomes: Vec<RequestOutcome> = report.shards.iter().flat_map(|s| &s.outcomes).collect();
    let total = outcomes.len();
    let (served, dropped, failed) = kind_counts(outcomes.iter().copied());
    let (served, dropped, failed) = (served as usize, dropped as usize, failed as usize);
    assert_eq!(report.total_requests(), total, "{run}");
    assert_eq!(
        (report.served_count(), report.dropped_count(), report.failed_count()),
        (served, dropped, failed),
        "{run}"
    );
    assert_eq!(report.drop_rate(), dropped as f64 / total as f64, "{run}");
    assert_eq!(report.availability(), 1.0 - failed as f64 / total as f64, "{run}");
    let makespan = report.shards.iter().map(|s| s.makespan_cycles).max().unwrap();
    assert_eq!(report.makespan_cycles(), makespan, "{run}");
    let tech = TechParams::tsmc16();
    let goodput = served as f64 / (makespan as f64 / tech.clock_hz);
    assert_eq!(report.goodput_ips(&tech), goodput, "{run}");

    // Global percentiles, by nearest rank over every served latency.
    let all = sorted_latencies(outcomes.iter().copied());
    assert_eq!(report.p50_cycles(), nearest_rank(&all, 50.0), "{run} p50");
    assert_eq!(report.p95_cycles(), nearest_rank(&all, 95.0), "{run} p95");
    assert_eq!(report.p99_cycles(), nearest_rank(&all, 99.0), "{run} p99");

    // Per shard: the mean latency, and per model its drops, failures
    // and p99.
    let mut misses = vec![0; models.len()];
    for (s, shard) in report.shards.iter().enumerate() {
        let latencies = sorted_latencies(&shard.outcomes);
        let mean = match latencies.len() {
            0 => 0.0,
            n => latencies.iter().sum::<u64>() as f64 / n as f64,
        };
        assert_eq!(shard.mean_latency_cycles(), mean, "{run} shard {s} mean");
        for (i, model) in models.iter().enumerate() {
            let own = || shard.outcomes.iter().filter(|o| o.model() == model.name);
            let (_, dropped, failed) = kind_counts(own());
            let stats = &shard.per_model[i];
            assert_eq!((stats.dropped, stats.failed), (dropped, failed), "{run} shard {s} {i}");
            let p99 = nearest_rank(&sorted_latencies(own()), 99.0);
            let name = model.name;
            assert_eq!(shard.latency_percentile_for_model(name, 99.0), p99, "{run} shard {s} {i}");
            misses[i] += stats.deadline_misses;
        }
    }

    // Cluster-wide per model: drops and failures as the logs count
    // them, deadline misses as the shards' fields sum them.
    for (i, (model, stats)) in models.iter().zip(report.per_model()).enumerate() {
        let (_, dropped, failed) =
            kind_counts(outcomes.iter().copied().filter(|o| o.model() == model.name));
        let got = (stats.dropped, stats.deadline_misses, stats.failed);
        assert_eq!(got, (dropped, misses[i], failed), "{run} model {i}");
    }
}

/// Every rollup the reports answer from their counts and latency runs
/// equals the reference recomputed from the outcome logs: counts, drop
/// rate, availability, goodput, p50/p95/p99, per-shard mean latency,
/// per-model drop, miss and fail counts, and per-shard per-model p99.
/// It holds on a cut of the canonical day on the pre-routed driver
/// (`Random`), on the barrier driver (`PowerOfTwo`), and on the
/// protected chaos cluster, which drops and fails requests.
#[test]
fn rollups_equal_the_outcome_log_reference() {
    let models = cluster_scenario::models();
    let mut spec = cluster_scenario::workload();
    spec.requests = 2_000;
    let stream = spec.generate();
    // The chaos run's crashes fail requests; it sheds LeNet-5 as well
    // as the best-effort model, at a shallower backlog, so that it also
    // drops some.
    let horizon = stream.last().map_or(1, |r| r.arrival);
    let mut faults = chaos_scenario::protected(horizon);
    faults.degraded = Some(DegradedMode { backlog_threshold: 8, best_effort: vec![0, 2] });
    let chaos = chaos_scenario::cluster().with_faults(faults);
    for (run, cluster) in [
        ("random", cluster_scenario::cluster(RoutingPolicy::Random)),
        ("p2c", cluster_scenario::cluster(RoutingPolicy::PowerOfTwo)),
        ("chaos", chaos),
    ] {
        let report = cluster.serve(&models, &stream);
        assert_rollups_match_logs(run, &report, &models);
        if run == "chaos" {
            assert!(
                report.dropped_count() > 0 && report.failed_count() > 0,
                "chaos must drop and fail"
            );
        }
    }
}

/// On a diurnal profile the autoscaler must both grow lanes into the
/// peak and shed them in the valley, and scaling must not break
/// request conservation.
#[test]
fn autoscaler_tracks_the_diurnal_load_curve() {
    let models = models();
    // Two full day cycles: shards start at full width, shed lanes
    // through the first valley, and must re-grow into the second peak.
    let requests = DiurnalSpec {
        seed: 17,
        requests: 620,
        segments: vec![
            RateSegment { duration_cycles: 60_000, mean_interarrival_cycles: 200.0 },
            RateSegment { duration_cycles: 240_000, mean_interarrival_cycles: 24_000.0 },
        ],
        mix: vec![1.0],
        act_seed_pool: 32,
    }
    .generate();
    let fleets = (0..2)
        .map(|_| {
            Fleet::from_spec(FleetSpec::homogeneous(ArchKind::S2taAw, 4))
                .with_policy(FixedPolicy { max_batch: 16, max_wait_cycles: 30_000 })
        })
        .collect();
    let report = Cluster::new(fleets)
        .with_routing(RoutingPolicy::PowerOfTwo)
        .with_autoscale(AutoscalePolicy {
            eval_interval_cycles: 15_000,
            scale_up_depth: 3,
            scale_down_depth: 0,
            min_lanes: 1,
        })
        .serve(&models, &requests);
    assert_eq!(report.total_requests(), 620);
    let ups = report.scale_events.iter().filter(|e| e.to_lanes > e.from_lanes).count();
    let downs = report.scale_events.iter().filter(|e| e.to_lanes < e.from_lanes).count();
    assert!(ups > 0, "peak load must trigger scale-ups: {:?}", report.scale_events);
    assert!(downs > 0, "valley must trigger scale-downs: {:?}", report.scale_events);
    for e in &report.scale_events {
        assert!(e.to_lanes >= 1 && e.to_lanes <= 4, "lane count out of bounds: {e:?}");
        assert_eq!(e.to_lanes.abs_diff(e.from_lanes), 1, "scaling moves one lane at a time");
    }
    // Events are in simulated-time order.
    for w in report.scale_events.windows(2) {
        assert!(w[0].time <= w[1].time);
    }
    let mut ids: Vec<u64> =
        report.shards.iter().flat_map(|s| s.outcomes.iter().map(|o| o.id())).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..620).collect::<Vec<u64>>());
}

/// Same-cycle tie-break of an autoscaler evaluation: it fires after a
/// completion and before an arrival at its cycle. A lone request
/// completes at `c`, a second arrives at `c`, and the evaluation at `c`
/// must see a backlog of 0 — the first request gone, the second not yet
/// in — and shed a lane. No evaluation fires past the last arrival.
#[test]
fn autoscale_evaluation_fires_between_completion_and_arrival() {
    let models = models();
    let fleet = || {
        Fleet::new(ArchKind::S2taAw, 2)
            .with_policy(FixedPolicy { max_batch: 1, max_wait_cycles: 1_000 })
    };
    let first = Request { id: 0, model: 0, arrival: 0, act_seed: 1 };
    let c = Cluster::new(vec![fleet()]).serve(&models, &[first]).makespan_cycles();
    assert!(c > 0);
    let requests = [first, Request { id: 1, model: 0, arrival: c, act_seed: 2 }];
    let policy = AutoscalePolicy {
        eval_interval_cycles: c,
        scale_up_depth: 2,
        scale_down_depth: 0,
        min_lanes: 1,
    };
    let want = [ScaleEvent { time: c, shard: 0, from_lanes: 2, to_lanes: 1, backlog: 0 }];
    for routing in [RoutingPolicy::Random, RoutingPolicy::PowerOfTwo] {
        let cluster = Cluster::new(vec![fleet()]).with_routing(routing).with_autoscale(policy);
        for (driver, report) in [
            ("serve", cluster.serve(&models, &requests)),
            ("serve_serial", cluster.serve_serial(&models, &requests)),
        ] {
            assert_eq!(report.scale_events, want, "{routing:?} {driver}");
            assert_eq!(report.served_count(), 2, "{routing:?} {driver}");
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(5))]

    /// `serve` must reproduce the serial barrier driver **byte-
    /// identically** — full `ClusterReport` equality, covering outcomes,
    /// routed tallies, per-shard reports, and scale events — across
    /// routing policies and shard counts. For `Random`, `serve` is the
    /// independent pre-routed driver, checked at every executor worker
    /// count (including a serial 1-worker executor and the global one);
    /// for the probing policies it is the barrier driver run again.
    #[test]
    fn prop_parallel_cluster_is_byte_identical_to_serial(
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
            let mut cluster = Cluster::new(shards(shard_count, 2))
                .with_routing(routing)
                .with_router_seed(seed ^ 0x5eed);
            if autoscale {
                cluster = cluster.with_autoscale(AutoscalePolicy {
                    eval_interval_cycles: 20_000,
                    scale_up_depth: 2,
                    scale_down_depth: 0,
                    min_lanes: 1,
                });
            }
            let serial = cluster.serve_serial(&models, &requests);
            // Only the pre-routed driver (Random) runs on the executor;
            // the probing policies' `serve` is the barrier driver.
            let worker_counts: &[Option<usize>] = match routing {
                RoutingPolicy::Random => &[Some(1), Some(2), Some(7), None],
                _ => &[None],
            };
            for &workers in worker_counts {
                let parallel = match workers {
                    Some(w) => cluster.serve_on(&Executor::new(w), &models, &requests),
                    None => cluster.serve(&models, &requests),
                };
                prop_assert_eq!(
                    &parallel,
                    &serial,
                    "policy {:?}, {} shards, workers {:?}",
                    routing,
                    shard_count,
                    workers
                );
                prop_assert_eq!(&parallel.scale_events, &serial.scale_events);
                prop_assert_eq!(&parallel.routed, &serial.routed);
            }
        }
    }
}

/// A chaos schedule dense enough to guarantee crash, slowdown and
/// outage activity inside the arrival span.
fn chaos_spec(seed: u64, horizon: u64) -> FaultSpec {
    FaultSpec {
        seed,
        lane_crashes: 3,
        lane_slowdowns: 2,
        shard_outages: 1,
        horizon_cycles: horizon.max(1),
        mean_down_cycles: horizon / 8 + 1,
        mean_outage_cycles: 0,
        slowdown_factor: 3,
    }
}

/// Lane recoveries are cold on the simulated clock only: a
/// shared-cache chaos cluster whose lanes crash and recover on several
/// shards compiles each (arch, model) plan exactly once, as the
/// fault-free cluster does, so one shard's restart never touches the
/// plans the other shards share.
#[test]
fn shared_cache_chaos_compiles_each_plan_once() {
    let models = vec![lenet5(), cifar10_convnet()];
    let requests = WorkloadSpec::uniform(23, 240, 2_000.0, models.len()).generate();
    let horizon = requests.last().map_or(1, |r| r.arrival.max(1));
    let build = || {
        let shards = (0..3)
            .map(|_| {
                Fleet::from_spec(FleetSpec::mixed(&[(ArchKind::S2taAw, 1), (ArchKind::SaZvcg, 1)]))
            })
            .collect();
        Cluster::new(shards).with_shared_caches()
    };
    let compiles = |cluster: &Cluster| {
        let stats = cluster.shards()[0].accelerator().plans().stats();
        stats.misses + stats.bypasses
    };
    let clean = build();
    clean.serve_serial(&models, &requests);
    assert_eq!(compiles(&clean), 2 * models.len() as u64, "one compile per (arch, model)");

    let chaos = build().with_faults(FaultConfig::protected(chaos_spec(9, horizon)));
    let report = chaos.serve_serial(&models, &requests);
    let recovered = report.shards.iter().filter(|s| s.fault.lane_recoveries > 0).count();
    assert!(recovered >= 2, "recoveries must land on several shards, got {recovered}");
    assert_eq!(compiles(&chaos), compiles(&clean), "recoveries must not recompile plans");
}

/// A recurring input is tallied once per cluster, however many plans
/// read it. On a cut of the canonical pooled day with cluster-wide
/// caches, served on two executor workers, a `(model, act_seed)` pair
/// the stream names again costs one tally pass per layer for the whole
/// cluster and a single-use one a pass per layer of its one run. The
/// table ends with one entry per recurring pair for each of the two
/// plans (S2TA-AW and SA-ZVCG) the shards hold, and each single-use
/// request is one miss that leaves none.
///
/// A table of activation profiles, keyed per layer rather than per
/// plan, ran 4,672 passes on this cut where the counters run 4,685: two
/// models whose layers draw identical activations (same name, shape and
/// sparsity: CIFAR-10's and Deep-ConvNet's `conv1`) could share a
/// layer's pass when the stream named both with one seed, while the
/// counters of each model's range are tallied from its own layers.
#[test]
fn recurring_input_tallies_once_per_cluster() {
    let models = cluster_scenario::models();
    let mut spec = cluster_scenario::workload();
    spec.requests = 4_000;
    let stream = spec.generate();
    let cluster = cluster_scenario::cluster(RoutingPolicy::Random);
    cluster.serve_on(&Executor::new(2), &models, &stream);
    let mut named: HashMap<(usize, u64), u64> = HashMap::new();
    for r in &stream {
        *named.entry((r.model, r.act_seed)).or_default() += 1;
    }
    let (mut pairs, mut single_use, mut passes) = (0, 0, 0);
    for (&(model, _), &times) in &named {
        passes += models[model].layers.len() as u64;
        if times > 1 {
            pairs += 1;
        } else {
            single_use += 1;
        }
    }
    assert!(pairs > 100 && single_use > 100, "{pairs} recurring, {single_use} single-use");
    let table = cluster.shards()[0].accelerator().act_profiles();
    assert_eq!(table.tally_passes(), passes, "one pass per layer of each distinct input");
    assert_eq!(passes, 4_685);
    assert_eq!(table.len(), 2 * pairs as usize, "one entry per recurring pair and plan");
    let s = table.stats();
    assert_eq!(s.misses, pairs + single_use, "one miss per distinct input");
    assert_eq!(s.hits + s.misses, stream.len() as u64, "one lookup per request");
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(4))]

    /// Chaos property: under random seeded fault schedules, every
    /// routing policy and shard count must (a) conserve requests —
    /// served + dropped + failed covers the offered stream exactly
    /// once, (b) never execute a served batch inside its lane's crash
    /// window, and (c) stay byte-identical between the serial barrier
    /// driver and `serve` (the pre-routed driver under `Random`),
    /// **including the merged trace**.
    #[test]
    fn prop_chaos_conserves_and_stays_byte_identical(
        seed in 1u64..500,
        fault_seed in 1u64..500,
        policy_idx in 0usize..3,
    ) {
        let models = models();
        let requests = stream(seed, 80);
        let offered = requests.len();
        let horizon = requests.last().map_or(1, |r| r.arrival.max(1));
        let routing = [
            RoutingPolicy::Random,
            RoutingPolicy::JoinShortestQueue,
            RoutingPolicy::PowerOfTwo,
        ][policy_idx];
        for shard_count in [1usize, 2, 4] {
            let config = FaultConfig::protected(chaos_spec(fault_seed, horizon));
            let cluster = Cluster::new(shards(shard_count, 2))
                .with_routing(routing)
                .with_router_seed(seed ^ 0xc4a05)
                .with_trace(TraceConfig::default())
                .with_faults(config.clone());
            let serial = cluster.serve_serial(&models, &requests);

            // (a) Conservation, by count and by id.
            prop_assert_eq!(
                serial.served_count() + serial.dropped_count() + serial.failed_count(),
                offered,
                "{:?} x{}: served+dropped+failed must cover the stream",
                routing, shard_count
            );
            let mut ids: Vec<u64> = serial
                .shards
                .iter()
                .flat_map(|s| s.outcomes.iter().map(|o| o.id()))
                .collect();
            ids.sort_unstable();
            prop_assert_eq!(ids, (0..offered as u64).collect::<Vec<u64>>());
            prop_assert!(serial.fault_stats().lane_crashes > 0, "schedule must crash");
            prop_assert!(serial.availability() > 0.0 && serial.availability() <= 1.0);

            // (b) No served batch executes inside its lane's crash
            // window (windows recomputed from the pure schedule).
            let plan = config.spec.schedule(&vec![2usize; shard_count]);
            let trace = serial.merged_trace().expect("every shard is traced");
            let mut starts: HashMap<(u32, u32, u64), u64> = HashMap::new();
            for e in trace.events() {
                match e.kind {
                    TraceEventKind::BatchStarted => {
                        starts.insert((e.shard, e.lane, e.a), e.cycle);
                    }
                    TraceEventKind::BatchCompleted => {
                        let start = starts[&(e.shard, e.lane, e.a)];
                        let timeline = plan.shard_timeline(e.shard as usize);
                        for &(ws, we) in timeline.lane_down_windows(e.lane as usize) {
                            prop_assert!(
                                !(start < we && ws < e.cycle),
                                "batch [{start}, {}) on shard {} lane {} overlaps \
                                 crash window [{ws}, {we})",
                                e.cycle, e.shard, e.lane
                            );
                        }
                    }
                    _ => {}
                }
            }

            // (c) Serial vs shard-parallel byte-identity, merged trace
            // included; the executor only matters for the pre-routed
            // driver (Random).
            let worker_counts: &[Option<usize>] = match routing {
                RoutingPolicy::Random => &[Some(1), Some(3), None],
                _ => &[None],
            };
            for &workers in worker_counts {
                let parallel = match workers {
                    Some(w) => cluster.serve_on(&Executor::new(w), &models, &requests),
                    None => cluster.serve(&models, &requests),
                };
                prop_assert_eq!(
                    &parallel, &serial,
                    "{:?} x{} workers {:?}", routing, shard_count, workers
                );
                let parallel_trace = parallel.merged_trace().expect("traced");
                prop_assert_eq!(
                    parallel_trace.events(),
                    trace.events(),
                    "merged traces must be byte-identical"
                );
            }
        }
    }
}

/// Deterministic autoscale differential: on the diurnal scenario the
/// pre-routed driver (random routing, at every worker count) must emit
/// the identical (non-empty) scale-event log as the barrier driver —
/// the hardest case for the pre-routed replay, since each shard fires
/// the stream-global autoscale evals without seeing the other shards'
/// arrivals.
#[test]
fn parallel_driver_reproduces_serial_autoscale_run() {
    let models = models();
    let requests = DiurnalSpec {
        seed: 17,
        requests: 620,
        segments: vec![
            RateSegment { duration_cycles: 60_000, mean_interarrival_cycles: 200.0 },
            RateSegment { duration_cycles: 240_000, mean_interarrival_cycles: 24_000.0 },
        ],
        mix: vec![1.0],
        act_seed_pool: 32,
    }
    .generate();
    let build = || {
        let fleets = (0..2)
            .map(|_| {
                Fleet::from_spec(FleetSpec::homogeneous(ArchKind::S2taAw, 4))
                    .with_policy(FixedPolicy { max_batch: 16, max_wait_cycles: 30_000 })
            })
            .collect();
        Cluster::new(fleets).with_routing(RoutingPolicy::Random).with_autoscale(AutoscalePolicy {
            eval_interval_cycles: 15_000,
            scale_up_depth: 3,
            scale_down_depth: 0,
            min_lanes: 1,
        })
    };
    let serial = build().serve_serial(&models, &requests);
    assert!(!serial.scale_events.is_empty(), "scenario must actually scale");
    for workers in [1usize, 2, 7] {
        let parallel = build().serve_on(&Executor::new(workers), &models, &requests);
        assert_eq!(parallel, serial, "{workers} workers");
    }
    assert_eq!(build().serve(&models, &requests), serial, "global executor");
}
