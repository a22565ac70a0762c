//! Cross-crate serving tests: scheduler invariants, end-to-end
//! determinism of the fleet across client modes, admission control,
//! SLO-aware batching (global and per-model classes), heterogeneous
//! lane fleets with affinity-aware placement, and bit-exactness of the
//! cached weight plans against the uncached path.

use proptest::prelude::*;
use s2ta::core::{Accelerator, ArchKind, ExecPath, ModelReport, WeightResidency};
use s2ta::energy::TechParams;
use s2ta::models::{cifar10_convnet, lenet5, LayerSpec, ModelSpec};
use s2ta::serve::{
    BatchLimits, ClosedLoopSpec, FixedPolicy, Fleet, FleetSpec, PlacementStrategy, Request,
    ServeReport, SloAwarePolicy, SloClass, WorkloadSpec,
};
use s2ta::tensor::{GemmShape, LayerKind};
use std::collections::BTreeMap;

fn workload(seed: u64, n: usize, models: usize) -> Vec<Request> {
    WorkloadSpec::uniform(seed, n, 15_000.0, models).generate()
}

/// A second, structurally different model so multi-model scheduling is
/// exercised without the cost of a full zoo network.
fn tiny_net() -> ModelSpec {
    ModelSpec {
        name: "TinyNet",
        layers: vec![
            LayerSpec::new("conv1", LayerKind::Conv, GemmShape::new(8, 27, 196), 0.1, 0.05),
            LayerSpec::new("conv2", LayerKind::Conv, GemmShape::new(16, 72, 49), 0.5, 0.5),
            LayerSpec::new("fc", LayerKind::FullyConnected, GemmShape::new(10, 784, 1), 0.5, 0.7),
        ],
    }
}

fn two_models() -> Vec<ModelSpec> {
    vec![lenet5(), tiny_net()]
}

/// One served batch, rebuilt from its members' outcomes.
struct ServedBatch {
    model: &'static str,
    lane: usize,
    start: u64,
    completion: u64,
    members: Vec<u64>,
}

/// Served outcomes grouped by batch id.
fn batches_of(report: &ServeReport) -> BTreeMap<usize, ServedBatch> {
    let mut batches = BTreeMap::new();
    for o in report.served_outcomes() {
        let b = batches.entry(o.batch).or_insert_with(|| ServedBatch {
            model: o.model,
            lane: o.worker,
            start: o.start,
            completion: o.completion,
            members: Vec::new(),
        });
        assert_eq!(
            (&b.model, b.lane, b.start, b.completion),
            (&o.model, o.worker, o.start, o.completion)
        );
        b.members.push(o.id);
    }
    batches
}

#[test]
fn no_request_is_dropped_or_duplicated() {
    let models = two_models();
    let requests = workload(3, 120, models.len());
    let report = Fleet::new(ArchKind::S2taAw, 2)
        .with_policy(FixedPolicy { max_batch: 6, max_wait_cycles: 40_000 })
        .serve(&models, &requests);
    let batches = batches_of(&report);
    let mut ids: Vec<u64> = batches.values().flat_map(|b| b.members.iter().copied()).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..120).collect::<Vec<_>>());
    assert_eq!(batches.len(), report.batches);
    for b in batches.values() {
        assert!(b.members.len() <= 6);
        assert!(b.members.iter().all(|&id| models[requests[id as usize].model].name == b.model));
    }
}

#[test]
fn per_model_fifo_fairness() {
    let models = two_models();
    let requests = workload(8, 150, models.len());
    let report = Fleet::new(ArchKind::S2taAw, 3).serve(&models, &requests);
    // Requests of one model must start (and ride in batches) in
    // arrival order: arrival order == id order for a generated stream.
    for model in models.iter().map(|m| m.name) {
        let of_model: Vec<_> = report.served_outcomes().filter(|o| o.model == model).collect();
        for pair in of_model.windows(2) {
            assert!(
                pair[0].start <= pair[1].start,
                "model {model}: request {} started after {}",
                pair[0].id,
                pair[1].id
            );
            assert!(pair[0].batch <= pair[1].batch, "batch order must follow arrival order");
        }
    }
}

#[test]
fn report_is_deterministic_for_a_seed() {
    let models = two_models();
    let requests = workload(21, 80, models.len());
    let fleet = Fleet::new(ArchKind::S2taAw, 4).with_weight_seed(5);
    assert_eq!(fleet.serve(&models, &requests), fleet.serve(&models, &requests));
}

#[test]
fn aggregate_metrics_are_worker_count_independent() {
    let models = two_models();
    let requests = workload(30, 100, models.len());
    let reports: Vec<_> = [1usize, 2, 4, 8]
        .iter()
        .map(|&w| Fleet::new(ArchKind::S2taAw, w).serve(&models, &requests))
        .collect();
    for r in &reports[1..] {
        assert_eq!(r.total_events, reports[0].total_events);
        assert_eq!(r.batches, reports[0].batches);
        assert_eq!(r.outcomes.len(), reports[0].outcomes.len());
        // Same batch composition implies the same per-request batch ids.
        for (a, b) in r.served_outcomes().zip(reports[0].served_outcomes()) {
            assert_eq!(a.batch, b.batch);
        }
    }
}

#[test]
fn admission_bounded_drops_are_worker_count_independent() {
    let models = two_models();
    // Dense traffic against a lane bound below max_batch forces drops.
    let requests = WorkloadSpec::uniform(9, 150, 800.0, models.len()).generate();
    let reports: Vec<_> = [1usize, 3, 6]
        .iter()
        .map(|&w| {
            Fleet::new(ArchKind::S2taAw, w)
                .with_policy(FixedPolicy { max_batch: 8, max_wait_cycles: 20_000 })
                .with_queue_capacity(2)
                .serve(&models, &requests)
        })
        .collect();
    assert!(reports[0].dropped_count() > 0, "the workload must overload the bound");
    for r in &reports[1..] {
        assert_eq!(r.dropped_count(), reports[0].dropped_count());
        assert_eq!(r.total_events, reports[0].total_events);
        // The same requests drop regardless of fleet size.
        for (a, b) in r.outcomes.iter().zip(&reports[0].outcomes) {
            assert_eq!(a.is_served(), b.is_served(), "drop set must not depend on workers");
        }
    }
    // Served + dropped partition the issued stream.
    let r = &reports[0];
    assert_eq!(r.served_count() + r.dropped_count(), requests.len());
    assert!(r.drop_rate() > 0.0 && r.drop_rate() < 1.0);
}

#[test]
fn fleet_scales_throughput_on_backlogged_traffic() {
    // A dense burst (tiny interarrival) keeps every worker busy, so a
    // 4-worker fleet must finish materially sooner than a single
    // accelerator.
    let models = vec![lenet5()];
    let requests = WorkloadSpec::uniform(2, 64, 100.0, 1).generate();
    let one = Fleet::new(ArchKind::S2taAw, 1).serve(&models, &requests);
    let four = Fleet::new(ArchKind::S2taAw, 4).serve(&models, &requests);
    let speedup = one.makespan_cycles as f64 / four.makespan_cycles as f64;
    assert!(speedup > 2.0, "4 workers only {speedup:.2}x faster than 1");
}

#[test]
fn closed_loop_serving_is_deterministic_and_self_limiting() {
    let models = two_models();
    let spec = ClosedLoopSpec::uniform(41, 5, 60, 10_000.0, models.len());
    let fleet = Fleet::new(ArchKind::S2taAw, 2);
    let mut p1 = FixedPolicy { max_batch: 4, max_wait_cycles: 25_000 };
    let mut p2 = p1;
    let a = fleet.serve_closed_loop(&models, &spec, &mut p1);
    let b = fleet.serve_closed_loop(&models, &spec, &mut p2);
    assert_eq!(a, b, "closed loop must reproduce byte-for-byte");
    assert_eq!(a.outcomes.len(), 60);
    // Closed loop self-limits: a client never has two requests in
    // flight, so the number of requests in the system never exceeds
    // the client count.
    let mut events: Vec<(u64, i64)> = Vec::new();
    for o in a.served_outcomes() {
        events.push((o.arrival, 1));
        events.push((o.completion, -1));
    }
    events.sort_unstable();
    let mut open = 0i64;
    for (_, delta) in events {
        open += delta;
        assert!(open <= 5, "closed loop exceeded one outstanding request per client");
    }
}

/// The acceptance comparison: on the lenet5 + cifar10_convnet mix, the
/// SLO-aware policy must beat the default fixed policy's p99 at equal
/// or better goodput.
#[test]
fn slo_aware_policy_beats_default_fixed_policy_on_the_model_mix() {
    let models = vec![lenet5(), cifar10_convnet()];
    let spec = WorkloadSpec {
        seed: 77,
        requests: 96,
        mean_interarrival_cycles: 6_000.0,
        mix: vec![2.0, 1.0],
    };
    let requests = spec.generate();
    let fleet = Fleet::new(ArchKind::S2taAw, 2);
    let fixed = fleet.clone().with_policy(FixedPolicy::default()).serve(&models, &requests);
    let mut slo =
        SloAwarePolicy::new(60_000, BatchLimits { max_batch: 8, max_wait_cycles: 100_000 });
    let adaptive = fleet.serve_adaptive(&models, &requests, &mut slo);
    assert!(
        adaptive.p99_cycles() < fixed.p99_cycles(),
        "SLO-aware p99 {} must beat fixed p99 {}",
        adaptive.p99_cycles(),
        fixed.p99_cycles()
    );
    assert!(
        adaptive.makespan_cycles <= fixed.makespan_cycles,
        "SLO-aware makespan {} must not exceed fixed {} (goodput parity)",
        adaptive.makespan_cycles,
        fixed.makespan_cycles
    );
    assert_eq!(adaptive.served_count(), fixed.served_count());
}

/// Clone-fleet regression: the lane-based refactor must reproduce the
/// homogeneous-clone fleet **byte-for-byte**. The pinned numbers were
/// captured from the pre-refactor implementation (PR 2) on this exact
/// workload; any drift in batch formation, placement, event totals or
/// latency percentiles fails here.
///
/// Re-pinned once when the memory-bound DMA clamp switched from
/// truncating division to `div_ceil` (a sub-rate tail transfer now
/// costs its full bus cycle): the S2TA-AW runs gained a few cycles on
/// LeNet's FC layers (e.g. single-lane makespan 546_521 -> 546_523),
/// while SA-ZVCG is untouched (its FC byte totals divide evenly).
#[test]
fn homogeneous_fleet_matches_pre_refactor_golden() {
    let models = [lenet5(), cifar10_convnet()];
    let spec = WorkloadSpec {
        seed: 2024,
        requests: 120,
        mean_interarrival_cycles: 5_000.0,
        mix: vec![2.0, 1.0],
    };
    let requests = spec.generate();
    let policy = FixedPolicy { max_batch: 6, max_wait_cycles: 30_000 };

    let one = Fleet::new(ArchKind::S2taAw, 1).with_policy(policy).serve(&models, &requests);
    assert_eq!(one.batches, 28);
    assert_eq!(one.makespan_cycles, 546_523);
    assert_eq!(one.total_events.cycles, 282_672);
    assert_eq!(one.total_events.macs_active, 61_887_596);
    assert_eq!((one.p50_cycles(), one.p99_cycles()), (30_564, 49_996));
    assert_eq!(one.arch, "S2TA-AW", "homogeneous label must stay the bare kind");

    let three = Fleet::new(ArchKind::S2taAw, 3).with_policy(policy).serve(&models, &requests);
    assert_eq!(three.batches, 28);
    assert_eq!(three.makespan_cycles, 546_523);
    assert_eq!(three.total_events.cycles, 282_672);
    assert_eq!((three.p50_cycles(), three.p99_cycles()), (29_212, 42_164));

    let closed_spec = ClosedLoopSpec::uniform(7, 4, 60, 4_000.0, models.len());
    let mut p = policy;
    let closed = Fleet::new(ArchKind::S2taAw, 2).with_policy(policy).serve_closed_loop(
        &models,
        &closed_spec,
        &mut p,
    );
    assert_eq!(closed.batches, 27);
    assert_eq!(closed.makespan_cycles, 578_415);
    assert_eq!(closed.total_events.cycles, 156_691);
    assert_eq!((closed.p50_cycles(), closed.p99_cycles()), (34_945, 39_589));

    let zvcg = Fleet::new(ArchKind::SaZvcg, 2).with_policy(policy).serve(&models, &requests);
    assert_eq!(zvcg.batches, 28);
    assert_eq!(zvcg.makespan_cycles, 557_307);
    assert_eq!(zvcg.total_events.cycles, 615_559);
    assert_eq!(zvcg.p99_cycles(), 56_730);
}

/// Every homogeneous construction path builds the same fleet: the
/// clone constructor, the spec, and the explicit-accelerator form.
#[test]
fn clone_fleet_construction_paths_are_equivalent() {
    let models = two_models();
    let requests = workload(13, 60, models.len());
    let a = Fleet::new(ArchKind::S2taAw, 3).serve(&models, &requests);
    let b = Fleet::from_spec(FleetSpec::homogeneous(ArchKind::S2taAw, 3)).serve(&models, &requests);
    let c =
        Fleet::with_accelerator(Accelerator::preset(ArchKind::S2taAw), 3).serve(&models, &requests);
    assert_eq!(a, b, "spec-built clone fleet must match Fleet::new");
    assert_eq!(a, c, "explicit-accelerator clone fleet must match Fleet::new");
}

/// The acceptance comparison for heterogeneous serving: on a mixed
/// 2×S2TA-AW + 2×SA-ZVCG fleet, affinity-aware placement must beat
/// arch-blind earliest-free placement on **both** p99 latency and
/// energy per inference — the cost model routes batches onto the lanes
/// that finish them sooner, which on this fleet are also the lanes
/// that burn less energy per inference.
#[test]
fn mixed_fleet_affinity_beats_earliest_free() {
    let tech = TechParams::tsmc16();
    // The canonical scenario shared with the serving bench and the
    // serving_hetero example (the CI smoke gate) — one tuning point.
    let models = s2ta_bench::hetero_scenario::models();
    let requests = s2ta_bench::hetero_scenario::workload().generate();
    let mk = || {
        Fleet::from_spec(s2ta_bench::hetero_scenario::fleet_spec())
            .with_policy(s2ta_bench::hetero_scenario::policy())
    };
    let earliest_free = mk().serve(&models, &requests);
    let affinity = mk().with_placement(PlacementStrategy::Affinity).serve(&models, &requests);

    assert_eq!(earliest_free.served_count(), requests.len());
    assert_eq!(affinity.served_count(), requests.len());
    assert!(
        affinity.p99_cycles() < earliest_free.p99_cycles(),
        "affinity p99 {} must beat earliest-free p99 {}",
        affinity.p99_cycles(),
        earliest_free.p99_cycles()
    );
    assert!(
        affinity.uj_per_inference(&tech) < earliest_free.uj_per_inference(&tech),
        "affinity {:.3} uJ/inf must beat earliest-free {:.3} uJ/inf",
        affinity.uj_per_inference(&tech),
        earliest_free.uj_per_inference(&tech)
    );
    // The skew that produces the win must be visible in the per-lane
    // breakdown: affinity shifts requests toward the S2TA-AW lanes.
    let aw_requests = |r: &s2ta::serve::ServeReport| {
        r.workers.iter().filter(|w| w.arch == ArchKind::S2taAw).map(|w| w.requests).sum::<usize>()
    };
    assert!(
        aw_requests(&affinity) > aw_requests(&earliest_free),
        "affinity must route more work to the faster lanes"
    );
}

/// The acceptance comparison for layer-pipelined serving: on the
/// canonical deep-model mixed-fleet scenario (shared with the serving
/// bench and the `serving_pipeline` example), pipelined placement must
/// beat monolithic earliest-free placement on p99 by at least 1.1x at
/// no worse throughput.
#[test]
fn pipelined_beats_monolithic_on_the_deep_model_scenario() {
    let models = s2ta_bench::pipeline_scenario::models();
    let requests = s2ta_bench::pipeline_scenario::workload().generate();
    let monolithic = s2ta_bench::pipeline_scenario::monolithic_fleet().serve(&models, &requests);
    let pipelined = s2ta_bench::pipeline_scenario::pipelined_fleet().serve(&models, &requests);

    assert_eq!(monolithic.served_count(), requests.len());
    assert_eq!(pipelined.served_count(), requests.len());
    let p99_win = monolithic.p99_cycles() as f64 / pipelined.p99_cycles() as f64;
    assert!(
        p99_win >= 1.1,
        "pipelined p99 {} must beat monolithic p99 {} by >= 1.1x (got {p99_win:.2}x)",
        pipelined.p99_cycles(),
        monolithic.p99_cycles()
    );
    // Equal served counts, so throughput parity is makespan parity.
    assert!(
        pipelined.makespan_cycles <= monolithic.makespan_cycles,
        "pipelined makespan {} must not exceed monolithic {}",
        pipelined.makespan_cycles,
        monolithic.makespan_cycles
    );
    // The win comes from stage overlap across distinct lanes: the
    // report must show the cross-arch stage map.
    let stages = &pipelined.pipeline_stages;
    assert!(stages.len() >= 2, "the deep model must actually pipeline");
    let archs: std::collections::HashSet<ArchKind> = stages.iter().map(|s| s.arch).collect();
    assert!(archs.len() >= 2, "the pipeline must span both architectures: {stages:?}");
}

/// Pipelined execution on a homogeneous fleet is byte-identical in
/// event totals to monolithic execution for a single cold batch, for
/// every stage count — the serve-level face of the core `run_stage`
/// recomposition guarantee.
#[test]
fn pipelined_events_match_monolithic_for_every_partition() {
    let models = vec![s2ta::models::deep_convnet()];
    let requests = WorkloadSpec::uniform(13, 4, 10.0, 1).generate();
    let policy = FixedPolicy { max_batch: 4, max_wait_cycles: 1_000 };
    let mono = Fleet::new(ArchKind::S2taAw, 4).with_policy(policy).serve(&models, &requests);
    assert_eq!(mono.batches, 1);
    for stages in 1..=4 {
        let pipe = Fleet::new(ArchKind::S2taAw, 4)
            .with_policy(policy)
            .with_placement(PlacementStrategy::Pipelined { stages, queue_capacity: 2 })
            .serve(&models, &requests);
        assert_eq!(pipe.total_events, mono.total_events, "{stages} stages");
        assert_eq!(pipe.served_count(), mono.served_count());
    }
}

/// Per-model SLO classes: a tight class for the latency-critical model
/// must cut that model's p99 far below what one loose global class
/// gives it, while the heavy model stays inside its own (looser)
/// target.
#[test]
fn per_model_slo_classes_protect_the_tight_model() {
    let models = [lenet5(), cifar10_convnet()];
    let spec = WorkloadSpec::mixed(42, 160, 5_000.0, vec![2.0, 1.0]);
    let requests = spec.generate();
    let fleet = Fleet::new(ArchKind::S2taAw, 2);
    let ceiling = BatchLimits { max_batch: 8, max_wait_cycles: 100_000 };
    let (lenet_target, cifar_target) = (25_000u64, 120_000u64);

    // One global class, sized for the heavy model.
    let mut global = SloAwarePolicy::new(cifar_target, ceiling);
    let g = fleet.serve_adaptive(&models, &requests, &mut global);
    // Independent per-model classes: tight for LeNet, loose for CIFAR.
    let mut per_model = SloAwarePolicy::per_model(vec![
        SloClass::new(lenet_target).with_ceiling(ceiling),
        SloClass::new(cifar_target).with_ceiling(ceiling),
    ]);
    let p = fleet.serve_adaptive(&models, &requests, &mut per_model);

    let lenet_g = g.latency_percentile_for_model("LeNet-5", 99.0);
    let lenet_p = p.latency_percentile_for_model("LeNet-5", 99.0);
    assert!(lenet_p < lenet_g, "per-model class must cut LeNet p99: {lenet_p} vs global {lenet_g}");
    assert!(lenet_p <= lenet_target, "LeNet p99 {lenet_p} must meet its {lenet_target} target");
    let cifar_p = p.latency_percentile_for_model("CIFAR10-ConvNet", 99.0);
    assert!(cifar_p <= cifar_target, "CIFAR p99 {cifar_p} must stay inside its own target");
    assert_eq!(p.served_count(), g.served_count(), "class split must not lose requests");
    assert_eq!(p.policy, "slo-aware-per-model");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cached-plan execution is bit-exact with the uncached path, for
    /// any seed pair: running from a plan compiled at `weight_seed`
    /// with `act_seed == weight_seed` must equal `run_model`, which
    /// regenerates and recompresses everything per call.
    #[test]
    fn prop_cached_plans_are_bit_exact(
        seed in any::<u64>(),
        kind_idx in 0usize..3,
    ) {
        let kind = [ArchKind::SaZvcg, ArchKind::S2taW, ArchKind::S2taAw][kind_idx];
        let acc = Accelerator::preset(kind);
        let model = lenet5();
        let plan = acc.plan_model(&model, seed);
        let planned = acc.run_model_planned(&plan, &model, seed);
        let direct = Accelerator::preset(kind).run_model(&model, seed);
        prop_assert_eq!(planned, direct);
    }

    /// Per-layer planned runs compose to the model run (streamed
    /// residency), so the serving fleet's layer-major loop cannot
    /// drift from the single-inference semantics.
    #[test]
    fn prop_layer_major_composition_matches_run_model(seed in any::<u64>()) {
        let acc = Accelerator::preset(ArchKind::S2taAw);
        let reference = Accelerator::preset(ArchKind::S2taAw).with_exec_path(ExecPath::Reference);
        let model = lenet5();
        let plan = acc.plan_model(&model, seed);
        let layers: Vec<_> = model
            .layers
            .iter()
            .zip(plan.layers())
            .map(|(l, lp)| reference.run_layer_planned(lp, l, seed, WeightResidency::Streamed))
            .collect();
        let composed = ModelReport::from_layers(model.name, "S2TA-AW", layers);
        prop_assert_eq!(composed, acc.run_model(&model, seed));
    }

    /// Placement invariants over random streams, policies and fleet
    /// sizes: no lane ever overlaps two batches, no batch starts before
    /// any member arrived, and no batch exceeds `max_batch`.
    #[test]
    fn prop_placement_never_overlaps_and_respects_ready(
        seed in any::<u64>(),
        workers in 1usize..6,
        max_batch in 1usize..6,
        max_wait in 0u64..40_000,
    ) {
        let models = two_models();
        let requests = WorkloadSpec::uniform(seed, 24, 4_000.0, models.len()).generate();
        let report = Fleet::new(ArchKind::S2taAw, workers)
            .with_policy(FixedPolicy { max_batch, max_wait_cycles: max_wait })
            .serve(&models, &requests);
        prop_assert_eq!(report.served_count(), requests.len());
        let batches = batches_of(&report);
        for (id, b) in &batches {
            prop_assert!(b.lane < workers);
            prop_assert!(b.start < b.completion, "batch {} has no service time", id);
            prop_assert!(b.members.len() <= max_batch, "batch {} exceeds max_batch", id);
            for &r in &b.members {
                prop_assert!(b.start >= requests[r as usize].arrival, "batch {} started early", id);
            }
        }
        for w in 0..workers {
            let mut spans: Vec<(u64, u64)> =
                batches.values().filter(|b| b.lane == w).map(|b| (b.start, b.completion)).collect();
            spans.sort_unstable();
            for pair in spans.windows(2) {
                prop_assert!(pair[0].1 <= pair[1].0, "lane {} overlapped", w);
            }
        }
    }
}
