//! Shared helpers for the per-table / per-figure bench targets.
//!
//! Each bench binary regenerates one table or figure of the paper's
//! evaluation (Sec. 8) and prints it in a comparable layout; run them
//! all with `cargo bench --workspace`. Absolute joules/mm2 are model
//! outputs — the reproduction target is the *shape*: orderings, ratios
//! and crossovers. Each bench prints the paper's value next to the
//! measured one.

#![forbid(unsafe_code)]

use s2ta_core::{pool, Accelerator, ArchKind, ModelReport};
use s2ta_energy::comparators::LayerStats;
use s2ta_models::ModelSpec;
use s2ta_tensor::Matrix;

/// The master seed all benches share, for reproducible output.
pub const SEED: u64 = 42;

/// The canonical heterogeneous-serving scenario, shared verbatim by
/// the serving bench, the `serving_hetero` example, and the acceptance
/// test in `tests/serving.rs`: a mixed 2×S2TA-AW + 2×SA-ZVCG fleet
/// under a LeNet-heavy two-model mix, on which affinity placement must
/// beat earliest-free placement on both p99 latency and energy per
/// inference. Single-sourcing it keeps the three gates in lockstep
/// when the workload is retuned.
pub mod hetero_scenario {
    use s2ta_core::ArchKind;
    use s2ta_models::{cifar10_convnet, lenet5, ModelSpec};
    use s2ta_serve::{FixedPolicy, FleetSpec, WorkloadSpec};

    /// The two served models: LeNet-5 (latency-light) and the CIFAR-10
    /// convnet (heavier).
    pub fn models() -> Vec<ModelSpec> {
        vec![lenet5(), cifar10_convnet()]
    }

    /// The traffic: 160 requests at a 6000-cycle mean gap, LeNet
    /// taking two thirds of the mix.
    pub fn workload() -> WorkloadSpec {
        WorkloadSpec::mixed(super::SEED, 160, 6_000.0, vec![2.0, 1.0])
    }

    /// The mixed fleet: two S2TA-AW lanes plus two dense-baseline
    /// SA-ZVCG lanes.
    pub fn fleet_spec() -> FleetSpec {
        FleetSpec::mixed(&[(ArchKind::S2taAw, 2), (ArchKind::SaZvcg, 2)])
    }

    /// The fixed batching policy both placements run under.
    pub fn policy() -> FixedPolicy {
        FixedPolicy { max_batch: 8, max_wait_cycles: 30_000 }
    }
}

/// The canonical **deep-model pipeline** scenario, shared verbatim by
/// the serving bench, the `serving_pipeline` example, and the
/// acceptance test in `tests/serving.rs`: the 14-layer `Deep-ConvNet`
/// served by a mixed 2×S2TA-AW + 2×SA-ZVCG fleet, on which
/// layer-pipelined placement (`PlacementStrategy::Pipelined`, 4 stages
/// across the 4 lanes) must beat monolithic earliest-free placement on
/// p99 latency by at least 1.1x at no worse throughput.
/// Single-sourcing it keeps the three gates in lockstep when the
/// workload is retuned.
pub mod pipeline_scenario {
    use s2ta_core::ArchKind;
    use s2ta_models::{deep_convnet, ModelSpec};
    use s2ta_serve::{FixedPolicy, Fleet, FleetSpec, PlacementStrategy, WorkloadSpec};

    /// The served model: the deep serving convnet (14 layers).
    pub fn models() -> Vec<ModelSpec> {
        vec![deep_convnet()]
    }

    /// The traffic: a steady open-loop stream dense enough that
    /// monolithic lanes queue but a 4-stage pipeline keeps up.
    pub fn workload() -> WorkloadSpec {
        WorkloadSpec::uniform(super::SEED, 96, 8_000.0, 1)
    }

    /// The mixed fleet: two S2TA-AW lanes plus two dense-baseline
    /// SA-ZVCG lanes.
    pub fn fleet_spec() -> FleetSpec {
        FleetSpec::mixed(&[(ArchKind::S2taAw, 2), (ArchKind::SaZvcg, 2)])
    }

    /// The fixed batching policy both placements run under.
    pub fn policy() -> FixedPolicy {
        FixedPolicy { max_batch: 4, max_wait_cycles: 20_000 }
    }

    /// Stages of the pipeline under test (one per lane).
    pub const STAGES: usize = 4;

    /// The monolithic baseline fleet (earliest-free placement).
    pub fn monolithic_fleet() -> Fleet {
        Fleet::from_spec(fleet_spec()).with_policy(policy())
    }

    /// The pipelined fleet under test.
    pub fn pipelined_fleet() -> Fleet {
        monolithic_fleet()
            .with_placement(PlacementStrategy::Pipelined { stages: STAGES, queue_capacity: 2 })
    }
}

/// The canonical **cluster-scale** scenario, shared verbatim by the
/// cluster bench, the `serving_cluster` example, and CI's artifact
/// check: four narrow heterogeneous fleet shards (each 1×S2TA-AW +
/// 1×SA-ZVCG) behind the router tier, serving a diurnal ~1M-request
/// stream whose activation seeds are drawn from a bounded pool (so the
/// fleet-wide activation-counter table stays hit-dominated at cluster
/// scale). On it, power-of-two-choices routing must beat random
/// routing on **global p99** (merged per-request samples) by at least
/// [`cluster_scenario::GATE_P99_SPEEDUP`] at equal goodput: queues are
/// unbounded, so every policy serves the identical request set and the
/// tail gap is attributable to routing alone.
pub mod cluster_scenario {
    use s2ta_core::ArchKind;
    use s2ta_models::{cifar10_convnet, deep_convnet, lenet5, ModelSpec};
    use s2ta_serve::{
        AutoscalePolicy, Cluster, DiurnalSpec, FixedPolicy, Fleet, FleetSpec, RateSegment,
        RoutingPolicy,
    };

    /// Shards behind the router.
    pub const SHARDS: usize = 4;

    /// Requests in the canonical stream (the "~1M requests is routine"
    /// scale target of the serving engine).
    pub const REQUESTS: usize = 1_000_000;

    /// Distinct activation seeds in the stream (bounds the
    /// activation-counter table's working set: production traffic
    /// re-sees the same inputs, it does not invent a new tensor per
    /// request).
    pub const ACT_SEED_POOL: usize = 512;

    /// Minimum p2c-over-random global-p99 ratio the bench gates on.
    pub const GATE_P99_SPEEDUP: f64 = 1.15;

    /// Share of the ideal shard-parallel gain over the serial driver
    /// the bench gates on (see [`parallel_gate`]).
    pub const GATE_PARALLEL_GAIN_SHARE: f64 = 1.0 / 3.0;

    /// The no-regression floor the parallel driver is gated on when
    /// the host is single-core (1 executor worker): wall-time speedup
    /// is physically unavailable, but the pre-routed tier must still
    /// not cost anything — in practice it wins slightly even serially,
    /// because each shard's day runs straight through (better cache
    /// locality than interleaving all shards per arrival).
    pub const GATE_PARALLEL_FLOOR_SINGLE_CORE: f64 = 0.9;

    /// Minimum host wall-time speedup of the shard-parallel driver over
    /// the serial driver (pre-routed `Random` tier at [`SHARDS`] shards)
    /// on a host with `workers` executor workers. With
    /// `p = min(workers, SHARDS)` the shards run in `ceil(SHARDS / p)`
    /// rounds, so the ideal speedup is `SHARDS / ceil(SHARDS / p)`: 2x
    /// on two or three workers, 4x on four or more. The gate asks for
    /// [`GATE_PARALLEL_GAIN_SHARE`] of the ideal gain — 1.33x on two or
    /// three workers, 2x on four or more — and for the no-regression
    /// floor on one worker.
    pub fn parallel_gate(workers: usize) -> f64 {
        let p = workers.clamp(1, SHARDS);
        if p == 1 {
            return GATE_PARALLEL_FLOOR_SINGLE_CORE;
        }
        let ideal = SHARDS as f64 / SHARDS.div_ceil(p) as f64;
        1.0 + GATE_PARALLEL_GAIN_SHARE * (ideal - 1.0)
    }

    /// The served models: LeNet-5 carries ~70% of the traffic, the
    /// CIFAR-10 convnet most of the rest, and the 14-layer
    /// Deep-ConvNet is the **rare** heavy request (~0.6%) whose
    /// long-running batches congest whichever shard drew them — the
    /// congestion that backlog-probing routing avoids and random
    /// routing queues behind. The rarity is load-bearing for the
    /// gate: at a few percent the heavy model's own service latency
    /// sits above the global p99, which then measures heavy-request
    /// service (routing-independent) instead of the light-request
    /// queueing delay that routing controls.
    pub fn models() -> Vec<ModelSpec> {
        vec![lenet5(), cifar10_convnet(), deep_convnet()]
    }

    /// The diurnal day: an off-peak valley, ramp shoulders, and a peak
    /// plateau that pushes the cluster near saturation — where routing
    /// quality decides the tail.
    pub fn workload() -> DiurnalSpec {
        DiurnalSpec {
            seed: super::SEED,
            requests: REQUESTS,
            segments: vec![
                RateSegment { duration_cycles: 400_000, mean_interarrival_cycles: 2_700.0 },
                RateSegment { duration_cycles: 200_000, mean_interarrival_cycles: 1_350.0 },
                RateSegment { duration_cycles: 600_000, mean_interarrival_cycles: 720.0 },
                RateSegment { duration_cycles: 200_000, mean_interarrival_cycles: 1_350.0 },
            ],
            mix: vec![12.0, 5.0, 0.1],
            act_seed_pool: ACT_SEED_POOL,
        }
    }

    /// One shard's lane composition: a narrow mixed fleet (one S2TA-AW
    /// lane plus one dense SA-ZVCG lane), so a single heavy batch
    /// meaningfully congests its shard.
    pub fn shard_spec() -> FleetSpec {
        FleetSpec::mixed(&[(ArchKind::S2taAw, 1), (ArchKind::SaZvcg, 1)])
    }

    /// The fixed batching policy every shard runs under. The short
    /// batching window keeps the queueing-free latency floor small,
    /// so the congestion component routing controls is not diluted
    /// out of the p99 ratio.
    pub fn policy() -> FixedPolicy {
        FixedPolicy { max_batch: 16, max_wait_cycles: 10_000 }
    }

    /// The shard fleets (queues unbounded: zero drops, so every
    /// routing policy serves the identical request set).
    pub fn shards() -> Vec<Fleet> {
        (0..SHARDS).map(|_| Fleet::from_spec(shard_spec()).with_policy(policy())).collect()
    }

    /// The cluster under a given routing policy, with one cluster-wide
    /// plan/profile cache (compile once for the cluster, not once per
    /// shard — identical simulated results, ~4x less host work).
    pub fn cluster(routing: RoutingPolicy) -> Cluster {
        Cluster::new(shards())
            .with_routing(routing)
            .with_router_seed(super::SEED)
            .with_shared_caches()
    }

    /// The autoscaler exercised by the (ungated) autoscaled run: grow
    /// a shard past a one-batch backlog, shed lanes when the valley
    /// empties it.
    pub fn autoscale() -> AutoscalePolicy {
        AutoscalePolicy {
            eval_interval_cycles: 100_000,
            scale_up_depth: 24,
            scale_down_depth: 2,
            min_lanes: 1,
        }
    }
}

/// The canonical **chaos** scenario, shared by the cluster bench's
/// fault-tolerance cell, the `serving_cluster` example's chaos trace,
/// and CI's artifact check: the [`cluster_scenario`] day replayed
/// under **random** routing with bounded admission queues and a
/// seeded fault schedule dominated by whole-shard outages (plus a
/// handful of lane crashes and slowdowns). Random routing is the
/// point: it probes nothing, so the only thing standing between an
/// outage and the tail is the fault machinery under test — health
/// failover at the router, bounded deadline-aware retries, and
/// degraded-mode shedding of the best-effort model.
///
/// Two gates, both recorded in `BENCH_cluster.json`: the **protected**
/// run (retries + failover + degraded mode) must hold strict-class
/// goodput at `>=` [`chaos_scenario::GATE_GOODPUT_RATIO`]`x` the
/// fault-free bounded baseline **and** global p99 at `<=`
/// [`chaos_scenario::GATE_P99_RATIO`]`x`; the **unprotected** run
/// (no retries, no failover, no shedding) must measurably violate
/// both — otherwise the schedule is too gentle to prove anything.
pub mod chaos_scenario {
    use super::cluster_scenario;
    use s2ta_serve::{Cluster, DegradedMode, FaultConfig, FaultSpec, RetryPolicy, RoutingPolicy};

    /// Per-model admission cap each shard runs under in the chaos
    /// runs. The fault-free cluster scenario is unbounded; graceful
    /// degradation needs an admission boundary to shed at, and an
    /// unprotected outage needs one to overflow.
    pub const QUEUE_CAPACITY: usize = 256;

    /// Strict-class model indexes (LeNet-5 and the CIFAR-10 convnet):
    /// the goodput gate is computed over these. The heavy Deep-ConvNet
    /// (index 2) is the best-effort class degraded mode sheds.
    pub const STRICT_MODELS: [usize; 2] = [0, 1];

    /// Minimum protected-over-baseline strict-class goodput ratio.
    pub const GATE_GOODPUT_RATIO: f64 = 0.99;

    /// Maximum protected-over-baseline global-p99 ratio.
    pub const GATE_P99_RATIO: f64 = 1.5;

    /// The seeded fault schedule, scaled to the measured fault-free
    /// `horizon_cycles` (the full day in the committed artifact, the
    /// 40k-request prefix in CI's smoke mode). Two time scales on
    /// purpose: a few **long shard outages** (mean `horizon/160`,
    /// ~7M cycles at full scale) that only router failover can defend
    /// against — every arrival sprayed at a dark shard waits out the
    /// window — and a **storm of short lane crashes** (mean
    /// `horizon/25_000`, ~44k cycles) whose damage is the cancelled
    /// in-flight work itself: bounded retries re-admit it in well
    /// under a tail budget, while the unprotected run fails every
    /// cancellation outright. The slowdowns exercise service
    /// inflation without dominating either gate.
    pub fn fault_spec(horizon_cycles: u64) -> FaultSpec {
        FaultSpec {
            seed: super::SEED ^ 0xc4a05,
            lane_crashes: 1_500,
            lane_slowdowns: 8,
            shard_outages: 16,
            horizon_cycles: horizon_cycles.max(1),
            mean_down_cycles: (horizon_cycles / 25_000).max(2),
            mean_outage_cycles: (horizon_cycles / 160).max(2),
            slowdown_factor: 3,
        }
    }

    /// The protected configuration: default bounded retries, router
    /// health failover, and degraded-mode shedding of the best-effort
    /// Deep-ConvNet once a lane is down and the shard backlog passes
    /// one queue-capacity's worth of requests.
    pub fn protected(horizon_cycles: u64) -> FaultConfig {
        FaultConfig {
            spec: fault_spec(horizon_cycles),
            retry: RetryPolicy::default(),
            hedge: None,
            degraded: Some(DegradedMode { backlog_threshold: 64, best_effort: vec![2] }),
            failover: true,
        }
    }

    /// The unprotected baseline over the identical schedule: no
    /// retries (every cancelled request fails), no failover, no
    /// shedding.
    pub fn unprotected(horizon_cycles: u64) -> FaultConfig {
        FaultConfig::unprotected(fault_spec(horizon_cycles))
    }

    /// The bounded-admission cluster every chaos run starts from:
    /// the canonical shards with [`QUEUE_CAPACITY`]-deep model queues,
    /// random routing, shared caches.
    pub fn cluster() -> Cluster {
        let shards = (0..cluster_scenario::SHARDS)
            .map(|_| {
                s2ta_serve::Fleet::from_spec(cluster_scenario::shard_spec())
                    .with_policy(cluster_scenario::policy())
                    .with_queue_capacity(QUEUE_CAPACITY)
            })
            .collect();
        Cluster::new(shards)
            .with_routing(RoutingPolicy::Random)
            .with_router_seed(super::SEED)
            .with_shared_caches()
    }
}

/// Writes a machine-readable bench artifact (e.g. `BENCH_serving.json`)
/// to the workspace root, so the perf trajectory is trackable across
/// PRs, and returns the path written. Benches run from varying working
/// directories, so the path is anchored at this crate's manifest
/// directory as [`manifest_dir`] resolves it at run time.
pub fn write_bench_artifact(file_name: &str, contents: &str) -> std::path::PathBuf {
    let crate_dir =
        manifest_dir(std::env::var_os("CARGO_MANIFEST_DIR"), env!("CARGO_MANIFEST_DIR"));
    let path = crate_dir.join("../..").join(file_name);
    std::fs::write(&path, contents).expect("bench artifact must be writable");
    path
}

/// The manifest directory of the running package: `run_time`, the
/// `CARGO_MANIFEST_DIR` cargo exports to the bench, test and run
/// processes it starts, or `compiled`, the build-time value, for a
/// process started outside cargo. Preferring the run-time value makes
/// a copied checkout that reuses another's `target/` write its
/// artifacts into itself rather than into the original checkout.
pub fn manifest_dir(run_time: Option<std::ffi::OsString>, compiled: &str) -> std::path::PathBuf {
    run_time.map_or_else(|| compiled.into(), Into::into)
}

/// Formats an `f64` for the JSON artifacts: finite, fixed 4-decimal
/// precision (stable across runs and locales, and valid JSON — no
/// `NaN`/`inf` tokens).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "null".to_string()
    }
}

/// Prints the standard bench header.
pub fn header(id: &str, title: &str) {
    println!();
    println!("================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

/// Runs a model's **convolution layers** on every evaluated
/// architecture, returning `(arch, report)` pairs. (The paper's Fig. 11
/// and Fig. 12 are convolution-only.)
///
/// The per-architecture simulations fan out over the host executor
/// (`s2ta_core::pool::Executor`); results come back in input order,
/// so the output is byte-identical to the serial loop it replaces.
pub fn conv_reports(model: &ModelSpec, archs: &[ArchKind]) -> Vec<(ArchKind, ModelReport)> {
    let reports = pool::Executor::global()
        .map(archs, |&k| Accelerator::preset(k).run_model_conv_only(model, SEED));
    archs.iter().copied().zip(reports).collect()
}

/// Runs a model's full layer list on every evaluated architecture, the
/// per-arch simulations fanned out over the host executor
/// (order-preserving — byte-identical to the serial loop).
pub fn full_reports(model: &ModelSpec, archs: &[ArchKind]) -> Vec<(ArchKind, ModelReport)> {
    let reports =
        pool::Executor::global().map(archs, |&k| Accelerator::preset(k).run_model(model, SEED));
    archs.iter().copied().zip(reports).collect()
}

/// Computes the [`LayerStats`] the comparator models need from a
/// layer's actual operand matrices.
pub fn layer_stats(w: &Matrix, a: &Matrix) -> LayerStats {
    let w_nnz = (w.len() - w.count_zeros()) as u64;
    let a_nnz = (a.len() - a.count_zeros()) as u64;
    // Non-zero products via the factorization sum_p nnzW(p) * nnzA(p).
    let mut products: u64 = 0;
    for p in 0..w.cols() {
        let nw = (0..w.rows()).filter(|&r| w.get(r, p) != 0).count() as u64;
        let na = a.row(p).iter().filter(|&&v| v != 0).count() as u64;
        products += nw * na;
    }
    LayerStats {
        macs: (w.rows() * w.cols() * a.cols()) as u64,
        nonzero_products: products,
        weight_elems: w.len() as u64,
        weight_nnz: w_nnz,
        act_elems: a.len() as u64,
        act_nnz: a_nnz,
        outputs: (w.rows() * a.cols()) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2ta_tensor::Matrix;
    use std::path::Path;

    #[test]
    fn manifest_dir_prefers_the_run_time_directory() {
        let compiled = "/build/checkout/crates/bench";
        let copy = std::ffi::OsString::from("/copy/crates/bench");
        assert_eq!(manifest_dir(Some(copy), compiled), Path::new("/copy/crates/bench"));
        assert_eq!(manifest_dir(None, compiled), Path::new(compiled));
    }

    #[test]
    fn layer_stats_counts() {
        let w = Matrix::from_vec(2, 2, vec![1, 0, 2, 3]);
        let a = Matrix::from_vec(2, 2, vec![1, 1, 0, 4]);
        let s = layer_stats(&w, &a);
        assert_eq!(s.macs, 8);
        assert_eq!(s.weight_nnz, 3);
        assert_eq!(s.act_nnz, 3);
        // products: p0: nw=2,na=2 -> 4; p1: nw=1,na=1 -> 1.
        assert_eq!(s.nonzero_products, 5);
        assert_eq!(s.outputs, 4);
    }

    #[test]
    fn parallel_gate_scales_with_usable_workers() {
        use cluster_scenario::{parallel_gate, GATE_PARALLEL_FLOOR_SINGLE_CORE};
        assert_eq!(parallel_gate(0), GATE_PARALLEL_FLOOR_SINGLE_CORE);
        assert_eq!(parallel_gate(1), GATE_PARALLEL_FLOOR_SINGLE_CORE);
        // 4 shards on 2 or 3 workers take two rounds: ideal 2x.
        assert!((parallel_gate(2) - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(parallel_gate(3), parallel_gate(2));
        // Workers beyond the shard count add nothing: ideal 4x.
        assert!((parallel_gate(4) - 2.0).abs() < 1e-12);
        assert_eq!(parallel_gate(64), parallel_gate(4));
    }
}
