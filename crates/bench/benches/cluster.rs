//! Cluster-scale routing: global tail latency of a 4-shard
//! heterogeneous cluster under a diurnal ~1M-request stream, comparing
//! the routing tier's policies — random spray, join-shortest-queue,
//! and power-of-two-choices — plus an (ungated) autoscaled run that
//! exercises lane scaling against the same day curve.
//!
//! Queues are unbounded, so every policy serves the identical request
//! set (zero drops, equal goodput) and the global-p99 gap is
//! attributable to routing alone. Two gates, both recorded in
//! `BENCH_cluster.json`: **p2c >= 1.15x random on global p99** (merged
//! per-request samples, never averaged per-shard percentiles), and the
//! **shard-parallel driver (random routing) beating the serial barrier
//! driver on host wall-time by `parallel_gate(workers)`** at 4 shards —
//! 1.33x on 2-3 executor workers, 2x on 4 or more — after a
//! byte-identity check of the two full reports. With a single executor
//! worker (1-core host) real speedup is physically unavailable, so the
//! gate drops to a no-regression floor. Every run record carries the
//! executor worker count and the host's CPU count next to its host
//! time.
//!
//! Set `S2TA_BENCH_QUICK=1` for the CI smoke mode: a 40k-request
//! prefix of the same diurnal profile, conservation, ordering, and
//! parallel-vs-serial byte-identity checks only, no artifact rewrite
//! (scaled-down gaps are not the committed gates; CI's python step
//! re-checks the committed artifact).

use s2ta_bench::{
    chaos_scenario, cluster_scenario as scenario, header, json_num, write_bench_artifact, SEED,
};
use s2ta_core::pool::Executor;
use s2ta_energy::TechParams;
use s2ta_models::ModelSpec;
use s2ta_serve::{ClusterReport, FaultConfig, Request, RoutingPolicy};
use std::time::Instant;

/// Everything the artifact keeps from one cluster run — the full
/// [`ClusterReport`] (a million outcome rows) is dropped after this is
/// extracted.
struct RunSummary {
    label: String,
    served: usize,
    dropped: usize,
    p50: u64,
    p95: u64,
    p99: u64,
    makespan: u64,
    goodput_ips: f64,
    energy_uj: f64,
    scale_events: usize,
    host_seconds: f64,
}

fn summarize(label: &str, report: &ClusterReport, tech: &TechParams, secs: f64) -> RunSummary {
    RunSummary {
        label: label.to_string(),
        served: report.served_count(),
        dropped: report.dropped_count(),
        p50: report.p50_cycles(),
        p95: report.p95_cycles(),
        p99: report.p99_cycles(),
        makespan: report.makespan_cycles(),
        goodput_ips: report.goodput_ips(tech),
        energy_uj: report.energy(tech).total_pj() * 1e-6,
        scale_events: report.scale_events.len(),
        host_seconds: secs,
    }
}

fn run(
    label: &str,
    routing: RoutingPolicy,
    autoscaled: bool,
    models: &[ModelSpec],
    requests: &[Request],
    tech: &TechParams,
) -> (RunSummary, ClusterReport) {
    let mut cluster = scenario::cluster(routing);
    if autoscaled {
        cluster = cluster.with_autoscale(scenario::autoscale());
    }
    let t = Instant::now();
    let report = cluster.serve(models, requests);
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(report.total_requests(), requests.len(), "{label}: router must conserve the stream");
    let s = summarize(label, &report, tech, secs);
    println!(
        "{label:<14} served {:>9} dropped {:>3} | p50 {:>7} p95 {:>7} p99 {:>7} cyc | \
         goodput {:>9.0} inf/s | {} scale events | {secs:.1} host-s",
        s.served, s.dropped, s.p50, s.p95, s.p99, s.goodput_ips, s.scale_events,
    );
    (s, report)
}

fn record(s: &RunSummary, workers: usize, nproc: usize) -> String {
    format!(
        "{{\"routing\": \"{}\", \"served\": {}, \"dropped\": {}, \"p50_cycles\": {}, \
         \"p95_cycles\": {}, \"p99_cycles\": {}, \"makespan_cycles\": {}, \
         \"goodput_ips\": {}, \"energy_uj\": {}, \"scale_events\": {}, \"host_seconds\": {}, \
         \"workers\": {workers}, \"nproc\": {nproc}}}",
        s.label,
        s.served,
        s.dropped,
        s.p50,
        s.p95,
        s.p99,
        s.makespan,
        json_num(s.goodput_ips),
        json_num(s.energy_uj),
        s.scale_events,
        json_num(s.host_seconds),
    )
}

/// Everything the artifact keeps from one chaos run: the coarse
/// outcome split, the strict-class serving mass the goodput gate is
/// computed over, the fault counters proving the machinery under
/// test actually fired, and the host cost: wall time and the weight
/// plans the cluster-wide cache compiled (misses + dense bypasses).
struct ChaosSummary {
    label: String,
    served: usize,
    dropped: usize,
    failed: usize,
    p99: u64,
    makespan: u64,
    strict_served: usize,
    availability: f64,
    crashes: u64,
    retries: u64,
    failovers: u64,
    shed: u64,
    host_seconds: f64,
    plan_compiles: u64,
}

/// Strict-class goodput of one chaos run relative to the bounded
/// fault-free baseline: served strict requests per simulated cycle,
/// as a ratio (the clock cancels).
fn strict_goodput_ratio(run: &ChaosSummary, base: &ChaosSummary) -> f64 {
    (run.strict_served as f64 / run.makespan as f64)
        / (base.strict_served as f64 / base.makespan as f64)
}

fn run_chaos(
    label: &str,
    config: Option<FaultConfig>,
    models: &[ModelSpec],
    requests: &[Request],
) -> (ChaosSummary, ClusterReport) {
    let mut cluster = chaos_scenario::cluster();
    if let Some(config) = config {
        cluster = cluster.with_faults(config);
    }
    let t = Instant::now();
    let report = cluster.serve(models, requests);
    let host_seconds = t.elapsed().as_secs_f64();
    let plans = cluster.shards()[0].accelerator().plans().stats();
    assert_eq!(report.total_requests(), requests.len(), "{label}: outcomes must conserve");
    assert_eq!(
        report.served_count() + report.dropped_count() + report.failed_count(),
        requests.len(),
        "{label}: served + dropped + failed must cover the stream"
    );
    let strict: Vec<&str> = chaos_scenario::STRICT_MODELS.iter().map(|&i| models[i].name).collect();
    let strict_served = report
        .shards
        .iter()
        .map(|s| s.served_outcomes().filter(|o| strict.contains(&o.model)).count())
        .sum();
    let stats = report.fault_stats();
    let s = ChaosSummary {
        label: label.to_string(),
        served: report.served_count(),
        dropped: report.dropped_count(),
        failed: report.failed_count(),
        p99: report.p99_cycles(),
        makespan: report.makespan_cycles(),
        strict_served,
        availability: report.availability(),
        crashes: stats.lane_crashes,
        retries: stats.retries,
        failovers: stats.failovers,
        shed: stats.shed,
        host_seconds,
        plan_compiles: plans.misses + plans.bypasses,
    };
    println!(
        "{label:<14} served {:>9} dropped {:>6} failed {:>6} | p99 {:>8} cyc | strict {:>9} | \
         {:>3} crashes {:>5} retries {:>6} failovers {:>6} shed | avail {:.4} | \
         {} plan compiles | {host_seconds:.1} host-s",
        s.served,
        s.dropped,
        s.failed,
        s.p99,
        s.strict_served,
        s.crashes,
        s.retries,
        s.failovers,
        s.shed,
        s.availability,
        s.plan_compiles,
    );
    (s, report)
}

fn record_chaos(s: &ChaosSummary, base: &ChaosSummary, workers: usize, nproc: usize) -> String {
    format!(
        "{{\"run\": \"{}\", \"served\": {}, \"dropped\": {}, \"failed\": {}, \
         \"p99_cycles\": {}, \"makespan_cycles\": {}, \"strict_served\": {}, \
         \"strict_goodput_ratio\": {}, \"p99_ratio\": {}, \"availability\": {}, \
         \"crashes\": {}, \"retries\": {}, \"failovers\": {}, \"shed\": {}, \
         \"host_seconds\": {}, \"workers\": {workers}, \"nproc\": {nproc}, \"plan_compiles\": {}}}",
        s.label,
        s.served,
        s.dropped,
        s.failed,
        s.p99,
        s.makespan,
        s.strict_served,
        json_num(strict_goodput_ratio(s, base)),
        json_num(s.p99 as f64 / base.p99 as f64),
        json_num(s.availability),
        s.crashes,
        s.retries,
        s.failovers,
        s.shed,
        json_num(s.host_seconds),
        s.plan_compiles,
    )
}

fn main() {
    header("Cluster", "Sharded serving: routing-policy tail latency at ~1M diurnal requests");
    let quick = std::env::var("S2TA_BENCH_QUICK").is_ok();
    let tech = TechParams::tsmc16();
    let models = scenario::models();
    let mut spec = scenario::workload();
    if quick {
        spec.requests = 40_000;
    }
    let requests = spec.generate();
    println!(
        "{} shards ({} lanes each), {} requests over a {}-cycle day, act-seed pool {}\n",
        scenario::SHARDS,
        scenario::shard_spec().lanes(),
        requests.len(),
        spec.period_cycles(),
        scenario::ACT_SEED_POOL,
    );

    let workers = Executor::global().workers();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (random, random_report) =
        run("random", RoutingPolicy::Random, false, &models, &requests, &tech);

    // Shard-parallel vs serial reference: under random routing the
    // default driver pre-routes the stream and runs the shards on the
    // executor's scoped threads. It must reproduce the serial
    // reference — the arrival-barrier driver on the caller's thread —
    // **byte-identically** (full report equality) while beating it on
    // host wall-time at 4 shards.
    let t = Instant::now();
    let serial_report = scenario::cluster(RoutingPolicy::Random).serve_serial(&models, &requests);
    let serial_secs = t.elapsed().as_secs_f64();
    assert_eq!(
        serial_report, random_report,
        "shard-parallel driver must reproduce the serial driver byte-identically"
    );
    drop(serial_report);
    drop(random_report);
    let parallel_gate = scenario::parallel_gate(workers);
    let parallel_speedup = serial_secs / random.host_seconds;
    println!(
        "{:<14} serial reference (barrier driver) {serial_secs:.1} host-s -> \
         parallel {:.1} host-s ({parallel_speedup:.2}x, byte-identical, {workers} executor \
         worker(s) on {nproc} CPU(s), gate {parallel_gate:.2}x)",
        "parallel", random.host_seconds,
    );

    let (jsq, _) = run("jsq", RoutingPolicy::JoinShortestQueue, false, &models, &requests, &tech);
    let (p2c, _) = run("p2c", RoutingPolicy::PowerOfTwo, false, &models, &requests, &tech);
    let (scaled, _) =
        run("p2c+autoscale", RoutingPolicy::PowerOfTwo, true, &models, &requests, &tech);

    // Equal goodput by construction: unbounded queues, zero drops,
    // identical served sets — so the p99 gap is routing, not admission.
    for s in [&random, &jsq, &p2c] {
        assert_eq!(s.dropped, 0, "{}: canonical scenario must not drop", s.label);
        assert_eq!(s.served, requests.len(), "{}: must serve the whole stream", s.label);
    }
    let goodput_gap = (p2c.goodput_ips - random.goodput_ips).abs() / random.goodput_ips;
    assert!(
        goodput_gap < 0.02,
        "p2c and random goodput diverged by {:.2}% — the p99 gate assumes equal goodput",
        goodput_gap * 100.0
    );
    assert!(scaled.scale_events > 0, "the diurnal day must exercise the autoscaler");

    let speedup = random.p99 as f64 / p2c.p99 as f64;
    let jsq_speedup = random.p99 as f64 / jsq.p99 as f64;
    println!();
    println!("p2c global p99 is {speedup:.2}x better than random (jsq: {jsq_speedup:.2}x)");

    // --- Chaos cell: the same day under bounded admission and a
    // seeded fault schedule scaled to the measured fault-free
    // makespan. Protected (retries + failover + degraded shedding)
    // must hold strict goodput and the global tail near the bounded
    // fault-free baseline; unprotected must measurably lose both.
    println!();
    let horizon = random.makespan;
    let (chaos_base, _) = run_chaos("chaos-baseline", None, &models, &requests);
    let (protected, protected_report) =
        run_chaos("protected", Some(chaos_scenario::protected(horizon)), &models, &requests);
    let (unprotected, _) =
        run_chaos("unprotected", Some(chaos_scenario::unprotected(horizon)), &models, &requests);

    // The shard-parallel driver must reproduce the serial barrier
    // driver byte-identically under faults too — the fault schedule, retry
    // timing and failover decisions are all simulated-clock state.
    let serial_protected = chaos_scenario::cluster()
        .with_faults(chaos_scenario::protected(horizon))
        .serve_serial(&models, &requests);
    assert_eq!(
        serial_protected, protected_report,
        "fault-mode shard-parallel driver must reproduce the serial driver byte-identically"
    );
    drop(serial_protected);
    drop(protected_report);

    for s in [&protected, &unprotected] {
        assert!(s.crashes > 0, "{}: the schedule must inject crashes", s.label);
    }
    assert!(protected.retries > 0, "protected: crash-cancelled requests must retry");
    assert!(protected.failovers > 0, "protected: outage arrivals must fail over");
    assert_eq!(unprotected.retries, 0, "unprotected: retries are disabled");
    assert_eq!(unprotected.failovers, 0, "unprotected: failover is disabled");

    let protected_goodput = strict_goodput_ratio(&protected, &chaos_base);
    let protected_p99 = protected.p99 as f64 / chaos_base.p99 as f64;
    let unprotected_goodput = strict_goodput_ratio(&unprotected, &chaos_base);
    let unprotected_p99 = unprotected.p99 as f64 / chaos_base.p99 as f64;
    println!(
        "protected:   strict goodput {protected_goodput:.4}x, p99 {protected_p99:.2}x \
         (gates: >= {:.2}x, <= {:.2}x)",
        chaos_scenario::GATE_GOODPUT_RATIO,
        chaos_scenario::GATE_P99_RATIO,
    );
    println!(
        "unprotected: strict goodput {unprotected_goodput:.4}x, p99 {unprotected_p99:.2}x \
         (must violate both)"
    );

    if quick {
        println!("quick mode: artifact left untouched");
        return;
    }
    assert!(
        protected_goodput >= chaos_scenario::GATE_GOODPUT_RATIO,
        "protected run must hold strict-class goodput >= {:.2}x the fault-free baseline, \
         got {protected_goodput:.4}x",
        chaos_scenario::GATE_GOODPUT_RATIO,
    );
    assert!(
        protected_p99 <= chaos_scenario::GATE_P99_RATIO,
        "protected run must hold global p99 <= {:.2}x the fault-free baseline, \
         got {protected_p99:.2}x",
        chaos_scenario::GATE_P99_RATIO,
    );
    assert!(
        unprotected_goodput < chaos_scenario::GATE_GOODPUT_RATIO,
        "unprotected run must measurably lose strict-class goodput (schedule too gentle): \
         got {unprotected_goodput:.4}x",
    );
    assert!(
        unprotected_p99 > chaos_scenario::GATE_P99_RATIO,
        "unprotected run must measurably lose the global tail (schedule too gentle): \
         got {unprotected_p99:.2}x",
    );
    assert!(
        speedup >= scenario::GATE_P99_SPEEDUP,
        "p2c must beat random routing on global p99 by >= {:.2}x, got {speedup:.2}x",
        scenario::GATE_P99_SPEEDUP,
    );
    assert!(
        parallel_speedup >= parallel_gate,
        "the shard-parallel driver must make >= {parallel_gate:.2}x host wall-time \
         vs the serial driver at {} shards with {workers} executor worker(s), \
         got {parallel_speedup:.2}x",
        scenario::SHARDS,
    );

    let records: Vec<String> =
        [&random, &jsq, &p2c, &scaled].iter().map(|s| record(s, workers, nproc)).collect();
    let chaos_records: Vec<String> = [&chaos_base, &protected, &unprotected]
        .iter()
        .map(|s| record_chaos(s, &chaos_base, workers, nproc))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"cluster\",\n  \"seed\": {SEED},\n  \"shards\": {},\n  \
         \"requests\": {},\n  \"runs\": [\n    {}\n  ],\n  \"parallel\": {{\"serial_host_seconds\": {}, \
         \"parallel_host_seconds\": {}, \"speedup\": {}, \"workers\": {workers}, \"nproc\": {nproc}, \
         \"threshold\": {}}},\n  \
         \"gate\": {{\"p99_speedup_p2c_vs_random\": {}, \"threshold\": {}}},\n  \
         \"chaos\": {{\n    \"queue_capacity\": {},\n    \"runs\": [\n      {}\n    ],\n    \
         \"gate\": {{\"goodput_ratio_min\": {}, \"p99_ratio_max\": {}}}\n  }}\n}}\n",
        scenario::SHARDS,
        requests.len(),
        records.join(",\n    "),
        json_num(serial_secs),
        json_num(random.host_seconds),
        json_num(parallel_speedup),
        json_num(parallel_gate),
        json_num(speedup),
        json_num(scenario::GATE_P99_SPEEDUP),
        chaos_scenario::QUEUE_CAPACITY,
        chaos_records.join(",\n      "),
        json_num(chaos_scenario::GATE_GOODPUT_RATIO),
        json_num(chaos_scenario::GATE_P99_RATIO),
    );
    let path = write_bench_artifact("BENCH_cluster.json", &json);
    println!("wrote {} ({} runs)", path.display(), records.len());
}
