//! Cluster-scale sharded serving demo: a 4-shard cluster of narrow
//! heterogeneous fleets behind the routing tier, serving a
//! seconds-scale prefix of the canonical diurnal stream under each
//! routing policy — random spray, join-shortest-queue, and
//! power-of-two-choices — plus an autoscaled run that tracks the day
//! curve with lane scaling.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example serving_cluster
//! ```
//!
//! The run is fully deterministic, and the asserts are the CI smoke
//! gate for the cluster tier: the router must conserve the stream
//! (every request on exactly one shard, zero drops on unbounded
//! queues), global percentiles must come from merged per-request
//! samples, `serve` must reproduce the serial barrier driver
//! byte-identically on every policy, and the diurnal day
//! must exercise the autoscaler in both
//! directions. The canonical ~1M-request run with the p99 routing
//! gate lives in `cargo bench -p s2ta-bench --bench cluster`; this
//! demo reuses the exact same scenario module at a prefix scale, so
//! the informational policy comparison printed here is not gated.

use std::{env, fs};

use s2ta::energy::TechParams;
use s2ta::serve::{AutoscalePolicy, ClusterReport, RoutingPolicy, TraceConfig};
use s2ta_bench::{chaos_scenario, cluster_scenario as scenario, manifest_dir};

fn main() {
    let tech = TechParams::tsmc16();
    let models = scenario::models();
    // The canonical cluster scenario, truncated from ~1M requests to a
    // seconds-scale prefix (~12 simulated day cycles).
    let mut spec = scenario::workload();
    spec.requests = 12_000;
    let requests = spec.generate();

    println!("== s2ta-serve cluster demo ==");
    println!("workload: {spec}");
    println!(
        "cluster: {} shards x [{}], shared plan/profile caches",
        scenario::SHARDS,
        scenario::shard_spec().label(),
    );
    println!();

    let mut p99s: Vec<(&'static str, u64)> = Vec::new();
    for routing in
        [RoutingPolicy::Random, RoutingPolicy::JoinShortestQueue, RoutingPolicy::PowerOfTwo]
    {
        let cluster = scenario::cluster(routing);
        let report = cluster.serve(&models, &requests);
        check_conservation(&report, requests.len());
        assert_eq!(report.dropped_count(), 0, "unbounded shard queues must not drop");
        // `serve` (the pre-routed driver under random routing) must be
        // byte-identical to the serial barrier driver on every policy.
        assert_eq!(
            report,
            cluster.serve_serial(&models, &requests),
            "{}: serve must reproduce the serial driver exactly",
            routing.label()
        );
        print!("{}", report.summary(&tech));
        println!();
        p99s.push((routing.label(), report.p99_cycles()));
    }

    let (_, random_p99) = p99s[0];
    for (label, p99) in &p99s[1..] {
        println!(
            "{label} vs random: {:.2}x global p99 (informational at this scale; \
             the bench gates the full run)",
            random_p99 as f64 / *p99 as f64
        );
    }
    println!();

    // The same day curve with the autoscaler on: lanes shed through
    // the valley, re-grow into the peak, and conservation still holds.
    // The backlog thresholds are tighter than the canonical bench
    // policy — the prefix carries ~1/80th of the full stream's load,
    // so the peaks that rebuild lanes are proportionally shallower.
    let autoscale = AutoscalePolicy {
        eval_interval_cycles: 50_000,
        scale_up_depth: 6,
        scale_down_depth: 1,
        min_lanes: 1,
    };
    let scaled = scenario::cluster(RoutingPolicy::PowerOfTwo)
        .with_autoscale(autoscale)
        .serve(&models, &requests);
    check_conservation(&scaled, requests.len());
    let ups = scaled.scale_events.iter().filter(|e| e.to_lanes > e.from_lanes).count();
    let downs = scaled.scale_events.iter().filter(|e| e.to_lanes < e.from_lanes).count();
    println!(
        "p2c + autoscale: {} scale events ({ups} up / {downs} down), p99 {} cycles",
        scaled.scale_events.len(),
        scaled.p99_cycles(),
    );
    assert!(ups > 0, "the diurnal peak must trigger scale-ups");
    assert!(downs > 0, "the diurnal valley must trigger scale-downs");
    println!("autoscaler tracks the diurnal curve in both directions: OK");
    println!();

    // The same autoscaled run with the flight recorder attached. The
    // recorder must be observability only — the report is byte-equal
    // to the untraced run — and the merged per-shard trace must come
    // out identical from `serve` and `serve_serial`. The exported
    // artifacts feed the CI trace-validation step.
    let trace_cfg = TraceConfig { event_capacity: 1 << 17, metrics_interval_cycles: 10_000 };
    let traced_cluster = scenario::cluster(RoutingPolicy::PowerOfTwo)
        .with_autoscale(autoscale)
        .with_trace(trace_cfg);
    let traced = traced_cluster.serve(&models, &requests);
    check_conservation(&traced, requests.len());
    assert_eq!(scaled, traced, "attaching a recorder must not change the report");
    let trace = traced.merged_trace().expect("recorder attached");
    let serial =
        traced_cluster.serve_serial(&models, &requests).merged_trace().expect("recorder attached");
    assert_eq!(trace, serial, "serve and serve_serial must trace identically");
    assert_eq!(trace.dropped_events(), 0, "ring capacity must hold the whole prefix run");
    assert_eq!(
        trace.completed_requests(),
        requests.len() as u64,
        "completed-batch events must conserve the stream"
    );
    let misses: u64 = traced.per_model().iter().map(|m| m.deadline_misses).sum();
    println!(
        "flight recorder: {} events, {} metrics samples, {} deadline-missed requests",
        trace.events().len(),
        trace.metrics().len(),
        misses,
    );
    let root = manifest_dir(env::var_os("CARGO_MANIFEST_DIR"), env!("CARGO_MANIFEST_DIR"));
    fs::write(root.join("TRACE_cluster.json"), trace.chrome_trace_json())
        .expect("write TRACE_cluster.json");
    fs::write(root.join("METRICS_cluster.json"), trace.metrics_json())
        .expect("write METRICS_cluster.json");
    println!(
        "wrote TRACE_cluster.json (chrome://tracing / ui.perfetto.dev) + METRICS_cluster.json"
    );
    println!();

    // The same prefix under the chaos scenario: bounded admission,
    // random routing, and the seeded fault schedule scaled to this
    // run's horizon, with the full protection stack on (retries,
    // router failover, degraded-mode shedding). Conservation now
    // counts three ways, the fault machinery must actually fire, the
    // fault events land in the exported trace for CI to validate, and
    // the serial driver must still trace byte-identically.
    let horizon = scaled.makespan_cycles();
    let chaos_cluster = chaos_scenario::cluster()
        .with_faults(chaos_scenario::protected(horizon))
        .with_trace(trace_cfg);
    let chaos = chaos_cluster.serve(&models, &requests);
    assert_eq!(chaos.total_requests(), requests.len(), "chaos run must conserve the stream");
    assert_eq!(
        chaos.served_count() + chaos.dropped_count() + chaos.failed_count(),
        requests.len(),
        "served + dropped + failed must cover the stream"
    );
    let stats = chaos.fault_stats();
    assert!(stats.lane_crashes > 0, "the schedule must inject crashes at this scale");
    assert!(stats.failovers > 0, "outage arrivals must fail over to healthy shards");
    let chaos_trace = chaos.merged_trace().expect("recorder attached");
    let chaos_serial =
        chaos_cluster.serve_serial(&models, &requests).merged_trace().expect("recorder attached");
    assert_eq!(chaos_trace, chaos_serial, "fault-mode drivers must trace identically");
    println!(
        "chaos (protected): {} crashes, {} retries, {} failovers, {} failed, \
         availability {:.4}",
        stats.lane_crashes,
        stats.retries,
        stats.failovers,
        stats.failed,
        chaos.availability(),
    );
    fs::write(root.join("TRACE_chaos.json"), chaos_trace.chrome_trace_json())
        .expect("write TRACE_chaos.json");
    println!("wrote TRACE_chaos.json (fault events included)");
}

/// Every request lands on exactly one shard, the router's tallies
/// agree with the shard reports, and the global percentiles are
/// latencies some shard actually observed.
fn check_conservation(report: &ClusterReport, expected: usize) {
    assert_eq!(report.total_requests(), expected, "router must conserve the stream");
    assert_eq!(report.routed.iter().sum::<usize>(), expected);
    let mut ids: Vec<u64> =
        report.shards.iter().flat_map(|s| s.outcomes.iter().map(|o| o.id())).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..expected as u64).collect::<Vec<u64>>(), "every id exactly once");
    let mut all: Vec<u64> = report
        .shards
        .iter()
        .flat_map(|s| s.served_outcomes().map(|r| r.latency_cycles()))
        .collect();
    all.sort_unstable();
    for pct in [50.0, 95.0, 99.0] {
        let sample = report.latency_percentile_cycles(pct);
        assert!(all.contains(&sample), "p{pct} must be an observed merged sample");
    }
}
