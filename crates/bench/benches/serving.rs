//! Serving comparison: the same request traffic served by fleets of
//! each evaluated architecture, across client modes and batch policies.
//!
//! Extends the paper's single-inference evaluation to the serving
//! setting: throughput, tail latency, utilization and energy per
//! inference of an N-accelerator fleet under identical traffic. The
//! structured-sparse datapaths win twice — each inference takes fewer
//! cycles (paper Fig. 11), and the freed lane time absorbs more
//! traffic, compounding into tail-latency headroom. On top of the
//! architecture sweep, this bench compares open- vs closed-loop
//! clients and the fixed vs SLO-aware batch policies on the
//! lenet5 + cifar10_convnet mix.

use s2ta_bench::{
    header, hetero_scenario, json_num, pipeline_scenario, write_bench_artifact, SEED,
};
use s2ta_core::ArchKind;
use s2ta_energy::TechParams;
use s2ta_models::{cifar10_convnet, lenet5};
use s2ta_serve::{
    BatchLimits, ClosedLoopSpec, FixedPolicy, Fleet, PlacementStrategy, ServeReport,
    SloAwarePolicy, WorkloadSpec,
};

/// One JSON record of a serving run: the metrics tracked across PRs.
fn json_report(label: &str, r: &ServeReport, tech: &TechParams) -> String {
    format!(
        "{{\"label\": \"{label}\", \"arch\": \"{}\", \"policy\": \"{}\", \
         \"served\": {}, \"dropped\": {}, \"batches\": {}, \"lanes\": {}, \
         \"throughput_ips\": {}, \"p50_ms\": {}, \"p95_ms\": {}, \"p99_ms\": {}, \
         \"uj_per_inference\": {}, \"mean_utilization\": {}}}",
        r.arch,
        r.policy,
        r.served_count(),
        r.dropped_count(),
        r.batches,
        r.workers.len(),
        json_num(r.goodput_ips(tech)),
        json_num(ServeReport::cycles_to_ms(tech, r.p50_cycles())),
        json_num(ServeReport::cycles_to_ms(tech, r.p95_cycles())),
        json_num(ServeReport::cycles_to_ms(tech, r.p99_cycles())),
        json_num(r.uj_per_inference(tech)),
        json_num(r.mean_utilization()),
    )
}

fn main() {
    header("Serving", "Fleet throughput/latency/energy under identical traffic");
    let tech = TechParams::tsmc16();
    let models = [lenet5(), cifar10_convnet()];
    let spec = WorkloadSpec {
        seed: SEED,
        requests: 320,
        mean_interarrival_cycles: 400.0,
        mix: vec![2.0, 1.0],
    };
    let requests = spec.generate();
    let workers = 4;
    let policy = FixedPolicy { max_batch: 8, max_wait_cycles: 50_000 };
    println!("workload: {spec}; fleet: {workers} workers, batch <= {}", policy.max_batch);
    println!();
    println!(
        "{:<12} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "arch", "inf/s", "p50 ms", "p99 ms", "uJ/inf", "util %"
    );

    let mut records: Vec<String> = Vec::new();
    let archs = [ArchKind::SaZvcg, ArchKind::SaSmtT2Q2, ArchKind::S2taW, ArchKind::S2taAw];
    let mut baseline: Option<ServeReport> = None;
    let mut last: Option<ServeReport> = None;
    for kind in archs {
        let report = Fleet::new(kind, workers).with_policy(policy).serve(&models, &requests);
        records.push(json_report(&format!("sweep/{kind}"), &report, &tech));
        println!(
            "{:<12} {:>12.0} {:>10.4} {:>10.4} {:>10.2} {:>10.1}",
            kind.to_string(),
            report.goodput_ips(&tech),
            ServeReport::cycles_to_ms(&tech, report.p50_cycles()),
            ServeReport::cycles_to_ms(&tech, report.p99_cycles()),
            report.uj_per_inference(&tech),
            report.mean_utilization() * 100.0
        );
        if kind == ArchKind::SaZvcg {
            baseline = Some(report.clone());
        }
        last = Some(report);
    }

    let (zvcg, aw) = (baseline.expect("ran"), last.expect("ran"));
    println!();
    println!(
        "S2TA-AW vs SA-ZVCG: {:.2}x serving throughput, {:.2}x lower p99, {:.2}x less energy/inf",
        aw.goodput_ips(&tech) / zvcg.goodput_ips(&tech),
        zvcg.p99_cycles() as f64 / aw.p99_cycles() as f64,
        zvcg.uj_per_inference(&tech) / aw.uj_per_inference(&tech)
    );

    // The batching scheduler's own contribution on the AW fleet.
    let unbatched = Fleet::new(ArchKind::S2taAw, workers)
        .with_policy(FixedPolicy::unbatched())
        .serve(&models, &requests);
    println!(
        "batching on S2TA-AW: {:.1}% accelerator-time saved, p99 {:.4} -> {:.4} ms",
        (1.0 - aw.total_events.cycles as f64 / unbatched.total_events.cycles as f64) * 100.0,
        ServeReport::cycles_to_ms(&tech, unbatched.p99_cycles()),
        ServeReport::cycles_to_ms(&tech, aw.p99_cycles()),
    );
    println!();

    // --- Open vs closed loop on the S2TA-AW fleet -------------------
    // The open-loop stream keeps arriving regardless of backlog; the
    // closed-loop population (one outstanding request per client)
    // throttles itself to service capacity, trading throughput for a
    // bounded queue.
    println!("open vs closed loop (S2TA-AW, {workers} workers):");
    println!(
        "{:<26} {:>10} {:>10} {:>10} {:>10}",
        "client mode", "inf/s", "p50 ms", "p99 ms", "util %"
    );
    let open = Fleet::new(ArchKind::S2taAw, workers).with_policy(policy).serve(&models, &requests);
    print_mode_row("open loop (320 req)", &open, &tech);
    records.push(json_report("mode/open-loop", &open, &tech));
    for clients in [4usize, 16] {
        let closed_spec = ClosedLoopSpec {
            seed: SEED,
            clients,
            requests: 320,
            mean_think_cycles: 2_000.0,
            mix: vec![2.0, 1.0],
        };
        let mut closed_policy = policy;
        let closed = Fleet::new(ArchKind::S2taAw, workers).serve_closed_loop(
            &models,
            &closed_spec,
            &mut closed_policy,
        );
        print_mode_row(&format!("closed loop ({clients} clients)"), &closed, &tech);
        records.push(json_report(&format!("mode/closed-loop-{clients}"), &closed, &tech));
    }
    println!();

    // --- Fixed vs SLO-aware policy ----------------------------------
    // Moderate load where the default fixed policy's deep batching
    // window dominates the tail: the SLO-aware policy starts tight and
    // only grows batching while the observed p99 keeps slack against
    // the target.
    let slo_spec = WorkloadSpec {
        seed: SEED,
        requests: 320,
        mean_interarrival_cycles: 6_000.0,
        mix: vec![2.0, 1.0],
    };
    let slo_requests = slo_spec.generate();
    let slo_fleet = Fleet::new(ArchKind::S2taAw, 2);
    let fixed_default =
        slo_fleet.clone().with_policy(FixedPolicy::default()).serve(&models, &slo_requests);
    let target_p99 = 60_000u64;
    let mut slo =
        SloAwarePolicy::new(target_p99, BatchLimits { max_batch: 8, max_wait_cycles: 100_000 });
    let adaptive = slo_fleet.serve_adaptive(&models, &slo_requests, &mut slo);
    println!(
        "fixed vs SLO-aware (S2TA-AW, 2 workers, mean gap {:.0}, target p99 {:.3} ms):",
        slo_spec.mean_interarrival_cycles,
        ServeReport::cycles_to_ms(&tech, target_p99),
    );
    println!("{:<26} {:>10} {:>10} {:>10} {:>10}", "policy", "inf/s", "p50 ms", "p99 ms", "batch");
    for (name, r) in [("fixed (default)", &fixed_default), ("slo-aware", &adaptive)] {
        println!(
            "{:<26} {:>10.0} {:>10.4} {:>10.4} {:>10.2}",
            name,
            r.goodput_ips(&tech),
            ServeReport::cycles_to_ms(&tech, r.p50_cycles()),
            ServeReport::cycles_to_ms(&tech, r.p99_cycles()),
            r.mean_batch_size(),
        );
    }
    println!(
        "SLO-aware: {:.2}x lower p99 at {:.2}x throughput",
        fixed_default.p99_cycles() as f64 / adaptive.p99_cycles() as f64,
        adaptive.goodput_ips(&tech) / fixed_default.goodput_ips(&tech),
    );
    assert!(
        adaptive.p99_cycles() < fixed_default.p99_cycles()
            && adaptive.goodput_ips(&tech) >= fixed_default.goodput_ips(&tech),
        "SLO-aware policy must beat the default fixed policy's p99 at >= throughput"
    );
    records.push(json_report("policy/fixed-default", &fixed_default, &tech));
    records.push(json_report("policy/slo-aware", &adaptive, &tech));
    println!();

    // --- Heterogeneous fleet: earliest-free vs affinity placement ----
    // A mixed 2xS2TA-AW + 2xSA-ZVCG fleet under one stream: arch-blind
    // earliest-free dispatch wastes tail latency (and energy) on the
    // slow dense lanes; the affinity cost model learns per-(arch,
    // model) service estimates from its own completions and routes
    // batches to the lane that finishes them soonest.
    let hetero_spec = hetero_scenario::fleet_spec();
    let hetero_models = hetero_scenario::models();
    let hetero_requests = hetero_scenario::workload().generate();
    let mk =
        || Fleet::from_spec(hetero_scenario::fleet_spec()).with_policy(hetero_scenario::policy());
    let earliest_free = mk().serve(&hetero_models, &hetero_requests);
    let affinity =
        mk().with_placement(PlacementStrategy::Affinity).serve(&hetero_models, &hetero_requests);
    println!("heterogeneous fleet ({}): earliest-free vs affinity:", hetero_spec.label());
    println!(
        "{:<26} {:>10} {:>10} {:>10} {:>10}",
        "placement", "inf/s", "p50 ms", "p99 ms", "uJ/inf"
    );
    for (name, r) in [("earliest-free", &earliest_free), ("affinity", &affinity)] {
        println!(
            "{:<26} {:>10.0} {:>10.4} {:>10.4} {:>10.2}",
            name,
            r.goodput_ips(&tech),
            ServeReport::cycles_to_ms(&tech, r.p50_cycles()),
            ServeReport::cycles_to_ms(&tech, r.p99_cycles()),
            r.uj_per_inference(&tech),
        );
    }
    println!(
        "affinity: {:.2}x lower p99, {:.2}x less energy/inf on the mixed fleet",
        earliest_free.p99_cycles() as f64 / affinity.p99_cycles() as f64,
        earliest_free.uj_per_inference(&tech) / affinity.uj_per_inference(&tech),
    );
    assert!(
        affinity.p99_cycles() < earliest_free.p99_cycles()
            && affinity.uj_per_inference(&tech) < earliest_free.uj_per_inference(&tech),
        "affinity placement must beat earliest-free on p99 and energy on the mixed fleet"
    );
    records.push(json_report("hetero/earliest-free", &earliest_free, &tech));
    records.push(json_report("hetero/affinity", &affinity, &tech));
    println!();

    // --- Deep-model layer pipeline: monolithic vs pipelined ----------
    // The 14-layer Deep-ConvNet on the mixed fleet: monolithic
    // placement serializes a whole inference per lane, while the
    // SCNN-style layer pipeline partitions the model into stages sized
    // to their lanes' architectures and overlaps stage s of batch b
    // with stage s+1 of batch b-1.
    let pipe_models = pipeline_scenario::models();
    let pipe_requests = pipeline_scenario::workload().generate();
    let monolithic = pipeline_scenario::monolithic_fleet().serve(&pipe_models, &pipe_requests);
    let pipelined = pipeline_scenario::pipelined_fleet().serve(&pipe_models, &pipe_requests);
    println!(
        "deep-model pipeline ({} on {}): monolithic vs {} stages:",
        pipe_models[0].name,
        pipeline_scenario::fleet_spec().label(),
        pipeline_scenario::STAGES,
    );
    println!(
        "{:<26} {:>10} {:>10} {:>10} {:>10}",
        "placement", "inf/s", "p50 ms", "p99 ms", "uJ/inf"
    );
    for (name, r) in [("monolithic (EF)", &monolithic), ("pipelined", &pipelined)] {
        println!(
            "{:<26} {:>10.0} {:>10.4} {:>10.4} {:>10.2}",
            name,
            r.goodput_ips(&tech),
            ServeReport::cycles_to_ms(&tech, r.p50_cycles()),
            ServeReport::cycles_to_ms(&tech, r.p99_cycles()),
            r.uj_per_inference(&tech),
        );
    }
    print!("{}", pipelined.pipeline_breakdown());
    let p99_win = monolithic.p99_cycles() as f64 / pipelined.p99_cycles() as f64;
    println!(
        "pipelined: {:.2}x lower p99 at {:.2}x throughput on the deep-model mixed fleet",
        p99_win,
        pipelined.goodput_ips(&tech) / monolithic.goodput_ips(&tech),
    );
    assert!(
        p99_win >= 1.1 && pipelined.makespan_cycles <= monolithic.makespan_cycles,
        "pipelined placement must beat monolithic p99 by >= 1.1x at no worse throughput"
    );
    records.push(json_report("pipeline/monolithic-ef", &monolithic, &tech));
    records.push(json_report("pipeline/pipelined", &pipelined, &tech));

    // --- Machine-readable artifact ----------------------------------
    let json = format!(
        "{{\n  \"bench\": \"serving\",\n  \"seed\": {SEED},\n  \"runs\": [\n    {}\n  ]\n}}\n",
        records.join(",\n    ")
    );
    let path = write_bench_artifact("BENCH_serving.json", &json);
    println!();
    println!("wrote {} ({} runs)", path.display(), records.len());
}

fn print_mode_row(name: &str, r: &ServeReport, tech: &TechParams) {
    println!(
        "{:<26} {:>10.0} {:>10.4} {:>10.4} {:>10.1}",
        name,
        r.goodput_ips(tech),
        ServeReport::cycles_to_ms(tech, r.p50_cycles()),
        ServeReport::cycles_to_ms(tech, r.p99_cycles()),
        r.mean_utilization() * 100.0,
    );
}
