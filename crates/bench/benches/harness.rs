//! Harness throughput: **simulated inferences per host-second** of the
//! serving loop, comparing the profile-compiled execution path
//! (`ExecPath::Profiled`, the default) against the
//! operand-materializing reference path (`ExecPath::Reference`) on the
//! two canonical serving scenarios (hetero + pipeline).
//!
//! This measures *host* speed, not simulated speed: both paths produce
//! byte-identical `ServeReport`s (asserted here and golden-tested in
//! `tests/profile_path.rs`); the profile-compiled path just reaches
//! them without materializing or DAP-pruning any operand matrix,
//! without allocating, regenerating dense-lane weights, or spawning
//! threads per burst. Both scenarios' streams name each activation
//! input once, and a serve keeps activation counters only for inputs
//! its stream names at least twice, so the profiled path still
//! generates and tallies every request's activations, in place, on
//! every repetition. The gate is **>= 10x** on both scenarios (recorded
//! in `BENCH_harness.json`); the full run's hetero cell measures about
//! 5x, so the full bench fails it (quick mode returns before it).
//!
//! Set `S2TA_BENCH_QUICK=1` for the CI smoke mode: one timed repetition
//! per cell and no artifact rewrite (the committed artifact keeps the
//! full run's numbers). Quick mode gates only the reports' byte
//! identity — a one-shot wall-clock ratio on a shared runner is not a
//! reliable CI signal; the >= 10x speedup gate applies to full runs and
//! to the committed artifact (re-checked by CI's python step). Every run
//! record carries the executor worker count and the host's CPU count
//! next to its host time.

use s2ta_bench::{
    header, hetero_scenario, json_num, pipeline_scenario, write_bench_artifact, SEED,
};
use s2ta_core::pool::Executor;
use s2ta_core::ExecPath;
use s2ta_models::ModelSpec;
use s2ta_serve::{Fleet, PlacementStrategy, Request, ServeReport};
use std::time::Instant;

/// One measured cell: a fleet serving the scenario's traffic `reps`
/// times after one untimed warm-up pass. The warm-up compiles the
/// weight plans, so no timed repetition compiles one; the scenarios'
/// single-use activation inputs are profiled again by every
/// repetition (a serve keeps no profile of an input its stream names
/// once), so the number includes that activation compile.
fn measure(
    fleet: &Fleet,
    models: &[ModelSpec],
    requests: &[Request],
    reps: usize,
) -> (f64, f64, ServeReport) {
    let warm = fleet.serve(models, requests);
    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(fleet.serve(models, requests));
    }
    let secs = t.elapsed().as_secs_f64();
    let ips = (warm.served_count() * reps) as f64 / secs;
    (ips, secs, warm)
}

struct ScenarioResult {
    name: &'static str,
    speedup: f64,
    records: Vec<String>,
}

fn run_scenario(
    name: &'static str,
    mk: impl Fn(ExecPath) -> Fleet,
    models: &[ModelSpec],
    requests: &[Request],
    reps: usize,
) -> ScenarioResult {
    let workers = Executor::global().workers();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut records = Vec::new();
    let mut ips_of = [0.0f64; 2];
    let mut reports: Vec<ServeReport> = Vec::new();
    for (i, (path, label)) in
        [(ExecPath::Reference, "reference"), (ExecPath::Profiled, "profiled")].iter().enumerate()
    {
        let fleet = mk(*path);
        let (ips, secs, report) = measure(&fleet, models, requests, reps);
        ips_of[i] = ips;
        println!(
            "{name:<10} {label:<10} {ips:>14.0} simulated inf/host-s  ({reps} reps, {secs:.3} s)",
        );
        records.push(format!(
            "{{\"scenario\": \"{name}\", \"path\": \"{label}\", \"served\": {}, \
             \"reps\": {reps}, \"host_seconds\": {}, \"inferences_per_host_second\": {}, \
             \"workers\": {workers}, \"nproc\": {nproc}}}",
            report.served_count(),
            json_num(secs),
            json_num(ips),
        ));
        reports.push(report);
    }
    // Host path must never leak into simulated results (plan-cache
    // traffic is excluded from report equality by design).
    assert_eq!(reports[0], reports[1], "{name}: exec path changed simulated results");
    ScenarioResult { name, speedup: ips_of[1] / ips_of[0], records }
}

fn main() {
    header("Harness", "Serving-loop host throughput: profile-compiled vs reference path");
    let quick = std::env::var("S2TA_BENCH_QUICK").is_ok();
    let reps = if quick { 1 } else { 5 };

    let hetero_models = hetero_scenario::models();
    let hetero_requests = hetero_scenario::workload().generate();
    let hetero = run_scenario(
        "hetero",
        |path| {
            Fleet::from_spec(hetero_scenario::fleet_spec().with_exec_path(path))
                .with_policy(hetero_scenario::policy())
        },
        &hetero_models,
        &hetero_requests,
        reps,
    );

    let pipe_models = pipeline_scenario::models();
    let pipe_requests = pipeline_scenario::workload().generate();
    let pipeline = run_scenario(
        "pipeline",
        |path| {
            Fleet::from_spec(pipeline_scenario::fleet_spec().with_exec_path(path))
                .with_policy(pipeline_scenario::policy())
                .with_placement(PlacementStrategy::Pipelined {
                    stages: pipeline_scenario::STAGES,
                    queue_capacity: 2,
                })
        },
        &pipe_models,
        &pipe_requests,
        reps,
    );

    println!();
    let mut records = Vec::new();
    for s in [&hetero, &pipeline] {
        println!(
            "{}: profile-compiled path {:.2}x the reference host throughput",
            s.name, s.speedup
        );
        records.extend(s.records.iter().cloned());
        // Quick mode (single rep on a possibly noisy CI runner) gates
        // only the byte-identity of the reports, already asserted in
        // run_scenario — a one-shot wall-clock ratio is not a reliable
        // CI signal. The committed full-mode artifact carries the
        // gated speedups, and CI's artifact check re-asserts >= 10x.
        if !quick {
            assert!(
                s.speedup >= 10.0,
                "{}: profile-compiled serving must be >= 10x the reference path, got {:.2}x",
                s.name,
                s.speedup
            );
        }
    }

    if quick {
        println!("quick mode: artifact left untouched");
        return;
    }
    let json = format!(
        "{{\n  \"bench\": \"harness\",\n  \"seed\": {SEED},\n  \"runs\": [\n    {}\n  ],\n  \
         \"speedup\": {{\"hetero\": {}, \"pipeline\": {}}}\n}}\n",
        records.join(",\n    "),
        json_num(hetero.speedup),
        json_num(pipeline.speedup),
    );
    let path = write_bench_artifact("BENCH_harness.json", &json);
    println!("wrote {} ({} runs)", path.display(), records.len());
}
