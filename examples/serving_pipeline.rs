//! Layer-pipelined serving demo: the 14-layer `Deep-ConvNet` on a
//! mixed 2×S2TA-AW + 2×SA-ZVCG fleet, comparing monolithic placement
//! (one lane serializes a whole inference) against SCNN-style layer
//! pipelining (`PlacementStrategy::Pipelined`): the model is
//! partitioned into stages sized to their lanes' architectures, each
//! stage pinned to a distinct lane, and stage `s` of batch `b`
//! overlaps stage `s+1` of batch `b-1`.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example serving_pipeline
//! ```
//!
//! The run is fully deterministic, and the asserts at the bottom are
//! the CI smoke gate for pipelined serving: the pipeline must beat
//! monolithic earliest-free placement on p99 latency by >= 1.1x at no
//! worse throughput and span both architectures.

use s2ta::core::ArchKind;
use s2ta::energy::TechParams;
use s2ta::serve::{Fleet, ServeReport};
use s2ta_bench::pipeline_scenario;

fn main() {
    let tech = TechParams::tsmc16();
    // The canonical scenario shared with the serving bench and the
    // acceptance test in tests/serving.rs — retune it in one place.
    let models = pipeline_scenario::models();
    let spec = pipeline_scenario::workload();
    let requests = spec.generate();

    println!("== s2ta-serve layer-pipeline demo ==");
    println!("model: {} ({} layers)", models[0].name, models[0].layers.len());
    println!("workload: {spec}");
    println!(
        "fleet: {} ({} lanes), pipeline of {} stages",
        pipeline_scenario::fleet_spec().label(),
        pipeline_scenario::fleet_spec().lanes(),
        pipeline_scenario::STAGES
    );
    println!();

    // Each fleet is fresh, so its plan-cache counters after the run are
    // exactly the run's activity.
    let monolithic_fleet = pipeline_scenario::monolithic_fleet();
    let pipelined_fleet = pipeline_scenario::pipelined_fleet();
    let monolithic = monolithic_fleet.serve(&models, &requests);
    let pipelined = pipelined_fleet.serve(&models, &requests);
    let plans = |fleet: &Fleet| fleet.accelerator().plans().stats();

    for (name, report, fleet) in [
        ("monolithic (earliest-free)", &monolithic, &monolithic_fleet),
        ("pipelined", &pipelined, &pipelined_fleet),
    ] {
        println!("placement: {name}");
        print!("{}", report.summary(&tech));
        print!("{}", report.lane_breakdown(&tech));
        let stages = report.pipeline_breakdown();
        if !stages.is_empty() {
            println!("  pipeline stages:");
            print!("{stages}");
        }
        let cache = plans(fleet);
        println!(
            "  plan cache: {} hits / {} misses / {} dense bypasses ({:.0}% hit rate)",
            cache.hits,
            cache.misses,
            cache.bypasses,
            cache.hit_rate() * 100.0
        );
        println!();
    }

    let p99_win = monolithic.p99_cycles() as f64 / pipelined.p99_cycles() as f64;
    println!(
        "pipelined vs monolithic: {:.2}x lower p99, {:.2}x throughput, {:.2}x makespan",
        p99_win,
        pipelined.throughput_ips(&tech) / monolithic.throughput_ips(&tech),
        pipelined.makespan_cycles as f64 / monolithic.makespan_cycles as f64,
    );

    // The CI smoke gate: the pipeline must actually pay off here.
    assert!(
        p99_win >= 1.1,
        "pipelined p99 {} must beat monolithic {} by >= 1.1x",
        pipelined.p99_cycles(),
        monolithic.p99_cycles()
    );
    assert!(
        pipelined.makespan_cycles <= monolithic.makespan_cycles,
        "pipelined throughput must not regress"
    );
    let archs: std::collections::HashSet<ArchKind> =
        pipelined.pipeline_stages.iter().map(|s| s.arch).collect();
    assert!(archs.len() >= 2, "the stage map must span both architectures");
    let cache = plans(&pipelined_fleet);
    assert!(cache.hits > 0 && cache.misses >= 1, "the shared plan cache must be exercised");
    let _ = ServeReport::cycles_to_ms(&tech, pipelined.p99_cycles());
    println!("layer pipeline beats monolithic placement on p99 at equal throughput: OK");
}
