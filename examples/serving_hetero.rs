//! Heterogeneous-fleet serving demo: a mixed 2×S2TA-AW + 2×SA-ZVCG
//! lane fleet serving one traffic stream, comparing arch-blind
//! earliest-free placement against affinity-aware placement (the
//! cost-model path that routes each batch to the lane minimizing its
//! predicted completion time, with per-`(arch, model)` service
//! estimates bootstrapped from the run's own completed batches).
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example serving_hetero
//! ```
//!
//! The run is fully deterministic, and the asserts at the bottom are
//! the CI smoke gate for heterogeneous serving: affinity must beat
//! earliest-free on both p99 latency and energy per inference on this
//! workload, and cache budgets must never leak into simulated results.

use s2ta::core::CacheStats;
use s2ta::energy::TechParams;
use s2ta::models::ModelSpec;
use s2ta::serve::{DiurnalSpec, Fleet, PlacementStrategy, RateSegment, Request, ServeReport};
use s2ta_bench::hetero_scenario;

/// Serves `requests` on `fleet`, diffing the fleet's shared caches
/// around the call: the report plus the run's weight-plan and
/// activation-profile counter deltas.
fn serve(
    fleet: &Fleet,
    models: &[ModelSpec],
    requests: &[Request],
) -> (ServeReport, CacheStats, CacheStats) {
    let (plans, acts) = (fleet.accelerator().plans(), fleet.accelerator().act_profiles());
    let before = (plans.stats(), acts.stats());
    let report = fleet.serve(models, requests);
    (report, plans.stats().since(before.0), acts.stats().since(before.1))
}

fn main() {
    let tech = TechParams::tsmc16();
    // The canonical scenario shared with the serving bench and the
    // acceptance test in tests/serving.rs — retune it in one place.
    let models = hetero_scenario::models();
    let spec = hetero_scenario::workload();
    let requests = spec.generate();
    let fleet_spec = hetero_scenario::fleet_spec();
    let policy = hetero_scenario::policy();

    println!("== s2ta-serve heterogeneous fleet demo ==");
    println!("workload: {spec}");
    println!("fleet: {} ({} lanes, shared plan cache)", fleet_spec.label(), fleet_spec.lanes());
    println!();

    let mk = || Fleet::from_spec(fleet_spec.clone()).with_policy(policy);
    let (earliest_free, ef_plans, ef_acts) = serve(&mk(), &models, &requests);
    let (affinity, af_plans, af_acts) =
        serve(&mk().with_placement(PlacementStrategy::Affinity), &models, &requests);

    for (name, report) in [("earliest-free", &earliest_free), ("affinity", &affinity)] {
        println!("placement: {name}");
        print!("{}", report.summary(&tech));
        print!("{}", report.lane_breakdown(&tech));
        println!();
    }

    println!(
        "affinity vs earliest-free: {:.2}x lower p99, {:.2}x less energy/inf, {:.2}x makespan",
        earliest_free.p99_cycles() as f64 / affinity.p99_cycles() as f64,
        earliest_free.uj_per_inference(&tech) / affinity.uj_per_inference(&tech),
        affinity.makespan_cycles as f64 / earliest_free.makespan_cycles as f64,
    );

    // The CI smoke gate: the cost model must actually pay off here.
    assert!(
        affinity.p99_cycles() < earliest_free.p99_cycles(),
        "affinity p99 {} must beat earliest-free {}",
        affinity.p99_cycles(),
        earliest_free.p99_cycles()
    );
    assert!(
        affinity.uj_per_inference(&tech) < earliest_free.uj_per_inference(&tech),
        "affinity energy must beat earliest-free"
    );
    let _ = ServeReport::cycles_to_ms(&tech, affinity.p99_cycles());
    println!("affinity placement beats earliest-free on p99 and energy: OK");

    // Plan-cache effectiveness must be visible in the run's counters:
    // the one DBB architecture (S2TA-AW) compiles each of the two models
    // exactly once (a miss each), every later execution hits the
    // shared memo, and the dense SA-ZVCG lanes are memoized too —
    // their compiles count as bypasses (no DBB pruning pipeline ran)
    // and their warm lookups as hits, so the bypass counter freezes
    // once the fleet is warm. The activation-profile cache (the
    // matrix-free event path's operand memo) rides alongside.
    let runs = [("earliest-free", ef_plans, ef_acts), ("affinity", af_plans, af_acts)];
    for (name, cache, acts) in runs {
        println!(
            "{name}: plan cache {} hits / {} misses / {} bypasses ({:.0}% hit rate); \
             act profiles {} hits / {} misses",
            cache.hits,
            cache.misses,
            cache.bypasses,
            cache.hit_rate() * 100.0,
            acts.hits,
            acts.misses,
        );
        assert_eq!(cache.misses, 2, "{name}: one compile per (DBB arch, model)");
        assert!(cache.hits > cache.misses, "{name}: the memo must be doing real work");
        assert!(cache.bypasses > 0, "{name}: cold dense-lane plans compile as bypasses");
        assert!(acts.misses > 0, "{name}: cold run compiles act profiles");
        assert_eq!(acts.bypasses, 0, "{name}: every act lookup is memoized");
        // Every batch simulates once, on the lane it was placed on,
        // and every request carries a fresh input: a cold run profiles
        // each (layer, act seed) once, so it is miss-only on activation
        // profiles under either placement. Reuse shows up in the
        // steady-state re-serve below.
        assert_eq!(acts.hits, 0, "{name}: a cold run never re-profiles");
    }
    println!("fleet-wide weight-plan cache is effective: OK");

    // Steady state: re-serving the same traffic on the same fleet hits
    // both caches on every lookup — zero compiles, hits > misses, and
    // the bypass counter has stopped moving: the dense plans compiled
    // on the first batch are warm, so every dense lookup is now a hit.
    let warm_fleet = mk();
    let (_, cold, _) = serve(&warm_fleet, &models, &requests);
    assert!(cold.bypasses > 0, "cold serve compiles the dense plans");
    let (_, cache, acts) = serve(&warm_fleet, &models, &requests);
    println!(
        "steady-state re-serve: plan cache {} hits / {} misses / {} bypasses; \
         act profiles {} hits / {} misses",
        cache.hits, cache.misses, cache.bypasses, acts.hits, acts.misses,
    );
    assert_eq!(cache.misses, 0, "steady: no new weight-plan compiles");
    assert_eq!(cache.bypasses, 0, "steady: dense lookups are cache hits, not recompiles");
    assert_eq!(acts.misses, 0, "steady: no new act-profile compiles");
    assert!(acts.hits > acts.misses, "steady: act cache is all hits");
    assert!(cache.hits > cache.misses, "steady: plan cache is all hits");
    println!("fleet-wide plan + activation-profile caches are effective: OK");

    // Bounded caches: serving under byte budgets smaller than the
    // zoo's cached footprint, so both LRUs must evict. The traffic
    // here is production-shaped — a bounded pool of recurring inputs
    // with an 8:1 model skew — so LeNet's act profiles stay hot and
    // resident while the rare CIFAR visits cycle through the leftover
    // budget. Since dense plans are memoized too, the plan budget is
    // sized to the hot model's plans (both arch scopes, ~118 KB) plus
    // change: LeNet's plans keep hitting while the CIFAR visits force
    // recompiles and evictions.
    // Evicted entries recompile byte-identically on next use: a
    // budget changes host time and the cache counters, never
    // simulated results (the report carries no cache counters, so
    // this assert is exact). Monolithic
    // serving simulates on the calling thread, so the LRU touch order,
    // and with it the counters themselves, are deterministic.
    let zoo_requests = DiurnalSpec {
        seed: 77,
        requests: 400,
        segments: vec![RateSegment { duration_cycles: 100_000, mean_interarrival_cycles: 2_500.0 }],
        mix: vec![8.0, 1.0],
        act_seed_pool: 24,
    }
    .generate();
    let unbounded =
        Fleet::from_spec(fleet_spec.clone()).with_policy(policy).serve(&models, &zoo_requests);
    let bounded_fleet = Fleet::from_spec(fleet_spec.clone())
        .with_policy(policy)
        .with_cache_budgets(160 << 10, 1 << 18);
    let _warm = bounded_fleet.serve(&models, &zoo_requests);
    let (bounded, cache, acts) = serve(&bounded_fleet, &models, &zoo_requests);
    assert_eq!(bounded, unbounded, "a cache budget must never change simulated results");
    println!(
        "steady-state under budget: plan cache {} hits / {} misses / {} evictions; \
         act profiles {} hits / {} misses / {} evictions ({} bytes evicted)",
        cache.hits,
        cache.misses,
        cache.evictions,
        acts.hits,
        acts.misses,
        acts.evictions,
        acts.bytes_evicted,
    );
    assert!(cache.evictions > 0, "a plan budget below the two-plan zoo must evict");
    assert!(cache.hits > 0, "runs of same-model batches still reuse the resident plan");
    assert!(acts.evictions > 0, "an act budget below the zoo must evict act profiles");
    assert!(acts.bytes_evicted > 0, "evictions must release bytes");
    assert!(acts.hits > acts.misses, "hot-model act profiles must stay resident");
    assert!(
        cache.hits + acts.hits > cache.misses + acts.misses,
        "bounded steady state: hits must dominate misses across the caches"
    );
    println!("bounded caches evict under pressure and stay byte-identical: OK");
}
