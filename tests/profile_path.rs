//! Acceptance tests for the profile-compiled execution path: the
//! matrix-free event path ([`ExecPath::Profiled`]) must be
//! **byte-identical** to the operand-materializing reference path
//! ([`ExecPath::Reference`]) on every architecture — goldens on the
//! zoo models, a property sweep over random multi-tile shapes and
//! sparsities (also checked against the functional datapaths), the
//! DAP-profile-vs-materialize equivalence, the `u16` tally bound, and
//! the DMA ceil-division boundary the profiled rollout fixed in both
//! paths.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use s2ta::core::{
    Accelerator, ActProfileCache, ArchKind, ExecPath, PlannedWeights, WeightResidency,
};
use s2ta::dbb::dap::{dap_col_profile, dap_matrix, LayerNnz};
use s2ta::models::{deep_convnet, lenet5, LayerSpec};
use s2ta::sim::{systolic, tpe, ActivationProfile, EventCounts};
use s2ta::tensor::sparsity::SparseSpec;
use s2ta::tensor::{GemmShape, LayerKind};

/// Golden equivalence on the serving zoo: for every architecture, the
/// profile-compiled path reproduces the reference path's per-layer
/// [`s2ta::sim::EventCounts`] byte-for-byte on LeNet-5 and the 14-layer
/// Deep-ConvNet, with the activation seed distinct from the weight seed
/// (the serving case: one set of weights, many inputs), and on the
/// conv-only runs the paper's figures use.
#[test]
fn profiled_model_runs_match_reference_on_all_archs() {
    for model in [lenet5(), deep_convnet()] {
        for kind in ArchKind::ALL {
            let reference = Accelerator::preset(kind).with_exec_path(ExecPath::Reference);
            let profiled = Accelerator::preset(kind);
            let (weight_seed, act_seed) = (42, 7);
            let rplan = reference.plan_model(&model, weight_seed);
            let pplan = profiled.plan_model(&model, weight_seed);
            let r = reference.run_model_planned(&rplan, &model, act_seed);
            let p = profiled.run_model_planned(&pplan, &model, act_seed);
            assert_eq!(r, p, "{kind} on {}", model.name);
            // The paper-figure entry point (Fig. 11, Tbl. 4) follows
            // the same path choice.
            let r = reference.run_model_conv_only(&model, weight_seed);
            let p = profiled.run_model_conv_only(&model, weight_seed);
            assert_eq!(r, p, "{kind} on {} (conv only)", model.name);
        }
    }
}

/// Both weight residencies agree per layer (the DMA clamp is the only
/// residency-sensitive term, and both paths price it identically).
#[test]
fn profiled_residency_variants_match_reference() {
    let model = lenet5();
    for kind in [ArchKind::SaZvcg, ArchKind::S2taW, ArchKind::S2taAw] {
        let reference = Accelerator::preset(kind).with_exec_path(ExecPath::Reference);
        let profiled = Accelerator::preset(kind);
        let plan = profiled.plan_model(&model, 42);
        for (i, layer) in model.layers.iter().enumerate() {
            for residency in [WeightResidency::Streamed, WeightResidency::Resident] {
                let r = reference.run_layer_planned(&plan.layers()[i], layer, 9, residency);
                let p = profiled.run_layer_planned(&plan.layers()[i], layer, 9, residency);
                assert_eq!(r, p, "{kind} layer {i} {residency:?}");
            }
        }
    }
}

/// The memory-bound DMA clamp rounds partial bus transfers **up**: a
/// sub-rate tail costs a full cycle, in both execution paths. The
/// SA-ZVCG FC layer below moves 32*101 weight bytes + 101 activation
/// bytes = 3333 bytes at 16 bytes/cycle: 209 cycles (208.3 rounded up),
/// where the old truncating division under-billed it at 208.
#[test]
fn dma_clamp_rounds_partial_transfers_up() {
    let fc = LayerSpec::new("fc", LayerKind::FullyConnected, GemmShape::new(32, 101, 1), 0.5, 0.5);
    let reference = Accelerator::preset(ArchKind::SaZvcg).with_exec_path(ExecPath::Reference);
    let profiled = Accelerator::preset(ArchKind::SaZvcg);
    assert_eq!(reference.config().dma_bytes_per_cycle, 16);
    let plan = reference.plan_layer(&fc, 1, 3);
    let r = reference.run_layer_planned(&plan, &fc, 3, WeightResidency::Streamed);
    let p = profiled.run_layer_planned(&plan, &fc, 3, WeightResidency::Streamed);
    assert_eq!(r.events, p.events);
    // DMA-bound: (32*101 + 101).div_ceil(16) = 209 > the ~195 compute
    // cycles of the single 32x64 output tile.
    assert_eq!(r.events.cycles, (32 * 101 + 101u64).div_ceil(16));
    assert_eq!(r.events.cycles, 209, "ceil, not the truncated 208");
}

/// The fleet-shared activation-counter table tallies each
/// `(layer, act seed)` once and serves every re-simulation, on every
/// architecture that reads it: a miss fills the counters of every
/// reader's plan.
#[test]
fn act_profile_cache_compiles_once_and_is_shared() {
    let cache = ActProfileCache::new();
    let aw = Accelerator::preset(ArchKind::S2taAw).sharing_act_profiles(cache.clone());
    let zv = Accelerator::preset(ArchKind::SaZvcg).sharing_act_profiles(cache.clone());
    let w = Accelerator::preset(ArchKind::S2taW).sharing_act_profiles(cache.clone());
    let model = lenet5();
    let (aw_plan, zv_plan) = (aw.plan_model(&model, 42), zv.plan_model(&model, 42));
    assert!(cache.is_empty());
    aw.run_model_planned(&aw_plan, &model, 5);
    let cold = cache.stats();
    assert_eq!(cold.misses as usize, model.layers.len(), "one miss per layer");
    assert_eq!((cold.hits, cold.bypasses), (0, 0));
    // The S2TA-AW misses filled SA-ZVCG's counters too: all hits.
    zv.run_model_planned(&zv_plan, &model, 5);
    let shared = cache.stats().since(cold);
    assert_eq!(shared.misses, 0, "cross-arch reuse: no recompiles");
    assert_eq!(shared.hits as usize, model.layers.len());
    // S2TA-W tiles 32 columns, not 64, and its counters were filled
    // by the same misses.
    assert_ne!(w.config().geometry.tile_cols(), aw.config().geometry.tile_cols());
    let before = cache.stats();
    w.run_model_planned(&w.plan_model(&model, 42), &model, 5);
    let narrow = cache.stats().since(before);
    assert_eq!(narrow.misses, 0, "every reader's plan is filled at once");
    assert_eq!(narrow.hits as usize, model.layers.len());
    // A different activation seed is a different operand. Each seed
    // keeps one entry per layer for each of the three plans that read
    // the table: a miss fills them all.
    aw.run_model_planned(&aw_plan, &model, 6);
    assert_eq!(cache.len(), 3 * 2 * model.layers.len());
}

/// The widest activation a `u16` tally holds counts exactly on the
/// profiled path; one column more is rejected at the tally, never
/// wrapped.
#[test]
fn act_profile_holds_exactly_u16_max_columns() {
    let layer = random_layer(1, 1, usize::from(u16::MAX), 0.0, 0.3, 1);
    let nonzeros = layer.gen_acts(9).data().iter().filter(|&&v| v != 0).count() as u64;
    assert!(nonzeros > 255, "the tally leaves the u8 range");
    for kind in [ArchKind::S2taAw, ArchKind::SaZvcg] {
        let reference = Accelerator::preset(kind).with_exec_path(ExecPath::Reference);
        let plan = reference.plan_layer(&layer, 1, 9);
        let r = reference.run_layer_planned(&plan, &layer, 9, WeightResidency::Streamed);
        let p = Accelerator::preset(kind).run_layer_planned(
            &plan,
            &layer,
            9,
            WeightResidency::Streamed,
        );
        assert_eq!(r, p, "{kind}");
        // One weight and one activation row, which never prunes: every
        // non-zero activation meets the weight.
        let weight = u64::from(plan.weight_profile().counts()[0]);
        assert_eq!(p.events.macs_active, nonzeros * weight, "{kind}");
    }
}

#[test]
#[should_panic(
    expected = "activation has 65536 columns; its u16 per-position tallies hold at most 65535"
)]
fn act_profile_rejects_activations_wider_than_u16() {
    let layer = random_layer(1, 1, usize::from(u16::MAX) + 1, 0.0, 0.3, 1);
    Accelerator::preset(ArchKind::S2taAw).run_layer(&layer, 1, 9);
}

/// The events of the functional (MAC-by-MAC, tile-by-tile) datapath
/// for `kind`, or `None` for the SMT kinds, whose reference path is
/// already functional.
fn functional_events(
    acc: &Accelerator,
    weights: &PlannedWeights,
    adbb: LayerNnz,
    a: &s2ta::tensor::Matrix,
) -> Option<EventCounts> {
    let geom = &acc.config().geometry;
    match (acc.config().kind, weights) {
        (ArchKind::Sa, PlannedWeights::Dense(w)) => Some(systolic::run(geom, false, w, a).events),
        (ArchKind::SaZvcg, PlannedWeights::Dense(w)) => {
            Some(systolic::run(geom, true, w, a).events)
        }
        (ArchKind::S2taW, PlannedWeights::Dbb(w)) => Some(tpe::run_wdbb(geom, w, a).events),
        (ArchKind::S2taAw, PlannedWeights::Dbb(w)) => {
            let (adbb_m, dap) = dap_matrix(a, geom.bz, adbb);
            let mut events = tpe::run_aw(geom, w, &adbb_m).events;
            events.dap_stages += dap.stages;
            events.dap_comparisons += dap.comparisons;
            Some(events)
        }
        _ => None,
    }
}

/// Strategy inputs for one random layer execution.
fn random_layer(m: usize, k: usize, n: usize, wsp: f64, asp: f64, name_tag: u64) -> LayerSpec {
    LayerSpec::new(format!("prop{name_tag}"), LayerKind::Conv, GemmShape::new(m, k, n), wsp, asp)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Profile-path events equal dense-path events for random operand
    /// shapes and sparsities on **every** architecture, for both the
    /// unpruned first-layer fall-back and pruned interior layers, and
    /// equal the functional datapaths' events. The shapes span at least
    /// three 64-column and three 32-row tile strips, with ragged edge
    /// tiles, so every layer-wide tally sums over many tiles.
    #[test]
    fn prop_profiled_equals_reference_events(
        m in 65usize..96,
        k in 1usize..96,
        n in 129usize..192,
        wsp in 0.0f64..0.9,
        asp in 0.0f64..0.9,
        layer_index in 0usize..2,
        seed in any::<u64>(),
    ) {
        let layer = random_layer(m, k, n, wsp, asp, seed ^ (layer_index as u64));
        let a = layer.gen_acts(seed ^ 0xA5);
        for kind in ArchKind::ALL {
            let reference = Accelerator::preset(kind).with_exec_path(ExecPath::Reference);
            let profiled = Accelerator::preset(kind);
            let plan = reference.plan_layer(&layer, layer_index, seed);
            let r = reference.run_layer_planned(&plan, &layer, seed ^ 0xA5, WeightResidency::Streamed);
            let p = profiled.run_layer_planned(&plan, &layer, seed ^ 0xA5, WeightResidency::Streamed);
            prop_assert_eq!(r.events, p.events, "{} {}x{}x{}", kind, m, k, n);
            let weights = reference.compile_weights(&layer, layer_index, seed);
            if let Some(f) = functional_events(&reference, &weights, plan.adbb(), &a) {
                prop_assert_eq!(f, p.events, "functional {} {}x{}x{}", kind, m, k, n);
            }
        }
    }

    /// The direct DAP profile derivation equals materialize-then-profile
    /// (`dap_matrix` -> decompress -> `ActivationProfile::new`), events
    /// included; its raw tallies equal `ActivationProfile::new` of the
    /// unpruned matrix.
    #[test]
    fn prop_dap_profile_equals_materialize_then_profile(
        rows in 1usize..64,
        cols in 1usize..200,
        sp in 0.0f64..0.95,
        nnz in 1usize..=8,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = SparseSpec::random(sp).matrix(rows, cols, &mut rng);
        let direct = dap_col_profile(&m, 8, LayerNnz::Prune(nnz));
        let (dm, events) = dap_matrix(&m, 8, LayerNnz::Prune(nnz));
        prop_assert_eq!(ActivationProfile::from_counts(&direct.raw), ActivationProfile::new(&m));
        prop_assert_eq!(
            ActivationProfile::from_counts(&direct.counts),
            ActivationProfile::new(&dm.decompress())
        );
        prop_assert_eq!(direct.events, events);
        prop_assert_eq!(direct.config, dm.config());
    }
}
