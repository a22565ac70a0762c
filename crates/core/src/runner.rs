//! The accelerator runner: layers and models through the simulated
//! datapaths, with the DBB toolchain applied where configured.

use crate::plan::{
    plan_scope_fingerprint, ActProfileCache, LayerPlan, ModelPlan, PlannedWeights, WeightPlanCache,
    WeightResidency,
};
use crate::scratch::Scratch;
use crate::{ArchConfig, ArchKind, LayerReport, ModelReport};
use s2ta_dbb::dap::{dap_matrix, LayerNnz};
use s2ta_dbb::{prune, BlockAxis, DbbConfig, DbbMatrix};
use s2ta_models::{LayerSpec, ModelSpec};
use s2ta_sim::{smt, systolic, tpe, EventCounts};
use s2ta_tensor::Matrix;
use std::ops::Range;
use std::sync::OnceLock;

/// Which host-side execution path every layer run takes.
///
/// Every entry point that runs a layer — [`Accelerator::run_layer`],
/// [`Accelerator::run_layer_planned`], `Accelerator::run_stage`,
/// [`Accelerator::run_stage_events`] and everything built on them —
/// reads this in one place, per layer. Both paths produce
/// **byte-identical** [`EventCounts`] (golden- and property-tested per
/// architecture); they differ only in host work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecPath {
    /// Materialize both operands per call — the layer's weights
    /// compiled by [`Accelerator::compile_weights`], the dense
    /// activations regenerated from their seed — and re-derive their
    /// sparsity structure (the original path, kept as the golden
    /// reference and the host-throughput baseline).
    Reference,
    /// Replay precompiled per-position profiles — the weight profile
    /// baked into the [`LayerPlan`], the activation profile memoized in
    /// the shared [`ActProfileCache`] — so a repeated `(layer, act
    /// seed)` simulation is one `O(K)` profile dot product per layer
    /// with no matrix materialization (the serving hot loop).
    #[default]
    Profiled,
}

/// A configured accelerator instance.
///
/// Construction is cheap; per-run state lives in the inputs, so one
/// instance can be reused across layers, models and seeds. The instance
/// additionally carries a shared [`WeightPlanCache`] (so repeated model
/// runs compile each model's weights — W-DBB pruning + compression —
/// exactly once) and a shared [`ActProfileCache`] (so repeated
/// simulations of one `(layer, act seed)` reuse its profiles);
/// clones share both caches. Equality compares the configuration only.
#[derive(Debug, Clone)]
pub struct Accelerator {
    config: ArchConfig,
    /// [`plan_scope_fingerprint`] of `config`, computed on the first
    /// plan-cache lookup and reused by every later one (`config` never
    /// changes after construction). Deferred rather than computed in
    /// [`Accelerator::new`] so building a fleet stays free of it.
    plan_scope: OnceLock<u64>,
    plans: WeightPlanCache,
    act_profiles: ActProfileCache,
    exec_path: ExecPath,
}

/// Borrowed view of weights in either datapath format, so the unplanned
/// `run_gemm` path avoids cloning dense operands.
#[derive(Debug, Clone, Copy)]
enum WeightsRef<'a> {
    Dense(&'a Matrix),
    Dbb(&'a DbbMatrix),
}

impl<'a> From<&'a PlannedWeights> for WeightsRef<'a> {
    fn from(w: &'a PlannedWeights) -> Self {
        match w {
            PlannedWeights::Dense(m) => WeightsRef::Dense(m),
            PlannedWeights::Dbb(d) => WeightsRef::Dbb(d),
        }
    }
}

impl PartialEq for Accelerator {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
    }
}

impl Accelerator {
    /// Creates an accelerator from an explicit configuration.
    pub(crate) fn new(config: ArchConfig) -> Self {
        Self {
            config,
            plan_scope: OnceLock::new(),
            plans: WeightPlanCache::new(),
            act_profiles: ActProfileCache::new(),
            exec_path: ExecPath::default(),
        }
    }

    /// Creates the paper's preset design point for `kind`.
    pub fn preset(kind: ArchKind) -> Self {
        Self::new(ArchConfig::preset(kind))
    }

    /// The configuration.
    pub fn config(&self) -> &ArchConfig {
        &self.config
    }

    /// The plan-cache scope of this configuration.
    pub(crate) fn plan_scope(&self) -> u64 {
        *self.plan_scope.get_or_init(|| plan_scope_fingerprint(&self.config))
    }

    /// The shared weight-plan cache.
    pub fn plans(&self) -> &WeightPlanCache {
        &self.plans
    }

    /// Replaces this accelerator's plan cache with `plans`, so a set of
    /// accelerators — possibly of **different** architectures, such as
    /// the lanes of a heterogeneous serving fleet — share one memo
    /// table. The cache is keyed by `(arch, model, seed)`, so sharing
    /// across kinds can never serve a mismatched plan.
    pub fn sharing_plans(mut self, plans: WeightPlanCache) -> Self {
        self.plans = plans;
        self
    }

    /// The shared activation-profile cache.
    pub fn act_profiles(&self) -> &ActProfileCache {
        &self.act_profiles
    }

    /// Replaces this accelerator's activation-profile cache, so a set
    /// of accelerators (e.g. a fleet's lanes) share one memo table.
    /// Entries are keyed by `(layer, act seed, bz, adbb)` and hold no
    /// tile-shaped state, so sharing across architecture kinds can
    /// never serve a mismatched profile — kinds with the same block
    /// size simply reuse each other's work.
    pub fn sharing_act_profiles(mut self, act_profiles: ActProfileCache) -> Self {
        self.act_profiles = act_profiles;
        self
    }

    /// Selects the host-side execution path for layer runs. Simulated
    /// results are byte-identical either way; [`ExecPath::Reference`]
    /// re-materializes operands per call and exists as the golden
    /// oracle (and baseline for host-throughput benchmarking).
    pub fn with_exec_path(mut self, path: ExecPath) -> Self {
        self.exec_path = path;
        self
    }

    /// Runs one GEMM with explicit operands and an explicit A-DBB
    /// decision. `first_layer` selects the dense weight fall-back (the
    /// paper leaves layer 1 unpruned, Table 3 note 2).
    ///
    /// Returns the event counts (fast path — no functional result).
    ///
    /// # Panics
    ///
    /// Panics if operand dimensions disagree with each other.
    pub fn run_gemm(
        &self,
        w: &Matrix,
        a: &Matrix,
        adbb: LayerNnz,
        first_layer: bool,
    ) -> EventCounts {
        if self.config.kind.uses_wdbb() {
            self.dispatch(WeightsRef::Dbb(&self.compress_weights(w, first_layer)), a, adbb)
        } else {
            self.dispatch(WeightsRef::Dense(w), a, adbb)
        }
    }

    /// Dispatches compiled operands to the architecture's datapath.
    ///
    /// # Panics
    ///
    /// Panics if the weight format does not match the architecture
    /// (dense weights on a TPE datapath or vice versa).
    fn dispatch(&self, w: WeightsRef<'_>, a: &Matrix, adbb: LayerNnz) -> EventCounts {
        let geom = &self.config.geometry;
        match (self.config.kind, w) {
            (ArchKind::Sa, WeightsRef::Dense(w)) => systolic::run_perf(geom, false, w, a),
            (ArchKind::SaZvcg, WeightsRef::Dense(w)) => systolic::run_perf(geom, true, w, a),
            (ArchKind::SaSmtT2Q2 | ArchKind::SaSmtT2Q4, WeightsRef::Dense(w)) => {
                smt::run_sampled(geom, self.config.smt, w, a, self.config.smt_sample_tiles).events
            }
            (ArchKind::S2taW, WeightsRef::Dbb(wdbb)) => tpe::run_wdbb_perf(geom, wdbb, a),
            (ArchKind::S2taAw, WeightsRef::Dbb(wdbb)) => {
                let (adbb_m, dap_events) = dap_matrix(a, geom.bz, adbb);
                let mut events = tpe::run_aw_perf(geom, wdbb, &adbb_m);
                events.dap_stages += dap_events.stages;
                events.dap_comparisons += dap_events.comparisons;
                events
            }
            (kind, _) => panic!("weight plan format does not match architecture {kind}"),
        }
    }

    /// Prunes+compresses weights to the configured W-DBB bound, or
    /// compresses densely for the unpruned first layer.
    pub(crate) fn compress_weights(&self, w: &Matrix, first_layer: bool) -> DbbMatrix {
        if first_layer {
            DbbMatrix::compress(w, BlockAxis::Rows, DbbConfig::dense(self.config.geometry.bz))
                .expect("dense bound always satisfiable")
        } else {
            prune::prune_and_compress(w, self.config.wdbb)
        }
    }

    /// Runs one layer at batch 1: plans it with
    /// [`Accelerator::plan_layer`] from `seed`, then runs the plan on
    /// activations drawn from the same `seed` with streamed weights.
    /// `layer_index` 0 selects the unpruned-weights fall-back.
    ///
    /// FC and depthwise layers are **memory bound** at batch 1 (paper
    /// Sec. 8.3): their weights stream from DRAM without reuse, so the
    /// layer latency is clamped to the DMA transfer time of the
    /// (possibly compressed) operands. DBB architectures still gain on
    /// these layers — from bandwidth compression, not compute.
    pub fn run_layer(&self, layer: &LayerSpec, layer_index: usize, seed: u64) -> LayerReport {
        let plan = self.plan_layer(layer, layer_index, seed);
        self.run_layer_planned(&plan, layer, seed, WeightResidency::Streamed)
    }

    /// Runs one layer from its compiled plan on a fresh activation
    /// input drawn from `act_seed`, on this accelerator's
    /// [`ExecPath`].
    ///
    /// # Panics
    ///
    /// Panics if `plan` was not compiled for this architecture.
    pub fn run_layer_planned(
        &self,
        plan: &LayerPlan,
        layer: &LayerSpec,
        act_seed: u64,
        residency: WeightResidency,
    ) -> LayerReport {
        let events = self.layer_events(plan, layer, act_seed, residency, &mut Scratch::new());
        LayerReport { name: layer.name.clone(), macs: layer.macs(), events }
    }

    /// Runs a whole model (all layers, including memory-bound FC and
    /// depthwise layers, as in the paper's full-model results).
    ///
    /// Weights are compiled through the shared [`WeightPlanCache`], so
    /// repeated invocations for the same `(model, seed)` skip the
    /// W-DBB pruning/compression work entirely.
    pub fn run_model(&self, model: &ModelSpec, seed: u64) -> ModelReport {
        let plan = self.plan_model(model, seed);
        self.run_model_planned(&plan, model, seed)
    }

    /// Runs a whole model from a compiled plan on activation inputs
    /// drawn from `act_seed` (which may differ from the plan's weight
    /// seed: one set of weights, many inputs).
    ///
    /// # Panics
    ///
    /// Panics if `plan` was not compiled from this `model`.
    pub fn run_model_planned(
        &self,
        plan: &ModelPlan,
        model: &ModelSpec,
        act_seed: u64,
    ) -> ModelReport {
        let layers =
            self.run_stage(plan, model, 0..model.layers.len(), act_seed, WeightResidency::Streamed);
        ModelReport::from_layers(model.name, self.config.kind.to_string(), layers)
    }

    /// Runs a **contiguous layer range** of a compiled plan — one
    /// pipeline stage — on activation inputs drawn from `act_seed`,
    /// returning the per-layer reports in execution order.
    ///
    /// The stage hands its intermediate activations forward implicitly:
    /// activations are a pure function of `(layer, act_seed)`, so the
    /// next stage resumes from the same seed at `layers.end` and the
    /// cross-stage boundary carries no extra state (the *bytes* a real
    /// handoff would move are priced by
    /// [`crate::plan::stage_handoff_bytes`]). Concatenating the reports
    /// of any partition of `0..model.layers.len()` is **byte-identical**
    /// to [`Accelerator::run_model_planned`], which is itself the
    /// single-stage special case.
    ///
    /// `residency` is the weight residency of every layer in the stage:
    /// [`WeightResidency::Streamed`] for a cold stage,
    /// [`WeightResidency::Resident`] when the executing lane just ran
    /// the same stage of the same plan and the stage's weights are
    /// still in its weight SRAM (the pinned-stage reuse a layer
    /// pipeline exists to harvest).
    ///
    /// # Panics
    ///
    /// Panics if `plan` was not compiled from this `model`, or the
    /// range exceeds the model's layer list.
    pub(crate) fn run_stage(
        &self,
        plan: &ModelPlan,
        model: &ModelSpec,
        layers: Range<usize>,
        act_seed: u64,
        residency: WeightResidency,
    ) -> Vec<LayerReport> {
        stage_layers(plan, model, layers)
            .map(|(l, lp)| self.run_layer_planned(lp, l, act_seed, residency))
            .collect()
    }

    /// Runs a contiguous layer range of a compiled plan and returns the
    /// stage's **summed** [`EventCounts`] — the allocation-free serving
    /// hot loop.
    ///
    /// Semantically `run_stage(..).iter().map(|l| l.events).sum()`
    /// (byte-identical on either [`ExecPath`]), but without building
    /// the per-layer report vector or cloning layer names, and on the
    /// profiled path with every transient buffer (the SMT path's
    /// regenerated activation matrix, cold profile compiles, the DAP
    /// block masks) drawn from `scratch`. After the caches and the
    /// arena are warm, a profiled call allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `plan` was not compiled from this `model`, the range
    /// exceeds the model's layer list, or the plan's weight format does
    /// not match the architecture.
    pub fn run_stage_events(
        &self,
        plan: &ModelPlan,
        model: &ModelSpec,
        layers: Range<usize>,
        act_seed: u64,
        residency: WeightResidency,
        scratch: &mut Scratch,
    ) -> EventCounts {
        let mut total = EventCounts::default();
        for (l, lp) in stage_layers(plan, model, layers) {
            total += self.layer_events(lp, l, act_seed, residency, scratch);
        }
        total
    }

    /// The events of one layer run — the one place [`ExecPath`] is
    /// read. The reference arm compiles the layer's weights again with
    /// [`Accelerator::compile_weights`], regenerates the activations
    /// and runs the datapath on both matrices; the profiled arm replays
    /// the plan's weight profile against the cached activation profile.
    /// Either way a memory-bound layer is then clamped to its DMA time.
    fn layer_events(
        &self,
        plan: &LayerPlan,
        layer: &LayerSpec,
        act_seed: u64,
        residency: WeightResidency,
        scratch: &mut Scratch,
    ) -> EventCounts {
        let mut events = match self.exec_path {
            ExecPath::Reference => {
                let weights = self.compile_weights(layer, plan.layer_index, plan.weight_seed);
                debug_assert_eq!(weights.desc(), plan.desc, "weights compiled for another plan");
                self.dispatch((&weights).into(), &layer.gen_acts(act_seed), plan.adbb)
            }
            ExecPath::Profiled => self.datapath_events_profiled(plan, layer, act_seed, scratch),
        };
        if layer.is_memory_bound() {
            let a_bytes = (layer.gemm.k * layer.gemm.n) as u64;
            events.cycles = events.cycles.max(self.dma_clamp_cycles(plan, a_bytes, residency));
        }
        events
    }

    /// The profiled arm of [`Accelerator::layer_events`]: the layer's
    /// datapath events **without materializing the activation matrix**
    /// on the profile-factorizable datapaths — the weight profile comes
    /// baked into the [`LayerPlan`], the activation profile from the
    /// shared [`ActProfileCache`], and the layer's active MACs from one
    /// `O(K)` profile dot product, through the `_into` datapath entry
    /// points with a cold profile compile staged in `scratch`.
    ///
    /// The SMT architectures are the one exception: their FIFO
    /// backpressure timing depends on the joint non-zero *positions* of
    /// both operands, which no per-position count determines, so their
    /// sampled tiles still regenerate the activation matrix (into
    /// `scratch`) — the event counting is profile-driven regardless.
    fn datapath_events_profiled(
        &self,
        plan: &LayerPlan,
        layer: &LayerSpec,
        act_seed: u64,
        scratch: &mut Scratch,
    ) -> EventCounts {
        let geom = &self.config.geometry;
        let kind = self.config.kind;
        let n = layer.gemm.n;
        let (bz, adbb) = (geom.bz, plan.adbb());
        let (w, wp) = (&plan.desc, plan.weight_profile());
        assert_eq!(
            w.config().is_some(),
            kind.uses_wdbb(),
            "weight plan format does not match architecture {kind}"
        );
        let mut events = EventCounts::default();
        match kind {
            ArchKind::Sa | ArchKind::SaZvcg => {
                let prof = self.act_profiles.get_or_profile(layer, act_seed, bz, adbb, scratch);
                let zvcg = kind == ArchKind::SaZvcg;
                systolic::run_perf_profiled_into(geom, zvcg, w, n, wp, prof.dense(), &mut events);
            }
            ArchKind::SaSmtT2Q2 | ArchKind::SaSmtT2Q4 => {
                let w = plan.smt_weights.as_ref().expect("SA-SMT plans keep their weight values");
                let a = layer.gen_acts_into(act_seed, std::mem::take(&mut scratch.acts));
                let prof = self.act_profiles.get_or_profile_from(
                    layer,
                    act_seed,
                    bz,
                    adbb,
                    &a,
                    &mut scratch.tallies,
                );
                smt::run_sampled_profiled_into(
                    geom,
                    self.config.smt,
                    w,
                    &a,
                    self.config.smt_sample_tiles,
                    wp,
                    prof.dense(),
                    &mut events,
                    &mut scratch.smt,
                );
                scratch.acts = a.into_data();
            }
            ArchKind::S2taW => {
                let prof = self.act_profiles.get_or_profile(layer, act_seed, bz, adbb, scratch);
                tpe::run_wdbb_perf_profiled_into(geom, w, n, wp, prof.dense(), &mut events);
            }
            ArchKind::S2taAw => {
                let prof = self.act_profiles.get_or_profile(layer, act_seed, bz, adbb, scratch);
                tpe::run_aw_perf_profiled_into(
                    geom,
                    w,
                    n,
                    prof.dap_config(),
                    wp,
                    prof.postdap(),
                    &mut events,
                );
                events.dap_stages += prof.dap_events().stages;
                events.dap_comparisons += prof.dap_events().comparisons;
            }
        }
        events
    }

    /// Runs only the convolution layers (the paper's "Conv only" rows).
    ///
    /// Each conv layer is one [`Accelerator::run_layer`], so it follows
    /// this accelerator's [`ExecPath`] like every other layer run. It
    /// plans per layer without touching the model cache: a cached
    /// full-model plan would compile the (often enormous) FC weights
    /// this path deliberately skips.
    pub fn run_model_conv_only(&self, model: &ModelSpec, seed: u64) -> ModelReport {
        let layers = model
            .layers
            .iter()
            .enumerate()
            .filter(|(_, l)| l.kind == s2ta_tensor::LayerKind::Conv)
            .map(|(i, l)| self.run_layer(l, i, seed))
            .collect();
        ModelReport::from_layers(
            format!("{} (conv)", model.name),
            self.config.kind.to_string(),
            layers,
        )
    }
}

/// The `(layer, plan)` pairs of a contiguous layer range of `plan`.
///
/// # Panics
///
/// Panics if `plan` was not compiled from `model`, or the range exceeds
/// the model's layer list.
fn stage_layers<'a>(
    plan: &'a ModelPlan,
    model: &'a ModelSpec,
    layers: Range<usize>,
) -> impl Iterator<Item = (&'a LayerSpec, &'a LayerPlan)> {
    assert!(
        plan.matches(model),
        "plan was compiled for '{}', not for '{}' (or the model structure changed)",
        plan.model(),
        model.name
    );
    assert!(
        layers.end <= model.layers.len(),
        "stage {layers:?} exceeds the model's {} layers",
        model.layers.len()
    );
    model.layers[layers.clone()].iter().zip(&plan.layers[layers])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use s2ta_models::lenet5;
    use s2ta_tensor::sparsity::SparseSpec;

    fn typical_operands(seed: u64, wsp: f64, asp: f64) -> (Matrix, Matrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        (
            SparseSpec::random(wsp).matrix(64, 144, &mut rng),
            SparseSpec::random(asp).matrix(144, 100, &mut rng),
        )
    }

    #[test]
    fn all_archs_run_a_gemm() {
        let (w, a) = typical_operands(1, 0.5, 0.5);
        for kind in ArchKind::ALL {
            let acc = Accelerator::preset(kind);
            let ev = acc.run_gemm(&w, &a, LayerNnz::Prune(4), false);
            assert!(ev.cycles > 0, "{kind} produced no cycles");
            assert!(ev.macs_active > 0, "{kind} produced no active MACs");
        }
    }

    #[test]
    fn s2ta_aw_is_fastest_on_sparse_work() {
        let (w, a) = typical_operands(2, 0.5, 0.625);
        let zvcg = Accelerator::preset(ArchKind::SaZvcg).run_gemm(&w, &a, LayerNnz::Dense, false);
        let aw = Accelerator::preset(ArchKind::S2taAw).run_gemm(&w, &a, LayerNnz::Prune(3), false);
        let speedup = zvcg.cycles as f64 / aw.cycles as f64;
        // 3/8 activations: ~8/3 = 2.67x (paper Fig. 9d), minus skew.
        assert!(speedup > 2.0, "expected >2x, got {speedup:.2}");
    }

    #[test]
    fn zvcg_matches_sa_cycles() {
        let (w, a) = typical_operands(3, 0.5, 0.5);
        let sa = Accelerator::preset(ArchKind::Sa).run_gemm(&w, &a, LayerNnz::Dense, false);
        let zv = Accelerator::preset(ArchKind::SaZvcg).run_gemm(&w, &a, LayerNnz::Dense, false);
        assert_eq!(sa.cycles, zv.cycles);
    }

    #[test]
    fn model_run_aggregates_layers() {
        let acc = Accelerator::preset(ArchKind::SaZvcg);
        let m = lenet5();
        let r = acc.run_model(&m, 11);
        assert_eq!(r.layers.len(), m.layers.len());
        assert_eq!(r.total_cycles, r.layers.iter().map(|l| l.events.cycles).sum::<u64>());
        let conv = acc.run_model_conv_only(&m, 11);
        assert_eq!(conv.layers.len(), 2);
    }

    #[test]
    fn deterministic_across_runs() {
        let acc = Accelerator::preset(ArchKind::S2taAw);
        let m = lenet5();
        assert_eq!(acc.run_model(&m, 5), acc.run_model(&m, 5));
    }

    /// The allocation-free summed-events hot loop is byte-identical to
    /// summing the per-layer report path, on every architecture, for
    /// both residencies, cold and warm arenas alike.
    #[test]
    fn stage_events_match_summed_reports_on_all_archs() {
        let m = lenet5();
        let mut scratch = Scratch::new();
        for kind in ArchKind::ALL {
            let acc = Accelerator::preset(kind);
            let plan = acc.plan_model(&m, 23);
            let n = m.layers.len();
            for residency in [WeightResidency::Streamed, WeightResidency::Resident] {
                for range in [0..n, 1..n.min(3), 0..1] {
                    let reports = acc.run_stage(&plan, &m, range.clone(), 7, residency);
                    let expected =
                        reports.iter().fold(EventCounts::default(), |acc, l| acc + l.events);
                    let got =
                        acc.run_stage_events(&plan, &m, range.clone(), 7, residency, &mut scratch);
                    assert_eq!(got, expected, "{kind} {residency:?} {range:?}");
                }
            }
        }
    }

    #[test]
    fn first_layer_uses_dense_weights() {
        // On layer 0, S2TA-W falls back to dense weight blocks: cycles
        // per block double vs a pruned layer of the same shape.
        let (w, a) = typical_operands(4, 0.1, 0.1);
        let acc = Accelerator::preset(ArchKind::S2taW);
        let first = acc.run_gemm(&w, &a, LayerNnz::Dense, true);
        let pruned = acc.run_gemm(&w, &a, LayerNnz::Dense, false);
        assert!(first.cycles > pruned.cycles);
    }
}
