//! Compiled execution plans: the per-layer weight state an
//! [`Accelerator`] needs at run time, built **once** and reused across
//! runs.
//!
//! Running a model involves two very different kinds of work: compiling
//! the weights (W-DBB pruning + compression — a property of the model,
//! not of the request) and executing the datapath on a concrete
//! activation input. The original runner redid both per call; this
//! module splits them so weight compilation can be memoized:
//!
//! * [`LayerPlan`] / [`ModelPlan`] — the compiled weight state for one
//!   layer / every layer of a model, for a fixed architecture and
//!   weight seed. W-DBB weights are static, so a plan keeps what prices
//!   a layer — the weights' per-position profile, shape, W-DBB
//!   configuration and compressed size — and not the weight values,
//!   which only the SA-SMT plans and the reference path read.
//! * [`WeightPlanCache`] — the memo table of [`ModelPlan`]s, shared by
//!   every clone of an [`Accelerator`] and by the serving fleet's
//!   workers (`s2ta-serve`).
//! * [`ActProfile`] / [`ActProfileCache`] — the activation-side
//!   counterpart: the compiled per-position non-zero profiles of one
//!   request's activation input, memoized the same way.
//!
//! Both caches are instances of the one generic [`MemoCache`]; this
//! module supplies only their keys and compile recipes. Every layer
//! run starts from a plan: `run_layer` plans its one layer, and
//! `run_model` is routed through the cache.

use crate::memo::MemoCache;
use crate::scratch::{DapTallies, Scratch};
use crate::{Accelerator, ArchConfig, ArchKind};
use s2ta_dbb::dap::{dap_col_profile_into, DapEvents, LayerNnz};
use s2ta_dbb::{DbbConfig, DbbMatrix};
use s2ta_models::{LayerSpec, ModelSpec};
use s2ta_sim::{ActTallies, ActivationProfile, WeightDesc, WeightProfile};
use s2ta_tensor::Matrix;
use std::sync::Arc;

/// Weights compiled for a specific architecture: dense architectures
/// keep the raw matrix, DBB architectures store the pruned + compressed
/// form. [`Accelerator::compile_weights`] builds them, and a
/// [`LayerPlan`] keeps their [`WeightDesc`] and [`WeightProfile`]; only
/// the paths that multiply weight values hold them — the reference
/// path ([`crate::ExecPath::Reference`]), which compiles them per layer
/// run, and the SA-SMT plans.
#[derive(Debug, Clone, PartialEq)]
pub enum PlannedWeights {
    /// Raw weights for the scalar-datapath architectures (SA, SA-ZVCG,
    /// SA-SMT).
    Dense(Matrix),
    /// DBB-compressed weights for the TPE architectures (S2TA-W,
    /// S2TA-AW); dense-compressed on the unpruned first layer.
    Dbb(DbbMatrix),
}

impl PlannedWeights {
    /// The shape and storage format the profiled datapaths read.
    pub(crate) fn desc(&self) -> WeightDesc {
        match self {
            PlannedWeights::Dense(m) => WeightDesc::dense(m),
            PlannedWeights::Dbb(d) => WeightDesc::of_dbb(d),
        }
    }

    /// The per-position non-zero profile of the effective (post-pruning)
    /// weights.
    pub(crate) fn profile(&self) -> WeightProfile {
        match self {
            PlannedWeights::Dense(m) => WeightProfile::new(m),
            // Straight off the compressed masks — no decompressed copy.
            PlannedWeights::Dbb(d) => WeightProfile::of_dbb(d),
        }
    }
}

/// Whether a layer's weights must stream from DRAM for this run or are
/// already resident in the weight SRAM.
///
/// Memory-bound layers (FC / depthwise at batch 1, paper Sec. 8.3) are
/// clamped to DMA time. When a batched server runs the same layer for
/// several requests back-to-back, only the first request pays the
/// weight transfer — the rest find the weights resident. Activations
/// always stream (they differ per request).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightResidency {
    /// Weights stream from DRAM (the batch-1 semantics of `run_layer`).
    Streamed,
    /// Weights are already on chip; only activations pay DMA time.
    Resident,
}

/// The compiled per-layer state: what the profiled datapaths read of
/// the compiled weights — their [`WeightDesc`] and [`WeightProfile`] —
/// plus the run-time decisions that depend only on the layer, not the
/// input.
///
/// The weight values are dropped after compilation, except on SA-SMT,
/// whose sampled-tile FIFO timing reads them on every call. The
/// reference path ([`crate::ExecPath::Reference`]) recompiles them per
/// layer run from the layer index and weight seed the plan records.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPlan {
    /// Shape, W-DBB configuration and storage size of the weights.
    pub(crate) desc: WeightDesc,
    /// SA-SMT plans only: the raw weight values.
    pub(crate) smt_weights: Option<Matrix>,
    /// The A-DBB decision for this layer (dense on layer 0).
    pub(crate) adbb: LayerNnz,
    /// DRAM bytes one weight transfer costs (compressed estimate for
    /// DBB architectures, matching the runner's memory-bound clamp).
    pub(crate) dma_weight_bytes: u64,
    /// Per-position non-zero profile of the (effective, post-pruning)
    /// weights — a pure function of the compiled weights, baked in here
    /// so the matrix-free event path never re-derives (or
    /// re-decompresses) it per request.
    pub(crate) wprofile: WeightProfile,
    /// The [`Accelerator::compile_weights`] inputs the plan was
    /// compiled from.
    pub(crate) layer_index: usize,
    pub(crate) weight_seed: u64,
}

impl LayerPlan {
    /// The compiled weights' shape and storage format.
    pub fn weight_desc(&self) -> WeightDesc {
        self.desc
    }

    /// The A-DBB decision this plan runs with.
    pub fn adbb(&self) -> LayerNnz {
        self.adbb
    }

    /// The compiled weights' per-position non-zero profile.
    pub fn weight_profile(&self) -> &WeightProfile {
        &self.wprofile
    }
}

/// A whole model compiled for one architecture and weight seed:
/// layer plans in execution order.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelPlan {
    pub(crate) model: String,
    pub(crate) fingerprint: u64,
    pub(crate) weight_seed: u64,
    pub(crate) layers: Vec<LayerPlan>,
}

impl ModelPlan {
    /// Name of the planned model.
    pub(crate) fn model(&self) -> &str {
        &self.model
    }

    /// Per-layer plans, in execution order.
    pub fn layers(&self) -> &[LayerPlan] {
        &self.layers
    }

    /// `true` if this plan was compiled from `model` (same name and
    /// structural fingerprint).
    pub(crate) fn matches(&self, model: &ModelSpec) -> bool {
        self.model == model.name && self.fingerprint == model_fingerprint(model)
    }

    /// A deterministic estimate of the plan's resident bytes: per
    /// layer, the [`LayerPlan`] record, the baked-in weight profile's
    /// `K` `u32` counts and, on SA-SMT only, the raw weight values. This
    /// is the unit [`WeightPlanCache`] byte budgets are accounted in — a
    /// pure function of the compiled shapes, so budget accounting can
    /// never vary with host timing.
    pub(crate) fn approx_bytes(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| {
                let values = l.smt_weights.as_ref().map_or(0, Matrix::len);
                (std::mem::size_of::<LayerPlan>()
                    + std::mem::size_of_val(l.wprofile.counts())
                    + values) as u64
            })
            .sum()
    }
}

/// Bytes of activation data handed from layer `boundary - 1` into layer
/// `boundary`: the `K x N` input activation matrix of the receiving
/// layer (one byte per INT8 element). This is what an inter-stage
/// pipeline handoff must move between lanes.
///
/// # Panics
///
/// Panics if `boundary` is not an interior layer index (`1..layers`).
pub fn stage_handoff_bytes(model: &ModelSpec, boundary: usize) -> u64 {
    assert!(
        boundary >= 1 && boundary < model.layers.len(),
        "boundary {boundary} is not interior to {} layers",
        model.layers.len()
    );
    let gemm = &model.layers[boundary].gemm;
    (gemm.k * gemm.n) as u64
}

/// A stable fingerprint of a model's structure, so cached plans can
/// never be served for a *different* model that reuses a name.
pub(crate) fn model_fingerprint(model: &ModelSpec) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    };
    for b in model.name.bytes() {
        mix(b as u64);
    }
    for l in &model.layers {
        for b in l.name.bytes() {
            mix(b as u64);
        }
        mix(match l.kind {
            s2ta_tensor::LayerKind::Conv => 1,
            s2ta_tensor::LayerKind::Depthwise => 2,
            s2ta_tensor::LayerKind::FullyConnected => 3,
        });
        mix(l.gemm.m as u64);
        mix(l.gemm.k as u64);
        mix(l.gemm.n as u64);
        mix(l.weight_sparsity.to_bits());
        mix(l.act_sparsity.to_bits());
    }
    h
}

/// A fingerprint of the **entire** accelerator configuration, so two
/// accelerators only ever share a cache entry when their configs are
/// identical. Deliberately conservative: plan compilation today reads
/// only `kind.uses_wdbb()`, the W-DBB bound and `geometry.bz`, but
/// hashing every field (via the derived `Debug` form, which includes
/// any field added later) means a future plan-relevant knob can never
/// silently alias two different configs onto one plan — at worst, two
/// configs differing only in plan-irrelevant fields compile the same
/// plan twice. The cache is in-memory only, so the fingerprint never
/// needs to be stable across builds.
pub(crate) fn plan_scope_fingerprint(config: &ArchConfig) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in format!("{config:?}").bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// (arch kind, plan-scope fingerprint, model structure fingerprint,
// weight seed). The model *name* is not part of the key — the structure
// fingerprint already mixes it in (see [`model_fingerprint`]) — so key
// construction is `Copy`-only and a steady-state lookup allocates
// nothing.
type PlanKey = (ArchKind, u64, u64, u64);

/// A thread-safe memo table of compiled [`ModelPlan`]s.
///
/// The cache is keyed by `(arch, model, weight seed)` — the
/// architecture kind plus a fingerprint of its plan-relevant
/// configuration, a structural fingerprint of the model (which mixes in
/// its name), and the weight seed — so one table can be shared by
/// accelerators of *different* architectures (a heterogeneous serving
/// fleet) without ever serving a mismatched plan. Every clone of an
/// [`Accelerator`] shares its cache, so repeated `run_model` calls —
/// and every lane of a serving fleet — compile each
/// `(arch, model, seed)` triple's layers exactly once (ever when
/// unbounded, per residency when a byte budget evicts). Budgets are
/// accounted in `ModelPlan::approx_bytes`; see [`MemoCache`] for the
/// locking and eviction rules.
pub type WeightPlanCache = MemoCache<PlanKey, ModelPlan>;

impl WeightPlanCache {
    /// Returns the cached plan for `(model, weight_seed)`, compiling it
    /// with `acc` on first use.
    ///
    /// Every architecture is memoized, dense ones included. A dense
    /// plan is just the raw weights' profile and shape (SA-SMT: the
    /// raw matrix too), but regenerating it once per batch was the
    /// dominant steady-state host cost of dense lanes — caching it
    /// trades resident bytes (bounded by
    /// [`MemoCache::with_byte_budget`], which can still evict it under
    /// pressure) for an allocation-free hot loop.
    /// Dense compiles count as `bypasses`, DBB compiles as `misses`;
    /// hits are counted uniformly.
    pub(crate) fn get_or_plan(
        &self,
        acc: &Accelerator,
        model: &ModelSpec,
        weight_seed: u64,
    ) -> Arc<ModelPlan> {
        let kind = acc.config().kind;
        let key = (kind, acc.plan_scope(), model_fingerprint(model), weight_seed);
        self.get_or_compile(
            key,
            !kind.uses_wdbb(),
            || acc.plan_model_uncached(model, weight_seed),
            ModelPlan::approx_bytes,
        )
    }
}

/// A stable fingerprint of everything a layer's synthetic activation
/// matrix depends on (`LayerSpec::gen_acts` reads the layer name, the
/// `K x N` shape and the activation sparsity), so cached activation
/// profiles can never be served for a different layer.
fn layer_act_fingerprint(layer: &LayerSpec) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    };
    for b in layer.name.bytes() {
        mix(b as u64);
    }
    mix(layer.gemm.k as u64);
    mix(layer.gemm.n as u64);
    mix(layer.act_sparsity.to_bits());
    h
}

/// (layer activation fingerprint, act seed, [`dap_scope`] of the DBB
/// block size and A-DBB decision): 24 bytes per hash bucket.
type ActKey = (u64, u64, u64);

/// Packs a `(bz, adbb)` DAP scope into one key word: the block size in
/// the high half, the A-DBB bound plus one in the low half (zero for
/// dense), so distinct scopes never collide.
///
/// # Panics
///
/// Panics if `bz` or the bound does not fit 32 bits.
fn dap_scope(bz: usize, adbb: LayerNnz) -> u64 {
    let half = |v: usize| u64::from(u32::try_from(v).expect("DAP scope exceeds 32 bits"));
    let bound = match adbb {
        LayerNnz::Dense => 0,
        LayerNnz::Prune(n) => half(n.saturating_add(1)),
    };
    half(bz) << 32 | bound
}

/// The compiled activation-side operand state for one `(layer, act
/// seed)` under one `(bz, adbb)` scope: everything the matrix-free
/// event paths need, with the dense `K x N` matrix itself discarded
/// after profiling.
///
/// Both sides come from one pass of the fused `dap_col_profile` kernel
/// over one generated activation matrix: the raw-activation profile
/// (read by the dense-activation datapaths: SA, SA-ZVCG, SA-SMT,
/// S2TA-W) and the post-DAP profile (read by the A-DBB datapath,
/// S2TA-AW). The kernel counts in `u16`; the entry keeps both sides in
/// one allocation at the narrowest width that holds its largest tally
/// (bits, bytes or `u16`, see `s2ta_sim::profile`). When DAP is
/// bypassed (a dense A-DBB decision, or a bound at or above `bz`) the
/// two sides are equal, and the entry stores one. Neither side
/// depends on the array's tiling, so lanes of every geometry that
/// share a `(bz, adbb)` scope share the entry, each reading its side.
#[derive(Debug, PartialEq, Eq)]
pub struct ActProfile {
    /// Side 0: the raw activation; side 1: the DAP-pruned one, unless
    /// DAP was bypassed and side 0 serves as both.
    tallies: ActivationProfile,
    /// The DBB configuration DAP compresses under at this `(bz, adbb)`.
    dap_config: DbbConfig,
    /// DAP hardware events of the pruning pass.
    dap_events: DapEvents,
}

impl ActProfile {
    /// Profiles `acts` under the `(bz, adbb)` DAP scope: one pass of the
    /// fused raw + DAP tally kernel into `tallies`, then one narrowing
    /// pass over the stored counts into the entry's single allocation.
    fn new(acts: &Matrix, bz: usize, adbb: LayerNnz, tallies: &mut DapTallies) -> Self {
        let DapTallies { raw, postdap } = tallies;
        let (dap_events, dap_config) = dap_col_profile_into(acts, bz, adbb, raw, postdap);
        let sides: &[&[u16]] = if dap_config.is_dense() { &[raw] } else { &[raw, postdap] };
        Self { tallies: ActivationProfile::from_sides(sides), dap_config, dap_events }
    }

    /// The entry's resident tally bytes: each stored side at the
    /// stored width — one bit per reduction position and side when
    /// every tally is 0 or 1, a byte when the largest fits a `u8`, two
    /// otherwise (bit sides round up to whole 64-bit words). The unit
    /// [`ActProfileCache`] byte budgets are accounted in — a pure
    /// function of the profiled counts, so budget accounting can never
    /// vary with host timing.
    pub(crate) fn approx_bytes(&self) -> u64 {
        self.tallies.tally_bytes() as u64
    }

    /// Per-position profile of the raw activation.
    pub fn dense(&self) -> ActTallies<'_> {
        self.tallies.side(0)
    }

    /// Per-position profile of the DAP-pruned activation, derived
    /// without materializing the pruned matrix: the raw profile when
    /// DAP was bypassed.
    pub fn postdap(&self) -> ActTallies<'_> {
        self.tallies.side(usize::from(!self.dap_config.is_dense()))
    }

    /// The DBB configuration DAP compresses the activation under.
    pub(crate) fn dap_config(&self) -> DbbConfig {
        self.dap_config
    }

    /// DAP hardware events of the pruning pass.
    pub(crate) fn dap_events(&self) -> DapEvents {
        self.dap_events
    }
}

/// A thread-safe memo table of [`ActProfile`]s — the activation-side
/// analog of [`WeightPlanCache`].
///
/// Activations are a pure function of `(layer, act seed)`, and their
/// profiles additionally of the `(bz, adbb)` DAP scope — all
/// host-knowable, so each entry's two sides (raw and post-DAP) are
/// compiled **once**, together, and every re-simulation of the same
/// request (hedged duplicates on a second lane, pipeline calibration
/// probes, warm/cold residency variants that differ only in DMA
/// accounting) replays them without regenerating, pruning or profiling
/// the dense matrix. Shared fleet-wide like the weight-plan cache: the
/// profiles do not depend on tile shapes, so lanes of every
/// architecture kind with the same block size share entries, each
/// reading its own side. Each entry stores its tallies narrow — a
/// batch-1 FC layer's in one bit per position — and byte budgets are
/// accounted in those narrow bytes (`ActProfile::approx_bytes`).
pub type ActProfileCache = MemoCache<ActKey, ActProfile>;

impl ActProfileCache {
    /// Returns the cached profile for `(layer, act_seed)` under the
    /// `(bz, adbb)` scope. A miss generates the activation matrix into
    /// `scratch`'s recycled buffer (handed back afterwards) and
    /// profiles it into the arena's tally buffers, so with a warm arena
    /// a miss allocates only the entry and its one narrow tally buffer,
    /// and a hit nothing. Every lookup is memoized, so `bypasses` stays
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics if `bz` is zero, `bz` or the A-DBB bound does not fit
    /// 32 bits, or the layer's activation has more than `u16::MAX`
    /// columns.
    pub fn get_or_profile(
        &self,
        layer: &LayerSpec,
        act_seed: u64,
        bz: usize,
        adbb: LayerNnz,
        scratch: &mut Scratch,
    ) -> Arc<ActProfile> {
        self.lookup(layer, act_seed, bz, adbb, || {
            let acts = layer.gen_acts_into(act_seed, std::mem::take(&mut scratch.acts));
            let profile = ActProfile::new(&acts, bz, adbb, &mut scratch.tallies);
            scratch.acts = acts.into_data();
            profile
        })
    }

    /// Like [`ActProfileCache::get_or_profile`], but a miss profiles
    /// `acts` — the caller's already-materialized copy of this entry's
    /// activation matrix — instead of regenerating it. Used by the SMT
    /// path, which needs the matrix for its sampled FIFO timing anyway.
    pub(crate) fn get_or_profile_from(
        &self,
        layer: &LayerSpec,
        act_seed: u64,
        bz: usize,
        adbb: LayerNnz,
        acts: &Matrix,
        tallies: &mut DapTallies,
    ) -> Arc<ActProfile> {
        debug_assert_eq!((acts.rows(), acts.cols()), (layer.gemm.k, layer.gemm.n));
        self.lookup(layer, act_seed, bz, adbb, || ActProfile::new(acts, bz, adbb, tallies))
    }

    fn lookup(
        &self,
        layer: &LayerSpec,
        act_seed: u64,
        bz: usize,
        adbb: LayerNnz,
        compile: impl FnOnce() -> ActProfile,
    ) -> Arc<ActProfile> {
        let key = (layer_act_fingerprint(layer), act_seed, dap_scope(bz, adbb));
        self.get_or_compile(key, false, compile, ActProfile::approx_bytes)
    }
}

impl Accelerator {
    /// Compiles one layer's weights for this architecture: the
    /// layer's synthetic weights drawn from `weight_seed`, W-DBB pruned
    /// and compressed on the TPE architectures. Every plan and every
    /// reference-path run compiles its weights with this one recipe.
    ///
    /// `layer_index` 0 selects the dense-weight fall-back (the paper
    /// leaves layer 1 unpruned, Table 3 note 2).
    pub fn compile_weights(
        &self,
        layer: &LayerSpec,
        layer_index: usize,
        weight_seed: u64,
    ) -> PlannedWeights {
        let w = layer.gen_weights(weight_seed);
        if self.config().kind.uses_wdbb() {
            PlannedWeights::Dbb(self.compress_weights(&w, layer_index == 0))
        } else {
            PlannedWeights::Dense(w)
        }
    }

    /// Compiles one layer's plan for this architecture.
    ///
    /// `layer_index` 0 selects the dense-weight fall-back (see
    /// [`Accelerator::compile_weights`]) and a dense A-DBB decision.
    pub fn plan_layer(&self, layer: &LayerSpec, layer_index: usize, weight_seed: u64) -> LayerPlan {
        let weights = self.compile_weights(layer, layer_index, weight_seed);
        let first_layer = layer_index == 0;
        let desc = weights.desc();
        let elements = desc.rows() * desc.k();
        let dma_weight_bytes = if self.config().kind.uses_wdbb() && !first_layer {
            (elements as f64 * self.config().wdbb.block_bytes() as f64
                / self.config().wdbb.bz() as f64) as u64
        } else {
            elements as u64
        };
        // Bake the profile of the *effective* weights (after any W-DBB
        // pruning) at compile time: it rides the plan cache, so the
        // events-only path replays it for free.
        let wprofile = weights.profile();
        let smt_weights = match (self.config().kind, weights) {
            (ArchKind::SaSmtT2Q2 | ArchKind::SaSmtT2Q4, PlannedWeights::Dense(w)) => Some(w),
            _ => None,
        };
        let adbb = if first_layer { LayerNnz::Dense } else { layer.suggested_adbb() };
        LayerPlan { desc, smt_weights, adbb, dma_weight_bytes, wprofile, layer_index, weight_seed }
    }

    /// Compiles every layer of `model` (no cache). Prefer
    /// [`Accelerator::plan_model`], which memoizes.
    pub(crate) fn plan_model_uncached(&self, model: &ModelSpec, weight_seed: u64) -> ModelPlan {
        let layers = model
            .layers
            .iter()
            .enumerate()
            .map(|(i, l)| self.plan_layer(l, i, weight_seed))
            .collect();
        ModelPlan {
            model: model.name.to_string(),
            fingerprint: model_fingerprint(model),
            weight_seed,
            layers,
        }
    }

    /// Returns this accelerator's compiled plan for `(model,
    /// weight_seed)`, memoized in the shared [`WeightPlanCache`].
    pub fn plan_model(&self, model: &ModelSpec, weight_seed: u64) -> Arc<ModelPlan> {
        self.plans().get_or_plan(self, model, weight_seed)
    }

    /// DMA cycles one streaming pass of a memory-bound layer's operands
    /// costs: weights (unless already resident) plus the `a_bytes`
    /// activation footprint, at the configured DMA rate. A sub-rate
    /// tail still occupies a full bus cycle (`div_ceil` — a truncating
    /// division here priced partial transfers at zero).
    pub(crate) fn dma_clamp_cycles(
        &self,
        plan: &LayerPlan,
        a_bytes: u64,
        residency: WeightResidency,
    ) -> u64 {
        // SRAM re-read counts in the datapath events already cover
        // on-chip traffic; this bounds *time*. Resident weights were
        // paid for by an earlier request in the batch.
        let w_bytes = match residency {
            WeightResidency::Streamed => plan.dma_weight_bytes,
            WeightResidency::Resident => 0,
        };
        (w_bytes + a_bytes).div_ceil(self.config().dma_bytes_per_cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArchKind, CacheStats, ExecPath, LayerReport, ModelReport};
    use s2ta_models::{lenet5, mobilenet_v1};

    #[test]
    fn planned_run_is_bit_exact_with_unplanned() {
        for kind in [ArchKind::SaZvcg, ArchKind::S2taW, ArchKind::S2taAw] {
            let acc = Accelerator::preset(kind);
            let reference = Accelerator::preset(kind).with_exec_path(ExecPath::Reference);
            let m = lenet5();
            let plan = acc.plan_model(&m, 17);
            let planned: Vec<LayerReport> = m
                .layers
                .iter()
                .enumerate()
                .map(|(i, l)| {
                    reference.run_layer_planned(&plan.layers[i], l, 17, WeightResidency::Streamed)
                })
                .collect();
            let direct = acc.run_model(&m, 17);
            assert_eq!(
                ModelReport::from_layers(m.name, kind.to_string(), planned),
                direct,
                "{kind}"
            );
        }
    }

    #[test]
    fn cache_compiles_once_and_is_shared_by_clones() {
        let acc = Accelerator::preset(ArchKind::S2taAw);
        let m = lenet5();
        assert!(acc.plans().is_empty());
        let p1 = acc.plan_model(&m, 3);
        let p2 = acc.clone().plan_model(&m, 3);
        assert!(Arc::ptr_eq(&p1, &p2), "clone must share the cache");
        assert_eq!(acc.plans().len(), 1);
        acc.plan_model(&m, 4);
        assert_eq!(acc.plans().len(), 2, "different seed, different plan");
    }

    #[test]
    fn run_model_populates_the_cache() {
        let acc = Accelerator::preset(ArchKind::S2taAw);
        let m = lenet5();
        let r1 = acc.run_model(&m, 5);
        assert_eq!(acc.plans().len(), 1);
        let r2 = acc.run_model(&m, 5);
        assert_eq!(acc.plans().len(), 1, "second run must reuse the plan");
        assert_eq!(r1, r2);
    }

    #[test]
    #[should_panic(expected = "plan was compiled for")]
    fn mismatched_plan_is_rejected() {
        let acc = Accelerator::preset(ArchKind::S2taAw);
        let plan = acc.plan_model(&lenet5(), 3);
        // Same layer count as LeNet-5 would not save this: the check is
        // structural, not positional.
        let other = mobilenet_v1();
        acc.run_model_planned(&plan, &other, 3);
    }

    /// A single cache shared by accelerators of *different*
    /// architectures must key plans by arch: each kind compiles its own
    /// plan exactly once, and neither is served the other's.
    #[test]
    fn shared_cache_keys_plans_by_architecture() {
        let cache = WeightPlanCache::new();
        let w = Accelerator::preset(ArchKind::S2taW).sharing_plans(cache.clone());
        let aw = Accelerator::preset(ArchKind::S2taAw).sharing_plans(cache.clone());
        let m = lenet5();
        let pw = w.plan_model(&m, 3);
        let paw = aw.plan_model(&m, 3);
        assert_eq!(cache.len(), 2, "each arch compiles its own plan");
        assert!(!Arc::ptr_eq(&pw, &paw), "kinds must not share a plan");
        // Second lane of the same kind hits the memo.
        let aw2 = Accelerator::preset(ArchKind::S2taAw).sharing_plans(cache.clone());
        assert!(Arc::ptr_eq(&paw, &aw2.plan_model(&m, 3)));
        assert_eq!(cache.len(), 2);
        // Shared-cache plans are the same plans a private cache builds.
        assert_eq!(*paw, *Accelerator::preset(ArchKind::S2taAw).plan_model(&m, 3));
    }

    /// Same kind, different W-DBB bound: the scope fingerprint keeps
    /// the plans apart even inside one shared cache.
    #[test]
    fn scope_fingerprint_separates_configs_of_one_kind() {
        let cache = WeightPlanCache::new();
        let a = Accelerator::preset(ArchKind::S2taAw).sharing_plans(cache.clone());
        let mut cfg = *Accelerator::preset(ArchKind::S2taAw).config();
        cfg.wdbb = s2ta_dbb::DbbConfig::new(2, 8);
        let b = Accelerator::new(cfg).sharing_plans(cache.clone());
        let m = lenet5();
        let pa = a.plan_model(&m, 3);
        let pb = b.plan_model(&m, 3);
        assert_eq!(cache.len(), 2, "different bounds must not collide");
        assert_ne!(*pa, *pb, "2/8 and 4/8 plans differ");
    }

    #[test]
    fn fingerprint_separates_structures() {
        let a = lenet5();
        let b = mobilenet_v1();
        assert_ne!(model_fingerprint(&a), model_fingerprint(&b));
        let mut c = lenet5();
        c.layers[1].weight_sparsity = 0.9;
        assert_ne!(model_fingerprint(&a), model_fingerprint(&c));
        assert_eq!(model_fingerprint(&a), model_fingerprint(&lenet5()));
    }

    /// Concatenated `run_stage` reports over **every** contiguous
    /// partition of LeNet-5 must reproduce `run_model_planned` (and
    /// therefore `run_model`) byte-for-byte — the golden identity the
    /// serving pipeline relies on.
    #[test]
    fn stage_runs_recompose_run_model_for_every_partition() {
        for kind in [ArchKind::SaZvcg, ArchKind::S2taAw] {
            let acc = Accelerator::preset(kind);
            let m = lenet5();
            let n = m.layers.len();
            let plan = acc.plan_model(&m, 23);
            let direct = acc.run_model(&m, 23);
            // All 2-stage partitions, plus the full per-layer split.
            let mut partitions: Vec<Vec<std::ops::Range<usize>>> =
                (1..n).map(|cut| vec![0..cut, cut..n]).collect();
            partitions.push((0..n).map(|i| i..i + 1).collect());
            partitions.push(std::iter::once(0..n).collect());
            for partition in partitions {
                let layers: Vec<LayerReport> = partition
                    .iter()
                    .flat_map(|r| {
                        acc.run_stage(&plan, &m, r.clone(), 23, WeightResidency::Streamed)
                    })
                    .collect();
                let composed = ModelReport::from_layers(m.name, kind.to_string(), layers);
                assert_eq!(composed, direct, "{kind} partition {partition:?}");
            }
        }
    }

    #[test]
    fn handoff_bytes_price_the_receiving_activation() {
        let m = lenet5();
        for boundary in 1..m.layers.len() {
            let gemm = &m.layers[boundary].gemm;
            assert_eq!(stage_handoff_bytes(&m, boundary), (gemm.k * gemm.n) as u64);
        }
    }

    #[test]
    #[should_panic(expected = "not interior")]
    fn handoff_bytes_reject_exterior_boundaries() {
        stage_handoff_bytes(&lenet5(), 0);
    }

    #[test]
    fn cache_counts_hits_misses_and_bypasses() {
        let cache = WeightPlanCache::new();
        assert_eq!(cache.stats(), CacheStats::default());
        let aw = Accelerator::preset(ArchKind::S2taAw).sharing_plans(cache.clone());
        let m = lenet5();
        aw.plan_model(&m, 3);
        aw.plan_model(&m, 3);
        aw.plan_model(&m, 4);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.bypasses), (1, 2, 0));
        // Dense architectures are memoized too; their compiles count as
        // bypasses, their warm lookups as plain hits.
        let zv = Accelerator::preset(ArchKind::SaZvcg).sharing_plans(cache.clone());
        let d1 = zv.plan_model(&m, 3);
        let d2 = zv.plan_model(&m, 3);
        assert!(Arc::ptr_eq(&d1, &d2), "dense plans are served from the table");
        let s2 = cache.stats();
        assert_eq!((s2.hits, s2.misses, s2.bypasses), (2, 2, 1));
        // Deltas and rates.
        let delta = s2.since(s);
        assert_eq!((delta.hits, delta.misses, delta.bypasses), (1, 0, 1));
        assert_eq!(s2.lookups(), 5, "dense compiles are lookups too");
        assert!((s2.hit_rate() - 0.4).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    /// Threads that look a plan up at the same time share one compile:
    /// the first creates the entry, the rest wait for it as hits.
    #[test]
    fn concurrent_first_lookups_compile_once() {
        let cache = WeightPlanCache::new();
        let aw = Accelerator::preset(ArchKind::S2taAw).sharing_plans(cache.clone());
        let m = lenet5();
        let start = std::sync::Barrier::new(4);
        let plans: Vec<Arc<ModelPlan>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        aw.plan_model(&m, 5)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("lookup thread")).collect()
        });
        assert!(plans.iter().all(|p| Arc::ptr_eq(p, &plans[0])), "one shared plan");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (3, 1));
        assert_eq!(cache.resident_bytes(), plans[0].approx_bytes());
    }

    /// `since` must saturate instead of underflowing: a snapshot kept
    /// across a cache replacement sees *smaller* counters afterwards,
    /// and the delta should clamp to zero rather than panic (debug) or
    /// wrap to ~2^64 (release).
    #[test]
    fn stats_delta_saturates_when_counters_go_backwards() {
        let m = lenet5();
        let old_cache = WeightPlanCache::new();
        let acc = Accelerator::preset(ArchKind::S2taAw).sharing_plans(old_cache.clone());
        acc.plan_model(&m, 1);
        acc.plan_model(&m, 1);
        acc.plan_model(&m, 2);
        let stale = old_cache.stats();
        assert_eq!((stale.hits, stale.misses), (1, 2));
        // The fleet swaps in a fresh cache; a monitor diffing its new
        // stats against the pre-swap snapshot sees counters go backwards.
        let new_cache = WeightPlanCache::new();
        let acc = Accelerator::preset(ArchKind::S2taAw).sharing_plans(new_cache.clone());
        acc.plan_model(&m, 1);
        let fresh = new_cache.stats();
        assert!(fresh.hits < stale.hits && fresh.misses < stale.misses, "counters went backwards");
        let d = fresh.since(stale);
        assert_eq!(d, CacheStats::default(), "backwards counters clamp to zero, field by field");
        // Mixed directions clamp per-field, not globally.
        let later = CacheStats { hits: 5, misses: 1, ..CacheStats::default() };
        let earlier = CacheStats { hits: 2, misses: 4, ..CacheStats::default() };
        let d = later.since(earlier);
        assert_eq!((d.hits, d.misses), (3, 0));
    }

    #[test]
    fn byte_budget_evicts_the_lru_plan_exactly() {
        let m = lenet5();
        // Size three seeds' plans through a scratch unbounded cache.
        let scratch = Accelerator::preset(ArchKind::S2taAw);
        let b: Vec<u64> = (1..=3).map(|s| scratch.plan_model(&m, s).approx_bytes()).collect();
        assert!(b.iter().all(|&x| x > 0));
        // A budget one byte short of all three forces exactly one
        // eviction when the third plan lands.
        let cache = WeightPlanCache::with_byte_budget(b[0] + b[1] + b[2] - 1);
        let acc = Accelerator::preset(ArchKind::S2taAw).sharing_plans(cache.clone());
        let p1 = acc.plan_model(&m, 1);
        let p2 = acc.plan_model(&m, 2);
        assert_eq!((cache.len(), cache.stats().evictions), (2, 0));
        assert_eq!(cache.resident_bytes(), b[0] + b[1]);
        // Touch seed 1 so seed 2 is least recent, then overflow.
        acc.plan_model(&m, 1);
        acc.plan_model(&m, 3);
        let s = cache.stats();
        assert_eq!(cache.len(), 2, "third plan evicted one");
        assert_eq!((s.evictions, s.bytes_evicted), (1, b[1]));
        assert_eq!(cache.resident_bytes(), b[0] + b[2]);
        // Seed 1 survived (hit, same Arc); seed 2 must recompile — to a
        // byte-identical plan.
        let before = cache.stats();
        assert!(Arc::ptr_eq(&p1, &acc.plan_model(&m, 1)));
        assert_eq!(cache.stats().since(before).hits, 1);
        let before = cache.stats();
        let p2b = acc.plan_model(&m, 2);
        assert_eq!(cache.stats().since(before).misses, 1);
        assert!(!Arc::ptr_eq(&p2, &p2b), "evicted plan is a fresh compilation");
        assert_eq!(*p2, *p2b, "recompilation is byte-identical");
    }

    #[test]
    fn tiny_budget_never_evicts_the_just_inserted_plan() {
        let cache = WeightPlanCache::with_byte_budget(0);
        let acc = Accelerator::preset(ArchKind::S2taAw).sharing_plans(cache.clone());
        let m = lenet5();
        acc.plan_model(&m, 1);
        assert_eq!(cache.len(), 1, "a zero budget still serves the working plan");
        assert_eq!(cache.stats().evictions, 0);
        acc.plan_model(&m, 2);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 1, "the older plan paid for the new one");
    }

    #[test]
    fn dap_scopes_pack_without_collisions() {
        let mut keys = std::collections::HashSet::new();
        let mut scopes = 0;
        for bz in 1..=16 {
            for adbb in std::iter::once(LayerNnz::Dense).chain((0..=bz + 1).map(LayerNnz::Prune)) {
                keys.insert(dap_scope(bz, adbb));
                scopes += 1;
            }
        }
        assert_eq!(keys.len(), scopes, "every (bz, adbb) scope keys apart");
        assert_eq!(std::mem::size_of::<ActKey>(), 24);
    }

    #[test]
    fn act_cache_byte_budget_evicts_lru_and_recounts() {
        let m = lenet5();
        let layer = &m.layers[0];
        let mut scratch = Scratch::new();
        let probe = ActProfileCache::new();
        let b = probe.get_or_profile(layer, 1, 8, LayerNnz::Dense, &mut scratch).approx_bytes();
        // conv1's 784 columns push its tallies past the `u8` range, and
        // a dense A-DBB decision bypasses DAP: one side serves as both.
        assert_eq!(b, 2 * layer.gemm.k as u64, "one u16 tally per position");
        // Same layer and scope, tallies past 255 at every seed: every
        // entry costs exactly `b`, so a two-entry budget is exact.
        let cache = ActProfileCache::with_byte_budget(2 * b);
        for seed in [1u64, 2, 1, 3] {
            cache.get_or_profile(layer, seed, 8, LayerNnz::Dense, &mut scratch);
        }
        let s = cache.stats();
        assert_eq!(cache.len(), 2);
        assert_eq!((s.hits, s.misses, s.evictions, s.bytes_evicted), (1, 3, 1, b));
        assert_eq!(cache.resident_bytes(), 2 * b);
        // Seed 2 was least recent and got evicted: 1 and 3 hit, 2
        // re-misses (and evicts the next LRU in turn).
        let before = cache.stats();
        cache.get_or_profile(layer, 1, 8, LayerNnz::Dense, &mut scratch);
        cache.get_or_profile(layer, 3, 8, LayerNnz::Dense, &mut scratch);
        let d = cache.stats().since(before);
        assert_eq!((d.hits, d.misses), (2, 0));
        let before = cache.stats();
        cache.get_or_profile(layer, 2, 8, LayerNnz::Dense, &mut scratch);
        let d = cache.stats().since(before);
        assert_eq!((d.hits, d.misses, d.evictions), (0, 1, 1));
    }

    #[test]
    fn resident_weights_drop_dma_clamp() {
        // LeNet's FC layers are memory bound: a resident-weight run can
        // never be slower, and is strictly faster when DMA dominated.
        let acc = Accelerator::preset(ArchKind::S2taAw);
        let m = lenet5();
        let plan = acc.plan_model(&m, 7);
        let fc = m.layers.iter().position(|l| l.is_memory_bound()).expect("lenet has FC");
        let streamed =
            acc.run_layer_planned(&plan.layers[fc], &m.layers[fc], 7, WeightResidency::Streamed);
        let resident =
            acc.run_layer_planned(&plan.layers[fc], &m.layers[fc], 7, WeightResidency::Resident);
        assert!(resident.events.cycles <= streamed.events.cycles);
        assert_eq!(resident.events.macs_active, streamed.events.macs_active);
    }
}
