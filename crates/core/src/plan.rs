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
//!   weight seed.
//! * [`WeightPlanCache`] — the memo table of [`ModelPlan`]s, shared by
//!   every clone of an [`Accelerator`] and by the serving fleet's
//!   workers (`s2ta-serve`).
//! * [`ActProfile`] / [`ActProfileCache`] — the activation-side
//!   counterpart: compiled strip profiles of one request's activation
//!   input, memoized the same way.
//!
//! Both caches are instances of the one generic [`MemoCache`]; this
//! module supplies only their keys and compile recipes. Planned runs
//! are bit-exact with the unplanned paths: `run_model` is itself
//! routed through the cache.

use crate::memo::MemoCache;
use crate::scratch::Scratch;
use crate::{Accelerator, ArchConfig, ArchKind, LayerReport};
use s2ta_dbb::dap::{dap_col_profile, DapEvents, LayerNnz};
use s2ta_dbb::{DbbConfig, DbbMatrix};
use s2ta_models::{LayerSpec, ModelSpec};
use s2ta_sim::{ColStripProfile, RowStripProfile};
use s2ta_tensor::Matrix;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Weights compiled for a specific architecture: dense architectures
/// keep the raw matrix, DBB architectures store the pruned + compressed
/// form.
#[derive(Debug, Clone, PartialEq)]
pub enum PlannedWeights {
    /// Raw weights for the scalar-datapath architectures (SA, SA-ZVCG,
    /// SA-SMT).
    Dense(Matrix),
    /// DBB-compressed weights for the TPE architectures (S2TA-W,
    /// S2TA-AW); dense-compressed on the unpruned first layer.
    Dbb(DbbMatrix),
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

/// The compiled per-layer state: weights in their datapath format plus
/// the run-time decisions that depend only on the layer, not the input.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPlan {
    pub(crate) weights: PlannedWeights,
    /// The A-DBB decision for this layer (dense on layer 0).
    pub(crate) adbb: LayerNnz,
    /// DRAM bytes one weight transfer costs (compressed estimate for
    /// DBB architectures, matching the runner's memory-bound clamp).
    pub(crate) dma_weight_bytes: u64,
    /// Row-strip non-zero profile of the (effective, post-pruning)
    /// weights at the architecture's tile height — a pure function of
    /// the compiled weights, baked in here so the matrix-free event
    /// path never re-derives (or re-decompresses) it per request.
    pub(crate) wprofile: RowStripProfile,
}

impl LayerPlan {
    /// The compiled weights.
    pub fn weights(&self) -> &PlannedWeights {
        &self.weights
    }

    /// The A-DBB decision this plan runs with.
    pub fn adbb(&self) -> LayerNnz {
        self.adbb
    }

    /// DRAM bytes one streamed weight transfer costs.
    pub fn dma_weight_bytes(&self) -> u64 {
        self.dma_weight_bytes
    }

    /// The compiled weights' row-strip non-zero profile (strip height =
    /// the compiling architecture's output-tile rows).
    pub fn weight_profile(&self) -> &RowStripProfile {
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
    pub fn model(&self) -> &str {
        &self.model
    }

    /// The weight seed the plan was compiled from.
    pub fn weight_seed(&self) -> u64 {
        self.weight_seed
    }

    /// Per-layer plans, in execution order.
    pub fn layers(&self) -> &[LayerPlan] {
        &self.layers
    }

    /// `true` if this plan was compiled from `model` (same name and
    /// structural fingerprint).
    pub fn matches(&self, model: &ModelSpec) -> bool {
        self.model == model.name && self.fingerprint == model_fingerprint(model)
    }

    /// A deterministic estimate of the plan's resident bytes: per
    /// layer, the weight storage (raw bytes for dense plans, compressed
    /// DBB storage otherwise) plus the baked-in row-strip profile's
    /// `u32` counts. This is the unit [`WeightPlanCache`] byte budgets
    /// are accounted in — a pure function of the compiled shapes, so
    /// budget accounting can never vary with host timing.
    pub fn approx_bytes(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| {
                let weights = match &l.weights {
                    PlannedWeights::Dense(m) => m.len() as u64,
                    PlannedWeights::Dbb(d) => d.storage_bytes() as u64,
                };
                let profile: u64 =
                    (0..l.wprofile.strips()).map(|s| l.wprofile.strip(s).len() as u64 * 4).sum();
                weights + profile
            })
            .sum()
    }

    /// Splits the plan's layer list into at most `stages` contiguous,
    /// non-empty ranges that **minimize the maximum per-stage cost**,
    /// where `layer_cost(i)` prices layer `i` (cycles, MACs — any
    /// additive cost). The ranges cover every layer in order, so
    /// executing them back-to-back with [`Accelerator::run_stage`]
    /// recomposes [`Accelerator::run_model_planned`] exactly.
    ///
    /// The split is deterministic: exact dynamic programming over
    /// prefix sums, ties resolved toward the earliest cut. When the
    /// plan has fewer layers than `stages`, every layer becomes its own
    /// stage.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is zero or the plan has no layers.
    pub fn stage_split(
        &self,
        stages: usize,
        layer_cost: impl Fn(usize) -> u64,
    ) -> Vec<Range<usize>> {
        let n = self.layers.len();
        assert!(stages > 0, "a pipeline needs at least one stage");
        assert!(n > 0, "cannot stage-split an empty plan");
        let k = stages.min(n);
        // Prefix sums: cost of layers [a, b) = prefix[b] - prefix[a].
        let mut prefix = vec![0u64; n + 1];
        for i in 0..n {
            prefix[i + 1] = prefix[i].saturating_add(layer_cost(i));
        }
        let span = |a: usize, b: usize| prefix[b] - prefix[a];
        // dp[s][i]: minimum possible max-stage-cost covering the first
        // `i` layers with exactly `s` stages; cut[s][i] the first cut
        // achieving it (earliest optimal cut for determinism).
        let mut dp = vec![vec![u64::MAX; n + 1]; k + 1];
        let mut cut = vec![vec![0usize; n + 1]; k + 1];
        for (i, slot) in dp[1].iter_mut().enumerate().skip(1) {
            *slot = span(0, i);
        }
        for s in 2..=k {
            for i in s..=n {
                for j in (s - 1)..i {
                    let cost = dp[s - 1][j].max(span(j, i));
                    if cost < dp[s][i] {
                        dp[s][i] = cost;
                        cut[s][i] = j;
                    }
                }
            }
        }
        // Walk the cuts back into ranges.
        let mut bounds = vec![n];
        let mut i = n;
        for s in (2..=k).rev() {
            i = cut[s][i];
            bounds.push(i);
        }
        bounds.push(0);
        bounds.reverse();
        bounds.windows(2).map(|w| w[0]..w[1]).collect()
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
/// accounted in [`ModelPlan::approx_bytes`]; see [`MemoCache`] for the
/// locking and eviction rules.
pub type WeightPlanCache = MemoCache<PlanKey, ModelPlan>;

impl WeightPlanCache {
    /// Returns the cached plan for `(model, weight_seed)`, compiling it
    /// with `acc` on first use.
    ///
    /// Every architecture is memoized, dense ones included. Dense
    /// "plans" are just the regenerable raw weight matrices, but
    /// regenerating them once per batch was the dominant steady-state
    /// host cost of dense lanes — caching them trades resident bytes
    /// (bounded by [`MemoCache::with_byte_budget`], which can still
    /// evict them under pressure) for an allocation-free hot loop.
    /// Dense compiles count as `bypasses`, DBB compiles as `misses`;
    /// hits are counted uniformly.
    pub fn get_or_plan(
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

// (layer activation fingerprint, act seed, column-strip width, DBB
// block size, A-DBB decision)
type ActKey = (u64, u64, usize, usize, LayerNnz);

/// The post-DAP side of an [`ActProfile`]: the pruned activation's
/// column-strip profile plus the DAP decision and its hardware events.
#[derive(Debug, Clone)]
pub(crate) struct PostDapProfile {
    pub(crate) profile: ColStripProfile,
    /// The DBB configuration DAP compresses under at this `(bz, adbb)`.
    pub(crate) config: DbbConfig,
    /// DAP hardware events of the pruning pass.
    pub(crate) events: DapEvents,
}

/// Both compiled sides of an [`ActProfile`].
#[derive(Debug)]
struct ActSides {
    dense: ColStripProfile,
    postdap: PostDapProfile,
}

/// The compiled activation-side operand state for one `(layer, act
/// seed)` under one `(strip width, bz, adbb)` scope: everything the
/// matrix-free event paths need, with the dense `K x N` matrix itself
/// discarded after profiling.
///
/// Both sides compile **together, once, on first use** (a blocking
/// `OnceLock::get_or_init`, so concurrent users compute them exactly
/// once): one activation generation feeds one pass of the fused
/// `dap_col_profile` kernel, which tallies the raw-activation profile
/// (read by the dense-activation datapaths: SA, SA-ZVCG, SA-SMT,
/// S2TA-W) and the post-DAP profile (read by the A-DBB datapath,
/// S2TA-AW) side by side. Whichever side a lane asks for first, the
/// other is then free, so lanes that share a cache key (the SA baseline
/// and S2TA-AW tile identically) never regenerate the matrix.
#[derive(Debug)]
pub struct ActProfile {
    /// The generating layer plus the scope parameters — the recipe the
    /// compile regenerates the activation matrix from.
    layer: LayerSpec,
    act_seed: u64,
    strip_cols: usize,
    bz: usize,
    adbb: LayerNnz,
    sides: OnceLock<ActSides>,
}

impl ActProfile {
    fn new(layer: LayerSpec, act_seed: u64, strip_cols: usize, bz: usize, adbb: LayerNnz) -> Self {
        Self { layer, act_seed, strip_cols, bz, adbb, sides: OnceLock::new() }
    }

    /// The profiled activation's `(K, N)` shape.
    pub fn shape(&self) -> (usize, usize) {
        (self.layer.gemm.k, self.layer.gemm.n)
    }

    /// The entry's resident tally bytes once compiled: two column-strip
    /// profiles of `ceil(N / strip_cols)` strips × `K` `u16` counts
    /// each. The unit [`ActProfileCache`] byte budgets are accounted in —
    /// known before the compile, so budget accounting can never vary
    /// with host timing.
    pub fn approx_bytes(&self) -> u64 {
        let (k, n) = self.shape();
        2 * n.div_ceil(self.strip_cols) as u64 * k as u64 * std::mem::size_of::<u16>() as u64
    }

    /// Both sides of `acts`, this entry's activation matrix: one pass of
    /// the fused raw + DAP tally kernel.
    fn compile(&self, acts: &Matrix) -> ActSides {
        let dap = dap_col_profile(acts, self.bz, self.adbb, self.strip_cols);
        ActSides {
            dense: ColStripProfile::from_flat(dap.raw, dap.strips, dap.k),
            postdap: PostDapProfile {
                profile: ColStripProfile::from_flat(dap.counts, dap.strips, dap.k),
                config: dap.config,
                events: dap.events,
            },
        }
    }

    /// Both sides, compiled on first use from a freshly generated matrix.
    fn sides(&self) -> &ActSides {
        self.sides.get_or_init(|| self.compile(&self.layer.gen_acts(self.act_seed)))
    }

    /// Both sides, compiled on first use from a matrix generated into
    /// `scratch`'s recycled buffer (handed back afterwards).
    fn sides_with(&self, scratch: &mut Scratch) -> &ActSides {
        self.sides.get_or_init(|| {
            let acts = self.layer.gen_acts_into(self.act_seed, std::mem::take(&mut scratch.acts));
            let sides = self.compile(&acts);
            scratch.acts = acts.into_data();
            sides
        })
    }

    /// Column-strip profile of the raw activation (one generation and
    /// one fused profiling pass for both sides, ever).
    pub fn dense(&self) -> &ColStripProfile {
        &self.sides().dense
    }

    /// Like [`ActProfile::dense`], but compiles from `acts` — the
    /// caller's already-materialized copy of this entry's activation
    /// matrix — when the entry is cold, skipping the regeneration. Used
    /// by the SMT path, which needs the matrix for its sampled FIFO
    /// timing anyway.
    pub(crate) fn dense_from(&self, acts: &Matrix) -> &ColStripProfile {
        debug_assert_eq!((acts.rows(), acts.cols()), self.shape());
        &self.sides.get_or_init(|| self.compile(acts)).dense
    }

    /// Column-strip profile of the DAP-pruned activation, derived
    /// without materializing the pruned matrix (same single compile as
    /// [`ActProfile::dense`]).
    pub fn postdap(&self) -> &ColStripProfile {
        &self.postdap_side().profile
    }

    pub(crate) fn postdap_side(&self) -> &PostDapProfile {
        &self.sides().postdap
    }

    /// Like [`ActProfile::dense`], but a cold compile stages the
    /// regenerated activation matrix in `scratch` (returning the
    /// storage afterwards), so with a warm arena a cold compile
    /// allocates only its two tally vectors and a warm lookup nothing.
    pub fn dense_with(&self, scratch: &mut Scratch) -> &ColStripProfile {
        &self.sides_with(scratch).dense
    }

    /// [`ActProfile::postdap_side`] through a [`Scratch`] arena, as
    /// [`ActProfile::dense_with`].
    pub(crate) fn postdap_side_with(&self, scratch: &mut Scratch) -> &PostDapProfile {
        &self.sides_with(scratch).postdap
    }
}

/// A thread-safe memo table of [`ActProfile`]s — the activation-side
/// analog of [`WeightPlanCache`].
///
/// Activations are a pure function of `(layer, act seed)`, and their
/// strip profiles additionally of the array's column-strip width and
/// the `(bz, adbb)` DAP scope — all host-knowable, so each entry's two
/// sides (raw and post-DAP) are compiled **once**, together, and every
/// re-simulation of the same request (hedged duplicates on a second
/// lane, pipeline calibration probes, warm/cold residency variants that
/// differ only in DMA accounting) replays them without regenerating,
/// pruning or profiling the dense matrix. Shared fleet-wide like the
/// weight-plan cache: lanes whose geometries agree on `(tile_cols, bz)`
/// — e.g. the paper's SA baseline and S2TA-AW design points — share
/// entries even across architecture kinds, each reading its own side.
/// Byte budgets are accounted in [`ActProfile::approx_bytes`].
pub type ActProfileCache = MemoCache<ActKey, ActProfile>;

impl ActProfileCache {
    /// Returns the cached profile for `(layer, act_seed)` under the
    /// `(strip_cols, bz, adbb)` scope, creating the entry on first use
    /// (entry creation is cheap — both profile sides compile together on
    /// first side use, see [`ActProfile`]). Every lookup is memoized, so
    /// `bypasses` stays zero.
    ///
    /// # Panics
    ///
    /// Panics if `strip_cols` or `bz` is zero, or `strip_cols` is above
    /// `u16::MAX` (on first side use).
    pub fn get_or_profile(
        &self,
        layer: &LayerSpec,
        act_seed: u64,
        strip_cols: usize,
        bz: usize,
        adbb: LayerNnz,
    ) -> Arc<ActProfile> {
        let key = (layer_act_fingerprint(layer), act_seed, strip_cols, bz, adbb);
        self.get_or_compile(
            key,
            false,
            || ActProfile::new(layer.clone(), act_seed, strip_cols, bz, adbb),
            ActProfile::approx_bytes,
        )
    }
}

impl Accelerator {
    /// Compiles one layer's weights for this architecture.
    ///
    /// `layer_index` 0 selects the dense-weight fall-back (the paper
    /// leaves layer 1 unpruned, Table 3 note 2) and a dense A-DBB
    /// decision.
    pub fn plan_layer(&self, layer: &LayerSpec, layer_index: usize, weight_seed: u64) -> LayerPlan {
        let w = layer.gen_weights(weight_seed);
        let first_layer = layer_index == 0;
        let dma_weight_bytes = if self.config().kind.uses_wdbb() && !first_layer {
            (w.len() as f64 * self.config().wdbb.block_bytes() as f64
                / self.config().wdbb.bz() as f64) as u64
        } else {
            w.len() as u64
        };
        let weights = if self.config().kind.uses_wdbb() {
            PlannedWeights::Dbb(self.compress_weights(&w, first_layer))
        } else {
            PlannedWeights::Dense(w)
        };
        // Bake the row-strip profile of the *effective* weights (after
        // any W-DBB pruning) at compile time: it rides the plan cache,
        // so the events-only path replays it for free.
        let tile_rows = self.config().geometry.tile_rows();
        let wprofile = match &weights {
            PlannedWeights::Dense(m) => RowStripProfile::new(m, tile_rows),
            // Straight off the compressed masks — no decompressed copy.
            PlannedWeights::Dbb(d) => RowStripProfile::of_dbb(d, tile_rows),
        };
        let adbb = if first_layer { LayerNnz::Dense } else { layer.suggested_adbb() };
        LayerPlan { weights, adbb, dma_weight_bytes, wprofile }
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

    /// Runs one layer from its compiled plan on a fresh activation
    /// input drawn from `act_seed`.
    ///
    /// With [`WeightResidency::Streamed`] this is bit-exact with
    /// [`Accelerator::run_layer`] when `act_seed` equals the weight
    /// seed the plan was compiled from.
    pub fn run_layer_planned(
        &self,
        plan: &LayerPlan,
        layer: &LayerSpec,
        act_seed: u64,
        residency: WeightResidency,
    ) -> LayerReport {
        let a = layer.gen_acts(act_seed);
        let mut events = self.run_gemm_planned(&plan.weights, &a, plan.adbb);
        if layer.is_memory_bound() {
            events.cycles =
                events.cycles.max(self.dma_clamp_cycles(plan, a.len() as u64, residency));
        }
        LayerReport { name: layer.name.clone(), macs: layer.macs(), events }
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
    use crate::{ArchKind, CacheStats, ModelReport};
    use s2ta_models::{lenet5, mobilenet_v1};

    #[test]
    fn planned_run_is_bit_exact_with_unplanned() {
        for kind in [ArchKind::SaZvcg, ArchKind::S2taW, ArchKind::S2taAw] {
            let acc = Accelerator::preset(kind);
            let m = lenet5();
            let plan = acc.plan_model(&m, 17);
            let planned: Vec<LayerReport> = m
                .layers
                .iter()
                .enumerate()
                .map(|(i, l)| {
                    acc.run_layer_planned(&plan.layers[i], l, 17, WeightResidency::Streamed)
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
    fn stage_split_balances_and_covers() {
        let acc = Accelerator::preset(ArchKind::S2taAw);
        let m = mobilenet_v1();
        let plan = acc.plan_model(&m, 3);
        let macs: Vec<u64> = m.layers.iter().map(|l| l.macs()).collect();
        for stages in [1usize, 2, 3, 4, 7] {
            let split = plan.stage_split(stages, |i| macs[i]);
            assert_eq!(split.len(), stages.min(m.layers.len()));
            // Contiguous cover in order, every stage non-empty.
            assert_eq!(split[0].start, 0);
            assert_eq!(split.last().unwrap().end, m.layers.len());
            for pair in split.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "stages must tile the layer list");
            }
            assert!(split.iter().all(|r| !r.is_empty()));
        }
        // The DP is optimal: for uniform costs the 4-way split of 28
        // layers is exactly balanced (max stage = 7 layers).
        let even = plan.stage_split(4, |_| 1);
        assert!(even.iter().all(|r| r.len() == 7), "{even:?}");
        // And it actually balances skewed costs better than a naive
        // equal-count split would: one huge layer gets its own stage.
        let skew = plan.stage_split(2, |i| if i == 0 { 1_000 } else { 1 });
        assert_eq!(skew[0], 0..1, "the expensive head layer must sit alone: {skew:?}");
    }

    #[test]
    fn more_stages_never_worsen_the_bottleneck() {
        let acc = Accelerator::preset(ArchKind::S2taAw);
        let m = mobilenet_v1();
        let plan = acc.plan_model(&m, 3);
        let macs: Vec<u64> = m.layers.iter().map(|l| l.macs()).collect();
        let bottleneck = |split: &[std::ops::Range<usize>]| {
            split.iter().map(|r| r.clone().map(|i| macs[i]).sum::<u64>()).max().unwrap()
        };
        let mut prev = u64::MAX;
        for stages in 1..=8 {
            let b = bottleneck(&plan.stage_split(stages, |i| macs[i]));
            assert!(b <= prev, "stage {stages} bottleneck {b} worse than {prev}");
            prev = b;
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
        assert_eq!(cache.byte_budget(), Some(0));
        assert_eq!(WeightPlanCache::new().byte_budget(), None);
    }

    #[test]
    fn act_cache_byte_budget_evicts_lru_and_recounts() {
        let m = lenet5();
        let layer = &m.layers[0];
        let probe = ActProfileCache::new();
        let b = probe.get_or_profile(layer, 1, 8, 8, LayerNnz::Dense).approx_bytes();
        assert!(b > 0);
        // Same layer and scope: every entry costs exactly `b`, so a
        // two-entry budget is exact.
        let cache = ActProfileCache::with_byte_budget(2 * b);
        for seed in [1u64, 2, 1, 3] {
            cache.get_or_profile(layer, seed, 8, 8, LayerNnz::Dense);
        }
        let s = cache.stats();
        assert_eq!(cache.len(), 2);
        assert_eq!((s.hits, s.misses, s.evictions, s.bytes_evicted), (1, 3, 1, b));
        assert_eq!(cache.resident_bytes(), 2 * b);
        // Seed 2 was least recent and got evicted: 1 and 3 hit, 2
        // re-misses (and evicts the next LRU in turn).
        let before = cache.stats();
        cache.get_or_profile(layer, 1, 8, 8, LayerNnz::Dense);
        cache.get_or_profile(layer, 3, 8, 8, LayerNnz::Dense);
        let d = cache.stats().since(before);
        assert_eq!((d.hits, d.misses), (2, 0));
        let before = cache.stats();
        cache.get_or_profile(layer, 2, 8, 8, LayerNnz::Dense);
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
