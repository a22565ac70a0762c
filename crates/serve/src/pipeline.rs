//! Layer-pipelined execution plans: SCNN-style stage dataflow across
//! lanes.
//!
//! A monolithic serving fleet executes every inference as one
//! lane-occupancy block, so a deep model serializes a whole lane per
//! batch and a mixed fleet idles while a long model hogs its lane. A
//! [`PipelinePlan`] instead partitions a model into K contiguous layer
//! **stages**, pins each stage to a distinct lane, and lets a batch
//! flow through the stage lanes in order — stage `s` of batch `b`
//! overlaps stage `s+1` of batch `b-1`, the tiled dataflow SCNN
//! (Parashar et al., ISCA'17) uses to keep heterogeneous compute
//! saturated.
//!
//! The partitioner works in two deterministic steps:
//!
//! 1. **Calibrate** — every distinct lane configuration simulates each
//!    layer once at batch 1 (a pure probe: the cycle numbers are the
//!    split's cost model, nothing enters the serving report).
//! 2. **Split + place jointly** — an exact dynamic program over
//!    `(layers covered, lanes consumed per scope)` cuts the layer list
//!    into at most K contiguous ranges *and* picks each range's lane
//!    scope at once, minimizing the bottleneck stage (the steady-state
//!    pipeline period). Sizing each stage to the speed of the lane
//!    that will run it is what makes the **cross-arch** pipeline fall
//!    out: dense-leaning early convs land on the SA-ZVCG lanes while
//!    the sparse-heavy tail lands on S2TA-AW. (Splitting first by one
//!    cost vector and placing after — the right tool on a homogeneous
//!    fleet — plants balanced stages on slow lanes and the bottleneck
//!    blows up.)
//!
//! Stage boundaries also carry a cost: the receiving layer's `K x N`
//! activation matrix must move between lanes, priced at the receiving
//! lane's DMA rate ([`PipelinePlan::handoff_cycles`]). The serving
//! engine bounds the activations queued at each boundary (the
//! `queue_capacity` of [`crate::PlacementStrategy::Pipelined`]), so an
//! upstream stage stalls instead of running unboundedly ahead of a
//! slow consumer.
//!
//! Everything a pipelined serving run keeps beyond the lanes' own
//! clocks lives in one `PipelineState`, which only an engine serving a
//! pipelined fleet carries: the partitioned plans, the boundary queues,
//! each lane's warm stage, and the per-stage occupancy the report
//! shows.

use crate::fleet::{Lane, StageRun};
use crate::report::PipelineStageStats;
use s2ta_core::{pool, stage_handoff_bytes, Scratch, WeightResidency};
use s2ta_models::ModelSpec;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::Range;

/// One pipeline stage: a contiguous layer range pinned to a lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct StageAssignment {
    /// The layers this stage executes, in order.
    pub layers: Range<usize>,
    /// The fleet lane the stage is pinned to.
    pub lane: usize,
}

/// A model's layer-pipeline: K contiguous stages, each pinned to a
/// distinct lane, plus the inter-stage activation handoff costs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PipelinePlan {
    model: usize,
    stages: Vec<StageAssignment>,
    /// `handoff_cycles[s]`: DMA cycles to move stage `s`'s output
    /// activations onto stage `s+1`'s lane (len = stages - 1).
    handoff_cycles: Vec<u64>,
}

impl PipelinePlan {
    /// Partitions `model` into at most `stages` stages over `lanes`,
    /// balanced and assigned by calibrated per-layer costs (see the
    /// module docs for the two steps).
    ///
    /// The stage count is clamped to the lane count (stages occupy
    /// distinct lanes) and the layer count (a stage is never empty).
    ///
    /// # Panics
    ///
    /// Panics if `stages` is zero, `lanes` is empty, or the model has
    /// no layers.
    pub(crate) fn partition(
        lanes: &[Lane],
        model_index: usize,
        model: &ModelSpec,
        stages: usize,
        weight_seed: u64,
    ) -> Self {
        assert!(stages > 0, "a pipeline needs at least one stage");
        assert!(!lanes.is_empty(), "a pipeline needs at least one lane");
        let k = stages.min(lanes.len()).min(model.layers.len());

        // 1. Calibrate: one batch-1 probe of every layer per distinct
        // lane configuration. Probes are pure simulations; only their
        // cycle counts survive, as the split's costs. They run through
        // `run_stage_events`, each with its own fresh arena, so the
        // probes also warm the fleet's shared activation-profile cache
        // for the calibration seed, and the `(scope, layer)` grid fans
        // out over the host executor. Layers are probed at
        // **resident** weight residency — the pipeline's steady state:
        // a pinned stage lane streams its weights once and then keeps
        // them in SRAM across the whole run, so pricing memory-bound
        // FC/depthwise layers at their cold streamed cost would wildly
        // over-weight them in the split.
        let mut scope_reps: Vec<usize> = Vec::new();
        for (l, lane) in lanes.iter().enumerate() {
            let config = lane.accelerator().config();
            if !scope_reps.iter().any(|&r| lanes[r].accelerator().config() == config) {
                scope_reps.push(l);
            }
        }
        let plans: Vec<_> = scope_reps
            .iter()
            .map(|&r| lanes[r].accelerator().plan_model(model, weight_seed))
            .collect();
        let n_layers = model.layers.len();
        let jobs: Vec<usize> = (0..scope_reps.len() * n_layers).collect();
        let cycles = pool::Executor::global().map(&jobs, |&j| {
            let (s, i) = (j / n_layers, j % n_layers);
            let events = lanes[scope_reps[s]].accelerator().run_stage_events(
                &plans[s],
                model,
                i..i + 1,
                weight_seed,
                WeightResidency::Resident,
                &mut Scratch::new(),
            );
            events.cycles
        });
        let probes: Vec<Vec<u64>> = cycles.chunks(n_layers).map(<[u64]>::to_vec).collect();

        // 2. Split and place **jointly**: an exact DP over (layers
        // covered, lanes consumed per scope) that minimizes the
        // bottleneck stage — the steady-state pipeline period — with
        // total service and stage count as lexicographic tie-breaks.
        // Splitting first and placing after (e.g. balancing by the
        // best-arch cost) plants balanced stages on slow lanes and the
        // bottleneck blows up; the joint DP instead sizes each stage to
        // the speed of the lane that will run it, which is where the
        // cross-arch pipeline (dense-leaning stages on SA lanes,
        // sparse-heavy stages on S2TA lanes) falls out.
        let (split, scope_of_stage) = joint_split(&probes, &scope_counts(lanes, &scope_reps), k);

        // Materialize scopes into concrete lanes, in lane-index order
        // within each scope (deterministic).
        let mut next_of_scope: Vec<usize> = vec![0; scope_reps.len()];
        let lane_of: Vec<usize> = scope_of_stage
            .iter()
            .map(|&scope| {
                let config = lanes[scope_reps[scope]].accelerator().config();
                let lane = lanes
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| l.accelerator().config() == config)
                    .map(|(i, _)| i)
                    .nth(next_of_scope[scope])
                    .expect("DP never over-consumes a scope");
                next_of_scope[scope] += 1;
                lane
            })
            .collect();

        // Boundary handoffs: the receiving layer's activation matrix at
        // the receiving lane's DMA rate.
        let handoff_cycles = (1..split.len())
            .map(|s| {
                let bytes = stage_handoff_bytes(model, split[s].start);
                let rate = lanes[lane_of[s]].accelerator().config().dma_bytes_per_cycle;
                bytes.div_ceil(rate.max(1))
            })
            .collect();

        let stages = split
            .into_iter()
            .zip(lane_of)
            .map(|(layers, lane)| StageAssignment { layers, lane })
            .collect();
        Self { model: model_index, stages, handoff_cycles }
    }

    /// The model index (into the fleet's model list) this plan
    /// partitions.
    pub(crate) fn model(&self) -> usize {
        self.model
    }

    /// The stages, in execution order. Every stage holds a distinct
    /// lane, and the layer ranges tile `0..layers` in order.
    pub(crate) fn stages(&self) -> &[StageAssignment] {
        &self.stages
    }

    /// DMA cycles to hand stage `s`'s output activations to stage
    /// `s+1`'s lane (`len == stages - 1`).
    pub(crate) fn handoff_cycles(&self) -> &[u64] {
        &self.handoff_cycles
    }
}

/// The serving state of layer-pipelined placement, owned by the engine
/// of a pipelined fleet and changed only through its own methods. On
/// such a fleet every lane execution is a stage run recorded here, so
/// the lane idle it tracks is the lanes' whole idle.
#[derive(Debug)]
pub(crate) struct PipelineState {
    /// Stage count requested per model (clamped at partition time).
    stages: usize,
    /// Pending handoffs each inter-stage queue holds.
    queue_capacity: usize,
    /// Lazily partitioned plans per model. A dispatch burst moves its
    /// model's plan out and back, so batches borrow it instead of
    /// copying it.
    plans: HashMap<usize, PipelinePlan>,
    /// Bounded inter-stage activation queues: `(model, boundary)` ->
    /// recent downstream-stage start times (at most `queue_capacity`
    /// retained: only the capacity-th most recent start can ever gate
    /// a future batch).
    boundary_starts: HashMap<(usize, usize), VecDeque<u64>>,
    /// The `(model, stage)` each lane last executed, for warm-weight
    /// residency on pinned stage lanes.
    last_stage_on_lane: Vec<Option<(usize, usize)>>,
    /// Cumulative idle cycles per lane (gaps between consecutive
    /// executions on that lane), so stage stats can attribute true lane
    /// idle — not another model's busy time — as bubbles.
    lane_idle: Vec<u64>,
    /// Per-`(model, stage)` occupancy accumulators.
    stage_stats: BTreeMap<(usize, usize), StageStatsAccum>,
}

/// Accumulator behind one [`PipelineStageStats`] row.
#[derive(Debug, Clone, Default)]
struct StageStatsAccum {
    layers: (usize, usize),
    lane: usize,
    batches: usize,
    requests: usize,
    busy_cycles: u64,
    bubble_cycles: u64,
    handoff_cycles: u64,
    /// The stage's lane's cumulative idle at the end of this stage's
    /// latest execution: the baseline the next execution's bubble delta
    /// is measured from. Counting lane *idle* (not wall time since this
    /// stage's last completion) keeps a shared lane's time on another
    /// model's stage out of this stage's bubbles.
    idle_seen: u64,
}

impl PipelineState {
    /// Empty state for a fleet of `lanes` lanes pipelined into `stages`
    /// stages per model behind `queue_capacity`-slot boundaries.
    pub(crate) fn new(stages: usize, queue_capacity: usize, lanes: usize) -> Self {
        Self {
            stages,
            queue_capacity,
            plans: HashMap::new(),
            boundary_starts: HashMap::new(),
            last_stage_on_lane: vec![None; lanes],
            lane_idle: vec![0; lanes],
            stage_stats: BTreeMap::new(),
        }
    }

    /// The stage count requested per model.
    pub(crate) fn stages(&self) -> usize {
        self.stages
    }

    /// Moves `model`'s plan out, if it was partitioned already.
    pub(crate) fn take_plan(&mut self, model: usize) -> Option<PipelinePlan> {
        self.plans.remove(&model)
    }

    /// Returns a plan taken with [`PipelineState::take_plan`] (or
    /// freshly partitioned) for later bursts.
    pub(crate) fn put_plan(&mut self, plan: PipelinePlan) {
        self.plans.insert(plan.model(), plan);
    }

    /// Whether `lane`'s last execution was stage `stage` of `model`:
    /// its stage weights are then still resident.
    pub(crate) fn is_warm(&self, lane: usize, model: usize, stage: usize) -> bool {
        self.last_stage_on_lane[lane] == Some((model, stage))
    }

    /// Backpressure: the earliest start the bounded queue ahead of stage
    /// `stage` of `model` allows. With the queue full, the stage may
    /// not begin its next batch before the downstream stage began the
    /// batch `queue_capacity` back. The last stage has no queue
    /// ahead of it, so it never gets a floor.
    pub(crate) fn queue_floor(&self, model: usize, stage: usize) -> Option<u64> {
        let history = self.boundary_starts.get(&(model, stage))?;
        (history.len() == self.queue_capacity).then(|| history[0])
    }

    /// Records stage `s` of `plan` as committed to its lane after
    /// `idle` idle cycles, for a batch of `requests`: the lane now holds
    /// the stage's weights, the run joins the stage's stats, and a
    /// downstream start joins the boundary queue ahead of it.
    pub(crate) fn record_stage(
        &mut self,
        plan: &PipelinePlan,
        s: usize,
        run: &StageRun,
        idle: u64,
        requests: usize,
    ) {
        let (model, stage) = (plan.model(), &plan.stages()[s]);
        let lane = stage.lane;
        self.lane_idle[lane] += idle;
        self.last_stage_on_lane[lane] = Some((model, s));
        let stats = self.stage_stats.entry((model, s)).or_insert_with(|| StageStatsAccum {
            layers: (stage.layers.start, stage.layers.end),
            lane,
            ..StageStatsAccum::default()
        });
        stats.batches += 1;
        stats.requests += requests;
        stats.busy_cycles += run.service;
        // A stage's bubbles are the cycles its lane sat *idle* between
        // this stage's consecutive executions. On a lane shared with
        // another model's stage, wall time since this stage's last
        // completion would wrongly charge the other stage's busy cycles
        // here; the per-lane idle accumulator excludes them by
        // construction. (On a single-model pipeline the two accountings
        // coincide exactly.)
        if stats.batches > 1 {
            stats.bubble_cycles += self.lane_idle[lane] - stats.idle_seen;
        }
        stats.idle_seen = self.lane_idle[lane];
        if s > 0 {
            stats.handoff_cycles += plan.handoff_cycles()[s - 1];
            let history = self.boundary_starts.entry((model, s - 1)).or_default();
            history.push_back(run.start);
            if history.len() > self.queue_capacity {
                history.pop_front();
            }
        }
    }

    /// The per-stage occupancy rows of the run, in `(model, stage)`
    /// order.
    pub(crate) fn stage_stats(
        self,
        models: &[ModelSpec],
        lanes: &[Lane],
    ) -> Vec<PipelineStageStats> {
        self.stage_stats
            .into_iter()
            .map(|((model, stage), acc)| PipelineStageStats {
                model: models[model].name.to_string(),
                stage,
                layers: acc.layers,
                lane: acc.lane,
                arch: lanes[acc.lane].arch(),
                batches: acc.batches,
                requests: acc.requests,
                busy_cycles: acc.busy_cycles,
                bubble_cycles: acc.bubble_cycles,
                handoff_cycles: acc.handoff_cycles,
            })
            .collect()
    }
}

/// How many lanes of each distinct scope the fleet has, aligned with
/// `scope_reps`.
fn scope_counts(lanes: &[Lane], scope_reps: &[usize]) -> Vec<usize> {
    scope_reps
        .iter()
        .map(|&r| {
            let config = lanes[r].accelerator().config();
            lanes.iter().filter(|l| l.accelerator().config() == config).count()
        })
        .collect()
}

/// Jointly splits `0..n` layers into at most `max_stages` contiguous
/// stages **and** sizes each stage to the lane scope that will run it:
/// exact dynamic programming over `(layers covered, lanes consumed per
/// scope)`, minimizing `(bottleneck stage cycles, total cycles, stage
/// count)` lexicographically. `probes[scope][layer]` prices each layer
/// on each scope; `counts[scope]` bounds how many stages a scope can
/// host (one lane each).
///
/// Returns the stage ranges (tiling `0..n` in order) and each stage's
/// scope. Deterministic: state iteration order is fixed and ties keep
/// the first (lowest-encoded) solution.
fn joint_split(
    probes: &[Vec<u64>],
    counts: &[usize],
    max_stages: usize,
) -> (Vec<Range<usize>>, Vec<usize>) {
    let n = probes[0].len();
    let scopes = probes.len();
    let prefix: Vec<Vec<u64>> = probes
        .iter()
        .map(|p| {
            let mut pre = vec![0u64; n + 1];
            for (i, &c) in p.iter().enumerate() {
                pre[i + 1] = pre[i].saturating_add(c);
            }
            pre
        })
        .collect();
    // Mixed-radix encoding of per-scope consumption.
    let mut stride = vec![1usize; scopes];
    for s in 1..scopes {
        stride[s] = stride[s - 1] * (counts[s - 1] + 1);
    }
    let states: usize = stride[scopes - 1] * (counts[scopes - 1] + 1);
    // (bottleneck, total service, stages used); lexicographic order is
    // exactly the preference order.
    const INF: (u64, u64, usize) = (u64::MAX, u64::MAX, usize::MAX);
    let mut dp = vec![vec![INF; states]; n + 1];
    // (previous layer boundary, previous state, scope of the stage).
    let mut parent = vec![vec![(0usize, 0usize, 0usize); states]; n + 1];
    dp[0][0] = (0, 0, 0);
    for i in 0..n {
        for state in 0..states {
            let cur = dp[i][state];
            if cur == INF || cur.2 == max_stages {
                continue;
            }
            for scope in 0..scopes {
                let used = state / stride[scope] % (counts[scope] + 1);
                if used == counts[scope] {
                    continue;
                }
                let nstate = state + stride[scope];
                for j in (i + 1)..=n {
                    let cost = prefix[scope][j] - prefix[scope][i];
                    let cand = (cur.0.max(cost), cur.1.saturating_add(cost), cur.2 + 1);
                    if cand < dp[j][nstate] {
                        dp[j][nstate] = cand;
                        parent[j][nstate] = (i, state, scope);
                    }
                }
            }
        }
    }
    let mut state = (0..states)
        .filter(|&s| dp[n][s] != INF)
        .min_by_key(|&s| (dp[n][s], s))
        .expect("one stage always covers the whole model");
    let mut i = n;
    let mut rev: Vec<(Range<usize>, usize)> = Vec::new();
    while i > 0 {
        let (pi, ps, scope) = parent[i][state];
        rev.push((pi..i, scope));
        i = pi;
        state = ps;
    }
    rev.reverse();
    rev.into_iter().unzip()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetSpec;
    use crate::Fleet;
    use s2ta_core::ArchKind;
    use s2ta_models::{lenet5, mobilenet_v1};

    fn partition(fleet: &Fleet, model: &ModelSpec, stages: usize) -> PipelinePlan {
        PipelinePlan::partition(fleet.lanes(), 0, model, stages, 42)
    }

    /// A stage's batch-1 cost at resident weights on the fleet's first
    /// `arch` lane: the price calibration gives each of its layers.
    fn stage_cost(fleet: &Fleet, arch: ArchKind, model: &ModelSpec, layers: Range<usize>) -> u64 {
        let lane = fleet.lanes().iter().find(|l| l.arch() == arch).expect("an arch lane");
        let plan = lane.accelerator().plan_model(model, 42);
        let events = lane.accelerator().run_stage_events(
            &plan,
            model,
            layers,
            42,
            WeightResidency::Resident,
            &mut Scratch::new(),
        );
        events.cycles
    }

    #[test]
    fn stages_tile_the_model_on_distinct_lanes() {
        let fleet =
            Fleet::from_spec(FleetSpec::mixed(&[(ArchKind::S2taAw, 2), (ArchKind::SaZvcg, 2)]));
        let model = mobilenet_v1();
        for stages in [1usize, 2, 4] {
            let plan = partition(&fleet, &model, stages);
            let k = plan.stages().len();
            assert!(
                (1..=stages).contains(&k),
                "the DP may use fewer stages, never more: {k} vs {stages}"
            );
            assert_eq!(plan.handoff_cycles().len(), k - 1);
            assert_eq!(plan.stages()[0].layers.start, 0);
            assert_eq!(plan.stages().last().unwrap().layers.end, model.layers.len());
            for pair in plan.stages().windows(2) {
                assert_eq!(pair[0].layers.end, pair[1].layers.start);
            }
            let mut lanes: Vec<usize> = plan.stages().iter().map(|s| s.lane).collect();
            lanes.sort_unstable();
            lanes.dedup();
            assert_eq!(lanes.len(), k, "stages must occupy distinct lanes");
            // Every stage is a real, priceable layer range on both archs.
            for stage in plan.stages() {
                for arch in [ArchKind::S2taAw, ArchKind::SaZvcg] {
                    assert!(
                        stage_cost(&fleet, arch, &model, stage.layers.clone()) > 0,
                        "{arch} must price {:?}",
                        stage.layers
                    );
                }
            }
        }
        // One stage is always exactly one stage.
        let single = partition(&fleet, &model, 1);
        assert_eq!(single.stages().len(), 1);
        assert_eq!(single.stages()[0].layers, 0..model.layers.len());
    }

    #[test]
    fn stage_count_clamps_to_lanes_and_layers() {
        let fleet = Fleet::new(ArchKind::S2taAw, 2);
        let plan = partition(&fleet, &lenet5(), 8);
        assert!(plan.stages().len() <= 2, "stages clamp to the lane count");
        let wide = Fleet::new(ArchKind::S2taAw, 16);
        let plan = partition(&wide, &lenet5(), 16);
        assert!(plan.stages().len() <= 5, "stages clamp to the layer count");
        assert!(plan.stages().len() >= 2, "splitting strictly reduces the bottleneck here");
    }

    #[test]
    fn partition_is_deterministic() {
        let mk =
            || Fleet::from_spec(FleetSpec::mixed(&[(ArchKind::S2taAw, 2), (ArchKind::SaZvcg, 2)]));
        let model = mobilenet_v1();
        let a = partition(&mk(), &model, 4);
        let b = partition(&mk(), &model, 4);
        assert_eq!(a, b);
    }

    /// The joint DP on synthetic probe matrices: bottleneck-optimal,
    /// scope-aware sizing.
    #[test]
    fn joint_split_sizes_stages_to_their_scope() {
        // One scope, uniform costs: an even split.
        let uniform = vec![vec![1u64; 8]];
        let (ranges, scopes) = joint_split(&uniform, &[4], 4);
        assert_eq!(ranges.len(), 4);
        assert!(ranges.iter().all(|r| r.len() == 2), "{ranges:?}");
        assert!(scopes.iter().all(|&s| s == 0));

        // Two scopes, the second 3x slower, one lane each, uniform
        // work: the slow lane must get a smaller range. Optimum of 8
        // units over speeds (1x, 3x): 6 on the fast lane, 2 on the slow
        // one (bottleneck 6 = max(6*1, 2*3)).
        let fast = vec![1u64; 8];
        let slow = vec![3u64; 8];
        let (ranges, scopes) = joint_split(&[fast, slow], &[1, 1], 2);
        assert_eq!(ranges.len(), 2);
        let slow_stage = scopes.iter().position(|&s| s == 1).expect("slow lane used");
        assert_eq!(ranges[slow_stage].len(), 2, "{ranges:?} on {scopes:?}");

        // A dominant layer gets isolated.
        let (ranges, _) = joint_split(&[vec![100, 1, 1, 1]], &[4], 4);
        assert_eq!(ranges[0], 0..1, "{ranges:?}");

        // max_stages 1: one range, and the cheaper scope wins it.
        let (ranges, scopes) = joint_split(&[vec![2u64; 4], vec![1u64; 4]], &[1, 1], 1);
        assert_eq!(ranges, vec![0..4]);
        assert_eq!(scopes, vec![1], "the whole model goes to the faster scope");
    }

    /// Per-layer costs that *differ in shape* across scopes: the DP
    /// routes each region to the scope that is relatively fast on it —
    /// the cross-arch pipeline in miniature.
    #[test]
    fn joint_split_exploits_comparative_advantage() {
        // Scope 0 is fast on the tail, scope 1 on the head.
        let scope0 = vec![9, 9, 1, 1];
        let scope1 = vec![1, 1, 9, 9];
        let (ranges, scopes) = joint_split(&[scope0, scope1], &[1, 1], 2);
        assert_eq!(ranges, vec![0..2, 2..4]);
        assert_eq!(scopes, vec![1, 0], "each half runs where it is cheap");
    }

    /// On the real mixed fleet the same comparative advantage shows up:
    /// the sparse-heavy tail runs on S2TA-AW lanes, and the realized
    /// bottleneck never exceeds what a best-cost split naively placed
    /// on distinct lanes would suffer.
    #[test]
    fn mixed_fleet_pipeline_is_cross_arch() {
        let fleet =
            Fleet::from_spec(FleetSpec::mixed(&[(ArchKind::S2taAw, 2), (ArchKind::SaZvcg, 2)]));
        let model = mobilenet_v1();
        let plan = partition(&fleet, &model, 4);
        let arch_of = |lane: usize| fleet.lanes()[lane].arch();
        assert!(
            plan.stages().iter().any(|s| arch_of(s.lane) == ArchKind::S2taAw),
            "some stage must use the sparse lanes"
        );
        // Every stage runs within the bottleneck implied by its own
        // assigned-arch cost; the bottleneck stage itself runs on
        // the architecture that is fastest *for it* among lanes its
        // scope had free — with both archs available, the DP never
        // assigns the bottleneck stage an arch that a free faster lane
        // beats by construction (it would have lowered the optimum).
        let cost =
            |s: &StageAssignment| stage_cost(&fleet, arch_of(s.lane), &model, s.layers.clone());
        let bottleneck = plan.stages().iter().map(cost).max().expect("has stages");
        // Whole-model cost on the fastest arch = the monolithic
        // bottleneck (one batch occupies one lane for the full model).
        let whole: u64 = plan
            .stages()
            .iter()
            .map(|s| stage_cost(&fleet, ArchKind::S2taAw, &model, s.layers.clone()))
            .sum();
        assert!(
            bottleneck < whole,
            "pipelining must beat the best single-lane bottleneck: {bottleneck} vs {whole}"
        );
    }

    #[test]
    fn handoffs_price_the_boundary_activations() {
        let fleet = Fleet::new(ArchKind::S2taAw, 4);
        let model = lenet5();
        let plan = partition(&fleet, &model, 3);
        for (s, &cycles) in plan.handoff_cycles().iter().enumerate() {
            let boundary = plan.stages()[s + 1].layers.start;
            let bytes = s2ta_core::stage_handoff_bytes(&model, boundary);
            let rate =
                fleet.lanes()[plan.stages()[s + 1].lane].accelerator().config().dma_bytes_per_cycle;
            assert_eq!(cycles, bytes.div_ceil(rate));
        }
    }
}
