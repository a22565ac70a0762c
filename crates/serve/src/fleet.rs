//! The accelerator fleet: N simulated accelerator **lanes** — possibly
//! of mixed architectures — served by one event-driven engine.
//!
//! A [`Fleet`] is built from a [`FleetSpec`]: an ordered list of lanes,
//! each owning its own [`Accelerator`] of any [`ArchKind`] (e.g.
//! 2×S2TA-AW + 2×SA-ZVCG). Every lane shares one fleet-wide
//! [`s2ta_core::WeightPlanCache`] keyed by `(arch, model, seed)`, so
//! each architecture compiles each model's W-DBB plans exactly once.
//! Three client modes are served, all by the same engine:
//!
//! * [`Fleet::serve`] — **open loop, fixed policy**: the arrival stream
//!   is batched under the fleet's [`FixedPolicy`]. Batch formation (and
//!   admission) depends only on the arrival stream, so the batch set is
//!   identical for every fleet size.
//! * [`Fleet::serve_adaptive`] — **open loop, adaptive policy**: a
//!   [`BatchPolicy`] steers per-model `max_batch`/`max_wait` from
//!   observed completions.
//! * [`Fleet::serve_closed_loop`] — **closed loop**: C concurrent
//!   clients ([`crate::ClosedLoopSpec`]) each issue their next request
//!   only after the previous one completes; arrivals are iterated
//!   per-request in simulated time as a fixed point of the placement.
//!
//! The engine advances simulated time through batch completions,
//! arrivals and batch wait deadlines in `(time, kind)` order. Fresh
//! arrivals and fault-mode retries join their model's queue through one
//! admission routine. Each sealed batch picks its lane and simulates
//! once, on that lane (monolithic), or once per stage on its pinned
//! stage lanes (pipelined). Its requests resolve as served only at its
//! completion event, the one place that records served outcomes, the
//! batch's trace record and the makespan, so a lane crash can still
//! cancel a batch in flight.
//!
//! **Placement** is governed by [`PlacementStrategy`]: the default
//! earliest-free rule is arch-blind, while
//! [`PlacementStrategy::Affinity`] routes each batch to the lane
//! minimizing its predicted completion time using per-`(arch, model)`
//! service estimates ([`crate::ServiceEstimator`]) bootstrapped from
//! the run's own completed batches. On a homogeneous fleet the affinity
//! rule collapses to earliest-free exactly, so enabling it can never
//! change a clone-fleet's results.
//!
//! All three modes honor the fleet's admission bound
//! ([`Fleet::with_queue_capacity`]): a request arriving while its model
//! lane is full is tail-dropped and surfaced as
//! [`RequestOutcome::Dropped`].
//!
//! Simulated results never depend on host thread timing: batch events
//! are a pure function of the batch and the executing lane's
//! architecture, and the engine is deterministic. The `outcomes` list
//! in the returned [`ServeReport`] is sorted by request id (it is
//! assembled in resolution order internally), so `outcomes[i].id() ==
//! i` always holds for a dense arrival stream.

use crate::cluster::{AutoscalePolicy, ScaleEvent};
use crate::fault::{FaultConfig, FaultState, FaultTimeline, TimelineEvent, WindowEdge};
use crate::pipeline::PipelinePlan;
use crate::policy::{BatchObservation, BatchPolicy, FixedPolicy};
use crate::queue::RequestQueue;
use crate::report::{
    DroppedRequest, FailedRequest, LatencyHistogram, ModelServeStats, PipelineStageStats,
    RequestOutcome, ServeReport, ServedRequest, WorkerStats,
};
use crate::scheduler::{
    affinity_lane, earliest_free_lane, DeadlineHeap, PlacementStrategy, ServiceEstimator,
};
use crate::timewheel::TimerWheel;
use crate::trace::{TraceCell, TraceConfig, TraceEvent, TraceEventKind, TraceState};
use crate::workload::{ClosedLoopClient, ClosedLoopSpec, Request};
use s2ta_core::{
    Accelerator, ActProfileCache, ArchKind, CacheStats, ExecPath, ScratchPool, WeightPlanCache,
    WeightResidency,
};
use s2ta_models::ModelSpec;
use s2ta_sim::EventCounts;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::time::Instant;

/// One serving lane: a simulated accelerator instance with its own
/// architecture, executing one batch at a time in simulated time.
///
/// Every lane carries a handle to the fleet-shared [`ScratchPool`]:
/// batch execution checks out a per-execution [`s2ta_core::Scratch`]
/// arena, so whichever host worker runs the batch reuses warm buffer
/// capacity instead of allocating (see
/// [`Accelerator::run_stage_events`]).
#[derive(Debug, Clone)]
pub struct Lane {
    accelerator: Accelerator,
    scratch: ScratchPool,
}

impl Lane {
    /// The architecture this lane simulates.
    pub fn arch(&self) -> ArchKind {
        self.accelerator.config().kind
    }

    /// The lane's accelerator.
    pub fn accelerator(&self) -> &Accelerator {
        &self.accelerator
    }

    /// The fleet-shared scratch-arena pool this lane draws from.
    pub(crate) fn scratch(&self) -> &ScratchPool {
        &self.scratch
    }

    /// Simulates one batch through a contiguous layer range on this
    /// lane, via [`s2ta_core`]'s `run_stage`: a monolithic batch runs
    /// `0..layers`, a pipeline stage its own range.
    ///
    /// The first request streams the range's weights and every later
    /// request finds them resident — the batching amortization that
    /// wins on the memory-bound FC/depthwise layers (paper Sec. 8.3) —
    /// unless `warm` is set: a warm stage lane just executed the
    /// **same** stage of the same model, so its weights are still in
    /// the weight SRAM and even the first request skips the weight DMA
    /// — the pinned-stage reuse that layer pipelining exists to harvest.
    fn execute_stage(
        &self,
        model: &ModelSpec,
        layers: std::ops::Range<usize>,
        requests: &[Request],
        weight_seed: u64,
        warm: bool,
    ) -> EventCounts {
        let plan = self.accelerator.plan_model(model, weight_seed);
        let mut events = EventCounts::default();
        // The serving hot loop sums events straight from the operand
        // profiles, its transient buffers from the shared arena pool —
        // allocation-free once caches and arena are warm. The golden
        // oracle / host-throughput baseline takes per-layer reports over
        // materialized operands, with no arena.
        let mut scratch = match self.accelerator.exec_path() {
            ExecPath::Reference => None,
            ExecPath::Profiled => Some(self.scratch.checkout()),
        };
        for (i, request) in requests.iter().enumerate() {
            let residency =
                if i == 0 && !warm { WeightResidency::Streamed } else { WeightResidency::Resident };
            let (layers, seed) = (layers.clone(), request.act_seed);
            match scratch.as_mut() {
                Some(scratch) => {
                    events += self
                        .accelerator
                        .run_stage_events(&plan, model, layers, seed, residency, scratch)
                }
                None => {
                    for report in self.accelerator.run_stage(&plan, model, layers, seed, residency)
                    {
                        events += report.events;
                    }
                }
            }
        }
        if let Some(scratch) = scratch {
            self.scratch.restore(scratch);
        }
        events
    }
}

/// The composition of a fleet: an ordered list of lanes, each with its
/// own accelerator configuration — homogeneous clone-fleets and mixed
/// SA/S2TA deployments are both just specs.
#[derive(Debug, Clone, Default)]
pub struct FleetSpec {
    accelerators: Vec<Accelerator>,
}

impl FleetSpec {
    /// An empty spec; add lanes with [`FleetSpec::lane`] /
    /// [`FleetSpec::lane_with`].
    pub fn new() -> Self {
        Self::default()
    }

    /// `lanes` preset lanes of one `kind` (the clone-fleet of PR 1).
    pub fn homogeneous(kind: ArchKind, lanes: usize) -> Self {
        Self::mixed(&[(kind, lanes)])
    }

    /// A mixed fleet from `(kind, lanes)` groups, in order: e.g.
    /// `FleetSpec::mixed(&[(ArchKind::S2taAw, 2), (ArchKind::SaZvcg, 2)])`.
    pub fn mixed(groups: &[(ArchKind, usize)]) -> Self {
        let mut spec = Self::new();
        for &(kind, lanes) in groups {
            for _ in 0..lanes {
                spec = spec.lane(kind);
            }
        }
        spec
    }

    /// Appends one preset lane of `kind`.
    pub fn lane(self, kind: ArchKind) -> Self {
        self.lane_with(Accelerator::preset(kind))
    }

    /// Appends one lane with an explicit accelerator configuration.
    pub fn lane_with(mut self, accelerator: Accelerator) -> Self {
        self.accelerators.push(accelerator);
        self
    }

    /// Pins every lane's host-side execution path (default:
    /// [`ExecPath::Profiled`]). Simulated results are byte-identical
    /// either way; [`ExecPath::Reference`] re-materializes operands per
    /// simulation and exists as the golden oracle and the
    /// host-throughput baseline.
    pub fn with_exec_path(mut self, path: ExecPath) -> Self {
        self.accelerators = self.accelerators.into_iter().map(|a| a.with_exec_path(path)).collect();
        self
    }

    /// Number of lanes in the spec.
    pub fn lanes(&self) -> usize {
        self.accelerators.len()
    }

    /// `true` if the spec has no lanes yet.
    pub fn is_empty(&self) -> bool {
        self.accelerators.is_empty()
    }

    /// A compact label: the lane kinds grouped in first-appearance
    /// order (`"2xS2TA-AW + 2xSA-ZVCG"`), or just the kind for a
    /// homogeneous spec (`"S2TA-AW"`).
    pub fn label(&self) -> String {
        arch_label(self.accelerators.iter().map(|a| a.config().kind))
    }
}

/// Groups kinds in first-appearance order; a single kind renders bare
/// so homogeneous fleets keep the PR 1 report label.
fn arch_label(kinds: impl Iterator<Item = ArchKind>) -> String {
    let mut groups: Vec<(ArchKind, usize)> = Vec::new();
    for kind in kinds {
        match groups.iter_mut().find(|g| g.0 == kind) {
            Some(g) => g.1 += 1,
            None => groups.push((kind, 1)),
        }
    }
    match groups.as_slice() {
        [] => "empty".to_string(),
        [(kind, _)] => kind.to_string(),
        _ => groups.iter().map(|(kind, n)| format!("{n}x{kind}")).collect::<Vec<_>>().join(" + "),
    }
}

/// A pool of simulated accelerator lanes behind one batching policy.
#[derive(Debug, Clone)]
pub struct Fleet {
    lanes: Vec<Lane>,
    policy: FixedPolicy,
    weight_seed: u64,
    queue_capacity: Option<usize>,
    placement: PlacementStrategy,
    /// Stage count for [`PlacementStrategy::Pipelined`] (clamped to
    /// the lane and layer counts at partition time).
    pipeline_stages: usize,
    /// Bounded inter-stage activation queue depth (per pipeline
    /// boundary).
    pipeline_queue_capacity: usize,
    /// When set, serving runs attach a flight recorder + metrics
    /// registry and the report carries a [`crate::Trace`].
    trace: Option<TraceConfig>,
    /// When set, serving runs route through the event-driven engine
    /// with this fault schedule and recovery machinery attached.
    fault: Option<(FaultConfig, FaultTimeline)>,
}

impl Fleet {
    /// A homogeneous fleet of `workers` preset lanes of `kind` with the
    /// default batching policy and unbounded admission.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(kind: ArchKind, workers: usize) -> Self {
        Self::from_spec(FleetSpec::homogeneous(kind, workers))
    }

    /// A homogeneous fleet of `workers` clones of an explicit
    /// accelerator. The clones share the accelerator's **existing**
    /// plan cache (an [`Accelerator`] clone always does), so plans the
    /// caller compiled up front stay warm and plans the fleet compiles
    /// are visible to the caller afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn with_accelerator(accelerator: Accelerator, workers: usize) -> Self {
        assert!(workers > 0, "a fleet needs at least one worker");
        let scratch = ScratchPool::new();
        Self::from_lanes(
            (0..workers)
                .map(|_| Lane { accelerator: accelerator.clone(), scratch: scratch.clone() })
                .collect(),
        )
    }

    /// Builds the fleet a spec describes. Every lane's accelerator is
    /// re-pointed at one fresh **shared** [`WeightPlanCache`] — keyed
    /// by `(arch, model, seed)`, so mixed-architecture lanes coexist in
    /// one memo table and each arch compiles each model exactly once —
    /// and one fresh shared [`ActProfileCache`], so a request's
    /// activation profiles compile once fleet-wide and every
    /// re-simulation (hedged copies, pipeline stages, residency
    /// variants) replays them.
    ///
    /// # Panics
    ///
    /// Panics if the spec has no lanes.
    pub fn from_spec(spec: FleetSpec) -> Self {
        assert!(!spec.is_empty(), "a fleet needs at least one lane");
        let plans = WeightPlanCache::new();
        let act_profiles = ActProfileCache::new();
        let scratch = ScratchPool::new();
        Self::from_lanes(
            spec.accelerators
                .into_iter()
                .map(|acc| Lane {
                    accelerator: acc
                        .sharing_plans(plans.clone())
                        .sharing_act_profiles(act_profiles.clone()),
                    scratch: scratch.clone(),
                })
                .collect(),
        )
    }

    fn from_lanes(lanes: Vec<Lane>) -> Self {
        Self {
            lanes,
            policy: FixedPolicy::default(),
            weight_seed: 42,
            queue_capacity: None,
            placement: PlacementStrategy::default(),
            pipeline_stages: 2,
            pipeline_queue_capacity: 2,
            trace: None,
            fault: None,
        }
    }

    /// Replaces the fixed batching policy used by [`Fleet::serve`].
    pub fn with_policy(mut self, policy: FixedPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Bounds every model lane to `capacity` pending requests: a
    /// request arriving while its lane is full is tail-dropped
    /// (admission control). Applies to every client mode.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = Some(capacity);
        self
    }

    /// Re-points every lane at fresh shared **byte-budgeted** caches:
    /// a [`WeightPlanCache`] bounded to `weight_bytes` and an
    /// [`ActProfileCache`] bounded to `act_bytes`, both evicting
    /// least-recently-used entries past the budget. Evicted entries
    /// recompile byte-identically on next use, so a budget changes
    /// host time and the cache counters — never simulated results.
    pub fn with_cache_budgets(self, weight_bytes: u64, act_bytes: u64) -> Self {
        self.sharing_caches(
            WeightPlanCache::with_byte_budget(weight_bytes),
            ActProfileCache::with_byte_budget(act_bytes),
        )
    }

    /// Re-points every lane at the given shared caches (handles to the
    /// same underlying tables — cloning a cache shares it). Cached
    /// values are pure, so cache topology changes host time and the
    /// counters, never simulated results.
    pub(crate) fn sharing_caches(mut self, plans: WeightPlanCache, acts: ActProfileCache) -> Self {
        self.lanes = self
            .lanes
            .into_iter()
            .map(|l| Lane {
                accelerator: l
                    .accelerator
                    .sharing_plans(plans.clone())
                    .sharing_act_profiles(acts.clone()),
                scratch: l.scratch,
            })
            .collect();
        self
    }

    /// Replaces the weight seed (the models' shared parameters).
    pub fn with_weight_seed(mut self, seed: u64) -> Self {
        self.weight_seed = seed;
        self
    }

    /// Replaces the placement strategy (default: earliest-free).
    pub fn with_placement(mut self, placement: PlacementStrategy) -> Self {
        self.placement = placement;
        self
    }

    /// Enables layer-pipelined execution
    /// ([`PlacementStrategy::Pipelined`]) with `stages` pipeline stages
    /// per model: every model is partitioned into at most `stages`
    /// contiguous layer ranges, each pinned to a distinct lane, and
    /// batches flow through the stage lanes so stage `s` of batch `b`
    /// overlaps stage `s+1` of batch `b-1` (see [`crate::PipelinePlan`]).
    ///
    /// # Panics
    ///
    /// Panics if `stages` is zero.
    pub fn with_pipeline(mut self, stages: usize) -> Self {
        assert!(stages > 0, "a pipeline needs at least one stage");
        self.pipeline_stages = stages;
        self.placement = PlacementStrategy::Pipelined;
        self
    }

    /// Bounds every inter-stage activation queue to `capacity` pending
    /// handoffs (default 2 — double buffering): stage `s` may not begin
    /// batch `b` before stage `s+1` started draining batch
    /// `b - capacity`, so a fast upstream stage stalls instead of
    /// running unboundedly ahead of a slow consumer.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (a zero-slot boundary could never
    /// hand anything forward).
    pub fn with_pipeline_queue_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "an inter-stage queue needs at least one slot");
        self.pipeline_queue_capacity = capacity;
        self
    }

    /// The configured pipeline stage count (meaningful under
    /// [`PlacementStrategy::Pipelined`]).
    pub fn pipeline_stages(&self) -> usize {
        self.pipeline_stages
    }

    /// The bounded inter-stage activation queue depth.
    pub fn pipeline_queue_capacity(&self) -> usize {
        self.pipeline_queue_capacity
    }

    /// Attaches an observability trace to every subsequent serving run:
    /// a preallocated drop-oldest flight recorder of typed engine
    /// events plus fixed-interval metrics time-series, surfaced on the
    /// report through [`ServeReport::trace`]. Tracing never changes
    /// simulated results: the recorder only observes the engine's
    /// event handlers.
    ///
    /// # Panics
    ///
    /// Panics if `config.metrics_interval_cycles` is zero.
    pub fn with_trace(mut self, config: TraceConfig) -> Self {
        config.validate();
        self.trace = Some(config);
        self
    }

    /// The attached trace configuration, if tracing is enabled.
    pub fn trace_config(&self) -> Option<TraceConfig> {
        self.trace
    }

    /// Attaches a deterministic fault schedule (plus its recovery
    /// machinery) to every subsequent serving run. The schedule is
    /// expanded against this fleet as a single-shard topology; serving
    /// then routes through the event-driven engine, which cancels
    /// in-flight batches on crashed lanes, retries their requests
    /// under the config's [`crate::RetryPolicy`], applies slowdown
    /// factors, and surfaces everything as [`crate::FaultStats`] on the
    /// report. See [`crate::FaultSpec`].
    pub fn with_faults(self, config: FaultConfig) -> Self {
        let plan = config.spec.schedule(&[self.workers()]);
        let timeline = plan.shard_timeline(0);
        self.with_fault_timeline(config, timeline)
    }

    /// Attaches an already-expanded per-shard fault timeline (the
    /// cluster expands one [`crate::FaultPlan`] and hands each shard
    /// its slice, so every driver sees the identical schedule).
    pub(crate) fn with_fault_timeline(
        mut self,
        config: FaultConfig,
        timeline: FaultTimeline,
    ) -> Self {
        assert_eq!(
            timeline.lanes(),
            self.workers(),
            "fault timeline must cover exactly this fleet's lanes"
        );
        self.fault = Some((config, timeline));
        self
    }

    /// The first lane's accelerator (for a homogeneous fleet, the
    /// template every lane clones).
    pub fn accelerator(&self) -> &Accelerator {
        &self.lanes[0].accelerator
    }

    /// The fleet's lanes, in placement order.
    pub fn lanes(&self) -> &[Lane] {
        &self.lanes
    }

    /// Number of simulated lanes.
    pub fn workers(&self) -> usize {
        self.lanes.len()
    }

    /// The placement strategy batches are routed with.
    pub fn placement(&self) -> PlacementStrategy {
        self.placement
    }

    /// The per-lane admission bound, if any.
    pub fn queue_capacity(&self) -> Option<usize> {
        self.queue_capacity
    }

    /// The configured fixed batching policy (a fresh copy — the
    /// cluster router gives each shard engine its own instance).
    pub(crate) fn fixed_policy(&self) -> FixedPolicy {
        self.policy
    }

    /// The fleet's composition label (see [`FleetSpec::label`]).
    pub fn arch_label(&self) -> String {
        arch_label(self.lanes.iter().map(Lane::arch))
    }

    fn queue(&self, models: usize) -> RequestQueue {
        match self.queue_capacity {
            Some(cap) => RequestQueue::bounded(models, cap),
            None => RequestQueue::new(models),
        }
    }

    /// Serves an open-loop request stream against `models` with the
    /// fleet's fixed policy and reports: the event-driven engine run
    /// of [`Fleet::serve_adaptive`] with a fresh copy of that policy.
    ///
    /// Batch formation (and admission, if a queue capacity is set)
    /// depends only on the arrival stream, so the batch set and drop
    /// set are identical for every fleet size; on a **homogeneous**
    /// fleet the aggregate event totals are fleet-size independent too
    /// (a heterogeneous fleet's totals depend on which lane ran each
    /// batch, by design).
    ///
    /// # Panics
    ///
    /// Panics if a request names a model index outside `models`, or if
    /// arrivals are unsorted.
    pub fn serve(&self, models: &[ModelSpec], requests: &[Request]) -> ServeReport {
        let mut policy = self.policy;
        self.serve_adaptive(models, requests, &mut policy)
    }

    /// Serves an open-loop request stream through the event-driven
    /// engine, letting `policy` adapt its batch bounds from observed
    /// completions.
    ///
    /// With a [`FixedPolicy`] matching the fleet's, this is exactly
    /// [`Fleet::serve`]; an adaptive policy such as
    /// [`crate::SloAwarePolicy`] trades batch depth against observed
    /// tail latency as the run progresses. The run is deterministic for
    /// a fixed `(stream, policy, fleet spec, placement)`.
    ///
    /// # Panics
    ///
    /// Panics if a request names a model index outside `models`, or if
    /// arrivals are unsorted.
    pub fn serve_adaptive(
        &self,
        models: &[ModelSpec],
        requests: &[Request],
        policy: &mut dyn BatchPolicy,
    ) -> ServeReport {
        Engine::new(self, models, ArrivalSource::open(requests), policy).run()
    }

    /// Serves a closed-loop client population: each of the spec's C
    /// clients issues its next request only after its previous one
    /// completes (or is dropped), plus an exponential think gap.
    /// Arrivals are therefore computed per-request in simulated time as
    /// the engine advances — a deterministic fixed point of the
    /// placement for a fixed `(seed, policy, fleet spec, placement)`.
    ///
    /// # Panics
    ///
    /// Panics if the spec's mix length differs from `models`, or the
    /// spec is invalid (no clients, bad mix, negative think time).
    pub fn serve_closed_loop(
        &self,
        models: &[ModelSpec],
        spec: &ClosedLoopSpec,
        policy: &mut dyn BatchPolicy,
    ) -> ServeReport {
        assert_eq!(spec.mix.len(), models.len(), "closed-loop mix must name every fleet model");
        Engine::new(self, models, ArrivalSource::closed(spec), policy).run()
    }
}

/// One execution of a contiguous layer range on a lane — a whole
/// monolithic batch, a hedge copy, or one pipeline stage — priced by
/// [`Engine::run_stage`] and committed by [`Engine::charge`]: where it
/// runs, what it measured, when it starts, and its effective service
/// time (the measured cycles, inflated by any fault slowdown window).
#[derive(Debug, Clone, Copy)]
struct StageRun {
    lane: usize,
    events: EventCounts,
    start: u64,
    service: u64,
}

impl StageRun {
    fn completion(&self) -> u64 {
        self.start + self.service
    }
}

/// A batch sealed and dispatched by the event-driven engine.
#[derive(Debug, Clone)]
struct EngineBatch {
    model: usize,
    requests: Vec<Request>,
    ready: u64,
    start: u64,
    /// Lane the batch ran on (the final stage's lane when pipelined).
    lane: usize,
    /// Measured service time on that lane (whole-model), or the
    /// end-to-end execution span when pipelined. Fault-mode batches
    /// store the **effective** service (slowdown factor applied).
    service_cycles: u64,
    /// Fault mode: the batch's lane crashed before it completed; its
    /// wheel entry is stale and its members were retried or failed.
    cancelled: bool,
}

/// Where the engine's next request comes from: a pre-generated sorted
/// open-loop stream, or a closed-loop client population advanced on
/// completions. (The cluster router gives shard engines an empty open
/// source and injects routed arrivals itself.)
pub(crate) enum ArrivalSource<'a> {
    Open {
        stream: &'a [Request],
        next: usize,
    },
    Closed {
        clients: Vec<ClosedLoopClient>,
        /// One staged (issued, not yet arrived) request per client.
        staged: Vec<Option<Request>>,
        /// Staged arrivals ordered by `(arrival, client)` so
        /// simultaneous issues resolve deterministically.
        horizon: BinaryHeap<Reverse<(u64, usize)>>,
        issued: usize,
        budget: usize,
    },
}

impl<'a> ArrivalSource<'a> {
    pub(crate) fn open(stream: &'a [Request]) -> Self {
        Self::Open { stream, next: 0 }
    }

    fn closed(spec: &ClosedLoopSpec) -> Self {
        let mut clients = spec.spawn_clients();
        let budget = spec.requests;
        let mut staged: Vec<Option<Request>> = vec![None; clients.len()];
        let mut horizon = BinaryHeap::new();
        let mut issued = 0usize;
        for (c, client) in clients.iter_mut().enumerate() {
            if issued == budget {
                break;
            }
            // Ids are provisional at issue time; the engine assigns the
            // dense arrival-order id when the request enters the system.
            let r = client.issue(0, 0);
            horizon.push(Reverse((r.arrival, c)));
            staged[c] = Some(r);
            issued += 1;
        }
        Self::Closed { clients, staged, horizon, issued, budget }
    }

    /// Requests the source has yet to deliver.
    fn remaining(&self) -> usize {
        match self {
            Self::Open { stream, next } => stream.len() - next,
            Self::Closed { issued, budget, horizon, .. } => budget - issued + horizon.len(),
        }
    }

    /// Arrival time of the next request, if any.
    fn peek_time(&self) -> Option<u64> {
        match self {
            Self::Open { stream, next } => stream.get(*next).map(|r| r.arrival),
            Self::Closed { horizon, .. } => horizon.peek().map(|Reverse((t, _))| *t),
        }
    }

    /// Takes the next request. Open-loop requests keep their caller
    /// ids; closed-loop requests are assigned the dense arrival-order
    /// id `next_id`. Returns the request and, for closed-loop sources,
    /// the issuing client.
    fn pop(&mut self, next_id: u64) -> (Request, Option<usize>) {
        match self {
            Self::Open { stream, next } => {
                let r = stream[*next];
                *next += 1;
                (r, None)
            }
            Self::Closed { staged, horizon, .. } => {
                let Reverse((_, c)) = horizon.pop().expect("pop follows peek");
                let mut r = staged[c].take().expect("staged request for heap entry");
                r.id = next_id;
                (r, Some(c))
            }
        }
    }

    /// Notifies a closed-loop client that its request finished (served
    /// or dropped) at `now`, staging its next issue if budget remains.
    /// No-op for open-loop sources.
    fn request_finished(&mut self, client: Option<usize>, now: u64) {
        let Some(c) = client else { return };
        let Self::Closed { clients, staged, horizon, issued, budget } = self else {
            return;
        };
        if *issued == *budget {
            return;
        }
        let r = clients[c].issue(now, 0);
        horizon.push(Reverse((r.arrival, c)));
        staged[c] = Some(r);
        *issued += 1;
    }
}

/// Event-kind tie-breakers: at equal times, completions fire before
/// autoscaler evaluations, evaluations before arrivals, arrivals
/// before deadlines, deadlines before retry re-admissions, and
/// fault-window edges last — so an evaluation sees a same-cycle
/// completion already out of the backlog and a same-cycle arrival not
/// yet in it, a batch completing exactly when its lane crashes has
/// completed, and an arrival at a crash instant can still dispatch
/// (and be cancelled by the crash).
const COMPLETION_KIND: u8 = 0;
const AUTOSCALE_KIND: u8 = 1;
const ARRIVAL_KIND: u8 = 2;
const DEADLINE_KIND: u8 = 3;
const RETRY_KIND: u8 = 4;
const FAULT_KIND: u8 = 5;

/// A cluster shard's lane autoscaler: one evaluation every
/// `policy.eval_interval_cycles`, through `horizon` (the last arrival
/// of the cluster's whole stream, wherever it was routed).
struct Autoscaler {
    policy: AutoscalePolicy,
    horizon: u64,
    next_eval: u64,
    /// Applied decisions, in time order (shard index 0; the cluster
    /// stamps its own).
    events: Vec<ScaleEvent>,
}

impl Autoscaler {
    /// The time of the next evaluation, if one remains.
    fn next(&self) -> Option<u64> {
        (self.next_eval <= self.horizon).then_some(self.next_eval)
    }
}

/// The event-driven serving engine: advances simulated time through
/// batch completions, request arrivals, batch wait-deadline expiries
/// and, when attached, autoscaler evaluations, retry re-admissions and
/// fault-window edges — processed in `(time, kind)` order (see the
/// kind constants: a batch closes only when its deadline is strictly
/// before the current time, so an arrival exactly at a deadline still
/// joins the batch).
///
/// The engine owns its arrival source and borrows its batching policy
/// for the whole run, so every event handler reaches both through
/// `self`.
pub(crate) struct Engine<'a> {
    fleet: &'a Fleet,
    models: &'a [ModelSpec],
    arrivals: ArrivalSource<'a>,
    policy: &'a mut dyn BatchPolicy,
    queue: RequestQueue,
    deadlines: DeadlineHeap,
    /// In-flight batches ordered by `(completion, batch index)` — a
    /// hierarchical timer wheel, so a million pending completions cost
    /// O(1) amortized per event instead of a heap rebalance.
    in_flight: TimerWheel<usize>,
    /// The records of the batches in flight, by batch id: inserted at
    /// dispatch, removed when the batch's completion pops (for a
    /// crash-cancelled batch, when its stale wheel entry does). The
    /// table follows the work in flight, never the run's history.
    batches: HashMap<usize, EngineBatch>,
    /// Batches dispatched so far: the next batch id (ids are dense in
    /// dispatch order) and the report's batch count.
    dispatched: usize,
    free_at: Vec<u64>,
    /// Lanes `0..active_lanes` accept new monolithic batches;
    /// [`Engine::on_autoscale`] shrinks/grows this against the backlog
    /// (in-flight work on a deactivated lane drains naturally).
    active_lanes: usize,
    /// Cumulative idle cycles per lane (gaps between consecutive
    /// executions on that lane), so pipeline stage stats can attribute
    /// true lane idle — not another model's busy time — as bubbles.
    lane_cum_idle: Vec<u64>,
    /// Latest injected arrival time, to enforce sorted arrival order.
    last_arrival: u64,
    /// Requests sitting in `queue` awaiting batch formation —
    /// incrementally maintained so [`Engine::backlog`] is O(1) (JSQ
    /// probes every shard on every arrival).
    queued: usize,
    /// Requests riding not-yet-completed batches — the in-flight half
    /// of the backlog, maintained at dispatch and completion.
    in_flight_requests: usize,
    /// One record per resolved request; see [`Engine::push_outcome`]
    /// for how it grows.
    outcomes: Vec<RequestOutcome>,
    worker_stats: Vec<WorkerStats>,
    total_events: EventCounts,
    makespan: u64,
    /// Per-`(arch, model)` service estimates, fed by completions.
    estimator: ServiceEstimator,
    /// Issuing client per request id (closed loop only).
    client_of: Vec<Option<usize>>,
    next_id: u64,
    /// Lazily partitioned pipeline plans per model (pipelined mode). A
    /// dispatch burst moves its model's plan out and back, so batches
    /// borrow it instead of copying it.
    pipelines: HashMap<usize, PipelinePlan>,
    /// Bounded inter-stage activation queues: `(model, boundary)` ->
    /// recent downstream-stage start times (at most the queue capacity
    /// retained).
    boundary_starts: HashMap<(usize, usize), VecDeque<u64>>,
    /// The `(model, stage)` each lane last executed, for warm-weight
    /// residency on pinned stage lanes.
    last_stage_on_lane: Vec<Option<(usize, usize)>>,
    /// Per-`(model, stage)` occupancy accumulators (pipelined mode).
    stage_stats: BTreeMap<(usize, usize), StageStatsAccum>,
    /// Plan-cache counters at engine start, so a trace carries this
    /// run's delta.
    cache_before: CacheStats,
    /// Activation-profile-cache counters at engine start, for the same
    /// trace delta.
    act_cache_before: CacheStats,
    /// Requests tail-dropped per model index.
    dropped_per_model: Vec<u64>,
    /// Requests dispatched in timeout-sealed batches per model index.
    missed_per_model: Vec<u64>,
    /// Flight recorder + metrics registry (attached via
    /// [`Fleet::with_trace`]; `None` compiles every hook down to a
    /// branch). Boxed to keep the untraced engine's footprint flat.
    trace: Option<Box<TraceState>>,
    /// Fault-injection state (attached via [`Fleet::with_faults`]):
    /// the timeline cursor, retry queue, per-lane health table and
    /// accumulating [`FaultStats`]. `None` keeps every fault hook a
    /// single branch on the fault-free path.
    faults: Option<Box<FaultState>>,
    /// Lane autoscaling (cluster shards with an [`AutoscalePolicy`],
    /// attached via [`Engine::with_autoscale`]); `None` keeps its event
    /// a single branch.
    autoscale: Option<Autoscaler>,
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

impl<'a> Engine<'a> {
    pub(crate) fn new(
        fleet: &'a Fleet,
        models: &'a [ModelSpec],
        arrivals: ArrivalSource<'a>,
        policy: &'a mut dyn BatchPolicy,
    ) -> Self {
        assert!(
            fleet.fault.is_none() || fleet.placement != PlacementStrategy::Pipelined,
            "fault injection models monolithic lane execution; pipelined placement is unsupported"
        );
        Self {
            fleet,
            models,
            arrivals,
            policy,
            queue: fleet.queue(models.len()),
            deadlines: DeadlineHeap::new(),
            in_flight: TimerWheel::new(),
            batches: HashMap::new(),
            dispatched: 0,
            free_at: vec![0u64; fleet.lanes.len()],
            active_lanes: fleet.lanes.len(),
            lane_cum_idle: vec![0u64; fleet.lanes.len()],
            last_arrival: 0,
            queued: 0,
            in_flight_requests: 0,
            outcomes: Vec::new(),
            worker_stats: fleet.lanes.iter().map(|l| WorkerStats::new(l.arch())).collect(),
            total_events: EventCounts::default(),
            makespan: 0,
            estimator: ServiceEstimator::new(),
            client_of: Vec::new(),
            next_id: 0,
            pipelines: HashMap::new(),
            boundary_starts: HashMap::new(),
            last_stage_on_lane: vec![None; fleet.lanes.len()],
            stage_stats: BTreeMap::new(),
            cache_before: fleet.accelerator().plans().stats(),
            act_cache_before: fleet.accelerator().act_profiles().stats(),
            dropped_per_model: vec![0u64; models.len()],
            missed_per_model: vec![0u64; models.len()],
            trace: fleet.trace.map(|cfg| Box::new(TraceState::new(cfg, models.len()))),
            faults: fleet.fault.as_ref().map(|(config, timeline)| {
                Box::new(FaultState::new(config.clone(), timeline.clone(), models.len()))
            }),
            autoscale: None,
        }
    }

    /// Attaches lane autoscaling under `policy`, evaluated every
    /// interval through `horizon` (no evaluation fires past it).
    pub(crate) fn with_autoscale(mut self, policy: Option<AutoscalePolicy>, horizon: u64) -> Self {
        self.autoscale = policy.map(|policy| Autoscaler {
            policy,
            horizon,
            next_eval: policy.eval_interval_cycles,
            events: Vec::new(),
        });
        self
    }

    /// Closes every metrics boundary `<= now`, sampling the engine
    /// state each crossed boundary saw. Must run at the **top** of each
    /// simulated-event handler, before the event mutates engine state:
    /// that makes the sample at boundary `b` reflect exactly the events
    /// with `time < b`, independent of which driver (pre-routed on any
    /// executor size, or barrier) delivers the events.
    fn trace_flush(&mut self, now: u64) {
        if !self.trace.as_ref().is_some_and(|tr| tr.flush_due(now)) {
            return;
        }
        let weights = self.fleet.accelerator().plans().stats().since(self.cache_before);
        let acts = self.fleet.accelerator().act_profiles().stats().since(self.act_cache_before);
        let (queued, in_flight) = (self.queued as u32, self.in_flight_requests as u32);
        let active = self.active_lanes as u32;
        if let Some(tr) = self.trace.as_mut() {
            tr.flush(now, queued, in_flight, active, Some((weights, acts)));
        }
    }

    fn run(mut self) -> ServeReport {
        self.reserve_outcomes(self.arrivals.remaining());
        loop {
            // The next event is the earliest of the internal events
            // and the next arrival; kind breaks ties so same-cycle
            // events fire in a fixed order.
            let internal = self.next_internal_event();
            let arrival = self.arrivals.peek_time().map(|t| (t, ARRIVAL_KIND));
            let Some((_, kind)) = [internal, arrival].into_iter().flatten().min() else {
                break;
            };
            if kind == ARRIVAL_KIND {
                let (r, client) = self.arrivals.pop(self.next_id);
                self.inject(r, client);
            } else {
                self.step_internal(kind);
            }
        }
        self.into_report()
    }

    /// The earliest pending internal event as `(time, kind)`:
    /// completions, autoscaler evaluations, live batch deadlines,
    /// pending retry re-admissions and fault-timeline edges, with
    /// arrivals slotting between evaluations and deadlines at equal
    /// times.
    fn next_internal_event(&mut self) -> Option<(u64, u8)> {
        let completion = self.in_flight.peek().map(|(t, _)| (t, COMPLETION_KIND));
        let autoscale =
            self.autoscale.as_ref().and_then(Autoscaler::next).map(|t| (t, AUTOSCALE_KIND));
        let deadline = self.deadlines.peek_live(&self.queue).map(|(t, _)| (t, DEADLINE_KIND));
        let retry =
            self.faults.as_deref().and_then(|f| f.retries.peek_time()).map(|t| (t, RETRY_KIND));
        let fault =
            self.faults.as_deref().and_then(|f| f.next_fault_time()).map(|t| (t, FAULT_KIND));
        [completion, autoscale, deadline, retry, fault].into_iter().flatten().min()
    }

    /// Processes one internal event previously returned by
    /// [`Engine::next_internal_event`].
    fn step_internal(&mut self, kind: u8) {
        match kind {
            COMPLETION_KIND => self.on_completion(),
            AUTOSCALE_KIND => self.on_autoscale(),
            DEADLINE_KIND => self.on_deadline(),
            RETRY_KIND => self.on_retry(),
            _ => self.on_fault(),
        }
    }

    /// Injects one externally-routed arrival (the cluster router's
    /// entry point), assigning it the next dense engine id and running
    /// the full admission/batching path.
    pub(crate) fn inject(&mut self, request: Request, client: Option<usize>) {
        self.next_id += 1;
        assert!(request.arrival >= self.last_arrival, "arrival stream must be sorted");
        self.last_arrival = request.arrival;
        self.on_arrival(request, client);
    }

    /// Advances simulated time through every internal event that
    /// precedes an arrival at `t` in `(time, kind)` order: completions
    /// with time <= `t` and deadlines strictly before `t`. After this,
    /// the engine's queue depths are exactly what an arrival at `t`
    /// would observe — the router's probe point.
    pub(crate) fn advance_to_arrival(&mut self, t: u64) {
        // Host-side wall-clock span only — no metrics flush here: the
        // barrier driver advances shards to every arrival barrier
        // while the prerouted driver advances a shard only to its own,
        // so any simulated-time hook at this boundary would make the
        // trace driver-dependent. Flushes live in the event handlers.
        let t0 = self.trace.is_some().then(Instant::now);
        while let Some((et, kind)) = self.next_internal_event() {
            if (et, kind) >= (t, ARRIVAL_KIND) {
                break;
            }
            self.step_internal(kind);
        }
        if let (Some(t0), Some(tr)) = (t0, self.trace.as_mut()) {
            tr.host.add("shard-advance", t0.elapsed());
        }
    }

    /// Drains every remaining internal event (end of the arrival
    /// stream).
    pub(crate) fn drain(&mut self) {
        let t0 = self.trace.is_some().then(Instant::now);
        while let Some((_, kind)) = self.next_internal_event() {
            self.step_internal(kind);
        }
        if let (Some(t0), Some(tr)) = (t0, self.trace.as_mut()) {
            tr.host.add("shard-advance", t0.elapsed());
        }
    }

    /// The engine's **backlog**: requests injected but not yet
    /// resolved (queued for batching *plus* riding in-flight batches;
    /// tail-dropped requests resolve at arrival and never count).
    ///
    /// This is what the autoscaler thresholds compare against.
    /// Counting in-flight work matters there: sealed batches leave the
    /// request queues immediately, so queue length alone would make a
    /// shard whose lanes are booked solid for thousands of cycles look
    /// idle and shed lanes it is about to need. (The *router* probes
    /// [`Engine::queued_depth`] instead — see there for why.)
    ///
    /// O(1): both halves are incrementally maintained counters (a
    /// debug assertion cross-checks them against a full recompute from
    /// the queue lanes and the in-flight wheel).
    pub(crate) fn backlog(&self) -> usize {
        debug_assert_eq!(
            self.queued,
            (0..self.models.len()).map(|m| self.queue.pending(m)).sum::<usize>(),
            "queued counter diverged from the request queue"
        );
        debug_assert_eq!(
            self.in_flight_requests,
            self.in_flight
                .iter()
                .map(|(_, b)| &self.batches[&b])
                .filter(|b| !b.cancelled)
                .map(|b| b.requests.len())
                .sum::<usize>(),
            "in-flight counter diverged from the timer wheel"
        );
        self.queued + self.in_flight_requests
    }

    /// Requests queued for batching but not yet sealed into a batch —
    /// the signal the cluster's routing policies probe (O(1), same
    /// incrementally maintained counter as [`Engine::backlog`]).
    ///
    /// The router deliberately probes the *queued* depth rather than
    /// the full backlog: in-flight batch mass is common-mode across
    /// shards at steady state and drains at fixed, already-committed
    /// times no routing decision can change, so adding it dilutes the
    /// differential signal that join-shortest-queue / power-of-two
    /// actually steer on (measured on the canonical cluster scenario:
    /// probing full backlog erases most of the p2c-vs-random global
    /// p99 win).
    pub(crate) fn queued_depth(&self) -> usize {
        debug_assert_eq!(
            self.queued,
            (0..self.models.len()).map(|m| self.queue.pending(m)).sum::<usize>(),
            "queued counter diverged from the request queue"
        );
        self.queued
    }

    /// Whether any internal event (see
    /// [`Engine::next_internal_event`]) fires strictly before an
    /// arrival at `t` in `(time, kind)` order — the cluster driver's
    /// fast path: a shard answering `false` needs no
    /// [`Engine::advance_to_arrival`] dispatch at all. Non-mutating on
    /// the completion wheel; stale deadline entries may be discarded,
    /// which never changes simulated state.
    pub(crate) fn has_event_before(&mut self, t: u64) -> bool {
        // Completions and evaluations sort before arrivals, so each
        // fires first iff its time is <= t; deadline, retry and fault
        // events sort after, so each fires first iff its time is < t.
        if self.in_flight.peek_next_event_cycle().is_some_and(|ct| ct <= t) {
            return true;
        }
        if self.autoscale.as_ref().and_then(Autoscaler::next).is_some_and(|et| et <= t) {
            return true;
        }
        if let Some(f) = self.faults.as_deref() {
            if f.retries.peek_time().is_some_and(|rt| rt < t) {
                return true;
            }
            if f.next_fault_time().is_some_and(|ft| ft < t) {
                return true;
            }
        }
        self.deadlines.peek_live(&self.queue).is_some_and(|(dt, _)| dt < t)
    }

    /// The autoscaler decisions applied so far, each stamped with
    /// shard index 0 (empty without autoscaling).
    pub(crate) fn take_scale_events(&mut self) -> Vec<ScaleEvent> {
        self.autoscale.as_mut().map(|a| std::mem::take(&mut a.events)).unwrap_or_default()
    }

    /// A batch's completion event: the one place a batch's requests
    /// resolve as served — monolithic, pipelined and fault-mode batches
    /// alike — with its trace record and the makespan. Resolving here
    /// rather than at dispatch lets a lane crash cancel a batch before
    /// anything about it is recorded.
    fn on_completion(&mut self) {
        let (t, index) = self.in_flight.pop().expect("peeked");
        // Metrics boundaries close before this completion mutates any
        // counter (popping the wheel changes no sampled state).
        self.trace_flush(t);
        let batch = self.batches.remove(&index).expect("a wheel entry has an in-flight record");
        // A crash-cancelled batch's wheel entry is stale: its members
        // were already retried or failed at the crash. Nothing fires.
        if batch.cancelled {
            return;
        }
        let n = batch.requests.len();
        if self.faults.is_some() {
            let backlog = self.queued + self.in_flight_requests;
            let f = self.faults.as_deref_mut().expect("checked");
            f.update_degraded(t, backlog);
            if let Some(pos) = f.lane_active[batch.lane].iter().position(|&b| b == index) {
                f.lane_active[batch.lane].swap_remove(pos);
            }
            if !f.attempts.is_empty() {
                for r in &batch.requests {
                    f.attempts.remove(&r.id);
                }
            }
        }
        self.makespan = self.makespan.max(t);
        if let Some(tr) = self.trace.as_mut() {
            tr.record_batch(
                (batch.ready, batch.start, t),
                batch.lane as u32,
                batch.model as u32,
                index as u64,
                n as u64,
            );
            for r in &batch.requests {
                tr.observe_latency(batch.model, t - r.arrival);
            }
        }
        for r in &batch.requests {
            self.push_outcome(RequestOutcome::Served(ServedRequest {
                id: r.id,
                model: self.models[batch.model].name,
                arrival: r.arrival,
                start: batch.start,
                completion: t,
                batch: index,
                worker: batch.lane,
            }));
        }
        self.in_flight_requests -= n;
        let max_latency_cycles = batch.requests.iter().map(|r| t - r.arrival).max().unwrap_or(0);
        self.policy.observe(&BatchObservation {
            model: batch.model,
            batch_size: n,
            ready: batch.ready,
            start: batch.start,
            completion: t,
            max_latency_cycles,
        });
        // The cost model learns from completed monolithic batches only —
        // a lane's speed becomes evidence once its batch finishes. The
        // affinity rule and hedging read it; a pipelined batch spans
        // several lanes and feeds neither.
        if self.fleet.placement != PlacementStrategy::Pipelined {
            self.estimator.record(
                self.fleet.lanes[batch.lane].arch(),
                batch.model,
                n,
                batch.service_cycles,
            );
        }
        for r in &batch.requests {
            self.release_client(r.id, t);
        }
    }

    /// An autoscaler evaluation: a backlog at or above the scale-up
    /// threshold activates one more lane, one at or below the
    /// scale-down threshold deactivates one (within `[min_lanes,
    /// lanes]`). In-flight work on a deactivated lane completes
    /// normally; the lane just stops receiving new batches. Unlike the
    /// other handlers it never updates degraded mode: an extra update
    /// can move degraded intervals.
    fn on_autoscale(&mut self) {
        let time = self.autoscale.as_ref().expect("autoscale event").next_eval;
        // Metrics boundaries `<= time` close before the decision can
        // resize the active-lane set, so their samples see the
        // pre-decision lane count.
        self.trace_flush(time);
        let (backlog, from_lanes, lanes) =
            (self.backlog(), self.active_lanes, self.fleet.lanes.len());
        let auto = self.autoscale.as_mut().expect("autoscale event");
        auto.next_eval += auto.policy.eval_interval_cycles;
        let p = auto.policy;
        let to_lanes = if backlog >= p.scale_up_depth {
            (from_lanes + 1).min(lanes)
        } else if backlog <= p.scale_down_depth {
            from_lanes.saturating_sub(1).max(p.min_lanes.min(lanes))
        } else {
            from_lanes
        };
        if to_lanes == from_lanes {
            return;
        }
        self.active_lanes = to_lanes;
        auto.events.push(ScaleEvent { time, shard: 0, from_lanes, to_lanes, backlog });
        if let Some(tr) = self.trace.as_mut() {
            tr.record(TraceEvent {
                cycle: time,
                kind: TraceEventKind::AutoscaleDecision,
                shard: 0,
                lane: from_lanes as u32,
                model: 0,
                stage: to_lanes as u32,
                a: backlog as u64,
                b: 0,
            });
        }
    }

    fn on_arrival(&mut self, request: Request, client: Option<usize>) {
        self.trace_flush(request.arrival);
        if client.is_some() {
            debug_assert_eq!(self.client_of.len() as u64, request.id);
            self.client_of.push(client);
        }
        if self.faults.is_some() {
            let backlog = self.queued + self.in_flight_requests;
            let f = self.faults.as_deref_mut().expect("checked");
            f.update_degraded(request.arrival, backlog);
            // Degraded mode: with a lane down and the backlog past the
            // threshold, best-effort models are shed at admission so
            // the strict classes keep their latency.
            if f.sheds(request.model) {
                f.stats.shed += 1;
                self.drop_request(request);
                return;
            }
        }
        self.admit(request, request.arrival, None);
    }

    fn on_deadline(&mut self) {
        let (deadline, lane) =
            self.deadlines.peek_live(&self.queue).expect("peeked before dispatch");
        self.trace_flush(deadline);
        if self.faults.is_some() {
            let backlog = self.queued + self.in_flight_requests;
            self.faults.as_deref_mut().expect("checked").update_degraded(deadline, backlog);
        }
        self.deadlines.pop();
        let limits = self.policy.limits_for(lane);
        let members = self.queue.pop_batch(lane, limits.max_batch.max(1));
        debug_assert!(!members.is_empty());
        // Every member of a timeout-sealed batch waited out the full
        // `max_wait` — the per-model deadline-miss unit.
        self.missed_per_model[lane] += members.len() as u64;
        if let Some(tr) = self.trace.as_mut() {
            tr.record(TraceEvent {
                cycle: deadline,
                kind: TraceEventKind::DeadlineMiss,
                shard: 0,
                lane: 0,
                model: lane as u32,
                stage: 0,
                a: members.len() as u64,
                b: 0,
            });
        }
        // An adaptive shrink can leave a lane's re-armed deadline in
        // the past relative to later members; a batch is never ready
        // before its newest member arrived.
        let ready = deadline.max(members.last().map_or(0, |r| r.arrival));
        if let Some(front) = self.queue.front(lane) {
            let (next, front_id) = (front.arrival.saturating_add(limits.max_wait_cycles), front.id);
            self.deadlines.arm(next, lane, front_id, &self.queue);
        }
        self.dispatch_burst(lane, vec![members], ready);
    }

    /// A crash-cancelled request's backoff expired: re-admit it
    /// through the normal batching path.
    fn on_retry(&mut self) {
        let (t, request, attempts) =
            self.faults.as_deref_mut().expect("retry event").retries.pop().expect("peeked");
        self.trace_flush(t);
        {
            let backlog = self.queued + self.in_flight_requests;
            let f = self.faults.as_deref_mut().expect("retry event");
            f.update_degraded(t, backlog);
            f.stats.retries += 1;
        }
        if let Some(tr) = self.trace.as_mut() {
            tr.record(TraceEvent {
                cycle: t,
                kind: TraceEventKind::RequestRetried,
                shard: 0,
                lane: 0,
                model: request.model as u32,
                stage: 0,
                a: request.id,
                b: attempts as u64,
            });
        }
        self.admit(request, t, Some(attempts));
    }

    /// Queues `request` on its model lane at `now` and dispatches every
    /// batch it fills, as one burst ready at `now` (every member
    /// arrived, or was re-admitted, at or before it).
    ///
    /// A fresh arrival (`retry == None`) is tail-dropped when its lane
    /// is full, and a new lane front's wait budget starts at that
    /// front's own arrival. A retry (`Some(attempts)`) reserves no
    /// capacity, so a full lane fails it instead, and the fronts it
    /// arms wait from the retry instant (a retried request's original
    /// arrival lies in the past).
    fn admit(&mut self, request: Request, now: u64, retry: Option<u32>) {
        let lane = request.model;
        let limits = self.policy.limits_for(lane);
        assert!(limits.max_batch > 0, "max_batch must be non-zero");
        let was_empty = self.queue.pending(lane) == 0;
        if !self.queue.try_push(request) {
            match retry {
                None => self.drop_request(request),
                Some(attempts) => self.fail_request(request, attempts, now),
            }
            return;
        }
        self.queued += 1;
        let max_wait = limits.max_wait_cycles;
        let wait_from = |front: &Request| retry.map_or(front.arrival, |_| now);
        if was_empty {
            self.deadlines.arm(
                wait_from(&request).saturating_add(max_wait),
                lane,
                request.id,
                &self.queue,
            );
        }
        // Several batches may seal back-to-back here when an adaptive
        // policy shrank `max_batch` below the lane's backlog; they
        // dispatch as one burst, in seal order.
        let sealed = self.queue.pop_full_batches(lane, limits.max_batch);
        if sealed.is_empty() {
            return;
        }
        if let Some(front) = self.queue.front(lane) {
            let (deadline, front_id) = (wait_from(front).saturating_add(max_wait), front.id);
            self.deadlines.arm(deadline, lane, front_id, &self.queue);
        }
        self.dispatch_burst(lane, sealed, now);
    }

    /// Tail-drops `request` at its arrival (a full model lane, or a
    /// best-effort model shed in degraded mode).
    fn drop_request(&mut self, request: Request) {
        self.dropped_per_model[request.model] += 1;
        if let Some(tr) = self.trace.as_mut() {
            tr.record(TraceEvent {
                cycle: request.arrival,
                kind: TraceEventKind::RequestDropped,
                shard: 0,
                lane: 0,
                model: request.model as u32,
                stage: 0,
                a: request.id,
                b: self.queued as u64,
            });
        }
        self.push_outcome(RequestOutcome::Dropped(DroppedRequest {
            id: request.id,
            model: self.models[request.model].name,
            arrival: request.arrival,
        }));
        // A drop completes the client's outstanding request
        // immediately; it thinks and retries from the drop time.
        self.release_client(request.id, request.arrival);
    }

    /// Abandons `request` as [`RequestOutcome::Failed`] at `now` after
    /// `attempts` consumed dispatch attempts.
    fn fail_request(&mut self, request: Request, attempts: u32, now: u64) {
        {
            let f = self.faults.as_deref_mut().expect("fault mode");
            f.attempts.remove(&request.id);
            f.stats.failed += 1;
            f.failed_per_model[request.model] += 1;
        }
        self.push_outcome(RequestOutcome::Failed(FailedRequest {
            id: request.id,
            model: self.models[request.model].name,
            arrival: request.arrival,
            attempts,
        }));
        self.release_client(request.id, now);
    }

    /// Tells the closed-loop client that issued request `id` (if any)
    /// that it resolved at `now`, so it issues its next request. The
    /// client map is only populated in closed-loop mode, where
    /// engine-assigned ids are dense; open-loop lookups miss and no-op.
    fn release_client(&mut self, id: u64, now: u64) {
        let client = self.client_of.get(id as usize).copied().flatten();
        self.arrivals.request_finished(client, now);
    }

    /// Processes the next fault-timeline edge: a crash or slowdown
    /// window opening or closing on one lane.
    fn on_fault(&mut self) {
        let ev = {
            let f = self.faults.as_deref_mut().expect("fault event");
            let ev = f.timeline.events()[f.cursor];
            f.cursor += 1;
            ev
        };
        let t = ev.time;
        self.trace_flush(t);
        let backlog = self.queued + self.in_flight_requests;
        self.faults.as_deref_mut().expect("fault event").update_degraded(t, backlog);
        match ev.edge {
            WindowEdge::CrashStart => self.on_lane_crash(t, ev),
            WindowEdge::CrashEnd => self.on_lane_recovery(t, ev),
            WindowEdge::SlowStart => {
                self.faults.as_deref_mut().expect("fault event").stats.slowdowns += 1;
                if let Some(tr) = self.trace.as_mut() {
                    tr.record(TraceEvent {
                        cycle: t,
                        kind: TraceEventKind::LaneFailed,
                        shard: 0,
                        lane: ev.lane as u32,
                        model: 0,
                        stage: 0,
                        a: ev.duration,
                        b: ev.factor,
                    });
                }
            }
            WindowEdge::SlowEnd => {
                if let Some(tr) = self.trace.as_mut() {
                    tr.record(TraceEvent {
                        cycle: t,
                        kind: TraceEventKind::LaneRecovered,
                        shard: 0,
                        lane: ev.lane as u32,
                        model: 0,
                        stage: 0,
                        a: ev.duration,
                        b: ev.factor,
                    });
                }
            }
        }
        // Re-evaluate degraded mode against the post-edge health
        // table: a crash (or recovery) at `t` flips the lane-down
        // condition at `t` itself, not at the next event.
        let backlog = self.queued + self.in_flight_requests;
        self.faults.as_deref_mut().expect("fault event").update_degraded(t, backlog);
    }

    /// A crash window opens on `lane` at `t`: every in-flight batch on
    /// the lane is cancelled — its partially-executed cycles stay
    /// charged, the unexecuted remainder is refunded — and each member
    /// either schedules a retry or fails under the retry policy. The
    /// lane accepts no new work before the window closes (`free_at`
    /// jumps to the recovery time, so placement routes around it).
    fn on_lane_crash(&mut self, t: u64, ev: TimelineEvent) {
        let lane = ev.lane;
        let cancelled = {
            let f = self.faults.as_deref_mut().expect("crash event");
            f.stats.lane_crashes += 1;
            f.down[lane] = true;
            f.down_count += 1;
            std::mem::take(&mut f.lane_active[lane])
        };
        if let Some(tr) = self.trace.as_mut() {
            tr.record(TraceEvent {
                cycle: t,
                kind: TraceEventKind::LaneFailed,
                shard: 0,
                lane: lane as u32,
                model: 0,
                stage: 0,
                a: ev.duration,
                b: 0,
            });
        }
        // The lane is unusable until the window closes; everything it
        // was running is void, so it frees exactly at recovery.
        self.free_at[lane] = t + ev.duration;
        for index in cancelled {
            // The record stays, flagged, until its stale wheel entry
            // pops; its members leave it now.
            let batch = self.batches.get_mut(&index).expect("a crashed batch is in flight");
            batch.cancelled = true;
            let executed = t.saturating_sub(batch.start).min(batch.service_cycles);
            let refund = batch.service_cycles - executed;
            let members = std::mem::take(&mut batch.requests);
            self.worker_stats[lane].busy_cycles -= refund;
            self.in_flight_requests -= members.len();
            for r in members {
                let (attempts, retry_at) = {
                    let f = self.faults.as_deref_mut().expect("crash event");
                    let attempts = f.attempts.entry(r.id).or_insert(0);
                    *attempts += 1;
                    (*attempts, f.config.retry.next_retry(t, r.arrival, *attempts))
                };
                match retry_at {
                    Some(rt) => self
                        .faults
                        .as_deref_mut()
                        .expect("crash event")
                        .retries
                        .schedule(rt, r, attempts),
                    None => self.fail_request(r, attempts, t),
                }
            }
        }
    }

    /// A crash window closes: the lane rejoins the fleet **cold** on
    /// the simulated clock — its weight SRAM is empty, so the first
    /// stage it runs streams its compressed weights over DMA again
    /// (`warm == false`, [`WeightResidency::Streamed`]). W-DBB
    /// compression happens once, before serving, so the host's weight
    /// plans and activation profiles are pure memo tables that a
    /// restart neither invalidates nor needs to recompile.
    fn on_lane_recovery(&mut self, t: u64, ev: TimelineEvent) {
        let lane = ev.lane;
        {
            let f = self.faults.as_deref_mut().expect("recovery event");
            f.stats.lane_recoveries += 1;
            f.stats.lane_recovery_counts[lane] += 1;
            f.stats.lane_downtime_cycles[lane] += ev.duration;
            f.down[lane] = false;
            f.down_count -= 1;
        }
        if let Some(tr) = self.trace.as_mut() {
            tr.record(TraceEvent {
                cycle: t,
                kind: TraceEventKind::LaneRecovered,
                shard: 0,
                lane: lane as u32,
                model: 0,
                stage: 0,
                a: ev.duration,
                b: 0,
            });
        }
        // The restarted lane's weight SRAM is empty: its next stage
        // re-streams weights whatever ran there before the crash.
        self.last_stage_on_lane[lane] = None;
    }

    /// Records a router failover landing `request` on this shard
    /// (called by the cluster drivers immediately before injecting).
    pub(crate) fn note_failover(&mut self, request: &Request) {
        if let Some(f) = self.faults.as_deref_mut() {
            f.stats.failovers += 1;
        }
        if let Some(tr) = self.trace.as_mut() {
            tr.record(TraceEvent {
                cycle: request.arrival,
                kind: TraceEventKind::ShardFailedOver,
                shard: 0,
                lane: 0,
                model: request.model as u32,
                stage: 0,
                a: request.id,
                b: 0,
            });
        }
    }

    /// Picks the lane a `members`-request batch of `model`, ready at
    /// `ready`, dispatches to under the fleet's placement strategy.
    /// The choice depends only on `free_at`, the estimator, and the
    /// batch metadata — never on the batch's own (not yet known)
    /// execution.
    fn choose_lane(&self, model: usize, members: usize, ready: u64) -> usize {
        // Only the active-lane prefix receives new batches (the
        // autoscaler's contract); with every lane active — the default
        // — the slices are the full fleet.
        let active = &self.free_at[..self.active_lanes];
        match self.fleet.placement {
            PlacementStrategy::EarliestFree => earliest_free_lane(active),
            PlacementStrategy::Affinity => {
                // Predicted service per lane; lanes without evidence
                // predict zero (optimistic), which makes the rule
                // collapse to earliest-free until the estimator has
                // data — and always on homogeneous fleets, where every
                // lane predicts alike.
                let predicted: Vec<u64> = self.fleet.lanes[..self.active_lanes]
                    .iter()
                    .map(|l| self.estimator.predict(l.arch(), model, members).unwrap_or(0))
                    .collect();
                affinity_lane(active, ready, &predicted)
            }
            // Pipelined batches never choose a single lane: their
            // stages are pinned by the model's PipelinePlan and
            // dispatch_burst routes them before reaching here.
            PlacementStrategy::Pipelined => {
                unreachable!("pipelined dispatch bypasses single-lane choice")
            }
        }
    }

    /// Executes and places a burst of batches sealed off one model
    /// lane at one event, all ready at `ready`, in seal order: each
    /// monolithic batch simulates once, on the lane it picks, and each
    /// pipelined batch once per stage, on the model's pinned stage
    /// lanes. Nothing about a batch's requests is recorded here: they
    /// resolve at its completion event ([`Engine::on_completion`]).
    fn dispatch_burst(&mut self, model: usize, sealed: Vec<Vec<Request>>, ready: u64) {
        // Every sealed member moves from the queued half of the
        // backlog to the in-flight half (it stays outstanding until
        // its batch's completion event).
        for members in &sealed {
            self.queued -= members.len();
            self.in_flight_requests += members.len();
        }
        // The burst borrows the model's cached plan, moved out of the
        // cache until the burst ends. A first-use partition runs under
        // its own host span, before the execute span opens.
        let plan = (self.fleet.placement == PlacementStrategy::Pipelined)
            .then(|| self.take_pipeline_plan(model));
        let exec_started = self.trace.is_some().then(Instant::now);
        for members in sealed {
            match &plan {
                Some(plan) => self.dispatch_pipelined(model, plan, members, ready),
                None => self.dispatch_monolithic(model, members, ready),
            }
        }
        if let (Some(t0), Some(tr)) = (exec_started, self.trace.as_mut()) {
            tr.host.add("batch-execute", t0.elapsed());
        }
        if let Some(plan) = plan {
            self.pipelines.insert(model, plan);
        }
    }

    /// The one stage-execution step: simulates `members` through
    /// `layers` of `model` on `lane` ([`Lane::execute_stage`]) and
    /// prices the run. It starts at `max(free_at[lane], earliest)`, and
    /// with faults attached the lane's slowdown factor at that start
    /// inflates its service. Nothing is committed until
    /// [`Engine::charge`]: hedging prices two copies before it keeps
    /// one, and pipeline backpressure may delay a stage's start.
    fn run_stage(
        &self,
        model: usize,
        layers: std::ops::Range<usize>,
        members: &[Request],
        lane: usize,
        earliest: u64,
        warm: bool,
    ) -> StageRun {
        let (fleet, spec) = (self.fleet, &self.models[model]);
        let events =
            fleet.lanes[lane].execute_stage(spec, layers, members, fleet.weight_seed, warm);
        let start = self.free_at[lane].max(earliest);
        let slow = self.faults.as_deref().map_or(1, |f| f.timeline.slow_factor_at(lane, start));
        StageRun { lane, events, start, service: events.cycles.saturating_mul(slow) }
    }

    /// Commits a priced run to its lane: the idle gap before it, the
    /// lane's new free time, and its events and busy cycles. `requests`
    /// is the batch size the lane tallies as one more batch; a hedge
    /// loser, whose result is discarded, passes `None`.
    fn charge(&mut self, run: &StageRun, requests: Option<usize>) {
        self.lane_cum_idle[run.lane] += run.start - self.free_at[run.lane];
        self.free_at[run.lane] = run.completion();
        self.total_events += run.events;
        let stats = &mut self.worker_stats[run.lane];
        stats.busy_cycles += run.service;
        stats.events += run.events;
        if let Some(requests) = requests {
            stats.batches += 1;
            stats.requests += requests;
        }
    }

    /// Runs one batch through the whole model on the lane it picks (the
    /// choice sees the earlier batches' placements, never its own
    /// execution). With faults attached, an aged batch may be
    /// **hedged** onto a second lane (see [`Engine::hedge`]).
    fn dispatch_monolithic(&mut self, model: usize, members: Vec<Request>, ready: u64) {
        let lane = self.choose_lane(model, members.len(), ready);
        let layers = 0..self.models[model].layers.len();
        let mut run = self.run_stage(model, layers, &members, lane, ready, false);
        let batch_id = self.dispatched;
        // Charge the losing copy's lane time as wasted capacity: its
        // lane is busy racing a batch whose result is discarded.
        if let Some(loser) = self.hedge(model, &members, ready, &mut run) {
            self.charge(&loser, None);
            self.faults.as_deref_mut().expect("hedges need faults").stats.hedges += 1;
            if let Some(tr) = self.trace.as_mut() {
                tr.record(TraceEvent {
                    cycle: run.start,
                    kind: TraceEventKind::RequestHedged,
                    shard: 0,
                    lane: run.lane as u32,
                    model: model as u32,
                    stage: 0,
                    a: batch_id as u64,
                    b: loser.lane as u64,
                });
            }
        }
        self.charge(&run, Some(members.len()));
        if let Some(f) = self.faults.as_deref_mut() {
            f.lane_active[run.lane].push(batch_id);
        }
        self.launch(
            run.completion(),
            EngineBatch {
                model,
                requests: members,
                ready,
                start: run.start,
                lane: run.lane,
                service_cycles: run.service,
                cancelled: false,
            },
        );
    }

    /// Fault mode: when a batch already queued for longer than the
    /// hedge policy's `age_factor ×` its learned service estimate, a
    /// duplicate runs on the next earliest-free active lane. The faster
    /// copy becomes `primary` (lane index breaks exact ties) and the
    /// other is returned as the loser, whose lane time is wasted.
    fn hedge(
        &self,
        model: usize,
        members: &[Request],
        ready: u64,
        primary: &mut StageRun,
    ) -> Option<StageRun> {
        let f = self.faults.as_deref()?;
        let hedge = f.config.hedge?;
        let age = ready.saturating_sub(members.first().map_or(ready, |r| r.arrival));
        let arch = self.fleet.lanes[primary.lane].arch();
        let predicted = self.estimator.predict(arch, model, members.len());
        let aged = predicted.is_some_and(|p| p > 0 && age > hedge.age_factor.saturating_mul(p));
        if !aged || self.active_lanes < 2 {
            return None;
        }
        let lane = (0..self.active_lanes)
            .filter(|&l| l != primary.lane)
            .min_by_key(|&l| (self.free_at[l], l))
            .expect("two active lanes");
        let layers = 0..self.models[model].layers.len();
        let alt = self.run_stage(model, layers, members, lane, ready, false);
        if (alt.completion(), alt.lane) < (primary.completion(), primary.lane) {
            Some(std::mem::replace(primary, alt))
        } else {
            Some(alt)
        }
    }

    /// Takes the model's pipeline plan out of the engine's cache,
    /// partitioning it on first use (the partition is deterministic,
    /// so lazy construction never leaks host timing into results).
    fn take_pipeline_plan(&mut self, model: usize) -> PipelinePlan {
        if let Some(plan) = self.pipelines.remove(&model) {
            return plan;
        }
        let t0 = self.trace.is_some().then(Instant::now);
        let plan = PipelinePlan::partition(
            &self.fleet.lanes,
            model,
            &self.models[model],
            self.fleet.pipeline_stages,
            self.fleet.weight_seed,
        );
        if let (Some(t0), Some(tr)) = (t0, self.trace.as_mut()) {
            tr.host.add("pipeline-calibrate", t0.elapsed());
        }
        plan
    }

    /// Executes one sealed batch through its model's layer pipeline:
    /// the batch flows through the pinned stage lanes in order, each
    /// stage starting when its input activations arrive (previous
    /// stage's completion plus the boundary handoff), its lane frees
    /// up, and the bounded inter-stage queue has drained far enough.
    /// Consecutive batches therefore overlap: stage `s` of this batch
    /// runs while stage `s+1` still works on the previous one.
    ///
    /// A stage lane whose immediately-preceding execution was the same
    /// `(model, stage)` runs **warm** — its stage weights are still in
    /// the weight SRAM, so even the batch's first request skips the
    /// weight DMA on memory-bound layers (this is where pinning layers
    /// to lanes beats monolithic rotation on FC/depthwise-heavy
    /// models).
    fn dispatch_pipelined(
        &mut self,
        model: usize,
        plan: &PipelinePlan,
        members: Vec<Request>,
        ready: u64,
    ) {
        let queue_capacity = self.fleet.pipeline_queue_capacity;
        let batch_id = self.dispatched;
        let stages = plan.stages();
        // When the next stage's input becomes available (the batch's
        // `ready` for stage 0, completion + handoff afterwards).
        let mut input_at = ready;
        let mut first_start = ready;
        let mut completion = ready;
        for (s, stage) in stages.iter().enumerate() {
            let lane = stage.lane;
            let warm = self.last_stage_on_lane[lane] == Some((model, s));
            let mut run =
                self.run_stage(model, stage.layers.clone(), &members, lane, input_at, warm);
            let unconstrained = run.start;
            // Backpressure: the boundary queue ahead holds at most
            // `queue_capacity` undelivered handoffs, so this stage may
            // not begin batch b before the next stage began batch
            // b - capacity.
            if s + 1 < stages.len() {
                if let Some(history) = self.boundary_starts.get(&(model, s)) {
                    if history.len() == queue_capacity {
                        run.start = run.start.max(*history.front().expect("non-empty at capacity"));
                    }
                }
            }
            if let Some(tr) = self.trace.as_mut() {
                if run.start > unconstrained {
                    tr.record(TraceEvent {
                        cycle: run.start,
                        kind: TraceEventKind::StageStall,
                        shard: 0,
                        lane: lane as u32,
                        model: model as u32,
                        stage: s as u32,
                        a: batch_id as u64,
                        b: run.start - unconstrained,
                    });
                }
                tr.record(TraceEvent {
                    cycle: run.start,
                    kind: TraceEventKind::StageDispatch,
                    shard: 0,
                    lane: lane as u32,
                    model: model as u32,
                    stage: s as u32,
                    a: batch_id as u64,
                    b: run.service,
                });
            }
            // Per-lane occupancy: every stage execution counts on its
            // own lane (a pipelined batch touches one lane per stage,
            // so per-lane batch/request tallies sum to more than the
            // fleet totals — see [`WorkerStats::batches`]).
            self.charge(&run, Some(members.len()));
            self.last_stage_on_lane[lane] = Some((model, s));
            let handoff = if s == 0 { 0 } else { plan.handoff_cycles()[s - 1] };
            let stats = self.stage_stats.entry((model, s)).or_insert_with(|| StageStatsAccum {
                layers: (stage.layers.start, stage.layers.end),
                lane,
                ..StageStatsAccum::default()
            });
            stats.batches += 1;
            stats.requests += members.len();
            stats.busy_cycles += run.service;
            stats.handoff_cycles += handoff;
            // A stage's bubbles are the cycles its lane sat *idle*
            // between this stage's consecutive executions. On a lane
            // shared with another model's stage, wall time since this
            // stage's last completion would wrongly charge the other
            // stage's busy cycles here; the per-lane idle accumulator
            // excludes them by construction. (On a single-model
            // pipeline the two accountings coincide exactly.)
            if stats.batches > 1 {
                stats.bubble_cycles += self.lane_cum_idle[lane] - stats.idle_seen;
            }
            stats.idle_seen = self.lane_cum_idle[lane];
            if s == 0 {
                first_start = run.start;
            } else {
                // This downstream start joins the boundary queue behind
                // it, trimmed to capacity: only the capacity-th most
                // recent start can ever gate a future batch.
                let history = self.boundary_starts.entry((model, s - 1)).or_default();
                history.push_back(run.start);
                while history.len() > queue_capacity {
                    history.pop_front();
                }
            }
            completion = run.completion();
            input_at = completion + if s + 1 < stages.len() { plan.handoff_cycles()[s] } else { 0 };
        }
        self.launch(
            completion,
            EngineBatch {
                model,
                requests: members,
                ready,
                start: first_start,
                lane: stages.last().expect("a pipeline has stages").lane,
                service_cycles: completion - first_start,
                cancelled: false,
            },
        );
    }

    /// Puts the next batch id in flight until `completion`.
    fn launch(&mut self, completion: u64, batch: EngineBatch) {
        let id = self.dispatched;
        self.dispatched += 1;
        self.in_flight.push(completion, id);
        self.batches.insert(id, batch);
    }

    /// Reserves the outcome log for `requests` more resolved requests.
    pub(crate) fn reserve_outcomes(&mut self, requests: usize) {
        self.outcomes.reserve_exact(requests);
    }

    /// Appends one resolved request to the outcome log: a drop or shed
    /// at arrival, a failure at a crash or a full retry, or a service at
    /// its batch's completion. Every injected request resolves exactly
    /// once, so a log reserved to its known length (a stream, a
    /// closed-loop budget, a pre-routed shard) never grows. A barrier
    /// shard's log is reserved at its even share of the stream and,
    /// past that, grows by an eighth at a time: its spare capacity
    /// stays under an eighth of its records, not up to the whole log
    /// that doubling leaves.
    fn push_outcome(&mut self, outcome: RequestOutcome) {
        if self.outcomes.len() == self.outcomes.capacity() {
            self.outcomes.reserve_exact(self.outcomes.len() / 8 + 64);
        }
        self.outcomes.push(outcome);
    }

    pub(crate) fn into_report(mut self) -> ServeReport {
        // Ids are unique, so the unstable sort gives the stable order
        // without the stable sort's merge buffer.
        self.outcomes.sort_unstable_by_key(RequestOutcome::id);
        let fault_state = self.faults.take();
        let per_model = self
            .models
            .iter()
            .enumerate()
            .map(|(i, m)| ModelServeStats {
                model: m.name.to_string(),
                dropped: self.dropped_per_model[i],
                deadline_misses: self.missed_per_model[i],
                failed: fault_state.as_ref().map_or(0, |f| f.failed_per_model[i]),
            })
            .collect();
        let fault = fault_state.map(|f| f.finish(self.makespan)).unwrap_or_default();
        let latency_hist = LatencyHistogram::collect(
            self.outcomes.iter().filter_map(RequestOutcome::latency_cycles),
        );
        let trace = TraceCell::default();
        if let Some(tr) = self.trace.take() {
            let weights = self.fleet.accelerator().plans().stats().since(self.cache_before);
            let acts = self.fleet.accelerator().act_profiles().stats().since(self.act_cache_before);
            let names = self.models.iter().map(|m| m.name.to_string()).collect();
            trace.set(tr.finish(self.makespan, Some((weights, acts)), names));
        }
        let pipeline_stages = self
            .stage_stats
            .into_iter()
            .map(|((model, stage), acc)| PipelineStageStats {
                model: self.models[model].name.to_string(),
                stage,
                layers: acc.layers,
                lane: acc.lane,
                arch: self.fleet.lanes[acc.lane].arch(),
                batches: acc.batches,
                requests: acc.requests,
                busy_cycles: acc.busy_cycles,
                bubble_cycles: acc.bubble_cycles,
                handoff_cycles: acc.handoff_cycles,
            })
            .collect();
        ServeReport {
            arch: self.fleet.arch_label(),
            policy: self.policy.name().to_string(),
            outcomes: self.outcomes,
            batches: self.dispatched,
            workers: self.worker_stats,
            total_events: self.total_events,
            makespan_cycles: self.makespan,
            pipeline_stages,
            per_model,
            fault,
            latency_hist,
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{BatchLimits, SloAwarePolicy};
    use crate::workload::WorkloadSpec;
    use s2ta_models::lenet5;

    fn tiny_workload(n: usize) -> (Vec<ModelSpec>, Vec<Request>) {
        let models = vec![lenet5()];
        let reqs = WorkloadSpec::uniform(11, n, 20_000.0, 1).generate();
        (models, reqs)
    }

    #[test]
    fn serves_every_request_exactly_once() {
        let (models, reqs) = tiny_workload(24);
        let report = Fleet::new(ArchKind::S2taAw, 3).serve(&models, &reqs);
        assert_eq!(report.outcomes.len(), 24);
        assert_eq!(report.dropped_count(), 0);
        for (i, o) in report.outcomes.iter().enumerate() {
            assert_eq!(o.id(), i as u64, "outcomes must be dense by id");
            let s = o.served().expect("no drops without a capacity bound");
            assert!(s.completion > s.arrival);
            assert!(s.worker < 3);
        }
        let served: usize = report.workers.iter().map(|w| w.requests).sum();
        assert_eq!(served, 24);
    }

    #[test]
    fn deterministic_across_runs_and_aggregate_across_fleet_sizes() {
        let (models, reqs) = tiny_workload(16);
        let fleet = Fleet::new(ArchKind::S2taAw, 2);
        let a = fleet.serve(&models, &reqs);
        let b = fleet.serve(&models, &reqs);
        assert_eq!(a, b, "same fleet, same workload, same report");
        let c = Fleet::new(ArchKind::S2taAw, 5).serve(&models, &reqs);
        assert_eq!(a.total_events, c.total_events, "events must not depend on fleet size");
        assert_eq!(a.batches, c.batches);
        assert_eq!(a.outcomes.len(), c.outcomes.len());
    }

    #[test]
    fn more_workers_never_hurt_latency() {
        let (models, reqs) = tiny_workload(32);
        let one = Fleet::new(ArchKind::S2taAw, 1).serve(&models, &reqs);
        let four = Fleet::new(ArchKind::S2taAw, 4).serve(&models, &reqs);
        assert!(four.makespan_cycles <= one.makespan_cycles);
        assert!(four.p99_cycles() <= one.p99_cycles());
    }

    #[test]
    fn batching_beats_unbatched_on_memory_bound_models() {
        // LeNet is FC-heavy; amortizing weight streaming across a batch
        // must reduce total simulated cycles.
        let (models, reqs) = tiny_workload(32);
        let batched = Fleet::new(ArchKind::S2taAw, 2)
            .with_policy(FixedPolicy { max_batch: 8, max_wait_cycles: 1_000_000 })
            .serve(&models, &reqs);
        let unbatched = Fleet::new(ArchKind::S2taAw, 2)
            .with_policy(FixedPolicy::unbatched())
            .serve(&models, &reqs);
        assert!(
            batched.total_events.cycles < unbatched.total_events.cycles,
            "batched {} vs unbatched {} cycles",
            batched.total_events.cycles,
            unbatched.total_events.cycles
        );
        assert_eq!(
            batched.total_events.macs_active, unbatched.total_events.macs_active,
            "batching changes time, not arithmetic"
        );
    }

    /// The admission boundary at capacities 0 and 1, end to end: a
    /// zero-capacity fleet drops everything calmly, and a capacity-1
    /// fleet admits exactly the requests that find their lane empty.
    #[test]
    fn fleet_admission_boundaries_at_capacity_zero_and_one() {
        let (models, reqs) = tiny_workload(20);
        let drop_all = Fleet::new(ArchKind::S2taAw, 2).with_queue_capacity(0).serve(&models, &reqs);
        assert_eq!(drop_all.dropped_count(), 20);
        assert_eq!(drop_all.served_count(), 0);
        assert_eq!(drop_all.batches, 0);
        assert_eq!(drop_all.makespan_cycles, 0);
        assert_eq!(drop_all.p99_cycles(), 0, "drop-only runs report calm percentiles");

        let policy = FixedPolicy { max_batch: 4, max_wait_cycles: 10_000 };
        let one = Fleet::new(ArchKind::S2taAw, 2)
            .with_policy(policy)
            .with_queue_capacity(1)
            .serve(&models, &reqs);
        assert_eq!(one.served_count() + one.dropped_count(), 20);
        assert!(one.served_count() > 0, "capacity 1 still serves the lane-empty arrivals");
    }

    #[test]
    fn closed_loop_is_deterministic_and_bounded_by_budget() {
        let models = vec![lenet5()];
        let spec = ClosedLoopSpec::uniform(19, 4, 40, 5_000.0, 1);
        let fleet = Fleet::new(ArchKind::S2taAw, 2);
        let mut p1 = FixedPolicy { max_batch: 4, max_wait_cycles: 20_000 };
        let mut p2 = p1;
        let a = fleet.serve_closed_loop(&models, &spec, &mut p1);
        let b = fleet.serve_closed_loop(&models, &spec, &mut p2);
        assert_eq!(a, b, "closed loop must be deterministic for a fixed seed/policy/workers");
        assert_eq!(a.outcomes.len(), 40, "every budgeted request is issued exactly once");
        for (i, o) in a.outcomes.iter().enumerate() {
            assert_eq!(o.id(), i as u64);
        }
    }

    #[test]
    fn closed_loop_keeps_at_most_one_request_in_flight_per_client() {
        let models = vec![lenet5()];
        let clients = 3;
        let spec = ClosedLoopSpec::uniform(23, clients, 30, 1_000.0, 1);
        let mut policy = FixedPolicy::unbatched();
        let report =
            Fleet::new(ArchKind::S2taAw, clients).serve_closed_loop(&models, &spec, &mut policy);
        // With batch-1 dispatch and one worker per client, a client's
        // requests can never overlap: at most `clients` requests are
        // ever concurrently in the system.
        let mut events: Vec<(u64, i64)> = Vec::new();
        for o in report.served_outcomes() {
            events.push((o.arrival, 1));
            events.push((o.completion, -1));
        }
        events.sort_unstable();
        let mut open = 0i64;
        for (_, delta) in events {
            open += delta;
            assert!(open <= clients as i64, "more than one outstanding request per client");
        }
    }

    #[test]
    fn slo_policy_cuts_tail_latency_against_wide_open_fixed_policy() {
        let models = vec![lenet5()];
        let reqs = WorkloadSpec::uniform(31, 48, 8_000.0, 1).generate();
        let fleet = Fleet::new(ArchKind::S2taAw, 2);
        let fixed_wide = FixedPolicy { max_batch: 8, max_wait_cycles: 400_000 };
        let baseline = fleet.clone().with_policy(fixed_wide).serve(&models, &reqs);
        let mut slo =
            SloAwarePolicy::new(60_000, BatchLimits { max_batch: 8, max_wait_cycles: 400_000 });
        let adaptive = fleet.serve_adaptive(&models, &reqs, &mut slo);
        assert!(
            adaptive.p99_cycles() < baseline.p99_cycles(),
            "SLO-aware p99 {} must beat fixed p99 {}",
            adaptive.p99_cycles(),
            baseline.p99_cycles()
        );
    }

    #[test]
    fn fleet_spec_builders_and_labels() {
        let spec = FleetSpec::mixed(&[(ArchKind::S2taAw, 2), (ArchKind::SaZvcg, 2)]);
        assert_eq!(spec.lanes(), 4);
        assert_eq!(spec.label(), "2xS2TA-AW + 2xSA-ZVCG");
        assert_eq!(FleetSpec::homogeneous(ArchKind::S2taW, 3).label(), "S2TA-W");
        let fleet = Fleet::from_spec(spec);
        assert_eq!(fleet.workers(), 4);
        assert_eq!(fleet.arch_label(), "2xS2TA-AW + 2xSA-ZVCG");
        assert_eq!(fleet.lanes()[0].arch(), ArchKind::S2taAw);
        assert_eq!(fleet.lanes()[3].arch(), ArchKind::SaZvcg);
        // Interleaved lanes still group by first appearance.
        let interleaved =
            FleetSpec::new().lane(ArchKind::SaZvcg).lane(ArchKind::S2taAw).lane(ArchKind::SaZvcg);
        assert_eq!(interleaved.label(), "2xSA-ZVCG + 1xS2TA-AW");
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn empty_spec_rejected() {
        let _ = Fleet::from_spec(FleetSpec::new());
    }

    /// An empty request stream must produce a calm empty report.
    #[test]
    fn empty_request_stream_is_served_calmly() {
        let models = vec![lenet5()];
        let report = Fleet::new(ArchKind::S2taAw, 2).serve(&models, &[]);
        assert_eq!(report.outcomes.len(), 0);
        assert_eq!(report.batches, 0);
        assert_eq!(report.makespan_cycles, 0);
    }

    /// `with_accelerator` keeps the caller's plan cache: plans compiled
    /// up front stay warm, and the fleet's compilations flow back.
    #[test]
    fn with_accelerator_shares_the_callers_plan_cache() {
        let (models, reqs) = tiny_workload(8);
        let acc = Accelerator::preset(ArchKind::S2taAw);
        // Pre-warm with the fleet's default weight seed (42).
        let prewarmed = acc.plan_model(&models[0], 42);
        let fleet = Fleet::with_accelerator(acc.clone(), 2);
        assert!(
            std::sync::Arc::ptr_eq(
                &prewarmed,
                &fleet.lanes()[0].accelerator().plan_model(&models[0], 42)
            ),
            "lanes must reuse the caller's pre-compiled plan"
        );
        let _ = fleet.with_weight_seed(7).serve(&models, &reqs);
        assert_eq!(
            acc.plans().len(),
            2,
            "the fleet's seed-7 compilation must be visible to the caller"
        );
    }

    /// Mixed-fleet lanes share one plan cache: each DBB architecture
    /// compiles the model exactly once, keyed apart by arch.
    #[test]
    fn mixed_fleet_lanes_share_one_plan_cache() {
        let (models, reqs) = tiny_workload(12);
        // Batch-1 dispatch spreads the stream over every lane.
        let fleet =
            Fleet::from_spec(FleetSpec::mixed(&[(ArchKind::S2taAw, 2), (ArchKind::S2taW, 2)]))
                .with_policy(FixedPolicy::unbatched());
        let _ = fleet.serve(&models, &reqs);
        // Both DBB archs planned lenet5 once each in the shared cache.
        assert_eq!(fleet.lanes()[0].accelerator().plans().len(), 2);
        for lane in fleet.lanes() {
            assert_eq!(
                lane.accelerator().plans().len(),
                2,
                "every lane must see the same shared cache"
            );
        }
    }

    /// Affinity placement on a homogeneous fleet must be byte-identical
    /// to earliest-free: with lane-indistinguishable predictions the
    /// cost model collapses to the same choice.
    #[test]
    fn affinity_collapses_to_earliest_free_on_homogeneous_fleets() {
        let (models, reqs) = tiny_workload(40);
        let policy = FixedPolicy { max_batch: 4, max_wait_cycles: 30_000 };
        for workers in [1usize, 3] {
            let base = Fleet::new(ArchKind::S2taAw, workers).with_policy(policy);
            let ef = base.clone().serve(&models, &reqs);
            let affinity = base.with_placement(PlacementStrategy::Affinity).serve(&models, &reqs);
            assert_eq!(ef, affinity, "workers {workers}");
        }
    }

    /// A single cold batch through the pipeline produces exactly the
    /// monolithic event totals on a homogeneous fleet: stage splitting
    /// changes *where* layers run, never what is computed. (Mixed
    /// fleets are excluded by design: the same MAC classifies
    /// differently per architecture.)
    #[test]
    fn pipelined_single_batch_is_event_identical_to_monolithic() {
        let models = vec![s2ta_models::deep_convnet()];
        // Four arrivals in a burst, max_batch 4: exactly one batch.
        let reqs = WorkloadSpec::uniform(5, 4, 10.0, 1).generate();
        let policy = FixedPolicy { max_batch: 4, max_wait_cycles: 1_000 };
        let mono = Fleet::new(ArchKind::S2taAw, 4).with_policy(policy).serve(&models, &reqs);
        assert_eq!(mono.batches, 1, "workload must form a single batch");
        for stages in [2usize, 3, 4] {
            let pipe = Fleet::new(ArchKind::S2taAw, 4)
                .with_policy(policy)
                .with_pipeline(stages)
                .serve(&models, &reqs);
            assert_eq!(pipe.batches, 1);
            assert_eq!(
                pipe.total_events, mono.total_events,
                "stages {stages}: a cold pipelined batch must be event-identical"
            );
            assert_eq!(pipe.served_count(), 4);
            // The pipeline pays handoffs, so its single-batch latency
            // can only be >= the monolithic run's.
            assert!(pipe.p99_cycles() >= mono.p99_cycles());
        }
    }

    /// Across many batches, pinned stage lanes keep their stage weights
    /// resident, so a pipelined run *saves* simulated cycles on the
    /// memory-bound layers while performing the identical arithmetic.
    #[test]
    fn pipelined_warm_stages_save_weight_dma_cycles() {
        let models = vec![s2ta_models::deep_convnet()];
        let reqs = WorkloadSpec::uniform(7, 24, 5_000.0, 1).generate();
        let policy = FixedPolicy { max_batch: 4, max_wait_cycles: 20_000 };
        let mono = Fleet::new(ArchKind::S2taAw, 4).with_policy(policy).serve(&models, &reqs);
        let pipe = Fleet::new(ArchKind::S2taAw, 4)
            .with_policy(policy)
            .with_pipeline(4)
            .serve(&models, &reqs);
        assert_eq!(
            pipe.total_events.macs_active, mono.total_events.macs_active,
            "pipelining changes time, not arithmetic"
        );
        assert!(
            pipe.total_events.cycles < mono.total_events.cycles,
            "warm pinned stages must save DMA-clamped cycles: {} vs {}",
            pipe.total_events.cycles,
            mono.total_events.cycles
        );
    }

    #[test]
    fn pipelined_run_is_deterministic_and_reports_stages() {
        let models = vec![s2ta_models::deep_convnet()];
        let reqs = WorkloadSpec::uniform(11, 20, 6_000.0, 1).generate();
        let mk = || {
            Fleet::from_spec(FleetSpec::mixed(&[(ArchKind::S2taAw, 2), (ArchKind::SaZvcg, 2)]))
                .with_policy(FixedPolicy { max_batch: 4, max_wait_cycles: 20_000 })
                .with_pipeline(4)
        };
        let a = mk().serve(&models, &reqs);
        let b = mk().serve(&models, &reqs);
        assert_eq!(a, b, "pipelined serving must be deterministic");
        assert_eq!(a.served_count(), 20);
        for (i, o) in a.outcomes.iter().enumerate() {
            assert_eq!(o.id(), i as u64);
            let s = o.served().expect("no drops");
            assert!(s.completion > s.arrival);
        }
        // Stage breakdown: tiles the model, distinct lanes, every
        // request flowed through every stage.
        let stages = &a.pipeline_stages;
        assert!(!stages.is_empty());
        assert_eq!(stages[0].layers.0, 0);
        assert_eq!(stages.last().unwrap().layers.1, models[0].layers.len());
        for pair in stages.windows(2) {
            assert_eq!(pair[0].layers.1, pair[1].layers.0);
        }
        let mut lanes: Vec<usize> = stages.iter().map(|s| s.lane).collect();
        lanes.sort_unstable();
        lanes.dedup();
        assert_eq!(lanes.len(), stages.len(), "stages must sit on distinct lanes");
        for st in stages {
            assert_eq!(st.requests, 20, "every request flows through stage {}", st.stage);
            assert!(st.busy_cycles > 0);
            assert_eq!(st.model, "Deep-ConvNet");
        }
        assert!(stages.iter().skip(1).all(|s| s.handoff_cycles > 0));
        assert_eq!(stages[0].handoff_cycles, 0, "stage 0 receives no handoff");
        // Lane events must still sum to the totals.
        let summed = a.workers.iter().fold(EventCounts::default(), |acc, w| acc + w.events);
        assert_eq!(summed, a.total_events);
        // The rendered table carries the stage rows.
        let table = a.pipeline_breakdown();
        assert!(table.contains("Deep-ConvNet") && table.contains("stage"), "{table}");
        // Monolithic runs render an empty table.
        assert!(mkmono().serve(&models, &reqs).pipeline_breakdown().is_empty());

        fn mkmono() -> Fleet {
            Fleet::from_spec(FleetSpec::mixed(&[(ArchKind::S2taAw, 2), (ArchKind::SaZvcg, 2)]))
        }
    }

    /// The bounded inter-stage queue is real backpressure: with
    /// capacity 1 an upstream stage may not start batch `b` before the
    /// downstream stage started batch `b-1`, so under a burst starts
    /// (and, when the induced bubble reaches the bottleneck stage,
    /// completions) can only move later — never earlier, and never
    /// change what is computed.
    #[test]
    fn bounded_interstage_queue_applies_backpressure() {
        let models = vec![s2ta_models::deep_convnet()];
        // A dense burst so many batches contend for the pipeline.
        let reqs = WorkloadSpec::uniform(3, 32, 200.0, 1).generate();
        let policy = FixedPolicy { max_batch: 4, max_wait_cycles: 5_000 };
        let mk = |cap: usize| {
            Fleet::new(ArchKind::S2taAw, 4)
                .with_policy(policy)
                .with_pipeline(4)
                .with_pipeline_queue_capacity(cap)
                .serve(&models, &reqs)
        };
        let tight = mk(1);
        let deep = mk(64);
        let starts = |r: &ServeReport| r.served_outcomes().map(|o| o.start).sum::<u64>();
        assert!(
            starts(&tight) > starts(&deep),
            "capacity-1 boundaries must delay upstream starts under a burst"
        );
        for (t, d) in tight.served_outcomes().zip(deep.served_outcomes()) {
            assert!(t.start >= d.start, "backpressure can only delay starts");
            assert!(t.completion >= d.completion, "backpressure can only delay completions");
        }
        assert!(tight.makespan_cycles >= deep.makespan_cycles);
        assert_eq!(tight.total_events, deep.total_events, "buffers change time, not work");
    }

    /// Regression test for the bubble-attribution skew: on a lane
    /// shared by **two models'** pipeline stages, a stage's bubbles
    /// must count only cycles its lane sat idle — not the other
    /// model's busy time on the same lane (wall-clock-since-my-last-
    /// completion accounting charged it here). The physical bound: a
    /// stage's bubbles are a subset of its lane's idle increments, so
    /// no stage can report more bubbles than its lane's idle span.
    /// (Two co-resident stages may both wait through the same idle
    /// gap, so bubbles deliberately do NOT sum to lane idle.)
    #[test]
    fn shared_lane_bubbles_exclude_other_models_busy_time() {
        let models = vec![lenet5(), s2ta_models::deep_convnet()];
        // Dense two-model traffic over a 2-lane pipeline: each model
        // splits into 2 stages, so both models' stages land on both
        // lanes and their executions interleave per lane.
        let reqs = WorkloadSpec::mixed(13, 48, 3_000.0, vec![1.0, 1.0]).generate();
        let report = Fleet::new(ArchKind::S2taAw, 2)
            .with_policy(FixedPolicy { max_batch: 4, max_wait_cycles: 8_000 })
            .with_pipeline(2)
            .serve(&models, &reqs);
        assert_eq!(report.served_count(), 48);
        let mut by_lane: HashMap<usize, Vec<&PipelineStageStats>> = HashMap::new();
        for st in &report.pipeline_stages {
            by_lane.entry(st.lane).or_default().push(st);
        }
        // The scenario must actually share a lane across models, or
        // the test proves nothing.
        assert!(
            by_lane.values().any(|stages| stages.iter().any(|s| s.model != stages[0].model)),
            "no lane is shared across models: {:?}",
            report.pipeline_stages
        );
        for st in &report.pipeline_stages {
            let busy = report.workers[st.lane].busy_cycles;
            let idle = report.makespan_cycles - busy;
            assert!(
                st.bubble_cycles <= idle,
                "{} stage {} on lane {}: bubbles ({}) exceed the lane's idle span \
                 ({idle}) — another model's busy time is being counted as bubbles",
                st.model,
                st.stage,
                st.lane,
                st.bubble_cycles
            );
        }
        // And the accounting is still live: some stage sees real
        // bubbles in this contended scenario.
        assert!(report.pipeline_stages.iter().any(|s| s.bubble_cycles > 0));
    }

    /// A run's cache activity is the diff of the fleet caches' counters
    /// around the call: on a mixed fleet each DBB arch compiles each
    /// model once (misses), every later execution hits, and dense
    /// lanes compile as bypasses.
    #[test]
    fn serve_drives_both_fleet_caches() {
        let models = vec![lenet5()];
        let reqs = WorkloadSpec::uniform(9, 16, 5_000.0, 1).generate();
        // Batch-1 dispatch spreads the stream over every lane, dense
        // ones included.
        let fleet =
            Fleet::from_spec(FleetSpec::mixed(&[(ArchKind::S2taAw, 2), (ArchKind::SaZvcg, 2)]))
                .with_policy(FixedPolicy::unbatched());
        let (plans, acts) = (fleet.accelerator().plans(), fleet.accelerator().act_profiles());
        let serve = || {
            let before = (plans.stats(), acts.stats());
            fleet.serve(&models, &reqs);
            (plans.stats().since(before.0), acts.stats().since(before.1))
        };
        let (w, a) = serve();
        assert_eq!(w.misses, 1, "one DBB arch, one model, one compile");
        assert!(w.hits > 0, "per-batch executions must hit the memo");
        assert!(w.bypasses > 0, "dense lanes compile as bypasses");
        assert!(w.hit_rate() > 0.5);
        // The activation-profile cache: every batch simulates once, on
        // its own lane, and every request carries a fresh act seed, so
        // a cold run profiles each (layer, act seed) exactly once — miss
        // only. The cache never bypasses.
        assert!(a.misses > 0, "cold run must compile profiles");
        assert_eq!(a.hits, 0, "a cold run never re-profiles an input");
        assert_eq!(a.bypasses, 0, "every act lookup is memoized");
        // A second run on the same fleet: plans and profiles are
        // already warm, so no new compiles on either cache and the act
        // side goes hits-only (steady state).
        let (w, a) = serve();
        assert_eq!((w.misses, w.bypasses), (0, 0), "warm cache: the delta has no compiles");
        assert!(w.hits > 0);
        assert_eq!(a.misses, 0, "warm act cache: no new profiles");
        assert!(a.hits > a.misses);
    }

    /// Heterogeneous earliest-free: per-lane stats reflect each lane's
    /// own architecture and sum to the fleet totals.
    #[test]
    fn mixed_fleet_reports_per_lane_archs_and_events() {
        let models = vec![lenet5()];
        let reqs = WorkloadSpec::uniform(7, 32, 8_000.0, 1).generate();
        let policy = FixedPolicy { max_batch: 4, max_wait_cycles: 30_000 };
        let report =
            Fleet::from_spec(FleetSpec::mixed(&[(ArchKind::S2taAw, 2), (ArchKind::SaZvcg, 1)]))
                .with_policy(policy)
                .serve(&models, &reqs);
        assert_eq!(report.workers[0].arch, ArchKind::S2taAw);
        assert_eq!(report.workers[2].arch, ArchKind::SaZvcg);
        assert_eq!(report.arch, "2xS2TA-AW + 1xSA-ZVCG");
        let summed = report.workers.iter().fold(EventCounts::default(), |acc, w| acc + w.events);
        assert_eq!(summed, report.total_events);
    }

    use crate::fault::{FaultConfig, FaultSpec, RetryPolicy};

    fn crash_spec(seed: u64, crashes: usize, horizon: u64, mean_down: u64) -> FaultSpec {
        FaultSpec {
            seed,
            lane_crashes: crashes,
            lane_slowdowns: 0,
            shard_outages: 0,
            horizon_cycles: horizon,
            mean_down_cycles: mean_down,
            mean_outage_cycles: 0,
            slowdown_factor: 4,
        }
    }

    /// A quiet fault config (injection armed, nothing scheduled) must
    /// not perturb the simulation: same outcomes, same events, same
    /// makespan as the plain fleet — and all-zero fault accounting.
    #[test]
    fn quiet_fault_config_does_not_perturb_serving() {
        let (models, reqs) = tiny_workload(24);
        let plain = Fleet::new(ArchKind::S2taAw, 2).serve(&models, &reqs);
        let quiet = Fleet::new(ArchKind::S2taAw, 2)
            .with_faults(FaultConfig::protected(FaultSpec::quiet(5)))
            .serve(&models, &reqs);
        assert_eq!(plain.outcomes, quiet.outcomes);
        assert_eq!(plain.total_events, quiet.total_events);
        assert_eq!(plain.makespan_cycles, quiet.makespan_cycles);
        assert_eq!(quiet.fault.lane_crashes, 0);
        assert_eq!(quiet.fault.retries, 0);
        assert_eq!(quiet.fault.failed, 0);
        assert_eq!(quiet.availability(), 1.0);
    }

    /// Crashes under a protected config retry cancelled work: every
    /// request is accounted exactly once (served + dropped + failed),
    /// crashes and retries are visible in the stats, and the whole run
    /// is deterministic.
    #[test]
    fn protected_crashes_retry_and_conserve_requests() {
        let models = vec![lenet5()];
        // Dense single-lane traffic so crash windows reliably intersect
        // in-flight batches.
        let reqs = WorkloadSpec::uniform(11, 60, 2_000.0, 1).generate();
        let base = Fleet::new(ArchKind::S2taAw, 1).serve(&models, &reqs);
        let spec = crash_spec(7, 6, base.makespan_cycles.max(1), base.makespan_cycles / 4 + 1);
        let mut config = FaultConfig::protected(spec);
        config.retry =
            RetryPolicy { max_attempts: 4, backoff_base_cycles: 500, deadline_cycles: 0 };
        let fleet = Fleet::new(ArchKind::S2taAw, 1).with_faults(config);
        let report = fleet.serve(&models, &reqs);
        assert_eq!(
            report.served_count() + report.dropped_count() + report.failed_count(),
            reqs.len(),
            "every request must be served, dropped, or failed exactly once"
        );
        assert!(report.fault.lane_crashes > 0, "the schedule must actually crash the lane");
        assert_eq!(report.fault.lane_recoveries, report.fault.lane_crashes);
        assert!(report.fault.retries > 0, "cancelled in-flight work must be retried");
        assert_eq!(report, fleet.serve(&models, &reqs), "fault runs must be deterministic");
    }

    /// The same schedule without retries (the chaos baseline) must
    /// fail every cancelled request — and availability must drop.
    #[test]
    fn unprotected_crashes_fail_cancelled_requests() {
        let models = vec![lenet5()];
        let reqs = WorkloadSpec::uniform(11, 60, 2_000.0, 1).generate();
        let base = Fleet::new(ArchKind::S2taAw, 1).serve(&models, &reqs);
        let spec = crash_spec(7, 6, base.makespan_cycles.max(1), base.makespan_cycles / 4 + 1);
        let report = Fleet::new(ArchKind::S2taAw, 1)
            .with_faults(FaultConfig::unprotected(spec))
            .serve(&models, &reqs);
        assert!(report.failed_count() > 0, "no retries: cancelled work must fail");
        assert!(report.availability() < 1.0);
        assert_eq!(report.fault.retries, 0);
        assert_eq!(
            report.served_count() + report.dropped_count() + report.failed_count(),
            reqs.len()
        );
    }

    /// Degraded mode sheds only the best-effort class, and only while
    /// a lane is down with the backlog past the threshold: strict
    /// requests are never dropped, every shed lands on the best-effort
    /// model's drop counter, and the run stays deterministic.
    #[test]
    fn degraded_mode_sheds_best_effort_only() {
        use crate::fault::DegradedMode;
        let models = vec![lenet5(), lenet5()];
        let reqs = WorkloadSpec::uniform(17, 120, 1_000.0, 2).generate();
        let base = Fleet::new(ArchKind::S2taAw, 2).serve(&models, &reqs);
        let spec = crash_spec(3, 4, base.makespan_cycles.max(1), base.makespan_cycles / 3 + 1);
        let mut config = FaultConfig::protected(spec);
        config.degraded = Some(DegradedMode { backlog_threshold: 4, best_effort: vec![1] });
        let fleet = Fleet::new(ArchKind::S2taAw, 2).with_faults(config);
        let report = fleet.serve(&models, &reqs);
        assert!(report.fault.shed > 0, "sustained capacity loss must trigger shedding");
        assert_eq!(report.per_model[1].dropped, report.fault.shed, "sheds land on best-effort");
        assert_eq!(report.per_model[0].dropped, 0, "the strict class is never shed");
        assert_eq!(
            report.served_count() + report.dropped_count() + report.failed_count(),
            reqs.len()
        );
        assert_eq!(report, fleet.serve(&models, &reqs), "degraded runs must be deterministic");
    }

    /// Slowdown windows stretch service on the affected lane: total
    /// busy cycles and the tail must not improve, and the slowdown
    /// count must be visible.
    #[test]
    fn slowdowns_inflate_service_without_losing_requests() {
        let models = vec![lenet5()];
        let reqs = WorkloadSpec::uniform(13, 40, 4_000.0, 1).generate();
        let base = Fleet::new(ArchKind::S2taAw, 1).serve(&models, &reqs);
        let spec = FaultSpec {
            seed: 3,
            lane_crashes: 0,
            lane_slowdowns: 4,
            shard_outages: 0,
            horizon_cycles: base.makespan_cycles.max(1),
            mean_down_cycles: base.makespan_cycles / 3 + 1,
            mean_outage_cycles: 0,
            slowdown_factor: 6,
        };
        let report = Fleet::new(ArchKind::S2taAw, 1)
            .with_faults(FaultConfig::protected(spec))
            .serve(&models, &reqs);
        assert!(report.fault.slowdowns > 0);
        assert_eq!(report.served_count(), reqs.len(), "slowdowns delay, never lose");
        assert!(report.makespan_cycles >= base.makespan_cycles);
        assert!(report.p99_cycles() >= base.p99_cycles());
    }

    /// A recovered lane is cold on the simulated clock only. The host's
    /// memo tables survive the restart, so a run with mid-stream
    /// recoveries compiles exactly the plans the fault-free run
    /// compiles, while the first batch a recovered lane runs streams
    /// its weights again. Fault mode runs monolithic batches, which are
    /// always priced cold, so the stage residency a recovery forgets is
    /// checked on the engine itself.
    #[test]
    fn recovery_is_cold_on_the_simulated_clock_only() {
        use crate::fault::{TimelineEvent, WindowEdge};
        let models = vec![lenet5()];
        let reqs = WorkloadSpec::uniform(11, 60, 2_000.0, 1).generate();
        let base_fleet = Fleet::new(ArchKind::S2taAw, 1);
        let base = base_fleet.serve(&models, &reqs);
        // Short windows confined to the first half of the run, so each
        // recovery edge is followed by more batches.
        let spec = crash_spec(7, 2, base.makespan_cycles / 2 + 1, base.makespan_cycles / 8 + 1);
        let windows = spec.schedule(&[1]).shard_timeline(0).lane_down_windows(0).to_vec();
        let fleet = Fleet::new(ArchKind::S2taAw, 1).with_faults(FaultConfig::protected(spec));
        let report = fleet.serve(&models, &reqs);
        assert!(report.fault.lane_recoveries > 0, "schedule must include a recovery");
        let compiles = |f: &Fleet| {
            let s = f.accelerator().plans().stats();
            s.misses + s.bypasses
        };
        assert!(compiles(&base_fleet) > 0);
        assert_eq!(compiles(&fleet), compiles(&base_fleet), "recovery must not recompile plans");

        for &(_, end) in &windows {
            let first = report
                .served_outcomes()
                .filter(|o| o.start >= end)
                .min_by_key(|o| (o.start, o.batch))
                .expect("a batch runs after every recovery");
            let members: Vec<Request> = report
                .served_outcomes()
                .filter(|o| o.batch == first.batch)
                .map(|o| reqs[o.id as usize])
                .collect();
            let price = |warm| {
                let layers = 0..models[0].layers.len();
                fleet.lanes[0]
                    .execute_stage(&models[0], layers, &members, fleet.weight_seed, warm)
                    .cycles
            };
            assert!(price(true) < price(false), "warmth must be visible in the price");
            assert_eq!(first.completion - first.start, price(false), "recovered lane is cold");
        }

        let mut policy = fleet.fixed_policy();
        let mut engine = Engine::new(&fleet, &models, ArrivalSource::open(&[]), &mut policy);
        engine.last_stage_on_lane[0] = Some((0, 0));
        let (start, end) = windows[0];
        let crash = TimelineEvent {
            time: start,
            lane: 0,
            edge: WindowEdge::CrashStart,
            duration: end - start,
            factor: 0,
        };
        engine.on_lane_crash(start, crash);
        engine.on_lane_recovery(
            end,
            TimelineEvent { time: end, edge: WindowEdge::CrashEnd, ..crash },
        );
        assert_eq!(engine.last_stage_on_lane[0], None, "recovery forgets resident stage weights");
    }

    /// Per-lane MTTR accounting: downtime and recovery counts line up
    /// with the expanded schedule's own windows.
    #[test]
    fn fault_stats_mttr_matches_schedule() {
        let models = vec![lenet5()];
        let reqs = WorkloadSpec::uniform(11, 60, 2_000.0, 1).generate();
        let base = Fleet::new(ArchKind::S2taAw, 1).serve(&models, &reqs);
        let spec = crash_spec(7, 6, base.makespan_cycles.max(1), base.makespan_cycles / 4 + 1);
        let report = Fleet::new(ArchKind::S2taAw, 1)
            .with_faults(FaultConfig::protected(spec.clone()))
            .serve(&models, &reqs);
        // The final drain fires every scheduled edge, so recoveries and
        // downtime must match the expanded plan's windows exactly.
        let plan = spec.schedule(&[1]);
        let windows = plan.shard_timeline(0).lane_down_windows(0).to_vec();
        assert!(!windows.is_empty());
        assert_eq!(report.fault.lane_recovery_counts[0] as usize, windows.len());
        let downtime: u64 = windows.iter().map(|&(start, end)| end - start).sum();
        assert_eq!(report.fault.lane_downtime_cycles[0], downtime);
        assert_eq!(report.fault.lane_mttr_cycles(0), Some(downtime / windows.len() as u64));
    }

    /// The batch table follows the work in flight: while serving it
    /// holds exactly the completion wheel's entries (a crash-cancelled
    /// record until its stale entry pops), a drained engine holds none,
    /// and the batch ids in the report stay dense from 0.
    #[test]
    fn batch_records_retire_at_completion() {
        let models = vec![lenet5()];
        let reqs = WorkloadSpec::uniform(11, 60, 2_000.0, 1).generate();
        let base = Fleet::new(ArchKind::S2taAw, 1).serve(&models, &reqs);
        let spec = crash_spec(7, 6, base.makespan_cycles.max(1), base.makespan_cycles / 4 + 1);
        let plain = Fleet::new(ArchKind::S2taAw, 2);
        let crashing = Fleet::new(ArchKind::S2taAw, 1).with_faults(FaultConfig::protected(spec));
        for fleet in [&plain, &crashing] {
            let mut policy = fleet.fixed_policy();
            let mut engine = Engine::new(fleet, &models, ArrivalSource::open(&[]), &mut policy);
            let mut most = 0;
            for &r in &reqs {
                engine.advance_to_arrival(r.arrival);
                engine.inject(r, None);
                assert_eq!(engine.batches.len(), engine.in_flight.iter().count());
                most = most.max(engine.batches.len());
            }
            engine.drain();
            assert!(engine.batches.is_empty(), "a drained engine holds no batch record");
            assert!(most < engine.dispatched, "the table held {most} of {}", engine.dispatched);
            let report = engine.into_report();
            let ids: std::collections::BTreeSet<usize> =
                report.served_outcomes().map(|o| o.batch).collect();
            if fleet.fault.is_none() {
                assert_eq!(ids, (0..report.batches).collect(), "served batch ids are dense");
            } else {
                assert!(report.fault.retries > 0, "the schedule must cancel in-flight batches");
                assert!(ids.iter().all(|&b| b < report.batches));
            }
        }
    }

    /// Hedged dispatch duplicates aged batches onto a second lane:
    /// with a quiet schedule and an aggressive age threshold under
    /// queue-building traffic, hedges fire, every request is still
    /// served exactly once, and the loser copies' lane time shows up
    /// as extra busy cycles — all deterministically.
    #[test]
    fn hedging_duplicates_aged_batches_without_losing_requests() {
        use crate::fault::HedgePolicy;
        let models = vec![lenet5()];
        // Sparse arrivals under a large batch cap: batches seal by
        // timeout, so each carries a queueing age of the full batching
        // window — well past the learned service estimate.
        let reqs = WorkloadSpec::uniform(13, 80, 12_000.0, 1).generate();
        let policy = FixedPolicy { max_batch: 8, max_wait_cycles: 30_000 };
        let plain = Fleet::new(ArchKind::S2taAw, 2).with_policy(policy).serve(&models, &reqs);
        let mut config = FaultConfig::protected(FaultSpec::quiet(5));
        config.hedge = Some(HedgePolicy { age_factor: 1 });
        let hedge = || {
            Fleet::new(ArchKind::S2taAw, 2)
                .with_policy(policy)
                .with_faults(config.clone())
                .serve(&models, &reqs)
        };
        let report = hedge();
        assert!(report.fault.hedges > 0, "aged batches must hedge");
        assert_eq!(report.served_count(), reqs.len(), "hedging must not lose requests");
        assert_eq!(report.fault.failed, 0);
        let busy = |r: &ServeReport| -> u64 { r.workers.iter().map(|w| w.busy_cycles).sum() };
        assert!(busy(&report) > busy(&plain), "losing copies must be charged as wasted lane time");
        assert_eq!(report, hedge(), "hedged serving must be deterministic");
        // Golden: no preset, bench or perfbench workload hedges, so
        // these pin the hedged path's exact pricing and charging.
        assert_eq!(report.fault.hedges, 23);
        assert_eq!(busy(&report), 386_107);
        assert_eq!(report.makespan_cycles, 1_070_719);
        assert_eq!(report.p99_cycles(), 45_643);
    }
}
