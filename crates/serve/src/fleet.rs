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
//! The engine keeps one event calendar. Batch completions, autoscaler
//! evaluations, retry re-admissions and fault-window edges wait in one
//! timer wheel, and each model lane's open-batch deadline in that
//! lane's slot of the request queue. Arrivals come from the arrival
//! source, and every event fires in `(time, Event)` order, whose
//! derived kind order is the one tie-break rule at equal times. Fresh
//! arrivals and fault-mode retries join their model's queue through one
//! admission routine. Each sealed batch picks its lane and simulates
//! once, on that lane (monolithic), or once per stage on its pinned
//! stage lanes (pipelined). Its requests resolve as served only at its
//! completion event, the one place that records served outcomes, the
//! batch's trace record and the makespan, so a lane crash can still
//! cancel a batch in flight.
//!
//! **Placement** is governed by one knob, [`Fleet::with_placement`]:
//! the default earliest-free rule is arch-blind, while
//! [`PlacementStrategy::Affinity`] routes each batch to the lane
//! minimizing its predicted completion time using per-`(arch, model)`
//! service estimates bootstrapped from the run's own completed
//! batches. On a homogeneous fleet the affinity rule collapses to
//! earliest-free exactly, so enabling it can never change a
//! clone-fleet's results. `PlacementStrategy::Pipelined { stages,
//! queue_capacity }` runs every batch through its model's pinned stage
//! lanes instead; only an engine serving such a fleet carries the
//! pipeline's state (plans, boundary queues, warm stages, stage stats).
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
use crate::pipeline::{PipelinePlan, PipelineState};
use crate::placement::{affinity_lane, earliest_free_lane, PlacementStrategy, ServiceEstimator};
use crate::policy::{BatchObservation, BatchPolicy, FixedPolicy};
use crate::queue::RequestQueue;
use crate::report::{
    DroppedRequest, FailedRequest, LatencyHistogram, ModelServeStats, RequestOutcome, ServeReport,
    ServedRequest, WorkerStats,
};
use crate::timewheel::TimerWheel;
use crate::trace::{TraceCell, TraceConfig, TraceEvent, TraceEventKind, TraceState};
use crate::workload::{ClosedLoopClient, ClosedLoopSpec, Request};
use s2ta_core::{
    Accelerator, ActProfileCache, ArchKind, ExecPath, Scratch, WeightPlanCache, WeightResidency,
};
use s2ta_models::ModelSpec;
use s2ta_sim::EventCounts;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

/// One serving lane: a simulated accelerator instance with its own
/// architecture, executing one batch at a time in simulated time.
///
/// A lane holds no host buffers: the engine serving the fleet owns one
/// [`Scratch`] arena for its whole run and lends it to every batch it
/// executes, on whichever lane, so warm buffer capacity is reused
/// instead of allocated (see [`Accelerator::run_stage_events`]).
#[derive(Debug, Clone)]
pub struct Lane {
    accelerator: Accelerator,
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

    /// Simulates one batch through a contiguous layer range on this
    /// lane, one [`Accelerator::run_stage_events`] call per request on
    /// the lane's execution path: a monolithic batch runs `0..layers`,
    /// a pipeline stage its own range.
    ///
    /// The first request streams the range's weights and every later
    /// request finds them resident — the batching amortization that
    /// wins on the memory-bound FC/depthwise layers (paper Sec. 8.3) —
    /// unless `warm` is set: a warm stage lane just executed the
    /// **same** stage of the same model, so its weights are still in
    /// the weight SRAM and even the first request skips the weight DMA
    /// — the pinned-stage reuse that layer pipelining exists to harvest.
    /// Host buffers come from the caller's `scratch` arena.
    fn execute_stage(
        &self,
        model: &ModelSpec,
        layers: std::ops::Range<usize>,
        requests: &[Request],
        weight_seed: u64,
        warm: bool,
        scratch: &mut Scratch,
    ) -> EventCounts {
        let plan = self.accelerator.plan_model(model, weight_seed);
        let mut events = EventCounts::default();
        for (i, request) in requests.iter().enumerate() {
            let residency =
                if i == 0 && !warm { WeightResidency::Streamed } else { WeightResidency::Resident };
            events += self.accelerator.run_stage_events(
                &plan,
                model,
                layers.clone(),
                request.act_seed,
                residency,
                scratch,
            );
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
        Self::from_lanes((0..workers).map(|_| Lane { accelerator: accelerator.clone() }).collect())
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
        Self::from_lanes(
            spec.accelerators
                .into_iter()
                .map(|acc| Lane {
                    accelerator: acc
                        .sharing_plans(plans.clone())
                        .sharing_act_profiles(act_profiles.clone()),
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
    /// [`PlacementStrategy::Pipelined`] partitions every model into at
    /// most `stages` contiguous layer ranges, each pinned to a distinct
    /// lane, with `queue_capacity` pending handoffs per stage boundary
    /// (see [`crate::PipelinePlan`]).
    ///
    /// # Panics
    ///
    /// Panics if a pipelined placement has zero `stages` or zero
    /// `queue_capacity` (a zero-slot boundary could never hand anything
    /// forward).
    pub fn with_placement(mut self, placement: PlacementStrategy) -> Self {
        if let PlacementStrategy::Pipelined { stages, queue_capacity } = placement {
            assert!(stages > 0, "a pipeline needs at least one stage");
            assert!(queue_capacity > 0, "an inter-stage queue needs at least one slot");
        }
        self.placement = placement;
        self
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
pub(crate) struct StageRun {
    lane: usize,
    events: EventCounts,
    pub(crate) start: u64,
    pub(crate) service: u64,
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
        /// Issuing client per delivered request, by its dense id.
        client_of: Vec<usize>,
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
        Self::Closed { clients, staged, horizon, client_of: Vec::new(), issued, budget }
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
    /// id `next_id`.
    fn pop(&mut self, next_id: u64) -> Request {
        match self {
            Self::Open { stream, next } => {
                let r = stream[*next];
                *next += 1;
                r
            }
            Self::Closed { staged, horizon, client_of, .. } => {
                let Reverse((_, c)) = horizon.pop().expect("pop follows peek");
                let mut r = staged[c].take().expect("staged request for heap entry");
                debug_assert_eq!(client_of.len() as u64, next_id);
                r.id = next_id;
                client_of.push(c);
                r
            }
        }
    }

    /// Notifies the closed-loop client that issued request `id` that it
    /// finished (served, dropped or failed) at `now`, staging its next
    /// issue if budget remains. No-op for open-loop sources.
    fn request_finished(&mut self, id: u64, now: u64) {
        let Self::Closed { clients, staged, horizon, client_of, issued, budget } = self else {
            return;
        };
        if *issued == *budget {
            return;
        }
        let c = client_of[id as usize];
        let r = clients[c].issue(now, 0);
        horizon.push(Reverse((r.arrival, c)));
        staged[c] = Some(r);
        *issued += 1;
    }
}

/// One timed event of the engine. The derived order is the tie-break
/// rule at equal times: completions fire before autoscaler
/// evaluations, evaluations before arrivals, arrivals before
/// deadlines, deadlines before retry re-admissions, and fault-window
/// edges last. So an evaluation sees a same-cycle completion already
/// out of the backlog and a same-cycle arrival not yet in it, a batch
/// completing exactly when its lane crashes has completed, and an
/// arrival at a crash instant can still dispatch (and be cancelled by
/// the crash). Within a kind, the payload orders same-time events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// The batch with this id completes.
    Completion(usize),
    /// The lane autoscaler evaluates.
    Autoscale,
    /// The arrival source's next request arrives (arrivals never enter
    /// the calendar; injected arrivals compare against this variant).
    Arrival,
    /// This model lane's open batch times out. Deadlines live in the
    /// request queue's per-lane slots, not in the wheel.
    Deadline(usize),
    /// The retry in this slot of the fault state's slab re-enters.
    Retry(usize),
    /// The fault-timeline edge at this index fires (edges are indexed
    /// in `(time, lane, edge)` order).
    Fault(usize),
}

/// A cluster shard's lane autoscaler: one evaluation every
/// `policy.eval_interval_cycles`, through `horizon` (the last arrival
/// of the cluster's whole stream, wherever it was routed).
struct Autoscaler {
    policy: AutoscalePolicy,
    horizon: u64,
    /// Applied decisions, in time order (shard index 0; the cluster
    /// stamps its own).
    events: Vec<ScaleEvent>,
}

impl Autoscaler {
    /// The evaluation after the one at `time`, if it is within the
    /// horizon.
    fn after(&self, time: u64) -> Option<u64> {
        let next = time + self.policy.eval_interval_cycles;
        (next <= self.horizon).then_some(next)
    }
}

/// The event-driven serving engine: advances simulated time through
/// batch completions, request arrivals, batch wait-deadline expiries
/// and, when attached, autoscaler evaluations, retry re-admissions and
/// fault-window edges, processed in `(time, Event)` order (see
/// [`Event`]: a batch closes only when its deadline is strictly before
/// the current time, so an arrival exactly at a deadline still joins
/// the batch). Every timed event but a deadline waits on one calendar,
/// `calendar`; each lane's deadline waits in its request-queue slot.
///
/// The engine owns its arrival source and borrows its batching policy
/// for the whole run, so every event handler reaches both through
/// `self`.
pub(crate) struct Engine<'a> {
    fleet: &'a Fleet,
    models: &'a [ModelSpec],
    arrivals: ArrivalSource<'a>,
    policy: &'a mut dyn BatchPolicy,
    /// The per-model request lanes, each with its open batch's deadline.
    queue: RequestQueue,
    /// The event calendar: every pending completion, autoscaler
    /// evaluation, retry and fault edge, ordered by `(time, Event)` in
    /// a hierarchical timer wheel, so a million pending completions
    /// cost O(1) amortized per event instead of a heap rebalance.
    calendar: TimerWheel<Event>,
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
    next_id: u64,
    /// Layer-pipelining state, built only when the fleet's placement is
    /// [`PlacementStrategy::Pipelined`] and changed only through its
    /// own methods. `None` (every monolithic run) makes the pipelined
    /// path a single branch per burst.
    pipeline: Option<Box<PipelineState>>,
    /// Requests tail-dropped per model index.
    dropped_per_model: Vec<u64>,
    /// Requests dispatched in timeout-sealed batches per model index.
    missed_per_model: Vec<u64>,
    /// Flight recorder + metrics registry (attached via
    /// [`Fleet::with_trace`]; `None` compiles every hook down to a
    /// branch). Boxed to keep the untraced engine's footprint flat.
    trace: Option<Box<TraceState>>,
    /// Fault-injection state (attached via [`Fleet::with_faults`]),
    /// changed only through its own methods and its plain
    /// [`FaultStats`] counters. `None` keeps every fault hook a single
    /// branch on the fault-free path.
    faults: Option<Box<FaultState>>,
    /// Lane autoscaling (cluster shards with an [`AutoscalePolicy`],
    /// attached via [`Engine::with_autoscale`]); `None` keeps its event
    /// a single branch.
    autoscale: Option<Autoscaler>,
    /// The host buffers every stage execution of this run borrows (an
    /// engine runs on one host thread, so one arena serves it all).
    scratch: Scratch,
}

impl<'a> Engine<'a> {
    pub(crate) fn new(
        fleet: &'a Fleet,
        models: &'a [ModelSpec],
        arrivals: ArrivalSource<'a>,
        policy: &'a mut dyn BatchPolicy,
    ) -> Self {
        let pipeline = match fleet.placement {
            PlacementStrategy::Pipelined { stages, queue_capacity } => {
                Some(Box::new(PipelineState::new(stages, queue_capacity, fleet.lanes.len())))
            }
            _ => None,
        };
        assert!(
            fleet.fault.is_none() || pipeline.is_none(),
            "fault injection models monolithic lane execution; pipelined placement is unsupported"
        );
        let mut calendar = TimerWheel::new();
        if let Some((_, timeline)) = &fleet.fault {
            for (index, edge) in timeline.events().iter().enumerate() {
                calendar.push(edge.time, Event::Fault(index));
            }
        }
        Self {
            fleet,
            models,
            arrivals,
            policy,
            queue: fleet.queue(models.len()),
            calendar,
            batches: HashMap::new(),
            dispatched: 0,
            free_at: vec![0u64; fleet.lanes.len()],
            active_lanes: fleet.lanes.len(),
            last_arrival: 0,
            queued: 0,
            in_flight_requests: 0,
            outcomes: Vec::new(),
            worker_stats: fleet.lanes.iter().map(|l| WorkerStats::new(l.arch())).collect(),
            total_events: EventCounts::default(),
            makespan: 0,
            estimator: ServiceEstimator::new(),
            next_id: 0,
            pipeline,
            dropped_per_model: vec![0u64; models.len()],
            missed_per_model: vec![0u64; models.len()],
            trace: fleet.trace.map(|cfg| Box::new(TraceState::new(cfg, models.len()))),
            faults: fleet.fault.as_ref().map(|(config, timeline)| {
                Box::new(FaultState::new(config.clone(), timeline.clone(), models.len()))
            }),
            autoscale: None,
            scratch: Scratch::new(),
        }
    }

    /// Attaches lane autoscaling under `policy`, evaluated every
    /// interval through `horizon` (no evaluation fires past it).
    pub(crate) fn with_autoscale(mut self, policy: Option<AutoscalePolicy>, horizon: u64) -> Self {
        self.autoscale = policy.map(|policy| Autoscaler { policy, horizon, events: Vec::new() });
        if let Some(first) = self.autoscale.as_ref().and_then(|auto| auto.after(0)) {
            self.calendar.push(first, Event::Autoscale);
        }
        self
    }

    /// Closes every metrics boundary `<= now`, sampling the engine
    /// state each crossed boundary saw. Must run at the **top** of each
    /// simulated-event handler, before the event mutates engine state:
    /// that makes the sample at boundary `b` reflect exactly the events
    /// with `time < b`, independent of which driver (pre-routed on any
    /// executor size, or barrier) delivers the events.
    fn trace_flush(&mut self, now: u64) {
        let (queued, in_flight) = (self.queued as u32, self.in_flight_requests as u32);
        let active = self.active_lanes as u32;
        if let Some(tr) = self.trace.as_mut() {
            tr.flush(now, queued, in_flight, active);
        }
    }

    /// Records `event` when a flight recorder is attached: the one
    /// path every engine trace event takes.
    fn trace_event(&mut self, event: TraceEvent) {
        if let Some(tr) = self.trace.as_mut() {
            tr.record(event);
        }
    }

    /// Runs `f`, adding its host wall time to the trace's `label` span
    /// when a recorder is attached.
    fn host_span<R>(&mut self, label: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let t0 = self.trace.is_some().then(Instant::now);
        let out = f(self);
        if let (Some(t0), Some(tr)) = (t0, self.trace.as_mut()) {
            tr.add_host_span(label, t0.elapsed());
        }
        out
    }

    /// The fault state, which every fault-mode event finds attached.
    fn fault_state(&mut self) -> &mut FaultState {
        self.faults.as_deref_mut().expect("fault mode")
    }

    /// Re-evaluates degraded mode at `now` against the current backlog
    /// (a no-op without faults attached).
    fn update_degraded(&mut self, now: u64) {
        let backlog = self.queued + self.in_flight_requests;
        if let Some(f) = self.faults.as_deref_mut() {
            f.update_degraded(now, backlog);
        }
    }

    fn run(mut self) -> ServeReport {
        self.reserve_outcomes(self.arrivals.remaining());
        loop {
            let arrival = self.arrivals.peek_time().map(|t| (t, Event::Arrival));
            let Some(next) = [self.next_event(), arrival].into_iter().flatten().min() else {
                break;
            };
            self.step(next);
        }
        self.into_report()
    }

    /// The earliest pending event other than an arrival: the
    /// calendar's head or the earliest lane deadline, whichever sorts
    /// first.
    fn next_event(&mut self) -> Option<(u64, Event)> {
        let deadline = self.queue.next_deadline().map(|(t, model)| (t, Event::Deadline(model)));
        [self.calendar.peek(), deadline].into_iter().flatten().min()
    }

    /// Processes the earliest pending event: the next arrival, a lane
    /// deadline or the calendar's head, which leaves the calendar here.
    fn step(&mut self, (time, event): (u64, Event)) {
        if !matches!(event, Event::Arrival | Event::Deadline(_)) {
            let head = self.calendar.pop();
            debug_assert_eq!(head, Some((time, event)), "only the calendar's head steps");
        }
        match event {
            Event::Completion(batch) => self.on_completion(time, batch),
            Event::Autoscale => self.on_autoscale(time),
            Event::Arrival => {
                let request = self.arrivals.pop(self.next_id);
                self.inject(request);
            }
            Event::Deadline(model) => self.on_deadline(time, model),
            Event::Retry(slot) => self.on_retry(time, slot),
            Event::Fault(edge) => self.on_fault(edge),
        }
    }

    /// Injects one externally-routed arrival (the cluster router's
    /// entry point), assigning it the next dense engine id and running
    /// the full admission/batching path.
    pub(crate) fn inject(&mut self, request: Request) {
        self.next_id += 1;
        assert!(request.arrival >= self.last_arrival, "arrival stream must be sorted");
        self.last_arrival = request.arrival;
        self.on_arrival(request);
    }

    /// Advances simulated time through every event that precedes an
    /// arrival at `t` in `(time, Event)` order: completions and
    /// evaluations at or before `t`, deadlines, retries and fault edges
    /// strictly before it. After this, the engine's queue depths are
    /// exactly what an arrival at `t` would observe — the router's
    /// probe point.
    pub(crate) fn advance_to_arrival(&mut self, t: u64) {
        // Host-side wall-clock span only — no metrics flush here: the
        // barrier driver advances shards to every arrival barrier
        // while the prerouted driver advances a shard only to its own,
        // so any simulated-time hook at this boundary would make the
        // trace driver-dependent. Flushes live in the event handlers.
        self.host_span("shard-advance", |engine| {
            while let Some(next) = engine.next_event() {
                if next >= (t, Event::Arrival) {
                    break;
                }
                engine.step(next);
            }
        });
    }

    /// Drains every remaining event (end of the arrival stream).
    pub(crate) fn drain(&mut self) {
        self.host_span("shard-advance", |engine| {
            while let Some(next) = engine.next_event() {
                engine.step(next);
            }
        });
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
    /// the queue lanes and the calendar's completions).
    pub(crate) fn backlog(&self) -> usize {
        debug_assert_eq!(
            self.in_flight_requests,
            self.calendar
                .iter()
                .filter_map(|(_, event)| match event {
                    Event::Completion(id) => Some(&self.batches[&id]),
                    _ => None,
                })
                .filter(|b| !b.cancelled)
                .map(|b| b.requests.len())
                .sum::<usize>(),
            "in-flight counter diverged from the calendar"
        );
        self.queued_depth() + self.in_flight_requests
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

    /// Whether any event (see [`Engine::next_event`]) fires strictly
    /// before an arrival at `t` in `(time, Event)` order — the cluster
    /// driver's fast path: a shard answering `false` needs no
    /// [`Engine::advance_to_arrival`] dispatch at all. Peeking may
    /// cascade the calendar's wheel, which never changes simulated
    /// state.
    pub(crate) fn has_event_before(&mut self, t: u64) -> bool {
        self.next_event().is_some_and(|next| next < (t, Event::Arrival))
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
    fn on_completion(&mut self, t: u64, index: usize) {
        // Metrics boundaries close before this completion mutates any
        // counter (popping the calendar changes no sampled state).
        self.trace_flush(t);
        let batch = self.batches.remove(&index).expect("a wheel entry has an in-flight record");
        // A crash-cancelled batch's wheel entry is stale: its members
        // were already retried or failed at the crash. Nothing fires.
        if batch.cancelled {
            return;
        }
        let n = batch.requests.len();
        self.update_degraded(t);
        if let Some(f) = self.faults.as_deref_mut() {
            f.batch_completed(batch.lane, index, &batch.requests);
        }
        self.makespan = self.makespan.max(t);
        // The batch's whole lifecycle is recorded here, so a cancelled
        // batch records none (the export's stable sort puts each event
        // at its own cycle).
        let (lane, model, a, b) = (batch.lane as u32, batch.model as u32, index as u64, n as u64);
        for (cycle, kind) in [
            (batch.ready, TraceEventKind::BatchSealed),
            (batch.start, TraceEventKind::BatchStarted),
            (t, TraceEventKind::BatchCompleted),
        ] {
            self.trace_event(TraceEvent { lane, model, a, b, ..TraceEvent::new(cycle, kind) });
        }
        if let Some(tr) = self.trace.as_mut() {
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
        if self.pipeline.is_none() {
            self.estimator.record(
                self.fleet.lanes[batch.lane].arch(),
                batch.model,
                n,
                batch.service_cycles,
            );
        }
        for r in &batch.requests {
            self.arrivals.request_finished(r.id, t);
        }
    }

    /// An autoscaler evaluation: a backlog at or above the scale-up
    /// threshold activates one more lane, one at or below the
    /// scale-down threshold deactivates one (within `[min_lanes,
    /// lanes]`). In-flight work on a deactivated lane completes
    /// normally; the lane just stops receiving new batches. Unlike the
    /// other handlers it never updates degraded mode: an extra update
    /// can move degraded intervals.
    fn on_autoscale(&mut self, time: u64) {
        // Metrics boundaries `<= time` close before the decision can
        // resize the active-lane set, so their samples see the
        // pre-decision lane count.
        self.trace_flush(time);
        let (backlog, from_lanes, lanes) =
            (self.backlog(), self.active_lanes, self.fleet.lanes.len());
        let auto = self.autoscale.as_mut().expect("autoscale event");
        if let Some(next) = auto.after(time) {
            self.calendar.push(next, Event::Autoscale);
        }
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
        self.trace_event(TraceEvent {
            lane: from_lanes as u32,
            stage: to_lanes as u32,
            a: backlog as u64,
            ..TraceEvent::new(time, TraceEventKind::AutoscaleDecision)
        });
    }

    fn on_arrival(&mut self, request: Request) {
        self.trace_flush(request.arrival);
        self.update_degraded(request.arrival);
        // Degraded mode: with a lane down and the backlog past the
        // threshold, best-effort models are shed at admission so the
        // strict classes keep their latency.
        if self.faults.as_deref().is_some_and(|f| f.sheds(request.model)) {
            self.fault_state().stats.shed += 1;
            self.drop_request(request);
            return;
        }
        self.admit(request, request.arrival, None);
    }

    fn on_deadline(&mut self, deadline: u64, lane: usize) {
        self.trace_flush(deadline);
        self.update_degraded(deadline);
        let limits = self.policy.limits_for(lane);
        let members = self.queue.pop_batch(lane, limits.max_batch.max(1));
        debug_assert!(!members.is_empty());
        // Every member of a timeout-sealed batch waited out the full
        // `max_wait` — the per-model deadline-miss unit.
        self.missed_per_model[lane] += members.len() as u64;
        self.trace_event(TraceEvent {
            model: lane as u32,
            a: members.len() as u64,
            ..TraceEvent::new(deadline, TraceEventKind::DeadlineMiss)
        });
        // An adaptive shrink can leave a lane's re-armed deadline in
        // the past relative to later members; a batch is never ready
        // before its newest member arrived.
        let ready = deadline.max(members.last().map_or(0, |r| r.arrival));
        if let Some(front) = self.queue.front(lane) {
            let next = front.arrival.saturating_add(limits.max_wait_cycles);
            self.queue.arm(lane, next);
        }
        self.dispatch_burst(lane, vec![members], ready);
    }

    /// A crash-cancelled request's backoff expired: re-admit it
    /// through the normal batching path.
    fn on_retry(&mut self, t: u64, slot: usize) {
        let (request, attempts) = self.fault_state().take_retry(slot);
        self.trace_flush(t);
        self.update_degraded(t);
        self.fault_state().stats.retries += 1;
        self.trace_event(TraceEvent {
            model: request.model as u32,
            a: request.id,
            b: attempts as u64,
            ..TraceEvent::new(t, TraceEventKind::RequestRetried)
        });
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
            self.queue.arm(lane, wait_from(&request).saturating_add(max_wait));
        }
        // Several batches may seal back-to-back here when an adaptive
        // policy shrank `max_batch` below the lane's backlog; they
        // dispatch as one burst, in seal order.
        let sealed = self.queue.pop_full_batches(lane, limits.max_batch);
        if sealed.is_empty() {
            return;
        }
        if let Some(front) = self.queue.front(lane) {
            let deadline = wait_from(front).saturating_add(max_wait);
            self.queue.arm(lane, deadline);
        }
        self.dispatch_burst(lane, sealed, now);
    }

    /// Tail-drops `request` at its arrival (a full model lane, or a
    /// best-effort model shed in degraded mode).
    fn drop_request(&mut self, request: Request) {
        self.dropped_per_model[request.model] += 1;
        self.trace_event(TraceEvent {
            model: request.model as u32,
            a: request.id,
            b: self.queued as u64,
            ..TraceEvent::new(request.arrival, TraceEventKind::RequestDropped)
        });
        self.push_outcome(RequestOutcome::Dropped(DroppedRequest {
            id: request.id,
            model: self.models[request.model].name,
            arrival: request.arrival,
        }));
        // A drop completes the client's outstanding request
        // immediately; it thinks and retries from the drop time.
        self.arrivals.request_finished(request.id, request.arrival);
    }

    /// Abandons `request` as [`RequestOutcome::Failed`] at `now` after
    /// `attempts` consumed dispatch attempts.
    fn fail_request(&mut self, request: Request, attempts: u32, now: u64) {
        self.fault_state().fail(&request);
        self.push_outcome(RequestOutcome::Failed(FailedRequest {
            id: request.id,
            model: self.models[request.model].name,
            arrival: request.arrival,
            attempts,
        }));
        self.arrivals.request_finished(request.id, now);
    }

    /// Processes the fault-timeline edge at `index`: a crash or
    /// slowdown window opening or closing on one lane.
    fn on_fault(&mut self, index: usize) {
        let ev = self.fault_state().edge(index);
        let t = ev.time;
        self.trace_flush(t);
        self.update_degraded(t);
        match ev.edge {
            WindowEdge::CrashStart => self.on_lane_crash(t, ev),
            WindowEdge::CrashEnd => self.on_lane_recovery(t, ev),
            WindowEdge::SlowStart | WindowEdge::SlowEnd => {
                let kind = if ev.edge == WindowEdge::SlowStart {
                    self.fault_state().stats.slowdowns += 1;
                    TraceEventKind::LaneFailed
                } else {
                    TraceEventKind::LaneRecovered
                };
                self.trace_event(TraceEvent {
                    lane: ev.lane as u32,
                    a: ev.duration,
                    b: ev.factor,
                    ..TraceEvent::new(t, kind)
                });
            }
        }
        // Re-evaluate degraded mode against the post-edge health
        // table: a crash (or recovery) at `t` flips the lane-down
        // condition at `t` itself, not at the next event.
        self.update_degraded(t);
    }

    /// A crash window opens on `lane` at `t`: every in-flight batch on
    /// the lane is cancelled — its partially-executed cycles stay
    /// charged, the unexecuted remainder is refunded — and each member
    /// either schedules a retry or fails under the retry policy. The
    /// lane accepts no new work before the window closes (`free_at`
    /// jumps to the recovery time, so placement routes around it).
    fn on_lane_crash(&mut self, t: u64, ev: TimelineEvent) {
        let lane = ev.lane;
        let cancelled = self.fault_state().crash(lane);
        self.trace_event(TraceEvent {
            lane: lane as u32,
            a: ev.duration,
            ..TraceEvent::new(t, TraceEventKind::LaneFailed)
        });
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
                match self.fault_state().retry_or_fail(r, t) {
                    Ok((at, slot)) => self.calendar.push(at, Event::Retry(slot)),
                    Err(attempts) => self.fail_request(r, attempts, t),
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
        self.fault_state().recover(lane, ev.duration);
        self.trace_event(TraceEvent {
            lane: lane as u32,
            a: ev.duration,
            ..TraceEvent::new(t, TraceEventKind::LaneRecovered)
        });
    }

    /// Records a router failover landing `request` on this shard
    /// (called by the cluster drivers immediately before injecting).
    pub(crate) fn note_failover(&mut self, request: &Request) {
        if let Some(f) = self.faults.as_deref_mut() {
            f.stats.failovers += 1;
        }
        self.trace_event(TraceEvent {
            model: request.model as u32,
            a: request.id,
            ..TraceEvent::new(request.arrival, TraceEventKind::ShardFailedOver)
        });
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
            PlacementStrategy::Pipelined { .. } => {
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
        let plan = self.pipeline.is_some().then(|| self.take_pipeline_plan(model));
        self.host_span("batch-execute", |engine| {
            for members in sealed {
                match &plan {
                    Some(plan) => engine.dispatch_pipelined(model, plan, members, ready),
                    None => engine.dispatch_monolithic(model, members, ready),
                }
            }
        });
        if let Some(plan) = plan {
            self.pipeline_state().put_plan(plan);
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
        &mut self,
        model: usize,
        layers: std::ops::Range<usize>,
        members: &[Request],
        lane: usize,
        earliest: u64,
        warm: bool,
    ) -> StageRun {
        let (fleet, spec) = (self.fleet, &self.models[model]);
        let scratch = &mut self.scratch;
        let events = fleet.lanes[lane].execute_stage(
            spec,
            layers,
            members,
            fleet.weight_seed,
            warm,
            scratch,
        );
        let start = self.free_at[lane].max(earliest);
        let slow = self.faults.as_deref().map_or(1, |f| f.slow_factor_at(lane, start));
        StageRun { lane, events, start, service: events.cycles.saturating_mul(slow) }
    }

    /// Commits a priced run to its lane: the lane's new free time, and
    /// its events and busy cycles. `requests` is the batch size the
    /// lane tallies as one more batch; a hedge loser, whose result is
    /// discarded, passes `None`.
    fn charge(&mut self, run: &StageRun, requests: Option<usize>) {
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
            self.fault_state().stats.hedges += 1;
            self.trace_event(TraceEvent {
                lane: run.lane as u32,
                model: model as u32,
                a: batch_id as u64,
                b: loser.lane as u64,
                ..TraceEvent::new(run.start, TraceEventKind::RequestHedged)
            });
        }
        self.charge(&run, Some(members.len()));
        if let Some(f) = self.faults.as_deref_mut() {
            f.batch_dispatched(run.lane, batch_id);
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
        &mut self,
        model: usize,
        members: &[Request],
        ready: u64,
        primary: &mut StageRun,
    ) -> Option<StageRun> {
        let hedge = self.faults.as_deref()?.hedge()?;
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

    /// The pipeline state, which every pipelined dispatch finds
    /// attached.
    fn pipeline_state(&mut self) -> &mut PipelineState {
        self.pipeline.as_deref_mut().expect("pipelined placement")
    }

    /// Takes the model's pipeline plan out of the pipeline state,
    /// partitioning it on first use (the partition is deterministic,
    /// so lazy construction never leaks host timing into results).
    fn take_pipeline_plan(&mut self, model: usize) -> PipelinePlan {
        let pipeline = self.pipeline_state();
        if let Some(plan) = pipeline.take_plan(model) {
            return plan;
        }
        let stages = pipeline.stages();
        let (fleet, spec) = (self.fleet, &self.models[model]);
        self.host_span("pipeline-calibrate", |_| {
            PipelinePlan::partition(&fleet.lanes, model, spec, stages, fleet.weight_seed)
        })
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
        let batch_id = self.dispatched;
        let stages = plan.stages();
        // When the next stage's input becomes available (the batch's
        // `ready` for stage 0, completion + handoff afterwards).
        let mut input_at = ready;
        let mut first_start = ready;
        let mut completion = ready;
        for (s, stage) in stages.iter().enumerate() {
            let lane = stage.lane;
            let warm = self.pipeline_state().is_warm(lane, model, s);
            let mut run =
                self.run_stage(model, stage.layers.clone(), &members, lane, input_at, warm);
            let unconstrained = run.start;
            // Backpressure: the boundary queue ahead holds at most
            // `queue_capacity` undelivered handoffs, so this stage may
            // not begin batch b before the next stage began batch
            // b - capacity.
            if let Some(floor) = self.pipeline_state().queue_floor(model, s) {
                run.start = run.start.max(floor);
            }
            let stage_event = |kind, b| TraceEvent {
                lane: lane as u32,
                model: model as u32,
                stage: s as u32,
                a: batch_id as u64,
                b,
                ..TraceEvent::new(run.start, kind)
            };
            if run.start > unconstrained {
                self.trace_event(stage_event(
                    TraceEventKind::StageStall,
                    run.start - unconstrained,
                ));
            }
            self.trace_event(stage_event(TraceEventKind::StageDispatch, run.service));
            let idle = run.start - self.free_at[lane];
            // Per-lane occupancy: every stage execution counts on its
            // own lane (a pipelined batch touches one lane per stage,
            // so per-lane batch/request tallies sum to more than the
            // fleet totals — see [`WorkerStats::batches`]).
            self.charge(&run, Some(members.len()));
            self.pipeline_state().record_stage(plan, s, &run, idle, members.len());
            if s == 0 {
                first_start = run.start;
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
        self.calendar.push(completion, Event::Completion(id));
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
        let (fault, failed_per_model) =
            self.faults.take().map(|f| f.finish(self.makespan)).unwrap_or_default();
        let per_model = self
            .models
            .iter()
            .enumerate()
            .map(|(i, m)| ModelServeStats {
                model: m.name.to_string(),
                dropped: self.dropped_per_model[i],
                deadline_misses: self.missed_per_model[i],
                failed: failed_per_model.get(i).copied().unwrap_or(0),
            })
            .collect();
        let latency_hist = LatencyHistogram::collect(
            self.outcomes.iter().filter_map(RequestOutcome::latency_cycles),
        );
        let trace = TraceCell::default();
        if let Some(tr) = self.trace.take() {
            let names = self.models.iter().map(|m| m.name.to_string()).collect();
            trace.set(tr.finish(self.makespan, names));
        }
        let pipeline_stages = self
            .pipeline
            .take()
            .map(|p| p.stage_stats(self.models, &self.fleet.lanes))
            .unwrap_or_default();
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
    use crate::report::PipelineStageStats;
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
                .with_placement(PlacementStrategy::Pipelined { stages, queue_capacity: 2 })
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
            .with_placement(PlacementStrategy::Pipelined { stages: 4, queue_capacity: 2 })
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
                .with_placement(PlacementStrategy::Pipelined { stages: 4, queue_capacity: 2 })
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
                .with_placement(PlacementStrategy::Pipelined { stages: 4, queue_capacity: cap })
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

    #[test]
    #[should_panic(expected = "a pipeline needs at least one stage")]
    fn pipelined_placement_rejects_zero_stages() {
        let _ = Fleet::new(ArchKind::S2taAw, 2)
            .with_placement(PlacementStrategy::Pipelined { stages: 0, queue_capacity: 2 });
    }

    #[test]
    #[should_panic(expected = "an inter-stage queue needs at least one slot")]
    fn pipelined_placement_rejects_a_zero_slot_queue() {
        let _ = Fleet::new(ArchKind::S2taAw, 2)
            .with_placement(PlacementStrategy::Pipelined { stages: 2, queue_capacity: 0 });
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
            .with_placement(PlacementStrategy::Pipelined { stages: 2, queue_capacity: 2 })
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

    use crate::fault::{FaultConfig, FaultSpec, FaultTimeline, RetryPolicy};

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
    /// its weights again.
    #[test]
    fn recovery_is_cold_on_the_simulated_clock_only() {
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
                let (layers, scratch) = (0..models[0].layers.len(), &mut Scratch::new());
                fleet.lanes[0]
                    .execute_stage(&models[0], layers, &members, fleet.weight_seed, warm, scratch)
                    .cycles
            };
            assert!(price(true) < price(false), "warmth must be visible in the price");
            assert_eq!(first.completion - first.start, price(false), "recovered lane is cold");
        }
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
                engine.inject(r);
                let completions = engine
                    .calendar
                    .iter()
                    .filter(|(_, event)| matches!(event, Event::Completion(_)))
                    .count();
                assert_eq!(engine.batches.len(), completions);
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

    /// An S2TA-AW fleet under `policy`, one lane per entry of `down`,
    /// whose lane `l` crashes in exactly the `[start, end)` windows
    /// `down[l]`, retrying under `retry`.
    fn crashing(policy: FixedPolicy, retry: RetryPolicy, down: Vec<Vec<(u64, u64)>>) -> Fleet {
        let lanes = down.len();
        let timeline = FaultTimeline::build(lanes, down, vec![Vec::new(); lanes]);
        let config = FaultConfig { retry, ..FaultConfig::protected(FaultSpec::quiet(0)) };
        Fleet::new(ArchKind::S2taAw, lanes)
            .with_policy(policy)
            .with_fault_timeline(config, timeline)
    }

    /// The calendar's tie-break at equal cycles, event by event: a
    /// completion fires before a crash on its lane, an arrival before a
    /// crash, and an autoscale evaluation after a completion but
    /// before an arrival.
    #[test]
    fn same_cycle_events_fire_in_calendar_order() {
        let models = vec![lenet5()];
        let policy = FixedPolicy { max_batch: 1, max_wait_cycles: 1_000 };
        let at = |id, arrival| Request { id, model: 0, arrival, act_seed: 1 };
        let c = Fleet::new(ArchKind::S2taAw, 1)
            .with_policy(policy)
            .serve(&models, &[at(0, 0)])
            .makespan_cycles;
        assert!(c > 0);
        let retry = RetryPolicy::default();

        // A batch completing at its lane's crash start has completed.
        let report = crashing(policy, retry, vec![vec![(c, c + 100)]]).serve(&models, &[at(0, 0)]);
        let served: Vec<_> = report.served_outcomes().map(|o| (o.start, o.completion)).collect();
        assert_eq!(served, vec![(0, c)], "the batch completes at the crash instant");
        assert_eq!((report.fault.lane_crashes, report.fault.retries), (1, 0));

        // An arrival at a crash instant dispatches, then the crash
        // cancels it and it retries after its backoff.
        let report = crashing(policy, retry, vec![vec![(c, c + 100)]]).serve(&models, &[at(0, c)]);
        assert_eq!((report.fault.lane_crashes, report.fault.retries), (1, 1));
        let retried_at = c + retry.backoff_base_cycles;
        let served: Vec<u64> = report.served_outcomes().map(|o| o.start).collect();
        assert_eq!(served, vec![retried_at], "the retry serves once the backoff ends");

        // An evaluation at `c` sees the completion at `c` gone and the
        // arrival at `c` not yet in: a backlog of 0 sheds a lane.
        let fleet = Fleet::new(ArchKind::S2taAw, 2).with_policy(policy);
        let autoscale = AutoscalePolicy {
            eval_interval_cycles: c,
            scale_up_depth: 2,
            scale_down_depth: 0,
            min_lanes: 1,
        };
        let mut fixed = fleet.fixed_policy();
        let mut engine = Engine::new(&fleet, &models, ArrivalSource::open(&[]), &mut fixed)
            .with_autoscale(Some(autoscale), c);
        for r in [at(0, 0), at(1, c)] {
            engine.advance_to_arrival(r.arrival);
            engine.inject(r);
        }
        engine.drain();
        let want = ScaleEvent { time: c, shard: 0, from_lanes: 2, to_lanes: 1, backlog: 0 };
        assert_eq!(engine.take_scale_events(), vec![want]);
        assert_eq!(engine.into_report().served_count(), 2);
    }

    /// A retried request re-admitted into an empty model lane waits
    /// `max_wait` from its retry instant, not from its original
    /// arrival — even when it was its lane's front once before and
    /// another lane's earlier deadline kept that first deadline from
    /// ever being discarded as stale (the one case a lazily
    /// invalidated deadline heap fired early).
    #[test]
    fn retry_into_an_empty_lane_waits_from_the_retry_instant() {
        let models = vec![lenet5(), lenet5()];
        let wait = 10_000;
        let policy = FixedPolicy { max_batch: 2, max_wait_cycles: wait };
        let retry = RetryPolicy { max_attempts: 2, backoff_base_cycles: 100, deadline_cycles: 0 };
        // `z` times out alone at 10_000 on lane 0, whose crash at
        // 10_001 cancels it. `q` (model 1) waits from 10_050 to its
        // deadline 20_050; `r` enters the empty model-0 lane at 10_051
        // (first deadline 20_051). `z`'s retry at 10_101 fills the
        // batch, which runs on lane 1, and lane 1's crash at 10_102
        // cancels both: `z` has used its two attempts and fails, and
        // `r` retries at 10_202 into the empty lane.
        let at = |id, model, arrival| Request { id, model, arrival, act_seed: id };
        let (z, q, r) = (at(0, 0, 0), at(1, 1, 10_050), at(2, 0, 10_051));
        let down = vec![vec![(10_001, 10_011)], vec![(10_102, 10_112)]];
        let report = crashing(policy, retry, down).serve(&models, &[z, q, r]);
        assert_eq!(report.fault.retries, 2);
        assert!(matches!(&report.outcomes[0], RequestOutcome::Failed(f) if f.attempts == 2));
        let served: Vec<(u64, u64)> = report.served_outcomes().map(|o| (o.id, o.start)).collect();
        assert_eq!(served, vec![(1, 20_050), (2, 10_202 + wait)], "r not at 20_051");
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
