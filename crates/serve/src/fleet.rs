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
//! binary heap, and each model lane's open-batch deadline in that
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
//! [`crate::RequestOutcome::Dropped`].
//!
//! Simulated results never depend on host thread timing: batch events
//! are a pure function of the batch and the executing lane's
//! architecture, and the engine is deterministic. The `outcomes` list
//! in the returned [`ServeReport`] is sorted by request id (it is
//! assembled in resolution order internally), so `outcomes[i].id() ==
//! i` always holds for a dense arrival stream.
//!
//! This module holds the lanes, specs and builders; the engine's event
//! loop and handlers live in `engine`, and its batch placement and
//! execute-and-charge step in `engine::dispatch`.

mod engine;

use crate::fault::{FaultConfig, FaultTimeline};
use crate::placement::PlacementStrategy;
use crate::policy::{BatchPolicy, FixedPolicy};
use crate::queue::RequestQueue;
use crate::report::ServeReport;
use crate::trace::TraceConfig;
use crate::workload::{ClosedLoopSpec, Request};
pub(crate) use engine::{ArrivalSource, Engine, StageRun};
use s2ta_core::{
    Accelerator, ActProfileCache, ArchKind, ExecPath, Scratch, WeightPlanCache, WeightResidency,
};
use s2ta_models::ModelSpec;
use s2ta_sim::EventCounts;

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
    pub(crate) fn arch(&self) -> ArchKind {
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
    pub(crate) fn new() -> Self {
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
    pub(crate) fn lane(self, kind: ArchKind) -> Self {
        self.lane_with(Accelerator::preset(kind))
    }

    /// Appends one lane with an explicit accelerator configuration.
    pub(crate) fn lane_with(mut self, accelerator: Accelerator) -> Self {
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
    pub(crate) fn is_empty(&self) -> bool {
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
    /// lane, with `queue_capacity` pending handoffs per stage boundary.
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
    pub(crate) fn workers(&self) -> usize {
        self.lanes.len()
    }

    /// The configured fixed batching policy (a fresh copy — the
    /// cluster router gives each shard engine its own instance).
    pub(crate) fn fixed_policy(&self) -> FixedPolicy {
        self.policy
    }

    /// The fleet's composition label (see [`FleetSpec::label`]).
    pub(crate) fn arch_label(&self) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;
    use s2ta_models::lenet5;

    pub(super) fn tiny_workload(n: usize) -> (Vec<ModelSpec>, Vec<Request>) {
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
}
