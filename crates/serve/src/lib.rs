//! Batched, multi-accelerator inference **serving** on top of the S2TA
//! simulator.
//!
//! The paper evaluates single inferences on a single accelerator; this
//! crate turns the cycle-accurate core into a throughput/latency
//! engine: a stream of inference requests is batched per model and
//! dispatched across a fleet of simulated accelerator **lanes** —
//! homogeneous clones or a mixed SA/S2TA deployment — with the
//! expensive W-DBB weight compilation shared fleet-wide through the
//! [`s2ta_core::WeightPlanCache`] (keyed by `(arch, model, seed)`).
//!
//! * [`WorkloadSpec`] / [`Request`] — deterministic seeded open-loop
//!   request generation over the `s2ta-models` zoo (no wall clock, no
//!   OS randomness: a seed fully determines the stream).
//! * [`ClosedLoopSpec`] — closed-loop client
//!   populations: each client issues its next request only after the
//!   previous one completes, so offered load adapts to capacity.
//! * [`BatchPolicy`] — the closure-rule trait: [`FixedPolicy`] (static
//!   bounds) or [`SloAwarePolicy`] (shrinks/grows `max_wait`/
//!   `max_batch` against an observed-p99 target — one global class, or
//!   one independent [`SloClass`] per model).
//! * [`FleetSpec`] / [`Lane`] / [`Fleet`] — a fleet built from an
//!   ordered list of lanes of any [`s2ta_core::ArchKind`] (e.g.
//!   `FleetSpec::mixed(&[(S2taAw, 2), (SaZvcg, 2)])`), served by one
//!   event-driven engine, whose one event calendar orders every timed
//!   event and which queues requests in per-model FIFO lanes
//!   (optionally bounded for admission control: tail drop), groups
//!   them into batches (size- or timeout-closed) and places the
//!   batches on the lanes. Batch
//!   formation under a fixed policy is fleet-size independent, so
//!   aggregate results are identical for every lane count on a
//!   homogeneous fleet. Batches run layer-major so memory-bound layers
//!   pay their weight DMA once per batch. Open-loop ([`Fleet::serve`]),
//!   adaptive ([`Fleet::serve_adaptive`]) and closed-loop
//!   ([`Fleet::serve_closed_loop`]) client modes.
//! * [`PlacementStrategy`] — how batches route to lanes, the one knob
//!   set through [`Fleet::with_placement`]: arch-blind earliest-free
//!   (default); affinity-aware placement that minimizes predicted
//!   completion time from per-`(arch, model)` service estimates
//!   bootstrapped out of the run's own completed monolithic batches
//!   (fault-mode hedging reads the same estimates), which collapses to
//!   earliest-free on homogeneous fleets, byte-for-byte; or
//!   `Pipelined { stages, queue_capacity }`, which splits every model
//!   into layer stages pinned to distinct lanes and reports per-stage
//!   occupancy ([`PipelineStageStats`]).
//! * [`ServeReport`] — goodput, drop rate, p50/p95/p99 latency
//!   (overall and per model), per-lane arch/busy/idle/energy breakdown
//!   ([`ServeReport::lane_breakdown`]), aggregate
//!   [`s2ta_sim::EventCounts`] and energy via `s2ta-energy`.
//! * [`Cluster`] / [`RoutingPolicy`] / [`ClusterReport`] — the shard
//!   tier: N independent fleets behind a deterministic router (random
//!   spray, join-shortest-queue, or power-of-two-choices over shard
//!   backlogs), with per-shard lane autoscaling against a diurnal day
//!   curve ([`AutoscalePolicy`], [`DiurnalSpec`], [`ScaleEvent`]) and
//!   global percentiles taken over the union of every shard's counted
//!   latency runs — never averaged per-shard percentiles.
//! * [`FaultSpec`] / [`FaultConfig`] — deterministic seeded fault
//!   injection (lane crashes, lane slowdowns, shard outages) with
//!   bounded deadline-aware retries ([`RetryPolicy`]), hedged dispatch
//!   ([`HedgePolicy`]), health-aware router failover and degraded-mode
//!   load shedding ([`DegradedMode`]); fault accounting rides every
//!   report as [`FaultStats`], inside report equality.
//!
//! # Example
//!
//! ```
//! use s2ta_core::ArchKind;
//! use s2ta_energy::TechParams;
//! use s2ta_models::lenet5;
//! use s2ta_serve::{Fleet, FleetSpec, PlacementStrategy, WorkloadSpec};
//!
//! let models = [lenet5()];
//! let requests = WorkloadSpec::uniform(7, 32, 10_000.0, models.len()).generate();
//! // A mixed fleet: two S2TA-AW lanes plus one dense-baseline lane,
//! // with affinity-aware batch routing.
//! let spec = FleetSpec::mixed(&[(ArchKind::S2taAw, 2), (ArchKind::SaZvcg, 1)]);
//! let fleet = Fleet::from_spec(spec).with_placement(PlacementStrategy::Affinity);
//! let report = fleet.serve(&models, &requests);
//! assert_eq!(report.outcomes.len(), 32);
//! assert!(report.goodput_ips(&TechParams::tsmc16()) > 0.0);
//! ```
#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod cluster;
mod fault;
mod fleet;
mod outcome;
mod pipeline;
mod placement;
mod policy;
mod queue;
mod report;
mod trace;
mod workload;

pub use cluster::{AutoscalePolicy, Cluster, ClusterReport, RoutingPolicy, ScaleEvent};
pub use fault::{
    DegradedMode, FaultConfig, FaultPlan, FaultSpec, FaultTimeline, HedgePolicy, RetryPolicy,
};
pub use fleet::{Fleet, FleetSpec, Lane};
pub use outcome::{
    DroppedRequest, FailedRequest, OutcomeLog, Outcomes, RequestOutcome, ServedRequest,
};
pub use placement::PlacementStrategy;
pub use policy::{
    BatchLimits, BatchObservation, BatchPolicy, FixedPolicy, SloAwarePolicy, SloClass,
};
pub use report::{FaultStats, ModelServeStats, PipelineStageStats, ServeReport, WorkerStats};
pub use trace::{
    FlightRecorder, HostSpan, HostSpans, MetricsSample, Trace, TraceConfig, TraceEvent,
    TraceEventKind,
};
pub use workload::{ClosedLoopSpec, DiurnalSpec, RateSegment, Request, WorkloadSpec};
