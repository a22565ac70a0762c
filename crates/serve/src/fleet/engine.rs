//! The event-driven serving engine behind every [`Fleet`] run: its
//! arrival source, its one event calendar, and the handlers that admit,
//! batch, complete, retry and fault requests (batch dispatch lives in
//! [`dispatch`]).

mod dispatch;

use super::{Fleet, Recurring};
use crate::cluster::{AutoscalePolicy, ScaleEvent};
use crate::fault::{FaultState, TimelineEvent, WindowEdge};
use crate::outcome::{OutcomeLog, OutcomeRow};
use crate::pipeline::PipelineState;
use crate::placement::{PlacementStrategy, ServiceEstimator};
use crate::policy::{BatchObservation, BatchPolicy};
use crate::queue::RequestQueue;
use crate::report::{LatencyHistogram, ModelServeStats, ServeReport, WorkerStats};
use crate::trace::{TraceCell, TraceEvent, TraceEventKind, TraceState};
use crate::workload::{ClosedLoopClient, ClosedLoopSpec, Request};
pub(crate) use dispatch::StageRun;
use s2ta_core::Scratch;
use s2ta_models::ModelSpec;
use s2ta_sim::EventCounts;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

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
    /// calendar entry is stale and its members were retried or failed.
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

    pub(super) fn closed(spec: &ClosedLoopSpec) -> Self {
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
    /// request queue's per-lane slots, not in the calendar.
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
    /// evaluation, retry and fault edge, popped in `(time, Event)`
    /// order. It holds at most a few hundred entries on any measured
    /// run, so a binary heap is all it needs.
    calendar: BinaryHeap<Reverse<(u64, Event)>>,
    /// The records of the batches in flight, by batch id: inserted at
    /// dispatch, removed when the batch's completion pops (for a
    /// crash-cancelled batch, when its stale calendar entry does). The
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
    /// One row per resolved request; see [`Engine::push_outcome`] for
    /// how it grows.
    outcomes: OutcomeLog,
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
    /// Drops, deadline misses and failures per model index, each
    /// counted where its outcome resolves.
    per_model: Vec<ModelServeStats>,
    /// Flight recorder + metrics registry (attached via
    /// [`Fleet::with_trace`]; `None` compiles every hook down to a
    /// branch). Boxed to keep the untraced engine's footprint flat.
    trace: Option<Box<TraceState>>,
    /// Fault-injection state (attached via [`Fleet::with_faults`]),
    /// changed only through its own methods and its plain
    /// [`crate::FaultStats`] counters. `None` keeps every fault hook a single
    /// branch on the fault-free path.
    faults: Option<Box<FaultState>>,
    /// Lane autoscaling (cluster shards with an [`AutoscalePolicy`],
    /// attached via [`Engine::with_autoscale`]); `None` keeps its event
    /// a single branch.
    autoscale: Option<Autoscaler>,
    /// The host buffers every stage execution of this run borrows (an
    /// engine runs on one host thread, so one arena serves it all; a
    /// cluster driver lends its own in for each step, see
    /// [`Engine::lent`]).
    scratch: Scratch,
    /// The open-loop stream's recurring inputs, attached via
    /// [`Engine::retaining`]: only their activation counters enter the
    /// shared table. `None` (closed loop) keeps every input's.
    recurring: Option<&'a Recurring>,
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
        let mut calendar = BinaryHeap::new();
        if let Some((_, timeline)) = &fleet.fault {
            for (index, edge) in timeline.events().iter().enumerate() {
                calendar.push(Reverse((edge.time, Event::Fault(index))));
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
            outcomes: OutcomeLog::new(models.iter().map(|m| m.name).collect()),
            worker_stats: fleet.lanes.iter().map(|l| WorkerStats::new(l.arch())).collect(),
            total_events: EventCounts::default(),
            makespan: 0,
            estimator: ServiceEstimator::new(),
            next_id: 0,
            pipeline,
            per_model: models.iter().map(|m| ModelServeStats::new(m.name)).collect(),
            trace: fleet.trace.map(|cfg| Box::new(TraceState::new(cfg, models.len()))),
            faults: fleet.fault.as_ref().map(|(config, timeline)| {
                Box::new(FaultState::new(config.clone(), timeline.clone()))
            }),
            autoscale: None,
            scratch: Scratch::new(),
            recurring: None,
        }
    }

    /// Keeps in the shared activation-counter table only the counters
    /// of the inputs `recurring` names: the whole open-loop stream's,
    /// counted before the clock starts.
    pub(crate) fn retaining(mut self, recurring: &'a Recurring) -> Self {
        self.recurring = Some(recurring);
        self
    }

    /// Attaches lane autoscaling under `policy`, evaluated every
    /// interval through `horizon` (no evaluation fires past it).
    pub(crate) fn with_autoscale(mut self, policy: Option<AutoscalePolicy>, horizon: u64) -> Self {
        self.autoscale = policy.map(|policy| Autoscaler { policy, horizon, events: Vec::new() });
        if let Some(first) = self.autoscale.as_ref().and_then(|auto| auto.after(0)) {
            self.calendar.push(Reverse((first, Event::Autoscale)));
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

    pub(super) fn run(mut self) -> ServeReport {
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
    fn next_event(&self) -> Option<(u64, Event)> {
        let deadline = self.queue.next_deadline().map(|(t, model)| (t, Event::Deadline(model)));
        let head = self.calendar.peek().map(|&Reverse(head)| head);
        [head, deadline].into_iter().flatten().min()
    }

    /// Processes the earliest pending event: the next arrival, a lane
    /// deadline or the calendar's head, which leaves the calendar here.
    fn step(&mut self, (time, event): (u64, Event)) {
        if !matches!(event, Event::Arrival | Event::Deadline(_)) {
            let head = self.calendar.pop();
            debug_assert_eq!(head, Some(Reverse((time, event))), "only the calendar's head steps");
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

    /// Runs `step` on this engine with `arena` as its scratch arena,
    /// then hands the arena back: a driver that steps several engines
    /// on one thread holds one arena and lends it to whichever steps.
    pub(crate) fn lent(&mut self, arena: &mut Scratch, step: impl FnOnce(&mut Self)) {
        std::mem::swap(&mut self.scratch, arena);
        step(self);
        std::mem::swap(&mut self.scratch, arena);
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
                .filter_map(|Reverse((_, event))| match event {
                    Event::Completion(id) => Some(&self.batches[id]),
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
    /// [`Engine::advance_to_arrival`] dispatch at all.
    pub(crate) fn has_event_before(&self, t: u64) -> bool {
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
        let batch = self.batches.remove(&index).expect("a calendar entry has an in-flight record");
        // A crash-cancelled batch's calendar entry is stale: its members
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
            self.push_outcome(OutcomeRow::served(r, batch.start, t, index, batch.lane));
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
            self.calendar.push(Reverse((next, Event::Autoscale)));
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
        self.per_model[lane].deadline_misses += members.len() as u64;
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
        self.per_model[request.model].dropped += 1;
        self.trace_event(TraceEvent {
            model: request.model as u32,
            a: request.id,
            b: self.queued as u64,
            ..TraceEvent::new(request.arrival, TraceEventKind::RequestDropped)
        });
        self.push_outcome(OutcomeRow::dropped(&request));
        // A drop completes the client's outstanding request
        // immediately; it thinks and retries from the drop time.
        self.arrivals.request_finished(request.id, request.arrival);
    }

    /// Abandons `request` as [`crate::RequestOutcome::Failed`] at `now` after
    /// `attempts` consumed dispatch attempts.
    fn fail_request(&mut self, request: Request, attempts: u32, now: u64) {
        self.fault_state().fail(&request);
        self.per_model[request.model].failed += 1;
        self.push_outcome(OutcomeRow::failed(&request, attempts));
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
            // The record stays, flagged, until its stale calendar entry
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
                    Ok((at, slot)) => self.calendar.push(Reverse((at, Event::Retry(slot)))),
                    Err(attempts) => self.fail_request(r, attempts, t),
                }
            }
        }
    }

    /// A crash window closes: the lane rejoins the fleet **cold** on
    /// the simulated clock — its weight SRAM is empty, so the first
    /// stage it runs streams its compressed weights over DMA again
    /// (`warm == false`, [`s2ta_core::WeightResidency::Streamed`]). W-DBB
    /// compression happens once, before serving, so the host's weight
    /// plans and activation counters are pure memo tables that a
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

    /// Reserves the outcome log for `requests` more resolved requests.
    pub(crate) fn reserve_outcomes(&mut self, requests: usize) {
        self.outcomes.reserve_exact(requests);
    }

    /// Appends one resolved request to the outcome log: a drop or shed
    /// at arrival, a failure at a crash or a full retry, or a service at
    /// its batch's completion. Every injected request resolves exactly
    /// once, so a log reserved to its known length (a stream, a
    /// closed-loop budget, a pre-routed shard) never grows. A barrier
    /// shard's length is known only once routed: its log is reserved at
    /// its even share plus [`outcome_slack`], and grows by that slack
    /// again only if routing overruns it. A growth copies the whole log
    /// and leaves the old block resident in the process, so what it
    /// costs is peak memory, however little spare capacity it leaves.
    fn push_outcome(&mut self, row: OutcomeRow) {
        if self.outcomes.len() == self.outcomes.capacity() {
            self.outcomes.reserve_exact(outcome_slack(self.outcomes.len()));
        }
        self.outcomes.push_row(row);
    }

    pub(crate) fn into_report(mut self) -> ServeReport {
        self.outcomes.sort_by_id();
        let fault = self.faults.take().map(|f| f.finish(self.makespan)).unwrap_or_default();
        let latency = LatencyHistogram::per_model(&self.outcomes);
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
        let report = ServeReport {
            arch: self.fleet.arch_label(),
            policy: self.policy.name().to_string(),
            outcomes: self.outcomes,
            batches: self.dispatched,
            workers: self.worker_stats,
            total_events: self.total_events,
            makespan_cycles: self.makespan,
            pipeline_stages,
            per_model: self.per_model,
            fault,
            latency,
            trace,
        };
        debug_assert_eq!(
            report.served_count() + report.dropped_count() + report.failed_count(),
            report.outcomes.len(),
            "every resolved request is counted once"
        );
        report
    }
}

/// The spare records an outcome log of `len` records is given when
/// its final length is not known ahead: an eighth of it, plus 64.
/// Backlog-probing routing gives its busiest shard about a tenth more
/// than an even share on the canonical day, so a barrier shard's log
/// reserved at its even share plus this slack is never copied there.
pub(crate) fn outcome_slack(len: usize) -> usize {
    len / 8 + 64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultSpec, FaultTimeline, RetryPolicy};
    use crate::fleet::tests::tiny_workload;
    use crate::outcome::RequestOutcome;
    use crate::policy::{BatchLimits, FixedPolicy, SloAwarePolicy};
    use crate::workload::WorkloadSpec;
    use s2ta_core::ArchKind;
    use s2ta_models::lenet5;

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

    /// An empty request stream must produce a calm empty report.
    #[test]
    fn empty_request_stream_is_served_calmly() {
        let models = vec![lenet5()];
        let report = Fleet::new(ArchKind::S2taAw, 2).serve(&models, &[]);
        assert_eq!(report.outcomes.len(), 0);
        assert_eq!(report.batches, 0);
        assert_eq!(report.makespan_cycles, 0);
    }

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
                let inputs = members.iter().map(|r| (r.act_seed, true));
                fleet.lanes[0]
                    .execute_stage(&models[0], layers, inputs, fleet.weight_seed, warm, scratch)
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
    }

    /// The batch table follows the work in flight: while serving it
    /// holds exactly the calendar's completion entries (a crash-cancelled
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
                    .filter(|Reverse((_, event))| matches!(event, Event::Completion(_)))
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
        assert!(
            matches!(report.outcomes.get(0), Some(RequestOutcome::Failed(f)) if f.attempts == 2)
        );
        let served: Vec<(u64, u64)> = report.served_outcomes().map(|o| (o.id, o.start)).collect();
        assert_eq!(served, vec![(1, 20_050), (2, 10_202 + wait)], "r not at 20_051");
    }
}
