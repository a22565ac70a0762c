//! Cluster-scale sharded serving: a router tier over N independent
//! fleet shards.
//!
//! A [`Cluster`] scales the serving simulation past one fleet: N
//! [`Fleet`] **shards** — each with its own lanes, queues, batching
//! policy and admission bound — sit behind a **router** that assigns
//! every arriving request to exactly one shard under a pluggable
//! [`RoutingPolicy`]:
//!
//! * [`RoutingPolicy::Random`] — uniform random spray (the baseline
//!   every load-balancing paper beats),
//! * [`RoutingPolicy::JoinShortestQueue`] — probe every shard's
//!   queued depth (requests admitted but not yet sealed into a
//!   batch), join the global minimum (the omniscient upper bound),
//! * [`RoutingPolicy::PowerOfTwo`] — probe two random shards, join the
//!   shallower (Mitzenmacher's "power of two choices": nearly JSQ's
//!   tail at two probes' cost).
//!
//! Random probes come from the same deterministic LCG family the
//! workload generators use, seeded by [`Cluster::with_router_seed`], so
//! a cluster run is bit-reproducible: a fixed `(stream, routing, seed,
//! shard specs)` always produces the identical [`ClusterReport`]. Each
//! policy's routing step is written once: with health-aware failover
//! ([`Cluster::with_faults`]) it steers clear of shards in an outage
//! window, and health-unaware routing is the case where every shard is
//! up.
//!
//! The router is exact, not approximate: before routing an arrival at
//! time `t`, every shard engine is advanced through its internal events
//! up to `t`, so the queued depths the policy probes are precisely what
//! a request arriving at `t` would observe. (Probes read the *queued*
//! depth, not the full queued+in-flight backlog: in-flight batch mass
//! is common-mode across shards and drains at already-committed times
//! no routing decision can change, so including it dilutes the
//! differential signal the probing policies steer on. The autoscaler,
//! by contrast, thresholds the full backlog — it sizes capacity, and a
//! shard booked solid with in-flight work is not idle.) Shards stay
//! fully independent otherwise — no work stealing, no cross-shard
//! batching — which is what makes the tail-latency gap between routing
//! policies attributable to routing alone.
//!
//! That same independence makes the cluster a textbook conservative
//! parallel discrete-event simulation, with the **arrival stream as
//! the synchronization barrier**: between two router decisions no
//! shard can affect another. Both drivers run one loop
//! (`Cluster::drive`): before each arrival, every engine with an
//! event before it advances to its time (a peek at each engine's next
//! event skips the rest); then the arrival is routed, a
//! failover diversion noted, and the arrival injected; after the last
//! arrival every engine drains. [`Cluster::serve`] picks the driver by
//! routing policy, and the drivers differ only in where the routing
//! decision comes from and which thread runs the loop:
//!
//! 1. **Pre-routed** ([`RoutingPolicy::Random`] — probe-free): the
//!    router consumes exactly one LCG draw per request and never looks
//!    at a backlog, so the whole routing sequence is pre-drawn and the
//!    arrival stream partitioned per shard up front. Each shard runs
//!    the loop over its own engine and substream, taking the pre-drawn
//!    choice, independently in parallel on an [`Executor`] with a
//!    single join.
//! 2. **Arrival-barrier** ([`RoutingPolicy::JoinShortestQueue`] /
//!    [`RoutingPolicy::PowerOfTwo`] — backlog-probing): the loop runs
//!    over every shard's engine on the caller's thread, and the router
//!    probes their depths at each arrival. Typically only one or two
//!    shards have work per inter-arrival gap. That is too little work to
//!    fan out per arrival. When this inline loop replaced a fanned-out
//!    advance, the canonical 1M-request day on a 2-vCPU host took
//!    13.6-15.0 (jsq) and 12.6-14.4 (p2c) host-s fanned out over 2
//!    workers, against 7.4-7.5 and 7.2 s inline. Those are that
//!    change's measurements, not current timings; the reason holds.
//!
//! Either way each shard runs one serving engine that owns its (empty)
//! arrival source and a borrow of its own copy of the shard's
//! [`FixedPolicy`]. The barrier driver keeps the shard engines beside
//! their policies on the caller's thread; the pre-routed driver builds
//! each shard's engine on its executor thread and hands back only the
//! shard's [`ServeReport`] and scale events, so no engine ever crosses
//! a thread.
//!
//! [`Cluster::serve_serial`] is the barrier driver whatever the
//! routing policy. Under [`RoutingPolicy::Random`] it is an
//! independent reference for the pre-routed tier (a different driver
//! reaching the same result); under the probing policies it is the
//! very driver [`Cluster::serve`] runs. Every driver produces the
//! byte-identical report. "Byte-identical" covers the full
//! [`ClusterReport`] equality —
//! outcomes, percentiles, routing tallies, scale events. Host-side
//! cache counters are not part of any report: shards racing on the
//! shared plan caches can interleave lookups differently, but cached
//! values are pure, so simulated results never change. Traces carry
//! no cache counters either. A caller that wants a run's cache
//! activity diffs [`s2ta_core::WeightPlanCache::stats`] around the
//! call.
//!
//! An optional [`AutoscalePolicy`] adds per-shard **lane autoscaling**:
//! at a fixed simulated cadence each shard's backlog is compared
//! against scale-up/-down thresholds and the shard's active-lane count
//! grows or shrinks by one lane (within `[min_lanes, lanes]`), with
//! every change recorded as a [`ScaleEvent`] in the report. Work
//! already in flight on a deactivated lane drains normally; the lane
//! just stops receiving new batches — the simulated analogue of
//! cordoning a replica before teardown. Each evaluation is an event of
//! the shard's own engine: it fires every interval up to the last
//! arrival of the whole stream, wherever that arrival was routed, after
//! same-cycle completions and before same-cycle arrivals. Neither
//! driver schedules evaluations, and each merges the shards' scale
//! events by `(time, shard)`.
//!
//! [`ClusterReport`] rolls the per-shard [`ServeReport`]s up into
//! cluster-global metrics by addition: counts, events and fault stats
//! add, makespan takes the max. Global latency percentiles are the
//! nearest-rank percentiles of **the union of every shard's per-model
//! latency runs** — byte-identical to pooling every per-request
//! sample — never averaging per-shard percentiles, which is
//! statistically meaningless for tail quantiles (a shard with 1% of
//! traffic and a terrible p99 would be diluted 4× in a 4-shard average,
//! yet its requests are fully present in the true global tail).

use crate::fault::{FaultConfig, FaultPlan};
use crate::fleet::{outcome_slack, ArrivalSource, Engine, Fleet, Recurring};
use crate::outcome::assert_model_count;
use crate::policy::FixedPolicy;
use crate::report::{
    availability_of, fraction_of, goodput_ips_of, render_table, Col, FaultStats, LatencyHistogram,
    ModelServeStats, ServeReport,
};
use crate::trace::{Trace, TraceConfig};
use crate::workload::{Lcg, Request};
use s2ta_core::pool::Executor;
use s2ta_core::Scratch;
use s2ta_energy::{EnergyBreakdown, TechParams};
use s2ta_models::ModelSpec;
use s2ta_sim::EventCounts;
use std::fmt;

/// How the router assigns each arriving request to a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingPolicy {
    /// Uniform random shard choice (one LCG draw per request).
    Random,
    /// Probe every shard's queued depth (requests admitted but not
    /// yet sealed into a batch), join the global minimum; ties break
    /// to the lowest shard index. Consumes no randomness.
    JoinShortestQueue,
    /// Probe two uniform random shards, join the shallower; a tie
    /// (including probing the same shard twice) breaks to the lower
    /// shard index. Two LCG draws per request.
    #[default]
    PowerOfTwo,
}

impl RoutingPolicy {
    /// Short label for reports and artifacts.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Random => "random",
            Self::JoinShortestQueue => "jsq",
            Self::PowerOfTwo => "p2c",
        }
    }

    /// Picks the shard for one arrival given the current queue depths,
    /// joining only shards `up` reports healthy. Returns `(shard,
    /// failed_over)`, the flag recording that health diverted the
    /// choice from the shard it would join with every shard up.
    /// Deterministic for a fixed RNG state, depth vector and health.
    ///
    /// Health never adds or removes LCG draws: a [`Self::Random`] draw
    /// or a [`Self::PowerOfTwo`] probe draw that lands on a down shard
    /// re-uses its value to index the healthy set, so the routing
    /// sequence stays a pure function of `(seed, arrival times, fault
    /// plan)` and the probe-free driver can pre-draw it. Health-unaware
    /// routing is the case where every shard is up. When **every**
    /// shard is down the router routes as if all were up: requests
    /// queue on a down shard and execute after it recovers.
    pub(crate) fn route(
        &self,
        shards: usize,
        rng: &mut Lcg,
        up: impl Fn(usize) -> bool,
        depth: impl Fn(usize) -> usize,
    ) -> (usize, bool) {
        debug_assert!(shards > 0);
        let healthy = (0..shards).filter(|&s| up(s)).count();
        let all_down = healthy == 0;
        let up = |s| all_down || up(s);
        let healthy = if all_down { shards } else { healthy };
        // A draw lands on shard `draw % shards` or, when that one is
        // down, on the `draw % healthy`-th healthy shard.
        let land = |draw: u64| {
            let naive = (draw % shards as u64) as usize;
            if up(naive) {
                return (naive, false);
            }
            let k = (draw % healthy as u64) as usize;
            ((0..shards).filter(|&s| up(s)).nth(k).expect("k indexes the healthy set"), true)
        };
        match self {
            Self::Random => land(rng.next_u64()),
            Self::JoinShortestQueue => {
                let shortest = |up_only: bool| {
                    (0..shards)
                        .filter(|&s| !up_only || up(s))
                        .min_by_key(|&s| (depth(s), s))
                        .expect("at least one shard")
                };
                let pick = shortest(true);
                (pick, healthy < shards && !up(shortest(false)))
            }
            Self::PowerOfTwo => {
                let (a, diverted_a) = land(rng.next_u64());
                let (b, diverted_b) = land(rng.next_u64());
                // Join the shallower probed queue — never the deeper —
                // with ties (and a == b) resolving to the lower index.
                (std::cmp::min((depth(a), a), (depth(b), b)).1, diverted_a || diverted_b)
            }
        }
    }

    /// Whether routing decisions read shard backlogs. Probe-free
    /// policies consume a fixed number of LCG draws per request and
    /// ignore the depth callback entirely, so their whole routing
    /// sequence can be pre-drawn — the tier-1 parallel driver's
    /// enabling property.
    pub(crate) fn probes_backlog(&self) -> bool {
        match self {
            Self::Random => false,
            Self::JoinShortestQueue | Self::PowerOfTwo => true,
        }
    }
}

/// The bit of a pre-routed stream index that flags a failover
/// diversion; the low 31 bits index the caller's stream.
const FAILED_OVER: u32 = 1 << 31;

impl fmt::Display for RoutingPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-shard lane autoscaling: at a fixed simulated cadence, each
/// shard's queue backlog is compared against hysteresis thresholds and
/// the shard grows or shrinks its active-lane count by one lane.
///
/// `scale_down_depth` must be strictly below `scale_up_depth` — the
/// gap is the hysteresis band that keeps the scaler from oscillating
/// on a backlog sitting exactly at one threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AutoscalePolicy {
    /// Simulated cycles between evaluations of every shard.
    pub eval_interval_cycles: u64,
    /// Backlog at or above which a shard activates one more lane (up
    /// to its fleet's lane count).
    pub scale_up_depth: usize,
    /// Backlog at or below which a shard deactivates one lane (down
    /// to `min_lanes`).
    pub scale_down_depth: usize,
    /// Floor on active lanes per shard (at least 1).
    pub min_lanes: usize,
}

impl AutoscalePolicy {
    /// Panics unless the policy is internally consistent.
    fn validate(&self) {
        assert!(self.eval_interval_cycles > 0, "autoscale interval must be positive");
        assert!(self.min_lanes >= 1, "a shard keeps at least one active lane");
        assert!(
            self.scale_down_depth < self.scale_up_depth,
            "scale-down threshold must sit strictly below scale-up (hysteresis)"
        );
    }
}

/// One autoscaler action: a shard changed its active-lane count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleEvent {
    /// Simulated cycle of the evaluation that triggered the change.
    pub time: u64,
    /// Shard that scaled.
    pub shard: usize,
    /// Active lanes before.
    pub from_lanes: usize,
    /// Active lanes after.
    pub to_lanes: usize,
    /// The shard's backlog (queued + in-flight requests) at
    /// evaluation time (the trigger).
    pub backlog: usize,
}

/// N independent [`Fleet`] shards behind a routing tier.
///
/// # Example
///
/// ```
/// use s2ta_core::ArchKind;
/// use s2ta_models::lenet5;
/// use s2ta_serve::{Cluster, Fleet, RoutingPolicy, WorkloadSpec};
///
/// let models = [lenet5()];
/// let requests = WorkloadSpec::uniform(7, 64, 4_000.0, models.len()).generate();
/// let shards = (0..2).map(|_| Fleet::new(ArchKind::S2taAw, 2)).collect();
/// let cluster = Cluster::new(shards).with_routing(RoutingPolicy::PowerOfTwo);
/// let report = cluster.serve(&models, &requests);
/// assert_eq!(report.total_requests(), 64);
/// ```
#[derive(Debug, Clone)]
pub struct Cluster {
    shards: Vec<Fleet>,
    routing: RoutingPolicy,
    router_seed: u64,
    autoscale: Option<AutoscalePolicy>,
    fault: Option<(FaultConfig, FaultPlan)>,
}

impl Cluster {
    /// A cluster over `shards` with the default routing
    /// ([`RoutingPolicy::PowerOfTwo`]) and router seed 0.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty.
    pub fn new(shards: Vec<Fleet>) -> Self {
        assert!(!shards.is_empty(), "a cluster needs at least one shard");
        Self {
            shards,
            routing: RoutingPolicy::default(),
            router_seed: 0,
            autoscale: None,
            fault: None,
        }
    }

    /// Replaces the routing policy.
    pub fn with_routing(mut self, routing: RoutingPolicy) -> Self {
        self.routing = routing;
        self
    }

    /// Replaces the router's LCG seed (the only randomness in a
    /// cluster run).
    pub fn with_router_seed(mut self, seed: u64) -> Self {
        self.router_seed = seed;
        self
    }

    /// Re-points every shard's lanes at one **cluster-wide** shared
    /// [`s2ta_core::WeightPlanCache`] and
    /// [`s2ta_core::ActProfileCache`]: each weight plan is compiled
    /// once for the whole cluster instead of once per shard, and each
    /// recurring activation input is generated and tallied once, its
    /// counters filled for every plan the shards' lanes hold (one
    /// S2TA-AW and one SA-ZVCG plan per model on the canonical
    /// shards). Cached values are pure, so this changes host time and
    /// cache counters — never simulated results.
    pub fn with_shared_caches(mut self) -> Self {
        let plans = s2ta_core::WeightPlanCache::new();
        let acts = s2ta_core::ActProfileCache::new();
        self.shards = self
            .shards
            .into_iter()
            .map(|f| f.sharing_caches(plans.clone(), acts.clone()))
            .collect();
        self
    }

    /// Enables per-shard lane autoscaling.
    ///
    /// # Panics
    ///
    /// Panics if the policy is inconsistent (zero interval, zero
    /// `min_lanes`, or thresholds without a hysteresis gap).
    pub fn with_autoscale(mut self, policy: AutoscalePolicy) -> Self {
        policy.validate();
        self.autoscale = Some(policy);
        self
    }

    /// Enables deterministic fault injection across the cluster: the
    /// config's [`crate::FaultSpec`] expands once — over the full
    /// cluster topology, so lane and shard draws see every shard — and
    /// each shard fleet receives its own slice of the plan. When
    /// [`FaultConfig::failover`] is set the router also becomes
    /// health-aware: no probing policy joins a shard inside one of its
    /// outage windows, and [`RoutingPolicy::Random`] re-draws onto the
    /// healthy set (still exactly one LCG draw per request, and still a
    /// pure function of the pre-drawn state — so the probe-free
    /// parallel driver stays byte-identical).
    ///
    /// # Panics
    ///
    /// Panics if the spec's horizon is zero.
    pub fn with_faults(mut self, config: FaultConfig) -> Self {
        let lanes_per_shard: Vec<usize> = self.shards.iter().map(Fleet::workers).collect();
        let plan = config.spec.schedule(&lanes_per_shard);
        self.shards = self
            .shards
            .into_iter()
            .enumerate()
            .map(|(s, f)| f.with_fault_timeline(config.clone(), plan.shard_timeline(s)))
            .collect();
        self.fault = Some((config, plan));
        self
    }

    /// Attaches an observability trace to **every shard**: each shard
    /// engine records its own flight-recorder events and metrics
    /// series, and [`ClusterReport::merged_trace`] merges them by
    /// `(cycle, shard)` — the same discipline as scale events, so the
    /// merged trace is byte-identical for the pre-routed and barrier
    /// drivers.
    ///
    /// # Panics
    ///
    /// Panics if `config.metrics_interval_cycles` is zero.
    pub fn with_trace(mut self, config: TraceConfig) -> Self {
        config.validate();
        self.shards = self.shards.into_iter().map(|f| f.with_trace(config)).collect();
        self
    }

    /// The shards, in routing-index order.
    pub fn shards(&self) -> &[Fleet] {
        &self.shards
    }

    /// Serves an open-loop request stream across the shards and rolls
    /// the per-shard reports up into a [`ClusterReport`].
    ///
    /// Each arrival is routed to exactly one shard (after every shard
    /// engine has been advanced to the arrival time, so probed queue
    /// depths are exact), injected there, and from then on lives
    /// entirely inside that shard: admission, batching, placement and
    /// execution are the shard fleet's own. Requests keep their global
    /// stream ids, so the union of per-shard outcomes covers the input
    /// stream exactly once. The whole stream's `(model, act_seed)`
    /// pairs are counted once, before routing, and only inputs it names
    /// at least twice keep their activation counters in the shards'
    /// caches, as in [`Fleet::serve`].
    ///
    /// Runs the pre-routed driver on the process-wide [`Executor`] or
    /// the arrival-barrier driver on the caller's thread (see the
    /// module docs); the result is byte-identical to
    /// [`Cluster::serve_serial`] for every routing policy and executor
    /// size.
    ///
    /// # Panics
    ///
    /// Panics if a request names a model index outside `models`, if
    /// arrivals are unsorted, if `models` holds more than 256 models, or
    /// if the pre-routed driver is given more than 2^31 requests (it
    /// routes by 31-bit stream index).
    pub fn serve(&self, models: &[ModelSpec], requests: &[Request]) -> ClusterReport {
        self.serve_on(Executor::global(), models, requests)
    }

    /// [`Cluster::serve`] on an explicit executor — the hook that lets
    /// tests pin the pre-routed driver to specific worker counts (a
    /// one-worker executor runs the same code path fully inline). The
    /// barrier driver ignores the executor.
    pub fn serve_on(
        &self,
        executor: &Executor,
        models: &[ModelSpec],
        requests: &[Request],
    ) -> ClusterReport {
        if self.routing.probes_backlog() {
            self.serve_barrier(models, requests)
        } else {
            self.serve_prerouted(executor, models, requests)
        }
    }

    /// The router's health view at `t`: with failover enabled, the
    /// shards outside their outage windows; otherwise every shard.
    fn shard_up(&self, t: u64) -> impl Fn(usize) -> bool + '_ {
        let plan = match &self.fault {
            Some((config, plan)) if config.failover && plan.any_shard_down(t) => Some(plan),
            _ => None,
        };
        move |s| plan.is_none_or(|plan| plan.is_shard_up(s, t))
    }

    /// The serial reference driver: the arrival-barrier driver,
    /// whatever the routing policy. Under [`RoutingPolicy::Random`] it
    /// is the independent check on the pre-routed driver
    /// [`Cluster::serve`] takes; under the probing policies it is the
    /// driver [`Cluster::serve`] runs too. Prefer [`Cluster::serve`]
    /// everywhere else.
    ///
    /// # Panics
    ///
    /// As [`Cluster::serve`].
    pub fn serve_serial(&self, models: &[ModelSpec], requests: &[Request]) -> ClusterReport {
        self.serve_barrier(models, requests)
    }

    /// Tier-1 parallel driver for probe-free routing: pre-draw the
    /// entire routing sequence (Random consumes exactly one LCG draw
    /// per request and never reads a backlog), partition the arrivals
    /// per shard, and run every shard's complete lifetime through
    /// [`Cluster::drive`] over its own substream, independently on the
    /// executor with a single join. Embarrassingly parallel: the only
    /// serial work is the pre-draw and the report merge.
    ///
    /// Replaying only a shard's own arrivals is exact because the
    /// engine is event-driven: advancing a shard to *another* shard's
    /// arrival time (as the barrier driver does) processes the same
    /// internal events in the same `(time, kind)` order as advancing it
    /// later, so the host call boundaries are behavior-neutral.
    fn serve_prerouted(
        &self,
        executor: &Executor,
        models: &[ModelSpec],
        requests: &[Request],
    ) -> ClusterReport {
        let n = self.shards.len();
        assert_model_count(models.len());
        assert!(
            requests.len() <= FAILED_OVER as usize,
            "the pre-routed driver indexes streams of at most {FAILED_OVER} requests, got {}",
            requests.len()
        );
        let recurring = Recurring::count(requests);
        let mut rng = Lcg::new(self.router_seed);
        // Pre-draw the full routing sequence as per-shard indices into
        // the caller's stream, each carrying its request's failover flag
        // so the shard replay can record the diversion at the exact point
        // the barrier driver would.
        let mut per_shard: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, r) in requests.iter().enumerate() {
            let (shard, failed_over) =
                self.routing.route(n, &mut rng, self.shard_up(r.arrival), |_| {
                    unreachable!("probe-free routing")
                });
            per_shard[shard].push(i as u32 | if failed_over { FAILED_OVER } else { 0 });
        }
        let routed: Vec<usize> = per_shard.iter().map(Vec::len).collect();
        let shard_ids: Vec<usize> = (0..n).collect();
        let results = executor.map(&shard_ids, |&s| {
            let own = &per_shard[s];
            let mut policy = self.shards[s].fixed_policy();
            let mut engine = self.engine(s, models, requests, &recurring, &mut policy);
            // Every routed request resolves exactly once on this shard.
            engine.reserve_outcomes(own.len());
            let arrivals =
                own.iter().map(|&i| (&requests[(i & !FAILED_OVER) as usize], i & FAILED_OVER != 0));
            Self::drive(std::slice::from_mut(&mut engine), arrivals, |_, _, failed_over| {
                (0, failed_over)
            });
            let mut scale_events = Vec::new();
            (Self::finish(s, engine, &mut scale_events), scale_events)
        });
        let (reports, scale_events): (Vec<ServeReport>, Vec<Vec<ScaleEvent>>) =
            results.into_iter().unzip();
        self.assemble(reports, routed, scale_events.concat())
    }

    /// Tier-2 driver for backlog-probing routing, on the caller's
    /// thread: [`Cluster::drive`] over every shard's engine at once, so
    /// each probing decision reads depths exact at its arrival.
    fn serve_barrier(&self, models: &[ModelSpec], requests: &[Request]) -> ClusterReport {
        let n = self.shards.len();
        let recurring = Recurring::count(requests);
        let mut policies: Vec<FixedPolicy> = self.shards.iter().map(Fleet::fixed_policy).collect();
        let mut engines: Vec<Engine> = policies
            .iter_mut()
            .enumerate()
            .map(|(s, policy)| {
                let mut engine = self.engine(s, models, requests, &recurring, policy);
                // A shard's share of the stream is unknown until routed;
                // its even share plus slack, which the busiest shard of
                // the canonical day stays within, sizes the log once.
                let even = requests.len() / n;
                engine.reserve_outcomes(even + outcome_slack(even));
                engine
            })
            .collect();
        let mut rng = Lcg::new(self.router_seed);
        let mut routed = vec![0usize; n];
        let arrivals = requests.iter().map(|r| (r, ()));
        Self::drive(&mut engines, arrivals, |engines, r, ()| {
            let (shard, failed_over) =
                self.routing
                    .route(n, &mut rng, self.shard_up(r.arrival), |s| engines[s].queued_depth());
            routed[shard] += 1;
            (shard, failed_over)
        });
        let mut scale_events: Vec<ScaleEvent> = Vec::new();
        let reports = engines
            .into_iter()
            .enumerate()
            .map(|(s, engine)| Self::finish(s, engine, &mut scale_events))
            .collect();
        self.assemble(reports, routed, scale_events)
    }

    /// Shard `shard`'s serving engine over an (empty) open source,
    /// autoscaled under the cluster's policy, if any, through the last
    /// arrival of the whole `stream`, and keeping the activation
    /// counters of the inputs `recurring` counted in that whole stream.
    fn engine<'a>(
        &'a self,
        shard: usize,
        models: &'a [ModelSpec],
        stream: &[Request],
        recurring: &'a Recurring,
        policy: &'a mut FixedPolicy,
    ) -> Engine<'a> {
        let horizon = stream.last().map_or(0, |r| r.arrival);
        Engine::new(&self.shards[shard], models, ArrivalSource::open(&[]), policy)
            .with_autoscale(self.autoscale, horizon)
            .retaining(recurring)
    }

    /// The serving loop of both drivers. Before each arrival, every
    /// engine with an internal event before it (autoscaler evaluations
    /// included) advances to its time; then `route` picks the engine
    /// from their state and the arrival's pre-drawn `choice`, flagging
    /// a failover diversion, which is recorded before the arrival is
    /// injected. Every engine drains after the last arrival. The
    /// engines step one at a time, so they share one scratch arena.
    fn drive<'r, C>(
        engines: &mut [Engine],
        arrivals: impl Iterator<Item = (&'r Request, C)>,
        mut route: impl FnMut(&[Engine], &Request, C) -> (usize, bool),
    ) {
        let mut arena = Scratch::new();
        for (r, choice) in arrivals {
            for engine in engines.iter_mut() {
                if engine.has_event_before(r.arrival) {
                    engine.lent(&mut arena, |e| e.advance_to_arrival(r.arrival));
                }
            }
            let (shard, failed_over) = route(engines, r, choice);
            if failed_over {
                engines[shard].note_failover(r);
            }
            engines[shard].lent(&mut arena, |e| e.inject(*r));
        }
        for engine in engines.iter_mut() {
            engine.lent(&mut arena, Engine::drain);
        }
    }

    /// Shard `shard`'s drained engine as its report, appending its
    /// scale events stamped with the shard index.
    fn finish(shard: usize, mut engine: Engine, scale_events: &mut Vec<ScaleEvent>) -> ServeReport {
        scale_events
            .extend(engine.take_scale_events().into_iter().map(|e| ScaleEvent { shard, ..e }));
        engine.into_report()
    }

    /// Rolls the finished shards' reports up into the [`ClusterReport`],
    /// merging the shards' time-ordered scale events by `(time, shard)`
    /// (at most one exists per evaluation time and shard).
    fn assemble(
        &self,
        shards: Vec<ServeReport>,
        routed: Vec<usize>,
        mut scale_events: Vec<ScaleEvent>,
    ) -> ClusterReport {
        scale_events.sort_by_key(|e| (e.time, e.shard));
        ClusterReport { routing: self.routing.label().to_string(), shards, routed, scale_events }
    }
}

/// Everything a cluster run produced: the per-shard [`ServeReport`]s
/// plus the routing/autoscaling decisions, rolled up into global
/// metrics.
///
/// Every global rollup is a sum, max or union of the shards' own
/// values. Global latency percentiles are taken over the union of
/// every shard's counted latency runs — they are the percentiles of
/// the cluster's request population, not an average of per-shard
/// percentiles.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Routing policy label (see [`RoutingPolicy::label`]).
    pub routing: String,
    /// Per-shard serving reports, in shard order.
    pub shards: Vec<ServeReport>,
    /// Requests the router assigned to each shard (sums to the input
    /// stream length).
    pub routed: Vec<usize>,
    /// Autoscaler actions, in simulated-time order (empty without an
    /// [`AutoscalePolicy`]).
    pub scale_events: Vec<ScaleEvent>,
}

impl ClusterReport {
    /// Requests in the input stream (served + dropped + failed over
    /// all shards).
    pub fn total_requests(&self) -> usize {
        self.shards.iter().map(|s| s.outcomes.len()).sum()
    }

    /// Requests that exhausted their retry budget (or became
    /// non-SLO-meetable after a crash) across all shards.
    pub fn failed_count(&self) -> usize {
        self.shards.iter().map(ServeReport::failed_count).sum()
    }

    /// Aggregate fault accounting over every shard; per-lane vectors
    /// concatenate in shard order, mirroring the cluster's global lane
    /// numbering. All-zero for a fault-free run.
    pub fn fault_stats(&self) -> FaultStats {
        let mut total = FaultStats::default();
        for s in &self.shards {
            total.merge(&s.fault);
        }
        total
    }

    /// Fraction of issued requests that did **not** fail: `1 -
    /// failed/total` (1.0 for an empty run). Drops are an admission
    /// decision, not a failure, and do not reduce availability.
    pub fn availability(&self) -> f64 {
        availability_of(self.failed_count(), self.total_requests())
    }

    /// Requests served across all shards.
    pub fn served_count(&self) -> usize {
        self.shards.iter().map(ServeReport::served_count).sum()
    }

    /// Requests tail-dropped across all shards.
    pub fn dropped_count(&self) -> usize {
        self.shards.iter().map(ServeReport::dropped_count).sum()
    }

    /// Dropped fraction of the whole stream (0 for an empty run).
    pub fn drop_rate(&self) -> f64 {
        fraction_of(self.dropped_count(), self.total_requests())
    }

    /// Global `pct`-th percentile latency in cycles over the union of
    /// every shard's latency runs (0 when nothing was served).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < pct <= 100.0`.
    pub fn latency_percentile_cycles(&self, pct: f64) -> u64 {
        let runs: Vec<&LatencyHistogram> = self.shards.iter().flat_map(|s| &s.latency).collect();
        LatencyHistogram::percentile_of_union(&runs, pct)
    }

    /// Global median latency in cycles.
    pub fn p50_cycles(&self) -> u64 {
        self.latency_percentile_cycles(50.0)
    }

    /// Global 95th-percentile latency in cycles.
    pub fn p95_cycles(&self) -> u64 {
        self.latency_percentile_cycles(95.0)
    }

    /// Global 99th-percentile latency in cycles.
    pub fn p99_cycles(&self) -> u64 {
        self.latency_percentile_cycles(99.0)
    }

    /// Cluster makespan: the last completion over all shards.
    pub fn makespan_cycles(&self) -> u64 {
        self.shards.iter().map(|s| s.makespan_cycles).max().unwrap_or(0)
    }

    /// Cluster goodput: served inferences per second at `tech`'s clock
    /// over the cluster makespan.
    pub fn goodput_ips(&self, tech: &TechParams) -> f64 {
        goodput_ips_of(self.served_count(), self.makespan_cycles(), tech)
    }

    /// Aggregate simulated events over every shard.
    pub fn total_events(&self) -> EventCounts {
        let mut total = EventCounts::default();
        for s in &self.shards {
            total += s.total_events;
        }
        total
    }

    /// Aggregate cluster energy under `tech`.
    pub fn energy(&self, tech: &TechParams) -> EnergyBreakdown {
        EnergyBreakdown::of(&self.total_events(), tech)
    }

    /// Per-model drop, deadline-miss and failure counts summed over
    /// every shard (model order follows the shards' shared models
    /// list).
    pub fn per_model(&self) -> Vec<ModelServeStats> {
        let Some((first, rest)) = self.shards.split_first() else {
            return Vec::new();
        };
        let mut sum = first.per_model.clone();
        for shard in rest {
            for (total, m) in sum.iter_mut().zip(&shard.per_model) {
                total.dropped += m.dropped;
                total.deadline_misses += m.deadline_misses;
                total.failed += m.failed;
            }
        }
        sum
    }

    /// The cluster-wide trace, merged from the per-shard traces by
    /// `(cycle, shard)` — exactly how scale events merge, so the
    /// pre-routed and barrier drivers produce byte-identical merged
    /// traces.
    /// `None` unless **every** shard ran with a recorder attached
    /// (see [`Cluster::with_trace`]).
    pub fn merged_trace(&self) -> Option<Trace> {
        let traces: Vec<Trace> =
            self.shards.iter().map(|s| s.trace().cloned()).collect::<Option<_>>()?;
        Trace::merge_shards(traces)
    }

    /// A multi-line human-readable cluster summary under `tech`:
    /// global rollup, then one row per shard, then the scale events.
    pub fn summary(&self, tech: &TechParams) -> String {
        let mut s = format!(
            "ClusterReport [{} | {} shards]: {} served / {} dropped\n",
            self.routing,
            self.shards.len(),
            self.served_count(),
            self.dropped_count()
        );
        s.push_str(&format!(
            "  goodput {:.1} inf/s, drop rate {:.2}%, energy {:.1} uJ\n",
            self.goodput_ips(tech),
            self.drop_rate() * 100.0,
            self.energy(tech).total_pj() * 1e-6,
        ));
        s.push_str(&format!(
            "  global latency p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms (merged samples)\n",
            ServeReport::cycles_to_ms(tech, self.p50_cycles()),
            ServeReport::cycles_to_ms(tech, self.p95_cycles()),
            ServeReport::cycles_to_ms(tech, self.p99_cycles()),
        ));
        let faults = self.fault_stats();
        if !faults.is_quiet() {
            s.push_str(&format!(
                "  faults: {} crashes, {} retries, {} hedges, {} failovers, {} failed, \
                 {} shed, availability {:.4}\n",
                faults.lane_crashes,
                faults.retries,
                faults.hedges,
                faults.failovers,
                faults.failed,
                faults.shed,
                self.availability(),
            ));
        }
        let cols = [
            Col::left("shard", 6),
            Col::left("arch", 22),
            Col::right("routed", 8),
            Col::right("served", 8),
            Col::right("dropped", 8),
            Col::right("p99 cyc", 12),
            Col::right("makespan", 12),
        ];
        let rows: Vec<Vec<String>> = self
            .shards
            .iter()
            .zip(&self.routed)
            .enumerate()
            .map(|(i, (shard, routed))| {
                vec![
                    format!("S{i}"),
                    shard.arch.clone(),
                    routed.to_string(),
                    shard.served_count().to_string(),
                    shard.dropped_count().to_string(),
                    shard.p99_cycles().to_string(),
                    shard.makespan_cycles.to_string(),
                ]
            })
            .collect();
        s.push_str(&render_table(&cols, &rows));
        if !self.scale_events.is_empty() {
            s.push_str(&format!("  {} scale events:", self.scale_events.len()));
            for e in &self.scale_events {
                s.push_str(&format!(
                    " [@{} S{} {}->{} depth {}]",
                    e.time, e.shard, e.from_lanes, e.to_lanes, e.backlog
                ));
            }
            s.push('\n');
        }
        s
    }
}

impl fmt::Display for ClusterReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cluster [{}]: {} shards, {} served, {} dropped, {} scale events, {} cycles makespan",
            self.routing,
            self.shards.len(),
            self.served_count(),
            self.dropped_count(),
            self.scale_events.len(),
            self.makespan_cycles()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn depths(d: &[usize]) -> impl Fn(usize) -> usize + '_ {
        move |s| d[s]
    }

    /// Health-unaware routing: every shard up.
    fn all_up(_: usize) -> bool {
        true
    }

    #[test]
    fn jsq_joins_global_minimum_with_lowest_index_ties() {
        let mut rng = Lcg::new(1);
        let policy = RoutingPolicy::JoinShortestQueue;
        assert_eq!(policy.route(4, &mut rng, all_up, depths(&[3, 1, 2, 1])), (1, false));
        assert_eq!(policy.route(4, &mut rng, all_up, depths(&[0, 0, 0, 0])), (0, false));
        assert_eq!(policy.route(4, &mut rng, all_up, depths(&[5, 4, 4, 9])), (1, false));
        // JSQ consumes no randomness: the RNG state is untouched.
        let mut fresh = Lcg::new(1);
        assert_eq!(rng.next_u64(), fresh.next_u64());
    }

    #[test]
    fn p2c_never_routes_to_the_deeper_probed_queue() {
        let d = [7usize, 0, 3, 12, 3, 1, 9, 2];
        let n = d.len();
        let mut rng = Lcg::new(99);
        // Mirror the policy's two probe draws with a shadow RNG so the
        // probed pair is known, then check the choice is the shallower
        // of exactly that pair (lower index on ties).
        let mut shadow = Lcg::new(99);
        for _ in 0..2_000 {
            let a = (shadow.next_u64() % n as u64) as usize;
            let b = (shadow.next_u64() % n as u64) as usize;
            let (pick, _) = RoutingPolicy::PowerOfTwo.route(n, &mut rng, all_up, depths(&d));
            assert!(pick == a || pick == b, "p2c must pick a probed shard");
            assert!(
                d[pick] <= d[a] && d[pick] <= d[b],
                "p2c routed to the deeper probe: picked {pick} of ({a},{b}) with depths {d:?}"
            );
            assert_eq!(pick, std::cmp::min((d[a], a), (d[b], b)).1, "deterministic tie-break");
        }
    }

    #[test]
    fn random_routing_is_seed_deterministic_and_covers_shards() {
        let route_all = |seed: u64| -> Vec<usize> {
            let mut rng = Lcg::new(seed);
            (0..256).map(|_| RoutingPolicy::Random.route(5, &mut rng, all_up, |_| 0).0).collect()
        };
        assert_eq!(route_all(7), route_all(7), "same seed, same routes");
        assert_ne!(route_all(7), route_all(8), "different seed, different routes");
        let picks = route_all(7);
        for s in 0..5 {
            assert!(picks.contains(&s), "shard {s} never picked in 256 draws");
        }
    }

    /// The pre-routed driver pre-draws the routing sequence, so health
    /// must never change how many LCG draws a policy takes: with
    /// failover on and one shard down, each policy stays draw-for-draw
    /// in step with routing over every shard up, never joins the down
    /// shard, and flags exactly the diverted choices.
    #[test]
    fn failover_routing_takes_the_draws_of_healthy_routing() {
        // Shard 1 is down and is also the shortest queue, so JSQ must
        // divert every time.
        let d = [4usize, 0, 3, 1, 2];
        let down = 1;
        for policy in
            [RoutingPolicy::Random, RoutingPolicy::JoinShortestQueue, RoutingPolicy::PowerOfTwo]
        {
            let (mut healthy, mut degraded) = (Lcg::new(5), Lcg::new(5));
            let mut diverted = 0;
            for _ in 0..500 {
                let (naive, flagged) = policy.route(d.len(), &mut healthy, all_up, depths(&d));
                assert!(!flagged, "{policy}: nothing to fail over from");
                let (pick, failed_over) =
                    policy.route(d.len(), &mut degraded, |s| s != down, depths(&d));
                assert_ne!(pick, down, "{policy} joined a down shard");
                if policy != RoutingPolicy::PowerOfTwo {
                    assert_eq!(failed_over, naive == down, "{policy}: flag marks the diversion");
                }
                diverted += failed_over as usize;
                assert_eq!(healthy.next_u64(), degraded.next_u64(), "{policy} drew differently");
            }
            assert!(diverted > 0, "{policy} never failed over");
        }
        // Every shard down: route as if all were up, flagging nothing.
        let mut rng = Lcg::new(5);
        let mut reference = Lcg::new(5);
        for _ in 0..100 {
            let want = RoutingPolicy::PowerOfTwo.route(5, &mut reference, all_up, depths(&d));
            assert_eq!(RoutingPolicy::PowerOfTwo.route(5, &mut rng, |_| false, depths(&d)), want);
        }
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn autoscale_rejects_inverted_thresholds() {
        AutoscalePolicy {
            eval_interval_cycles: 1_000,
            scale_up_depth: 4,
            scale_down_depth: 4,
            min_lanes: 1,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn empty_cluster_rejected() {
        Cluster::new(Vec::new());
    }
}
