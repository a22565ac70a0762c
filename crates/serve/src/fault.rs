//! Deterministic fault injection and recovery for the serving tier.
//!
//! A [`FaultSpec`] is a **pure, seeded description** of everything
//! that will go wrong during a run: lane crashes, lane slowdowns and
//! whole-shard outages, all scheduled on the simulated clock by the
//! same LCG family that drives workloads and routing. Expanding the
//! spec with [`FaultSpec::schedule`] yields a [`FaultPlan`] — merged
//! per-lane down/slow windows plus per-shard outage windows — that
//! both the cluster router (health tracking / failover) and each shard
//! engine (crash cancellation, retries, degraded mode) consume. The
//! plan is a pure function of `(spec, shard count, lane counts)`, so
//! the serial and shard-parallel cluster drivers see byte-identical
//! fault schedules and produce byte-identical reports.
//!
//! Recovery machinery configured alongside the schedule:
//!
//! * [`RetryPolicy`] — bounded attempts with exponential backoff in
//!   simulated cycles; a retry that can no longer meet its deadline is
//!   abandoned as [`crate::RequestOutcome::Failed`] instead of wasting
//!   capacity.
//! * [`HedgePolicy`] — duplicate dispatch for batches whose queueing
//!   age exceeds a multiple of the learned service estimate.
//! * [`DegradedMode`] — under sustained capacity loss, shed
//!   best-effort models at admission so strict classes keep their p99.
//!
//! Bundle them with [`FaultConfig`] and attach via
//! [`crate::Fleet::with_faults`] or [`crate::Cluster::with_faults`].

use crate::report::FaultStats;
use crate::workload::{Lcg, Request};
use std::collections::HashMap;

/// A seeded, deterministic fault schedule over one cluster run.
///
/// The spec is pure data: expanding it with [`FaultSpec::schedule`]
/// against a `(shard count, lanes per shard)` topology produces the
/// same [`FaultPlan`] every time, on every driver. Counts of zero
/// disable the corresponding fault class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// LCG seed the schedule is drawn from.
    pub seed: u64,
    /// Lane crashes to inject across the cluster.
    pub lane_crashes: usize,
    /// Lane slowdowns to inject across the cluster.
    pub lane_slowdowns: usize,
    /// Whole-shard outages to inject across the cluster.
    pub shard_outages: usize,
    /// Fault start times are drawn uniformly from `[0, horizon)`.
    pub horizon_cycles: u64,
    /// Mean lane-crash / lane-slowdown duration; each window lasts
    /// `mean/2 + draw % mean` cycles (uniform in `[mean/2, 3*mean/2)`).
    pub mean_down_cycles: u64,
    /// Mean whole-shard outage duration, drawn the same way. `0`
    /// falls back to [`FaultSpec::mean_down_cycles`]. Outages and
    /// lane faults live on very different time scales in practice —
    /// a worker process restarts in moments, a rack stays dark — and
    /// the chaos gates need both at once.
    pub mean_outage_cycles: u64,
    /// Effective-clock multiplier for slowdown windows (clamped ≥ 2).
    pub slowdown_factor: u64,
}

impl FaultSpec {
    /// A spec that injects nothing (useful as a protected-run baseline
    /// carrier for retry/hedge/degraded settings alone).
    #[cfg(test)]
    pub(crate) fn quiet(seed: u64) -> Self {
        Self {
            seed,
            lane_crashes: 0,
            lane_slowdowns: 0,
            shard_outages: 0,
            horizon_cycles: 1,
            mean_down_cycles: 1,
            mean_outage_cycles: 0,
            slowdown_factor: 2,
        }
    }

    /// Expands the spec into the concrete per-shard fault plan for a
    /// cluster of `lanes_per_shard.len()` shards. Pure: same spec +
    /// topology → byte-identical plan.
    ///
    /// # Panics
    ///
    /// Panics on an empty topology or a zero horizon.
    pub fn schedule(&self, lanes_per_shard: &[usize]) -> FaultPlan {
        assert!(!lanes_per_shard.is_empty(), "fault plan needs at least one shard");
        assert!(self.horizon_cycles > 0, "fault horizon must be positive");
        let shards = lanes_per_shard.len();
        let mean = self.mean_down_cycles.max(2);
        let outage_mean =
            if self.mean_outage_cycles == 0 { mean } else { self.mean_outage_cycles.max(2) };
        let mut rng = Lcg::new(self.seed);
        let draw_window = |rng: &mut Lcg, mean: u64| {
            let start = rng.next_u64() % self.horizon_cycles;
            let len = mean / 2 + rng.next_u64() % mean;
            (start, start.saturating_add(len.max(1)))
        };
        // Raw windows per (shard, lane): crash and slow separately.
        let mut crash: Vec<Vec<Vec<(u64, u64)>>> =
            lanes_per_shard.iter().map(|&l| vec![Vec::new(); l.max(1)]).collect();
        let mut slow: Vec<Vec<Vec<(u64, u64, u64)>>> =
            lanes_per_shard.iter().map(|&l| vec![Vec::new(); l.max(1)]).collect();
        let mut outages: Vec<Vec<(u64, u64)>> = vec![Vec::new(); shards];
        for _ in 0..self.lane_crashes {
            let (start, end) = draw_window(&mut rng, mean);
            let shard = (rng.next_u64() % shards as u64) as usize;
            let lane = (rng.next_u64() % crash[shard].len() as u64) as usize;
            crash[shard][lane].push((start, end));
        }
        for _ in 0..self.lane_slowdowns {
            let (start, end) = draw_window(&mut rng, mean);
            let shard = (rng.next_u64() % shards as u64) as usize;
            let lane = (rng.next_u64() % slow[shard].len() as u64) as usize;
            slow[shard][lane].push((start, end, self.slowdown_factor.max(2)));
        }
        for _ in 0..self.shard_outages {
            let (start, end) = draw_window(&mut rng, outage_mean);
            let shard = (rng.next_u64() % shards as u64) as usize;
            outages[shard].push((start, end));
            // An outage is a simultaneous crash of every lane.
            for lane_windows in &mut crash[shard] {
                lane_windows.push((start, end));
            }
        }
        let timelines = lanes_per_shard
            .iter()
            .zip(crash)
            .zip(slow)
            .map(|((&lanes, c), s)| FaultTimeline::build(lanes.max(1), c, s))
            .collect();
        for w in &mut outages {
            merge_windows(w);
        }
        FaultPlan { timelines, outages }
    }
}

/// Merges overlapping or touching `[start, end)` windows in place,
/// leaving a sorted, pairwise-disjoint, non-touching set.
fn merge_windows(windows: &mut Vec<(u64, u64)>) {
    windows.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(windows.len());
    for &(s, e) in windows.iter() {
        match merged.last_mut() {
            Some((_, le)) if s <= *le => *le = (*le).max(e),
            _ => merged.push((s, e)),
        }
    }
    *windows = merged;
}

/// The expanded fault schedule for a whole cluster: one
/// [`FaultTimeline`] per shard plus the merged per-shard outage
/// windows the health-aware router consults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    timelines: Vec<FaultTimeline>,
    outages: Vec<Vec<(u64, u64)>>,
}

impl FaultPlan {
    /// Number of shards the plan covers.
    pub(crate) fn shards(&self) -> usize {
        self.timelines.len()
    }

    /// The fault timeline of one shard (cloned; a timeline is owned by
    /// the shard engine that consumes it).
    pub fn shard_timeline(&self, shard: usize) -> FaultTimeline {
        self.timelines[shard].clone()
    }

    /// Whether `shard` is outside all of its outage windows at `t`.
    pub fn is_shard_up(&self, shard: usize, t: u64) -> bool {
        !inside(&self.outages[shard], t)
    }

    /// Whether **any** shard is inside an outage window at `t` — the
    /// router's cheap "all healthy" fast path.
    pub fn any_shard_down(&self, t: u64) -> bool {
        (0..self.shards()).any(|s| !self.is_shard_up(s, t))
    }
}

/// Binary search: is `t` inside any of the sorted, disjoint
/// `[start, end)` windows?
fn inside(windows: &[(u64, u64)], t: u64) -> bool {
    match windows.partition_point(|&(s, _)| s <= t) {
        0 => false,
        i => t < windows[i - 1].1,
    }
}

/// Which edge of a fault window a [`TimelineEvent`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum WindowEdge {
    /// A crash window opens: the lane dies, in-flight work cancels.
    CrashStart,
    /// A crash window closes: the lane returns, **cold** on the
    /// simulated clock (weights re-streamed; host memo tables persist).
    CrashEnd,
    /// A slowdown window opens.
    SlowStart,
    /// A slowdown window closes.
    SlowEnd,
}

/// One edge of a fault window on one lane, in engine-consumable form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TimelineEvent {
    /// Simulated cycle the edge fires at.
    pub time: u64,
    /// The lane the window belongs to.
    pub lane: usize,
    /// Which edge this is.
    pub edge: WindowEdge,
    /// Full window length in cycles (same value on both edges).
    pub duration: u64,
    /// Slowdown factor (0 for crash windows).
    pub factor: u64,
}

/// One shard's fault schedule: merged per-lane crash and slowdown
/// windows, plus the flattened edge-event stream the engine schedules
/// on its event calendar. Immutable once built; all queries are
/// allocation-free binary searches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultTimeline {
    lanes: usize,
    /// Per-lane merged crash windows, sorted and disjoint.
    down: Vec<Vec<(u64, u64)>>,
    /// Per-lane merged slowdown windows `(start, end, factor)`.
    slow: Vec<Vec<(u64, u64, u64)>>,
    /// Every window edge, sorted by `(time, lane, edge)`.
    events: Vec<TimelineEvent>,
}

impl FaultTimeline {
    /// A timeline with no faults at all, for `lanes` lanes.
    #[cfg(test)]
    fn quiet(lanes: usize) -> Self {
        Self::build(lanes.max(1), vec![Vec::new(); lanes.max(1)], vec![Vec::new(); lanes.max(1)])
    }

    /// A timeline over `lanes` lanes from raw per-lane crash windows
    /// `[start, end)` and slowdown windows `(start, end, factor)`,
    /// merged per lane.
    pub(crate) fn build(
        lanes: usize,
        mut crash: Vec<Vec<(u64, u64)>>,
        raw_slow: Vec<Vec<(u64, u64, u64)>>,
    ) -> Self {
        for w in &mut crash {
            merge_windows(w);
        }
        // Merge overlapping slowdowns, keeping the worst factor.
        let slow: Vec<Vec<(u64, u64, u64)>> = raw_slow
            .into_iter()
            .map(|mut windows| {
                windows.sort_unstable();
                let mut merged: Vec<(u64, u64, u64)> = Vec::with_capacity(windows.len());
                for (s, e, f) in windows {
                    match merged.last_mut() {
                        Some((_, le, lf)) if s <= *le => {
                            *le = (*le).max(e);
                            *lf = (*lf).max(f);
                        }
                        _ => merged.push((s, e, f)),
                    }
                }
                merged
            })
            .collect();
        let mut events = Vec::new();
        for (lane, windows) in crash.iter().enumerate() {
            for &(s, e) in windows {
                let duration = e - s;
                events.push(TimelineEvent {
                    time: s,
                    lane,
                    edge: WindowEdge::CrashStart,
                    duration,
                    factor: 0,
                });
                events.push(TimelineEvent {
                    time: e,
                    lane,
                    edge: WindowEdge::CrashEnd,
                    duration,
                    factor: 0,
                });
            }
        }
        for (lane, windows) in slow.iter().enumerate() {
            for &(s, e, f) in windows {
                let duration = e - s;
                events.push(TimelineEvent {
                    time: s,
                    lane,
                    edge: WindowEdge::SlowStart,
                    duration,
                    factor: f,
                });
                events.push(TimelineEvent {
                    time: e,
                    lane,
                    edge: WindowEdge::SlowEnd,
                    duration,
                    factor: f,
                });
            }
        }
        events.sort_by_key(|e| (e.time, e.lane, e.edge));
        Self { lanes, down: crash, slow, events }
    }

    /// Lane count the timeline was built for.
    pub(crate) fn lanes(&self) -> usize {
        self.lanes
    }

    /// The full edge-event stream, sorted by `(time, lane, edge)`.
    pub(crate) fn events(&self) -> &[TimelineEvent] {
        &self.events
    }

    /// The merged `[start, end)` crash windows of `lane` (shard
    /// outages included) — what the chaos property test replays to
    /// check that no served batch overlapped a down window.
    pub fn lane_down_windows(&self, lane: usize) -> &[(u64, u64)] {
        &self.down[lane]
    }

    /// The slowdown multiplier in effect on `lane` at `t` (1 outside
    /// every slowdown window).
    pub fn slow_factor_at(&self, lane: usize, t: u64) -> u64 {
        let windows = &self.slow[lane];
        match windows.partition_point(|&(s, _, _)| s <= t) {
            0 => 1,
            i if t < windows[i - 1].1 => windows[i - 1].2.max(1),
            _ => 1,
        }
    }
}

/// Bounded-attempt, deadline-aware retry for crash-cancelled requests.
///
/// A request whose batch is cancelled by a lane crash has consumed one
/// dispatch attempt; the policy either schedules another attempt after
/// an exponential backoff (`backoff_base << (attempts - 1)` cycles) or
/// abandons the request as [`crate::RequestOutcome::Failed`] — when
/// attempts are exhausted, or when the retry could not start before
/// the request's deadline anyway (wasted capacity helps nobody).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum total dispatch attempts per request (0 disables
    /// retries entirely: every cancelled request fails).
    pub max_attempts: u32,
    /// Backoff before retry `n` is `base << (n-1)` simulated cycles.
    pub backoff_base_cycles: u64,
    /// Per-request deadline in cycles after arrival; a retry scheduled
    /// past `arrival + deadline` is abandoned. 0 disables the check.
    pub deadline_cycles: u64,
}

impl Default for RetryPolicy {
    /// Three attempts, 1k-cycle base backoff, no deadline.
    fn default() -> Self {
        Self { max_attempts: 3, backoff_base_cycles: 1_000, deadline_cycles: 0 }
    }
}

impl RetryPolicy {
    /// Decides the fate of a request whose batch was cancelled at
    /// `now` after `attempts` consumed dispatch attempts: `Some(t)`
    /// schedules the retry at `t`, `None` abandons the request.
    pub(crate) fn next_retry(&self, now: u64, arrival: u64, attempts: u32) -> Option<u64> {
        if attempts >= self.max_attempts {
            return None;
        }
        let shift = attempts.saturating_sub(1).min(32);
        let t = now.saturating_add(self.backoff_base_cycles << shift);
        if self.deadline_cycles > 0 && t > arrival.saturating_add(self.deadline_cycles) {
            return None;
        }
        Some(t)
    }
}

/// Hedged dispatch: when a batch's queueing age exceeds
/// `age_factor ×` the learned service estimate for its model, the
/// engine dispatches it on **two** lanes and keeps the faster copy.
/// The loser's lane time is charged as wasted capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HedgePolicy {
    /// Hedge when `age > age_factor * predicted_service` (and a
    /// second active lane exists).
    pub age_factor: u64,
}

/// Graceful degradation under sustained capacity loss: while at least
/// one lane is down **and** the backlog has built past the threshold,
/// arrivals for best-effort models are shed at admission so strict
/// models keep their latency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedMode {
    /// Enter degraded mode when `backlog >= backlog_threshold` with a
    /// lane down; leave it when either condition clears.
    pub backlog_threshold: usize,
    /// Model indexes (into the run's model list) shed while degraded.
    pub best_effort: Vec<usize>,
}

/// Everything fault-related one run is configured with: the schedule
/// plus the recovery machinery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultConfig {
    /// The seeded fault schedule.
    pub spec: FaultSpec,
    /// Retry policy for crash-cancelled requests.
    pub retry: RetryPolicy,
    /// Optional hedged dispatch for aged batches.
    pub hedge: Option<HedgePolicy>,
    /// Optional degraded-mode load shedding.
    pub degraded: Option<DegradedMode>,
    /// Whether the cluster router tracks shard health and fails
    /// arrivals over to surviving shards during outages.
    pub failover: bool,
}

impl FaultConfig {
    /// A fully protected configuration over `spec`: default retries,
    /// failover on, no hedging, no degraded mode.
    pub fn protected(spec: FaultSpec) -> Self {
        Self { spec, retry: RetryPolicy::default(), hedge: None, degraded: None, failover: true }
    }

    /// An unprotected configuration over `spec`: no retries (every
    /// cancelled request fails), no failover, no hedging, no
    /// degraded mode — the chaos baseline that must visibly hurt.
    pub fn unprotected(spec: FaultSpec) -> Self {
        Self {
            spec,
            retry: RetryPolicy { max_attempts: 0, backoff_base_cycles: 1, deadline_cycles: 0 },
            hedge: None,
            degraded: None,
            failover: false,
        }
    }
}

/// Live per-engine fault state: the pending retries, per-request
/// attempt counts, the batches in flight on each lane, the number of
/// lanes down and the accumulating [`FaultStats`]. Owned by the engine,
/// which changes it only through the methods below and the plain
/// `stats` counters; every mutation happens at a simulated event,
/// keeping serial and parallel drivers byte-identical. *When* a retry
/// or a timeline edge fires is the engine's event calendar's business:
/// it keys a retry by its slab slot and an edge by its timeline index.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    config: FaultConfig,
    timeline: FaultTimeline,
    /// Crash-cancelled requests waiting out their backoff, with the
    /// dispatch attempts each has consumed, by slot. Freed slots are
    /// reused, so steady-state churn allocates nothing once the slab
    /// has grown to its high-water mark.
    retries: Vec<(Request, u32)>,
    /// Free slots of `retries`.
    free: Vec<usize>,
    /// Dispatch attempts consumed by each request a crash has cancelled
    /// at least once, by request id, until it is served or fails: the
    /// table holds the retries in flight, not the stream.
    attempts: HashMap<u64, u32>,
    /// Batch ids dispatched and not yet completed/cancelled, per lane.
    lane_active: Vec<Vec<usize>>,
    /// Lanes currently inside a crash window (a lane's crash and
    /// recovery edges alternate, so a count is the whole health table
    /// degraded mode reads).
    lanes_down: usize,
    /// When the current degraded interval opened, if degraded now.
    degraded_since: Option<u64>,
    pub(crate) stats: FaultStats,
}

impl FaultState {
    pub(crate) fn new(config: FaultConfig, timeline: FaultTimeline) -> Self {
        let lanes = timeline.lanes();
        let stats = FaultStats {
            lane_downtime_cycles: vec![0; lanes],
            lane_recovery_counts: vec![0; lanes],
            ..FaultStats::default()
        };
        Self {
            config,
            timeline,
            retries: Vec::new(),
            free: Vec::new(),
            attempts: HashMap::new(),
            lane_active: vec![Vec::new(); lanes],
            lanes_down: 0,
            degraded_since: None,
            stats,
        }
    }

    /// The timeline edge at `index` in `(time, lane, edge)` order.
    pub(crate) fn edge(&self, index: usize) -> TimelineEvent {
        self.timeline.events()[index]
    }

    /// The slowdown multiplier in effect on `lane` at `t`.
    pub(crate) fn slow_factor_at(&self, lane: usize, t: u64) -> u64 {
        self.timeline.slow_factor_at(lane, t)
    }

    /// The configured hedge policy, if hedging is on.
    pub(crate) fn hedge(&self) -> Option<HedgePolicy> {
        self.config.hedge
    }

    /// Takes the retry in `slot` as `(request, consumed attempts)`,
    /// freeing the slot.
    pub(crate) fn take_retry(&mut self, slot: usize) -> (Request, u32) {
        self.free.push(slot);
        self.retries[slot]
    }

    /// Batch `id` went in flight on `lane`.
    pub(crate) fn batch_dispatched(&mut self, lane: usize, id: usize) {
        self.lane_active[lane].push(id);
    }

    /// Batch `id` completed on `lane`, serving `requests`: it leaves the
    /// lane's in-flight list and its requests' attempt counts go.
    pub(crate) fn batch_completed(&mut self, lane: usize, id: usize, requests: &[Request]) {
        if let Some(pos) = self.lane_active[lane].iter().position(|&b| b == id) {
            self.lane_active[lane].swap_remove(pos);
        }
        if !self.attempts.is_empty() {
            for r in requests {
                self.attempts.remove(&r.id);
            }
        }
    }

    /// A crash window opens on `lane`: the lane goes down and its
    /// in-flight batch ids are handed back for cancellation.
    pub(crate) fn crash(&mut self, lane: usize) -> Vec<usize> {
        self.stats.lane_crashes += 1;
        self.lanes_down += 1;
        std::mem::take(&mut self.lane_active[lane])
    }

    /// A crash window of `duration` cycles closes on `lane`: the lane
    /// is up again and the window counts as its downtime.
    pub(crate) fn recover(&mut self, lane: usize, duration: u64) {
        self.stats.lane_recoveries += 1;
        self.stats.lane_recovery_counts[lane] += 1;
        self.stats.lane_downtime_cycles[lane] += duration;
        self.lanes_down -= 1;
    }

    /// A crash at `now` cancelled `request`, consuming one more
    /// dispatch attempt. Under the [`RetryPolicy`] it either takes a
    /// retry slot and returns `Ok((retry time, slot))`, or returns
    /// `Err` with the attempts it consumed: the caller then fails it
    /// ([`FaultState::fail`]).
    pub(crate) fn retry_or_fail(
        &mut self,
        request: Request,
        now: u64,
    ) -> Result<(u64, usize), u32> {
        let attempts = self.attempts.entry(request.id).or_insert(0);
        *attempts += 1;
        let attempts = *attempts;
        let at = self.config.retry.next_retry(now, request.arrival, attempts).ok_or(attempts)?;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.retries[slot] = (request, attempts);
                slot
            }
            None => {
                self.retries.push((request, attempts));
                self.retries.len() - 1
            }
        };
        Ok((at, slot))
    }

    /// `request` is abandoned as failed: its attempt count goes and it
    /// counts as failed.
    pub(crate) fn fail(&mut self, request: &Request) {
        self.attempts.remove(&request.id);
        self.stats.failed += 1;
    }

    /// Whether a best-effort `model` should be shed at admission right
    /// now (degraded mode active and the model listed).
    pub(crate) fn sheds(&self, model: usize) -> bool {
        self.degraded_since.is_some()
            && self.config.degraded.as_ref().is_some_and(|d| d.best_effort.contains(&model))
    }

    /// Re-evaluates degraded mode against the current backlog at
    /// `now`, accumulating degraded cycles on transitions. Call at the
    /// top of every simulated-event handler.
    pub(crate) fn update_degraded(&mut self, now: u64, backlog: usize) {
        let Some(degraded) = &self.config.degraded else {
            return;
        };
        let active = self.lanes_down > 0 && backlog >= degraded.backlog_threshold;
        match (self.degraded_since, active) {
            (None, true) => self.degraded_since = Some(now),
            (Some(since), false) => {
                self.stats.degraded_cycles += now.saturating_sub(since);
                self.degraded_since = None;
            }
            _ => {}
        }
    }

    /// Closes any open degraded interval at `end` and returns the
    /// finished stats (called once, at report assembly).
    pub(crate) fn finish(mut self, end: u64) -> FaultStats {
        if let Some(since) = self.degraded_since.take() {
            self.stats.degraded_cycles += end.saturating_sub(since);
        }
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A taken retry as `(request id, consumed attempts)`.
    fn id_attempts((request, attempts): (Request, u32)) -> (u64, u32) {
        (request.id, attempts)
    }

    fn spec(seed: u64) -> FaultSpec {
        FaultSpec {
            seed,
            lane_crashes: 6,
            lane_slowdowns: 4,
            shard_outages: 2,
            horizon_cycles: 1_000_000,
            mean_down_cycles: 50_000,
            mean_outage_cycles: 0,
            slowdown_factor: 3,
        }
    }

    #[test]
    fn schedule_is_pure_and_seed_sensitive() {
        let topo = [2usize, 3];
        let a = spec(7).schedule(&topo);
        let b = spec(7).schedule(&topo);
        assert_eq!(a, b, "same seed + topology must reproduce the plan");
        let c = spec(8).schedule(&topo);
        assert_ne!(a, c, "a different seed must move the schedule");
    }

    #[test]
    fn windows_merge_disjoint_and_sorted() {
        let mut w = vec![(50, 60), (10, 20), (15, 30), (30, 40), (90, 95)];
        merge_windows(&mut w);
        assert_eq!(w, vec![(10, 40), (50, 60), (90, 95)]);
    }

    #[test]
    fn timeline_edges_alternate_per_lane() {
        let plan = spec(3).schedule(&[2, 2, 2]);
        for shard in 0..plan.shards() {
            let tl = plan.shard_timeline(shard);
            for lane in 0..tl.lanes() {
                let mut down = false;
                for e in tl.events().iter().filter(|e| e.lane == lane && e.factor == 0) {
                    match e.edge {
                        WindowEdge::CrashStart => {
                            assert!(!down, "CrashStart on an already-down lane");
                            down = true;
                        }
                        WindowEdge::CrashEnd => {
                            assert!(down, "CrashEnd on an up lane");
                            down = false;
                        }
                        _ => {}
                    }
                }
                assert!(!down, "every crash window must close");
            }
        }
    }

    /// The `[start, end)` windows `lane`'s crash edges open and close,
    /// in time order, checking that each edge pair carries its window's
    /// length.
    fn crash_edge_windows(tl: &FaultTimeline, lane: usize) -> Vec<(u64, u64)> {
        let edges: Vec<&TimelineEvent> = tl
            .events()
            .iter()
            .filter(|e| {
                e.lane == lane && matches!(e.edge, WindowEdge::CrashStart | WindowEdge::CrashEnd)
            })
            .collect();
        edges
            .chunks(2)
            .map(|pair| {
                let [open, close] = pair else { panic!("a crash window opens without closing") };
                assert_eq!((open.edge, close.edge), (WindowEdge::CrashStart, WindowEdge::CrashEnd));
                assert_eq!(open.duration, close.time - open.time);
                assert_eq!(close.duration, open.duration);
                (open.time, close.time)
            })
            .collect()
    }

    /// The edge stream the engine schedules opens and closes exactly the
    /// merged crash windows the chaos property test replays.
    #[test]
    fn crash_edges_match_down_windows() {
        let plan = spec(11).schedule(&[3]);
        let tl = plan.shard_timeline(0);
        assert!((0..tl.lanes()).any(|lane| !tl.lane_down_windows(lane).is_empty()));
        for lane in 0..tl.lanes() {
            assert_eq!(crash_edge_windows(&tl, lane), tl.lane_down_windows(lane), "lane {lane}");
        }
    }

    #[test]
    fn outage_downs_every_lane_of_the_shard() {
        let mut s = spec(5);
        s.lane_crashes = 0;
        s.lane_slowdowns = 0;
        s.shard_outages = 1;
        let plan = s.schedule(&[2, 2]);
        let hit: Vec<usize> = (0..2).filter(|&sh| !plan.outages[sh].is_empty()).collect();
        assert_eq!(hit.len(), 1, "exactly one shard drew the outage");
        let shard = hit[0];
        let (start, end) = plan.outages[shard][0];
        let tl = plan.shard_timeline(shard);
        for lane in 0..tl.lanes() {
            assert_eq!(crash_edge_windows(&tl, lane), [(start, end)], "lane {lane}");
            assert_eq!(tl.lane_down_windows(lane), [(start, end)], "lane {lane}");
        }
        assert!(!plan.is_shard_up(shard, start));
        assert!(plan.is_shard_up(shard, end));
        assert!(plan.any_shard_down(start));
    }

    /// Outages draw their duration from `mean_outage_cycles` when it
    /// is set, without disturbing the lane-fault draws: same seed,
    /// same start times, same crash/slowdown windows — only the
    /// outage window lengths stretch.
    #[test]
    fn outage_mean_decouples_from_lane_fault_mean() {
        let mut short = spec(5);
        short.shard_outages = 2;
        let mut long = short.clone();
        long.mean_outage_cycles = short.mean_down_cycles * 40;
        let a = short.schedule(&[2, 2]);
        let b = long.schedule(&[2, 2]);
        for shard in 0..2 {
            let (wa, wb) = (&a.outages[shard], &b.outages[shard]);
            assert_eq!(wa.len(), wb.len(), "outage placement must not move");
            for (&(sa, ea), &(sb, eb)) in wa.iter().zip(wb) {
                assert_eq!(sa, sb, "outage start times share the draw sequence");
                assert!(eb - sb > ea - sa, "long outage mean must stretch the window");
            }
        }
        // `0` keeps today's behaviour: fall back to the lane mean.
        let mut explicit = short.clone();
        explicit.mean_outage_cycles = short.mean_down_cycles;
        assert_eq!(short.schedule(&[2, 2]), explicit.schedule(&[2, 2]));
    }

    #[test]
    fn slow_factor_applies_inside_windows_only() {
        let tl = FaultTimeline::build(
            2,
            vec![Vec::new(), Vec::new()],
            vec![vec![(100, 200, 3), (150, 300, 4)], Vec::new()],
        );
        assert_eq!(tl.slow_factor_at(0, 99), 1);
        assert_eq!(tl.slow_factor_at(0, 100), 4, "overlap keeps the worst factor");
        assert_eq!(tl.slow_factor_at(0, 299), 4);
        assert_eq!(tl.slow_factor_at(0, 300), 1);
        assert_eq!(tl.slow_factor_at(1, 150), 1);
    }

    #[test]
    fn retry_policy_backoff_and_deadline() {
        let p = RetryPolicy { max_attempts: 3, backoff_base_cycles: 100, deadline_cycles: 0 };
        assert_eq!(p.next_retry(1_000, 0, 1), Some(1_100));
        assert_eq!(p.next_retry(1_000, 0, 2), Some(1_200));
        assert_eq!(p.next_retry(1_000, 0, 3), None, "attempt budget exhausted");
        let d = RetryPolicy { max_attempts: 5, backoff_base_cycles: 100, deadline_cycles: 500 };
        assert_eq!(d.next_retry(300, 0, 1), Some(400));
        assert_eq!(d.next_retry(450, 0, 1), None, "retry would land past the deadline");
        let off = RetryPolicy { max_attempts: 0, backoff_base_cycles: 1, deadline_cycles: 0 };
        assert_eq!(off.next_retry(0, 0, 1), None, "max_attempts 0 disables retries");
    }

    /// The engine's fault bookkeeping, one method at a time: a crash
    /// downs its lane and hands back exactly that lane's batches in
    /// flight, retry-or-fail counts attempts until the retry policy
    /// refuses, and a recovery ups the lane and books its downtime.
    #[test]
    fn fault_state_books_crashes_retries_and_recoveries() {
        let config = FaultConfig {
            retry: RetryPolicy { max_attempts: 2, backoff_base_cycles: 100, deadline_cycles: 0 },
            degraded: Some(DegradedMode { backlog_threshold: 0, best_effort: vec![1] }),
            ..FaultConfig::protected(FaultSpec::quiet(1))
        };
        let mut f = FaultState::new(config, FaultTimeline::quiet(2));
        let r = |id| Request { id, model: 0, arrival: 0, act_seed: 0 };
        for (lane, batch) in [(0, 7), (1, 8), (0, 9)] {
            f.batch_dispatched(lane, batch);
        }
        f.batch_completed(0, 7, &[r(1)]);
        assert_eq!(f.crash(0), vec![9], "a crash takes its own lane's batches in flight");
        assert_eq!(f.lane_active, vec![vec![], vec![8]]);
        assert_eq!((f.stats.lane_crashes, f.lanes_down), (1, 1));
        f.update_degraded(100, 0);
        assert!(f.sheds(1) && !f.sheds(0), "a lane down opens degraded mode");

        assert_eq!(f.retry_or_fail(r(3), 100), Ok((200, 0)), "the first attempt retries");
        assert_eq!(id_attempts(f.take_retry(0)), (3, 1));
        assert_eq!(f.retry_or_fail(r(3), 300), Err(2), "two attempts exhaust the policy");
        f.fail(&r(3));
        assert!(f.attempts.is_empty(), "a failed request's count goes");
        assert_eq!(f.stats.failed, 1);
        assert_eq!(f.retry_or_fail(r(4), 300), Ok((400, 0)), "the freed slot is reused");
        f.batch_completed(1, 8, &[r(4)]);
        assert!(f.attempts.is_empty(), "a served request's count goes");
        assert_eq!(f.lane_active, vec![Vec::<usize>::new(); 2]);

        f.recover(0, 500);
        assert_eq!(f.lanes_down, 0);
        assert_eq!(f.stats.lane_recoveries, 1);
        assert_eq!(f.stats.lane_recovery_counts, vec![1, 0]);
        assert_eq!(f.stats.lane_downtime_cycles, vec![500, 0]);
        f.update_degraded(600, 0);
        assert!(!f.sheds(1), "recovery closes degraded mode");
        assert_eq!(f.finish(700).degraded_cycles, 500);
    }

    /// The retry slab: a freed slot is the next one taken, so the slab
    /// grows only to the most retries pending at once, and once two
    /// rounds of schedule-then-take churn have grown the slab and its
    /// free list, four more rounds change neither's capacity.
    #[test]
    fn fault_state_reuses_retry_slots() {
        let config = FaultConfig {
            retry: RetryPolicy { max_attempts: 8, backoff_base_cycles: 100, deadline_cycles: 0 },
            ..FaultConfig::protected(FaultSpec::quiet(1))
        };
        let mut f = FaultState::new(config, FaultTimeline::quiet(1));
        let r = |id| Request { id, model: 0, arrival: id * 10, act_seed: id };
        let slot = |f: &mut FaultState, id, now| f.retry_or_fail(r(id), now).expect("retries").1;
        assert_eq!([slot(&mut f, 1, 0), slot(&mut f, 2, 0), slot(&mut f, 3, 0)], [0, 1, 2]);
        assert_eq!(id_attempts(f.take_retry(1)), (2, 1));
        assert_eq!(slot(&mut f, 4, 0), 1, "the freed slot is taken first");
        assert_eq!(f.retries.len(), 3, "no slab growth while a slot is free");
        for taken in [0, 1, 2] {
            f.take_retry(taken);
        }

        let round = |f: &mut FaultState, now| {
            let slots: [usize; 32] = std::array::from_fn(|i| slot(f, 100 + i as u64, now));
            for s in slots {
                f.take_retry(s);
            }
        };
        for now in 0..2 {
            round(&mut f, now);
        }
        let capacities = |f: &FaultState| (f.retries.capacity(), f.free.capacity());
        let warm = capacities(&f);
        for now in 2..6 {
            round(&mut f, now);
            assert_eq!(capacities(&f), warm, "round {now} grew the retry slab");
        }
        assert_eq!(f.retries.len(), 32);
    }
}
