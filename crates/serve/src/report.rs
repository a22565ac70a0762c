//! The serving report: per-request outcomes and fleet-level metrics.

use crate::trace::{Trace, TraceCell};
use s2ta_core::ArchKind;
use s2ta_energy::{EnergyBreakdown, TechParams};
use s2ta_sim::EventCounts;
use std::fmt;

/// One column of a [`render_table`] report table: header label, pad
/// width, and alignment (mirroring `format!`'s `{:<w}` / `{:>w}`).
pub(crate) struct Col {
    header: &'static str,
    width: usize,
    right: bool,
}

impl Col {
    /// A left-aligned column (`{:<width}`).
    pub(crate) const fn left(header: &'static str, width: usize) -> Self {
        Self { header, width, right: false }
    }

    /// A right-aligned column (`{:>width}`).
    pub(crate) const fn right(header: &'static str, width: usize) -> Self {
        Self { header, width, right: true }
    }
}

/// Renders the header plus every row as a two-space-indented,
/// space-separated fixed-width table — the one formatter behind
/// [`ServeReport::lane_breakdown`], [`ServeReport::pipeline_breakdown`]
/// and the cluster shard table. Numeric cells arrive pre-formatted
/// (precision is the caller's), so a column's padding is exactly
/// `format!`'s: content wider than the column overflows, never
/// truncates.
pub(crate) fn render_table(cols: &[Col], rows: &[Vec<String>]) -> String {
    let mut s = String::new();
    let header: Vec<String> = cols.iter().map(|c| c.header.to_string()).collect();
    push_table_row(&mut s, cols, &header);
    for row in rows {
        push_table_row(&mut s, cols, row);
    }
    s
}

fn push_table_row(s: &mut String, cols: &[Col], cells: &[String]) {
    debug_assert_eq!(cols.len(), cells.len(), "row arity must match the column set");
    s.push_str("  ");
    for (i, (col, cell)) in cols.iter().zip(cells).enumerate() {
        if i > 0 {
            s.push(' ');
        }
        let pad = col.width.saturating_sub(cell.len());
        if col.right {
            s.extend(std::iter::repeat_n(' ', pad));
            s.push_str(cell);
        } else {
            s.push_str(cell);
            s.extend(std::iter::repeat_n(' ', pad));
        }
    }
    s.push('\n');
}

/// The fate of one request: it was admitted, batched and executed
/// ([`RequestOutcome::Served`]); admission control refused it because
/// its model lane was at capacity or degraded-mode shedding turned it
/// away ([`RequestOutcome::Dropped`]); or fault handling abandoned it
/// after its batch was lost to a lane crash and the retry policy ran
/// out of road ([`RequestOutcome::Failed`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestOutcome {
    /// The request was admitted and executed.
    Served(ServedRequest),
    /// The request was tail-dropped at admission; it never queued and
    /// consumed no accelerator time.
    Dropped(DroppedRequest),
    /// The request was admitted but lost to a lane crash, and the
    /// [`crate::RetryPolicy`] gave up on it — either the attempt
    /// budget ran out or the next retry could no longer meet its
    /// deadline.
    Failed(FailedRequest),
}

/// A request that was admitted, batched, and executed.
///
/// The outcome log is most of what a run's host memory grows by per
/// request, so a record owns no heap memory: the model name borrows
/// the `'static` [`s2ta_models::ModelSpec::name`], and the whole
/// [`RequestOutcome`] is 72 bytes on a 64-bit host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServedRequest {
    /// Request id (dense, in arrival order).
    pub id: u64,
    /// Name of the model served.
    pub model: &'static str,
    /// Arrival cycle.
    pub arrival: u64,
    /// Cycle the request's batch started executing.
    pub start: u64,
    /// Cycle the request's batch completed.
    pub completion: u64,
    /// Batch the request rode in.
    pub batch: usize,
    /// Worker lane that served the batch.
    pub worker: usize,
}

/// A request refused at admission (its model lane was full).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DroppedRequest {
    /// Request id (dense, in arrival order).
    pub id: u64,
    /// Name of the model requested.
    pub model: &'static str,
    /// Arrival cycle (which is also the drop cycle: tail drop refuses
    /// the request immediately).
    pub arrival: u64,
}

/// A request abandoned by fault handling: its batch was cancelled by a
/// lane crash and the retry policy could not place it again in time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedRequest {
    /// Request id (dense, in arrival order).
    pub id: u64,
    /// Name of the model requested.
    pub model: &'static str,
    /// Arrival cycle.
    pub arrival: u64,
    /// Dispatch attempts the request consumed before giving up (its
    /// initial dispatch plus every retry that reached a lane).
    pub attempts: u32,
}

impl ServedRequest {
    /// End-to-end latency in cycles (queueing + batching + service).
    pub fn latency_cycles(&self) -> u64 {
        self.completion - self.arrival
    }
}

impl RequestOutcome {
    /// The request id.
    pub fn id(&self) -> u64 {
        match self {
            Self::Served(s) => s.id,
            Self::Dropped(d) => d.id,
            Self::Failed(f) => f.id,
        }
    }

    /// The requested model's name.
    pub fn model(&self) -> &str {
        match self {
            Self::Served(s) => s.model,
            Self::Dropped(d) => d.model,
            Self::Failed(f) => f.model,
        }
    }

    /// `true` if the request was served.
    pub fn is_served(&self) -> bool {
        matches!(self, Self::Served(_))
    }

    /// The served record, if the request was neither dropped nor
    /// failed.
    pub fn served(&self) -> Option<&ServedRequest> {
        match self {
            Self::Served(s) => Some(s),
            Self::Dropped(_) | Self::Failed(_) => None,
        }
    }

    /// End-to-end latency, `None` for dropped requests.
    pub(crate) fn latency_cycles(&self) -> Option<u64> {
        self.served().map(ServedRequest::latency_cycles)
    }
}

/// The 1-based nearest-rank of the `pct`-th percentile in a population
/// of `count` samples: `ceil(pct/100 * count)`, clamped into
/// `[1, count]`. The **single** clamp implementation behind every
/// percentile view — the histogram walk, the sorted-slice helper, and
/// through them all report-level percentiles.
///
/// # Panics
///
/// Panics unless `0.0 < pct <= 100.0`.
pub(crate) fn nearest_rank_position(count: u64, pct: f64) -> u64 {
    assert!(pct > 0.0 && pct <= 100.0, "percentile out of range: {pct}");
    let rank = (pct / 100.0 * count as f64).ceil() as u64;
    rank.clamp(1, count)
}

/// Nearest-rank percentile over an already-sorted latency slice (see
/// [`nearest_rank_position`]). Shared by the SLO-aware policy's
/// observation window; report-level percentiles go through
/// [`LatencyHistogram`] instead.
///
/// # Panics
///
/// Panics if the slice is empty or `pct` is out of `(0, 100]`.
pub(crate) fn nearest_rank(sorted_latencies: &[u64], pct: f64) -> u64 {
    sorted_latencies[nearest_rank_position(sorted_latencies.len() as u64, pct) as usize - 1]
}

/// An exact histogram of served latencies, kept as the sorted sample
/// vector: 8 bytes per served request. Latencies in cycles are nearly
/// all distinct, so `(latency, count)` bins would cost 16 bytes per
/// request instead.
///
/// This is the report tier's percentile engine. It is *exact* — a
/// percentile query reads the same nearest-rank position
/// `nearest_rank` would find, so every answer is an actually-observed
/// latency — and it is *mergeable*: [`crate::ClusterReport`] takes
/// global percentiles over its shards' histograms by binary search,
/// without merging or re-sorting the million-sample population.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct LatencyHistogram {
    /// Every sample, ascending.
    sorted: Vec<u64>,
}

impl LatencyHistogram {
    /// Builds the histogram of `samples` (one sort of the sample set —
    /// the last sort percentile queries ever need).
    pub(crate) fn collect(samples: impl IntoIterator<Item = u64>) -> Self {
        let mut sorted: Vec<u64> = samples.into_iter().collect();
        sorted.shrink_to_fit();
        sorted.sort_unstable();
        Self { sorted }
    }

    /// Total number of samples.
    pub(crate) fn total(&self) -> u64 {
        self.sorted.len() as u64
    }

    /// The `pct`-th percentile sample (nearest-rank, an observed
    /// value); 0 when the histogram is empty.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < pct <= 100.0`.
    pub(crate) fn percentile(&self, pct: f64) -> u64 {
        let target = nearest_rank_position(self.total().max(1), pct);
        self.sorted.get(target as usize - 1).copied().unwrap_or(0)
    }

    /// What [`LatencyHistogram::percentile`] returns on the merge of
    /// `hists`, found without building the merge: the answer is the
    /// smallest sample that at least the target rank of samples over
    /// all `hists` do not exceed. Within one histogram that count grows
    /// with the sample, so a binary search finds its smallest such
    /// sample, and the least of those over the histograms is the answer.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < pct <= 100.0`.
    pub(crate) fn percentile_of_union(hists: &[&LatencyHistogram], pct: f64) -> u64 {
        let total: u64 = hists.iter().map(|h| h.total()).sum();
        let target = nearest_rank_position(total.max(1), pct);
        let rank = |v: u64| -> u64 {
            hists.iter().map(|h| h.sorted.partition_point(|&x| x <= v) as u64).sum()
        };
        hists
            .iter()
            .filter_map(|h| h.sorted.get(h.sorted.partition_point(|&v| rank(v) < target)))
            .min()
            .copied()
            .unwrap_or(0)
    }
}

/// Per-lane occupancy statistics: which architecture the lane runs,
/// how busy it was, and the simulated events (hence energy) its
/// batches produced. In a heterogeneous fleet each lane may run a
/// different [`ArchKind`], so the per-lane split is where utilization
/// and energy skew between architectures becomes visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStats {
    /// Architecture this lane simulates.
    pub arch: ArchKind,
    /// Cycles the lane spent executing batches.
    pub busy_cycles: u64,
    /// Batch executions on this lane. Under monolithic placement a
    /// batch runs on exactly one lane, so these sum to the fleet's
    /// batch count; under [`crate::PlacementStrategy::Pipelined`] a
    /// batch executes one **stage** per lane, so every stage lane
    /// counts it and the per-lane sum exceeds the fleet total.
    pub batches: usize,
    /// Requests that executed (a stage) on this lane — same counting
    /// rule as [`WorkerStats::batches`].
    pub requests: usize,
    /// Simulated events of the batches this lane executed.
    pub events: EventCounts,
}

impl WorkerStats {
    /// A fresh (all-zero) record for a lane of `arch`.
    pub(crate) fn new(arch: ArchKind) -> Self {
        Self { arch, busy_cycles: 0, batches: 0, requests: 0, events: EventCounts::default() }
    }

    /// Busy fraction of the fleet makespan.
    pub(crate) fn utilization(&self, makespan_cycles: u64) -> f64 {
        if makespan_cycles == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / makespan_cycles as f64
        }
    }

    /// Cycles the lane sat idle over the fleet makespan.
    pub(crate) fn idle_cycles(&self, makespan_cycles: u64) -> u64 {
        makespan_cycles.saturating_sub(self.busy_cycles)
    }

    /// Energy this lane's batches consumed under `tech`.
    pub(crate) fn energy(&self, tech: &TechParams) -> EnergyBreakdown {
        EnergyBreakdown::of(&self.events, tech)
    }
}

/// Occupancy of one pipeline stage over a serving run: which layers it
/// owned, which lane (and architecture) it was pinned to, and where its
/// time went — busy executing, idle between executions (**bubbles**),
/// or waiting on inter-stage activation **handoffs**.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineStageStats {
    /// Name of the pipelined model.
    pub model: String,
    /// Stage index within the model's pipeline (execution order).
    pub stage: usize,
    /// The contiguous layer range the stage executes (`[start, end)`).
    pub layers: (usize, usize),
    /// The fleet lane the stage is pinned to.
    pub lane: usize,
    /// Architecture of the pinned lane.
    pub arch: ArchKind,
    /// Batches the stage executed.
    pub batches: usize,
    /// Requests that flowed through the stage.
    pub requests: usize,
    /// Cycles the stage spent executing.
    pub busy_cycles: u64,
    /// Idle cycles between the stage's consecutive executions — the
    /// pipeline bubbles upstream stalls or thin traffic left.
    pub bubble_cycles: u64,
    /// Total activation-handoff latency paid entering this stage
    /// (zero for every stage 0).
    pub handoff_cycles: u64,
}

impl PipelineStageStats {
    /// Busy fraction of the stage's own active span (first dispatch to
    /// last completion); 0 before the stage ever ran.
    pub(crate) fn occupancy(&self) -> f64 {
        let span = self.busy_cycles + self.bubble_cycles;
        if span == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / span as f64
        }
    }
}

/// One model's admission and deadline accounting for a serving run —
/// the per-model granularity the global [`ServeReport::dropped_count`]
/// flattens away.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelServeStats {
    /// The model's name.
    pub model: String,
    /// Requests of this model tail-dropped at admission (including
    /// degraded-mode shedding).
    pub dropped: u64,
    /// Requests of this model dispatched in **timeout-sealed** batches
    /// — each waited out the policy's full `max_wait` instead of its
    /// batch filling, the deadline-miss unit an SLO audit counts.
    pub deadline_misses: u64,
    /// Requests of this model abandoned by fault handling (see
    /// [`RequestOutcome::Failed`]).
    pub failed: u64,
}

/// Fault-injection and recovery accounting for one serving run.
///
/// Unlike the host-side memo cells, every field here is a **simulated
/// outcome**: the fault schedule, retries, hedges and degraded-mode
/// decisions all run on the simulated clock, so the struct sits
/// **inside report equality** — serial and shard-parallel cluster
/// drivers must agree on it byte-for-byte. A fault-free run carries
/// the all-zero default (with empty per-lane vectors).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Lane-crash windows that began during the run.
    pub lane_crashes: u64,
    /// Lane-crash windows that ended (the lane came back, cold)
    /// before the run finished.
    pub lane_recoveries: u64,
    /// Lane-slowdown windows that began during the run.
    pub slowdowns: u64,
    /// Requests re-queued for another dispatch attempt after their
    /// batch was cancelled by a lane crash.
    pub retries: u64,
    /// Batches dispatched twice under the hedging policy (the faster
    /// copy wins; the loser's lane time is wasted capacity).
    pub hedges: u64,
    /// Requests the router re-routed away from an out shard.
    pub failovers: u64,
    /// Requests abandoned as [`RequestOutcome::Failed`].
    pub failed: u64,
    /// Requests shed at admission by degraded mode (counted inside
    /// the regular dropped totals as well).
    pub shed: u64,
    /// Simulated cycles the engine spent in degraded mode.
    pub degraded_cycles: u64,
    /// Per-lane cycles spent down (crash windows observed by the
    /// engine), indexed by lane; empty when faults are disabled.
    pub lane_downtime_cycles: Vec<u64>,
    /// Per-lane completed recovery count, indexed by lane; empty when
    /// faults are disabled.
    pub lane_recovery_counts: Vec<u64>,
}

impl FaultStats {
    /// `true` when the run saw no fault activity at all (the
    /// fault-free default).
    pub(crate) fn is_quiet(&self) -> bool {
        *self == Self::default()
    }

    /// Folds `other` into `self` (lane vectors concatenate: cluster
    /// aggregation keeps shard lanes distinct, in shard order).
    pub(crate) fn merge(&mut self, other: &Self) {
        self.lane_crashes += other.lane_crashes;
        self.lane_recoveries += other.lane_recoveries;
        self.slowdowns += other.slowdowns;
        self.retries += other.retries;
        self.hedges += other.hedges;
        self.failovers += other.failovers;
        self.failed += other.failed;
        self.shed += other.shed;
        self.degraded_cycles += other.degraded_cycles;
        self.lane_downtime_cycles.extend_from_slice(&other.lane_downtime_cycles);
        self.lane_recovery_counts.extend_from_slice(&other.lane_recovery_counts);
    }
}

/// Everything a serving run produced.
///
/// The per-request outcomes and the placement-derived numbers (latency
/// percentiles, makespan, utilization) are deterministic for a fixed
/// `(workload seed, policy, worker count)` — this holds for the
/// open-loop, closed-loop and adaptive-policy client modes alike. For
/// the **open-loop fixed-policy** path, the aggregate simulation
/// outputs — request count, batch set, drop set and
/// [`ServeReport::total_events`] (hence energy) — are additionally
/// **independent of the worker count**, because batch formation and
/// admission never look at the fleet. Closed-loop and adaptive runs
/// give up that independence by design: arrivals (closed loop) and
/// batch bounds (adaptive) both react to completions, which depend on
/// how many lanes are serving.
///
/// Latency statistics ([`ServeReport::p50_cycles`] and its siblings,
/// the mean latency) are computed over **served**
/// requests only; dropped requests are reported through
/// [`ServeReport::dropped_count`] / [`ServeReport::drop_rate`] and
/// excluded from percentiles (a drop has no latency). Throughput of
/// successfully served requests is [`ServeReport::goodput_ips`];
/// [`ServeReport::throughput_ips`] is its alias kept for the open-loop
/// no-drop setting where the two coincide.
///
/// Equality covers every field except the trace ([`ServeReport::trace`]).
/// The report carries no host-side cache counters: a caller that wants
/// a run's cache activity diffs the fleet caches'
/// [`stats`](s2ta_core::MemoCache::stats) around the call.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Architecture the fleet ran.
    pub arch: String,
    /// Batching policy that formed the batches (see
    /// [`crate::BatchPolicy::name`]).
    pub policy: String,
    /// Outcomes indexed by request id (dense: served and dropped
    /// together cover every issued request).
    pub outcomes: Vec<RequestOutcome>,
    /// Number of batches formed.
    pub batches: usize,
    /// Per-worker occupancy.
    pub workers: Vec<WorkerStats>,
    /// Aggregate simulated events over every batch.
    pub total_events: EventCounts,
    /// Cycle the last batch completed (0 for an empty or drop-only
    /// run).
    pub makespan_cycles: u64,
    /// Per-stage occupancy breakdown of pipelined execution (empty for
    /// the monolithic placement modes).
    pub pipeline_stages: Vec<PipelineStageStats>,
    /// Per-model admission/deadline accounting, in `models`-list
    /// order. Part of report equality: every cluster driver must agree
    /// on it byte-for-byte.
    pub per_model: Vec<ModelServeStats>,
    /// Fault-injection and recovery accounting (all-zero for
    /// fault-free runs; **inside** report equality — see
    /// [`FaultStats`]).
    pub fault: FaultStats,
    /// The served-latency histogram, built once at report assembly.
    pub(crate) latency_hist: LatencyHistogram,
    /// The run's observability trace, when a recorder was attached
    /// (excluded from equality, empty on clones — see
    /// [`TraceCell`]).
    pub(crate) trace: TraceCell,
}

impl ServeReport {
    /// Served outcomes, in id order.
    pub fn served_outcomes(&self) -> impl Iterator<Item = &ServedRequest> {
        self.outcomes.iter().filter_map(RequestOutcome::served)
    }

    /// Requests that were admitted and executed.
    pub fn served_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_served()).count()
    }

    /// Requests refused at admission (capacity tail drops plus
    /// degraded-mode shedding).
    pub fn dropped_count(&self) -> usize {
        self.outcomes.iter().filter(|o| matches!(o, RequestOutcome::Dropped(_))).count()
    }

    /// Requests abandoned by fault handling (see
    /// [`RequestOutcome::Failed`]).
    pub(crate) fn failed_count(&self) -> usize {
        self.outcomes.iter().filter(|o| matches!(o, RequestOutcome::Failed(_))).count()
    }

    /// Fraction of issued requests that were **not** lost to faults:
    /// `1 - failed/issued` (1.0 for an empty or fault-free run).
    /// Admission drops are a load-shedding decision, not
    /// unavailability, so they do not lower this number.
    pub(crate) fn availability(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 1.0;
        }
        1.0 - self.failed_count() as f64 / self.outcomes.len() as f64
    }

    /// The run's observability trace, when the fleet had a recorder
    /// attached (see [`crate::Fleet::with_trace`]); `None` for
    /// untraced runs and on clones.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.get()
    }

    /// Total requests dispatched in timeout-sealed batches, summed
    /// over [`ServeReport::per_model`].
    pub fn deadline_miss_count(&self) -> u64 {
        self.per_model.iter().map(|m| m.deadline_misses).sum()
    }

    /// Dropped fraction of all issued requests (0 for an empty run).
    pub fn drop_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.dropped_count() as f64 / self.outcomes.len() as f64
    }

    /// Latency of the `pct`-th percentile **served** request in cycles
    /// (nearest-rank on the sorted latencies). Returns 0 when no
    /// request was served (empty or drop-only runs).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < pct <= 100.0`.
    pub(crate) fn latency_percentile_cycles(&self, pct: f64) -> u64 {
        self.latency_histogram().percentile(pct)
    }

    /// The served-latency histogram, built once when the report is
    /// assembled and shared by every percentile query (p50/p95/p99 on
    /// a million-request report used to re-sort the samples three
    /// times). Cluster shards merge through exactly this view.
    pub(crate) fn latency_histogram(&self) -> &LatencyHistogram {
        &self.latency_hist
    }

    /// Latency of the `pct`-th percentile **served** request of the
    /// named model (nearest-rank). Returns 0 when no request of that
    /// model was served. Per-model [`crate::SloClass`] targets are
    /// checked against exactly this number.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < pct <= 100.0`.
    pub fn latency_percentile_for_model(&self, model: &str, pct: f64) -> u64 {
        self.percentile_where(pct, |o| o.model == model)
    }

    /// Nearest-rank percentile over the served requests `keep` admits
    /// (0 when none match): a fresh filtered histogram per call —
    /// per-model views are queried rarely and over small subsets, so
    /// only the all-request histogram is kept on the report.
    fn percentile_where(&self, pct: f64, keep: impl Fn(&ServedRequest) -> bool) -> u64 {
        LatencyHistogram::collect(
            self.served_outcomes().filter(|o| keep(o)).map(ServedRequest::latency_cycles),
        )
        .percentile(pct)
    }

    /// Median latency in cycles.
    pub fn p50_cycles(&self) -> u64 {
        self.latency_percentile_cycles(50.0)
    }

    /// 95th-percentile latency in cycles.
    pub fn p95_cycles(&self) -> u64 {
        self.latency_percentile_cycles(95.0)
    }

    /// 99th-percentile latency in cycles.
    pub fn p99_cycles(&self) -> u64 {
        self.latency_percentile_cycles(99.0)
    }

    /// Mean served latency in cycles (0 when nothing was served).
    pub(crate) fn mean_latency_cycles(&self) -> f64 {
        let served = self.served_count();
        if served == 0 {
            return 0.0;
        }
        let total: u64 = self.served_outcomes().map(ServedRequest::latency_cycles).sum();
        total as f64 / served as f64
    }

    /// Converts cycles to milliseconds at `tech`'s clock.
    pub fn cycles_to_ms(tech: &TechParams, cycles: u64) -> f64 {
        cycles as f64 / tech.clock_hz * 1e3
    }

    /// Successfully served inferences per second at `tech`'s clock —
    /// the goodput. Dropped requests do not count.
    pub fn goodput_ips(&self, tech: &TechParams) -> f64 {
        if self.makespan_cycles == 0 {
            return 0.0;
        }
        self.served_count() as f64 / (self.makespan_cycles as f64 / tech.clock_hz)
    }

    /// Completed inferences per second at `tech`'s clock. Alias of
    /// [`ServeReport::goodput_ips`] (the two coincide because only
    /// served requests complete).
    pub fn throughput_ips(&self, tech: &TechParams) -> f64 {
        self.goodput_ips(tech)
    }

    /// Aggregate energy of the run under `tech`.
    pub fn energy(&self, tech: &TechParams) -> EnergyBreakdown {
        EnergyBreakdown::of(&self.total_events, tech)
    }

    /// Mean energy per **served** inference in microjoules under
    /// `tech`.
    pub fn uj_per_inference(&self, tech: &TechParams) -> f64 {
        let served = self.served_count();
        if served == 0 {
            return 0.0;
        }
        self.energy(tech).total_pj() * 1e-6 / served as f64
    }

    /// Mean worker utilization over the makespan.
    pub fn mean_utilization(&self) -> f64 {
        if self.workers.is_empty() {
            return 0.0;
        }
        self.workers.iter().map(|w| w.utilization(self.makespan_cycles)).sum::<f64>()
            / self.workers.len() as f64
    }

    /// Mean served requests per batch.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.served_count() as f64 / self.batches as f64
    }

    /// A multi-line human-readable summary under `tech`.
    pub fn summary(&self, tech: &TechParams) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "ServeReport [{} | {}]: {} served / {} dropped / {} failed in {} batches on {} workers\n",
            self.arch,
            self.policy,
            self.served_count(),
            self.dropped_count(),
            self.failed_count(),
            self.batches,
            self.workers.len()
        ));
        if !self.fault.is_quiet() {
            s.push_str(&format!(
                "  faults          {:>10} crashes ({} recoveries, {} slowdowns, {} retries, {} hedges, {} shed, availability {:.4})\n",
                self.fault.lane_crashes,
                self.fault.lane_recoveries,
                self.fault.slowdowns,
                self.fault.retries,
                self.fault.hedges,
                self.fault.shed,
                self.availability()
            ));
        }
        s.push_str(&format!(
            "  goodput         {:>10.1} inf/s   (makespan {:.3} ms, mean batch {:.2}, drop rate {:.1}%)\n",
            self.goodput_ips(tech),
            Self::cycles_to_ms(tech, self.makespan_cycles),
            self.mean_batch_size(),
            self.drop_rate() * 100.0
        ));
        s.push_str(&format!(
            "  latency p50     {:>10.3} ms      (p95 {:.3} ms, p99 {:.3} ms, mean {:.3} ms)\n",
            Self::cycles_to_ms(tech, self.p50_cycles()),
            Self::cycles_to_ms(tech, self.p95_cycles()),
            Self::cycles_to_ms(tech, self.p99_cycles()),
            self.mean_latency_cycles() / tech.clock_hz * 1e3
        ));
        s.push_str(&format!(
            "  energy          {:>10.1} uJ      ({:.2} uJ/inference)\n",
            self.energy(tech).total_pj() * 1e-6,
            self.uj_per_inference(tech)
        ));
        s.push_str(&format!(
            "  utilization     {:>10.1} %       per worker:",
            self.mean_utilization() * 100.0
        ));
        for (i, w) in self.workers.iter().enumerate() {
            s.push_str(&format!(" w{i} {:.0}%", w.utilization(self.makespan_cycles) * 100.0));
        }
        s.push('\n');
        s
    }

    /// A per-stage pipeline table: model, stage, layer range, pinned
    /// lane/arch, busy/bubble/handoff split and occupancy. Empty string
    /// when the run was not pipelined.
    pub fn pipeline_breakdown(&self) -> String {
        if self.pipeline_stages.is_empty() {
            return String::new();
        }
        let cols = [
            Col::left("model", 18),
            Col::left("stage", 6),
            Col::left("layers", 8),
            Col::left("lane", 6),
            Col::left("arch", 12),
            Col::right("batches", 7),
            Col::right("busy cyc", 10),
            Col::right("bubble cyc", 10),
            Col::right("handoff", 9),
            Col::right("occ %", 7),
        ];
        let rows: Vec<Vec<String>> = self
            .pipeline_stages
            .iter()
            .map(|st| {
                vec![
                    st.model.clone(),
                    st.stage.to_string(),
                    format!("{}..{}", st.layers.0, st.layers.1),
                    format!("L{}", st.lane),
                    st.arch.to_string(),
                    st.batches.to_string(),
                    st.busy_cycles.to_string(),
                    st.bubble_cycles.to_string(),
                    st.handoff_cycles.to_string(),
                    format!("{:.1}", st.occupancy() * 100.0),
                ]
            })
            .collect();
        render_table(&cols, &rows)
    }

    /// A per-lane table under `tech`: architecture, busy/idle split,
    /// batches, requests and energy — the view that makes utilization
    /// skew across a heterogeneous fleet visible.
    pub fn lane_breakdown(&self, tech: &TechParams) -> String {
        let cols = [
            Col::left("lane", 6),
            Col::left("arch", 12),
            Col::right("busy cyc", 10),
            Col::right("idle cyc", 10),
            Col::right("util %", 7),
            Col::right("batches", 8),
            Col::right("requests", 8),
            Col::right("uJ", 10),
        ];
        let rows: Vec<Vec<String>> = self
            .workers
            .iter()
            .enumerate()
            .map(|(i, w)| {
                vec![
                    format!("L{i}"),
                    w.arch.to_string(),
                    w.busy_cycles.to_string(),
                    w.idle_cycles(self.makespan_cycles).to_string(),
                    format!("{:.1}", w.utilization(self.makespan_cycles) * 100.0),
                    w.batches.to_string(),
                    w.requests.to_string(),
                    format!("{:.2}", w.energy(tech).total_pj() * 1e-6),
                ]
            })
            .collect();
        render_table(&cols, &rows)
    }
}

impl fmt::Display for ServeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}]: {} served, {} dropped, {} failed, {} batches, {} workers, {} cycles makespan",
            self.arch,
            self.policy,
            self.served_count(),
            self.dropped_count(),
            self.failed_count(),
            self.batches,
            self.workers.len(),
            self.makespan_cycles
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(id: u64, arrival: u64, completion: u64) -> RequestOutcome {
        RequestOutcome::Served(ServedRequest {
            id,
            model: "m",
            arrival,
            start: arrival,
            completion,
            batch: id as usize,
            worker: 0,
        })
    }

    fn dropped(id: u64, arrival: u64) -> RequestOutcome {
        RequestOutcome::Dropped(DroppedRequest { id, model: "m", arrival })
    }

    fn report(latencies: &[u64]) -> ServeReport {
        ServeReport {
            arch: "TEST".into(),
            policy: "fixed".into(),
            outcomes: latencies.iter().enumerate().map(|(i, &l)| outcome(i as u64, 0, l)).collect(),
            latency_hist: LatencyHistogram::collect(latencies.iter().copied()),
            batches: latencies.len(),
            workers: vec![WorkerStats {
                busy_cycles: 50,
                batches: 1,
                requests: 1,
                events: EventCounts { cycles: 50, macs_active: 1_000, ..Default::default() },
                ..WorkerStats::new(ArchKind::S2taAw)
            }],
            total_events: EventCounts { cycles: 100, ..Default::default() },
            makespan_cycles: 100,
            pipeline_stages: vec![],
            per_model: vec![],
            fault: FaultStats::default(),
            trace: TraceCell::default(),
        }
    }

    #[test]
    fn percentiles_nearest_rank() {
        let r = report(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        assert_eq!(r.p50_cycles(), 50);
        assert_eq!(r.latency_percentile_cycles(10.0), 10);
        assert_eq!(r.p99_cycles(), 100);
        assert_eq!(r.latency_percentile_cycles(100.0), 100);
        assert!((r.mean_latency_cycles() - 55.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_edge_cases() {
        // Single served request: every percentile is that request.
        let single = report(&[42]);
        for pct in [0.001, 0.5, 1.0, 50.0, 99.0, 99.999, 100.0] {
            assert_eq!(single.latency_percentile_cycles(pct), 42, "pct {pct}");
        }
        // Percentiles near the ends of a larger set hit the extremes.
        let r = report(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        assert_eq!(r.latency_percentile_cycles(0.001), 10, "near-zero pct is the minimum");
        assert_eq!(r.latency_percentile_cycles(99.999), 100, "near-100 pct is the maximum");
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_zero_rejected() {
        report(&[1]).latency_percentile_cycles(0.0);
    }

    #[test]
    fn drop_only_run_has_zero_latency_stats() {
        let r = ServeReport {
            arch: "TEST".into(),
            policy: "fixed".into(),
            outcomes: (0..5).map(|i| dropped(i, i * 10)).collect(),
            batches: 0,
            workers: vec![WorkerStats::new(ArchKind::S2taAw)],
            total_events: EventCounts::default(),
            makespan_cycles: 0,
            pipeline_stages: vec![],
            per_model: vec![],
            fault: FaultStats::default(),
            latency_hist: LatencyHistogram::default(),
            trace: TraceCell::default(),
        };
        assert_eq!(r.served_count(), 0);
        assert_eq!(r.dropped_count(), 5);
        assert!((r.drop_rate() - 1.0).abs() < 1e-12);
        for pct in [0.001, 50.0, 99.0, 100.0] {
            assert_eq!(r.latency_percentile_cycles(pct), 0, "drop-only run must report 0");
        }
        assert_eq!(r.mean_latency_cycles(), 0.0);
        let tech = TechParams::tsmc16();
        assert_eq!(r.goodput_ips(&tech), 0.0);
        assert_eq!(r.uj_per_inference(&tech), 0.0);
        assert!(r.summary(&tech).contains("drop rate 100.0%"));
    }

    #[test]
    fn mixed_outcomes_split_metrics() {
        let mut r = report(&[10, 20, 30, 40]);
        r.outcomes.push(dropped(4, 5));
        r.outcomes.push(dropped(5, 6));
        assert_eq!(r.served_count(), 4);
        assert_eq!(r.dropped_count(), 2);
        assert!((r.drop_rate() - 2.0 / 6.0).abs() < 1e-12);
        // Percentiles ignore drops entirely.
        assert_eq!(r.latency_percentile_cycles(100.0), 40);
        let tech = TechParams::tsmc16();
        // Goodput counts the 4 served requests over the makespan.
        let expect = 4.0 / (100.0 / tech.clock_hz);
        assert!((r.goodput_ips(&tech) - expect).abs() < 1e-3);
        assert_eq!(r.goodput_ips(&tech), r.throughput_ips(&tech));
    }

    #[test]
    fn empty_report_is_calm() {
        let r = ServeReport {
            arch: "TEST".into(),
            policy: "fixed".into(),
            outcomes: vec![],
            batches: 0,
            workers: vec![],
            total_events: EventCounts::default(),
            makespan_cycles: 0,
            pipeline_stages: vec![],
            per_model: vec![],
            fault: FaultStats::default(),
            latency_hist: LatencyHistogram::default(),
            trace: TraceCell::default(),
        };
        assert_eq!(r.p50_cycles(), 0);
        assert_eq!(r.mean_utilization(), 0.0);
        assert_eq!(r.mean_batch_size(), 0.0);
        assert_eq!(r.drop_rate(), 0.0);
        let tech = TechParams::tsmc16();
        assert_eq!(r.throughput_ips(&tech), 0.0);
        assert_eq!(r.uj_per_inference(&tech), 0.0);
    }

    #[test]
    fn per_model_percentiles_split_by_model_name() {
        let mut r = report(&[10, 20, 30, 40]);
        // Rename two outcomes to a second model with slower latencies.
        for (i, o) in r.outcomes.iter_mut().enumerate() {
            if let RequestOutcome::Served(s) = o {
                if i >= 2 {
                    s.model = "heavy";
                }
            }
        }
        assert_eq!(r.latency_percentile_for_model("m", 100.0), 20);
        assert_eq!(r.latency_percentile_for_model("heavy", 100.0), 40);
        assert_eq!(r.latency_percentile_for_model("heavy", 50.0), 30);
        assert_eq!(r.latency_percentile_for_model("absent", 99.0), 0, "unknown model is calm");
        // The all-model percentile is unchanged by the split.
        assert_eq!(r.latency_percentile_cycles(100.0), 40);
    }

    #[test]
    fn lane_stats_carry_arch_idle_and_energy() {
        let r = report(&[100]);
        let w = &r.workers[0];
        assert_eq!(w.arch, ArchKind::S2taAw);
        assert_eq!(w.idle_cycles(r.makespan_cycles), 50);
        assert_eq!(w.idle_cycles(10), 0, "idle saturates below busy");
        let tech = TechParams::tsmc16();
        assert!(w.energy(&tech).total_pj() > 0.0);
        let table = r.lane_breakdown(&tech);
        assert!(table.contains("S2TA-AW"), "breakdown names the lane arch:\n{table}");
        assert!(table.contains("L0"), "breakdown lists each lane:\n{table}");
    }

    #[test]
    fn histogram_edge_cases() {
        // Empty: every valid percentile is calm.
        let empty = LatencyHistogram::collect(std::iter::empty());
        assert_eq!(empty.total(), 0);
        for pct in [0.001, 50.0, 100.0] {
            assert_eq!(empty.percentile(pct), 0, "pct {pct}");
        }
        // Single sample: every percentile is that sample.
        let single = LatencyHistogram::collect([42]);
        for pct in [0.001, 0.5, 50.0, 99.999, 100.0] {
            assert_eq!(single.percentile(pct), 42, "pct {pct}");
        }
        // Heavy ties stay exact.
        let ties = LatencyHistogram::collect([7, 7, 7, 7, 9]);
        assert_eq!(ties.total(), 5);
        assert_eq!(ties.percentile(80.0), 7);
        assert_eq!(ties.percentile(80.001), 9);
        assert_eq!(ties.percentile(100.0), 9);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn histogram_rejects_zero_percentile() {
        LatencyHistogram::collect([1]).percentile(0.0);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn histogram_rejects_oversized_percentile() {
        LatencyHistogram::collect([1]).percentile(100.5);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]
        /// The histogram percentile is byte-identical to the
        /// [`nearest_rank`] sorted-slice path it replaced, on random
        /// sample sets, whole and split at random points.
        #[test]
        fn prop_histogram_matches_nearest_rank(
            samples in proptest::collection::vec(0u64..500, 1..300),
            split in proptest::arbitrary::any::<u16>(),
            pct_mil in 1u64..=100_000,
        ) {
            let pct = pct_mil as f64 / 1_000.0;
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let split = split as usize % (samples.len() + 1);
            let hist = LatencyHistogram::collect(samples.iter().copied());
            proptest::prop_assert_eq!(hist.percentile(pct), nearest_rank(&sorted, pct));
            proptest::prop_assert_eq!(hist.total(), sorted.len() as u64);
            // The same answer over the parts.
            let parts = [
                LatencyHistogram::collect(samples[..split].iter().copied()),
                LatencyHistogram::collect(samples[split..].iter().copied()),
            ];
            proptest::prop_assert_eq!(
                LatencyHistogram::percentile_of_union(&[&parts[0], &parts[1]], pct),
                nearest_rank(&sorted, pct)
            );
        }
    }

    #[test]
    fn utilization_and_throughput() {
        let r = report(&[100]);
        assert!((r.workers[0].utilization(100) - 0.5).abs() < 1e-12);
        let tech = TechParams::tsmc16();
        // 1 request / (100 cycles / clock)
        let expect = tech.clock_hz / 100.0;
        assert!((r.throughput_ips(&tech) - expect).abs() < 1e-3);
        assert!(r.summary(&tech).contains("goodput"));
    }
}
