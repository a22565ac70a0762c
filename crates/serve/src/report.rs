//! The serving report: per-request outcomes and fleet-level metrics.

use crate::outcome::{OutcomeLog, ServedRequest};
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

/// The 1-based nearest-rank of the `pct`-th percentile in a population
/// of `count` samples: `ceil(pct/100 * count)`, clamped into
/// `[1, count]`. The **single** clamp implementation behind every
/// percentile view — the histogram union search, the sorted-slice
/// helper, and through them all report-level percentiles.
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

/// An exact histogram of served latencies, kept as sorted runs of
/// `(latency, cumulative count)`: 16 bytes per **distinct** latency.
/// Batching makes latencies repeat — a shard of the canonical 1M day,
/// about 250,000 requests, holds 27,000-33,400 distinct ones — so at
/// scale the runs hold a fraction of the 8 bytes per request the
/// samples would.
///
/// This is the report tier's percentile engine. It is *exact* — a
/// percentile query reads the same nearest-rank position
/// `nearest_rank` would find, so every answer is an actually-observed
/// latency — and it is *mergeable*: a report keeps one histogram per
/// model, and its overall percentiles, like [`crate::ClusterReport`]'s
/// global ones over every shard, are taken over the union of those
/// histograms by binary search, without merging or re-sorting the
/// samples.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct LatencyHistogram {
    /// One run per distinct sample, ascending: the sample and how many
    /// samples are at most it.
    runs: Vec<(u64, u64)>,
}

impl LatencyHistogram {
    /// One histogram per model of `log`'s name table, by index. One
    /// counting pass sizes each model's sample buffer exactly and one
    /// filling pass fills it, so no buffer is regrown, and the buffers
    /// together hold one `u64` per served request, as one overall
    /// buffer would.
    pub(crate) fn per_model(log: &OutcomeLog) -> Vec<Self> {
        let mut counts = vec![0; log.names().len()];
        for (model, _) in log.latencies() {
            counts[model] += 1;
        }
        let mut samples: Vec<Vec<u64>> = counts.into_iter().map(Vec::with_capacity).collect();
        for (model, latency) in log.latencies() {
            samples[model].push(latency);
        }
        samples.into_iter().map(Self::of_samples).collect()
    }

    /// The histogram of `samples`: sorts them in place (the last sort
    /// percentile queries ever need) and keeps their runs in a buffer
    /// of exactly their count, sized by counting first.
    fn of_samples(mut sorted: Vec<u64>) -> Self {
        sorted.sort_unstable();
        let mut runs = Vec::with_capacity(sorted.chunk_by(u64::eq).count());
        let mut at_most = 0;
        for run in sorted.chunk_by(u64::eq) {
            at_most += run.len() as u64;
            runs.push((run[0], at_most));
        }
        Self { runs }
    }

    /// The sum of every sample, exact: each run's latency times its
    /// count.
    pub(crate) fn sum(&self) -> u64 {
        let (mut sum, mut below) = (0, 0);
        for &(latency, at_most) in &self.runs {
            sum += latency * (at_most - below);
            below = at_most;
        }
        sum
    }

    /// Total number of samples.
    pub(crate) fn total(&self) -> u64 {
        self.runs.last().map_or(0, |&(_, n)| n)
    }

    /// How many samples are at most `latency`.
    fn at_most(&self, latency: u64) -> u64 {
        let runs = self.runs.partition_point(|&(v, _)| v <= latency);
        runs.checked_sub(1).map_or(0, |last| self.runs[last].1)
    }

    /// The nearest-rank `pct`-th percentile of the merge of `hists` (an
    /// observed sample; 0 when they hold none), found without building
    /// the merge: the answer is the smallest sample that at least the
    /// target rank of samples over all `hists` do not exceed. Within
    /// one histogram that count grows with the sample, so a binary
    /// search finds its smallest such sample, and the least of those
    /// over the histograms is the answer.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < pct <= 100.0`.
    pub(crate) fn percentile_of_union(hists: &[&LatencyHistogram], pct: f64) -> u64 {
        let total: u64 = hists.iter().map(|h| h.total()).sum();
        let target = nearest_rank_position(total.max(1), pct);
        let rank = |v: u64| -> u64 { hists.iter().map(|h| h.at_most(v)).sum() };
        hists
            .iter()
            .filter_map(|h| h.runs.get(h.runs.partition_point(|&(v, _)| rank(v) < target)))
            .map(|&(v, _)| v)
            .min()
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
    /// [`crate::RequestOutcome::Failed`]).
    pub failed: u64,
}

impl ModelServeStats {
    /// A zeroed record for `model`.
    pub(crate) fn new(model: &str) -> Self {
        Self { model: model.to_string(), dropped: 0, deadline_misses: 0, failed: 0 }
    }
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
    /// Requests abandoned as [`crate::RequestOutcome::Failed`].
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

/// Fraction of `issued` requests that were **not** lost to faults:
/// `1 - failed/issued`, 1.0 for an empty run. Admission drops are a
/// load-shedding decision, not unavailability, so they do not lower
/// it. The one formula behind both reports' `availability`.
pub(crate) fn availability_of(failed: usize, issued: usize) -> f64 {
    1.0 - fraction_of(failed, issued)
}

/// `part` as a fraction of `issued` requests, 0 for an empty run: the
/// one formula behind both reports' `drop_rate`.
pub(crate) fn fraction_of(part: usize, issued: usize) -> f64 {
    if issued == 0 {
        return 0.0;
    }
    part as f64 / issued as f64
}

/// `served` inferences per second of `makespan_cycles` at `tech`'s
/// clock, 0 for a run that completed nothing. The one formula behind
/// both reports' `goodput_ips`.
pub(crate) fn goodput_ips_of(served: usize, makespan_cycles: u64, tech: &TechParams) -> f64 {
    if makespan_cycles == 0 {
        return 0.0;
    }
    served as f64 / (makespan_cycles as f64 / tech.clock_hz)
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
/// successfully served requests is [`ServeReport::goodput_ips`].
///
/// Every rollup reads the report's counts and per-model latency runs,
/// never the outcome log: the counts are sums over
/// [`ServeReport::per_model`] and the runs, the mean latency is exact
/// over the runs, and percentiles are taken over their union.
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
    /// Outcomes in request-id order (dense: served, dropped and failed
    /// together cover every issued request), stored as 40-byte rows
    /// and read back as [`crate::RequestOutcome`]s (see [`OutcomeLog`]).
    pub outcomes: OutcomeLog,
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
    /// Served-latency runs per model, indexed like the outcome log's
    /// name table, built once at report assembly (see
    /// [`LatencyHistogram::per_model`]).
    pub(crate) latency: Vec<LatencyHistogram>,
    /// The run's observability trace, when a recorder was attached
    /// (excluded from equality, empty on clones — see
    /// [`TraceCell`]).
    pub(crate) trace: TraceCell,
}

impl ServeReport {
    /// Served outcomes, in id order.
    pub fn served_outcomes(&self) -> impl Iterator<Item = ServedRequest> + Clone + '_ {
        self.outcomes.iter().filter_map(|o| o.served().copied())
    }

    /// Requests that were admitted and executed.
    pub fn served_count(&self) -> usize {
        self.latency.iter().map(|h| h.total() as usize).sum()
    }

    /// Requests refused at admission (capacity tail drops plus
    /// degraded-mode shedding).
    pub fn dropped_count(&self) -> usize {
        self.per_model.iter().map(|m| m.dropped as usize).sum()
    }

    /// Requests abandoned by fault handling (see
    /// [`crate::RequestOutcome::Failed`]).
    pub(crate) fn failed_count(&self) -> usize {
        self.per_model.iter().map(|m| m.failed as usize).sum()
    }

    /// See [`availability_of`] (1.0 for an empty or fault-free run).
    pub(crate) fn availability(&self) -> f64 {
        availability_of(self.failed_count(), self.outcomes.len())
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
        fraction_of(self.dropped_count(), self.outcomes.len())
    }

    /// Latency of the `pct`-th percentile **served** request in cycles
    /// (nearest-rank on the sorted latencies). Returns 0 when no
    /// request was served (empty or drop-only runs).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < pct <= 100.0`.
    pub(crate) fn latency_percentile_cycles(&self, pct: f64) -> u64 {
        LatencyHistogram::percentile_of_union(&self.latency.iter().collect::<Vec<_>>(), pct)
    }

    /// Latency of the `pct`-th percentile **served** request of the
    /// named model (nearest-rank). Returns 0 when no request of that
    /// model was served. A serve may list one name at several model
    /// indices; the percentile is then over all of them. Per-model
    /// [`crate::SloClass`] targets are checked against exactly this
    /// number.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < pct <= 100.0`.
    pub fn latency_percentile_for_model(&self, model: &str, pct: f64) -> u64 {
        let names = self.outcomes.names().iter();
        let runs: Vec<&LatencyHistogram> =
            names.zip(&self.latency).filter(|&(&name, _)| name == model).map(|(_, h)| h).collect();
        LatencyHistogram::percentile_of_union(&runs, pct)
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
    pub fn mean_latency_cycles(&self) -> f64 {
        let served = self.served_count();
        if served == 0 {
            return 0.0;
        }
        let total: u64 = self.latency.iter().map(LatencyHistogram::sum).sum();
        total as f64 / served as f64
    }

    /// Converts cycles to milliseconds at `tech`'s clock.
    pub fn cycles_to_ms(tech: &TechParams, cycles: u64) -> f64 {
        cycles as f64 / tech.clock_hz * 1e3
    }

    /// Successfully served inferences per second at `tech`'s clock —
    /// the goodput. Dropped requests do not count.
    pub fn goodput_ips(&self, tech: &TechParams) -> f64 {
        goodput_ips_of(self.served_count(), self.makespan_cycles, tech)
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
    use crate::outcome::{DroppedRequest, OutcomeRow, RequestOutcome};
    use crate::workload::Request;

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

    impl LatencyHistogram {
        /// The histogram of `samples`, gathered into one buffer of
        /// exactly their count.
        fn collect<I>(samples: I) -> Self
        where
            I: IntoIterator<Item = u64>,
            I::IntoIter: Clone,
        {
            let samples = samples.into_iter();
            let mut sorted = Vec::with_capacity(samples.clone().count());
            sorted.extend(samples);
            Self::of_samples(sorted)
        }

        /// The `pct`-th percentile sample of one histogram
        /// (nearest-rank; 0 when it is empty), read off its runs
        /// directly: the view the union search must agree with.
        fn percentile(&self, pct: f64) -> u64 {
            let target = nearest_rank_position(self.total().max(1), pct);
            self.runs.get(self.runs.partition_point(|&(_, n)| n < target)).map_or(0, |&(v, _)| v)
        }
    }

    /// A 100-cycle run of one half-busy lane over `outcomes`: its
    /// per-model counts are read off the log, and its latency runs are
    /// built from it as report assembly builds them.
    fn report_of(outcomes: OutcomeLog) -> ServeReport {
        let names = outcomes.names();
        let mut per_model: Vec<ModelServeStats> =
            names.iter().map(|m| ModelServeStats::new(m)).collect();
        for o in &outcomes {
            let stats = &mut per_model[names.iter().position(|&n| n == o.model()).unwrap()];
            match o {
                RequestOutcome::Served(_) => {}
                RequestOutcome::Dropped(_) => stats.dropped += 1,
                RequestOutcome::Failed(_) => stats.failed += 1,
            }
        }
        ServeReport {
            arch: "TEST".into(),
            policy: "fixed".into(),
            latency: LatencyHistogram::per_model(&outcomes),
            batches: outcomes.len(),
            outcomes,
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
            per_model,
            fault: FaultStats::default(),
            trace: TraceCell::default(),
        }
    }

    fn report(latencies: &[u64]) -> ServeReport {
        report_of(latencies.iter().enumerate().map(|(i, &l)| outcome(i as u64, 0, l)).collect())
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
            batches: 0,
            workers: vec![WorkerStats::new(ArchKind::S2taAw)],
            total_events: EventCounts::default(),
            makespan_cycles: 0,
            ..report_of((0..5).map(|i| dropped(i, i * 10)).collect())
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
        let served = [10, 20, 30, 40].into_iter().enumerate().map(|(i, l)| outcome(i as u64, 0, l));
        let r = report_of(served.chain([dropped(4, 5), dropped(5, 6)]).collect());
        assert_eq!(r.served_count(), 4);
        assert_eq!(r.dropped_count(), 2);
        assert!((r.drop_rate() - 2.0 / 6.0).abs() < 1e-12);
        // Percentiles ignore drops entirely.
        assert_eq!(r.latency_percentile_cycles(100.0), 40);
        let tech = TechParams::tsmc16();
        // Goodput counts the 4 served requests over the makespan.
        let expect = 4.0 / (100.0 / tech.clock_hz);
        assert!((r.goodput_ips(&tech) - expect).abs() < 1e-3);
    }

    #[test]
    fn empty_report_is_calm() {
        let r = ServeReport {
            batches: 0,
            workers: vec![],
            total_events: EventCounts::default(),
            makespan_cycles: 0,
            ..report_of(OutcomeLog::default())
        };
        assert_eq!(r.p50_cycles(), 0);
        assert_eq!(r.mean_utilization(), 0.0);
        assert_eq!(r.mean_batch_size(), 0.0);
        assert_eq!(r.drop_rate(), 0.0);
        let tech = TechParams::tsmc16();
        assert_eq!(r.goodput_ips(&tech), 0.0);
        assert_eq!(r.uj_per_inference(&tech), 0.0);
    }

    #[test]
    fn per_model_percentiles_split_by_model_name() {
        // Two outcomes go to a second model with slower latencies.
        let r = report_of(
            report(&[10, 20, 30, 40])
                .outcomes
                .iter()
                .map(|o| match o {
                    RequestOutcome::Served(s) if s.id >= 2 => {
                        RequestOutcome::Served(ServedRequest { model: "heavy", ..s })
                    }
                    o => o,
                })
                .collect(),
        );
        assert_eq!(r.latency_percentile_for_model("m", 100.0), 20);
        assert_eq!(r.latency_percentile_for_model("heavy", 100.0), 40);
        assert_eq!(r.latency_percentile_for_model("heavy", 50.0), 30);
        assert_eq!(r.latency_percentile_for_model("absent", 99.0), 0, "unknown model is calm");
        // The all-model percentile is unchanged by the split.
        assert_eq!(r.latency_percentile_cycles(100.0), 40);

        // A serve may list one name at two model indices: that name's
        // percentiles are over both indices' requests.
        let mut log = OutcomeLog::new(vec!["m", "heavy", "m"]);
        for (id, (model, latency)) in [(0, 10), (2, 20), (1, 30), (2, 40)].into_iter().enumerate() {
            let request = Request { id: id as u64, model, arrival: 0, act_seed: 0 };
            log.push_row(OutcomeRow::served(&request, 0, latency, id, 0));
        }
        let shared = report_of(log);
        assert_eq!(shared.latency_percentile_for_model("m", 100.0), 40);
        assert_eq!(shared.latency_percentile_for_model("m", 50.0), 20);
        assert_eq!(shared.latency_percentile_for_model("m", 1.0), 10);
        assert_eq!(shared.latency_percentile_for_model("heavy", 100.0), 30);
        assert_eq!(shared.latency_percentile_cycles(50.0), 20);
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

    /// The sample-based union percentile the runs replaced: binary
    /// search over each part's sorted samples.
    fn union_of_samples(parts: &[Vec<u64>], pct: f64) -> u64 {
        let total = parts.iter().map(Vec::len).sum::<usize>() as u64;
        let target = nearest_rank_position(total.max(1), pct);
        let rank =
            |v: u64| -> u64 { parts.iter().map(|p| p.partition_point(|&x| x <= v) as u64).sum() };
        parts
            .iter()
            .filter_map(|p| p.get(p.partition_point(|&v| rank(v) < target)))
            .min()
            .copied()
            .unwrap_or(0)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]
        /// Runs answer as the samples did: on heavily tied samples over
        /// up to four parts, empty ones included, every part's
        /// `percentile` is the sorted samples' nearest rank and
        /// `percentile_of_union` is the sample-based union search's.
        #[test]
        fn prop_runs_answer_as_samples_did(
            parts in proptest::collection::vec(proptest::collection::vec(0u64..24, 0..80), 1..5),
            pct_mil in 1u64..=100_000,
        ) {
            let pct = pct_mil as f64 / 1_000.0;
            let sorted: Vec<Vec<u64>> = parts
                .iter()
                .map(|p| {
                    let mut p = p.clone();
                    p.sort_unstable();
                    p
                })
                .collect();
            let hists: Vec<LatencyHistogram> =
                parts.iter().map(|p| LatencyHistogram::collect(p.iter().copied())).collect();
            for (hist, samples) in hists.iter().zip(&sorted) {
                let expect = if samples.is_empty() { 0 } else { nearest_rank(samples, pct) };
                proptest::prop_assert_eq!(hist.percentile(pct), expect);
                proptest::prop_assert_eq!(hist.total(), samples.len() as u64);
            }
            let refs: Vec<&LatencyHistogram> = hists.iter().collect();
            proptest::prop_assert_eq!(
                LatencyHistogram::percentile_of_union(&refs, pct),
                union_of_samples(&sorted, pct)
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
        assert!((r.goodput_ips(&tech) - expect).abs() < 1e-3);
        assert!(r.summary(&tech).contains("goodput"));
    }
}
