//! Flight recorder + deterministic metrics time-series for the serving
//! engine.
//!
//! Observability for the simulator comes in two strictly separated
//! halves:
//!
//! * **Deterministic** (part of [`Trace`] equality): the typed
//!   [`TraceEvent`] stream held in a preallocated drop-oldest
//!   [`FlightRecorder`] ring, and the fixed-interval
//!   [`MetricsSample`]/per-model-p99 time-series. Both are pure
//!   functions of the simulated run — the serial and shard-parallel
//!   cluster drivers produce byte-identical traces, and running the
//!   same scenario twice reproduces the trace exactly.
//! * **Host-side** (excluded from [`Trace`] equality): wall-clock
//!   [`HostSpan`] accumulators around batch execution / pipeline
//!   calibration / engine advance.
//!
//! A trace carries no cache counters: the plan and profile caches can
//! be shared by every shard of a cluster, so their counters follow the
//! host order in which shards ran. A caller that wants a run's cache
//! activity diffs the caches' `stats()` around the call.
//!
//! Recording is allocation-free in the steady state: the event ring is
//! preallocated at [`TraceConfig::event_capacity`] and overwrites its
//! oldest entry under overflow (counted in [`Trace::dropped_events`]),
//! never growing — pinned by the debug counting-allocator test in
//! `crates/bench/tests/steady_state_alloc.rs`.
//!
//! The finished [`Trace`] lives on [`crate::ServeReport`] inside an
//! equality-neutral [`TraceCell`], so report `PartialEq` semantics —
//! every traced-vs-untraced and serial-vs-parallel byte-identity
//! guarantee in the test suite — are unchanged by attaching a
//! recorder. Export to the Chrome `trace_events` JSON consumed by
//! `chrome://tracing` / [Perfetto](https://ui.perfetto.dev) with
//! [`Trace::chrome_trace_json`], and to a compact metrics JSON with
//! [`Trace::metrics_json`].

use crate::report::nearest_rank;
use std::collections::VecDeque;
use std::sync::OnceLock;
use std::time::Duration;

/// How a run's recorder is sized and sampled. Attach with
/// [`crate::Fleet::with_trace`] / [`crate::Cluster::with_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Flight-recorder ring capacity in events; the ring is fully
    /// preallocated and drops its **oldest** event on overflow. A
    /// capacity of 0 records nothing (every event counts as dropped).
    pub event_capacity: usize,
    /// Simulated cycles between metrics samples (must be positive).
    /// Boundaries sit at `k * interval` for `k >= 1`, and the sample
    /// at boundary `b` reflects engine state after exactly the events
    /// with simulated time `< b`.
    pub metrics_interval_cycles: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self { event_capacity: 65_536, metrics_interval_cycles: 10_000 }
    }
}

impl TraceConfig {
    /// Panics unless the configuration is usable.
    pub(crate) fn validate(&self) {
        assert!(self.metrics_interval_cycles > 0, "metrics interval must be positive");
    }
}

/// What happened at one [`TraceEvent`]. The fixed `(lane, model,
/// stage, a, b)` payload fields are interpreted per kind — see each
/// variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceEventKind {
    /// A batch was sealed (by size or by deadline): `cycle` = the
    /// batch's ready time, `a` = batch id, `b` = requests in the batch.
    BatchSealed,
    /// A sealed batch began executing on its lane: `cycle` = start,
    /// `a` = batch id, `b` = requests in the batch.
    BatchStarted,
    /// A batch finished: `cycle` = completion, `a` = batch id, `b` =
    /// requests in the batch.
    BatchCompleted,
    /// A request was refused admission at a full bounded queue:
    /// `cycle` = arrival, `a` = request id, `b` = queued depth at the
    /// drop.
    RequestDropped,
    /// A batching deadline fired and sealed a partial batch — every
    /// member waited out the full batching window: `cycle` = the
    /// deadline, `a` = requests in the timed-out batch, `b` = 0.
    DeadlineMiss,
    /// One pipeline stage of a batch was dispatched: `cycle` = stage
    /// start, `stage` = stage index, `a` = batch id, `b` = stage
    /// service cycles.
    StageDispatch,
    /// Backpressure from the bounded inter-stage queue delayed a stage
    /// start: `cycle` = the delayed start, `stage` = stage index,
    /// `a` = batch id, `b` = cycles the start was pushed back.
    StageStall,
    /// The autoscaler changed a shard's active-lane count: `cycle` =
    /// evaluation time, `lane` = active lanes **before**, `stage` =
    /// active lanes **after**, `a` = the triggering backlog, `b` = 0.
    AutoscaleDecision,
    /// A fault window opened on a lane: `cycle` = failure time,
    /// `lane` = the lane, `a` = the window's duration in cycles, `b` =
    /// 0 for a crash or the slowdown factor for a slowdown.
    LaneFailed,
    /// A fault window closed and the lane came back (cold, for a
    /// crash): `cycle` = recovery time, `lane` = the lane, `a` = the
    /// window's duration in cycles, `b` = 0 for a crash or the
    /// slowdown factor for a slowdown.
    LaneRecovered,
    /// A crash-cancelled request was re-queued for another attempt:
    /// `cycle` = the scheduled retry time, `a` = request id, `b` =
    /// the attempt number being scheduled.
    RequestRetried,
    /// A batch was dispatched twice under the hedging policy: `cycle`
    /// = hedged start, `lane` = the winning lane, `a` = batch id,
    /// `b` = the losing lane.
    RequestHedged,
    /// The router steered a request away from an out shard: `cycle` =
    /// arrival, `a` = request id, `b` = 0.
    ShardFailedOver,
}

/// One recorded engine event, stamped with simulated time and
/// `(shard, lane, model, stage)` identity. `Copy` and fixed-size so
/// recording is a single ring-slot write.
///
/// `shard` is 0 while a fleet records and is stamped by
/// [`crate::ClusterReport::merged_trace`] when per-shard traces are
/// merged. The meaning of `lane`, `stage`, `a` and `b` depends on
/// [`TraceEvent::kind`] — see [`TraceEventKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated cycle the event is stamped with.
    pub cycle: u64,
    /// What happened.
    pub kind: TraceEventKind,
    /// Cluster shard (0 until stamped by the merge).
    pub shard: u32,
    /// Fleet lane, where the kind has one (see [`TraceEventKind`]).
    pub lane: u32,
    /// Model index into the run's model list.
    pub model: u32,
    /// Pipeline stage, where the kind has one.
    pub stage: u32,
    /// Kind-specific payload (usually an id or a count).
    pub a: u64,
    /// Kind-specific payload (usually a size or a duration).
    pub b: u64,
}

impl TraceEvent {
    /// A `kind` event at `cycle` on shard 0, with lane, model, stage
    /// and payload zeroed; the cluster merge stamps the real shard.
    pub(crate) fn new(cycle: u64, kind: TraceEventKind) -> Self {
        Self { cycle, kind, shard: 0, lane: 0, model: 0, stage: 0, a: 0, b: 0 }
    }
}

/// The preallocated drop-oldest event ring.
///
/// Constructed once per run at [`TraceConfig::event_capacity`];
/// [`FlightRecorder::record`] never allocates — when full it drops the
/// oldest event before appending, counting it in
/// [`FlightRecorder::overwritten`]. A zero-capacity recorder drops and
/// counts every event. Equality compares the retained events oldest →
/// newest, the capacity and the drop count, never the ring's rotation.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecorder {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    overwritten: u64,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events, fully allocated
    /// up front.
    pub fn new(capacity: usize) -> Self {
        Self { events: VecDeque::with_capacity(capacity), capacity, overwritten: 0 }
    }

    /// Records one event (allocation-free; drop-oldest on overflow).
    pub fn record(&mut self, event: TraceEvent) {
        if self.capacity == 0 {
            self.overwritten += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.overwritten += 1;
        }
        self.events.push_back(event);
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped (overwritten) to stay within capacity.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Retained events, oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Drains into `(events oldest → newest, overwritten count)`.
    pub(crate) fn into_events(self) -> (Vec<TraceEvent>, u64) {
        (self.events.into_iter().collect(), self.overwritten)
    }
}

/// One fixed-interval metrics sample of a shard engine.
///
/// The sample at boundary `b` reflects the engine after exactly the
/// simulated events with time `< b`, independent of which driver
/// (serial or shard-parallel) ran the shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSample {
    /// The sample boundary (a multiple of the configured interval).
    pub cycle: u64,
    /// Cluster shard (0 until stamped by the merge).
    pub shard: u32,
    /// Requests admitted but not yet sealed into a batch.
    pub queued: u32,
    /// Requests sealed into batches still executing.
    pub in_flight: u32,
    /// `queued + in_flight` — what the autoscaler thresholds.
    pub backlog: u32,
    /// Active lanes (autoscaling shrinks/grows this).
    pub active_lanes: u32,
}

/// One point of a per-model rolling-percentile series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MetricPoint {
    /// The boundary the window was closed at.
    pub cycle: u64,
    /// Nearest-rank p99 latency (cycles) over the completions in the
    /// window ending at `cycle`.
    pub p99_cycles: u64,
}

/// A per-model windowed-p99 time-series: one point per metrics
/// interval in which at least one request of the model completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ModelSeries {
    /// Model name.
    pub model: String,
    /// Cluster shard (0 until stamped by the merge).
    pub shard: u32,
    /// Window-close points in cycle order.
    pub points: Vec<MetricPoint>,
}

/// One accumulated wall-clock span: how much host time `label` cost
/// over the run, and how often it ran. **Excluded from [`Trace`]
/// equality** — wall-clock is never part of a run's simulated
/// identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostSpan {
    /// Span label (e.g. `"batch-execute"`, `"pipeline-calibrate"`).
    pub label: String,
    /// Times the span was entered.
    pub calls: u64,
    /// Total wall-clock nanoseconds across all calls.
    pub nanos: u128,
}

/// A small label-keyed accumulator of [`HostSpan`]s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HostSpans {
    spans: Vec<HostSpan>,
}

impl HostSpans {
    /// Folds one timed call into the span named `label`.
    pub(crate) fn add(&mut self, label: &str, elapsed: Duration) {
        match self.spans.iter_mut().find(|s| s.label == label) {
            Some(span) => {
                span.calls += 1;
                span.nanos += elapsed.as_nanos();
            }
            None => self.spans.push(HostSpan {
                label: label.to_string(),
                calls: 1,
                nanos: elapsed.as_nanos(),
            }),
        }
    }

    /// Folds every span of `other` into `self` (label-wise).
    pub(crate) fn merge(&mut self, other: &HostSpans) {
        for span in &other.spans {
            match self.spans.iter_mut().find(|s| s.label == span.label) {
                Some(mine) => {
                    mine.calls += span.calls;
                    mine.nanos += span.nanos;
                }
                None => self.spans.push(span.clone()),
            }
        }
    }

    /// The accumulated spans, in first-use order.
    pub(crate) fn spans(&self) -> &[HostSpan] {
        &self.spans
    }
}

/// Everything one run recorded: the event stream, the metrics
/// time-series, and the host-side diagnostics.
///
/// `PartialEq` covers only the **deterministic** halves — config,
/// events, overflow tally, metrics samples, per-model series and model
/// names. Host-side wall-clock spans are excluded,
/// so trace equality is a statement about the simulated run.
#[derive(Debug, Clone)]
pub struct Trace {
    pub(crate) config: TraceConfig,
    pub(crate) events: Vec<TraceEvent>,
    pub(crate) dropped_events: u64,
    pub(crate) model_names: Vec<String>,
    pub(crate) metrics: Vec<MetricsSample>,
    pub(crate) model_series: Vec<ModelSeries>,
    pub(crate) host_spans: HostSpans,
}

impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
            && self.events == other.events
            && self.dropped_events == other.dropped_events
            && self.model_names == other.model_names
            && self.metrics == other.metrics
            && self.model_series == other.model_series
    }
}

impl Trace {
    /// The retained events, in recording order (oldest → newest; for a
    /// merged cluster trace, `(cycle, shard)` order).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events the ring dropped (overwrote) under overflow.
    pub fn dropped_events(&self) -> u64 {
        self.dropped_events
    }

    /// The fixed-interval engine samples, in cycle order.
    pub fn metrics(&self) -> &[MetricsSample] {
        &self.metrics
    }

    /// Host-side wall-clock spans (excluded from equality).
    pub fn host_spans(&self) -> &[HostSpan] {
        self.host_spans.spans()
    }

    /// Requests carried by retained [`TraceEventKind::BatchCompleted`]
    /// events. Equals the report's served count whenever
    /// [`Trace::dropped_events`] is 0 — the conservation law the CI
    /// artifact check pins.
    pub fn completed_requests(&self) -> u64 {
        self.events.iter().filter(|e| e.kind == TraceEventKind::BatchCompleted).map(|e| e.b).sum()
    }

    /// Retained [`TraceEventKind::RequestDropped`] events — the
    /// report's dropped count whenever no events were overwritten.
    pub fn dropped_requests(&self) -> u64 {
        self.events.iter().filter(|e| e.kind == TraceEventKind::RequestDropped).count() as u64
    }

    fn model_name(&self, index: u32) -> &str {
        self.model_names.get(index as usize).map(String::as_str).unwrap_or("?")
    }

    /// Renders the trace as Chrome `trace_events` JSON — open in
    /// `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
    ///
    /// Mapping: **pid** = shard, **tid** = lane, **ts** = simulated
    /// cycles (not microseconds — the UI's time unit is nominal).
    /// Batches render as `B`/`E` span pairs on their lane track,
    /// pipeline stages as `X` complete events with their service
    /// cycles as duration, drops / deadline misses / stalls /
    /// autoscale decisions as `i` instants, and metrics samples as `C`
    /// counter tracks. All events are emitted in `(ts, pid)` order, so
    /// timestamps are monotone non-decreasing on every track.
    pub fn chrome_trace_json(&self) -> String {
        // (cycle, shard, emission index) keys keep the global emission
        // order deterministic and ts-sorted.
        let mut entries: Vec<(u64, u32, usize, String)> = Vec::new();
        let mut shards: Vec<u32> = Vec::new();
        for (i, e) in self.events.iter().enumerate() {
            if !shards.contains(&e.shard) {
                shards.push(e.shard);
            }
            let model = escape(self.model_name(e.model));
            let body = match e.kind {
                TraceEventKind::BatchSealed => format!(
                    r#"{{"name":"seal/{model}","ph":"i","s":"t","ts":{},"pid":{},"tid":{},"args":{{"batch":{},"requests":{}}}}}"#,
                    e.cycle, e.shard, e.lane, e.a, e.b
                ),
                TraceEventKind::BatchStarted => format!(
                    r#"{{"name":"batch {} {model}","ph":"B","ts":{},"pid":{},"tid":{},"args":{{"batch":{},"requests":{}}}}}"#,
                    e.a, e.cycle, e.shard, e.lane, e.a, e.b
                ),
                TraceEventKind::BatchCompleted => format!(
                    r#"{{"name":"batch {} {model}","ph":"E","ts":{},"pid":{},"tid":{}}}"#,
                    e.a, e.cycle, e.shard, e.lane
                ),
                TraceEventKind::RequestDropped => format!(
                    r#"{{"name":"drop/{model}","ph":"i","s":"t","ts":{},"pid":{},"tid":{},"args":{{"request":{},"queued":{}}}}}"#,
                    e.cycle, e.shard, e.lane, e.a, e.b
                ),
                TraceEventKind::DeadlineMiss => format!(
                    r#"{{"name":"deadline/{model}","ph":"i","s":"t","ts":{},"pid":{},"tid":{},"args":{{"requests":{}}}}}"#,
                    e.cycle, e.shard, e.lane, e.a
                ),
                TraceEventKind::StageDispatch => format!(
                    r#"{{"name":"stage{}/{model}","ph":"X","ts":{},"dur":{},"pid":{},"tid":{},"args":{{"batch":{}}}}}"#,
                    e.stage, e.cycle, e.b, e.shard, e.lane, e.a
                ),
                TraceEventKind::StageStall => format!(
                    r#"{{"name":"stall stage{}/{model}","ph":"i","s":"t","ts":{},"pid":{},"tid":{},"args":{{"batch":{},"stall_cycles":{}}}}}"#,
                    e.stage, e.cycle, e.shard, e.lane, e.a, e.b
                ),
                TraceEventKind::AutoscaleDecision => format!(
                    r#"{{"name":"autoscale {}->{}","ph":"i","s":"p","ts":{},"pid":{},"tid":0,"args":{{"from_lanes":{},"to_lanes":{},"backlog":{}}}}}"#,
                    e.lane, e.stage, e.cycle, e.shard, e.lane, e.stage, e.a
                ),
                TraceEventKind::LaneFailed => format!(
                    r#"{{"name":"lane_failed","ph":"i","s":"t","ts":{},"pid":{},"tid":{},"args":{{"duration":{},"factor":{}}}}}"#,
                    e.cycle, e.shard, e.lane, e.a, e.b
                ),
                TraceEventKind::LaneRecovered => format!(
                    r#"{{"name":"lane_recovered","ph":"i","s":"t","ts":{},"pid":{},"tid":{},"args":{{"duration":{},"factor":{}}}}}"#,
                    e.cycle, e.shard, e.lane, e.a, e.b
                ),
                TraceEventKind::RequestRetried => format!(
                    r#"{{"name":"request_retried/{model}","ph":"i","s":"t","ts":{},"pid":{},"tid":{},"args":{{"request":{},"attempt":{}}}}}"#,
                    e.cycle, e.shard, e.lane, e.a, e.b
                ),
                TraceEventKind::RequestHedged => format!(
                    r#"{{"name":"request_hedged/{model}","ph":"i","s":"t","ts":{},"pid":{},"tid":{},"args":{{"batch":{},"loser_lane":{}}}}}"#,
                    e.cycle, e.shard, e.lane, e.a, e.b
                ),
                TraceEventKind::ShardFailedOver => format!(
                    r#"{{"name":"shard_failed_over/{model}","ph":"i","s":"t","ts":{},"pid":{},"tid":0,"args":{{"request":{}}}}}"#,
                    e.cycle, e.shard, e.a
                ),
            };
            entries.push((e.cycle, e.shard, i, body));
        }
        for (i, s) in self.metrics.iter().enumerate() {
            if !shards.contains(&s.shard) {
                shards.push(s.shard);
            }
            entries.push((
                s.cycle,
                s.shard,
                self.events.len() + i,
                format!(
                    r#"{{"name":"engine","ph":"C","ts":{},"pid":{},"args":{{"queued":{},"in_flight":{},"active_lanes":{}}}}}"#,
                    s.cycle, s.shard, s.queued, s.in_flight, s.active_lanes
                ),
            ));
        }
        entries.sort_by_key(|&(cycle, shard, index, _)| (cycle, shard, index));
        shards.sort_unstable();
        let mut parts: Vec<String> = shards
            .iter()
            .map(|s| {
                format!(
                    r#"{{"name":"process_name","ph":"M","pid":{s},"args":{{"name":"shard {s}"}}}}"#
                )
            })
            .collect();
        parts.extend(entries.into_iter().map(|(_, _, _, body)| body));
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"clock\":\"simulated cycles\"}},\"traceEvents\":[\n{}\n]}}\n",
            parts.join(",\n")
        )
    }

    /// Renders the compact metrics JSON: config, event tallies, the
    /// fixed-interval samples, per-model p99 series and host spans.
    pub fn metrics_json(&self) -> String {
        let samples: Vec<String> = self
            .metrics
            .iter()
            .map(|s| {
                format!(
                    r#"{{"cycle":{},"shard":{},"queued":{},"in_flight":{},"backlog":{},"active_lanes":{}}}"#,
                    s.cycle, s.shard, s.queued, s.in_flight, s.backlog, s.active_lanes
                )
            })
            .collect();
        let series: Vec<String> = self
            .model_series
            .iter()
            .map(|m| {
                let points: Vec<String> =
                    m.points.iter().map(|p| format!("[{},{}]", p.cycle, p.p99_cycles)).collect();
                format!(
                    r#"{{"model":"{}","shard":{},"points":[{}]}}"#,
                    escape(&m.model),
                    m.shard,
                    points.join(",")
                )
            })
            .collect();
        let spans: Vec<String> = self
            .host_spans
            .spans()
            .iter()
            .map(|s| {
                format!(
                    r#"{{"label":"{}","calls":{},"millis":{:.3}}}"#,
                    escape(&s.label),
                    s.calls,
                    s.nanos as f64 / 1e6
                )
            })
            .collect();
        format!(
            concat!(
                "{{\"config\":{{\"event_capacity\":{},\"metrics_interval_cycles\":{}}},\n",
                "\"events_recorded\":{},\"events_overwritten\":{},\n",
                "\"completed_requests\":{},\"dropped_requests\":{},\n",
                "\"samples\":[{}],\n\"model_p99\":[{}],\n\"host_spans\":[{}]}}\n"
            ),
            self.config.event_capacity,
            self.config.metrics_interval_cycles,
            self.events.len(),
            self.dropped_events,
            self.completed_requests(),
            self.dropped_requests(),
            samples.join(","),
            series.join(","),
            spans.join(",")
        )
    }

    /// Merges per-shard traces into one cluster trace: every entry is
    /// stamped with its shard index, then the event stream and metrics
    /// samples are **stably** sorted by
    /// `(cycle, shard)` — the same merge discipline the cluster uses
    /// for its scale events, so the serial and shard-parallel drivers
    /// produce byte-identical merged traces. Returns `None` for an
    /// empty shard list.
    pub(crate) fn merge_shards(shard_traces: Vec<Trace>) -> Option<Trace> {
        let mut iter = shard_traces.into_iter().enumerate();
        let (_, mut merged) = iter.next()?;
        let stamp = |t: &mut Trace, shard: u32| {
            for e in &mut t.events {
                e.shard = shard;
            }
            for m in &mut t.metrics {
                m.shard = shard;
            }
            for s in &mut t.model_series {
                s.shard = shard;
            }
        };
        stamp(&mut merged, 0);
        for (s, mut t) in iter {
            stamp(&mut t, s as u32);
            merged.events.extend(t.events);
            merged.dropped_events += t.dropped_events;
            merged.metrics.extend(t.metrics);
            merged.model_series.extend(t.model_series);
            merged.host_spans.merge(&t.host_spans);
        }
        // Stable sorts: within a shard the emission order survives.
        merged.events.sort_by_key(|e| (e.cycle, e.shard));
        merged.metrics.sort_by_key(|m| (m.cycle, m.shard));
        Some(merged)
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// The finished [`Trace`] attached to a report.
///
/// The one report field **excluded from report equality**, so
/// attaching a recorder changes no byte of any report comparison (the
/// traced-vs-untraced guarantees in the test suite rest on it). Clones
/// start empty: a trace describes one concrete run.
#[derive(Debug, Default)]
pub(crate) struct TraceCell(OnceLock<Trace>);

impl TraceCell {
    /// The recorded trace, if this run had a recorder attached.
    pub(crate) fn get(&self) -> Option<&Trace> {
        self.0.get()
    }

    /// Stores the finished trace (once, at report assembly).
    pub(crate) fn set(&self, trace: Trace) {
        let _ = self.0.set(trace);
    }
}

impl Clone for TraceCell {
    /// Clones start empty — a trace describes one concrete run.
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl PartialEq for TraceCell {
    /// Always `true`: the recorder is observability, never part of a
    /// run's simulated identity (see the type docs).
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Eq for TraceCell {}

/// Live recording state owned by one engine while it runs. All
/// mutation goes through the engine's event handlers, which keeps the
/// stream deterministic: every hook fires at a simulated event, never
/// at a driver-dependent host boundary.
#[derive(Debug, Clone)]
pub(crate) struct TraceState {
    cfg: TraceConfig,
    recorder: FlightRecorder,
    metrics: Vec<MetricsSample>,
    next_boundary: u64,
    /// Per-model latency windows for the rolling p99 (reused across
    /// intervals: cleared, never reallocated, once warm).
    windows: Vec<Vec<u64>>,
    points: Vec<Vec<MetricPoint>>,
    host: HostSpans,
}

impl TraceState {
    pub(crate) fn new(cfg: TraceConfig, model_count: usize) -> Self {
        cfg.validate();
        Self {
            cfg,
            recorder: FlightRecorder::new(cfg.event_capacity),
            metrics: Vec::new(),
            next_boundary: cfg.metrics_interval_cycles,
            windows: vec![Vec::new(); model_count],
            points: vec![Vec::new(); model_count],
            host: HostSpans::default(),
        }
    }

    pub(crate) fn record(&mut self, event: TraceEvent) {
        self.recorder.record(event);
    }

    /// Adds `elapsed` host wall time to the `label` span.
    pub(crate) fn add_host_span(&mut self, label: &'static str, elapsed: Duration) {
        self.host.add(label, elapsed);
    }

    /// Closes every metrics boundary `<= now`. Call at the **top** of
    /// each simulated-event handler, before the event mutates engine
    /// state: the engine counters passed in then reflect exactly the
    /// events with time `< boundary`, whichever driver runs the shard.
    pub(crate) fn flush(&mut self, now: u64, queued: u32, in_flight: u32, active_lanes: u32) {
        while self.next_boundary <= now {
            let cycle = self.next_boundary;
            self.metrics.push(MetricsSample {
                cycle,
                shard: 0,
                queued,
                in_flight,
                backlog: queued + in_flight,
                active_lanes,
            });
            self.close_windows(cycle);
            self.next_boundary += self.cfg.metrics_interval_cycles;
        }
    }

    /// Emits a p99 point for every model whose window is non-empty,
    /// then resets the windows (keeping their capacity).
    fn close_windows(&mut self, cycle: u64) {
        for (model, window) in self.windows.iter_mut().enumerate() {
            if window.is_empty() {
                continue;
            }
            // In-place unstable sort: no allocation in the hot loop.
            window.sort_unstable();
            self.points[model].push(MetricPoint { cycle, p99_cycles: nearest_rank(window, 99.0) });
            window.clear();
        }
    }

    /// Feeds one served-request latency into its model's rolling
    /// window (call **after** flushing the completion's boundary).
    pub(crate) fn observe_latency(&mut self, model: usize, latency_cycles: u64) {
        self.windows[model].push(latency_cycles);
    }

    /// Final flush through the run's makespan, then assembly into the
    /// immutable [`Trace`]. Windows still holding completions at the
    /// makespan itself close at `makespan`.
    pub(crate) fn finish(mut self, makespan: u64, model_names: Vec<String>) -> Trace {
        // The run is over: queues and in-flight work are empty by
        // construction (the engine drains before reporting).
        self.flush(makespan, 0, 0, 0);
        self.close_windows(makespan);
        let cfg = self.cfg;
        let (events, dropped_events) = self.recorder.into_events();
        let model_series = model_names
            .iter()
            .zip(self.points)
            .filter(|(_, points)| !points.is_empty())
            .map(|(name, points)| ModelSeries { model: name.clone(), shard: 0, points })
            .collect();
        Trace {
            config: cfg,
            events,
            dropped_events,
            model_names,
            metrics: self.metrics,
            model_series,
            host_spans: self.host,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent { cycle, kind, shard: 0, lane: 0, model: 0, stage: 0, a: 1, b: 2 }
    }

    /// A recorder of `capacity` after recording cycles `0..pushes`.
    fn recorded(capacity: usize, pushes: u64) -> FlightRecorder {
        let mut rec = FlightRecorder::new(capacity);
        for cycle in 0..pushes {
            rec.record(ev(cycle, TraceEventKind::BatchSealed));
        }
        rec
    }

    /// Drop-oldest overflow, one `(capacity, pushes)` case per row,
    /// each with the cycles it keeps and the count it drops: zero
    /// capacity drops everything, capacity 1 keeps only the newest, an
    /// exact fit keeps every event in order, and overflow drops the
    /// oldest first. The backing store never grows past construction,
    /// and equality compares the retained events, the capacity and the
    /// drop count, never where the ring's head has rotated to.
    #[test]
    fn recorder_drop_oldest_overflow() {
        let cases: [(usize, u64, &[u64], u64); 6] = [
            (0, 5, &[], 5),
            (1, 1, &[0], 0),
            (1, 3, &[2], 2),
            (2, 3, &[1, 2], 1),
            (4, 4, &[0, 1, 2, 3], 0),
            (3, 7, &[4, 5, 6], 4),
        ];
        for (capacity, pushes, kept, dropped) in cases {
            let rec = recorded(capacity, pushes);
            let cycles: Vec<u64> = rec.iter().map(|e| e.cycle).collect();
            assert_eq!(cycles, kept, "capacity {capacity}, {pushes} pushes");
            assert_eq!((rec.len(), rec.is_empty()), (kept.len(), kept.is_empty()));
            assert_eq!(rec.overwritten(), dropped);
        }
        let allocated = FlightRecorder::new(8).events.capacity();
        let grown = recorded(8, 1_000).events.capacity();
        assert_eq!(grown, allocated, "the backing store must never grow");

        let mut rotated = recorded(3, 9);
        assert_eq!(rotated, recorded(3, 9));
        rotated.record(ev(9, TraceEventKind::BatchSealed));
        assert_ne!(rotated, recorded(3, 9));
        // The same three events, recorded once without wrapping and
        // once after the head has moved past the slot they started in.
        let mut wrapped = recorded(3, 3);
        wrapped.record(ev(3, TraceEventKind::BatchSealed));
        let mut fresh = FlightRecorder::new(3);
        for cycle in 1..4 {
            fresh.record(ev(cycle, TraceEventKind::BatchSealed));
        }
        fresh.overwritten = 1;
        assert_eq!(wrapped, fresh);
        // A different capacity is a different recorder even when the
        // retained events match.
        let (small, large) = (recorded(3, 3), recorded(5, 3));
        assert!(small.iter().eq(large.iter()));
        assert_ne!(small, large);
    }

    #[test]
    fn flush_emits_every_boundary_up_to_now() {
        let mut tr =
            TraceState::new(TraceConfig { event_capacity: 8, metrics_interval_cycles: 100 }, 1);
        tr.flush(250, 3, 2, 1);
        let cycles: Vec<u64> = tr.metrics.iter().map(|s| s.cycle).collect();
        assert_eq!(cycles, vec![100, 200]);
        assert!(tr.metrics.iter().all(|s| s.backlog == 5));
        // Flushing the same horizon again is a no-op.
        tr.flush(250, 9, 9, 9);
        assert_eq!(tr.metrics.len(), 2);
    }

    #[test]
    fn windows_close_at_the_first_boundary_after_the_completions() {
        let mut tr =
            TraceState::new(TraceConfig { event_capacity: 8, metrics_interval_cycles: 100 }, 2);
        tr.flush(40, 0, 1, 1);
        tr.observe_latency(0, 10);
        tr.observe_latency(0, 30);
        tr.observe_latency(1, 7);
        let trace = tr.finish(150, vec!["a".into(), "b".into()]);
        assert_eq!(trace.model_series.len(), 2);
        let a = &trace.model_series[0];
        assert_eq!((a.model.as_str(), a.points[0].cycle, a.points[0].p99_cycles), ("a", 100, 30));
        let b = &trace.model_series[1];
        assert_eq!((b.model.as_str(), b.points[0].cycle, b.points[0].p99_cycles), ("b", 100, 7));
    }

    #[test]
    fn chrome_export_is_ts_sorted_and_parseable_shape() {
        let mut tr = TraceState::new(TraceConfig::default(), 1);
        tr.record(ev(500, TraceEventKind::BatchSealed));
        tr.record(ev(700, TraceEventKind::BatchStarted));
        tr.record(ev(900, TraceEventKind::BatchCompleted));
        let trace = tr.finish(1_000, vec!["m".into()]);
        let json = trace.chrome_trace_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        let b = json.find("\"ph\":\"B\"").expect("start event");
        let e = json.find("\"ph\":\"E\"").expect("end event");
        assert!(b < e, "B/E pairs stay in ts order");
    }

    #[test]
    fn trace_equality_ignores_host_side_diagnostics() {
        let build = |nanos: u64| {
            let mut tr = TraceState::new(TraceConfig::default(), 1);
            tr.record(ev(10, TraceEventKind::BatchSealed));
            tr.host.add("execute", Duration::from_nanos(nanos));
            tr.finish(100, vec!["m".into()])
        };
        let a = build(5);
        let b = build(50_000);
        assert_eq!(a, b, "wall-clock spans must not affect trace equality");
        assert_ne!(a.host_spans()[0].nanos, b.host_spans()[0].nanos);
    }
}
