//! Batch-scheduling building blocks of the serving engine: deadline
//! tracking for open batches, the lane placement rules, and the
//! service-time estimator behind affinity placement.
//!
//! Batches form inside the event-driven engine ([`crate::Fleet::serve`]):
//! a model's open batch closes when it reaches
//! [`crate::BatchLimits::max_batch`] requests or when its oldest member
//! has waited [`crate::BatchLimits::max_wait_cycles`]. Under a fixed
//! policy, formation depends only on the arrival stream — never on lane
//! availability — so the batch set (and on a homogeneous fleet every
//! simulated event count) is identical for every fleet size. A sealed
//! batch then goes to the earliest-free lane (lowest index on ties), or
//! under [`PlacementStrategy::Affinity`] to the lane minimizing its
//! predicted completion from a per-`(arch, model)` [`ServiceEstimator`].
//!
//! Timeout closure is tracked with a deadline-ordered min-heap
//! ([`DeadlineHeap`]) instead of scanning every model lane per arrival:
//! each lane's *front* request defines its deadline, entries are pushed
//! when a lane front changes and invalidated lazily on pop, so an
//! arrival costs O(log models) amortized instead of O(models).
//!
//! **Deadline boundary semantics:** a batch closes only when its
//! deadline is *strictly* before the current time (`deadline < now`).
//! A request arriving exactly at the deadline of its lane's open batch
//! still joins that batch; the batch closes (at `ready == deadline`)
//! the moment any strictly later event is processed.

use crate::queue::RequestQueue;
use crate::timewheel::TimerWheel;
use s2ta_core::ArchKind;
use std::collections::HashMap;
use std::ops::Range;

/// Deadline-ordered min-heap over lane fronts.
///
/// An entry `(deadline, model, front_id)` is pushed whenever a lane
/// gains a new front request. Entries are invalidated lazily: a popped
/// entry whose `front_id` no longer matches the lane's current front is
/// stale (the front already left in an earlier batch) and is discarded.
/// At most one entry per lane is live at any time, and each request
/// pushes at most one entry over its lifetime, so the heap stays
/// O(pending) with O(log models) amortized cost per arrival.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeadlineHeap {
    /// Deadline-ordered timer wheel keyed by `(model, front_id)` — the
    /// same `(deadline, model, front_id)` pop order as the binary heap
    /// it replaced, at O(1) amortized per event.
    wheel: TimerWheel<(usize, u64)>,
    /// Compaction staging buffer; persistent so steady-state compaction
    /// allocates nothing once grown to its high-water mark.
    scratch: Vec<(u64, (usize, u64))>,
}

impl DeadlineHeap {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records `model`'s new front request by id with its wait
    /// deadline: the front's arrival plus the wait budget, or the
    /// re-queue instant plus the budget for a retried request.
    pub(crate) fn arm(&mut self, deadline: u64, model: usize, front_id: u64, queue: &RequestQueue) {
        self.wheel.push(deadline, (model, front_id));
        self.maybe_compact(queue);
    }

    /// Rebuilds the wheel from its live entries once stale ones
    /// dominate. Lazy invalidation keeps the wheel O(pending) only
    /// while each request arms at most once; retry and timeout churn
    /// re-arms the same lane's front repeatedly, which would otherwise
    /// grow the wheel O(events processed). At most one entry per lane
    /// is live (matches the lane's current front), so live ≤ models and
    /// a `4 × models` bound means stale entries outnumber live at least
    /// 3:1 before a rebuild. The wheel pops in exact `(deadline, key)`
    /// order even for past deadlines, so popping everything and
    /// re-pushing the surviving subset preserves the exact pop order —
    /// compaction is behaviourally invisible.
    fn maybe_compact(&mut self, queue: &RequestQueue) {
        let live_bound = queue.models().max(1);
        if self.wheel.len() < 64 || self.wheel.len() <= 4 * live_bound {
            return;
        }
        self.scratch.clear();
        while let Some((deadline, key)) = self.wheel.pop() {
            let (model, front_id) = key;
            if queue.front(model).is_some_and(|front| front.id == front_id) {
                self.scratch.push((deadline, key));
            }
        }
        for &(deadline, key) in &self.scratch {
            self.wheel.push(deadline, key);
        }
    }

    /// Number of entries (live + stale) currently held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.wheel.len()
    }

    /// The earliest live `(deadline, model)` pair, discarding stale
    /// entries against the queue's current lane fronts.
    pub(crate) fn peek_live(&mut self, queue: &RequestQueue) -> Option<(u64, usize)> {
        while let Some((deadline, (model, front_id))) = self.wheel.peek() {
            match queue.front(model) {
                Some(front) if front.id == front_id => return Some((deadline, model)),
                _ => {
                    self.wheel.pop();
                }
            }
        }
        None
    }

    /// Drops the current top entry (after a `peek_live` hit was acted
    /// on).
    pub(crate) fn pop(&mut self) {
        self.wheel.pop();
    }
}

/// How the fleet routes a sealed batch onto a lane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PlacementStrategy {
    /// Dispatch to the lane that frees up first (lowest index on ties)
    /// — arch-blind, the PR 1 behaviour and the default.
    #[default]
    EarliestFree,
    /// Dispatch to the lane minimizing the *predicted completion time*
    /// `max(free, ready) + estimated service`, where the estimate comes
    /// from a per-`(arch, model)` [`ServiceEstimator`] bootstrapped
    /// from the run's own completed batches. Lanes whose `(arch,
    /// model)` pair has no estimate yet predict zero service
    /// (optimistic), which both explores unknown lanes and makes the
    /// rule collapse to earliest-free before any evidence exists — and
    /// **always** collapse to earliest-free on homogeneous fleets,
    /// where every lane predicts the same service.
    Affinity,
    /// Layer-pipelined execution (SCNN-style stage dataflow): every
    /// model is partitioned into contiguous layer **stages** by a
    /// [`crate::PipelinePlan`], each stage is pinned to a distinct
    /// lane, and a batch flows through the stage lanes in order — so
    /// stage `s` of batch `b` overlaps stage `s+1` of batch `b-1`, and
    /// a deep model no longer serializes a whole lane per batch.
    /// Configure with [`crate::Fleet::with_pipeline`].
    Pipelined,
}

/// The layer scope of a service estimate: a whole model, or one
/// contiguous layer range of it (a pipeline stage).
type StageKey = (usize, usize);

/// Sentinel stage key for whole-model estimates.
const WHOLE_MODEL: StageKey = (0, usize::MAX);

/// Per-`(arch, model, stage)` service-cycle estimates, bootstrapped
/// from the batches a serving run has executed. Whole-model estimates
/// (the affinity cost model) and per-stage estimates (the pipeline
/// partitioner and its lane assignment) live in one table, keyed apart
/// by the stage's layer range.
///
/// The estimate is the running mean of observed service cycles *per
/// request* on that architecture for that scope, scaled by the
/// candidate batch size. Integer arithmetic keeps predictions exactly
/// reproducible for a fixed observation sequence.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceEstimator {
    /// `(arch, model, stage) -> (requests observed, service cycles
    /// observed)`.
    stats: HashMap<(ArchKind, usize, StageKey), (u64, u64)>,
}

impl ServiceEstimator {
    /// An empty estimator (every prediction is `None`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one executed whole-model batch: `requests` requests of
    /// `model` took `service_cycles` on an `arch` lane.
    pub fn record(&mut self, arch: ArchKind, model: usize, requests: usize, service_cycles: u64) {
        self.record_key(arch, model, WHOLE_MODEL, requests, service_cycles);
    }

    /// Records one executed **stage**: `requests` requests of `model`'s
    /// layers `stage` took `service_cycles` on an `arch` lane.
    pub fn record_stage(
        &mut self,
        arch: ArchKind,
        model: usize,
        stage: &Range<usize>,
        requests: usize,
        service_cycles: u64,
    ) {
        self.record_key(arch, model, (stage.start, stage.end), requests, service_cycles);
    }

    fn record_key(
        &mut self,
        arch: ArchKind,
        model: usize,
        stage: StageKey,
        requests: usize,
        service_cycles: u64,
    ) {
        let entry = self.stats.entry((arch, model, stage)).or_insert((0, 0));
        entry.0 += requests as u64;
        entry.1 += service_cycles;
    }

    /// Predicted service cycles of a `batch_size`-request whole-model
    /// batch of `model` on an `arch` lane, or `None` before any batch
    /// of that `(arch, model)` pair has executed.
    pub fn predict(&self, arch: ArchKind, model: usize, batch_size: usize) -> Option<u64> {
        self.predict_key(arch, model, WHOLE_MODEL, batch_size)
    }

    /// Predicted service cycles of a `batch_size`-request batch of
    /// `model`'s layers `stage` on an `arch` lane, or `None` before any
    /// execution of that exact `(arch, model, stage)` scope.
    pub fn predict_stage(
        &self,
        arch: ArchKind,
        model: usize,
        stage: &Range<usize>,
        batch_size: usize,
    ) -> Option<u64> {
        self.predict_key(arch, model, (stage.start, stage.end), batch_size)
    }

    fn predict_key(
        &self,
        arch: ArchKind,
        model: usize,
        stage: StageKey,
        batch_size: usize,
    ) -> Option<u64> {
        let &(requests, cycles) = self.stats.get(&(arch, model, stage))?;
        if requests == 0 {
            return None;
        }
        Some((cycles as u128 * batch_size as u128 / requests as u128) as u64)
    }

    /// Number of `(arch, model, stage)` scopes with at least one
    /// observation.
    pub fn len(&self) -> usize {
        self.stats.len()
    }

    /// `true` before the first observation.
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }
}

/// The earliest-free lane: minimum `free_at`, ties to the lowest index.
///
/// # Panics
///
/// Panics if `free_at` is empty.
pub(crate) fn earliest_free_lane(free_at: &[u64]) -> usize {
    free_at
        .iter()
        .enumerate()
        .min_by_key(|&(idx, &t)| (t, idx))
        .expect("a fleet needs at least one lane")
        .0
}

/// The affinity choice: minimum predicted completion `max(free, ready)
/// + predicted_service[lane]`, ties broken by `free_at` then index.
///
/// The tie-break order matters: when every lane predicts the same
/// service (a homogeneous fleet, or no estimates yet), the choice
/// reduces exactly to [`earliest_free_lane`] — predicted completions
/// tie whenever the batch's `ready` dominates, and the `free_at`
/// tie-break then picks the same lane the earliest-free rule would.
pub(crate) fn affinity_lane(free_at: &[u64], ready: u64, predicted_service: &[u64]) -> usize {
    debug_assert_eq!(free_at.len(), predicted_service.len());
    free_at
        .iter()
        .zip(predicted_service)
        .enumerate()
        .min_by_key(|&(idx, (&free, &svc))| (free.max(ready).saturating_add(svc), free, idx))
        .expect("a fleet needs at least one lane")
        .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FixedPolicy;
    use crate::workload::{Request, WorkloadSpec};
    use crate::Fleet;
    use s2ta_models::{lenet5, ModelSpec};

    fn req(id: u64, model: usize, arrival: u64) -> Request {
        Request { id, model, arrival, act_seed: id }
    }

    /// One batch as formed: its model, member ids in arrival order, and
    /// the cycle it became ready.
    #[derive(Debug, PartialEq, Eq)]
    struct Formed {
        model: usize,
        ids: Vec<u64>,
        ready: u64,
    }

    /// Serves `requests` (dense ids, arrival order) through the engine
    /// on a fleet with one lane per request, so no batch ever waits for
    /// a lane and each batch starts exactly at its ready time. The
    /// models are a one-layer LeNet head and every request carries the
    /// same input, so batches simulate from warm caches. Returns the
    /// batches in seal order and the dropped request ids.
    fn formed(
        policy: FixedPolicy,
        requests: &[Request],
        models: usize,
        capacity: Option<usize>,
    ) -> (Vec<Formed>, Vec<u64>) {
        let head = ModelSpec { name: "LeNet-5-conv1", layers: lenet5().layers[..1].to_vec() };
        let mut fleet = Fleet::new(ArchKind::S2taAw, requests.len().max(1)).with_policy(policy);
        if let Some(cap) = capacity {
            fleet = fleet.with_queue_capacity(cap);
        }
        let same_input: Vec<Request> =
            requests.iter().map(|r| Request { act_seed: 0, ..*r }).collect();
        let report = fleet.serve(&vec![head; models], &same_input);
        let mut batches: Vec<Option<Formed>> = (0..report.batches).map(|_| None).collect();
        let mut dropped = Vec::new();
        for o in &report.outcomes {
            let Some(s) = o.served() else {
                dropped.push(o.id());
                continue;
            };
            let batch = batches[s.batch].get_or_insert_with(|| Formed {
                model: requests[s.id as usize].model,
                ids: Vec::new(),
                ready: s.start,
            });
            assert_eq!(batch.ready, s.start, "a batch's members start together");
            batch.ids.push(s.id);
        }
        (batches.into_iter().map(|b| b.expect("batch ids are dense")).collect(), dropped)
    }

    /// The O(models)-scan batch former that predates [`DeadlineHeap`],
    /// kept as the reference the engine's heap-driven formation must
    /// match byte-for-byte.
    fn form_batches_reference(
        policy: FixedPolicy,
        requests: &[Request],
        models: usize,
    ) -> Vec<Formed> {
        let mut queue = RequestQueue::new(models);
        let mut batches: Vec<Formed> = Vec::new();
        let seal = |batches: &mut Vec<Formed>, model: usize, members: Vec<Request>, ready: u64| {
            batches.push(Formed { model, ids: members.iter().map(|r| r.id).collect(), ready });
        };
        let close_timed_out = |queue: &mut RequestQueue, now: u64, batches: &mut Vec<Formed>| loop {
            let next = (0..queue.models())
                .filter_map(|m| {
                    queue.front(m).map(|r| (r.arrival.saturating_add(policy.max_wait_cycles), m))
                })
                .min();
            match next {
                Some((deadline, model)) if deadline < now || now == u64::MAX => {
                    let members = queue.pop_batch(model, policy.max_batch);
                    seal(batches, model, members, deadline);
                }
                _ => return,
            }
        };
        for r in requests {
            close_timed_out(&mut queue, r.arrival, &mut batches);
            queue.push(*r);
            if queue.pending(r.model) == policy.max_batch {
                let members = queue.pop_batch(r.model, policy.max_batch);
                seal(&mut batches, r.model, members, r.arrival);
            }
        }
        close_timed_out(&mut queue, u64::MAX, &mut batches);
        batches
    }

    #[test]
    fn heap_path_is_byte_identical_to_scan_reference() {
        for seed in 0..20u64 {
            let models = 1 + (seed as usize % 4);
            let reqs = WorkloadSpec::uniform(seed, 400, 700.0, models).generate();
            // The longest wait outlasts the stream, so every open batch
            // closes in the end-of-stream drain.
            for (max_batch, max_wait) in [(1, 0), (3, 500), (8, 5_000), (4, 1 << 40)] {
                let policy = FixedPolicy { max_batch, max_wait_cycles: max_wait };
                let (batches, dropped) = formed(policy, &reqs, models, None);
                assert!(dropped.is_empty());
                assert_eq!(
                    batches,
                    form_batches_reference(policy, &reqs, models),
                    "seed {seed}, max_batch {max_batch}, max_wait {max_wait}"
                );
            }
        }
    }

    /// A retry/timeout storm re-arms the same lane's front thousands of
    /// times; lazy invalidation alone would let the wheel grow
    /// O(events). Compaction must pin it O(live) — bounded by a small
    /// constant times the model count — without changing what
    /// `peek_live` reports.
    #[test]
    fn deadline_heap_compacts_under_rearm_churn() {
        let models = 3;
        let mut queue = RequestQueue::new(models);
        let mut heap = DeadlineHeap::new();
        for m in 0..models {
            queue.push(req(m as u64, m, 10));
        }
        for round in 0..10_000u64 {
            let m = (round % models as u64) as usize;
            // Retire the lane's current front and replace it: each
            // replacement arms a fresh entry while the retired front's
            // entry goes stale only lazily — exactly the churn a retry
            // storm produces.
            queue.pop_batch(m, 1);
            let next = req(models as u64 + round, m, 10 + round);
            queue.push(next);
            heap.arm(next.arrival + 100, m, next.id, &queue);
        }
        assert!(
            heap.len() <= 64.max(4 * models),
            "wheel grew to {} entries across the storm; compaction must \
             keep it O(live)",
            heap.len()
        );
        // The storm must not have disturbed liveness: every lane's
        // current front is still discoverable in deadline order.
        let (_, model) = heap.peek_live(&queue).expect("live fronts remain");
        assert!(model < models);
    }

    #[test]
    fn size_closure() {
        let policy = FixedPolicy { max_batch: 2, max_wait_cycles: 1_000_000 };
        let reqs: Vec<Request> = (0..5).map(|i| req(i, 0, i * 10)).collect();
        let (batches, _) = formed(policy, &reqs, 1, None);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].ids, vec![0, 1]);
        assert_eq!(batches[0].ready, 10, "ready at the arrival that filled the batch");
        assert_eq!(batches[1].ids, vec![2, 3]);
        // The trailing singleton dispatches at its timeout.
        assert_eq!(batches[2].ids, vec![4]);
        assert_eq!(batches[2].ready, 40 + 1_000_000);
    }

    #[test]
    fn timeout_closure_bounds_waiting() {
        let policy = FixedPolicy { max_batch: 8, max_wait_cycles: 100 };
        let reqs = vec![req(0, 0, 0), req(1, 0, 50), req(2, 0, 200), req(3, 0, 220)];
        let (batches, _) = formed(policy, &reqs, 1, None);
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].ids, vec![0, 1]);
        assert_eq!(batches[0].ready, 100, "oldest member waited exactly max_wait");
        assert_eq!(batches[1].ids, vec![2, 3]);
        assert_eq!(batches[1].ready, 300);
    }

    /// Pins the `deadline < now` boundary: an arrival *exactly at* the
    /// open batch's deadline joins it; one cycle later it does not.
    #[test]
    fn arrival_exactly_at_deadline_joins_the_batch() {
        let policy = FixedPolicy { max_batch: 8, max_wait_cycles: 100 };
        // Second request lands exactly at 0 + 100.
        let (at, _) = formed(policy, &[req(0, 0, 0), req(1, 0, 100)], 1, None);
        assert_eq!(at.len(), 1, "deadline == now must not close the batch early");
        assert_eq!(at[0].ids, vec![0, 1]);
        assert_eq!(at[0].ready, 100, "joined batch still seals at the deadline");

        // One cycle past the deadline: the batch has already closed.
        let (past, _) = formed(policy, &[req(0, 0, 0), req(1, 0, 101)], 1, None);
        assert_eq!(past.len(), 2, "deadline < now must close the batch");
        assert_eq!(past[0].ids, vec![0]);
        assert_eq!(past[0].ready, 100);
        assert_eq!(past[1].ids, vec![1]);
    }

    /// A cross-lane arrival strictly after another lane's deadline
    /// seals that lane's batch first, keeping batch ids chronological.
    #[test]
    fn cross_lane_timeouts_fire_in_deadline_order() {
        let policy = FixedPolicy { max_batch: 8, max_wait_cycles: 10 };
        let reqs = vec![req(0, 0, 0), req(1, 1, 5), req(2, 2, 100)];
        let (batches, _) = formed(policy, &reqs, 3, None);
        let sealed: Vec<(usize, u64)> = batches.iter().map(|b| (b.model, b.ready)).collect();
        assert_eq!(sealed, vec![(0, 10), (1, 15), (2, 110)]);
    }

    #[test]
    fn batches_never_mix_models_and_lose_nothing() {
        let policy = FixedPolicy { max_batch: 3, max_wait_cycles: 500 };
        let reqs: Vec<Request> = (0..40).map(|i| req(i, (i % 3) as usize, i * 37)).collect();
        let (batches, _) = formed(policy, &reqs, 3, None);
        let mut seen: Vec<u64> = Vec::new();
        for b in &batches {
            assert!(!b.ids.is_empty() && b.ids.len() <= 3);
            for &id in &b.ids {
                let r = reqs[id as usize];
                assert_eq!(r.model, b.model, "mixed-model batch");
                assert!(b.ready <= r.arrival + 500, "request waited past the bound");
                assert!(b.ready >= r.arrival);
                seen.push(id);
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..40).collect::<Vec<_>>(), "dropped or duplicated requests");
    }

    #[test]
    fn fifo_within_and_across_batches_per_model() {
        let policy = FixedPolicy { max_batch: 4, max_wait_cycles: 100 };
        let reqs: Vec<Request> = (0..30).map(|i| req(i, (i % 2) as usize, i * 9)).collect();
        let (batches, _) = formed(policy, &reqs, 2, None);
        for model in 0..2 {
            let order: Vec<u64> =
                batches.iter().filter(|b| b.model == model).flat_map(|b| b.ids.clone()).collect();
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(order, sorted, "model {model} not FIFO");
        }
    }

    #[test]
    fn bounded_formation_tail_drops_and_reopens() {
        let policy = FixedPolicy { max_batch: 4, max_wait_cycles: 1_000 };
        // Five rapid arrivals against a lane capacity of 2: the first
        // two queue and the next three drop. Once the timeout drains
        // the lane, a late arrival is admitted again.
        let mut reqs: Vec<Request> = (0..5).map(|i| req(i, 0, i)).collect();
        reqs.push(req(5, 0, 5_000));
        let (batches, dropped) = formed(policy, &reqs, 1, Some(2));
        assert_eq!(dropped, vec![2, 3, 4], "tail drop must refuse the newest arrivals");
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].ids, vec![0, 1]);
        assert_eq!(batches[1].ids, vec![5], "the drained lane admits again");
    }

    #[test]
    fn unbounded_capacity_matches_plain_formation() {
        let reqs = WorkloadSpec::uniform(13, 200, 300.0, 2).generate();
        let policy = FixedPolicy { max_batch: 4, max_wait_cycles: 2_000 };
        let bounded = formed(policy, &reqs, 2, Some(usize::MAX));
        assert!(bounded.1.is_empty());
        assert_eq!(bounded, formed(policy, &reqs, 2, None));
    }

    #[test]
    fn earliest_free_lane_breaks_ties_low() {
        assert_eq!(earliest_free_lane(&[100, 100, 10, 10]), 2);
        assert_eq!(earliest_free_lane(&[0, 0]), 0);
    }

    #[test]
    fn estimator_predicts_mean_per_request_scaled_by_batch_size() {
        let mut e = ServiceEstimator::new();
        assert!(e.is_empty());
        assert_eq!(e.predict(ArchKind::S2taAw, 0, 4), None, "no evidence, no estimate");
        e.record(ArchKind::S2taAw, 0, 2, 2_000);
        e.record(ArchKind::S2taAw, 0, 4, 4_600);
        // Mean per request = 6600 / 6 = 1100.
        assert_eq!(e.predict(ArchKind::S2taAw, 0, 3), Some(3_300));
        assert_eq!(e.predict(ArchKind::S2taAw, 1, 3), None, "models do not share estimates");
        assert_eq!(e.predict(ArchKind::SaZvcg, 0, 3), None, "archs do not share estimates");
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn estimator_keys_stages_apart_from_whole_models() {
        let mut e = ServiceEstimator::new();
        e.record(ArchKind::S2taAw, 0, 2, 2_000);
        e.record_stage(ArchKind::S2taAw, 0, &(0..3), 2, 400);
        e.record_stage(ArchKind::S2taAw, 0, &(3..5), 2, 1_600);
        assert_eq!(e.len(), 3, "whole-model and stage scopes are distinct keys");
        assert_eq!(e.predict(ArchKind::S2taAw, 0, 1), Some(1_000));
        assert_eq!(e.predict_stage(ArchKind::S2taAw, 0, &(0..3), 1), Some(200));
        assert_eq!(e.predict_stage(ArchKind::S2taAw, 0, &(3..5), 4), Some(3_200));
        assert_eq!(
            e.predict_stage(ArchKind::S2taAw, 0, &(0..5), 1),
            None,
            "an unobserved range has no estimate, even if sub-ranges do"
        );
        assert_eq!(e.predict_stage(ArchKind::SaZvcg, 0, &(0..3), 1), None);
    }

    #[test]
    fn affinity_lane_reduces_to_earliest_free_on_equal_predictions() {
        // Exhaustive tie-break check over a few free/ready shapes: with
        // lane-independent predictions, affinity must pick exactly the
        // earliest-free lane.
        for free_at in [vec![0, 0, 0], vec![10, 5, 20], vec![7, 7, 3], vec![100, 2, 2]] {
            for ready in [0u64, 4, 50, 1_000] {
                for svc in [0u64, 123] {
                    let pred = vec![svc; free_at.len()];
                    assert_eq!(
                        affinity_lane(&free_at, ready, &pred),
                        earliest_free_lane(&free_at),
                        "free {free_at:?} ready {ready} svc {svc}"
                    );
                }
            }
        }
    }

    #[test]
    fn affinity_lane_prefers_the_faster_lane_even_when_busy() {
        // Lane 0 frees at 100 but is predicted 10x faster than lane 1
        // (free now): completion 100+50=150 vs 0+500=500.
        assert_eq!(affinity_lane(&[100, 0], 0, &[50, 500]), 0);
        // If the fast lane is backed up far enough, the slow lane wins.
        assert_eq!(affinity_lane(&[600, 0], 0, &[50, 500]), 1);
    }
}
