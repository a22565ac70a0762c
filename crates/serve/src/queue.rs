//! The request queue: per-model FIFO lanes with optional per-lane
//! admission bounds, and the one deadline slot per lane that closes
//! its batch on timeout.
//!
//! Batches form inside the event-driven engine ([`crate::Fleet::serve`]):
//! a model's open batch closes when it reaches
//! [`crate::BatchLimits::max_batch`] requests or when its oldest member
//! has waited [`crate::BatchLimits::max_wait_cycles`]. Under a fixed
//! policy, formation depends only on the arrival stream — never on lane
//! availability — so the batch set (and on a homogeneous fleet every
//! simulated event count) is identical for every fleet size.
//!
//! A lane has at most one open batch, so it has at most one deadline:
//! its front request's. Each lane keeps that deadline in one slot,
//! which the engine arms whenever the lane gains a new front and every
//! pop clears. The next timeout is a min over the model lanes' slots,
//! and no slot can outlive the front it was armed for.
//!
//! **Deadline boundary semantics:** a batch closes only when its
//! deadline is *strictly* before the current time (`deadline < now`).
//! A request arriving exactly at the deadline of its lane's open batch
//! still joins that batch; the batch closes (at `ready == deadline`)
//! the moment any strictly later event is processed.

use crate::workload::Request;
use std::collections::VecDeque;

/// Pending requests, FIFO per model.
///
/// Keeping one lane per model makes the engine's batching rule ("a
/// batch holds one model's requests in arrival order") a structural
/// property instead of an invariant to re-check: a lane can only ever
/// hand out compatible, ordered requests.
///
/// A queue built with [`RequestQueue::bounded`] additionally enforces
/// **admission control**: each lane holds at most `capacity` pending
/// requests, and [`RequestQueue::try_push`] refuses (tail-drops) the
/// incoming request when its lane is full. Tail drop is deterministic —
/// whether a request is admitted depends only on the arrival stream and
/// the batch-closure history, never on host timing.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct RequestQueue {
    lanes: Vec<VecDeque<Request>>,
    /// Per lane, the wait deadline of its front request: armed by the
    /// engine ([`RequestQueue::arm`]), cleared by every pop.
    deadlines: Vec<Option<u64>>,
    capacity: Option<usize>,
}

impl RequestQueue {
    /// An empty unbounded queue with one FIFO lane per model.
    pub(crate) fn new(models: usize) -> Self {
        Self {
            lanes: (0..models).map(|_| VecDeque::new()).collect(),
            deadlines: vec![None; models],
            capacity: None,
        }
    }

    /// An empty queue admitting at most `capacity` pending requests per
    /// model lane. A capacity of zero drops every request.
    pub(crate) fn bounded(models: usize, capacity: usize) -> Self {
        Self { capacity: Some(capacity), ..Self::new(models) }
    }

    /// Offers a request to its model's lane: `true` if admitted,
    /// `false` if the lane was at capacity and the request was dropped.
    ///
    /// # Panics
    ///
    /// Panics if the request names a model the queue has no lane for.
    pub(crate) fn try_push(&mut self, request: Request) -> bool {
        assert!(
            request.model < self.lanes.len(),
            "request {} names model {} but the queue has {} lanes",
            request.id,
            request.model,
            self.lanes.len()
        );
        let lane = &mut self.lanes[request.model];
        if self.capacity.is_some_and(|cap| lane.len() >= cap) {
            return false;
        }
        lane.push_back(request);
        true
    }

    /// Enqueues a request on its model's lane.
    ///
    /// # Panics
    ///
    /// Panics if the request names a model the queue has no lane for,
    /// or if the lane is at capacity (use [`RequestQueue::try_push`]
    /// when drops are expected).
    #[cfg(test)]
    pub(crate) fn push(&mut self, request: Request) {
        let id = request.id;
        assert!(self.try_push(request), "request {id} dropped: lane at capacity");
    }

    /// The oldest pending request for `model`, if any.
    pub(crate) fn front(&self, model: usize) -> Option<&Request> {
        self.lanes.get(model).and_then(VecDeque::front)
    }

    /// Dequeues up to `max` requests from `model`'s lane, preserving
    /// arrival order. The lane's deadline goes with its front: the
    /// caller arms the next front's, if one remains.
    pub(crate) fn pop_batch(&mut self, model: usize, max: usize) -> Vec<Request> {
        self.deadlines[model] = None;
        let lane = &mut self.lanes[model];
        let take = max.min(lane.len());
        lane.drain(..take).collect()
    }

    /// Dequeues every **full** batch of exactly `max_batch` requests
    /// from `model`'s lane, preserving arrival order, and leaves the
    /// sub-`max_batch` remainder queued. Equivalent to calling
    /// [`RequestQueue::pop_batch`] while `pending >= max_batch` — the
    /// engine's size-trigger burst when an adaptive policy shrinks
    /// `max_batch` below a lane's backlog.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    pub(crate) fn pop_full_batches(&mut self, model: usize, max_batch: usize) -> Vec<Vec<Request>> {
        assert!(max_batch > 0, "max_batch must be non-zero");
        let mut batches = Vec::new();
        while self.pending(model) >= max_batch {
            batches.push(self.pop_batch(model, max_batch));
        }
        batches
    }

    /// Pending requests for one model.
    pub(crate) fn pending(&self, model: usize) -> usize {
        self.lanes.get(model).map_or(0, VecDeque::len)
    }

    /// Number of model lanes.
    #[cfg(test)]
    pub(crate) fn models(&self) -> usize {
        self.lanes.len()
    }

    /// Sets the wait deadline of `model`'s current front request: the
    /// front's arrival plus the wait budget, or the re-queue instant
    /// plus the budget for a retried request.
    pub(crate) fn arm(&mut self, model: usize, deadline: u64) {
        debug_assert!(!self.lanes[model].is_empty(), "only a lane front has a deadline");
        self.deadlines[model] = Some(deadline);
    }

    /// The earliest armed `(deadline, model)`, lower model first at
    /// equal deadlines.
    pub(crate) fn next_deadline(&self) -> Option<(u64, usize)> {
        debug_assert!(
            self.lanes.iter().zip(&self.deadlines).all(|(l, d)| l.is_empty() == d.is_none()),
            "every non-empty lane, and no empty one, has its front's deadline armed"
        );
        self.deadlines.iter().enumerate().filter_map(|(model, d)| d.map(|t| (t, model))).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FixedPolicy;
    use crate::workload::WorkloadSpec;
    use crate::Fleet;
    use s2ta_core::ArchKind;
    use s2ta_models::{lenet5, ModelSpec};

    fn req(id: u64, model: usize, arrival: u64) -> Request {
        Request { id, model, arrival, act_seed: id ^ 0xabcd }
    }

    /// Pending requests across every lane.
    fn total(q: &RequestQueue) -> usize {
        (0..q.models()).map(|m| q.pending(m)).sum()
    }

    #[test]
    fn fifo_per_lane() {
        let mut q = RequestQueue::new(2);
        for (i, m) in [(0, 0), (1, 1), (2, 0), (3, 0), (4, 1)] {
            q.push(req(i, m, i));
        }
        assert_eq!(total(&q), 5);
        assert_eq!(q.pending(0), 3);
        let batch = q.pop_batch(0, 2);
        assert_eq!(batch.iter().map(|r| r.id).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(q.front(0).map(|r| r.id), Some(3));
        assert_eq!(total(&q), 3);
        assert_eq!(q.pop_batch(1, 10).len(), 2);
        assert_eq!(q.pop_batch(0, 10).len(), 1);
        assert_eq!(total(&q), 0);
    }

    #[test]
    #[should_panic(expected = "lanes")]
    fn unknown_model_rejected() {
        RequestQueue::new(1).push(req(0, 3, 0));
    }

    #[test]
    fn pop_full_batches_drains_whole_chunks_and_keeps_the_remainder() {
        let mut q = RequestQueue::new(1);
        for i in 0..7 {
            q.push(req(i, 0, i));
        }
        let batches = q.pop_full_batches(0, 3);
        assert_eq!(batches.len(), 2, "7 pending at max_batch 3 -> two full batches");
        assert_eq!(batches[0].iter().map(|r| r.id).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(batches[1].iter().map(|r| r.id).collect::<Vec<_>>(), vec![3, 4, 5]);
        assert_eq!(q.pending(0), 1, "sub-max_batch remainder stays queued");
        assert_eq!(q.front(0).map(|r| r.id), Some(6));
        assert!(q.pop_full_batches(0, 3).is_empty(), "remainder below max_batch seals nothing");
    }

    /// Exact-multiple occupancy: every request drains into full
    /// batches and nothing lingers.
    #[test]
    fn pop_full_batches_with_exact_multiple_occupancy_leaves_nothing() {
        let mut q = RequestQueue::new(1);
        for i in 0..6 {
            q.push(req(i, 0, i));
        }
        let batches = q.pop_full_batches(0, 3);
        assert_eq!(batches.len(), 2, "6 pending at max_batch 3 -> exactly two full batches");
        assert!(batches.iter().all(|b| b.len() == 3));
        assert_eq!(total(&q), 0, "an exact multiple must drain the lane completely");
        assert_eq!(q.front(0), None);
        assert_eq!(q.pending(0), 0);
        // An empty lane seals nothing, and max_batch == 1 drains each
        // request as its own batch.
        assert!(q.pop_full_batches(0, 1).is_empty());
        q.push(req(6, 0, 6));
        q.push(req(7, 0, 7));
        let singles = q.pop_full_batches(0, 1);
        assert_eq!(singles.len(), 2);
        assert!(singles.iter().all(|b| b.len() == 1));
    }

    #[test]
    #[should_panic(expected = "max_batch must be non-zero")]
    fn pop_full_batches_rejects_zero_max_batch() {
        RequestQueue::new(1).pop_full_batches(0, 0);
    }

    /// Capacity 1 is the tail-drop boundary: one request occupies the
    /// lane, the next drops, and draining reopens exactly one slot.
    #[test]
    fn capacity_one_admits_exactly_one_pending_request() {
        let mut q = RequestQueue::bounded(2, 1);
        assert!(q.try_push(req(0, 0, 0)));
        assert!(!q.try_push(req(1, 0, 1)), "second request must tail-drop at capacity 1");
        // The sibling lane has its own slot.
        assert!(q.try_push(req(2, 1, 2)));
        assert!(!q.try_push(req(3, 1, 3)));
        assert_eq!(total(&q), 2);
        // Popping the single pending request reopens exactly one slot.
        assert_eq!(q.pop_batch(0, 8).len(), 1);
        assert!(q.try_push(req(4, 0, 4)));
        assert!(!q.try_push(req(5, 0, 5)));
        assert_eq!(q.pending(0), 1);
    }

    /// Capacity 0 at the fleet level: every request is refused at
    /// admission and the report stays calm (drop-only run).
    #[test]
    fn capacity_zero_queue_reports_every_push_refused() {
        let mut q = RequestQueue::bounded(3, 0);
        for i in 0..10 {
            assert!(!q.try_push(req(i, (i % 3) as usize, i)));
        }
        assert_eq!(total(&q), 0);
        for m in 0..3 {
            assert_eq!(q.front(m), None);
            assert!(q.pop_full_batches(m, 1).is_empty());
            assert!(q.pop_batch(m, 4).is_empty());
        }
    }

    #[test]
    fn bounded_lane_tail_drops_at_capacity() {
        let mut q = RequestQueue::bounded(2, 2);
        assert!(q.try_push(req(0, 0, 0)));
        assert!(q.try_push(req(1, 0, 1)));
        assert!(!q.try_push(req(2, 0, 2)), "third request must tail-drop");
        // The other lane is unaffected.
        assert!(q.try_push(req(3, 1, 3)));
        assert_eq!(total(&q), 3);
        // Draining the lane re-opens admission.
        q.pop_batch(0, 2);
        assert!(q.try_push(req(4, 0, 4)));
        assert_eq!(q.pending(0), 1);
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let mut q = RequestQueue::bounded(1, 0);
        assert!(!q.try_push(req(0, 0, 0)));
        assert_eq!(total(&q), 0);
    }

    #[test]
    fn unbounded_queue_never_drops() {
        let mut q = RequestQueue::new(1);
        for i in 0..10_000 {
            assert!(q.try_push(req(i, 0, i)));
        }
        assert_eq!(total(&q), 10_000);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn push_panics_on_full_bounded_lane() {
        let mut q = RequestQueue::bounded(1, 1);
        q.push(req(0, 0, 0));
        q.push(req(1, 0, 1));
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

    /// The O(models)-scan batch former that predates the engine's
    /// deadline heap (now one deadline slot per lane), kept as the
    /// reference the engine's formation must match byte-for-byte.
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
}
