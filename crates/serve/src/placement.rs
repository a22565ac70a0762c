//! Where a sealed batch runs: the placement strategies, the lane rules
//! behind the two monolithic ones, and the service-time estimator
//! behind affinity placement.
//!
//! A sealed batch goes to the earliest-free lane (lowest index on
//! ties), or under [`PlacementStrategy::Affinity`] to the lane
//! minimizing its predicted completion from a per-`(arch, model)`
//! service estimate bootstrapped from the run's own completed batches.
//! Under [`PlacementStrategy::Pipelined`] no single lane is chosen: the
//! batch flows through its model's pinned stage lanes (see
//! [`crate::pipeline::PipelinePlan`]).

use s2ta_core::ArchKind;
use std::collections::HashMap;

/// How the fleet routes a sealed batch onto lanes. Set it with
/// [`crate::Fleet::with_placement`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PlacementStrategy {
    /// Dispatch to the lane that frees up first (lowest index on ties)
    /// — arch-blind, and the default.
    #[default]
    EarliestFree,
    /// Dispatch to the lane minimizing the *predicted completion time*
    /// `max(free, ready) + estimated service`, where the estimate is a
    /// per-`(arch, model)` running mean bootstrapped from the run's own
    /// completed batches. Lanes whose `(arch, model)` pair has no
    /// estimate yet predict zero service (optimistic), which both
    /// explores unknown lanes and makes the rule collapse to
    /// earliest-free before any evidence exists — and **always**
    /// collapse to earliest-free on homogeneous fleets, where every
    /// lane predicts the same service.
    Affinity,
    /// Layer-pipelined execution (SCNN-style stage dataflow): every
    /// model is partitioned into contiguous layer **stages** by its
    /// pipeline plan, each stage is pinned to a distinct
    /// lane, and a batch flows through the stage lanes in order — so
    /// stage `s` of batch `b` overlaps stage `s+1` of batch `b-1`, and
    /// a deep model no longer serializes a whole lane per batch.
    Pipelined {
        /// Stages per model: every model is partitioned into at most
        /// this many contiguous layer ranges (clamped to the lane and
        /// layer counts at partition time). Must be positive.
        stages: usize,
        /// Pending handoffs each inter-stage activation queue holds (2
        /// is double buffering): stage `s` may not begin batch `b`
        /// before stage `s+1` started draining batch `b - capacity`, so
        /// a fast upstream stage stalls instead of running unboundedly
        /// ahead of a slow consumer. Must be positive (a zero-slot
        /// boundary could never hand anything forward).
        queue_capacity: usize,
    },
}

/// Per-`(arch, model)` whole-model service-cycle estimates,
/// bootstrapped from the monolithic batches a serving run has
/// completed: the cost model of affinity placement and of fault-mode
/// hedging.
///
/// The estimate is the running mean of observed service cycles *per
/// request* on that architecture for that model, scaled by the
/// candidate batch size. Integer arithmetic keeps predictions exactly
/// reproducible for a fixed observation sequence.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct ServiceEstimator {
    /// `(arch, model) -> (requests observed, service cycles observed)`.
    stats: HashMap<(ArchKind, usize), (u64, u64)>,
}

impl ServiceEstimator {
    /// An empty estimator (every prediction is `None`).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records one executed whole-model batch: `requests` requests of
    /// `model` took `service_cycles` on an `arch` lane.
    pub(crate) fn record(
        &mut self,
        arch: ArchKind,
        model: usize,
        requests: usize,
        service_cycles: u64,
    ) {
        let entry = self.stats.entry((arch, model)).or_insert((0, 0));
        entry.0 += requests as u64;
        entry.1 += service_cycles;
    }

    /// Predicted service cycles of a `batch_size`-request whole-model
    /// batch of `model` on an `arch` lane, or `None` before any batch
    /// of that `(arch, model)` pair has executed.
    pub(crate) fn predict(&self, arch: ArchKind, model: usize, batch_size: usize) -> Option<u64> {
        let &(requests, cycles) = self.stats.get(&(arch, model))?;
        if requests == 0 {
            return None;
        }
        Some((cycles as u128 * batch_size as u128 / requests as u128) as u64)
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

/// The affinity choice: minimum predicted completion
/// `max(free, ready) + predicted_service[lane]`, ties broken by
/// `free_at` then index.
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

    #[test]
    fn earliest_free_lane_breaks_ties_low() {
        assert_eq!(earliest_free_lane(&[100, 100, 10, 10]), 2);
        assert_eq!(earliest_free_lane(&[0, 0]), 0);
    }

    #[test]
    fn estimator_predicts_mean_per_request_scaled_by_batch_size() {
        let mut e = ServiceEstimator::new();
        assert_eq!(e.predict(ArchKind::S2taAw, 0, 4), None, "no evidence, no estimate");
        e.record(ArchKind::S2taAw, 0, 2, 2_000);
        e.record(ArchKind::S2taAw, 0, 4, 4_600);
        // Mean per request = 6600 / 6 = 1100.
        assert_eq!(e.predict(ArchKind::S2taAw, 0, 3), Some(3_300));
        assert_eq!(e.predict(ArchKind::S2taAw, 1, 3), None, "models do not share estimates");
        assert_eq!(e.predict(ArchKind::SaZvcg, 0, 3), None, "archs do not share estimates");
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
