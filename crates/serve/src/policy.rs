//! Batching policies: when the scheduler closes a batch.
//!
//! [`BatchPolicy`] is a trait so the dispatch rule can *adapt* to the
//! serving loop: after every batch completes, the engine feeds the
//! policy a [`BatchObservation`], and the policy answers the next
//! [`BatchPolicy::limits_for`] query with (possibly updated) bounds.
//! Two policies ship:
//!
//! * [`FixedPolicy`] — static `max_batch`/`max_wait_cycles`, the PR 1
//!   behaviour. Its limits never move, so open-loop batch formation
//!   stays a pure function of the arrival stream (fleet-size
//!   independent event totals).
//! * [`SloAwarePolicy`] — tracks a window of observed request
//!   latencies and steers the limits toward a p99 target with an
//!   AIMD-style rule: shrink `max_wait`/`max_batch` when the observed
//!   tail approaches the SLO, grow them back toward the configured
//!   ceiling when there is slack. The policy runs either one **global**
//!   class (every model feeds one window and shares one pair of
//!   limits) or **per-model** [`SloClass`]es: each model gets its own
//!   target, ceiling, latency window and AIMD state, so a
//!   latency-critical model can run batch-tight while a throughput
//!   model on the same fleet batches deep. Every adjustment is a
//!   deterministic function of the observation sequence, so a `(seed,
//!   policy, workers)` triple reproduces a run exactly.

use std::fmt;

/// The scheduler's current batch-closure bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchLimits {
    /// Maximum requests per batch.
    pub max_batch: usize,
    /// Maximum cycles the oldest request of a batch may wait before the
    /// batch is dispatched anyway.
    pub max_wait_cycles: u64,
}

impl BatchLimits {
    /// Batch-of-one: every request dispatches immediately (the paper's
    /// batch-1 mobile setting).
    pub(crate) fn unbatched() -> Self {
        Self { max_batch: 1, max_wait_cycles: 0 }
    }
}

impl Default for BatchLimits {
    fn default() -> Self {
        Self { max_batch: 8, max_wait_cycles: 100_000 }
    }
}

/// What the serving engine saw when one batch completed. Fed to
/// [`BatchPolicy::observe`] in completion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchObservation {
    /// Model the batch served.
    pub model: usize,
    /// Requests in the batch.
    pub batch_size: usize,
    /// Cycle the batch became ready to dispatch.
    pub ready: u64,
    /// Cycle the batch started executing.
    pub start: u64,
    /// Cycle the batch completed.
    pub completion: u64,
    /// Worst member latency (its arrival to batch completion).
    pub max_latency_cycles: u64,
}

/// When the scheduler closes a batch.
///
/// Implementations must be deterministic: the limits returned may
/// depend only on the sequence of observations fed so far, never on
/// wall clocks or ambient state.
pub trait BatchPolicy: fmt::Debug {
    /// The policy's global bounds (for policies with per-model classes,
    /// the bounds of the first class).
    fn limits(&self) -> BatchLimits;

    /// The bounds the scheduler should apply to `model`'s lane right
    /// now. Policies without per-model state return the global limits.
    fn limits_for(&self, _model: usize) -> BatchLimits {
        self.limits()
    }

    /// Feedback after a batch completes (in completion order). Fixed
    /// policies ignore this.
    fn observe(&mut self, _observation: &BatchObservation) {}

    /// Short human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// The static policy: constant `max_batch` / `max_wait_cycles`.
///
/// Structurally identical to [`BatchLimits`] (the `From` conversions
/// below are the single source of truth for that correspondence); it
/// exists as its own type so the fleet's scheduler can demand a policy
/// that *provably* never moves. With this policy, open-loop batch
/// formation depends only on the arrival stream, which is what makes
/// [`crate::ServeReport`]'s event totals independent of the fleet size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedPolicy {
    /// Maximum requests per batch.
    pub max_batch: usize,
    /// Maximum cycles the oldest request of a batch may wait before the
    /// batch is dispatched anyway.
    pub max_wait_cycles: u64,
}

impl From<BatchLimits> for FixedPolicy {
    fn from(limits: BatchLimits) -> Self {
        Self { max_batch: limits.max_batch, max_wait_cycles: limits.max_wait_cycles }
    }
}

impl From<FixedPolicy> for BatchLimits {
    fn from(policy: FixedPolicy) -> Self {
        Self { max_batch: policy.max_batch, max_wait_cycles: policy.max_wait_cycles }
    }
}

impl Default for FixedPolicy {
    fn default() -> Self {
        BatchLimits::default().into()
    }
}

impl FixedPolicy {
    /// Batch-of-one: every request dispatches immediately (the paper's
    /// batch-1 mobile setting).
    pub fn unbatched() -> Self {
        BatchLimits::unbatched().into()
    }
}

impl BatchPolicy for FixedPolicy {
    fn limits(&self) -> BatchLimits {
        (*self).into()
    }

    fn name(&self) -> &'static str {
        "fixed"
    }
}

/// One model's latency SLO: the p99 target its batching window is
/// steered under and the deepest batching the model may ever use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloClass {
    /// Latency target the model's windowed p99 is steered under.
    pub target_p99_cycles: u64,
    /// Ceiling the model's limits may grow back to.
    pub ceiling: BatchLimits,
}

impl SloClass {
    /// A class steering toward `target_p99_cycles` with the default
    /// batching ceiling.
    pub fn new(target_p99_cycles: u64) -> Self {
        Self { target_p99_cycles, ceiling: BatchLimits::default() }
    }

    /// Replaces the batching ceiling.
    pub fn with_ceiling(mut self, ceiling: BatchLimits) -> Self {
        self.ceiling = ceiling;
        self
    }
}

/// The AIMD state of one SLO class: its configuration plus the current
/// limits and the sliding window of observed worst-member latencies.
#[derive(Debug, Clone, PartialEq)]
struct ClassState {
    class: SloClass,
    /// Floor for `max_wait_cycles` under backoff.
    min_wait_cycles: u64,
    /// Current limits.
    current: BatchLimits,
    /// Sliding window of observed worst-member latencies.
    window: Vec<u64>,
    /// Next slot to overwrite once the window is full.
    cursor: usize,
}

impl ClassState {
    fn new(class: SloClass) -> Self {
        assert!(class.target_p99_cycles > 0, "SLO target must be non-zero");
        assert!(class.ceiling.max_batch > 0, "max_batch ceiling must be non-zero");
        // The backoff floor must itself respect the ceiling, or a
        // ceiling below target/64 would make "multiplicative decrease"
        // *raise* the wait bound past the configured cap.
        let min_wait_cycles =
            (class.target_p99_cycles / 64).max(1).min(class.ceiling.max_wait_cycles);
        Self {
            class,
            min_wait_cycles,
            current: BatchLimits {
                max_batch: 1,
                max_wait_cycles: (class.target_p99_cycles / 8)
                    .max(min_wait_cycles)
                    .min(class.ceiling.max_wait_cycles),
            },
            window: Vec::with_capacity(SloAwarePolicy::WINDOW),
            cursor: 0,
        }
    }

    /// Windowed nearest-rank p99 of the observed latencies.
    fn windowed_p99(&self) -> u64 {
        let mut lat = self.window.clone();
        lat.sort_unstable();
        crate::report::nearest_rank(&lat, 99.0)
    }

    fn observe(&mut self, max_latency_cycles: u64) {
        if self.window.len() < SloAwarePolicy::WINDOW {
            self.window.push(max_latency_cycles);
        } else {
            self.window[self.cursor] = max_latency_cycles;
            self.cursor = (self.cursor + 1) % SloAwarePolicy::WINDOW;
        }
        if self.window.len() < SloAwarePolicy::WARMUP {
            return;
        }
        let p99 = self.windowed_p99();
        let target = self.class.target_p99_cycles;
        let ceiling = self.class.ceiling;
        if p99 > target / 5 * 4 {
            // Tail approaches the SLO: multiplicative decrease —
            // dispatch sooner, batch less.
            self.current.max_wait_cycles =
                (self.current.max_wait_cycles / 2).max(self.min_wait_cycles);
            self.current.max_batch = (self.current.max_batch - 1).max(1);
        } else if p99 < target / 5 * 2 {
            // Slack: additive increase toward the ceiling.
            let step = (self.current.max_wait_cycles / 4).max(1);
            self.current.max_wait_cycles =
                (self.current.max_wait_cycles + step).min(ceiling.max_wait_cycles);
            self.current.max_batch = (self.current.max_batch + 1).min(ceiling.max_batch);
        }
    }
}

/// Latency-SLO-aware adaptive policy.
///
/// Each class starts **tight** (batch-of-one, a small fraction of the
/// target as `max_wait`) so no request pays a deep batching window
/// before the policy has evidence, then keeps a sliding window of the
/// most recent observed request latencies (each batch contributes its
/// worst member). After every observation, once the window holds
/// `SloAwarePolicy::WARMUP` samples, the windowed p99 is compared
/// against the class target:
///
/// * **tail pressure** (`p99 > 4/5 · target`, i.e. the tail
///   *approaches* the SLO — a p99 exactly at the target is pressure):
///   multiplicative decrease — halve `max_wait_cycles` and drop one off
///   `max_batch` (floors: `min_wait_cycles`, batch 1). Smaller batches
///   dispatch sooner and shed queueing delay at the cost of
///   weight-streaming amortization.
/// * **slack** (`p99 < 2/5 · target`): additive increase — grow
///   `max_wait_cycles` by a quarter (at least 1) and `max_batch` by
///   one, capped at the configured ceiling, recovering batching
///   efficiency when the tail allows it.
///
/// The rule is the classic AIMD shape (as in congestion control):
/// conservative growth, aggressive backoff, converging to the deepest
/// batching window the SLO tolerates.
///
/// Built with [`SloAwarePolicy::new`], the policy runs one **global**
/// class: every model's observations feed one window and every lane
/// sees the same limits (the PR 2 behaviour). Built with
/// [`SloAwarePolicy::per_model`], model `m`'s lane is steered by
/// `classes[m]` alone: its own target, window and AIMD state.
#[derive(Debug, Clone, PartialEq)]
pub struct SloAwarePolicy {
    classes: Vec<ClassState>,
    per_model: bool,
}

impl SloAwarePolicy {
    /// Observations kept in each class's sliding latency window.
    pub(crate) const WINDOW: usize = 64;
    /// Observations required in a class before its first adjustment.
    pub(crate) const WARMUP: usize = 4;

    /// A policy steering every model toward one global
    /// `target_p99_cycles`, allowed to batch up to `ceiling`.
    ///
    /// # Panics
    ///
    /// Panics if the target is zero or `ceiling.max_batch` is zero.
    pub fn new(target_p99_cycles: u64, ceiling: BatchLimits) -> Self {
        Self {
            classes: vec![ClassState::new(SloClass { target_p99_cycles, ceiling })],
            per_model: false,
        }
    }

    /// A policy with one independent [`SloClass`] per model: model `m`
    /// is steered by `classes[m]` — its own target, ceiling, latency
    /// window and AIMD state. The classes list must match the fleet's
    /// model list.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is empty, or any class has a zero target or
    /// a zero `max_batch` ceiling.
    pub fn per_model(classes: Vec<SloClass>) -> Self {
        assert!(!classes.is_empty(), "per-model policy needs at least one class");
        Self { classes: classes.into_iter().map(ClassState::new).collect(), per_model: true }
    }

    /// The global latency target (for per-model policies, the first
    /// class's target).
    pub fn target_p99_cycles(&self) -> u64 {
        self.classes[0].class.target_p99_cycles
    }

    fn class_index(&self, model: usize) -> usize {
        if self.per_model {
            assert!(
                model < self.classes.len(),
                "model {model} has no SLO class (policy has {})",
                self.classes.len()
            );
            model
        } else {
            0
        }
    }
}

impl BatchPolicy for SloAwarePolicy {
    fn limits(&self) -> BatchLimits {
        self.classes[0].current
    }

    fn limits_for(&self, model: usize) -> BatchLimits {
        self.classes[self.class_index(model)].current
    }

    fn observe(&mut self, observation: &BatchObservation) {
        let idx = self.class_index(observation.model);
        self.classes[idx].observe(observation.max_latency_cycles);
    }

    fn name(&self) -> &'static str {
        if self.per_model {
            "slo-aware-per-model"
        } else {
            "slo-aware"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(latency: u64) -> BatchObservation {
        obs_for(0, latency)
    }

    fn obs_for(model: usize, latency: u64) -> BatchObservation {
        BatchObservation {
            model,
            batch_size: 1,
            ready: 0,
            start: 0,
            completion: latency,
            max_latency_cycles: latency,
        }
    }

    #[test]
    fn fixed_policy_never_moves() {
        let mut p = FixedPolicy { max_batch: 4, max_wait_cycles: 500 };
        let before = p.limits();
        for latency in [1u64, 1_000_000, 5] {
            p.observe(&obs(latency));
        }
        assert_eq!(p.limits(), before);
        assert_eq!(p.limits_for(3), before, "fixed limits are model-independent");
        assert_eq!(p.name(), "fixed");
    }

    #[test]
    fn slo_policy_starts_tight() {
        let ceiling = BatchLimits { max_batch: 8, max_wait_cycles: 100_000 };
        let p = SloAwarePolicy::new(10_000, ceiling);
        let start = p.limits();
        assert_eq!(start.max_batch, 1, "no speculative batching before evidence");
        assert!(start.max_wait_cycles <= 10_000 / 8);
        assert!(start.max_wait_cycles >= 1);
    }

    #[test]
    fn slo_policy_grows_under_slack_then_backs_off_under_pressure() {
        let ceiling = BatchLimits { max_batch: 8, max_wait_cycles: 100_000 };
        let mut p = SloAwarePolicy::new(10_000, ceiling);
        let start = p.limits();
        // Fast completions: limits must grow (never past the ceiling).
        for _ in 0..(SloAwarePolicy::WINDOW + 64) {
            p.observe(&obs(100));
        }
        let relaxed = p.limits();
        assert!(relaxed.max_wait_cycles > start.max_wait_cycles, "slack must grow the window");
        assert!(relaxed.max_batch > start.max_batch);
        assert_eq!(relaxed.max_batch, ceiling.max_batch, "full slack reaches the ceiling");
        assert_eq!(relaxed.max_wait_cycles, ceiling.max_wait_cycles);
        // The tail approaches the target (within the 4/5 band): back off.
        for _ in 0..SloAwarePolicy::WINDOW {
            p.observe(&obs(9_000));
        }
        let squeezed = p.limits();
        assert!(squeezed.max_wait_cycles < relaxed.max_wait_cycles, "pressure must shrink wait");
        assert!(squeezed.max_batch < relaxed.max_batch, "pressure must shrink batch");
        assert!(squeezed.max_batch >= 1);
    }

    #[test]
    fn slo_policy_floors_never_reach_zero() {
        let mut p = SloAwarePolicy::new(100, BatchLimits { max_batch: 2, max_wait_cycles: 10 });
        for _ in 0..256 {
            p.observe(&obs(1_000_000));
        }
        assert!(p.limits().max_batch >= 1);
        assert!(p.limits().max_wait_cycles >= 1);
    }

    /// Regression: with a ceiling below `target / 64` the backoff floor
    /// used to exceed the ceiling, so "multiplicative decrease" *grew*
    /// `max_wait_cycles` under tail pressure. The limits must never
    /// leave the configured box, in either adjustment direction.
    #[test]
    fn slo_policy_never_exceeds_a_tiny_ceiling() {
        let ceiling = BatchLimits { max_batch: 8, max_wait_cycles: 10 };
        let mut p = SloAwarePolicy::new(1_000_000, ceiling);
        for i in 0..256u64 {
            // Alternate pressure and slack to drive both branches.
            p.observe(&obs(if i % 2 == 0 { 5_000_000 } else { 1 }));
            let limits = p.limits();
            assert!(
                limits.max_wait_cycles <= ceiling.max_wait_cycles,
                "wait {} escaped ceiling {}",
                limits.max_wait_cycles,
                ceiling.max_wait_cycles
            );
            assert!(limits.max_batch <= ceiling.max_batch);
        }
    }

    #[test]
    fn slo_policy_is_deterministic() {
        let mk = || SloAwarePolicy::new(5_000, BatchLimits::default());
        let (mut a, mut b) = (mk(), mk());
        for i in 0..200u64 {
            let latency = (i * 7919) % 20_000;
            a.observe(&obs(latency));
            b.observe(&obs(latency));
        }
        assert_eq!(a, b);
        assert_eq!(a.limits(), b.limits());
    }

    /// AIMD boundary: when the wait floor equals the wait ceiling, the
    /// wait bound is pinned — neither pressure nor slack may move it,
    /// and `max_batch` still walks its own [1, ceiling] box.
    #[test]
    fn aimd_wait_floor_equal_to_ceiling_pins_the_wait_bound() {
        // target/64 = 1_000 >= ceiling wait 40, so min_wait clamps to
        // the ceiling: floor == ceiling == 40.
        let ceiling = BatchLimits { max_batch: 4, max_wait_cycles: 40 };
        let mut p = SloAwarePolicy::new(64_000, ceiling);
        assert_eq!(p.limits().max_wait_cycles, 40, "start clamps into the degenerate box");
        for i in 0..128u64 {
            p.observe(&obs(if i % 2 == 0 { 1_000_000 } else { 1 }));
            assert_eq!(p.limits().max_wait_cycles, 40, "floor == ceiling must pin the wait");
            assert!(p.limits().max_batch >= 1 && p.limits().max_batch <= 4);
        }
    }

    /// AIMD boundary: a single observation is below the warm-up count,
    /// so the limits must not move off their tight start.
    #[test]
    fn aimd_single_sample_window_never_adjusts() {
        let mut p = SloAwarePolicy::new(10_000, BatchLimits::default());
        let start = p.limits();
        p.observe(&obs(1_000_000)); // wild outlier, but only one sample
        assert_eq!(p.limits(), start, "one sample is not evidence");
        // Two more still sit below WARMUP = 4.
        p.observe(&obs(1_000_000));
        p.observe(&obs(1_000_000));
        assert_eq!(p.limits(), start);
        // The fourth completes the warm-up and finally backs off.
        p.observe(&obs(1_000_000));
        assert!(p.limits().max_wait_cycles < start.max_wait_cycles);
    }

    /// AIMD boundary: an observed p99 exactly at the target is
    /// pressure (`p99 > 4/5 · target` holds), so the policy backs off —
    /// running *at* the SLO leaves no headroom.
    #[test]
    fn aimd_p99_exactly_at_target_backs_off() {
        let target = 80_000u64;
        let mut p = SloAwarePolicy::new(target, BatchLimits::default());
        let start = p.limits();
        assert_eq!(start.max_wait_cycles, target / 8);
        for _ in 0..SloAwarePolicy::WARMUP {
            p.observe(&obs(target)); // windowed p99 == target exactly
        }
        let after = p.limits();
        assert_eq!(
            after.max_wait_cycles,
            start.max_wait_cycles / 2,
            "p99 == target must trigger multiplicative decrease"
        );
        assert_eq!(after.max_batch, 1);
    }

    /// Per-model classes adjust independently: pressure on model 0
    /// must not shrink model 1's window, and slack on model 1 must not
    /// grow model 0's.
    #[test]
    fn per_model_classes_have_independent_aimd_state() {
        let classes = vec![
            SloClass::new(10_000),
            SloClass::new(500_000)
                .with_ceiling(BatchLimits { max_batch: 16, max_wait_cycles: 200_000 }),
        ];
        let mut p = SloAwarePolicy::per_model(classes);
        assert_eq!(p.name(), "slo-aware-per-model");
        let targets: Vec<u64> = p.classes.iter().map(|c| c.class.target_p99_cycles).collect();
        assert_eq!(targets, [10_000, 500_000]);
        let start0 = p.limits_for(0);
        let start1 = p.limits_for(1);
        // Hammer model 0 with pressure, model 1 with slack.
        for _ in 0..64 {
            p.observe(&obs_for(0, 1_000_000));
            p.observe(&obs_for(1, 100));
        }
        assert!(p.limits_for(0).max_wait_cycles < start0.max_wait_cycles, "model 0 backs off");
        assert_eq!(p.limits_for(0).max_batch, 1);
        assert!(p.limits_for(1).max_wait_cycles > start1.max_wait_cycles, "model 1 grows");
        assert_eq!(p.limits_for(1).max_batch, 16, "model 1 reaches its own ceiling");
    }

    #[test]
    #[should_panic(expected = "no SLO class")]
    fn per_model_policy_rejects_unknown_models() {
        let p = SloAwarePolicy::per_model(vec![SloClass::new(1_000)]);
        let _ = p.limits_for(1);
    }

    #[test]
    fn global_policy_ignores_model_index() {
        let mut p = SloAwarePolicy::new(10_000, BatchLimits::default());
        for m in 0..4 {
            assert_eq!(p.limits_for(m), p.limits(), "global class covers every model");
        }
        // Observations from any model feed the one global window.
        for m in 0..SloAwarePolicy::WARMUP {
            p.observe(&obs_for(m, 1_000_000));
        }
        assert!(p.limits_for(9).max_wait_cycles < 10_000 / 8);
    }
}
