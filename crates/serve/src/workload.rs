//! Workload generation: deterministic streams of inference requests in
//! open-loop and closed-loop client modes.
//!
//! * **Open loop** ([`WorkloadSpec`]) — arrivals do not depend on
//!   service progress (the standard serving-benchmark methodology): a
//!   seeded 64-bit LCG drives exponential interarrival gaps and the
//!   model mix, so a `(seed, spec)` pair always produces the identical
//!   request stream — no wall clocks, no OS randomness.
//! * **Closed loop** ([`ClosedLoopSpec`] / [`ClosedLoopClient`]) — each
//!   of C concurrent clients issues its next request only after its
//!   previous one completes (plus an exponential think gap). Arrivals
//!   are therefore a fixed point of the placement: the serving engine
//!   iterates them per-request in simulated time, and the stream stays
//!   deterministic for a fixed `(seed, policy, workers)` triple.

use std::fmt;

/// One inference request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Unique, dense id in arrival order (`0..n`).
    pub id: u64,
    /// Index of the requested model in the fleet's model list.
    pub model: usize,
    /// Arrival time in accelerator cycles since stream start.
    pub arrival: u64,
    /// Seed for this request's activation inputs (each request is a
    /// distinct inference input; weights are shared per model).
    pub act_seed: u64,
}

/// A splittable deterministic random stream (64-bit LCG, high bits).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Lcg {
    state: u64,
}

impl Lcg {
    pub(crate) fn new(seed: u64) -> Self {
        // Offset the seed so seed 0 does not start in a low-entropy
        // state.
        Self { state: seed.wrapping_add(0x9e37_79b9_7f4a_7c15) }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        // Knuth's MMIX multiplier; the low bits of an LCG are weak, so
        // outputs fold the high half in.
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.state ^ (self.state >> 32)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Validated traffic mix shared by the open- and closed-loop
/// generators: relative weights plus the index of the last model with
/// positive weight, so floating-point exhaustion in sampling can never
/// route traffic to a zero-weight model.
#[derive(Debug, Clone, PartialEq)]
struct Mix {
    weights: Vec<f64>,
    total: f64,
    last_positive: usize,
}

impl Mix {
    fn validate(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "workload mix must name at least one model");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "mix weights must be finite and non-negative"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "mix weights must not all be zero");
        let last_positive =
            weights.iter().rposition(|w| *w > 0.0).expect("total > 0 implies a positive weight");
        Self { weights: weights.to_vec(), total, last_positive }
    }

    /// Samples a model index proportional to the weights. The fallback
    /// when floating-point error exhausts `pick` past the end is the
    /// last *positive-weight* model, so zero-weight models never
    /// receive traffic.
    fn sample(&self, rng: &mut Lcg) -> usize {
        let mut pick = rng.next_f64() * self.total;
        for (i, w) in self.weights.iter().enumerate().take(self.last_positive) {
            if pick < *w {
                return i;
            }
            pick -= w;
        }
        self.last_positive
    }
}

/// Exponential interarrival sampler that carries the fractional part of
/// every gap forward instead of flooring it, so the realized mean gap
/// tracks the spec even when the mean is well below one cycle. The mean
/// comes with each draw, so fixed-rate, diurnal and closed-loop streams
/// share it.
#[derive(Debug, Clone, Default, PartialEq)]
struct GapSampler {
    carry: f64,
}

impl GapSampler {
    /// The next whole-cycle gap, exponentially distributed with mean
    /// `mean`; the sub-cycle remainder accumulates into the next draw
    /// rather than being truncated away.
    fn next_gap(&mut self, mean: f64, rng: &mut Lcg) -> u64 {
        // Exponential gap: -mean * ln(1 - U). U < 1 so the log argument
        // is in (0, 1].
        let gap = -mean * (1.0 - rng.next_f64()).ln() + self.carry;
        let whole = gap.floor();
        self.carry = gap - whole;
        whole as u64
    }
}

/// Rejects a mean gap no exponential draw can use.
fn assert_mean_gap(mean: f64) {
    assert!(mean >= 0.0 && mean.is_finite(), "mean gap must be finite and non-negative");
}

/// Specification of an open-loop request stream.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Seed for the whole stream.
    pub seed: u64,
    /// Number of requests to generate.
    pub requests: usize,
    /// Mean interarrival gap in cycles (exponentially distributed, i.e.
    /// Poisson arrivals).
    pub mean_interarrival_cycles: f64,
    /// Relative traffic weight per model (must match the fleet's model
    /// list length; need not be normalized).
    pub mix: Vec<f64>,
}

impl WorkloadSpec {
    /// A uniform mix over `models` models.
    pub fn uniform(
        seed: u64,
        requests: usize,
        mean_interarrival_cycles: f64,
        models: usize,
    ) -> Self {
        Self { seed, requests, mean_interarrival_cycles, mix: vec![1.0; models] }
    }

    /// An explicitly weighted mix (e.g. `[2.0, 1.0]`: the first model
    /// gets two thirds of the traffic). Weights need not be
    /// normalized; validation happens in [`WorkloadSpec::generate`].
    pub fn mixed(seed: u64, requests: usize, mean_interarrival_cycles: f64, mix: Vec<f64>) -> Self {
        Self { seed, requests, mean_interarrival_cycles, mix }
    }

    /// Generates the request stream (sorted by arrival, ids dense in
    /// arrival order).
    ///
    /// # Panics
    ///
    /// Panics if the mix is empty, has non-finite/negative weights or
    /// sums to zero, or if `mean_interarrival_cycles` is negative.
    pub fn generate(&self) -> Vec<Request> {
        let mix = Mix::validate(&self.mix);
        assert_mean_gap(self.mean_interarrival_cycles);
        let mut gaps = GapSampler::default();
        let mut rng = Lcg::new(self.seed);
        let mut now = 0u64;
        (0..self.requests as u64)
            .map(|id| {
                now = now.saturating_add(gaps.next_gap(self.mean_interarrival_cycles, &mut rng));
                let model = mix.sample(&mut rng);
                Request { id, model, arrival: now, act_seed: rng.next_u64() }
            })
            .collect()
    }
}

impl fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} requests over {} models, mean gap {:.0} cycles, seed {}",
            self.requests,
            self.mix.len(),
            self.mean_interarrival_cycles,
            self.seed
        )
    }
}

/// One constant-rate span of a diurnal (piecewise-rate) arrival
/// profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateSegment {
    /// Segment length in cycles.
    pub duration_cycles: u64,
    /// Mean interarrival gap during the segment (exponentially
    /// distributed, i.e. Poisson within the segment).
    pub mean_interarrival_cycles: f64,
}

/// Specification of an open-loop stream whose arrival rate follows a
/// repeating piecewise-constant profile — the diurnal load curve of a
/// production service: off-peak valleys, ramp hours, a peak plateau,
/// and back, cycling for as long as the stream runs.
///
/// Each request's interarrival gap is drawn exponentially with the
/// mean of the segment the *current* time falls in, with the same
/// sub-cycle carry accumulator the stationary generator uses, so
/// realized rates track the profile segment by segment.
///
/// `act_seed_pool` optionally bounds the distinct activation seeds:
/// with a pool of `k`, every request draws its input from `k` fixed
/// seeds instead of a fresh one, which is what keeps a multi-million
/// request run inside a bounded [`s2ta_core::ActProfileCache`] —
/// production traffic re-sees the same inputs, it does not invent a
/// new tensor per request.
#[derive(Debug, Clone, PartialEq)]
pub struct DiurnalSpec {
    /// Seed for the whole stream.
    pub seed: u64,
    /// Number of requests to generate.
    pub requests: usize,
    /// The repeating rate profile, in order; the period is the sum of
    /// the segment durations.
    pub segments: Vec<RateSegment>,
    /// Relative traffic weight per model (need not be normalized).
    pub mix: Vec<f64>,
    /// Distinct activation seeds to draw from (`0` = a fresh seed per
    /// request, like [`WorkloadSpec`]).
    pub act_seed_pool: usize,
}

impl DiurnalSpec {
    /// The profile period: one full cycle through the segments.
    pub fn period_cycles(&self) -> u64 {
        self.segments.iter().map(|s| s.duration_cycles).sum()
    }

    /// The mean interarrival gap in force at cycle `now`.
    fn mean_at(&self, now: u64, period: u64) -> f64 {
        let mut offset = now % period;
        for s in &self.segments {
            if offset < s.duration_cycles {
                return s.mean_interarrival_cycles;
            }
            offset -= s.duration_cycles;
        }
        unreachable!("offset < period = sum of durations")
    }

    /// Generates the request stream (sorted by arrival, ids dense in
    /// arrival order).
    ///
    /// # Panics
    ///
    /// Panics if there are no segments, a segment has zero duration or
    /// a non-finite/negative mean, or the mix is invalid.
    pub fn generate(&self) -> Vec<Request> {
        assert!(!self.segments.is_empty(), "a diurnal profile needs at least one segment");
        for s in &self.segments {
            assert!(s.duration_cycles > 0, "segment durations must be positive");
            assert_mean_gap(s.mean_interarrival_cycles);
        }
        let mix = Mix::validate(&self.mix);
        let period = self.period_cycles();
        // The bounded activation-seed pool, derived from a split
        // stream so pool membership does not perturb arrival draws.
        let pool: Vec<u64> = {
            let mut sub = Lcg::new(self.seed ^ 0x517c_c1b7_2722_0a95);
            (0..self.act_seed_pool).map(|_| sub.next_u64()).collect()
        };
        let mut gaps = GapSampler::default();
        let mut rng = Lcg::new(self.seed);
        let mut now = 0u64;
        (0..self.requests as u64)
            .map(|id| {
                now = now.saturating_add(gaps.next_gap(self.mean_at(now, period), &mut rng));
                let model = mix.sample(&mut rng);
                let draw = rng.next_u64();
                let act_seed =
                    if pool.is_empty() { draw } else { pool[(draw % pool.len() as u64) as usize] };
                Request { id, model, arrival: now, act_seed }
            })
            .collect()
    }
}

impl fmt::Display for DiurnalSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let gaps: Vec<String> =
            self.segments.iter().map(|s| format!("{:.0}", s.mean_interarrival_cycles)).collect();
        write!(
            f,
            "{} requests over {} models, diurnal gaps [{}] over a {}-cycle period, seed {}",
            self.requests,
            self.mix.len(),
            gaps.join("/"),
            self.period_cycles(),
            self.seed
        )
    }
}

/// Specification of a closed-loop client population.
///
/// C concurrent clients each keep exactly one request outstanding:
/// after a request completes (or is dropped at admission), the client
/// thinks for an exponential gap and issues the next one. The offered
/// load therefore adapts to service capacity instead of piling up
/// unboundedly — the defining property of closed-loop benchmarking.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedLoopSpec {
    /// Seed for the whole population (each client derives its own
    /// stream from it).
    pub seed: u64,
    /// Number of concurrent clients.
    pub clients: usize,
    /// Total requests issued across all clients before the run drains.
    pub requests: usize,
    /// Mean think gap in cycles between a completion and the client's
    /// next issue (exponentially distributed).
    pub mean_think_cycles: f64,
    /// Relative traffic weight per model (need not be normalized).
    pub mix: Vec<f64>,
}

impl ClosedLoopSpec {
    /// A uniform mix over `models` models.
    pub fn uniform(
        seed: u64,
        clients: usize,
        requests: usize,
        mean_think_cycles: f64,
        models: usize,
    ) -> Self {
        Self { seed, clients, requests, mean_think_cycles, mix: vec![1.0; models] }
    }

    /// The client population, each with an independent deterministic
    /// stream derived from the spec seed.
    ///
    /// # Panics
    ///
    /// Panics if the spec has no clients, an invalid mix, or a negative
    /// think time.
    pub(crate) fn spawn_clients(&self) -> Vec<ClosedLoopClient> {
        assert!(self.clients > 0, "a closed-loop population needs at least one client");
        let mix = Mix::validate(&self.mix);
        assert_mean_gap(self.mean_think_cycles);
        (0..self.clients as u64)
            .map(|c| ClosedLoopClient {
                // Splitmix-style spacing keeps sibling streams
                // decorrelated even for adjacent client indices.
                rng: Lcg::new(self.seed ^ c.wrapping_mul(0xa076_1d64_78bd_642f)),
                think: self.mean_think_cycles,
                gaps: GapSampler::default(),
                mix: mix.clone(),
            })
            .collect()
    }
}

impl fmt::Display for ClosedLoopSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} closed-loop clients, {} requests over {} models, mean think {:.0} cycles, seed {}",
            self.clients,
            self.requests,
            self.mix.len(),
            self.mean_think_cycles,
            self.seed
        )
    }
}

/// One closed-loop client: a deterministic request source that the
/// serving engine advances each time the client's previous request
/// finishes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ClosedLoopClient {
    rng: Lcg,
    /// Mean think time between a completion and the next request.
    think: f64,
    gaps: GapSampler,
    mix: Mix,
}

impl ClosedLoopClient {
    /// Issues the client's next request: called by the engine with the
    /// completion (or drop) time of the previous request and the dense
    /// id to assign. The request arrives one think gap later.
    pub(crate) fn issue(&mut self, previous_done: u64, id: u64) -> Request {
        let arrival = previous_done.saturating_add(self.gaps.next_gap(self.think, &mut self.rng));
        let model = self.mix.sample(&mut self.rng);
        Request { id, model, arrival, act_seed: self.rng.next_u64() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = WorkloadSpec::uniform(9, 500, 1000.0, 3);
        assert_eq!(spec.generate(), spec.generate());
        let other = WorkloadSpec::uniform(10, 500, 1000.0, 3);
        assert_ne!(spec.generate(), other.generate());
    }

    #[test]
    fn arrivals_are_sorted_with_dense_ids() {
        let reqs = WorkloadSpec::uniform(1, 300, 500.0, 2).generate();
        assert_eq!(reqs.len(), 300);
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert!(r.model < 2);
            if i > 0 {
                assert!(r.arrival >= reqs[i - 1].arrival, "arrivals must be non-decreasing");
            }
        }
    }

    #[test]
    fn mean_gap_tracks_spec() {
        let mean = 2_000.0;
        let reqs = WorkloadSpec::uniform(3, 4_000, mean, 1).generate();
        let span = reqs.last().expect("non-empty").arrival as f64;
        let measured = span / (reqs.len() - 1) as f64;
        assert!(
            (measured - mean).abs() < mean * 0.1,
            "measured mean gap {measured:.0} vs spec {mean:.0}"
        );
    }

    /// Regression: `gap as u64` used to floor every draw, which biased
    /// the realized mean below spec and collapsed sub-cycle means to
    /// all-zero gaps. The carry accumulator must keep the realized mean
    /// on spec even when the mean is far below one cycle.
    #[test]
    fn sub_cycle_mean_gap_is_not_truncated_to_zero() {
        for mean in [0.25, 0.7, 1.3] {
            let n = 20_000;
            let reqs = WorkloadSpec::uniform(17, n, mean, 1).generate();
            let span = reqs.last().expect("non-empty").arrival as f64;
            let measured = span / (n - 1) as f64;
            assert!(
                (measured - mean).abs() < mean * 0.05,
                "mean {mean}: measured {measured:.4} drifted off spec"
            );
            assert!(span > 0.0, "mean {mean}: all arrivals collapsed to cycle 0");
        }
    }

    /// Regression: flooring each gap independently lost up to one cycle
    /// per request, so large streams drifted several percent below the
    /// spec mean. With the carry the loss is bounded by one cycle total.
    #[test]
    fn realized_mean_has_no_systematic_floor_bias() {
        let mean = 3.5;
        let n = 50_000;
        let reqs = WorkloadSpec::uniform(23, n, mean, 1).generate();
        let span = reqs.last().expect("non-empty").arrival as f64;
        let measured = span / (n - 1) as f64;
        // An exponential mean estimate over n samples has stderr
        // mean/sqrt(n) ~ 0.016 here; the old floor bias was ~0.5 — two
        // orders of magnitude larger than the tolerance below.
        assert!(
            (measured - mean).abs() < mean * 0.02,
            "measured {measured:.4} vs spec {mean} (floor bias?)"
        );
    }

    #[test]
    fn mix_weights_steer_traffic() {
        let spec = WorkloadSpec::mixed(5, 4_000, 100.0, vec![3.0, 1.0]);
        let reqs = spec.generate();
        let m0 = reqs.iter().filter(|r| r.model == 0).count() as f64 / reqs.len() as f64;
        assert!((m0 - 0.75).abs() < 0.05, "model 0 share {m0:.3}, expected ~0.75");
    }

    /// Regression: the sampling fallback used to be `mix.len() - 1`,
    /// which could route a request to a *zero-weight* trailing model
    /// when floating-point error exhausted `pick` past the last
    /// positive weight.
    #[test]
    fn zero_weight_models_never_receive_traffic() {
        let spec = WorkloadSpec {
            seed: 99,
            requests: 50_000,
            mean_interarrival_cycles: 10.0,
            mix: vec![0.0, 1.0, 0.3, 0.0, 0.0],
        };
        for r in spec.generate() {
            assert!(
                spec.mix[r.model] > 0.0,
                "request {} routed to zero-weight model {}",
                r.id,
                r.model
            );
        }
        // Same property on the closed-loop sampler.
        let spec = ClosedLoopSpec {
            seed: 99,
            clients: 4,
            requests: 0,
            mean_think_cycles: 10.0,
            mix: vec![1.0, 0.0],
        };
        for mut client in spec.spawn_clients() {
            for i in 0..5_000 {
                let r = client.issue(i * 10, i);
                assert!(spec.mix[r.model] > 0.0, "closed-loop routed to zero-weight model");
            }
        }
    }

    #[test]
    fn act_seeds_differ_between_requests() {
        let reqs = WorkloadSpec::uniform(2, 100, 100.0, 1).generate();
        let mut seeds: Vec<u64> = reqs.iter().map(|r| r.act_seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), reqs.len(), "per-request input seeds must be distinct");
    }

    #[test]
    #[should_panic(expected = "mix weights")]
    fn zero_mix_rejected() {
        WorkloadSpec { seed: 0, requests: 1, mean_interarrival_cycles: 1.0, mix: vec![0.0] }
            .generate();
    }

    #[test]
    fn closed_loop_clients_are_deterministic_and_decorrelated() {
        let spec = ClosedLoopSpec::uniform(7, 3, 100, 500.0, 2);
        let mut a = spec.spawn_clients();
        let mut b = spec.spawn_clients();
        for (ca, cb) in a.iter_mut().zip(b.iter_mut()) {
            for i in 0..50 {
                assert_eq!(ca.issue(i * 100, i), cb.issue(i * 100, i));
            }
        }
        // Distinct clients must not mirror each other's streams.
        let mut c = spec.spawn_clients();
        let (first, second) = (c[0].issue(0, 0), c[1].issue(0, 0));
        assert_ne!(first.act_seed, second.act_seed, "sibling clients share a stream");
    }

    /// A two-segment day: peak (short gaps) then valley (long gaps).
    fn diurnal(seed: u64, requests: usize, pool: usize) -> DiurnalSpec {
        DiurnalSpec {
            seed,
            requests,
            segments: vec![
                RateSegment { duration_cycles: 50_000, mean_interarrival_cycles: 50.0 },
                RateSegment { duration_cycles: 50_000, mean_interarrival_cycles: 1_000.0 },
            ],
            mix: vec![1.0, 1.0],
            act_seed_pool: pool,
        }
    }

    #[test]
    fn diurnal_generation_is_deterministic_sorted_and_dense() {
        let spec = diurnal(21, 2_000, 64);
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a, b, "same spec must yield byte-identical streams");
        for (i, r) in a.iter().enumerate() {
            assert_eq!(r.id, i as u64, "ids must be dense in arrival order");
            if i > 0 {
                assert!(r.arrival >= a[i - 1].arrival, "arrivals must be sorted");
            }
            assert!(r.model < 2);
        }
    }

    #[test]
    fn diurnal_peak_segments_receive_more_arrivals() {
        let spec = diurnal(22, 20_000, 0);
        let period = spec.period_cycles();
        let reqs = spec.generate();
        let (mut peak, mut valley) = (0usize, 0usize);
        for r in &reqs {
            if r.arrival % period < 50_000 {
                peak += 1;
            } else {
                valley += 1;
            }
        }
        // 20x rate ratio over equal spans: the peak half of each period
        // must dominate decisively (~95% of traffic in expectation).
        assert!(
            peak > valley * 5,
            "peak half got {peak} arrivals vs valley {valley}; profile is not steering rate"
        );
    }

    #[test]
    fn diurnal_act_seed_pool_bounds_distinct_inputs() {
        let pool = 16usize;
        let reqs = diurnal(23, 5_000, pool).generate();
        let mut seeds: Vec<u64> = reqs.iter().map(|r| r.act_seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert!(seeds.len() <= pool, "{} distinct seeds exceed the pool of {pool}", seeds.len());
        // 5_000 draws over 16 slots: every slot should be exercised.
        assert_eq!(seeds.len(), pool, "a busy stream should touch the whole pool");
        // Pool of zero behaves like the stationary generator: fresh
        // seeds per request.
        let fresh = diurnal(23, 500, 0).generate();
        let mut fresh_seeds: Vec<u64> = fresh.iter().map(|r| r.act_seed).collect();
        fresh_seeds.sort_unstable();
        fresh_seeds.dedup();
        assert_eq!(fresh_seeds.len(), 500);
    }

    #[test]
    fn diurnal_pool_membership_does_not_perturb_arrivals() {
        // The pool is drawn from a split seed stream, so changing its
        // size must leave arrival times and model routing untouched.
        let a = diurnal(24, 1_000, 8).generate();
        let b = diurnal(24, 1_000, 512).generate();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.id, x.model, x.arrival), (y.id, y.model, y.arrival));
        }
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn diurnal_empty_profile_rejected() {
        DiurnalSpec { seed: 0, requests: 1, segments: vec![], mix: vec![1.0], act_seed_pool: 0 }
            .generate();
    }

    #[test]
    #[should_panic(expected = "durations must be positive")]
    fn diurnal_zero_duration_segment_rejected() {
        DiurnalSpec {
            seed: 0,
            requests: 1,
            segments: vec![RateSegment { duration_cycles: 0, mean_interarrival_cycles: 1.0 }],
            mix: vec![1.0],
            act_seed_pool: 0,
        }
        .generate();
    }

    #[test]
    fn closed_loop_think_time_tracks_spec() {
        let mean = 700.0;
        let spec = ClosedLoopSpec::uniform(11, 1, 0, mean, 1);
        let mut client = spec.spawn_clients().remove(0);
        let n = 10_000u64;
        let mut total = 0u64;
        for i in 0..n {
            // Issue from a fixed completion time so the gap is exactly
            // the think time.
            total += client.issue(0, i).arrival;
        }
        let measured = total as f64 / n as f64;
        assert!(
            (measured - mean).abs() < mean * 0.05,
            "measured think {measured:.1} vs spec {mean:.1}"
        );
    }
}
