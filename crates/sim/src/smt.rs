//! SMT-SA: a systolic array exploiting unstructured sparsity with
//! operand staging FIFOs (our INT8 re-implementation of Shomron et al.,
//! used as the `SA-SMT` baseline — paper Sec. 2.2, 7, Fig. 2a).
//!
//! Each scalar PE receives `T` operand pairs per delivery (T independent,
//! interleaved reduction streams). Pairs with a zero operand are
//! discarded at the input; non-zero pairs are pushed into a depth-`Q`
//! FIFO that a single MAC drains at one pair per cycle. Delivery is
//! lockstep across the array: if **any** PE's FIFO cannot accept its
//! incoming pairs, the whole array stalls for a cycle (backpressure).
//! This is the load-imbalance cost of unstructured sparsity that DBB
//! designs avoid — the FIFOs buy speedup but their push/pop energy
//! (`fifo_bytes`) makes SMT *less* energy-efficient than `SA-ZVCG`
//! (paper Fig. 3, Fig. 10).

use crate::{ArrayGeometry, EventCounts, GemmRun};
use s2ta_tensor::{AccMatrix, Matrix};

/// SMT configuration: thread count and FIFO depth.
///
/// The paper evaluates `T2Q2` and `T2Q4`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SmtConfig {
    /// Operand pairs delivered per PE per delivery step.
    pub threads: usize,
    /// FIFO capacity in operand pairs.
    pub queue_depth: usize,
}

impl SmtConfig {
    /// Creates a config.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`, `queue_depth == 0`, or
    /// `threads > queue_depth` (delivery to an empty FIFO must fit,
    /// otherwise the array deadlocks).
    pub fn new(threads: usize, queue_depth: usize) -> Self {
        assert!(threads > 0 && queue_depth > 0, "SMT parameters must be non-zero");
        assert!(
            threads <= queue_depth,
            "threads {threads} exceed queue depth {queue_depth}: deadlock"
        );
        Self { threads, queue_depth }
    }

    /// The paper's `T2Q2` variant.
    pub fn t2q2() -> Self {
        Self::new(2, 2)
    }

    /// The paper's `T2Q4` variant.
    pub fn t2q4() -> Self {
        Self::new(2, 4)
    }
}

impl std::fmt::Display for SmtConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}Q{}", self.threads, self.queue_depth)
    }
}

/// Reusable backing storage for `TileTiming::simulate`, so the
/// sampled-timing loop allocates nothing in steady state: `arrivals`
/// and `queues` keep their capacity across tiles, columns and calls.
/// Contents are overwritten per use and never carry information
/// between tiles.
#[derive(Debug, Default)]
pub struct SmtScratch {
    arrivals: Vec<u8>,
    queues: Vec<u32>,
}

impl SmtScratch {
    /// A fresh, empty scratch (buffers grow to steady size on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Total capacity currently retained, in bytes — diagnostic only.
    pub fn retained_bytes(&self) -> usize {
        self.arrivals.capacity() + 4 * self.queues.capacity()
    }
}

/// Per-tile simulation state: FIFO occupancy only (values are resolved
/// functionally outside the timing loop — FIFO order does not change the
/// accumulated sum).
struct TileTiming<'m> {
    cfg: SmtConfig,
    w: &'m Matrix,
    a: &'m Matrix,
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
}

impl TileTiming<'_> {
    /// Simulates the delivery/drain dynamics, returning
    /// `(cycles, total_pushes)`.
    ///
    /// Backpressure is modelled **per column**: activations flow down a
    /// column, so a full FIFO anywhere in the column stalls that
    /// column's feed (lockstep within the column), while the FIFOs
    /// decouple columns from each other; the tile latency is the
    /// completion time of the slowest column. A deeper queue (`T2Q4`)
    /// absorbs arrival bursts that stall the column under `T2Q2`,
    /// reproducing the paper's Fig. 3 speedup gap.
    fn simulate(&self, scratch: &mut SmtScratch) -> (u64, u64) {
        let k = self.w.cols();
        let t = self.cfg.threads;
        let q_cap = self.cfg.queue_depth as u32;
        let steps = k.div_ceil(t);
        let nrows = self.rows.len();
        let mut pushes: u64 = 0;
        let mut worst: u64 = 0;
        // arrivals[step * nrows + row] for the current column.
        let arrivals = &mut scratch.arrivals;
        arrivals.clear();
        arrivals.resize(steps * nrows, 0);
        let queues = &mut scratch.queues;

        for j in self.cols.clone() {
            arrivals.fill(0);
            for (ri, i) in self.rows.clone().enumerate() {
                let wrow = self.w.row(i);
                for (p, &wv) in wrow.iter().enumerate() {
                    if wv != 0 && self.a.get(p, j) != 0 {
                        arrivals[(p / t) * nrows + ri] += 1;
                        pushes += 1;
                    }
                }
            }
            queues.clear();
            queues.resize(nrows, 0);
            let mut cycles: u64 = 0;
            let mut step = 0usize;
            while step < steps || queues.iter().any(|&q| q > 0) {
                cycles += 1;
                for q in queues.iter_mut() {
                    *q = q.saturating_sub(1);
                }
                if step < steps {
                    let base = step * nrows;
                    let fits = queues
                        .iter()
                        .zip(&arrivals[base..base + nrows])
                        .all(|(&q, &inc)| q + inc as u32 <= q_cap);
                    if fits {
                        for (q, &inc) in queues.iter_mut().zip(&arrivals[base..base + nrows]) {
                            *q += inc as u32;
                        }
                        step += 1;
                    }
                }
            }
            worst = worst.max(cycles);
        }
        (worst, pushes)
    }
}

/// Runs the GEMM on an SMT-SA: functional result plus simulated timing
/// (FIFO backpressure included).
///
/// # Panics
///
/// Panics if the geometry is not scalar or the dims disagree.
pub fn run(geom: &ArrayGeometry, cfg: SmtConfig, w: &Matrix, a: &Matrix) -> GemmRun {
    run_inner(geom, cfg, w, a, usize::MAX)
}

/// Like [`run`] but simulates the FIFO timing of at most `sample_tiles`
/// tiles, extrapolating the mean simulated cycles-per-tile to the rest.
/// All non-timing events stay exact. Use for full-model sweeps where
/// simulating every tile is wasteful.
///
/// # Panics
///
/// Panics if `sample_tiles == 0`, the geometry is not scalar, or dims
/// disagree.
pub fn run_sampled(
    geom: &ArrayGeometry,
    cfg: SmtConfig,
    w: &Matrix,
    a: &Matrix,
    sample_tiles: usize,
) -> GemmRun {
    assert!(sample_tiles > 0, "must sample at least one tile");
    run_inner(geom, cfg, w, a, sample_tiles)
}

/// Events-only fast path for the SMT-SA, accumulating into a
/// caller-owned tally and simulating tile timing out of a caller-owned
/// [`SmtScratch`] (allocation-free once warm): adds the identical
/// [`EventCounts`] of [`run_sampled`] (asserted by tests), with the
/// non-timing counts taken from the shapes and the layer's `active`
/// MACs (`profile::active_macs` of `w`'s and `a`'s profiles) instead of
/// the functional accumulation loop.
///
/// Unlike the DBB datapaths, the SMT FIFO *timing* is inherently
/// position-dependent (backpressure follows the joint non-zero layout
/// of both operands, not their per-position counts), so the sampled
/// tiles still simulate against the dense matrices; the profiles remove
/// the `O(M*K*N)` functional pass that dominated [`run_sampled`] on the
/// events-only path.
///
/// # Panics
///
/// Panics if `sample_tiles == 0`, the geometry is not scalar, or dims
/// disagree.
#[allow(clippy::too_many_arguments)]
pub fn run_sampled_profiled_into(
    geom: &ArrayGeometry,
    cfg: SmtConfig,
    w: &Matrix,
    a: &Matrix,
    sample_tiles: usize,
    active: u64,
    events: &mut EventCounts,
    scratch: &mut SmtScratch,
) {
    assert!(sample_tiles > 0, "must sample at least one tile");
    assert_eq!((geom.a, geom.b, geom.c), (1, 1, 1), "SMT runner is scalar only");
    assert_eq!(w.cols(), a.rows(), "GEMM inner dims mismatch");
    let k = w.cols();
    let walk = geom.tile_walk(w.rows(), a.cols());
    let outputs = (w.rows() * a.cols()) as u64;
    *events += EventCounts {
        weight_sram_bytes: (w.len() * walk.col_strips()) as u64,
        act_sram_read_bytes: (a.len() * walk.row_strips()) as u64,
        act_sram_write_bytes: outputs,
        mcu_elements: outputs,
        ..EventCounts::default()
    };

    // Only the sampled tiles' timing needs the operands themselves;
    // every queued pair is an active MAC, priced once for the layer.
    events.macs_active += active;
    events.acc_updates += active;
    events.fifo_bytes += 4 * active;
    let mut simulated_cycles: u64 = 0;
    let mut simulated = 0usize;
    for (ti, (rows, cols)) in walk.clone().enumerate() {
        events.operand_reg_bytes += 2 * (rows.len() * k * cols.len()) as u64;
        if ti < sample_tiles {
            let timing = TileTiming { cfg, w, a, rows: rows.clone(), cols: cols.clone() };
            let (cycles, pushes) = timing.simulate(scratch);
            debug_assert_eq!(pushes, tile_active(w, a, &rows, &cols));
            simulated_cycles += cycles + geom.skew_cycles();
            simulated += 1;
        }
    }
    events.cycles += extrapolate_cycles(simulated_cycles, simulated, walk.tiles());
}

/// Active MACs of one tile, counted off the operands: the pairs its
/// FIFOs must queue.
fn tile_active(
    w: &Matrix,
    a: &Matrix,
    rows: &std::ops::Range<usize>,
    cols: &std::ops::Range<usize>,
) -> u64 {
    let mut active = 0;
    for i in rows.clone() {
        for (p, &wv) in w.row(i).iter().enumerate() {
            if wv != 0 {
                active += a.row(p)[cols.clone()].iter().filter(|&&v| v != 0).count() as u64;
            }
        }
    }
    active
}

/// Total-cycle estimate from `simulated` tiles' summed latency: exact
/// when every tile was simulated, mean-extrapolated otherwise. Shared
/// by the functional and profiled paths so their rounding is identical.
fn extrapolate_cycles(simulated_cycles: u64, simulated: usize, total_tiles: usize) -> u64 {
    if simulated == total_tiles {
        simulated_cycles
    } else {
        let mean = simulated_cycles as f64 / simulated as f64;
        (mean * total_tiles as f64).round() as u64
    }
}

fn run_inner(
    geom: &ArrayGeometry,
    cfg: SmtConfig,
    w: &Matrix,
    a: &Matrix,
    sample_tiles: usize,
) -> GemmRun {
    assert_eq!((geom.a, geom.b, geom.c), (1, 1, 1), "SMT runner is scalar only");
    assert_eq!(w.cols(), a.rows(), "GEMM inner dims mismatch");
    let k = w.cols();
    let mut acc = AccMatrix::zeros(w.rows(), a.cols());
    let walk = geom.tile_walk(w.rows(), a.cols());
    let total_tiles = walk.tiles();
    let outputs = (w.rows() * a.cols()) as u64;
    let mut events = EventCounts {
        weight_sram_bytes: (w.len() * walk.col_strips()) as u64,
        act_sram_read_bytes: (a.len() * walk.row_strips()) as u64,
        act_sram_write_bytes: outputs,
        mcu_elements: outputs,
        ..EventCounts::default()
    };

    let mut simulated_cycles: u64 = 0;
    let mut simulated = 0usize;
    let mut scratch = SmtScratch::new();
    for (ti, (rows, cols)) in geom.tile_walk(w.rows(), a.cols()).enumerate() {
        // Functional accumulation + exact non-timing events.
        let mut active: u64 = 0;
        for i in rows.clone() {
            let wrow = w.row(i);
            for j in cols.clone() {
                let mut sum = 0i32;
                for (p, &wv) in wrow.iter().enumerate() {
                    let av = a.get(p, j);
                    if wv != 0 && av != 0 {
                        sum += wv as i32 * av as i32;
                        active += 1;
                    }
                }
                acc.set(i, j, sum);
            }
        }
        events.macs_active += active;
        events.acc_updates += active;
        // Push + pop of a 2-byte pair each: 4 bytes per queued pair.
        events.fifo_bytes += 4 * active;
        // Operands still stream through the full array fabric.
        events.operand_reg_bytes += 2 * (rows.len() * k * cols.len()) as u64;

        if ti < sample_tiles {
            let timing = TileTiming { cfg, w, a, rows, cols };
            let (cycles, pushes) = timing.simulate(&mut scratch);
            debug_assert_eq!(pushes, active);
            simulated_cycles += cycles + geom.skew_cycles();
            simulated += 1;
        }
    }
    events.cycles = extrapolate_cycles(simulated_cycles, simulated, total_tiles);
    GemmRun { result: acc, events }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{active_macs, ActivationProfile, WeightProfile};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use s2ta_tensor::gemm_ref;
    use s2ta_tensor::sparsity::SparseSpec;

    fn pair(m: usize, k: usize, n: usize, sp: f64, seed: u64) -> (Matrix, Matrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        (
            SparseSpec::random(sp).matrix(m, k, &mut rng),
            SparseSpec::random(sp).matrix(k, n, &mut rng),
        )
    }

    #[test]
    fn computes_exact_gemm() {
        let (w, a) = pair(6, 40, 6, 0.5, 1);
        let r = run(&ArrayGeometry::scalar(4, 4), SmtConfig::t2q2(), &w, &a);
        assert_eq!(r.result, gemm_ref(&w, &a));
    }

    #[test]
    fn sparse_streams_give_speedup_over_dense() {
        let g = ArrayGeometry::scalar(8, 8);
        let (wd, ad) = pair(8, 256, 8, 0.0, 2);
        let (ws, asp) = pair(8, 256, 8, 0.5, 3);
        let dense = run(&g, SmtConfig::t2q2(), &wd, &ad);
        let sparse = run(&g, SmtConfig::t2q2(), &ws, &asp);
        let speedup = dense.events.cycles as f64 / sparse.events.cycles as f64;
        assert!(
            speedup > 1.3 && speedup <= 2.05,
            "50/50 sparsity with T2 should give 1.3-2x, got {speedup:.2}"
        );
    }

    #[test]
    fn deeper_queue_is_not_slower() {
        let g = ArrayGeometry::scalar(8, 8);
        let (w, a) = pair(8, 256, 8, 0.5, 4);
        let q2 = run(&g, SmtConfig::t2q2(), &w, &a);
        let q4 = run(&g, SmtConfig::t2q4(), &w, &a);
        assert!(q4.events.cycles <= q2.events.cycles);
        assert_eq!(q2.result, q4.result);
    }

    #[test]
    fn dense_throughput_matches_plain_sa() {
        // With fully dense operands every delivered pair is queued and the
        // MAC is the bottleneck: cycles ~= K per tile, like the dense SA.
        let g = ArrayGeometry::scalar(4, 4);
        let (w, a) = pair(4, 128, 4, 0.0, 5);
        let smt = run(&g, SmtConfig::t2q4(), &w, &a);
        let k = 128u64;
        assert!(
            smt.events.cycles >= k && smt.events.cycles <= k + 20,
            "dense SMT should be MAC-bound at ~K cycles, got {}",
            smt.events.cycles
        );
    }

    #[test]
    fn fifo_traffic_tracks_nonzero_products() {
        let (w, a) = pair(4, 64, 4, 0.5, 6);
        let r = run(&ArrayGeometry::scalar(4, 4), SmtConfig::t2q2(), &w, &a);
        assert_eq!(r.events.fifo_bytes, 4 * r.events.macs_active);
    }

    #[test]
    fn sampled_timing_is_close_to_full() {
        let (w, a) = pair(16, 96, 16, 0.5, 7);
        let g = ArrayGeometry::scalar(4, 4);
        let full = run(&g, SmtConfig::t2q2(), &w, &a);
        let sampled = run_sampled(&g, SmtConfig::t2q2(), &w, &a, 3);
        assert_eq!(full.result, sampled.result);
        let err = (full.events.cycles as f64 - sampled.events.cycles as f64).abs()
            / full.events.cycles as f64;
        assert!(err < 0.15, "sampled timing off by {:.1}%", err * 100.0);
    }

    #[test]
    fn profiled_events_match_sampled() {
        let g = ArrayGeometry::scalar(4, 4);
        let (w, a) = pair(16, 96, 16, 0.5, 9);
        let wp = WeightProfile::new(&w);
        let ap = ActivationProfile::new(&a);
        for (cfg, sample) in
            [(SmtConfig::t2q2(), 1), (SmtConfig::t2q2(), 3), (SmtConfig::t2q4(), usize::MAX)]
        {
            let full = run_inner(&g, cfg, &w, &a, sample).events;
            let mut profiled = EventCounts::new();
            let scratch = &mut SmtScratch::new();
            let active = active_macs(&wp, ap.tallies());
            run_sampled_profiled_into(&g, cfg, &w, &a, sample, active, &mut profiled, scratch);
            assert_eq!(full, profiled, "{cfg} sample={sample}");
        }
    }

    #[test]
    fn config_display_and_validation() {
        assert_eq!(SmtConfig::t2q2().to_string(), "T2Q2");
        assert_eq!(SmtConfig::t2q4().to_string(), "T2Q4");
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn overdelivery_config_rejected() {
        let _ = SmtConfig::new(4, 2);
    }
}
