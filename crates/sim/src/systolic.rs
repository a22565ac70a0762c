//! Tile-level dense / ZVCG scalar systolic array (paper's `SA`, `SA-ZVCG`).
//!
//! Functionally identical to [`crate::cycle_exact`] (asserted by tests)
//! but organized tile-by-tile with closed-form cycle counts, so whole CNN
//! layers are tractable. [`run`] computes the product and events with the
//! full loop; [`run_perf`] produces identical events from one `O(K)`
//! dot product of per-position non-zero profiles, for full-model sweeps.

use crate::profile::{active_macs, ActivationProfile, WeightDesc, WeightProfile};
use crate::{cycle_exact, ArrayGeometry, EventCounts, GemmRun};
use s2ta_tensor::{AccMatrix, Matrix};

fn check_inputs(geom: &ArrayGeometry, w: &Matrix, a: &Matrix) {
    assert_eq!((geom.a, geom.b, geom.c), (1, 1, 1), "systolic runner is scalar only");
    assert_eq!(w.cols(), a.rows(), "GEMM inner dims mismatch");
}

/// SRAM traffic shared by the scalar variants: dense weights re-read once
/// per column strip, dense activations once per row strip, 1-byte
/// requantized outputs written once, every output post-processed by MCU.
fn sram_events(geom: &ArrayGeometry, rows: usize, k: usize, cols: usize) -> EventCounts {
    let walk = geom.tile_walk(rows, cols);
    let outputs = (rows * cols) as u64;
    EventCounts {
        weight_sram_bytes: (rows * k * walk.col_strips()) as u64,
        act_sram_read_bytes: (k * cols * walk.row_strips()) as u64,
        act_sram_write_bytes: outputs,
        mcu_elements: outputs,
        ..EventCounts::default()
    }
}

/// Runs the GEMM functionally (loop-based) on a dense scalar array.
///
/// With `zvcg`, zero-operand MACs and their accumulator updates are
/// clock-gated (no throughput change — paper Sec. 2.1); without it they
/// are issued as idle MACs.
///
/// # Panics
///
/// Panics if the geometry is not scalar or the dims mismatch.
pub fn run(geom: &ArrayGeometry, zvcg: bool, w: &Matrix, a: &Matrix) -> GemmRun {
    check_inputs(geom, w, a);
    let k = w.cols();
    let mut acc = AccMatrix::zeros(w.rows(), a.cols());
    let mut events = sram_events(geom, w.rows(), k, a.cols());

    for (rows, cols) in geom.tile_walk(w.rows(), a.cols()) {
        events.cycles += cycle_exact::closed_form_cycles(k, geom.m, geom.n);
        for i in rows.clone() {
            for p in 0..k {
                let wv = w.get(i, p);
                for j in cols.clone() {
                    let av = a.get(p, j);
                    if wv != 0 && av != 0 {
                        events.macs_active += 1;
                        events.acc_updates += 1;
                        let cur = acc.get(i, j);
                        acc.set(i, j, cur + wv as i32 * av as i32);
                    } else if zvcg {
                        events.macs_gated += 1;
                    } else {
                        events.macs_idle += 1;
                        events.acc_updates += 1;
                    }
                }
            }
        }
        // Each operand byte is latched once per PE it traverses: weights
        // cross the tile's active columns, activations its active rows.
        let (re, ce) = (rows.len() as u64, cols.len() as u64);
        events.operand_reg_bytes += re * k as u64 * ce + k as u64 * ce * re;
    }
    GemmRun { result: acc, events }
}

/// Event-only fast path: identical [`EventCounts`] to [`run`] (asserted
/// by tests), computed from per-position non-zero profiles.
///
/// # Panics
///
/// Panics if the geometry is not scalar or the dims mismatch.
pub fn run_perf(geom: &ArrayGeometry, zvcg: bool, w: &Matrix, a: &Matrix) -> EventCounts {
    check_inputs(geom, w, a);
    let active = active_macs(&WeightProfile::new(w), ActivationProfile::new(a).tallies());
    let (desc, mut events) = (WeightDesc::dense(w), EventCounts::new());
    run_perf_profiled_into(geom, zvcg, &desc, a.cols(), active, &mut events);
    events
}

/// Matrix-free event path, accumulating into a caller-owned tally:
/// adds the identical [`EventCounts`] of [`run`] and [`run_perf`],
/// computed from the GEMM dimensions and the layer's `active` MACs
/// alone (`profile::active_macs` of the two operands' profiles). `w`
/// describes the `M x K` weight matrix, `n_cols` the activation width.
/// Every count but the active MACs and the gated (or idle) and
/// accumulator counts they move is fixed by the shape.
///
/// # Panics
///
/// Panics if the geometry is not scalar, or if `active` exceeds the
/// MACs the layer issues.
pub fn run_perf_profiled_into(
    geom: &ArrayGeometry,
    zvcg: bool,
    w: &WeightDesc,
    n_cols: usize,
    active: u64,
    events: &mut EventCounts,
) {
    assert_eq!((geom.a, geom.b, geom.c), (1, 1, 1), "systolic runner is scalar only");
    let (m_rows, k) = (w.rows(), w.k());
    *events += sram_events(geom, m_rows, k, n_cols);

    // Every tile issues one MAC per (row, position, column) it covers.
    let (mut cycles, mut issued) = (0, 0);
    for (rows, cols) in geom.tile_walk(m_rows, n_cols) {
        cycles += cycle_exact::closed_form_cycles(k, geom.m, geom.n);
        issued += (rows.len() * k * cols.len()) as u64;
    }
    events.cycles += cycles;
    events.macs_active += active;
    if zvcg {
        events.macs_gated += issued - active;
        events.acc_updates += active;
    } else {
        events.macs_idle += issued - active;
        events.acc_updates += issued;
    }
    events.operand_reg_bytes += 2 * issued;
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use s2ta_tensor::gemm_ref;
    use s2ta_tensor::sparsity::SparseSpec;

    fn random_pair(m: usize, k: usize, n: usize, sp: f64, seed: u64) -> (Matrix, Matrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        (
            SparseSpec::random(sp).matrix(m, k, &mut rng),
            SparseSpec::random(sp).matrix(k, n, &mut rng),
        )
    }

    #[test]
    fn matches_reference_gemm() {
        let (w, a) = random_pair(10, 24, 14, 0.5, 1);
        let r = run(&ArrayGeometry::scalar(4, 5), false, &w, &a);
        assert_eq!(r.result, gemm_ref(&w, &a));
    }

    #[test]
    fn tiled_cycles_accumulate() {
        let (w, a) = random_pair(8, 16, 8, 0.0, 2);
        let g = ArrayGeometry::scalar(4, 4);
        let r = run(&g, false, &w, &a);
        // 2x2 tiles, each K + 4 + 4 - 2 = 22 cycles.
        assert_eq!(r.events.cycles, 4 * 22);
    }

    #[test]
    fn zvcg_does_not_change_cycles_or_result() {
        let (w, a) = random_pair(6, 32, 6, 0.6, 3);
        let g = ArrayGeometry::scalar(4, 4);
        let dense = run(&g, false, &w, &a);
        let zvcg = run(&g, true, &w, &a);
        assert_eq!(dense.result, zvcg.result);
        assert_eq!(dense.events.cycles, zvcg.events.cycles);
        assert_eq!(dense.events.macs_active, zvcg.events.macs_active);
        assert_eq!(dense.events.macs_idle, zvcg.events.macs_gated);
    }

    #[test]
    fn perf_path_matches_functional_events() {
        for (sp, seed) in [(0.0, 4), (0.5, 5), (0.8, 6)] {
            let (w, a) = random_pair(9, 20, 11, sp, seed);
            let g = ArrayGeometry::scalar(4, 4);
            for zvcg in [false, true] {
                let slow = run(&g, zvcg, &w, &a).events;
                let fast = run_perf(&g, zvcg, &w, &a);
                assert_eq!(slow, fast, "sp={sp} zvcg={zvcg}");
            }
        }
    }

    #[test]
    fn matches_cycle_exact_on_single_tile() {
        let (w, a) = random_pair(3, 12, 4, 0.5, 7);
        let g = ArrayGeometry::scalar(3, 4);
        let tile_level = run(&g, true, &w, &a);
        let reg_level = cycle_exact::run(&g, true, &w, &a);
        assert_eq!(tile_level.result, reg_level.result);
        assert_eq!(tile_level.events.cycles, reg_level.events.cycles);
        assert_eq!(tile_level.events.macs_active, reg_level.events.macs_active);
        assert_eq!(tile_level.events.macs_gated, reg_level.events.macs_gated);
        assert_eq!(tile_level.events.acc_updates, reg_level.events.acc_updates);
    }

    #[test]
    fn sram_traffic_scales_with_strips() {
        let (w, a) = random_pair(8, 8, 16, 0.0, 8);
        let g = ArrayGeometry::scalar(4, 4);
        let r = run(&g, false, &w, &a);
        // 2 row strips, 4 col strips.
        assert_eq!(r.events.weight_sram_bytes, (8 * 8 * 4) as u64);
        assert_eq!(r.events.act_sram_read_bytes, (8 * 16 * 2) as u64);
        assert_eq!(r.events.act_sram_write_bytes, (8 * 16) as u64);
        assert_eq!(r.events.mcu_elements, (8 * 16) as u64);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_perf_equals_functional(
            m in 1usize..12,
            k in 1usize..24,
            n in 1usize..12,
            sp in 0.0f64..0.95,
            seed in any::<u64>(),
            zvcg in any::<bool>(),
        ) {
            let (w, a) = random_pair(m, k, n, sp, seed);
            let g = ArrayGeometry::scalar(3, 4);
            prop_assert_eq!(run(&g, zvcg, &w, &a).events, run_perf(&g, zvcg, &w, &a));
        }
    }
}
