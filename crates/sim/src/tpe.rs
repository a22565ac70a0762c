//! Tensor PE (TPE) datapaths: `S2TA-W` (DP4M8 dot-product) and the
//! time-unrolled `S2TA-AW` (DP1M4 outer-product) — paper Sec. 4-6.
//!
//! Both consume DBB-compressed operands and compute the exact INT8 GEMM
//! of the (pruned) matrices through the mask/mux logic of Fig. 6c/6e:
//!
//! * **W-DBB (DP4M8)** — each dot-product unit holds the `B` compressed
//!   weight values of one block; per cycle the `M8` muxes steer the
//!   activation element at each weight's position into its MAC. One
//!   weight block (`BZ` reduction positions) completes per cycle — `2x`
//!   throughput for 4/8 weights — with a dense fall-back of
//!   `BZ/B` cycles per block.
//! * **A/W-DBB time-unrolled (DP1M4)** — the activation block's stored
//!   elements are serialized one per cycle; the `M4` mux selects the
//!   weight whose position matches, firing the single MAC when the
//!   weight mask hits and clock-gating otherwise. Cycles per block equal
//!   the layer's activation NNZ — variable density at constant
//!   utilization (Sec. 5.2).

use crate::profile::{active_macs, ActivationProfile, WeightDesc, WeightProfile};
use crate::{ArrayGeometry, EventCounts, GemmRun};
use s2ta_dbb::{BlockAxis, DbbConfig, DbbMatrix};
use s2ta_tensor::{AccMatrix, Matrix};

/// Cycles the DP`B`M`BZ` dot-product datapath spends per weight block:
/// one for genuinely bounded blocks, `ceil(BZ/B)` for the dense
/// fall-back (paper Sec. 4). The time-unrolled datapath makes the same
/// number of passes over each dense weight block.
fn wdbb_cycles_per_block(geom: &ArrayGeometry, config: DbbConfig) -> u64 {
    if config.is_dense() {
        geom.bz.div_ceil(geom.b) as u64
    } else {
        1
    }
}

/// Checks that `w` describes weights this TPE array can hold and
/// returns their W-DBB configuration.
fn check_wdbb(geom: &ArrayGeometry, w: &WeightDesc) -> DbbConfig {
    let config = w.config().expect("TPE weights must be DBB-compressed");
    assert_eq!(config.bz(), geom.bz, "weight block size must match array");
    assert!(
        config.nnz() <= geom.b || config.is_dense(),
        "weight NNZ {} exceeds hardware slots {} (and is not the dense fall-back)",
        config.nnz(),
        geom.b
    );
    config
}

/// Shared SRAM/MCU accounting. `w_bytes`/`a_bytes` are the per-pass
/// operand footprints (compressed where applicable); `write_ratio`
/// scales the output write traffic (S2TA-AW writes activations back in
/// compressed DBB form after DAP — Fig. 7a places DAP on the store
/// path; we proxy the next layer's density with the current one's).
pub(crate) fn sram_events(
    geom: &ArrayGeometry,
    rows: usize,
    cols: usize,
    w_bytes: usize,
    a_bytes: usize,
    write_ratio: f64,
) -> EventCounts {
    let walk = geom.tile_walk(rows, cols);
    let outputs = (rows * cols) as u64;
    EventCounts {
        weight_sram_bytes: (w_bytes * walk.col_strips()) as u64,
        act_sram_read_bytes: (a_bytes * walk.row_strips()) as u64,
        act_sram_write_bytes: (outputs as f64 * write_ratio).round() as u64,
        mcu_elements: outputs,
        ..EventCounts::default()
    }
}

/// Operand pipeline-register traffic for one tile of a TPE array.
///
/// Weight blocks hop east across the active TPE columns; activation
/// streams hop south across the active TPE rows. This is the data-reuse
/// win of the TPE (Sec. 6.1): bytes-per-MAC shrink by `1/(A*...)`
/// because each operand arriving at a TPE feeds `A*C` (or `A*C*B`) MACs.
pub(crate) fn operand_reg_bytes(
    geom: &ArrayGeometry,
    rows_eff: usize,
    cols_eff: usize,
    w_tile_bytes: u64,
    a_tile_bytes: u64,
) -> u64 {
    let active_tpe_cols = cols_eff.div_ceil(geom.a) as u64;
    let active_tpe_rows = rows_eff.div_ceil(geom.c) as u64;
    w_tile_bytes * active_tpe_cols + a_tile_bytes * active_tpe_rows
}

/// The events of a time-unrolled datapath (`S2TA-AW` and the
/// weight-unrolled [`crate::tpe_wa`] variant) beyond its SRAM traffic.
/// Each tile issues `serial` slots per output per block, every slot a
/// mux select; the shape terms are summed over the tiles first, then
/// the layer's `active` MACs (the only slots that update an
/// accumulator) are priced once.
#[allow(clippy::too_many_arguments)]
pub(crate) fn unrolled_events_into(
    geom: &ArrayGeometry,
    m_rows: usize,
    n_cols: usize,
    blocks_k: usize,
    serial: u64,
    w_block_bytes: usize,
    a_block_bytes: usize,
    active: u64,
    events: &mut EventCounts,
) {
    let (mut cycles, mut issued, mut reg_bytes) = (0, 0, 0);
    for (rows, cols) in geom.tile_walk(m_rows, n_cols) {
        let (re, ce) = (rows.len(), cols.len());
        cycles += blocks_k as u64 * serial + geom.skew_cycles();
        issued += (re * ce * blocks_k) as u64 * serial;
        let w_tile_bytes = (re * blocks_k * w_block_bytes) as u64;
        let a_tile_bytes = (ce * blocks_k * a_block_bytes) as u64;
        reg_bytes += operand_reg_bytes(geom, re, ce, w_tile_bytes, a_tile_bytes);
    }
    events.cycles += cycles;
    events.macs_active += active;
    events.macs_gated += issued - active;
    events.acc_updates += active;
    events.mux_selects += issued;
    events.operand_reg_bytes += reg_bytes;
}

/// Runs `S2TA-W`: 4/8 W-DBB weights against **dense** activations on a
/// dot-product TPE array, functionally (through the mask/mux logic).
///
/// # Panics
///
/// Panics if the weight blocking does not match the geometry or the
/// dims disagree.
pub fn run_wdbb(geom: &ArrayGeometry, w: &DbbMatrix, a: &Matrix) -> GemmRun {
    let config = check_wdbb(geom, &WeightDesc::of_dbb(w));
    let (m_rows, k) = w.shape();
    assert_eq!(k, a.rows(), "GEMM inner dims mismatch");
    let bz = geom.bz;
    let blocks_k = k.div_ceil(bz);
    let cpb = wdbb_cycles_per_block(geom, config);

    let mut acc = AccMatrix::zeros(m_rows, a.cols());
    let mut events = sram_events(geom, m_rows, a.cols(), w.storage_bytes(), a.len(), 1.0);

    for (rows, cols) in geom.tile_walk(m_rows, a.cols()) {
        events.cycles += blocks_k as u64 * cpb + geom.skew_cycles();
        let (re, ce) = (rows.len(), cols.len());
        for i in rows.clone() {
            for (bi, block) in w.vector_blocks(i).enumerate() {
                // Issue: B MAC slots per block-cycle per output.
                let issued_per_output = geom.b as u64 * cpb;
                for j in cols.clone() {
                    let mut active_here = 0u64;
                    for (pos, wv) in block.nonzeros() {
                        let p = bi * bz + pos;
                        if p >= k {
                            continue; // tail padding past the real K
                        }
                        let av = a.get(p, j);
                        if av != 0 {
                            active_here += 1;
                            let cur = acc.get(i, j);
                            acc.set(i, j, cur + wv as i32 * av as i32);
                        }
                    }
                    events.macs_active += active_here;
                    events.macs_gated += issued_per_output - active_here;
                }
            }
            // One adder-tree accumulator update per DP unit per block-cycle.
            events.acc_updates += blocks_k as u64 * cpb * ce as u64;
        }
        let issued = re as u64 * ce as u64 * blocks_k as u64 * geom.b as u64 * cpb;
        events.mux_selects += issued;
        let w_tile_bytes = (re * blocks_k * w.config().block_bytes()) as u64;
        let a_tile_bytes = (ce * k) as u64;
        events.operand_reg_bytes += operand_reg_bytes(geom, re, ce, w_tile_bytes, a_tile_bytes);
    }
    GemmRun { result: acc, events }
}

/// Event-only fast path for `S2TA-W`; identical counts to [`run_wdbb`].
pub fn run_wdbb_perf(geom: &ArrayGeometry, w: &DbbMatrix, a: &Matrix) -> EventCounts {
    // Profile the compressed weights straight from their block masks —
    // no `decompress()` scratch matrix in the perf path.
    let active = active_macs(&WeightProfile::of_dbb(w), ActivationProfile::new(a).tallies());
    let (desc, mut events) = (WeightDesc::of_dbb(w), EventCounts::new());
    run_wdbb_perf_profiled_into(geom, &desc, a.cols(), active, &mut events);
    events
}

/// Matrix-free event path for `S2TA-W`, accumulating into a
/// caller-owned tally (hot loops sum events across layers and requests
/// without materializing intermediate counts): adds the identical
/// counts of [`run_wdbb`] / [`run_wdbb_perf`], computed without
/// touching either dense matrix from the shapes and the layer's
/// `active` MACs (`profile::active_macs` of the decompressed weights'
/// profile and the dense `k x n_cols` activation's). `w` describes the
/// compressed weights.
///
/// # Panics
///
/// Panics if the weight blocking does not match the geometry, or if
/// `active` exceeds the MACs the layer issues.
pub fn run_wdbb_perf_profiled_into(
    geom: &ArrayGeometry,
    w: &WeightDesc,
    n_cols: usize,
    active: u64,
    events: &mut EventCounts,
) {
    let config = check_wdbb(geom, w);
    let (m_rows, k) = (w.rows(), w.k());
    let blocks_k = k.div_ceil(geom.bz);
    let cpb = wdbb_cycles_per_block(geom, config);

    *events += sram_events(geom, m_rows, n_cols, w.storage_bytes(), k * n_cols, 1.0);
    // Each output issues `b` MAC slots (one adder-tree update) per
    // block-cycle; every slot is a mux select.
    let (mut cycles, mut updates, mut reg_bytes) = (0, 0, 0);
    for (rows, cols) in geom.tile_walk(m_rows, n_cols) {
        let (re, ce) = (rows.len(), cols.len());
        cycles += blocks_k as u64 * cpb + geom.skew_cycles();
        updates += (re * ce * blocks_k) as u64 * cpb;
        let w_tile_bytes = (re * blocks_k * config.block_bytes()) as u64;
        let a_tile_bytes = (ce * k) as u64;
        reg_bytes += operand_reg_bytes(geom, re, ce, w_tile_bytes, a_tile_bytes);
    }
    let issued = updates * geom.b as u64;
    events.cycles += cycles;
    events.macs_active += active;
    events.macs_gated += issued - active;
    events.acc_updates += updates;
    events.mux_selects += issued;
    events.operand_reg_bytes += reg_bytes;
}

fn check_aw(geom: &ArrayGeometry, w: &DbbMatrix, a: &DbbMatrix) {
    check_wdbb(geom, &WeightDesc::of_dbb(w));
    assert_eq!(a.axis(), BlockAxis::Cols, "activations must be column-blocked");
    assert_eq!(a.config().bz(), geom.bz, "activation block size must match array");
    assert_eq!(w.shape().1, a.shape().0, "GEMM inner dims mismatch");
}

/// Runs time-unrolled `S2TA-AW`: joint A/W-DBB on a DP1M4 outer-product
/// TPE array. Cycles per activation block equal the stored NNZ
/// (`a.config().nnz()`, or `BZ` for the dense fall-back).
///
/// # Panics
///
/// Panics if the blockings do not match the geometry or dims disagree.
pub fn run_aw(geom: &ArrayGeometry, w: &DbbMatrix, a: &DbbMatrix) -> GemmRun {
    check_aw(geom, w, a);
    let (m_rows, k) = w.shape();
    let n_cols = a.shape().1;
    let bz = geom.bz;
    let blocks_k = k.div_ceil(bz);
    // Cycles per block: one per stored activation slot, doubled when the
    // weight block is dense (8 values through 4 mux slots = two passes).
    let wpasses = if w.config().is_dense() { geom.bz.div_ceil(geom.b) as u64 } else { 1 };
    let serial = a.config().nnz() as u64 * wpasses;

    let mut acc = AccMatrix::zeros(m_rows, n_cols);
    let write_ratio = a.config().block_bytes() as f64 / a.config().bz() as f64;
    let mut events =
        sram_events(geom, m_rows, n_cols, w.storage_bytes(), a.storage_bytes(), write_ratio);

    for (rows, cols) in geom.tile_walk(m_rows, n_cols) {
        events.cycles += blocks_k as u64 * serial + geom.skew_cycles();
        let (re, ce) = (rows.len(), cols.len());
        for i in rows.clone() {
            for j in cols.clone() {
                for (bi, ablock) in a.vector_blocks(j).enumerate() {
                    let wblock = w.block(i, bi);
                    // Serialize the stored activation slots: each is one
                    // issue cycle of the DP1M4 unit.
                    let mut active_here = 0u64;
                    for (pos, av) in ablock.nonzeros() {
                        // The M4 mux resolves the weight at this position.
                        let wv = wblock.value_at(pos);
                        if wv != 0 {
                            active_here += 1;
                            let cur = acc.get(i, j);
                            acc.set(i, j, cur + wv as i32 * av as i32);
                        }
                    }
                    events.macs_active += active_here;
                    events.macs_gated += serial - active_here;
                    events.acc_updates += active_here;
                }
            }
        }
        let issued = (re * ce * blocks_k) as u64 * serial;
        events.mux_selects += issued;
        let w_tile_bytes = (re * blocks_k * w.config().block_bytes()) as u64;
        let a_tile_bytes = (ce * blocks_k * a.config().block_bytes()) as u64;
        events.operand_reg_bytes += operand_reg_bytes(geom, re, ce, w_tile_bytes, a_tile_bytes);
    }
    GemmRun { result: acc, events }
}

/// Event-only fast path for `S2TA-AW`; identical counts to [`run_aw`].
pub fn run_aw_perf(geom: &ArrayGeometry, w: &DbbMatrix, a: &DbbMatrix) -> EventCounts {
    check_aw(geom, w, a);
    // Both operands are profiled straight from their block masks — no
    // `decompress()` scratch matrices in the perf path.
    let active = active_macs(&WeightProfile::of_dbb(w), ActivationProfile::of_dbb(a).tallies());
    let (desc, mut events) = (WeightDesc::of_dbb(w), EventCounts::new());
    run_aw_perf_profiled_into(geom, &desc, a.shape().1, a.config(), active, &mut events);
    events
}

/// Matrix-free event path for `S2TA-AW`, accumulating into a
/// caller-owned tally: adds the identical counts of [`run_aw`] /
/// [`run_aw_perf`], computed without ever materializing (or
/// decompressing) the A-DBB activation matrix. The activation operand
/// is described by its column count, its DBB configuration (which fixes
/// the per-block serialization and the compressed storage footprint:
/// every column carries `ceil(k / bz)` blocks of
/// `config.block_bytes()`). `w` describes the compressed weights, and
/// `active` is the layer's active MACs: `profile::active_macs` of the
/// decompressed weights' profile and the post-DAP activation's
/// (derivable straight from the dense activation via
/// `s2ta_dbb::dap::dap_col_profile`).
///
/// # Panics
///
/// Panics if the blockings do not match the geometry, or if `active`
/// exceeds the MACs the layer issues.
pub fn run_aw_perf_profiled_into(
    geom: &ArrayGeometry,
    w: &WeightDesc,
    n_cols: usize,
    a_config: DbbConfig,
    active: u64,
    events: &mut EventCounts,
) {
    let config = check_wdbb(geom, w);
    assert_eq!(a_config.bz(), geom.bz, "activation block size must match array");
    let (m_rows, k) = (w.rows(), w.k());
    let blocks_k = k.div_ceil(geom.bz);
    let serial = a_config.nnz() as u64 * wdbb_cycles_per_block(geom, config);

    let a_storage_bytes = n_cols * blocks_k * a_config.block_bytes();
    let write_ratio = a_config.block_bytes() as f64 / a_config.bz() as f64;
    *events += sram_events(geom, m_rows, n_cols, w.storage_bytes(), a_storage_bytes, write_ratio);
    unrolled_events_into(
        geom,
        m_rows,
        n_cols,
        blocks_k,
        serial,
        config.block_bytes(),
        a_config.block_bytes(),
        active,
        events,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use s2ta_dbb::dap::{dap_matrix, LayerNnz};
    use s2ta_dbb::{prune, DbbConfig};
    use s2ta_tensor::gemm_ref;
    use s2ta_tensor::sparsity::SparseSpec;

    fn small_geom() -> ArrayGeometry {
        ArrayGeometry::new(2, 4, 2, 2, 2, 8)
    }

    fn pruned_weights(m: usize, k: usize, seed: u64) -> (DbbMatrix, Matrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let raw = SparseSpec::random(0.3).matrix(m, k, &mut rng);
        let dbb = prune::prune_and_compress(&raw, DbbConfig::new(4, 8));
        let dense = dbb.decompress();
        (dbb, dense)
    }

    #[test]
    fn wdbb_matches_reference_on_pruned_weights() {
        let (wdbb, wdense) = pruned_weights(6, 24, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let a = SparseSpec::random(0.5).matrix(24, 9, &mut rng);
        let run = run_wdbb(&small_geom(), &wdbb, &a);
        assert_eq!(run.result, gemm_ref(&wdense, &a));
    }

    #[test]
    fn wdbb_is_2x_faster_than_dense_blocks() {
        let (wdbb, wdense) = pruned_weights(4, 256, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let a = SparseSpec::dense().matrix(256, 4, &mut rng);
        let g = small_geom();
        let sparse = run_wdbb(&g, &wdbb, &a);
        let dense_blocks =
            s2ta_dbb::DbbMatrix::compress(&wdense, BlockAxis::Rows, DbbConfig::dense(8)).unwrap();
        let dense = run_wdbb(&g, &dense_blocks, &a);
        assert_eq!(sparse.result, dense.result);
        let speed = dense.events.cycles as f64 / sparse.events.cycles as f64;
        assert!(speed > 1.8, "expected ~2x from 4/8 W-DBB, got {speed:.2}");
    }

    #[test]
    fn aw_matches_reference_on_jointly_pruned_operands() {
        let (wdbb, wdense) = pruned_weights(5, 40, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let araw = SparseSpec::random(0.4).matrix(40, 7, &mut rng);
        let (adbb, _) = dap_matrix(&araw, 8, LayerNnz::Prune(3));
        let adense = adbb.decompress();
        let run = run_aw(&small_geom(), &wdbb, &adbb);
        assert_eq!(run.result, gemm_ref(&wdense, &adense));
    }

    #[test]
    fn aw_speedup_scales_with_activation_nnz() {
        // Paper Fig. 9d: speedup = BZ / NNZ_a, independent of weights.
        let (wdbb, _) = pruned_weights(4, 512, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let araw = SparseSpec::random(0.2).matrix(512, 4, &mut rng);
        let g = small_geom();
        let mut cycles = Vec::new();
        for nnz in [1, 2, 4] {
            let (adbb, _) = dap_matrix(&araw, 8, LayerNnz::Prune(nnz));
            cycles.push(run_aw(&g, &wdbb, &adbb).events.cycles);
        }
        let (adense, _) = dap_matrix(&araw, 8, LayerNnz::Dense);
        let dense_cycles = run_aw(&g, &wdbb, &adense).events.cycles as f64;
        // Skew is small relative to 8 blocks; allow 15% tolerance.
        for (i, nnz) in [1u64, 2, 4].iter().enumerate() {
            let expected = 8.0 / *nnz as f64;
            let got = dense_cycles / cycles[i] as f64;
            assert!(
                (got - expected).abs() / expected < 0.15,
                "nnz {nnz}: expected ~{expected}x, got {got:.2}x"
            );
        }
    }

    #[test]
    fn aw_weight_sparsity_gates_but_does_not_speed_up() {
        let mut rng = StdRng::seed_from_u64(9);
        let w_sparse_raw = SparseSpec::random(0.8).matrix(4, 32, &mut rng);
        let w_dense_raw = SparseSpec::random(0.0).matrix(4, 32, &mut rng);
        let araw = SparseSpec::random(0.5).matrix(32, 4, &mut rng);
        let (adbb, _) = dap_matrix(&araw, 8, LayerNnz::Prune(4));
        let g = small_geom();
        let cfg = DbbConfig::new(4, 8);
        let r_sparse = run_aw(&g, &prune::prune_and_compress(&w_sparse_raw, cfg), &adbb);
        let r_dense = run_aw(&g, &prune::prune_and_compress(&w_dense_raw, cfg), &adbb);
        assert_eq!(r_sparse.events.cycles, r_dense.events.cycles);
        assert!(r_sparse.events.macs_gated > r_dense.events.macs_gated);
    }

    #[test]
    fn perf_paths_match_functional() {
        let (wdbb, _) = pruned_weights(10, 48, 10);
        let mut rng = StdRng::seed_from_u64(11);
        let a = SparseSpec::random(0.6).matrix(48, 13, &mut rng);
        let g = small_geom();
        assert_eq!(run_wdbb(&g, &wdbb, &a).events, run_wdbb_perf(&g, &wdbb, &a));
        let (adbb, _) = dap_matrix(&a, 8, LayerNnz::Prune(2));
        assert_eq!(run_aw(&g, &wdbb, &adbb).events, run_aw_perf(&g, &wdbb, &adbb));
    }

    #[test]
    fn compressed_weight_sram_traffic_is_reduced() {
        let (wdbb, wdense) = pruned_weights(8, 64, 12);
        let mut rng = StdRng::seed_from_u64(13);
        // 4 output columns = a single column strip: weights read once.
        let a = SparseSpec::dense().matrix(64, 4, &mut rng);
        let g = small_geom();
        let sparse_run = run_wdbb(&g, &wdbb, &a);
        // 4/8 blocks: 5 bytes per 8 -> 37.5% reduction (paper Sec. 4).
        let expected = (wdense.len() as f64 * 5.0 / 8.0) as u64;
        assert_eq!(sparse_run.events.weight_sram_bytes, expected);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_aw_functional_equals_reference(
            m in 1usize..8,
            kb in 1usize..6,
            n in 1usize..8,
            wsp in 0.0f64..0.9,
            asp in 0.0f64..0.9,
            annz in 1usize..=5,
            seed in any::<u64>(),
        ) {
            let k = kb * 8;
            let mut rng = StdRng::seed_from_u64(seed);
            let wraw = SparseSpec::random(wsp).matrix(m, k, &mut rng);
            let araw = SparseSpec::random(asp).matrix(k, n, &mut rng);
            let wdbb = prune::prune_and_compress(&wraw, DbbConfig::new(4, 8));
            let (adbb, _) = dap_matrix(&araw, 8, LayerNnz::Prune(annz));
            let g = small_geom();
            let run = run_aw(&g, &wdbb, &adbb);
            prop_assert_eq!(&run.result, &gemm_ref(&wdbb.decompress(), &adbb.decompress()));
            prop_assert_eq!(run.events, run_aw_perf(&g, &wdbb, &adbb));
        }
    }
}
