//! The dual time-unrolled variant: **variable weight DBB, fixed
//! activation DBB** (paper Sec. 8.4, footnote 2: "S2TA time-unrolled
//! architecture can also be implemented to support variable weight DBB
//! sparsity and fixed activation DBB sparsity").
//!
//! Here the *weight* block's stored elements serialize one per cycle
//! through the single MAC, and the 4:1 mux resolves the **activation**
//! at each weight's position from a fixed-NNZ compressed activation
//! block. Cycles per block equal the weight NNZ, so speedup scales with
//! weight sparsity (1x..8x) while activations are pinned at a fixed
//! ratio — the mirror image of `S2TA-AW`. Useful for workloads with
//! aggressive weight pruning but stubborn activations (e.g. transformer
//! FC layers, whose GELU activations are denser than ReLU CNN maps).

use crate::profile::{active_macs, ActivationProfile, WeightProfile};
use crate::{ArrayGeometry, EventCounts, GemmRun};
use s2ta_dbb::{BlockAxis, DbbMatrix};
use s2ta_tensor::AccMatrix;

fn check(geom: &ArrayGeometry, w: &DbbMatrix, a: &DbbMatrix) {
    assert_eq!(w.axis(), BlockAxis::Rows, "weights must be row-blocked");
    assert_eq!(a.axis(), BlockAxis::Cols, "activations must be column-blocked");
    assert_eq!(w.config().bz(), geom.bz, "weight block size must match array");
    assert_eq!(a.config().bz(), geom.bz, "activation block size must match array");
    assert!(
        a.config().nnz() <= geom.b || a.config().is_dense(),
        "activation NNZ {} exceeds the {} mux slots (and is not the dense fall-back)",
        a.config().nnz(),
        geom.b
    );
    assert_eq!(w.shape().1, a.shape().0, "GEMM inner dims mismatch");
}

/// Runs the weight-unrolled variant functionally: serialize each weight
/// block's stored slots; mux-select the activation at each position.
///
/// # Panics
///
/// Panics if blocking does not match the geometry or dims disagree.
pub fn run_wa(geom: &ArrayGeometry, w: &DbbMatrix, a: &DbbMatrix) -> GemmRun {
    check(geom, w, a);
    let (m_rows, k) = w.shape();
    let n_cols = a.shape().1;
    let blocks_k = k.div_ceil(geom.bz);
    // Dense activations need two mux passes (same argument as the
    // dense-weight fall-back of the A/W variant).
    let apasses = if a.config().is_dense() { geom.bz.div_ceil(geom.b) as u64 } else { 1 };
    let serial = w.config().nnz() as u64 * apasses;

    let mut acc = AccMatrix::zeros(m_rows, n_cols);
    let write_ratio = a.config().block_bytes() as f64 / a.config().bz() as f64;
    let mut events = crate::tpe::sram_events(
        geom,
        m_rows,
        n_cols,
        w.storage_bytes(),
        a.storage_bytes(),
        write_ratio,
    );

    for (rows, cols) in geom.tile_walk(m_rows, n_cols) {
        events.cycles += blocks_k as u64 * serial + geom.skew_cycles();
        let (re, ce) = (rows.len(), cols.len());
        for i in rows.clone() {
            for j in cols.clone() {
                for (bi, wblock) in w.vector_blocks(i).enumerate() {
                    let ablock = a.block(j, bi);
                    let mut active_here = 0u64;
                    for (pos, wv) in wblock.nonzeros() {
                        let av = ablock.value_at(pos);
                        if av != 0 {
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
        events.operand_reg_bytes +=
            crate::tpe::operand_reg_bytes(geom, re, ce, w_tile_bytes, a_tile_bytes);
    }
    GemmRun { result: acc, events }
}

/// Event-only fast path; identical counts to [`run_wa`].
pub fn run_wa_perf(geom: &ArrayGeometry, w: &DbbMatrix, a: &DbbMatrix) -> EventCounts {
    check(geom, w, a);
    let (m_rows, k) = w.shape();
    let n_cols = a.shape().1;
    let blocks_k = k.div_ceil(geom.bz);
    let apasses = if a.config().is_dense() { geom.bz.div_ceil(geom.b) as u64 } else { 1 };
    let serial = w.config().nnz() as u64 * apasses;
    let active = active_macs(&WeightProfile::of_dbb(w), ActivationProfile::of_dbb(a).tallies());

    let write_ratio = a.config().block_bytes() as f64 / a.config().bz() as f64;
    let mut events = crate::tpe::sram_events(
        geom,
        m_rows,
        n_cols,
        w.storage_bytes(),
        a.storage_bytes(),
        write_ratio,
    );
    crate::tpe::unrolled_events_into(
        geom,
        m_rows,
        n_cols,
        blocks_k,
        serial,
        w.config().block_bytes(),
        a.config().block_bytes(),
        active,
        &mut events,
    );
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use s2ta_dbb::dap::{dap_matrix, LayerNnz};
    use s2ta_dbb::{prune, DbbConfig, DbbMatrix};
    use s2ta_tensor::gemm_ref;
    use s2ta_tensor::sparsity::SparseSpec;

    fn geom() -> ArrayGeometry {
        ArrayGeometry::new(2, 4, 2, 2, 2, 8)
    }

    fn weights(m: usize, k: usize, nnz: usize, seed: u64) -> DbbMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let raw = SparseSpec::random(0.2).matrix(m, k, &mut rng);
        let pruned = prune::prune_matrix(&raw, BlockAxis::Rows, DbbConfig::new(nnz, 8));
        DbbMatrix::compress(&pruned, BlockAxis::Rows, DbbConfig::new(nnz, 8)).expect("pruned")
    }

    fn acts(k: usize, n: usize, nnz: usize, seed: u64) -> DbbMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let raw = SparseSpec::random(0.3).matrix(k, n, &mut rng);
        dap_matrix(&raw, 8, LayerNnz::Prune(nnz)).0
    }

    #[test]
    fn matches_reference() {
        let w = weights(5, 40, 3, 1);
        let a = acts(40, 7, 4, 2);
        let run = run_wa(&geom(), &w, &a);
        assert_eq!(run.result, gemm_ref(&w.decompress(), &a.decompress()));
    }

    #[test]
    fn speedup_scales_with_weight_nnz() {
        // The mirror of Fig. 9d: cycles track the *weight* NNZ.
        let a = acts(512, 4, 4, 3);
        let g = geom();
        let c1 = run_wa(&g, &weights(4, 512, 1, 4), &a).events.cycles as f64;
        let c4 = run_wa(&g, &weights(4, 512, 4, 4), &a).events.cycles as f64;
        assert!((c4 / c1 - 4.0).abs() < 0.2, "got {:.2}", c4 / c1);
    }

    #[test]
    fn activation_sparsity_gates_but_does_not_speed_up() {
        let g = geom();
        let w = weights(4, 64, 4, 5);
        let sparse_a = acts(64, 4, 2, 6);
        // Pad sparse acts to the fixed 4/8 hardware ratio: recompress at 4/8.
        let sparse_a44 =
            DbbMatrix::compress(&sparse_a.decompress(), BlockAxis::Cols, DbbConfig::new(4, 8))
                .expect("2 nz fits 4/8");
        let dense_a = acts(64, 4, 4, 7);
        let r_sparse = run_wa(&g, &w, &sparse_a44);
        let r_dense = run_wa(&g, &w, &dense_a);
        assert_eq!(r_sparse.events.cycles, r_dense.events.cycles);
        assert!(r_sparse.events.macs_gated > r_dense.events.macs_gated);
    }

    #[test]
    fn perf_matches_functional() {
        let w = weights(9, 48, 2, 8);
        let a = acts(48, 11, 3, 9);
        let g = geom();
        assert_eq!(run_wa(&g, &w, &a).events, run_wa_perf(&g, &w, &a));
    }

    #[test]
    fn dense_activation_fallback_double_pumps() {
        let g = geom();
        let w = weights(4, 64, 4, 10);
        let a_dense = {
            let mut rng = StdRng::seed_from_u64(11);
            let raw = SparseSpec::dense().matrix(64, 4, &mut rng);
            DbbMatrix::compress(&raw, BlockAxis::Cols, DbbConfig::dense(8)).expect("dense")
        };
        let a_48 = acts(64, 4, 4, 12);
        let dense_cycles = run_wa(&g, &w, &a_dense).events.cycles;
        let bounded_cycles = run_wa(&g, &w, &a_48).events.cycles;
        assert_eq!(dense_cycles, bounded_cycles * 2 - g.skew_cycles());
    }
}
