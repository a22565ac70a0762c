//! W-DBB weight pruning: in-block magnitude pruning (paper Sec. 4, 8.1).
//!
//! Weight sparsity is static, so the DBB bound is enforced offline:
//! within every block, only the `NNZ` largest-magnitude elements are kept.
//! The paper prunes *progressively* during fine-tuning ("typically runs
//! for 20-50 epochs, progressively pruning small-magnitude weights") —
//! the progressive schedule lives in `s2ta-nn`; this module provides the
//! per-block Top-NNZ primitive for both `i8` (deployment) and the
//! magnitude-selection helper shared with the trainer.

use crate::config::MAX_BZ;
use crate::{BlockAxis, DbbConfig, DbbMatrix};
use s2ta_tensor::Matrix;
use std::cmp::Reverse;

/// Returns the indices of the `keep` largest-magnitude elements of
/// `block`, ties broken toward the lower index (matching the deterministic
/// comparator-tree order of the DAP hardware, Fig. 8).
///
/// The returned indices are in ascending order.
pub fn top_magnitude_indices(block: &[f64], keep: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..block.len()).collect();
    // Sort by descending magnitude, ascending index on ties.
    order.sort_by(|&a, &b| {
        block[b]
            .abs()
            .partial_cmp(&block[a].abs())
            .expect("magnitudes must be comparable (no NaN)")
            .then(a.cmp(&b))
    });
    let mut kept: Vec<usize> = order.into_iter().take(keep).collect();
    kept.sort_unstable();
    kept
}

/// Prunes a dense `i8` reduction vector to satisfy `config`, keeping the
/// largest-magnitude `NNZ` elements of each `BZ` block and zeroing the
/// rest (ties to the lower index, as [`top_magnitude_indices`]). Blocks
/// already satisfying the bound are untouched. Ranks on the stack, so
/// pruning a whole weight matrix allocates nothing per block.
pub fn prune_vector(data: &mut [i8], config: DbbConfig) {
    for chunk in data.chunks_mut(config.bz()) {
        let nnz = chunk.iter().filter(|&&v| v != 0).count();
        if nnz <= config.nnz() {
            continue;
        }
        let mut order = [0u8; MAX_BZ];
        let order = &mut order[..chunk.len()];
        for (i, slot) in order.iter_mut().enumerate() {
            *slot = i as u8;
        }
        // Keys are unique (the index breaks ties), so unstable is exact.
        order.sort_unstable_by_key(|&i| (Reverse(chunk[usize::from(i)].unsigned_abs()), i));
        let mut keep = 0u16;
        for &i in &order[..config.nnz()] {
            keep |= 1 << i;
        }
        for (i, v) in chunk.iter_mut().enumerate() {
            if keep & (1 << i) == 0 {
                *v = 0;
            }
        }
    }
}

/// Prunes a matrix along `axis` to satisfy `config`, returning the pruned
/// dense matrix. The result is guaranteed to compress without error.
pub fn prune_matrix(m: &Matrix, axis: BlockAxis, config: DbbConfig) -> Matrix {
    let mut out = m.clone();
    match axis {
        BlockAxis::Rows => {
            let cols = out.cols();
            for r in 0..out.rows() {
                let start = r * cols;
                prune_vector(&mut out.data_mut()[start..start + cols], config);
            }
        }
        BlockAxis::Cols => {
            for c in 0..out.cols() {
                let mut col: Vec<i8> = (0..out.rows()).map(|r| out.get(r, c)).collect();
                prune_vector(&mut col, config);
                for (r, v) in col.into_iter().enumerate() {
                    out.set(r, c, v);
                }
            }
        }
    }
    out
}

/// Prunes and compresses a weight matrix in one step (rows = reduction
/// vectors, the weight orientation).
pub fn prune_and_compress(m: &Matrix, config: DbbConfig) -> DbbMatrix {
    let pruned = prune_matrix(m, BlockAxis::Rows, config);
    DbbMatrix::compress(&pruned, BlockAxis::Rows, config)
        .expect("pruned matrix satisfies its own bound")
}

/// Fraction of the L1 weight magnitude preserved by pruning `m` (rows) to
/// `config` — the quality proxy used to pick per-model W-DBB ratios.
pub fn magnitude_retention(m: &Matrix, axis: BlockAxis, config: DbbConfig) -> f64 {
    let total: f64 = m.data().iter().map(|&v| (v as f64).abs()).sum();
    if total == 0.0 {
        return 1.0;
    }
    let pruned = prune_matrix(m, axis, config);
    let kept: f64 = pruned.data().iter().map(|&v| (v as f64).abs()).sum();
    kept / total
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use s2ta_tensor::sparsity::SparseSpec;

    #[test]
    fn keeps_largest_magnitudes() {
        let mut v = [1i8, -8, 3, 7, -2, 6, 0, 5];
        prune_vector(&mut v, DbbConfig::new(4, 8));
        assert_eq!(v, [0, -8, 0, 7, 0, 6, 0, 5]);
    }

    #[test]
    fn already_satisfying_block_untouched() {
        let mut v = [0i8, 9, 0, 0, 0, -3, 0, 0];
        let orig = v;
        prune_vector(&mut v, DbbConfig::new(4, 8));
        assert_eq!(v, orig);
    }

    #[test]
    fn tie_break_prefers_lower_index() {
        let mut v = [5i8, 5, 5, 5, 5, 5, 5, 5];
        prune_vector(&mut v, DbbConfig::new(2, 8));
        assert_eq!(v, [5, 5, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn pruned_matrix_compresses_cleanly() {
        let mut rng = StdRng::seed_from_u64(11);
        let m = SparseSpec::random(0.2).matrix(16, 40, &mut rng);
        let dm = prune_and_compress(&m, DbbConfig::new(4, 8));
        // Every block satisfies the bound by construction.
        assert_eq!(dm.decompress().rows(), 16);
    }

    #[test]
    fn retention_is_one_for_satisfying_data() {
        let m = Matrix::from_vec(1, 8, vec![1, 0, 2, 0, 3, 0, 4, 0]);
        let r = magnitude_retention(&m, BlockAxis::Rows, DbbConfig::new(4, 8));
        assert!((r - 1.0).abs() < 1e-12);
    }

    #[test]
    fn retention_decreases_with_tighter_bound() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = SparseSpec::dense().matrix(8, 64, &mut rng);
        let r4 = magnitude_retention(&m, BlockAxis::Rows, DbbConfig::new(4, 8));
        let r2 = magnitude_retention(&m, BlockAxis::Rows, DbbConfig::new(2, 8));
        let r1 = magnitude_retention(&m, BlockAxis::Rows, DbbConfig::new(1, 8));
        assert!(r4 > r2 && r2 > r1, "retention {r4} {r2} {r1}");
    }

    proptest! {
        #[test]
        fn prop_pruned_satisfies_bound(
            data in prop::collection::vec(any::<i8>(), 8..96),
            nnz in 1usize..=8,
        ) {
            let cfg = DbbConfig::new(nnz, 8);
            let mut v = data;
            prune_vector(&mut v, cfg);
            for chunk in v.chunks(8) {
                prop_assert!(chunk.iter().filter(|&&x| x != 0).count() <= nnz);
            }
        }

        #[test]
        fn prop_prune_keeps_the_reference_top_magnitudes(
            data in prop::collection::vec(any::<i8>(), 1..96),
            nnz in 1usize..=8,
        ) {
            let cfg = DbbConfig::new(nnz, 8);
            let mut pruned = data.clone();
            prune_vector(&mut pruned, cfg);
            for (orig, got) in data.chunks(8).zip(pruned.chunks(8)) {
                let mut want = orig.to_vec();
                if orig.iter().filter(|&&v| v != 0).count() > nnz {
                    let mags: Vec<f64> = orig.iter().map(|&v| f64::from(v).abs()).collect();
                    let keep = top_magnitude_indices(&mags, nnz);
                    for (i, v) in want.iter_mut().enumerate() {
                        if !keep.contains(&i) {
                            *v = 0;
                        }
                    }
                }
                prop_assert_eq!(got, &want[..]);
            }
        }

        #[test]
        fn prop_pruning_is_idempotent(
            data in prop::collection::vec(any::<i8>(), 8..64),
            nnz in 1usize..=8,
        ) {
            let cfg = DbbConfig::new(nnz, 8);
            let mut once = data;
            prune_vector(&mut once, cfg);
            let mut twice = once.clone();
            prune_vector(&mut twice, cfg);
            prop_assert_eq!(once, twice);
        }

        #[test]
        fn prop_kept_values_are_subset(
            data in prop::collection::vec(any::<i8>(), 8..64),
            nnz in 1usize..=8,
        ) {
            let cfg = DbbConfig::new(nnz, 8);
            let mut pruned = data.clone();
            prune_vector(&mut pruned, cfg);
            for (orig, kept) in data.iter().zip(&pruned) {
                prop_assert!(*kept == 0 || kept == orig);
            }
        }
    }
}
