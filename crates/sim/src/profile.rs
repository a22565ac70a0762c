//! Per-reduction-position non-zero profiles: the fast path for MAC
//! activity counting.
//!
//! For an output-stationary mapping, the MAC at `(i, p, j)` does useful
//! work iff `W[i,p] != 0 && A[p,j] != 0`. Summed over a whole layer,
//! under any tiling, the active-MAC count is therefore
//! `sum_p nnzW[p] * nnzA[p]`, where `nnzW[p]` counts the non-zeros of
//! weight column `p` over all `M` rows and `nnzA[p]` those of
//! activation row `p` over all `N` columns. One `K`-length tally per
//! operand prices a layer's active MACs with a single `O(K)` dot
//! product instead of an `O(M * K * N)` walk — exact, not an
//! approximation (tests in `systolic`/`tpe`/`smt` assert equality
//! against the looped functional runs). Tile boundaries only shape the
//! cycle, issue and traffic terms, which the datapaths derive from the
//! GEMM dimensions alone.
//!
//! Weight tallies are `u32`; activation tallies are `u16`, since a tally
//! never exceeds the activation width `N` and the activation profiles
//! are the ones cached per request input. Constructors reject
//! activations wider than `u16::MAX` columns rather than wrap.
//!
//! The profile types are **public operands**: because a profile is a
//! pure function of its matrix, a caller can build it once (e.g. bake
//! the weight profile into a compiled layer plan, or memoize the
//! activation profile per `(layer, act seed)`) and replay the
//! events-only datapaths ([`crate::systolic::run_perf_profiled`],
//! [`crate::tpe::run_wdbb_perf_profiled`],
//! [`crate::tpe::run_aw_perf_profiled`],
//! [`crate::smt::run_sampled_profiled`]) without ever re-materializing
//! the dense matrices. [`WeightProfile::of_dbb`] and
//! [`ActivationProfile::of_dbb`] profile compressed matrices straight
//! from their block masks, so even the *profiling* step materializes
//! nothing.

use s2ta_dbb::dap::check_tally_width;
use s2ta_dbb::{BlockAxis, DbbMatrix};
use s2ta_tensor::Matrix;

/// `nnzW[p]`: the non-zero weights in column `p` of an `M x K` weight
/// matrix (rows are output channels), over all `M` rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightProfile {
    counts: Vec<u32>,
}

impl WeightProfile {
    /// Profiles `w`.
    pub fn new(w: &Matrix) -> Self {
        let mut counts = vec![0u32; w.cols()];
        for r in 0..w.rows() {
            for (slot, &v) in counts.iter_mut().zip(w.row(r)) {
                *slot += u32::from(v != 0);
            }
        }
        Self { counts }
    }

    /// Profiles a row-blocked compressed weight matrix directly from its
    /// block masks — exact (`DbbBlock` masks mark only genuine
    /// non-zeros, even under the dense config), and allocation-free
    /// beyond the output buffer: no decompression, no scratch.
    ///
    /// # Panics
    ///
    /// Panics if `w` is column-blocked.
    pub fn of_dbb(w: &DbbMatrix) -> Self {
        assert!(matches!(w.axis(), BlockAxis::Rows), "weight profiles need a row-blocked matrix");
        let mut counts = vec![0u32; w.shape().1];
        tally_masks(w, |p| counts[p] += 1);
        Self { counts }
    }

    /// The per-position tallies, `K` long.
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }
}

/// `nnzA[p]`: the non-zero activations in row `p` of a `K x N`
/// activation matrix (columns are output pixels), over all `N` columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActivationProfile {
    counts: Vec<u16>,
}

impl ActivationProfile {
    /// Profiles `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a` has more than `u16::MAX` columns.
    pub fn new(a: &Matrix) -> Self {
        check_tally_width(a.cols());
        let counts = (0..a.rows()).map(|p| a.row(p).iter().filter(|&&v| v != 0).count() as u16);
        Self { counts: counts.collect() }
    }

    /// Profiles a column-blocked compressed activation matrix directly
    /// from its block masks — the A-DBB analogue of
    /// [`WeightProfile::of_dbb`]: exact and decompression-free.
    ///
    /// # Panics
    ///
    /// Panics if `a` is row-blocked or has more than `u16::MAX` columns.
    pub fn of_dbb(a: &DbbMatrix) -> Self {
        assert!(
            matches!(a.axis(), BlockAxis::Cols),
            "activation profiles need a column-blocked matrix"
        );
        let (k, cols) = a.shape();
        check_tally_width(cols);
        let mut counts = vec![0u16; k];
        tally_masks(a, |p| counts[p] += 1);
        Self { counts }
    }

    /// Wraps precomputed `nnzA[p]` tallies — the path for producers
    /// (e.g. `s2ta_dbb::dap::dap_col_profile`) that derive the counts
    /// without materializing the profiled matrix.
    pub fn from_counts(counts: Vec<u16>) -> Self {
        Self { counts }
    }

    /// The per-position tallies, `K` long.
    pub fn counts(&self) -> &[u16] {
        &self.counts
    }
}

/// Calls `hit(p)` once per non-zero of `m` at reduction position `p`,
/// walking the block masks of every vector.
fn tally_masks(m: &DbbMatrix, mut hit: impl FnMut(usize)) {
    let k = match m.axis() {
        BlockAxis::Rows => m.shape().1,
        BlockAxis::Cols => m.shape().0,
    };
    let bz = m.config().bz();
    for v in 0..m.vector_count() {
        for (bi, block) in m.vector_blocks(v).enumerate() {
            let mut mask = block.mask();
            while mask != 0 {
                let p = bi * bz + mask.trailing_zeros() as usize;
                // Tail blocks are zero-padded past `k`; padding never
                // sets mask bits, but guard anyway.
                if p < k {
                    hit(p);
                }
                mask &= mask - 1;
            }
        }
    }
}

/// A layer's active MACs: `sum_p nnzW[p] * nnzA[p]`.
///
/// # Panics
///
/// Panics if the profiles disagree on the reduction length.
pub fn active_macs(w: &WeightProfile, a: &ActivationProfile) -> u64 {
    assert_eq!(w.counts.len(), a.counts.len(), "profile reduction lengths differ");
    w.counts.iter().zip(&a.counts).map(|(&nw, &na)| u64::from(nw) * u64::from(na)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2ta_dbb::DbbConfig;

    #[test]
    fn profiles_count_nonzeros_per_position() {
        let w = Matrix::from_vec(3, 2, vec![1, 0, 0, 2, 3, 4]);
        assert_eq!(WeightProfile::new(&w).counts(), &[2, 2]);

        let a = Matrix::from_vec(2, 3, vec![1, 0, 2, 0, 0, 3]);
        assert_eq!(ActivationProfile::new(&a).counts(), &[2, 1]);
        assert_eq!(ActivationProfile::new(&a), ActivationProfile::from_counts(vec![2, 1]));
    }

    #[test]
    fn act_tallies_pass_the_u8_range() {
        let a = Matrix::from_vec(2, 300, (0..600).map(|i| i8::from(i != 7)).collect());
        assert_eq!(ActivationProfile::new(&a).counts(), &[299, 300]);
    }

    /// The widest activation a `u16` tally holds profiles exactly; one
    /// column more is rejected at construction, never wrapped.
    #[test]
    fn act_profile_holds_exactly_u16_max_columns() {
        let n = usize::from(u16::MAX);
        let a = Matrix::from_vec(1, n, vec![1; n]);
        assert_eq!(ActivationProfile::new(&a).counts(), &[u16::MAX]);
    }

    #[test]
    #[should_panic(
        expected = "activation has 65536 columns; its u16 per-position tallies hold at most 65535"
    )]
    fn act_profile_rejects_activations_wider_than_u16() {
        let n = usize::from(u16::MAX) + 1;
        let _ = ActivationProfile::new(&Matrix::from_vec(1, n, vec![1; n]));
    }

    #[test]
    #[should_panic(expected = "activation has 65536 columns")]
    fn act_of_dbb_rejects_activations_wider_than_u16() {
        let n = usize::from(u16::MAX) + 1;
        let a = Matrix::from_vec(8, n, vec![1; 8 * n]);
        let dm = DbbMatrix::compress(&a, BlockAxis::Cols, DbbConfig::dense(8)).unwrap();
        let _ = ActivationProfile::of_dbb(&dm);
    }

    #[test]
    fn of_dbb_matches_dense_profile() {
        // 5x11: K is not a multiple of the block size, so the mask walk
        // must handle short tail blocks.
        let data: Vec<i8> =
            (0..55u8).map(|i| if i % 3 == 0 { 0 } else { (i % 120) as i8 }).collect();
        let m = Matrix::from_vec(5, 11, data);
        let dm = DbbMatrix::compress(&m, BlockAxis::Rows, DbbConfig::dense(4)).unwrap();
        assert_eq!(WeightProfile::of_dbb(&dm), WeightProfile::new(&m));
    }

    #[test]
    fn act_of_dbb_matches_dense_profile() {
        let data: Vec<i8> =
            (0..77u8).map(|i| if i % 4 == 0 { 0 } else { (i % 120) as i8 }).collect();
        let m = Matrix::from_vec(11, 7, data);
        let dm = DbbMatrix::compress(&m, BlockAxis::Cols, DbbConfig::dense(4)).unwrap();
        assert_eq!(ActivationProfile::of_dbb(&dm), ActivationProfile::new(&m));
    }

    #[test]
    fn active_macs_factorization_matches_bruteforce() {
        let w = Matrix::from_vec(2, 4, vec![1, 0, 5, 0, 0, 2, 5, 0]);
        let a = Matrix::from_vec(4, 3, vec![1, 1, 0, 0, 2, 0, 3, 0, 0, 4, 4, 4]);
        let fast = active_macs(&WeightProfile::new(&w), &ActivationProfile::new(&a));
        let mut slow = 0u64;
        for i in 0..2 {
            for p in 0..4 {
                for j in 0..3 {
                    if w.get(i, p) != 0 && a.get(p, j) != 0 {
                        slow += 1;
                    }
                }
            }
        }
        assert_eq!(fast, slow);
    }
}
