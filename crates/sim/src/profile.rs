//! Per-strip non-zero profiles: the fast path for MAC activity counting.
//!
//! For an output-stationary mapping, the MAC at `(i, p, j)` does useful
//! work iff `W[i,p] != 0 && A[p,j] != 0`. Summing over an output tile,
//! the active-MAC count at reduction position `p` factorizes into
//! `nnzW(tile_rows, p) * nnzA(p, tile_cols)`. Precomputing those counts
//! per row/column strip makes whole-layer event counting `O(K)` per tile
//! instead of `O(rows * K * cols)` — exact, not an approximation (tests
//! in `systolic`/`tpe` assert equality against the looped functional
//! runs).
//!
//! Both profile types store their counts **structure-of-arrays**: all
//! strips live in a single flat vector of `strips * k` entries, strip
//! `s` occupying `counts[s*k .. (s+1)*k]`. One contiguous buffer instead
//! of a `Vec<Vec<_>>` means one allocation per profile, cache-linear
//! strip walks, and inner loops over `strip(s)` that the compiler can
//! vectorize (the slices are plain unit-stride slices). Weight tallies
//! are `u32`; activation tallies are `u16`, since a tally never exceeds
//! the strip width and the activation profiles are the ones cached per
//! request input (constructors reject strips wider than `u16::MAX`).
//!
//! The profile types are **public operands**: because a profile is a
//! pure function of its matrix and strip width, a caller can build it
//! once (e.g. bake the weight profile into a compiled layer plan, or
//! memoize the activation profile per `(layer, act seed)`) and replay
//! the events-only datapaths ([`crate::systolic::run_perf_profiled`],
//! [`crate::tpe::run_wdbb_perf_profiled`],
//! [`crate::tpe::run_aw_perf_profiled`],
//! [`crate::smt::run_sampled_profiled`]) without ever re-materializing
//! the dense matrices. [`RowStripProfile::of_dbb`] goes one step
//! further: it profiles a compressed weight matrix straight from its
//! block masks, so even the *profiling* step materializes nothing.

use s2ta_dbb::{BlockAxis, DbbMatrix};
use s2ta_tensor::Matrix;

/// Per-reduction-position non-zero counts for each row strip of a weight
/// matrix (`M x K`, rows are output channels).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowStripProfile {
    /// Flat SoA tallies: `counts[s*k + p]` = non-zero weights among strip
    /// `s`'s rows at reduction position `p`.
    counts: Vec<u32>,
    strips: usize,
    k: usize,
}

impl RowStripProfile {
    /// Profiles `w` with `strip_rows` rows per strip.
    ///
    /// # Panics
    ///
    /// Panics if `strip_rows` is zero.
    pub fn new(w: &Matrix, strip_rows: usize) -> Self {
        assert!(strip_rows > 0, "strip height must be non-zero");
        let strips = w.rows().div_ceil(strip_rows);
        let k = w.cols();
        let mut counts = vec![0u32; strips * k];
        for r in 0..w.rows() {
            let base = (r / strip_rows) * k;
            let row = w.row(r);
            let strip = &mut counts[base..base + k];
            for (slot, &v) in strip.iter_mut().zip(row) {
                *slot += (v != 0) as u32;
            }
        }
        Self { counts, strips, k }
    }

    /// Profiles a row-blocked compressed weight matrix directly from its
    /// block masks — exact (`DbbBlock` masks mark only genuine
    /// non-zeros, even under the dense config), and allocation-free
    /// beyond the output buffer: no decompression, no scratch.
    ///
    /// # Panics
    ///
    /// Panics if `w` is column-blocked or `strip_rows` is zero.
    pub fn of_dbb(w: &DbbMatrix, strip_rows: usize) -> Self {
        assert!(strip_rows > 0, "strip height must be non-zero");
        assert!(matches!(w.axis(), BlockAxis::Rows), "weight profiles need a row-blocked matrix");
        let (rows, k) = w.shape();
        let strips = rows.div_ceil(strip_rows);
        let bz = w.config().bz();
        let mut counts = vec![0u32; strips * k];
        for (r, vector) in w.vectors().iter().enumerate() {
            let base = (r / strip_rows) * k;
            let strip = &mut counts[base..base + k];
            for (bi, block) in vector.blocks().iter().enumerate() {
                let mut mask = block.mask();
                while mask != 0 {
                    let p = bi * bz + mask.trailing_zeros() as usize;
                    // Tail blocks are zero-padded past `k`; padding never
                    // sets mask bits, but guard anyway.
                    if p < k {
                        strip[p] += 1;
                    }
                    mask &= mask - 1;
                }
            }
        }
        Self { counts, strips, k }
    }

    /// Rebuilds a profile from its flat SoA parts (the inverse of
    /// [`RowStripProfile::flat`]).
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != strips * k` or `strips` is zero.
    pub fn from_flat(counts: Vec<u32>, strips: usize, k: usize) -> Self {
        assert!(strips > 0, "a profile needs at least one strip");
        assert_eq!(counts.len(), strips * k, "flat profile shape mismatch");
        Self { counts, strips, k }
    }

    /// The per-position non-zero counts of strip `s`.
    pub fn strip(&self, s: usize) -> &[u32] {
        &self.counts[s * self.k..(s + 1) * self.k]
    }

    /// Number of row strips.
    pub fn strips(&self) -> usize {
        self.strips
    }

    /// The whole SoA buffer, strip-major: `flat()[s*k + p]`.
    pub fn flat(&self) -> &[u32] {
        &self.counts
    }
}

/// Per-reduction-position non-zero counts for each column strip of an
/// activation matrix (`K x N`, columns are output pixels).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColStripProfile {
    /// Flat SoA tallies, same layout as [`RowStripProfile::flat`].
    counts: Vec<u16>,
    strips: usize,
    k: usize,
}

impl ColStripProfile {
    /// Profiles `a` with `strip_cols` columns per strip.
    ///
    /// # Panics
    ///
    /// Panics if `strip_cols` is zero or above `u16::MAX`.
    pub fn new(a: &Matrix, strip_cols: usize) -> Self {
        check_strip_width(strip_cols);
        let strips = a.cols().div_ceil(strip_cols);
        let k = a.rows();
        let mut counts = vec![0u16; strips * k];
        for p in 0..k {
            for (s, cols) in a.row(p).chunks(strip_cols).enumerate() {
                counts[s * k + p] = cols.iter().filter(|&&v| v != 0).count() as u16;
            }
        }
        Self { counts, strips, k }
    }

    /// Builds a profile from raw `counts[strip][p]` tallies — the escape
    /// hatch for producers (e.g. `s2ta_dbb::dap::dap_col_profile`) that
    /// derive the counts without materializing the profiled matrix.
    ///
    /// # Panics
    ///
    /// Panics if `counts` is empty or its strips have unequal lengths.
    pub fn from_counts(counts: Vec<Vec<u16>>) -> Self {
        assert!(!counts.is_empty(), "a profile needs at least one strip");
        let k = counts[0].len();
        assert!(counts.iter().all(|s| s.len() == k), "strips must share the reduction length");
        let strips = counts.len();
        let mut flat = Vec::with_capacity(strips * k);
        for strip in counts {
            flat.extend_from_slice(&strip);
        }
        Self { counts: flat, strips, k }
    }

    /// Profiles a column-blocked compressed activation matrix directly
    /// from its block masks — the A-DBB analogue of
    /// [`RowStripProfile::of_dbb`]: exact and decompression-free.
    ///
    /// # Panics
    ///
    /// Panics if `a` is row-blocked or `strip_cols` is zero or above
    /// `u16::MAX`.
    pub fn of_dbb(a: &DbbMatrix, strip_cols: usize) -> Self {
        check_strip_width(strip_cols);
        assert!(
            matches!(a.axis(), BlockAxis::Cols),
            "activation profiles need a column-blocked matrix"
        );
        let (k, cols) = a.shape();
        let strips = cols.div_ceil(strip_cols);
        let bz = a.config().bz();
        let mut counts = vec![0u16; strips * k];
        for (c, vector) in a.vectors().iter().enumerate() {
            let base = (c / strip_cols) * k;
            let strip = &mut counts[base..base + k];
            for (bi, block) in vector.blocks().iter().enumerate() {
                let mut mask = block.mask();
                while mask != 0 {
                    let p = bi * bz + mask.trailing_zeros() as usize;
                    if p < k {
                        strip[p] += 1;
                    }
                    mask &= mask - 1;
                }
            }
        }
        Self { counts, strips, k }
    }

    /// Rebuilds a profile from its flat SoA parts (the inverse of
    /// [`ColStripProfile::flat`]) — the allocation-free producer path:
    /// tally straight into a `strips * k` buffer, then wrap it.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != strips * k` or `strips` is zero.
    pub fn from_flat(counts: Vec<u16>, strips: usize, k: usize) -> Self {
        assert!(strips > 0, "a profile needs at least one strip");
        assert_eq!(counts.len(), strips * k, "flat profile shape mismatch");
        Self { counts, strips, k }
    }

    /// The per-position non-zero counts of strip `s`.
    pub fn strip(&self, s: usize) -> &[u16] {
        &self.counts[s * self.k..(s + 1) * self.k]
    }

    /// Number of column strips.
    pub fn strips(&self) -> usize {
        self.strips
    }

    /// The whole SoA buffer, strip-major: `flat()[s*k + p]`.
    pub fn flat(&self) -> &[u16] {
        &self.counts
    }
}

/// Rejects column-strip widths whose tallies could overflow `u16`.
fn check_strip_width(strip_cols: usize) {
    assert!(strip_cols > 0, "strip width must be non-zero");
    assert!(strip_cols <= usize::from(u16::MAX), "strip width {strip_cols} overflows u16 tallies");
}

/// Active MACs for one tile: `sum_p nnzW[p] * nnzA[p]`.
pub fn active_macs(w_strip: &[u32], a_strip: &[u16]) -> u64 {
    debug_assert_eq!(w_strip.len(), a_strip.len());
    w_strip.iter().zip(a_strip).map(|(&nw, &na)| u64::from(nw) * u64::from(na)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2ta_dbb::DbbConfig;

    #[test]
    fn profiles_count_nonzeros_per_strip() {
        // W: 3 rows, strips of 2 -> strips {0,1},{2}.
        let w = Matrix::from_vec(3, 2, vec![1, 0, 0, 2, 3, 4]);
        let p = RowStripProfile::new(&w, 2);
        assert_eq!(p.strips(), 2);
        assert_eq!(p.strip(0), &[1, 1]);
        assert_eq!(p.strip(1), &[1, 1]);
        assert_eq!(p.flat(), &[1, 1, 1, 1]);

        let a = Matrix::from_vec(2, 3, vec![1, 0, 2, 0, 0, 3]);
        let c = ColStripProfile::new(&a, 2);
        assert_eq!(c.strips(), 2);
        assert_eq!(c.strip(0), &[1, 0]);
        assert_eq!(c.strip(1), &[1, 1]);
    }

    #[test]
    fn from_counts_roundtrips_new() {
        let a = Matrix::from_vec(2, 3, vec![1, 0, 2, 0, 0, 3]);
        let direct = ColStripProfile::new(&a, 2);
        let raw = ColStripProfile::from_counts(vec![vec![1, 0], vec![1, 1]]);
        assert_eq!(direct, raw);
        let flat = ColStripProfile::from_flat(vec![1, 0, 1, 1], 2, 2);
        assert_eq!(direct, flat);
    }

    #[test]
    #[should_panic(expected = "share the reduction length")]
    fn from_counts_rejects_ragged_strips() {
        let _ = ColStripProfile::from_counts(vec![vec![1, 0], vec![1]]);
    }

    #[test]
    fn col_tallies_pass_the_u8_range() {
        let a = Matrix::from_vec(2, 300, (0..600).map(|i| i8::from(i != 7)).collect());
        let p = ColStripProfile::new(&a, 300);
        assert_eq!(p.strip(0), &[299, 300]);
    }

    #[test]
    #[should_panic(expected = "overflows u16 tallies")]
    fn col_profile_rejects_strips_wider_than_u16() {
        let a = Matrix::from_vec(1, 1, vec![1]);
        let _ = ColStripProfile::new(&a, usize::from(u16::MAX) + 1);
    }

    #[test]
    #[should_panic(expected = "overflows u16 tallies")]
    fn col_of_dbb_rejects_strips_wider_than_u16() {
        let a = Matrix::from_vec(8, 1, vec![1; 8]);
        let dm = DbbMatrix::compress(&a, BlockAxis::Cols, DbbConfig::dense(8)).unwrap();
        let _ = ColStripProfile::of_dbb(&dm, usize::from(u16::MAX) + 1);
    }

    #[test]
    fn of_dbb_matches_dense_profile() {
        // 5x11: non-multiple of both strip height and block size, so the
        // mask walk must handle short tail blocks and a short last strip.
        let data: Vec<i8> =
            (0..55u8).map(|i| if i % 3 == 0 { 0 } else { (i % 120) as i8 }).collect();
        let m = Matrix::from_vec(5, 11, data);
        let dm = DbbMatrix::compress(&m, BlockAxis::Rows, DbbConfig::dense(4)).unwrap();
        for strip_rows in [1, 2, 4, 5, 7] {
            assert_eq!(
                RowStripProfile::of_dbb(&dm, strip_rows),
                RowStripProfile::new(&m, strip_rows),
                "strip_rows={strip_rows}"
            );
        }
    }

    #[test]
    fn col_of_dbb_matches_dense_profile() {
        let data: Vec<i8> =
            (0..77u8).map(|i| if i % 4 == 0 { 0 } else { (i % 120) as i8 }).collect();
        let m = Matrix::from_vec(7, 11, data);
        let dm = DbbMatrix::compress(&m, BlockAxis::Cols, DbbConfig::dense(4)).unwrap();
        for strip_cols in [1, 3, 4, 11, 16] {
            assert_eq!(
                ColStripProfile::of_dbb(&dm, strip_cols),
                ColStripProfile::new(&m, strip_cols),
                "strip_cols={strip_cols}"
            );
        }
    }

    #[test]
    fn active_macs_factorization_matches_bruteforce() {
        let w = Matrix::from_vec(2, 4, vec![1, 0, 5, 0, 0, 2, 5, 0]);
        let a = Matrix::from_vec(4, 3, vec![1, 1, 0, 0, 2, 0, 3, 0, 0, 4, 4, 4]);
        let wp = RowStripProfile::new(&w, 2);
        let ap = ColStripProfile::new(&a, 3);
        let fast = active_macs(wp.strip(0), ap.strip(0));
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
