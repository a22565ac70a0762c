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
//! Weight tallies are `u32`. Activation tallies are counted as `u16`,
//! since a tally never exceeds the activation width `N`, and are
//! *stored* at the narrowest width that holds the largest one: one bit
//! per position when every tally is 0 or 1 (every batch-1 FC layer has
//! `N = 1`), a byte when the largest fits a `u8`, and a `u16`
//! otherwise. Constructors reject activations wider than `u16::MAX`
//! columns rather than wrap.
//! The datapaths read activation tallies through the borrowed
//! [`ActTallies`] view, which dispatches on the width once per layer;
//! [`ActTallies::from_counts`] views unnarrowed `u16` counts, for a
//! profile read once in place and never stored.
//!
//! The profile types are **public operands**: because a profile is a
//! pure function of its matrix, a caller can build it once (e.g. bake
//! the weight profile into a compiled layer plan), price a layer's
//! active MACs with [`active_macs`], and replay the events-only
//! datapaths ([`crate::systolic::run_perf_profiled_into`],
//! [`crate::tpe::run_wdbb_perf_profiled_into`],
//! [`crate::tpe::run_aw_perf_profiled_into`],
//! [`crate::smt::run_sampled_profiled_into`]) on that count without
//! ever re-materializing the dense matrices. Weight values never reach
//! those datapaths: they read a [`WeightDesc`] (shape, W-DBB
//! configuration, storage size) next to the count.
//! [`WeightProfile::of_dbb`] and [`ActivationProfile::of_dbb`] profile
//! compressed matrices straight from their block masks, so even the
//! *profiling* step materializes nothing.

use s2ta_dbb::dap::check_tally_width;
use s2ta_dbb::{BlockAxis, DbbConfig, DbbMatrix};
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

/// What the profiled datapaths read of a compiled `M x K` weight
/// matrix besides its [`WeightProfile`]: the shape and, for
/// row-blocked DBB weights, the W-DBB configuration and compressed
/// storage size. Weights are static, so a compiled layer plan keeps
/// this descriptor and the profile and drops the values themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightDesc {
    rows: usize,
    k: usize,
    /// `None` for raw (uncompressed) weights.
    config: Option<DbbConfig>,
    storage_bytes: usize,
}

impl WeightDesc {
    /// Describes raw weights: one byte per element, no DBB blocking.
    pub fn dense(w: &Matrix) -> Self {
        Self { rows: w.rows(), k: w.cols(), config: None, storage_bytes: w.len() }
    }

    /// Describes row-blocked compressed weights.
    ///
    /// # Panics
    ///
    /// Panics if `w` is column-blocked.
    pub fn of_dbb(w: &DbbMatrix) -> Self {
        assert_eq!(w.axis(), BlockAxis::Rows, "weights must be row-blocked");
        let (rows, k) = w.shape();
        Self { rows, k, config: Some(w.config()), storage_bytes: w.storage_bytes() }
    }

    /// Output rows `M`.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Reduction length `K`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The W-DBB configuration, or `None` for raw weights.
    pub fn config(&self) -> Option<DbbConfig> {
        self.config
    }

    /// Bytes the weights occupy in SRAM: compressed storage for DBB
    /// weights, `M * K` for raw ones.
    pub fn storage_bytes(&self) -> usize {
        self.storage_bytes
    }
}

/// `nnzA[p]`: the non-zero activations in row `p` of a `K x N`
/// activation matrix (columns are output pixels), over all `N` columns.
///
/// The tallies sit in one allocation, at the narrowest width that
/// holds the largest one (see the module docs); read them through
/// [`ActivationProfile::tallies`]. The width is a pure function of the
/// counts, so equal counts compare equal whichever constructor made
/// them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActivationProfile {
    /// Positions per side (`K`).
    len: usize,
    store: Store,
}

/// The tallies at one width.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Store {
    /// Every tally is 0 or 1: bit `p % 64` of word `p / 64`.
    Bits(Box<[u64]>),
    U8(Box<[u8]>),
    U16(Box<[u16]>),
}

impl ActivationProfile {
    /// Profiles `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a` has more than `u16::MAX` columns.
    pub fn new(a: &Matrix) -> Self {
        check_tally_width(a.cols());
        let counts: Vec<u16> =
            (0..a.rows()).map(|p| a.row(p).iter().filter(|&&v| v != 0).count() as u16).collect();
        Self::from_counts(&counts)
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
        Self::from_counts(&counts)
    }

    /// Narrows precomputed `nnzA[p]` tallies — the path for producers
    /// (e.g. `s2ta_dbb::dap::dap_col_profile`) that derive the counts
    /// without materializing the profiled matrix.
    pub fn from_counts(counts: &[u16]) -> Self {
        let len = counts.len();
        let max = counts.iter().copied().max().unwrap_or(0);
        let store = if max <= 1 {
            let mut bits = vec![0u64; len.div_ceil(64)];
            for (p, &c) in counts.iter().enumerate() {
                bits[p / 64] |= u64::from(c) << (p % 64);
            }
            Store::Bits(bits.into_boxed_slice())
        } else if max <= u16::from(u8::MAX) {
            Store::U8(counts.iter().map(|&c| c as u8).collect())
        } else {
            Store::U16(counts.into())
        };
        Self { len, store }
    }

    /// Positions covered: the reduction length `K`.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the profile covers no reduction position.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The tallies.
    pub fn tallies(&self) -> ActTallies<'_> {
        let len = self.len;
        ActTallies(match &self.store {
            Store::Bits(words) => Tallies::Bits { words, len },
            Store::U8(c) => Tallies::U8(c),
            Store::U16(c) => Tallies::U16(c),
        })
    }
}

/// The tallies of an [`ActivationProfile`], borrowed at their storage
/// width, or of `u16` counts viewed as counted.
///
/// Equality compares the tallies, not the width: `u16` counts viewed
/// in place equal a profile of the same counts stored in bits.
#[derive(Debug, Clone, Copy)]
pub struct ActTallies<'a>(Tallies<'a>);

#[derive(Debug, Clone, Copy)]
enum Tallies<'a> {
    Bits { words: &'a [u64], len: usize },
    U8(&'a [u8]),
    U16(&'a [u16]),
}

impl<'a> ActTallies<'a> {
    /// Views `u16` tallies as counted, without narrowing them: the
    /// read of a tally pass that is used once and never stored.
    pub fn from_counts(counts: &'a [u16]) -> Self {
        Self(Tallies::U16(counts))
    }

    /// Positions covered: the reduction length `K`.
    pub fn len(self) -> usize {
        match self.0 {
            Tallies::Bits { len, .. } => len,
            Tallies::U8(c) => c.len(),
            Tallies::U16(c) => c.len(),
        }
    }

    /// `true` when no reduction position is covered.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Storage bits per tally: 1, 8 or 16.
    pub fn width_bits(self) -> u32 {
        match self.0 {
            Tallies::Bits { .. } => 1,
            Tallies::U8(_) => u8::BITS,
            Tallies::U16(_) => u16::BITS,
        }
    }

    /// The tally at position `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn get(self, p: usize) -> u16 {
        match self.0 {
            Tallies::Bits { words, len } => {
                assert!(p < len, "position {p} out of range for {len} tallies");
                ((words[p / 64] >> (p % 64)) & 1) as u16
            }
            Tallies::U8(c) => u16::from(c[p]),
            Tallies::U16(c) => c[p],
        }
    }

    /// The tallies in position order, widened to `u16`.
    pub fn iter(self) -> impl Iterator<Item = u16> + 'a {
        (0..self.len()).map(move |p| self.get(p))
    }
}

impl PartialEq for ActTallies<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for ActTallies<'_> {}

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

/// A layer's active MACs: `sum_p nnzW[p] * nnzA[p]`, one dot product
/// at the activation tallies' storage width (over the set positions
/// when they are bits).
///
/// # Panics
///
/// Panics if the profiles disagree on the reduction length.
pub fn active_macs(w: &WeightProfile, a: ActTallies<'_>) -> u64 {
    assert_eq!(w.counts.len(), a.len(), "profile reduction lengths differ");
    fn dot<T: Copy + Into<u64>>(w: &[u32], a: &[T]) -> u64 {
        w.iter().zip(a).map(|(&nw, &na)| u64::from(nw) * na.into()).sum()
    }
    match a.0 {
        Tallies::Bits { words, .. } => w
            .counts
            .chunks(64)
            .zip(words)
            .map(|(nw, &bits)| {
                nw.iter().enumerate().map(|(i, &c)| u64::from(c) * ((bits >> i) & 1)).sum::<u64>()
            })
            .sum(),
        Tallies::U8(c) => dot(&w.counts, c),
        Tallies::U16(c) => dot(&w.counts, c),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use s2ta_dbb::DbbConfig;
    use s2ta_tensor::sparsity::SparseSpec;

    fn tallies(ap: &ActivationProfile) -> Vec<u16> {
        ap.tallies().iter().collect()
    }

    #[test]
    fn profiles_count_nonzeros_per_position() {
        let w = Matrix::from_vec(3, 2, vec![1, 0, 0, 2, 3, 4]);
        assert_eq!(WeightProfile::new(&w).counts(), &[2, 2]);

        let a = Matrix::from_vec(2, 3, vec![1, 0, 2, 0, 0, 3]);
        assert_eq!(tallies(&ActivationProfile::new(&a)), [2, 1]);
        assert_eq!(ActivationProfile::new(&a), ActivationProfile::from_counts(&[2, 1]));
    }

    #[test]
    fn act_tallies_pass_the_u8_range() {
        let a = Matrix::from_vec(2, 300, (0..600).map(|i| i8::from(i != 7)).collect());
        assert_eq!(tallies(&ActivationProfile::new(&a)), [299, 300]);
    }

    /// The widest activation a `u16` tally holds profiles exactly; one
    /// column more is rejected at construction, never wrapped.
    #[test]
    fn act_profile_holds_exactly_u16_max_columns() {
        let n = usize::from(u16::MAX);
        let a = Matrix::from_vec(1, n, vec![1; n]);
        assert_eq!(tallies(&ActivationProfile::new(&a)), [u16::MAX]);
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
        let fast = active_macs(&WeightProfile::new(&w), ActivationProfile::new(&a).tallies());
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

    /// The width each largest tally narrows to, and the tallies it
    /// must still read back: the edges of every width.
    const WIDTH_EDGES: [(u16, u32); 6] =
        [(0, 1), (1, 1), (2, 8), (255, 8), (256, 16), (u16::MAX, 16)];

    /// `k` tallies in `0..=top` drawn from `codes`, with `top` itself
    /// at one position.
    fn capped_counts(codes: &[u32], k: usize, top: u16) -> Vec<u16> {
        let mut counts: Vec<u16> =
            codes[..k].iter().map(|&c| (c % (u32::from(top) + 1)) as u16).collect();
        counts[codes[k] as usize % k] = top;
        counts
    }

    fn wide_dot(w: &[u32], a: &[u16]) -> u64 {
        w.iter().zip(a).map(|(&nw, &na)| u64::from(nw) * u64::from(na)).sum()
    }

    #[test]
    fn narrowing_picks_the_width_of_the_largest_tally() {
        for (top, bits) in WIDTH_EDGES {
            for k in [1, 63, 64, 65, 130] {
                let codes: Vec<u32> =
                    (0..=k as u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
                let counts = capped_counts(&codes, k, top);
                let ap = ActivationProfile::from_counts(&counts);
                assert_eq!(ap.tallies().width_bits(), bits, "top {top}, k {k}");
                assert_eq!((ap.len(), tallies(&ap)), (k, counts.clone()), "top {top}, k {k}");
            }
        }
    }

    proptest! {
        /// `active_macs` over narrowed tallies equals the wide `u16`
        /// dot product at every width, for reduction lengths on and off
        /// the 64-bit word.
        #[test]
        fn prop_narrow_active_macs_equal_the_wide_dot_product(
            k in 1usize..300,
            edge in 0usize..6,
            codes in prop::collection::vec(any::<u32>(), 301),
            wcodes in prop::collection::vec(any::<u32>(), 300),
        ) {
            let (top, bits) = WIDTH_EDGES[edge];
            let counts = capped_counts(&codes, k, top);
            let w = WeightProfile { counts: wcodes[..k].iter().map(|&c| c % 4096).collect() };
            let ap = ActivationProfile::from_counts(&counts);
            prop_assert_eq!(ap.tallies().width_bits(), bits);
            prop_assert_eq!(active_macs(&w, ap.tallies()), wide_dot(&w.counts, &counts));
            let wide = ActTallies::from_counts(&counts);
            prop_assert_eq!(wide.width_bits(), 16);
            prop_assert_eq!(wide, ap.tallies());
            prop_assert_eq!(active_macs(&w, wide), wide_dot(&w.counts, &counts));
        }

        /// Profiling a matrix, its compressed blocks or its counts gives
        /// one profile, whatever width its tallies narrow to.
        #[test]
        fn prop_every_constructor_narrows_alike(
            rows in 1usize..140,
            cols_pick in 0usize..6,
            sp in 0.0f64..1.0,
            seed in any::<u64>(),
        ) {
            let cols = [1, 2, 3, 255, 256, 300][cols_pick];
            let m = SparseSpec::random(sp).matrix(rows, cols, &mut StdRng::seed_from_u64(seed));
            let counts: Vec<u16> = (0..rows)
                .map(|p| m.row(p).iter().filter(|&&v| v != 0).count() as u16)
                .collect();
            let dm = DbbMatrix::compress(&m, BlockAxis::Cols, DbbConfig::dense(8)).unwrap();
            let ap = ActivationProfile::from_counts(&counts);
            prop_assert_eq!(&ActivationProfile::new(&m), &ap);
            prop_assert_eq!(&ActivationProfile::of_dbb(&dm), &ap);
            prop_assert_eq!(tallies(&ap), counts);
        }
    }
}
