//! Sparsity statistics and deterministic synthetic sparse data generation.
//!
//! The paper's microbenchmarks (Sec. 8.2) sweep weight/activation sparsity
//! on synthetic layers; full-model runs use per-layer activation sparsity
//! profiles. Both need reproducible sparse tensors with controlled zero
//! fractions — random (unstructured) zeros for the baselines, and
//! DBB-prunable distributions for S2TA (the DBB pruning itself lives in
//! `s2ta-dbb`).

use crate::{Matrix, Tensor4};
use rand::Rng;

/// A specification for generating synthetic sparse INT8 data.
///
/// Each element is zero independently with probability `sparsity`
/// (unstructured/random sparsity, as produced by ReLU activations and
/// unstructured pruning) and otherwise uniform over `[-127, 127] \ {0}`.
///
/// The generator's word contract on the RNG's `next_u64` stream:
///
/// - each element reads one header word `h`, and is zero iff
///   `h >> 11 < ceil(sparsity * 2^53)` (the `gen_bool(sparsity)` test);
/// - a non-zero element then reads value words until one is accepted:
///   `w != u64::MAX` and `w % 255 != 127`; its value is `w % 255 - 127`;
/// - the words never depend on how they are consumed, only their roles
///   do, so a seed fixes the matrix and the stream position after it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseSpec {
    sparsity: f64,
}

impl SparseSpec {
    /// Random (unstructured) sparsity with the given zero fraction.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= sparsity <= 1.0`.
    pub fn random(sparsity: f64) -> Self {
        assert!((0.0..=1.0).contains(&sparsity), "sparsity must be in [0,1], got {sparsity}");
        Self { sparsity }
    }

    /// Fully dense data (no zeros).
    pub fn dense() -> Self {
        Self::random(0.0)
    }

    /// The configured zero fraction.
    pub fn sparsity(&self) -> f64 {
        self.sparsity
    }

    /// Generates a tensor with this sparsity.
    pub fn tensor<R: Rng>(&self, dims: [usize; 4], rng: &mut R) -> Tensor4 {
        let len = dims.iter().product();
        Tensor4::from_vec(dims, self.values(len, rng))
    }

    /// Generates a matrix with this sparsity.
    pub fn matrix<R: Rng>(&self, rows: usize, cols: usize, rng: &mut R) -> Matrix {
        Matrix::from_vec(rows, cols, self.values(rows * cols, rng))
    }

    /// Generates a matrix with this sparsity into recycled storage:
    /// `buf` (typically a previous matrix's
    /// [`Matrix::into_data`]) backs the result, so a warm buffer of
    /// sufficient capacity makes the generation allocation-free. Draw
    /// order is identical to [`SparseSpec::matrix`], so the same RNG
    /// state yields a bit-identical matrix.
    pub fn matrix_into<R: Rng>(
        &self,
        rows: usize,
        cols: usize,
        rng: &mut R,
        mut buf: Vec<i8>,
    ) -> Matrix {
        buf.clear();
        self.values_into(rows * cols, rng, &mut buf);
        Matrix::from_vec(rows, cols, buf)
    }

    fn values<R: Rng>(&self, len: usize, rng: &mut R) -> Vec<i8> {
        let mut out = Vec::with_capacity(len);
        self.values_into(len, rng, &mut out);
        out
    }

    /// Draws `len` elements: per element one `gen_bool(sparsity)` draw,
    /// then — for a non-zero — `Uniform::new_inclusive(-127, 127)` draws
    /// until one is non-zero, so "non-zero" positions are truly non-zero
    /// and the realized sparsity tracks the spec.
    ///
    /// Both draws are specialized to integer arithmetic on the raw
    /// `next_u64` stream, consuming exactly the words the generic calls
    /// would and mapping them to the same values (the word contract on
    /// [`SparseSpec`], pinned against the generic sequence by
    /// `specialized_draws_match_generic_sequence`). At
    /// [`BLOCK_MIN_SPARSITY`] and above the words are consumed in
    /// blocks by [`fill_blocks`]; below it nearly every header is
    /// non-zero, the per-element branch predicts well, and the plain
    /// loop is faster.
    fn values_into<R: Rng>(&self, len: usize, rng: &mut R, out: &mut Vec<i8>) {
        let zero_below = zero_threshold(self.sparsity);
        if self.sparsity < BLOCK_MIN_SPARSITY {
            out.extend((0..len).map(|_| {
                if rng.next_u64() >> 11 < zero_below {
                    0
                } else {
                    loop {
                        if let Some(x) = accept(rng.next_u64()) {
                            break x;
                        }
                    }
                }
            }));
        } else {
            let start = out.len();
            out.resize(start + len, 0);
            fill_blocks(zero_below, rng, &mut out[start..]);
        }
    }
}

/// The sparsity from which [`fill_blocks`] generates. On a 288x256
/// matrix (2-vCPU Xeon) it takes 1.5x the per-element loop's time at
/// 5% sparsity, about the same at 20-25%, and 0.57x at 50%. Past ~93%
/// the loop's branch predicts well again (1.14x at 97%), a range no
/// model's sparsity profile reaches.
const BLOCK_MIN_SPARSITY: f64 = 0.25;

/// Words per block of [`fill_blocks`]: one bit each in a `u64` mask.
const BLOCK: usize = 64;

/// Fills `dst` (zeroed) under the word contract without a
/// data-dependent branch per element, so ~50% sparsity no longer
/// mispredicts every other element.
///
/// Each block draws `c = min(64, elements left)` words. Every element
/// takes at least one word, so a block never draws past the last
/// element's final word and the stream ends exactly where the
/// per-element loop's does. A mask of the header tests then assigns
/// roles with carry arithmetic (the odd-run escape scan of simdjson):
/// a non-zero header makes the next word a value word, which cannot
/// itself be a header, so in a run of non-zero tests roles alternate
/// from the run's first header. Only the value words are visited; the
/// `m`-th of a segment (1-based) at position `j` fills element
/// `done + pending + j - m`. A rejected value word (probability 1/255)
/// leaves its element pending, so the scan restarts after it with the
/// next word as a value word.
fn fill_blocks<R: Rng>(zero_below: u64, rng: &mut R, dst: &mut [i8]) {
    const ODD: u64 = 0xAAAA_AAAA_AAAA_AAAA;
    let mut words = [0u64; BLOCK];
    // Elements finished; with `pending == 1`, element `done` has read
    // its non-zero header and waits for an accepted value word.
    let mut done = 0;
    let mut pending = 0;
    while done < dst.len() {
        let c = (dst.len() - done).min(BLOCK);
        // Zero tests shift in from the bottom, so word 0 lands on the
        // block's top bit and the reversal puts it on bit 0.
        let mut zero = 0u64;
        for w in &mut words[..c] {
            *w = rng.next_u64();
            zero = (zero << 1) | (*w >> 11 < zero_below) as u64;
        }
        let non_zero = (!zero << (BLOCK - c)).reverse_bits();
        let mut s = 0;
        while s < c {
            let n = c - s;
            // Word 0 of the segment is a value word iff `pending`; `t`
            // marks, per run of non-zero tests, the headers and the
            // value word that ends the run.
            let nz = non_zero >> s;
            let starts = nz & !pending;
            let t = (((starts << 1) | ODD).wrapping_sub(starts)) ^ ODD;
            let mut values = (t ^ (nz | pending)) & (u64::MAX >> (BLOCK - n));
            let headers = t & nz;
            let base = done + pending as usize;
            let mut m = 0;
            let mut rejected = None;
            while values != 0 {
                let j = values.trailing_zeros() as usize;
                let Some(x) = accept(words[s + j]) else {
                    rejected = Some(j);
                    break;
                };
                m += 1;
                dst[base + j - m] = x;
                values &= values - 1;
            }
            match rejected {
                None => {
                    // A non-zero header on the last word carries out.
                    let carry = (headers >> (n - 1)) & 1;
                    done = base + n - m - carry as usize;
                    pending = carry;
                    break;
                }
                Some(j) => {
                    done = base + j - m - 1;
                    pending = 1;
                    s += j + 1;
                }
            }
        }
    }
}

/// The value a value word yields, or `None` when the uniform draw
/// re-draws it: the word falls in the rejection zone, or maps to zero.
#[inline(always)]
fn accept(w: u64) -> Option<i8> {
    let x = (w % VALUE_SPAN) as i16 - 127;
    (w < VALUE_ZONE && x != 0).then_some(x as i8)
}

/// `gen_bool(p)` is `(b >> 11) as f64 * 2^-53 < p` for a raw word `b`.
/// Scaling both sides by `2^53` is exact, and an integer is below a real
/// exactly when it is below that real's ceiling, so the draw is zero iff
/// `b >> 11 < ceil(p * 2^53)`.
fn zero_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// Span of the uniform `[-127, 127]` value draw.
const VALUE_SPAN: u64 = 255;
/// The uniform draw's rejection zone: words at or above it are re-drawn
/// so `v % VALUE_SPAN` carries no modulo bias.
const VALUE_ZONE: u64 = (u64::MAX / VALUE_SPAN) * VALUE_SPAN;

/// Density statistics of a channel-blocked tensor: for each block of `bz`
/// consecutive reduction elements, how many are non-zero.
///
/// This is the quantity DBB bounds; the histogram drives the analytic
/// cycle model for time-unrolled execution (cycles per block = NNZ).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockDensity {
    /// `histogram[i]` = number of blocks with exactly `i` non-zeros.
    pub histogram: Vec<u64>,
    /// Block size the histogram was computed for.
    pub bz: usize,
}

impl BlockDensity {
    /// Computes the per-block non-zero histogram of a matrix whose rows are
    /// reduction vectors (length padded up to a multiple of `bz` with
    /// zeros, matching the hardware's zero-padded final block).
    ///
    /// # Panics
    ///
    /// Panics if `bz == 0`.
    pub fn of_rows(m: &Matrix, bz: usize) -> Self {
        assert!(bz > 0, "block size must be non-zero");
        let mut histogram = vec![0u64; bz + 1];
        for r in 0..m.rows() {
            let row = m.row(r);
            for chunk in row.chunks(bz) {
                let nnz = chunk.iter().filter(|&&v| v != 0).count();
                histogram[nnz] += 1;
            }
        }
        Self { histogram, bz }
    }

    /// Computes the histogram over columns (each column is a reduction
    /// vector), the orientation of im2col activation matrices.
    ///
    /// # Panics
    ///
    /// Panics if `bz == 0`.
    pub fn of_cols(m: &Matrix, bz: usize) -> Self {
        assert!(bz > 0, "block size must be non-zero");
        let mut histogram = vec![0u64; bz + 1];
        for c in 0..m.cols() {
            let mut r = 0;
            while r < m.rows() {
                let end = (r + bz).min(m.rows());
                let nnz = (r..end).filter(|&i| m.get(i, c) != 0).count();
                histogram[nnz] += 1;
                r = end;
            }
        }
        Self { histogram, bz }
    }

    /// Total number of blocks.
    pub fn blocks(&self) -> u64 {
        self.histogram.iter().sum()
    }

    /// Mean non-zeros per block.
    pub fn mean_nnz(&self) -> f64 {
        let total: u64 =
            self.histogram.iter().enumerate().map(|(nnz, &count)| nnz as u64 * count).sum();
        total as f64 / self.blocks() as f64
    }

    /// Fraction of blocks whose NNZ exceeds `bound` — i.e. the blocks DAP
    /// would have to prune to satisfy a `bound/bz` DBB constraint.
    pub fn violation_rate(&self, bound: usize) -> f64 {
        let over: u64 = self.histogram.iter().skip(bound + 1).sum();
        over as f64 / self.blocks() as f64
    }
}

/// Summary sparsity statistics for an operand matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparsityStats {
    /// Fraction of zero elements.
    pub zero_fraction: f64,
    /// Total elements.
    pub elements: usize,
}

impl SparsityStats {
    /// Computes stats for a matrix.
    pub fn of(m: &Matrix) -> Self {
        Self { zero_fraction: m.sparsity(), elements: m.len() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::distributions::{Distribution, Uniform};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn realized_sparsity_tracks_spec() {
        let mut rng = StdRng::seed_from_u64(42);
        for target in [0.0, 0.25, 0.5, 0.8] {
            let m = SparseSpec::random(target).matrix(64, 256, &mut rng);
            assert!((m.sparsity() - target).abs() < 0.02, "target {target}, got {}", m.sparsity());
        }
    }

    #[test]
    fn dense_spec_has_no_zeros() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = SparseSpec::dense().matrix(16, 16, &mut rng);
        assert_eq!(m.count_zeros(), 0);
    }

    #[test]
    fn block_density_row_histogram() {
        // Row of 8 with 3 non-zeros + row of 8 with 8 non-zeros.
        let mut data = vec![0i8; 8];
        data[0] = 1;
        data[3] = 2;
        data[7] = -1;
        data.extend_from_slice(&[1; 8]);
        let m = Matrix::from_vec(2, 8, data);
        let d = BlockDensity::of_rows(&m, 8);
        assert_eq!(d.blocks(), 2);
        assert_eq!(d.histogram[3], 1);
        assert_eq!(d.histogram[8], 1);
        assert!((d.mean_nnz() - 5.5).abs() < 1e-12);
        assert!((d.violation_rate(4) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn block_density_cols_partial_final_block() {
        // 10 rows, bz 8 -> blocks of 8 and 2 per column.
        let m = Matrix::from_vec(10, 1, vec![1, 0, 0, 0, 0, 0, 0, 0, 1, 1]);
        let d = BlockDensity::of_cols(&m, 8);
        assert_eq!(d.blocks(), 2);
        assert_eq!(d.histogram[1], 1); // first block: one non-zero
        assert_eq!(d.histogram[2], 1); // tail block: two non-zeros
    }

    #[test]
    fn mean_nnz_of_random_matches_density() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = SparseSpec::random(0.5).matrix(128, 128, &mut rng);
        let d = BlockDensity::of_cols(&m, 8);
        assert!((d.mean_nnz() - 4.0).abs() < 0.2, "mean {}", d.mean_nnz());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = SparseSpec::random(0.5).matrix(8, 8, &mut StdRng::seed_from_u64(9));
        let b = SparseSpec::random(0.5).matrix(8, 8, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    /// The generic draw sequence the specialized generator reproduces:
    /// `gen_bool(sparsity)`, then `Uniform(-127..=127)` zero re-draws.
    fn generic_values<R: Rng>(sparsity: f64, len: usize, rng: &mut R) -> Vec<i8> {
        let dist = Uniform::new_inclusive(-127i8, 127i8);
        (0..len)
            .map(|_| {
                if rng.gen_bool(sparsity) {
                    0
                } else {
                    loop {
                        let v = dist.sample(rng);
                        if v != 0 {
                            break v;
                        }
                    }
                }
            })
            .collect()
    }

    #[test]
    fn specialized_draws_match_generic_sequence() {
        let mut meta = StdRng::seed_from_u64(0x5eed);
        for seed in 0..200u64 {
            let random: [f64; 3] = [meta.gen(), meta.gen(), meta.gen()];
            for sparsity in edge_sparsities().into_iter().chain(random) {
                // Lengths either side of the first two block edges.
                let edges = [63, 64, 65, 127, 128, 129];
                for len in [0, 1, 2, 7, meta.gen_range(3usize..600)].into_iter().chain(edges) {
                    let case = format!("seed {seed}");
                    assert_matches_generic(sparsity, len, StdRng::seed_from_u64(seed), &case);
                }
            }
        }
    }

    /// Asserts the generator yields the generic sequence's values from
    /// `rng` and leaves the stream at the same position.
    fn assert_matches_generic<R: RngCore + Clone>(sparsity: f64, len: usize, rng: R, case: &str) {
        let mut fast = rng.clone();
        let mut generic = rng;
        let got = SparseSpec::random(sparsity).values(len, &mut fast);
        let want = generic_values(sparsity, len, &mut generic);
        assert_eq!(got, want, "{case}, sparsity {sparsity}, len {len}");
        assert_eq!(fast.next_u64(), generic.next_u64(), "stream position, {case}");
    }

    /// The extremes, either side of the block generator's cutoff, and
    /// the profiles' typical range.
    fn edge_sparsities() -> [f64; 6] {
        [0.0, 1.0, BLOCK_MIN_SPARSITY - 1e-9, BLOCK_MIN_SPARSITY + 1e-9, 0.5, 0.8]
    }

    /// A CIFAR-10 conv2 matrix at 50% sparsity spans about 1,730 blocks
    /// and 145 rejected value words.
    #[test]
    fn conv2_sized_draws_match_generic_sequence() {
        for sparsity in edge_sparsities() {
            for seed in 0..3 {
                let case = format!("seed {seed}");
                assert_matches_generic(sparsity, 288 * 256, StdRng::seed_from_u64(seed), &case);
            }
        }
    }

    /// A stream of words drawn at random from a curated list.
    #[derive(Clone)]
    struct Curated {
        words: Vec<u64>,
        pick: StdRng,
    }

    impl RngCore for Curated {
        fn next_u64(&mut self) -> u64 {
            self.words[self.pick.gen_range(0..self.words.len())]
        }
    }

    #[test]
    fn specialized_draws_handle_boundary_words() {
        // Words exactly on the edges: either side of each zero
        // threshold, the value draw's zero (`v % 255 == 127`), its
        // rejected top word and the words around it.
        for sparsity in [0.0, 1.0, 0.25, 1.0 / 3.0, 0.5, 0.1, 0.999_999, f64::MIN_POSITIVE] {
            let t = zero_threshold(sparsity);
            let mut words: Vec<u64> = [t.saturating_sub(1), t, t + 1]
                .iter()
                .flat_map(|&m| [m << 11, (m << 11) | 0x7ff])
                .collect();
            words.extend([0, 127, 254, 255 + 127, u64::MAX, u64::MAX - 1, VALUE_ZONE - 1]);
            words.extend([VALUE_ZONE - 1 - 127, (u64::MAX / 255 - 1) * 255 + 127]);
            for seed in 0..20 {
                let rng = Curated { words: words.clone(), pick: StdRng::seed_from_u64(seed) };
                assert_matches_generic(sparsity, 300, rng, &format!("seed {seed}"));
            }
        }
    }

    /// A fixed word sequence, then each word's own stream index (small
    /// words: zero headers, and mostly accepted values).
    #[derive(Clone)]
    struct Scripted {
        words: Vec<u64>,
        at: usize,
    }

    impl RngCore for Scripted {
        fn next_u64(&mut self) -> u64 {
            let w = self.words.get(self.at).copied().unwrap_or(self.at as u64);
            self.at += 1;
            w
        }
    }

    #[test]
    fn block_edges_handle_scripted_words() {
        // Below any sparsity's threshold but 0's: a zero header, or the
        // accepted value -127.
        const ZERO: u64 = 0;
        // Above any threshold but 1's: a non-zero header, or value 127.
        const NON_ZERO: u64 = u64::MAX - 1;
        // Rejected as value words: the rejection zone (a non-zero
        // header), and words mapping to zero (a zero header and a
        // non-zero one).
        const ZONE: u64 = u64::MAX;
        const ZERO_VALUE: u64 = 127;
        const HIGH_ZERO_VALUE: u64 = (u64::MAX / 255 - 1) * 255 + 127;
        let runs = |word: u64, n: usize| vec![word; n];
        let tails: Vec<Vec<u64>> = vec![
            vec![NON_ZERO],
            vec![NON_ZERO, ZONE],
            vec![NON_ZERO, ZERO_VALUE],
            vec![NON_ZERO, ZONE, ZERO_VALUE, HIGH_ZERO_VALUE, NON_ZERO],
            [runs(NON_ZERO, 1), runs(ZONE, 10), runs(ZERO_VALUE, 5), runs(NON_ZERO, 3)].concat(),
            runs(NON_ZERO, 9),
            runs(HIGH_ZERO_VALUE, 70),
            [runs(ZONE, 3), runs(NON_ZERO, 4), runs(ZONE, 66)].concat(),
        ];
        // A run of zero headers puts each tail's first word on either
        // side of the first and second block edges.
        for lead in (0..4).chain(60..67).chain(124..131) {
            for tail in &tails {
                let words = [runs(ZERO, lead), tail.clone()].concat();
                for sparsity in edge_sparsities().into_iter().chain([0.999]) {
                    for len in [63, 64, 65, 127, 128, 129, 200] {
                        let rng = Scripted { words: words.clone(), at: 0 };
                        let case = format!("lead {lead}, tail {tail:?}");
                        assert_matches_generic(sparsity, len, rng, &case);
                    }
                }
            }
        }
    }
}
