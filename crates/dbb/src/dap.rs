//! Dynamic Activation Pruning (paper Sec. 5.1, 6.2, Fig. 8).
//!
//! Activations are computed at runtime, so their DBB bound must be
//! enforced *online*: DAP keeps the Top-NNZ largest-magnitude elements of
//! each activation block. The hardware is a cascade of magnitude-maxpool
//! stages — each stage finds the largest remaining magnitude with `BZ-1`
//! comparators and removes it from consideration — capped at **5 stages**
//! (Sec. 6.2: higher NNZ "would usually not lead to significant
//! efficiency gains"); layers needing more run dense.
//!
//! This module provides:
//!
//! * [`dap_block`] — the software Top-NNZ reference.
//! * [`DapUnit`] — a stage-by-stage model of the cascaded-maxpool
//!   hardware, producing identical selections plus the per-stage event
//!   counts consumed by the energy model.
//! * [`LayerNnz`] / [`choose_layer_nnz`] — the per-layer variable density
//!   selection (Sec. 5.2: per-layer tuned A-DBB from 8/8 down to 2/8).

use crate::config::MAX_BZ;
use crate::{BlockAxis, DbbConfig, DbbMatrix};
use s2ta_tensor::Matrix;

/// Maximum number of cascaded maxpool stages the DAP hardware implements.
pub const MAX_DAP_STAGES: usize = 5;

/// Software reference for DAP on one block: keeps the `nnz`
/// largest-magnitude elements (ties to the lower index), zeroes the rest.
pub fn dap_block(block: &mut [i8], nnz: usize) {
    let found = block.iter().filter(|&&v| v != 0).count();
    if found <= nnz {
        return;
    }
    let mags: Vec<f64> = block.iter().map(|&v| (v as f64).abs()).collect();
    let keep = crate::prune::top_magnitude_indices(&mags, nnz);
    let mut keep_iter = keep.iter().peekable();
    for (i, v) in block.iter_mut().enumerate() {
        if keep_iter.peek() == Some(&&i) {
            keep_iter.next();
        } else {
            *v = 0;
        }
    }
}

/// Event counts from one hardware DAP invocation, for energy accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DapEvents {
    /// Maxpool stages that actually evaluated (≤ `MAX_DAP_STAGES`).
    pub stages: u64,
    /// Binary magnitude comparisons performed (`BZ - 1` per stage).
    pub comparisons: u64,
}

/// A model of the cascaded magnitude-maxpool DAP hardware (Fig. 8).
///
/// Functionally identical to [`dap_block`] (asserted by tests and
/// property tests) but structured as the hardware is: one maxpool stage
/// per kept element, each scanning the not-yet-selected positions.
#[derive(Debug, Clone, Copy)]
pub struct DapUnit {
    bz: usize,
}

impl DapUnit {
    /// Creates a DAP unit for blocks of `bz` elements.
    ///
    /// # Panics
    ///
    /// Panics if `bz` is 0 or exceeds 16.
    pub fn new(bz: usize) -> Self {
        assert!(bz > 0 && bz <= MAX_BZ, "unsupported block size {bz}");
        Self { bz }
    }

    /// Runs the cascade on `block`, keeping at most `nnz` elements and
    /// returning the positional mask plus event counts.
    ///
    /// # Panics
    ///
    /// Panics if `nnz > MAX_DAP_STAGES` (the hardware physically has 5
    /// stages; callers wanting denser output must bypass DAP), or if
    /// `block.len() != bz`.
    pub fn prune(&self, block: &mut [i8], nnz: usize) -> (u16, DapEvents) {
        assert_eq!(block.len(), self.bz, "block length must equal BZ");
        assert!(
            nnz <= MAX_DAP_STAGES,
            "DAP hardware has {MAX_DAP_STAGES} stages; nnz {nnz} requires bypass"
        );
        let mut selected: u16 = 0;
        let mut events = DapEvents::default();
        for _stage in 0..nnz {
            // One magnitude maxpool over the not-yet-selected elements.
            let mut best: Option<(usize, i32)> = None;
            for (i, &v) in block.iter().enumerate() {
                if selected & (1 << i) != 0 {
                    continue;
                }
                let mag = (v as i32).abs();
                match best {
                    // Strict '>' keeps the earliest index on ties, matching
                    // the comparator tree's left-to-right priority.
                    Some((_, bm)) if mag <= bm => {}
                    _ => best = Some((i, mag)),
                }
            }
            events.stages += 1;
            events.comparisons += (self.bz - 1) as u64;
            match best {
                Some((i, mag)) if mag > 0 => selected |= 1 << i,
                // All remaining elements are zero: later stages would
                // select zeros; stop early (the hardware bypasses unused
                // stages, Sec. 6.2).
                _ => break,
            }
        }
        for (i, v) in block.iter_mut().enumerate() {
            if selected & (1 << i) == 0 {
                *v = 0;
            }
        }
        (selected, events)
    }
}

/// The A-DBB density decision for one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerNnz {
    /// Prune activations to `nnz` per block via DAP (1..=5).
    Prune(usize),
    /// Run the layer with dense activations (DAP bypassed) — used when
    /// the layer needs more than 5/8 density to preserve accuracy.
    Dense,
}

impl LayerNnz {
    /// Cycles the time-unrolled datapath spends per activation block for
    /// this density (paper Sec. 5.2: one element per cycle; dense = BZ).
    pub fn cycles_per_block(&self, bz: usize) -> usize {
        match self {
            LayerNnz::Prune(n) => *n,
            LayerNnz::Dense => bz,
        }
    }

    /// The effective NNZ bound (BZ when dense).
    pub fn bound(&self, bz: usize) -> usize {
        match self {
            LayerNnz::Prune(n) => *n,
            LayerNnz::Dense => bz,
        }
    }
}

/// Chooses the per-layer activation NNZ: the smallest `nnz <= 5` whose
/// Top-NNZ pruning retains at least `coverage` of the layer's L1
/// activation magnitude; falls back to [`LayerNnz::Dense`] if even 5/8
/// retains less.
///
/// This mirrors the paper's per-layer tuning (Sec. 5.2: optimal A-DBB
/// "ranges from 8/8 (dense) in early layers down to 2/8 towards the
/// end"): early layers have dense, high-information activations and get
/// large NNZ; late ReLU-sparse layers prune aggressively.
///
/// # Panics
///
/// Panics unless `0.0 < coverage <= 1.0`.
pub fn choose_layer_nnz(activations: &Matrix, bz: usize, coverage: f64) -> LayerNnz {
    assert!(coverage > 0.0 && coverage <= 1.0, "coverage must be in (0,1]");
    let total: f64 = activations.data().iter().map(|&v| (v as f64).abs()).sum();
    if total == 0.0 {
        return LayerNnz::Prune(1);
    }
    for nnz in 1..=MAX_DAP_STAGES {
        let kept = retained_magnitude(activations, bz, nnz);
        if kept / total >= coverage {
            return LayerNnz::Prune(nnz);
        }
    }
    LayerNnz::Dense
}

fn retained_magnitude(m: &Matrix, bz: usize, nnz: usize) -> f64 {
    let mut kept = 0.0;
    for c in 0..m.cols() {
        let mut r = 0;
        while r < m.rows() {
            let end = (r + bz).min(m.rows());
            let mut mags: Vec<f64> = (r..end).map(|i| (m.get(i, c) as f64).abs()).collect();
            mags.sort_by(|a, b| b.partial_cmp(a).expect("no NaN"));
            kept += mags.iter().take(nnz).sum::<f64>();
            r = end;
        }
    }
    kept
}

/// Applies DAP to an entire im2col activation matrix (columns are
/// reduction vectors) and compresses the result, returning the compressed
/// matrix and aggregate hardware events.
///
/// For [`LayerNnz::Dense`] the matrix is compressed with the dense `bz/bz`
/// bound (no pruning, no DAP events). Bounds of `1..=5` run through the
/// hardware DAP cascade; bounds **above** the 5-stage cap cannot be
/// runtime-pruned (Sec. 6.2), so they are enforced in software here —
/// representing activations already bounded by DAP-aware *training* —
/// and contribute no DAP hardware events.
pub fn dap_matrix(m: &Matrix, bz: usize, nnz: LayerNnz) -> (DbbMatrix, DapEvents) {
    let mut out = m.clone();
    let mut events = DapEvents::default();
    let config = match nnz {
        LayerNnz::Dense => DbbConfig::dense(bz),
        LayerNnz::Prune(n) if n >= bz => DbbConfig::dense(bz),
        LayerNnz::Prune(n) => {
            let unit = (n <= MAX_DAP_STAGES).then(|| DapUnit::new(bz));
            let mut block = vec![0i8; bz];
            for c in 0..out.cols() {
                let mut r = 0;
                while r < out.rows() {
                    let end = (r + bz).min(out.rows());
                    block.fill(0);
                    for (bi, row) in (r..end).enumerate() {
                        block[bi] = out.get(row, c);
                    }
                    if let Some(unit) = &unit {
                        let (_, ev) = unit.prune(&mut block, n);
                        events.stages += ev.stages;
                        events.comparisons += ev.comparisons;
                    } else {
                        dap_block(&mut block, n);
                    }
                    for (bi, row) in (r..end).enumerate() {
                        out.set(row, c, block[bi]);
                    }
                    r = end;
                }
            }
            DbbConfig::new(n, bz)
        }
    };
    let compressed = DbbMatrix::compress(&out, BlockAxis::Cols, config)
        .expect("DAP output satisfies its own bound");
    (compressed, events)
}

/// The column-strip non-zero profiles of an activation matrix before
/// and after DAP, derived in one pass **without materializing** the
/// pruned matrix or its compressed form — the operands the matrix-free
/// event paths consume: the raw side for the dense-activation datapaths,
/// the post-DAP side for `S2TA-AW`
/// (`s2ta_sim::tpe::run_aw_perf_profiled`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DapColProfile {
    /// Flat strip-major SoA tallies of the raw matrix: `raw[s*k + p]` =
    /// non-zeros among strip `s`'s columns at reduction position `p`.
    /// Identical to `s2ta_sim::profile::ColStripProfile::new(m,
    /// strip_cols)` (asserted by tests).
    pub raw: Vec<u16>,
    /// The same tallies for the surviving (post-DAP) elements: identical
    /// to profiling `dap_matrix(m, bz, nnz).0.decompress()` (asserted by
    /// tests). Both layouts match
    /// `s2ta_sim::profile::ColStripProfile::from_flat`.
    pub counts: Vec<u16>,
    /// Number of column strips.
    pub strips: usize,
    /// Reduction length (`m.rows()`).
    pub k: usize,
    /// Aggregate DAP hardware events, identical to [`dap_matrix`]'s.
    pub events: DapEvents,
    /// The compression configuration [`dap_matrix`] would choose for
    /// this `(bz, nnz)` (dense for [`LayerNnz::Dense`] and for bounds
    /// at or above `bz`).
    pub config: DbbConfig,
}

impl DapColProfile {
    /// The post-DAP per-position tallies of strip `s`.
    pub fn strip(&self, s: usize) -> &[u16] {
        &self.counts[s * self.k..(s + 1) * self.k]
    }
}

/// Columns one pass of the rank kernel covers: one `u8` lane each, so a
/// row of a chunk fills one 128-bit vector register.
const RANK_LANES: usize = 16;

/// Runs the DAP decision of [`dap_matrix`] over `m` but keeps only the
/// per-column-strip non-zero counts — of the raw matrix and of the
/// surviving elements — plus the hardware events, skipping the
/// pruned-matrix materialization and compression entirely. For each
/// strip `s` of `strip_cols` columns, `counts[s*k + p]` equals the
/// number of columns in the strip whose post-DAP element at reduction
/// position `p` is non-zero — exactly the column-strip profile of
/// `dap_matrix(m, bz, nnz).0.decompress()` — and `raw[s*k + p]` the
/// same count before pruning. Only the two returned tally vectors are
/// allocated.
///
/// The cascade's only observable outputs are each block's survivor mask
/// and its stage count, so the kernel computes those directly instead
/// of running [`DapUnit::prune`] per block. The cascade keeps the `n`
/// largest magnitudes, ties to the lowest index: exactly the non-zeros
/// whose rank under (magnitude descending, index ascending) is below
/// `n`. The kernel walks one row-block at a time, in chunks of up to
/// `RANK_LANES` (16) columns of one strip, and ranks every row pair of the
/// chunk branch-free in `u8` lanes. A block with `found` non-zeros runs
/// `min(found + 1, n)` stages: the productive ones plus, when
/// `found < n`, the stage that finds only zeros. Every stage costs
/// `bz - 1` comparisons. [`dap_matrix`] stays the oracle (asserted by
/// tests).
///
/// # Panics
///
/// Panics if `strip_cols` is zero or above `u16::MAX` (the tallies are
/// `u16`), or if a pruning `bz` exceeds the largest supported block.
pub fn dap_col_profile(m: &Matrix, bz: usize, nnz: LayerNnz, strip_cols: usize) -> DapColProfile {
    assert!(strip_cols > 0, "strip width must be non-zero");
    assert!(strip_cols <= usize::from(u16::MAX), "strip width {strip_cols} overflows u16 tallies");
    let strips = m.cols().div_ceil(strip_cols);
    let k = m.rows();
    let mut raw = vec![0u16; strips * k];
    let n = match nnz {
        LayerNnz::Prune(n) if n < bz => n,
        // Dense (or a bound at/above BZ): nothing is pruned, both
        // profiles are the raw matrix's.
        _ => {
            for p in 0..k {
                for (s, cols) in m.row(p).chunks(strip_cols).enumerate() {
                    raw[s * k + p] = cols.iter().filter(|&&v| v != 0).count() as u16;
                }
            }
            let counts = raw.clone();
            let events = DapEvents::default();
            return DapColProfile { raw, counts, strips, k, events, config: DbbConfig::dense(bz) };
        }
    };
    assert!(bz <= MAX_BZ, "unsupported block size {bz}");
    let mut counts = vec![0u16; strips * k];
    // `n < bz <= MAX_BZ`, so the bound and every rank fit a `u8` lane;
    // comparing as `u8` keeps the survivor test vectorized.
    let keep = n as u8;
    let mut stages = 0u64;
    for r in (0..k).step_by(bz) {
        let rows = (r + bz).min(k) - r;
        for s in 0..strips {
            let strip_end = ((s + 1) * strip_cols).min(m.cols());
            for c in (s * strip_cols..strip_end).step_by(RANK_LANES) {
                let width = RANK_LANES.min(strip_end - c);
                // Lanes past `width` stay zero: never counted, never kept.
                let mut mags = [[0u8; RANK_LANES]; MAX_BZ];
                for (i, lanes) in mags[..rows].iter_mut().enumerate() {
                    for (mag, &v) in lanes.iter_mut().zip(&m.row(r + i)[c..c + width]) {
                        *mag = v.unsigned_abs();
                    }
                }
                let mut rank = [[0u8; RANK_LANES]; MAX_BZ];
                for i in 0..rows {
                    for j in i + 1..rows {
                        for l in 0..RANK_LANES {
                            // Row `j` outranks row `i` only if strictly
                            // larger: ties go to the lower index.
                            let g = u8::from(mags[j][l] > mags[i][l]);
                            rank[i][l] += g;
                            rank[j][l] += 1 - g;
                        }
                    }
                }
                let mut found = [0u8; RANK_LANES];
                for i in 0..rows {
                    let (mut nonzero, mut kept) = (0u8, 0u8);
                    for l in 0..RANK_LANES {
                        let live = u8::from(mags[i][l] != 0);
                        found[l] += live;
                        nonzero += live;
                        kept += live & u8::from(rank[i][l] < keep);
                    }
                    raw[s * k + r + i] += u16::from(nonzero);
                    counts[s * k + r + i] += u16::from(kept);
                }
                stages += found[..width].iter().map(|&f| u64::from((f + 1).min(keep))).sum::<u64>();
            }
        }
    }
    // Bounds above the stage cap are software-enforced: same survivors,
    // no hardware events (see `dap_matrix`).
    let events = if n <= MAX_DAP_STAGES {
        DapEvents { stages, comparisons: stages * (bz - 1) as u64 }
    } else {
        DapEvents::default()
    };
    DapColProfile { raw, counts, strips, k, events, config: DbbConfig::new(n, bz) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use s2ta_tensor::sparsity::SparseSpec;

    #[test]
    fn software_dap_keeps_top_magnitudes() {
        let mut b = [0i8, 4, 1, 5, 2, 6, -1, -7];
        dap_block(&mut b, 4);
        // Top-4 magnitudes: -7, 6, 5, 4.
        assert_eq!(b, [0, 4, 0, 5, 0, 6, 0, -7]);
    }

    #[test]
    fn hardware_matches_software() {
        let unit = DapUnit::new(8);
        let mut rng = StdRng::seed_from_u64(2);
        for nnz in 1..=5usize {
            for _ in 0..200 {
                let m = SparseSpec::random(0.4).matrix(1, 8, &mut rng);
                let mut hw: Vec<i8> = m.data().to_vec();
                let mut sw = hw.clone();
                unit.prune(&mut hw, nnz);
                dap_block(&mut sw, nnz);
                assert_eq!(hw, sw, "nnz={nnz}");
            }
        }
    }

    #[test]
    fn hardware_mask_matches_survivors() {
        let unit = DapUnit::new(8);
        let mut b = [0i8, 4, 1, 5, 2, 6, -1, -7];
        let (mask, events) = unit.prune(&mut b, 4);
        assert_eq!(mask, (1 << 1) | (1 << 3) | (1 << 5) | (1 << 7));
        assert_eq!(events.stages, 4);
        assert_eq!(events.comparisons, 4 * 7);
    }

    #[test]
    fn cascade_stops_early_on_zeros() {
        let unit = DapUnit::new(8);
        let mut b = [0i8, 0, 3, 0, 0, 0, 0, 0];
        let (mask, events) = unit.prune(&mut b, 5);
        assert_eq!(mask, 1 << 2);
        // One productive stage plus the stage that found only zeros.
        assert_eq!(events.stages, 2);
    }

    #[test]
    #[should_panic(expected = "stages")]
    fn nnz_above_stage_cap_rejected() {
        let unit = DapUnit::new(8);
        let mut b = [0i8; 8];
        let _ = unit.prune(&mut b, 6);
    }

    #[test]
    fn layer_nnz_cycles() {
        assert_eq!(LayerNnz::Prune(3).cycles_per_block(8), 3);
        assert_eq!(LayerNnz::Dense.cycles_per_block(8), 8);
        assert_eq!(LayerNnz::Prune(2).bound(8), 2);
        assert_eq!(LayerNnz::Dense.bound(8), 8);
    }

    #[test]
    fn sparse_layers_get_small_nnz() {
        let mut rng = StdRng::seed_from_u64(9);
        let sparse = SparseSpec::random(0.85).matrix(64, 64, &mut rng);
        let dense = SparseSpec::random(0.05).matrix(64, 64, &mut rng);
        let n_sparse = choose_layer_nnz(&sparse, 8, 0.98);
        let n_dense = choose_layer_nnz(&dense, 8, 0.98);
        match (n_sparse, n_dense) {
            (LayerNnz::Prune(a), LayerNnz::Dense) => assert!(a <= 3, "sparse nnz {a}"),
            (LayerNnz::Prune(a), LayerNnz::Prune(b)) => {
                assert!(a < b, "sparse {a} should need fewer than dense {b}")
            }
            other => panic!("unexpected choices {other:?}"),
        }
    }

    #[test]
    fn dap_matrix_satisfies_bound_and_counts_events() {
        let mut rng = StdRng::seed_from_u64(4);
        let m = SparseSpec::random(0.3).matrix(16, 10, &mut rng);
        let (dm, events) = dap_matrix(&m, 8, LayerNnz::Prune(3));
        assert_eq!(dm.config(), DbbConfig::new(3, 8));
        // 10 columns x 2 blocks each = 20 blocks, each ran >= 1 stage.
        assert!(events.stages >= 20);
        // Every decompressed column block has <= 3 non-zeros.
        let dec = dm.decompress();
        for c in 0..dec.cols() {
            for blk in 0..2 {
                let nnz = (blk * 8..(blk + 1) * 8).filter(|&r| dec.get(r, c) != 0).count();
                assert!(nnz <= 3);
            }
        }
    }

    #[test]
    fn dap_matrix_dense_is_lossless() {
        let mut rng = StdRng::seed_from_u64(6);
        let m = SparseSpec::random(0.5).matrix(24, 6, &mut rng);
        let (dm, events) = dap_matrix(&m, 8, LayerNnz::Dense);
        assert_eq!(dm.decompress(), m);
        assert_eq!(events, DapEvents::default());
    }

    /// Reference strip tallies, walked column by column: `out[s*k + p]`
    /// counts the non-zeros of `m` at row `p` among strip `s`'s columns.
    fn strip_tallies(m: &Matrix, strip_cols: usize) -> Vec<u16> {
        let k = m.rows();
        let mut counts = vec![0u16; m.cols().div_ceil(strip_cols) * k];
        for c in 0..m.cols() {
            let base = (c / strip_cols) * k;
            let strip = &mut counts[base..base + k];
            for (r, slot) in strip.iter_mut().enumerate() {
                if m.get(r, c) != 0 {
                    *slot += 1;
                }
            }
        }
        counts
    }

    /// Reference: profile of the materialized post-DAP matrix, as the
    /// dense path computes it (dap_matrix -> decompress -> count per
    /// column strip).
    fn materialized_profile(
        m: &Matrix,
        bz: usize,
        nnz: LayerNnz,
        strip_cols: usize,
    ) -> (Vec<u16>, DapEvents) {
        let (dm, events) = dap_matrix(m, bz, nnz);
        (strip_tallies(&dm.decompress(), strip_cols), events)
    }

    /// Strip widths straddling the kernel's 16-column chunk.
    const STRADDLING_STRIPS: [usize; 8] = [1, 3, 15, 16, 17, 33, 64, 100];

    #[test]
    fn col_profile_matches_materialize_then_profile() {
        let mut rng = StdRng::seed_from_u64(11);
        // Includes a tail row block (rows 19 not a multiple of 8) and a
        // tail column strip (10 cols over strips of 4).
        let m = SparseSpec::random(0.4).matrix(19, 10, &mut rng);
        for nnz in [
            LayerNnz::Dense,
            LayerNnz::Prune(1),
            LayerNnz::Prune(3),
            LayerNnz::Prune(5),
            LayerNnz::Prune(7), // software-enforced (above the 5-stage cap)
            LayerNnz::Prune(8), // at BZ: dense fall-back
        ] {
            let direct = dap_col_profile(&m, 8, nnz, 4);
            let (counts, events) = materialized_profile(&m, 8, nnz, 4);
            assert_eq!(direct.counts, counts, "{nnz:?}");
            assert_eq!(direct.raw, strip_tallies(&m, 4), "{nnz:?}");
            assert_eq!(direct.events, events, "{nnz:?}");
        }
    }

    #[test]
    fn col_profile_config_matches_dap_matrix() {
        let mut rng = StdRng::seed_from_u64(12);
        let m = SparseSpec::random(0.3).matrix(16, 6, &mut rng);
        for nnz in [LayerNnz::Dense, LayerNnz::Prune(2), LayerNnz::Prune(8)] {
            let direct = dap_col_profile(&m, 8, nnz, 8);
            assert_eq!(direct.config, dap_matrix(&m, 8, nnz).0.config(), "{nnz:?}");
        }
    }

    #[test]
    fn col_profile_handles_ties_extremes_and_every_block_size() {
        // -128 has magnitude 128 (above 127); equal magnitudes of both
        // signs must resolve to the lowest index, as in the cascade.
        let col = [5i8, -128, 0, 127, -127, 0, -5, 5, 127, -128, 1, -1, 0, 0, 0, 0, 9];
        // 300 columns: the tie column rotated by `c % 4` rows, negated in
        // every third column. Each rotation covers 75 columns, so strip
        // tallies reach 300 and leave the `u8` range, and every
        // straddling strip width ends in a partial chunk.
        let (rows, cols) = (col.len(), 300);
        let m = Matrix::from_vec(
            rows,
            cols,
            (0..rows)
                .flat_map(|r| {
                    (0..cols).map(move |c| {
                        let v = col[(r + c % 4) % rows];
                        if c % 3 == 0 {
                            v.wrapping_neg()
                        } else {
                            v
                        }
                    })
                })
                .collect(),
        );
        let strips: Vec<usize> = STRADDLING_STRIPS.into_iter().chain([cols]).collect();
        let wide = strip_tallies(&m, cols);
        assert!(wide.iter().any(|&t| t > 255), "the widest strip must leave the u8 range");
        for bz in 1..=16 {
            for n in 1..=bz + 1 {
                let nnz = LayerNnz::Prune(n);
                let (dm, events) = dap_matrix(&m, bz, nnz);
                let pruned = dm.decompress();
                for &strip_cols in &strips {
                    let direct = dap_col_profile(&m, bz, nnz, strip_cols);
                    let at = format!("bz {bz}, nnz {n}, strip {strip_cols}");
                    assert_eq!(direct.counts, strip_tallies(&pruned, strip_cols), "{at}");
                    assert_eq!(direct.raw, strip_tallies(&m, strip_cols), "{at}");
                    assert_eq!(direct.events, events, "{at}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "overflows u16 tallies")]
    fn col_profile_rejects_strips_wider_than_u16() {
        let m = Matrix::from_vec(1, 1, vec![1]);
        let _ = dap_col_profile(&m, 8, LayerNnz::Prune(2), usize::from(u16::MAX) + 1);
    }

    /// Value styles for the widened profile proptest: arbitrary bytes,
    /// a small tie-heavy alphabet with both extremes, and a mostly-zero
    /// mix of the same alphabet.
    fn styled_value(style: u8, code: u8) -> i8 {
        const TIES: [i8; 8] = [0, -128, 127, -127, 1, -1, 5, -5];
        match style {
            0 => code as i8,
            1 => TIES[code as usize % TIES.len()],
            _ if !code.is_multiple_of(4) => 0,
            _ => TIES[(code as usize / 4) % TIES.len()],
        }
    }

    proptest! {
        #[test]
        fn prop_dap_col_profile_equals_materialized(
            rows in 1usize..40,
            cols in 1usize..130,
            bz in 1usize..=16,
            nnz_pick in 0usize..64,
            strip_pick in 0usize..STRADDLING_STRIPS.len(),
            style in 0u8..4,
            codes in prop::collection::vec(any::<u8>(), 40 * 130),
            sp in 0.0f64..0.95,
            seed in any::<u64>(),
        ) {
            // 1..=bz+1 covers every hardware and software-enforced bound
            // plus the dense fall-back at and above BZ.
            let nnz = 1 + nnz_pick % (bz + 1);
            let strip_cols = STRADDLING_STRIPS[strip_pick];
            let mut m = if style == 3 {
                SparseSpec::random(sp).matrix(rows, cols, &mut StdRng::seed_from_u64(seed))
            } else {
                let data = codes[..rows * cols].iter().map(|&c| styled_value(style, c)).collect();
                Matrix::from_vec(rows, cols, data)
            };
            // Pin the edge populations into the first row-block: an
            // all-zero block in every third column, and a block with
            // exactly `nnz` equal-magnitude non-zeros in the next one.
            let head = bz.min(rows);
            for c in 0..cols {
                for r in 0..head {
                    match c % 3 {
                        0 => m.set(r, c, 0),
                        1 => m.set(r, c, if r < nnz { [7, -7][r % 2] } else { 0 }),
                        _ => {}
                    }
                }
            }
            let direct = dap_col_profile(&m, bz, LayerNnz::Prune(nnz), strip_cols);
            let (counts, events) = materialized_profile(&m, bz, LayerNnz::Prune(nnz), strip_cols);
            prop_assert_eq!(&direct.counts, &counts);
            prop_assert_eq!(&direct.raw, &strip_tallies(&m, strip_cols));
            prop_assert_eq!(direct.events, events);
            prop_assert_eq!(direct.config, dap_matrix(&m, bz, LayerNnz::Prune(nnz)).0.config());
        }

        #[test]
        fn prop_hw_sw_equivalence(
            data in prop::collection::vec(any::<i8>(), 8),
            nnz in 1usize..=5,
        ) {
            let unit = DapUnit::new(8);
            let mut hw = data.clone();
            let mut sw = data;
            unit.prune(&mut hw, nnz);
            dap_block(&mut sw, nnz);
            prop_assert_eq!(hw, sw);
        }

        #[test]
        fn prop_dap_never_increases_magnitude(
            data in prop::collection::vec(any::<i8>(), 8),
            nnz in 1usize..=5,
        ) {
            let mut pruned = data.clone();
            dap_block(&mut pruned, nnz);
            let before: i64 = data.iter().map(|&v| (v as i64).abs()).sum();
            let after: i64 = pruned.iter().map(|&v| (v as i64).abs()).sum();
            prop_assert!(after <= before);
            prop_assert!(pruned.iter().filter(|&&v| v != 0).count() <= nnz);
        }
    }
}
