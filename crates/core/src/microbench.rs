//! Synthetic microbenchmarks (paper Sec. 8.2, Fig. 9 / Fig. 10): a
//! "typical convolution" at controlled weight/activation sparsity.
//!
//! DBB sweeps need *structured* sparsity at exact per-block densities
//! (the x-axes of Fig. 9c/9d are DBB sparsities); unstructured baselines
//! get random sparsity at the same fractions.

use crate::{Accelerator, ArchKind, LayerReport};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use s2ta_dbb::dap::LayerNnz;
use s2ta_tensor::sparsity::SparseSpec;
use s2ta_tensor::{GemmShape, Matrix};

/// The "typical convolution layer" used in the paper's microbenchmarks:
/// a mid-network 3x3 conv (256 output channels, 128 input channels,
/// 16x16 output — output pixels chosen tile-aligned so speedup ratios
/// are not polluted by edge-tile quantization).
pub(crate) fn typical_conv() -> GemmShape {
    GemmShape::new(256, 128 * 9, 16 * 16)
}

/// Generates a matrix with **exact DBB-structured sparsity**: every
/// 8-element block along `axis_rows ? rows : cols` has exactly
/// `nnz_per_block` non-zeros at random positions.
///
/// # Panics
///
/// Panics if `nnz_per_block` is 0 or exceeds 8.
pub(crate) fn dbb_structured_matrix(
    rows: usize,
    cols: usize,
    nnz_per_block: usize,
    block_rows: bool,
    seed: u64,
) -> Matrix {
    assert!((1..=8).contains(&nnz_per_block), "nnz/block must be 1..=8");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Matrix::zeros(rows, cols);
    let mut positions: Vec<usize> = (0..8).collect();
    let vecs = if block_rows { rows } else { cols };
    let len = if block_rows { cols } else { rows };
    for v in 0..vecs {
        let mut start = 0;
        while start < len {
            let bz = (len - start).min(8);
            positions.shuffle(&mut rng);
            for &pos in positions.iter().filter(|&&p| p < bz).take(nnz_per_block) {
                let val = loop {
                    let x = rng.gen_range(-127i8..=127);
                    if x != 0 {
                        break x;
                    }
                };
                let idx = start + pos;
                if block_rows {
                    m.set(v, idx, val);
                } else {
                    m.set(idx, v, val);
                }
            }
            start += bz;
        }
    }
    m
}

/// One microbenchmark measurement point.
#[derive(Debug, Clone, PartialEq)]
pub struct MicrobenchPoint {
    /// Weight sparsity fraction of the point.
    pub weight_sparsity: f64,
    /// Activation sparsity fraction of the point.
    pub act_sparsity: f64,
    /// The layer run.
    pub report: LayerReport,
}

/// Runs the typical conv on `arch` at the given sparsities.
///
/// DBB architectures receive structured operands (exact per-block NNZ of
/// `8 * (1 - sparsity)`, rounded); unstructured baselines receive random
/// sparsity. The A-DBB serialization depth follows the activation NNZ
/// (clamped to the 5-stage DAP, dense above it).
pub fn run_point(
    arch: ArchKind,
    weight_sparsity: f64,
    act_sparsity: f64,
    seed: u64,
) -> MicrobenchPoint {
    let shape = typical_conv();
    let acc = Accelerator::preset(arch);
    let structured = arch.uses_wdbb();
    let w_nnz = nnz_for(weight_sparsity);
    let a_nnz = nnz_for(act_sparsity);

    let w = if structured {
        dbb_structured_matrix(shape.m, shape.k, w_nnz, true, seed ^ W_SEED_XOR)
    } else {
        let mut rng = StdRng::seed_from_u64(seed ^ W_SEED_XOR);
        SparseSpec::random(weight_sparsity).matrix(shape.m, shape.k, &mut rng)
    };
    let a = if arch.uses_adbb() {
        dbb_structured_matrix(shape.k, shape.n, a_nnz, false, seed ^ A_SEED_XOR)
    } else {
        let mut rng = StdRng::seed_from_u64(seed ^ A_SEED_XOR);
        SparseSpec::random(act_sparsity).matrix(shape.k, shape.n, &mut rng)
    };

    // The time-unrolled datapath serializes any density 1..8; densities
    // above the 5-stage DAP cap rely on the operands already satisfying
    // the bound (true here: they are generated DBB-structured).
    let adbb = if a_nnz >= 8 { LayerNnz::Dense } else { LayerNnz::Prune(a_nnz) };
    // Weight sparsity below the 4/8 bound cannot be DBB-compressed:
    // S2TA runs such layers in the dense-weight fall-back.
    let first_layer_fallback = structured && w_nnz > 4;
    let events = acc.run_gemm(&w, &a, adbb, first_layer_fallback);
    MicrobenchPoint {
        weight_sparsity,
        act_sparsity,
        report: LayerReport {
            name: format!("{arch}@w{weight_sparsity}/a{act_sparsity}"),
            macs: shape.macs(),
            events,
        },
    }
}

const W_SEED_XOR: u64 = 0x5745;
const A_SEED_XOR: u64 = 0x4143;

fn nnz_for(sparsity: f64) -> usize {
    ((8.0 * (1.0 - sparsity)).round() as usize).clamp(1, 8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2ta_tensor::sparsity::BlockDensity;

    #[test]
    fn structured_matrix_has_exact_block_nnz() {
        let m = dbb_structured_matrix(16, 64, 3, true, 42);
        let d = BlockDensity::of_rows(&m, 8);
        assert_eq!(d.histogram[3], d.blocks());
    }

    #[test]
    fn structured_cols_too() {
        let m = dbb_structured_matrix(64, 10, 2, false, 7);
        let d = BlockDensity::of_cols(&m, 8);
        assert_eq!(d.histogram[2], d.blocks());
    }

    #[test]
    fn fig9d_speedup_steps() {
        // S2TA-AW speedup vs activation sparsity: 50% -> 2x, 75% -> 4x,
        // 87.5% -> 8x (relative to its own dense-activation point).
        let dense = run_point(ArchKind::S2taAw, 0.5, 0.0, 1).report.events.cycles as f64;
        for (sp, expect) in [(0.5, 2.0), (0.75, 4.0), (0.875, 8.0)] {
            let c = run_point(ArchKind::S2taAw, 0.5, sp, 1).report.events.cycles as f64;
            let got = dense / c;
            assert!(
                (got - expect).abs() / expect < 0.1,
                "act sparsity {sp}: expected {expect}x, got {got:.2}x"
            );
        }
    }

    #[test]
    fn fig9c_wdbb_speedup_caps_at_2x() {
        // S2TA-W: 2x once weights reach 50% DBB sparsity, flat beyond.
        let dense_w = run_point(ArchKind::S2taW, 0.0, 0.5, 2).report.events.cycles as f64;
        let at50 = run_point(ArchKind::S2taW, 0.5, 0.5, 2).report.events.cycles as f64;
        let at75 = run_point(ArchKind::S2taW, 0.75, 0.5, 2).report.events.cycles as f64;
        assert!((dense_w / at50 - 2.0).abs() < 0.1);
        assert!((at50 - at75).abs() / at50 < 0.01, "no further speedup beyond 50%");
    }

    #[test]
    fn zvcg_has_no_speedup() {
        let a = run_point(ArchKind::SaZvcg, 0.0, 0.5, 3).report.events.cycles;
        let b = run_point(ArchKind::SaZvcg, 0.875, 0.8, 3).report.events.cycles;
        assert_eq!(a, b);
    }
}
