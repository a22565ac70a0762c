//! Post-GEMM processing — the work the paper assigns to the Cortex-M33
//! MCU cluster (Sec. 6.3): requantization of `i32` accumulators back to
//! `i8`, activation functions, and pooling.
//!
//! These run between accelerator layers in `s2ta_core`'s test-only
//! functional inference pipeline (its `infer` module), so the whole
//! multi-layer forward pass is bit-exactly defined.

use crate::{AccMatrix, Matrix};

/// Fixed-point requantization parameters: `out = clamp(round(acc * m / 2^s))`.
///
/// The multiplier/shift pair is the standard integer-only requantization
/// used by INT8 deployments (a positive multiplier below `2^15` and a
/// right-shift).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Requant {
    /// Fixed-point multiplier (positive).
    pub multiplier: i32,
    /// Right shift (0..=31).
    pub shift: u32,
}

impl Requant {
    /// Creates requantization parameters.
    ///
    /// # Panics
    ///
    /// Panics if `multiplier <= 0` or `shift > 31`.
    pub fn new(multiplier: i32, shift: u32) -> Self {
        assert!(multiplier > 0, "requant multiplier must be positive");
        assert!(shift <= 31, "requant shift out of range");
        Self { multiplier, shift }
    }

    /// Chooses parameters that map the maximum absolute accumulator value
    /// of `acc` to 127 (per-tensor symmetric), with a 15-bit multiplier.
    pub fn fit(acc: &AccMatrix) -> Self {
        let max = acc.data().iter().map(|&v| (v as i64).abs()).max().unwrap_or(0);
        if max == 0 {
            return Self::new(1, 0);
        }
        // Find scale = 127/max as multiplier/2^shift with multiplier in
        // [2^14, 2^15).
        let scale = 127.0 / max as f64;
        let mut shift = 0u32;
        let mut m = scale;
        while m < (1 << 14) as f64 && shift < 31 {
            m *= 2.0;
            shift += 1;
        }
        Self::new((m.round() as i32).clamp(1, (1 << 15) - 1), shift)
    }

    /// Requantizes one accumulator value (round-half-away, saturating).
    #[inline]
    pub fn apply(&self, acc: i32) -> i8 {
        let prod = acc as i64 * self.multiplier as i64;
        let half = 1i64 << self.shift >> 1;
        // Round the magnitude (arithmetic >> on negatives floors toward
        // -inf, which would bias negative values down by one).
        let rounded_mag = (prod.abs() + half) >> self.shift;
        let rounded = if prod < 0 { -rounded_mag } else { rounded_mag };
        rounded.clamp(-127, 127) as i8
    }
}

/// ReLU then requantize an accumulator matrix into an `i8` matrix — the
/// standard between-layer step (negative accumulators become exactly 0,
/// feeding the next layer's activation sparsity).
pub fn relu_requant(acc: &AccMatrix, rq: Requant) -> Matrix {
    let data = acc.data().iter().map(|&v| if v <= 0 { 0 } else { rq.apply(v) }).collect();
    Matrix::from_vec(acc.rows(), acc.cols(), data)
}

/// Requantize without an activation function (e.g. the logits layer).
pub fn requant(acc: &AccMatrix, rq: Requant) -> Matrix {
    let data = acc.data().iter().map(|&v| rq.apply(v)).collect();
    Matrix::from_vec(acc.rows(), acc.cols(), data)
}

/// 2x2 max-pool with stride 2 over a `channels x (h*w)` activation
/// matrix laid out row-per-channel (the layout the inference pipeline
/// uses between conv layers). Odd trailing rows/columns are dropped,
/// as in classic LeNet/AlexNet pooling.
///
/// # Panics
///
/// Panics if `m.cols() != h * w` or the pooled size would be zero.
pub fn maxpool2x2(m: &Matrix, h: usize, w: usize) -> (Matrix, usize, usize) {
    assert_eq!(m.cols(), h * w, "spatial dims do not match matrix width");
    let (oh, ow) = (h / 2, w / 2);
    assert!(oh > 0 && ow > 0, "pooling would produce an empty map");
    let mut out = Matrix::zeros(m.rows(), oh * ow);
    for c in 0..m.rows() {
        let row = m.row(c);
        for y in 0..oh {
            for x in 0..ow {
                let mut best = i8::MIN;
                for dy in 0..2 {
                    for dx in 0..2 {
                        best = best.max(row[(y * 2 + dy) * w + (x * 2 + dx)]);
                    }
                }
                out.set(c, y * ow + x, best);
            }
        }
    }
    (out, oh, ow)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requant_maps_max_to_127() {
        let acc = AccMatrix::from_vec(1, 3, vec![1000, -500, 250]);
        let rq = Requant::fit(&acc);
        let out = requant(&acc, rq);
        assert_eq!(out.get(0, 0), 127);
        assert!(out.get(0, 1) < 0);
        // Proportionality within rounding.
        assert!((out.get(0, 2) as i32 - 32).abs() <= 1);
    }

    #[test]
    fn relu_zeroes_negatives() {
        let acc = AccMatrix::from_vec(1, 4, vec![-3, 0, 5, 900]);
        let out = relu_requant(&acc, Requant::fit(&acc));
        assert_eq!(out.get(0, 0), 0);
        assert_eq!(out.get(0, 1), 0);
        assert!(out.get(0, 2) >= 0);
        assert_eq!(out.get(0, 3), 127);
    }

    #[test]
    fn all_zero_accumulators_are_stable() {
        let acc = AccMatrix::zeros(2, 2);
        let rq = Requant::fit(&acc);
        assert_eq!(requant(&acc, rq).data(), &[0, 0, 0, 0]);
    }

    #[test]
    fn rounding_is_symmetric() {
        let rq = Requant::new(1 << 14, 15); // x 0.5
        assert_eq!(rq.apply(3), 2); // 1.5 rounds away from zero
        assert_eq!(rq.apply(-3), -2);
        assert_eq!(rq.apply(2), 1);
        assert_eq!(rq.apply(-2), -1);
    }

    #[test]
    fn maxpool_known_case() {
        // 1 channel, 4x4 ramp.
        let m = Matrix::from_vec(1, 16, (0..16).map(|v| v as i8).collect());
        let (p, oh, ow) = maxpool2x2(&m, 4, 4);
        assert_eq!((oh, ow), (2, 2));
        assert_eq!(p.data(), &[5, 7, 13, 15]);
    }

    #[test]
    fn maxpool_drops_odd_tail() {
        let m = Matrix::from_vec(1, 15, (0..15).map(|v| v as i8).collect());
        let (p, oh, ow) = maxpool2x2(&m, 5, 3);
        assert_eq!((oh, ow), (2, 1));
        assert_eq!(p.len(), 2);
    }

    #[test]
    #[should_panic(expected = "spatial dims")]
    fn maxpool_checks_dims() {
        let m = Matrix::zeros(1, 10);
        let _ = maxpool2x2(&m, 4, 4);
    }
}
