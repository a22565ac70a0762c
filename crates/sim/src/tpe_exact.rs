//! Cycle-accurate single-TPE model of the time-unrolled DP1M4 datapath
//! (Fig. 7c) — the validation machine for [`crate::tpe::run_aw`]'s
//! closed-form cycle maths, mirroring what [`crate::cycle_exact`] does
//! for the scalar array.
//!
//! One TPE holds `A` activation lanes and `C` staged weight blocks
//! (an `A x C` grid of single-MAC units). Each block period:
//!
//! 1. the `C` weight blocks (values + masks) load into staging;
//! 2. for `serial` cycles, every activation lane presents one stored
//!    slot — a value and its 3-bit block position — and each unit's 4:1
//!    mux resolves the staged weight at that position, firing the MAC
//!    when the weight mask hits and clock-gating otherwise.
//!
//! The model steps registers cycle by cycle and checks that the
//! accumulators equal the exact dot products and that the measured
//! cycle count equals `blocks * serial`.

use crate::{ArrayGeometry, EventCounts};
use s2ta_dbb::DbbVector;
use s2ta_tensor::AccMatrix;

/// The result of running one TPE to completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TpeRun {
    /// `A x C` accumulator grid: `acc[(lane_a, lane_c)]`.
    pub acc: AccMatrix,
    /// Measured events (cycles, MAC classification, mux selects).
    pub events: EventCounts,
}

/// Runs one time-unrolled TPE over `a_lanes` activation vectors and
/// `c_lanes` weight vectors (all sharing the same reduction length and
/// block size).
///
/// # Panics
///
/// Panics if lane counts don't match the geometry, vectors disagree in
/// block count or block size, or the activation config exceeds the
/// weight slot count in non-dense mode.
pub fn run_tpe(geom: &ArrayGeometry, w_lanes: &[DbbVector], a_lanes: &[DbbVector]) -> TpeRun {
    assert_eq!(w_lanes.len(), geom.c, "expected {} weight lanes", geom.c);
    assert_eq!(a_lanes.len(), geom.a, "expected {} activation lanes", geom.a);
    let blocks = a_lanes[0].blocks().len();
    for v in w_lanes.iter().chain(a_lanes) {
        assert_eq!(v.blocks().len(), blocks, "lane block counts disagree");
        assert_eq!(v.config().bz(), geom.bz, "lane block size mismatch");
    }
    let serial = a_lanes[0].config().nnz();

    let mut acc = AccMatrix::zeros(geom.a, geom.c);
    let mut events = EventCounts::new();

    for bi in 0..blocks {
        // Stage the C weight blocks (operand registers load once per
        // block period).
        let staged: Vec<_> = w_lanes.iter().map(|w| w.block(bi)).collect();
        // Serialize the activation slots: one register-step per cycle.
        for slot in 0..serial {
            events.cycles += 1;
            for (ai, alane) in a_lanes.iter().enumerate() {
                let ablock = alane.block(bi);
                // Slot `slot` of the compressed storage: a (pos, value)
                // pair when the mask has that many bits, or padding.
                let entry = ablock.nonzeros().nth(slot);
                for (ci, wblock) in staged.iter().enumerate() {
                    events.mux_selects += 1;
                    match entry {
                        Some((pos, av)) => {
                            let wv = wblock.value_at(pos);
                            if wv != 0 {
                                events.macs_active += 1;
                                events.acc_updates += 1;
                                let cur = acc.get(ai, ci);
                                acc.set(ai, ci, cur + wv as i32 * av as i32);
                            } else {
                                events.macs_gated += 1;
                            }
                        }
                        None => events.macs_gated += 1, // padded slot
                    }
                }
            }
        }
    }
    TpeRun { acc, events }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use s2ta_dbb::dap::dap_block;
    use s2ta_dbb::{prune, DbbConfig};
    use s2ta_tensor::sparsity::SparseSpec;

    fn geom() -> ArrayGeometry {
        ArrayGeometry::new(2, 4, 2, 1, 1, 8)
    }

    fn wdbb_vec(k: usize, sp: f64, rng: &mut StdRng) -> DbbVector {
        let m = SparseSpec::random(sp).matrix(1, k, rng);
        let mut data = m.data().to_vec();
        prune::prune_vector(&mut data, DbbConfig::new(4, 8));
        DbbVector::compress(&data, DbbConfig::new(4, 8)).expect("pruned")
    }

    fn adbb_vec(k: usize, sp: f64, nnz: usize, rng: &mut StdRng) -> DbbVector {
        let m = SparseSpec::random(sp).matrix(1, k, rng);
        let mut data = m.data().to_vec();
        for chunk in data.chunks_mut(8) {
            dap_block(chunk, nnz);
        }
        DbbVector::compress(&data, DbbConfig::new(nnz, 8)).expect("dap'd")
    }

    fn dot(a: &DbbVector, b: &DbbVector) -> i32 {
        a.decompress().iter().zip(b.decompress().iter()).map(|(&x, &y)| x as i32 * y as i32).sum()
    }

    #[test]
    fn accumulators_equal_dot_products() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = geom();
        let w: Vec<_> = (0..2).map(|_| wdbb_vec(32, 0.3, &mut rng)).collect();
        let a: Vec<_> = (0..2).map(|_| adbb_vec(32, 0.4, 3, &mut rng)).collect();
        let run = run_tpe(&g, &w, &a);
        for (ai, av) in a.iter().enumerate() {
            for (ci, wv) in w.iter().enumerate() {
                assert_eq!(run.acc.get(ai, ci), dot(av, wv), "acc[{ai}][{ci}]");
            }
        }
    }

    #[test]
    fn measured_cycles_equal_blocks_times_serial() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = geom();
        for nnz in 1..=5usize {
            let w: Vec<_> = (0..2).map(|_| wdbb_vec(64, 0.5, &mut rng)).collect();
            let a: Vec<_> = (0..2).map(|_| adbb_vec(64, 0.5, nnz, &mut rng)).collect();
            let run = run_tpe(&g, &w, &a);
            assert_eq!(run.events.cycles, (64 / 8 * nnz) as u64, "nnz={nnz}");
        }
    }

    #[test]
    fn every_issue_slot_is_classified() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = geom();
        let w: Vec<_> = (0..2).map(|_| wdbb_vec(24, 0.6, &mut rng)).collect();
        let a: Vec<_> = (0..2).map(|_| adbb_vec(24, 0.6, 2, &mut rng)).collect();
        let run = run_tpe(&g, &w, &a);
        // issued = cycles * A * C; every one active or gated.
        assert_eq!(run.events.macs_issued(), run.events.cycles * 4);
        assert_eq!(run.events.mux_selects, run.events.macs_issued());
    }

    #[test]
    fn agrees_with_tile_level_runner() {
        // One 2x4x2 TPE == a 1x1 grid of TPEs in the tile-level model:
        // same MAC classification on the same operands.
        use s2ta_dbb::{BlockAxis, DbbMatrix};
        let mut rng = StdRng::seed_from_u64(4);
        let k = 40;
        let wm = {
            let raw = SparseSpec::random(0.4).matrix(2, k, &mut rng);
            prune::prune_matrix(&raw, BlockAxis::Rows, DbbConfig::new(4, 8))
        };
        let am = {
            let raw = SparseSpec::random(0.5).matrix(k, 2, &mut rng);
            let mut cols = raw.clone();
            for c in 0..2 {
                let mut col: Vec<i8> = (0..k).map(|r| raw.get(r, c)).collect();
                for chunk in col.chunks_mut(8) {
                    dap_block(chunk, 3);
                }
                for (r, v) in col.into_iter().enumerate() {
                    cols.set(r, c, v);
                }
            }
            cols
        };
        let wdbb = DbbMatrix::compress(&wm, BlockAxis::Rows, DbbConfig::new(4, 8)).expect("ok");
        let adbb = DbbMatrix::compress(&am, BlockAxis::Cols, DbbConfig::new(3, 8)).expect("ok");
        // The TPE's lanes: the same reduction vectors, compressed one by one.
        let w_lanes: Vec<DbbVector> = (0..2)
            .map(|r| DbbVector::compress(wm.row(r), DbbConfig::new(4, 8)).expect("ok"))
            .collect();
        let a_lanes: Vec<DbbVector> = (0..2)
            .map(|c| {
                let col: Vec<i8> = (0..k).map(|r| am.get(r, c)).collect();
                DbbVector::compress(&col, DbbConfig::new(3, 8)).expect("ok")
            })
            .collect();

        let g = geom();
        let exact = run_tpe(&g, &w_lanes, &a_lanes);
        let tile = crate::tpe::run_aw(&g, &wdbb, &adbb);
        // Same MAC classification and accumulators (transposed layout:
        // exact is [a][c], tile result is [row=c][col=a]).
        assert_eq!(exact.events.macs_active, tile.events.macs_active);
        for ci in 0..2 {
            for ai in 0..2 {
                assert_eq!(exact.acc.get(ai, ci), tile.result.get(ci, ai));
            }
        }
        // Tile-level adds skew; compute cycles match otherwise.
        assert_eq!(exact.events.cycles + g.skew_cycles(), tile.events.cycles);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_tpe_exact_dot_products(
            kb in 1usize..6,
            wsp in 0.0f64..0.9,
            asp in 0.0f64..0.9,
            nnz in 1usize..=5,
            seed in any::<u64>(),
        ) {
            let k = kb * 8;
            let mut rng = StdRng::seed_from_u64(seed);
            let g = geom();
            let w: Vec<_> = (0..2).map(|_| wdbb_vec(k, wsp, &mut rng)).collect();
            let a: Vec<_> = (0..2).map(|_| adbb_vec(k, asp, nnz, &mut rng)).collect();
            let run = run_tpe(&g, &w, &a);
            for (ai, av) in a.iter().enumerate() {
                for (ci, wv) in w.iter().enumerate() {
                    prop_assert_eq!(run.acc.get(ai, ci), dot(av, wv));
                }
            }
            prop_assert_eq!(run.events.cycles, (kb * nnz) as u64);
        }
    }
}
