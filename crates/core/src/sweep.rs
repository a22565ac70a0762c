//! Design-space exploration (paper Sec. 7 "Automatic RTL Generation"):
//! sweep the `A x B x C _ M x N` space at the 4-TOPS / 2048-MAC
//! constraint and locate the area-vs-power frontier from which the
//! paper picks the `8x4x4_8x8` S2TA-AW design point.

use crate::{buffers, Accelerator, ArchConfig, ArchKind};
use s2ta_dbb::DbbConfig;
use s2ta_energy::area::{AreaBreakdown, AreaParams};
use s2ta_energy::{EnergyBreakdown, TechParams};
use s2ta_sim::smt::SmtConfig;
use s2ta_sim::ArrayGeometry;

/// One evaluated design point.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// The geometry evaluated.
    pub geometry: ArrayGeometry,
    /// Estimated area (16nm).
    pub area_mm2: f64,
    /// Average power on the calibration workload (mW, 16nm).
    pub power_mw: f64,
    /// Cycles on the calibration workload.
    pub cycles: u64,
}

impl DesignPoint {
    /// `true` if `other` is at least as good on both axes and better on
    /// one (Pareto dominance).
    pub(crate) fn dominated_by(&self, other: &DesignPoint) -> bool {
        other.area_mm2 <= self.area_mm2
            && other.power_mw <= self.power_mw
            && (other.area_mm2 < self.area_mm2 || other.power_mw < self.power_mw)
    }
}

/// Enumerates time-unrolled S2TA-AW geometries with exactly 2048 MACs
/// (`a*c*m*n = 2048`, `b = 4`, BZ = 8) over power-of-two dims, with the
/// TPE dimensions capped at realistic wiring limits (`a, c <= 16`).
pub(crate) fn enumerate_aw_geometries() -> Vec<ArrayGeometry> {
    let mut out = Vec::new();
    let pows = [1usize, 2, 4, 8, 16];
    for &a in &pows {
        for &c in &pows {
            for &m in &[1usize, 2, 4, 8, 16, 32, 64] {
                let rest = 2048 / (a * c * m);
                if a * c * m * rest != 2048 || rest == 0 || rest > 64 {
                    continue;
                }
                let n = rest;
                // Keep aspect ratios an implementable systolic grid.
                if m > 64 || n > 64 || m * n < 4 {
                    continue;
                }
                out.push(ArrayGeometry::new(a, 4, c, m, n, 8));
            }
        }
    }
    out.sort_by_key(|g| (g.a, g.c, g.m, g.n));
    out.dedup();
    out
}

/// Evaluates one AW geometry on the calibration workload (the typical
/// conv at 50% weight / 50% activation sparsity, paper Sec. 7) and
/// returns its design point.
pub(crate) fn evaluate_aw(geometry: ArrayGeometry, seed: u64) -> DesignPoint {
    let config = ArchConfig {
        kind: ArchKind::S2taAw,
        geometry,
        smt: SmtConfig::t2q2(),
        wdbb: DbbConfig::w_default(),
        smt_sample_tiles: 1,
        dma_bytes_per_cycle: 16,
    };
    let acc = Accelerator::new(config);
    let shape = crate::microbench::typical_conv();
    let w = crate::microbench::dbb_structured_matrix(shape.m, shape.k, 4, true, seed);
    let a = crate::microbench::dbb_structured_matrix(shape.k, shape.n, 4, false, seed ^ 1);
    let events = acc.run_gemm(&w, &a, s2ta_dbb::dap::LayerNnz::Prune(4), false);
    let tech = TechParams::tsmc16();
    let energy = EnergyBreakdown::of(&events, &tech);
    // First-order wiring penalty on the datapath: operand fan-out inside
    // a TPE grows with A and C (each staged operand drives more MAC
    // inputs), which the event model does not see. ~2% added datapath
    // energy per fan-out step.
    let fanout_penalty = 0.02 * ((geometry.a + geometry.c) as f64 - 2.0);
    let adjusted_pj =
        energy.total_pj() + fanout_penalty * (energy.mac_datapath_pj + energy.pe_buffers_pj);
    // Iso-throughput power: all candidates share the 4-TOPS constraint,
    // so compare energy over the workload's ideal (fully utilized)
    // runtime rather than each design's own tile-quantized runtime —
    // otherwise slow designs would look artificially low-power.
    let shape = crate::microbench::typical_conv();
    let ideal_cycles = shape.macs() as f64 / (2048.0 * 2.0); // 4/8 acts: 2x
    let ref_seconds = ideal_cycles / tech.clock_hz;
    let area = AreaBreakdown::of(&buffers::hw_spec(&config), &AreaParams::tsmc16());
    DesignPoint {
        geometry,
        area_mm2: area.total_mm2(),
        power_mw: adjusted_pj * 1e-12 / ref_seconds * 1e3,
        cycles: events.cycles,
    }
}

/// Sweeps the whole AW space and returns `(all_points, frontier)`,
/// frontier sorted by area.
///
/// Candidate evaluation is spread over the machine's cores; results are
/// identical to the serial path for any worker count (see
/// `sweep_aw_with_workers`).
pub fn sweep_aw(seed: u64) -> (Vec<DesignPoint>, Vec<DesignPoint>) {
    sweep_aw_with_workers(seed, crate::pool::default_workers())
}

/// [`sweep_aw`] with an explicit worker count (`1` = fully serial).
///
/// Each geometry evaluates independently on a
/// [`crate::pool::Executor`] of `workers` threads, which preserves
/// input order, so `all_points` and the derived Pareto frontier are
/// byte-identical for every worker count.
pub(crate) fn sweep_aw_with_workers(
    seed: u64,
    workers: usize,
) -> (Vec<DesignPoint>, Vec<DesignPoint>) {
    let geometries = enumerate_aw_geometries();
    let all = crate::pool::Executor::new(workers).map(&geometries, |&g| evaluate_aw(g, seed));
    let mut frontier: Vec<DesignPoint> =
        all.iter().filter(|p| !all.iter().any(|q| p.dominated_by(q))).cloned().collect();
    frontier.sort_by(|x, y| x.area_mm2.partial_cmp(&y.area_mm2).expect("finite"));
    (all, frontier)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_is_nonempty_and_valid() {
        let geoms = enumerate_aw_geometries();
        assert!(geoms.len() >= 10, "only {} geometries", geoms.len());
        for g in &geoms {
            assert_eq!(g.macs_scalar(), 2048, "{g}");
        }
        assert!(geoms.contains(&ArrayGeometry::s2ta_aw()), "paper point must be in the space");
    }

    #[test]
    fn paper_design_point_is_near_the_frontier() {
        let (all, frontier) = sweep_aw(3);
        assert!(!frontier.is_empty());
        let paper = all
            .iter()
            .find(|p| p.geometry == ArrayGeometry::s2ta_aw())
            .expect("paper point evaluated");
        // The paper picks 8x4x4_8x8 as the lowest-power frontier design;
        // our model must agree it is within 10% of the sweep's minimum
        // power.
        let min_power = all.iter().map(|p| p.power_mw).fold(f64::INFINITY, f64::min);
        assert!(
            paper.power_mw <= min_power * 1.10,
            "paper point {:.1} mW vs sweep min {:.1} mW",
            paper.power_mw,
            min_power
        );
    }

    #[test]
    fn parallel_sweep_matches_serial_exactly() {
        let serial = sweep_aw_with_workers(7, 1);
        for workers in [2, 4, 16] {
            let parallel = sweep_aw_with_workers(7, workers);
            assert_eq!(serial, parallel, "{workers} workers");
        }
    }

    #[test]
    fn dominance_is_strict() {
        let g = ArrayGeometry::s2ta_aw();
        let a = DesignPoint { geometry: g, area_mm2: 1.0, power_mw: 1.0, cycles: 1 };
        let b = DesignPoint { geometry: g, area_mm2: 2.0, power_mw: 2.0, cycles: 1 };
        assert!(b.dominated_by(&a));
        assert!(!a.dominated_by(&b));
        assert!(!a.dominated_by(&a));
    }
}
