//! Architecture configurations: the paper's evaluated design points.

use s2ta_dbb::DbbConfig;
use s2ta_sim::smt::SmtConfig;
use s2ta_sim::ArrayGeometry;
use std::fmt;

/// The accelerator architectures the paper evaluates (Sec. 7),
/// all normalized to 2048 INT8 MACs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArchKind {
    /// Dense systolic array, no sparsity exploitation.
    Sa,
    /// Systolic array with zero-value clock gating (the paper's primary
    /// normalization baseline).
    SaZvcg,
    /// SMT-SA with 2 threads and depth-2 staging FIFOs.
    SaSmtT2Q2,
    /// SMT-SA with 2 threads and depth-4 staging FIFOs.
    SaSmtT2Q4,
    /// S2TA exploiting 4/8 W-DBB only (dense activations, DP4M8 TPEs);
    /// also the A100-featured comparison point (Sec. 3.2).
    S2taW,
    /// The optimal time-unrolled S2TA with joint A/W-DBB (DP1M4 TPEs).
    S2taAw,
}

impl ArchKind {
    /// All evaluated architectures, in the paper's presentation order.
    pub const ALL: [ArchKind; 6] = [
        ArchKind::Sa,
        ArchKind::SaZvcg,
        ArchKind::SaSmtT2Q2,
        ArchKind::SaSmtT2Q4,
        ArchKind::S2taW,
        ArchKind::S2taAw,
    ];

    /// Whether this architecture consumes DBB-compressed weights.
    pub(crate) fn uses_wdbb(&self) -> bool {
        matches!(self, ArchKind::S2taW | ArchKind::S2taAw)
    }

    /// Whether this architecture applies DAP to activations.
    pub(crate) fn uses_adbb(&self) -> bool {
        matches!(self, ArchKind::S2taAw)
    }
}

impl fmt::Display for ArchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArchKind::Sa => "SA",
            ArchKind::SaZvcg => "SA-ZVCG",
            ArchKind::SaSmtT2Q2 => "SA-SMT-T2Q2",
            ArchKind::SaSmtT2Q4 => "SA-SMT-T2Q4",
            ArchKind::S2taW => "S2TA-W",
            ArchKind::S2taAw => "S2TA-AW",
        };
        write!(f, "{s}")
    }
}

/// A fully resolved architecture configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchConfig {
    /// Which datapath family.
    pub kind: ArchKind,
    /// Array geometry (`A x B x C _ M x N`).
    pub geometry: ArrayGeometry,
    /// SMT parameters (used by the SMT kinds only).
    pub smt: SmtConfig,
    /// Weight DBB configuration for the DBB kinds (4/8 by default).
    pub wdbb: DbbConfig,
    /// Number of SMT tiles to simulate exactly before extrapolating
    /// timing (cost control for full-model runs).
    pub smt_sample_tiles: usize,
    /// DMA bandwidth in bytes per cycle, used to clamp memory-bound
    /// layers (FC/depthwise at batch 1, paper Sec. 8.3).
    pub dma_bytes_per_cycle: u64,
}

impl ArchConfig {
    /// The paper's design point for `kind` (Sec. 7 "Baselines").
    pub fn preset(kind: ArchKind) -> Self {
        let geometry = match kind {
            ArchKind::Sa | ArchKind::SaZvcg | ArchKind::SaSmtT2Q2 | ArchKind::SaSmtT2Q4 => {
                ArrayGeometry::sa_baseline()
            }
            ArchKind::S2taW => ArrayGeometry::s2ta_w(),
            ArchKind::S2taAw => ArrayGeometry::s2ta_aw(),
        };
        let smt = match kind {
            ArchKind::SaSmtT2Q4 => SmtConfig::t2q4(),
            _ => SmtConfig::t2q2(),
        };
        Self {
            kind,
            geometry,
            smt,
            wdbb: DbbConfig::w_default(),
            smt_sample_tiles: 2,
            dma_bytes_per_cycle: 16,
        }
    }

    /// Physical MAC count of the configuration.
    pub(crate) fn macs(&self) -> usize {
        match self.kind {
            ArchKind::S2taW => self.geometry.macs_dot_product(),
            _ => self.geometry.macs_scalar(),
        }
    }

    /// Peak dense throughput in TOPS at `clock_hz` (2 ops per MAC).
    pub fn peak_dense_tops(&self, clock_hz: f64) -> f64 {
        self.macs() as f64 * 2.0 * clock_hz / 1e12
    }

    /// Peak *effective* throughput in TOPS at `clock_hz` given DBB
    /// sparsity: S2TA-W doubles via 4/8 weights; S2TA-AW scales by
    /// `BZ / activation_nnz` (paper: up to 8x).
    pub fn peak_effective_tops(&self, clock_hz: f64, act_nnz: usize) -> f64 {
        let dense = self.peak_dense_tops(clock_hz);
        match self.kind {
            ArchKind::S2taW => dense * self.geometry.bz as f64 / self.geometry.b as f64,
            ArchKind::S2taAw => dense * self.geometry.bz as f64 / act_nnz.max(1) as f64,
            _ => dense,
        }
    }
}

impl fmt::Display for ArchConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.kind, self.geometry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_2048_macs() {
        for kind in ArchKind::ALL {
            assert_eq!(ArchConfig::preset(kind).macs(), 2048, "{kind}");
        }
    }

    #[test]
    fn peak_tops_at_1ghz() {
        // 2048 MACs * 2 ops * 1 GHz = 4.1 TOPS dense (paper: "4 TOPS").
        let cfg = ArchConfig::preset(ArchKind::SaZvcg);
        assert!((cfg.peak_dense_tops(1e9) - 4.096).abs() < 1e-9);
        // S2TA-W: 2x with 4/8 weights (paper Table 4: 8 TOPS).
        let w = ArchConfig::preset(ArchKind::S2taW);
        assert!((w.peak_effective_tops(1e9, 8) - 8.192).abs() < 1e-9);
        // S2TA-AW at 2/8 acts: 4x (16 TOPS, Table 4 footnote 6).
        let aw = ArchConfig::preset(ArchKind::S2taAw);
        assert!((aw.peak_effective_tops(1e9, 2) - 16.384).abs() < 1e-9);
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(ArchKind::SaZvcg.to_string(), "SA-ZVCG");
        assert_eq!(ArchKind::S2taAw.to_string(), "S2TA-AW");
        assert!(ArchConfig::preset(ArchKind::S2taAw).to_string().contains("8x4x4_8x8"));
    }

    #[test]
    fn dbb_usage_flags() {
        assert!(ArchKind::S2taAw.uses_wdbb() && ArchKind::S2taAw.uses_adbb());
        assert!(ArchKind::S2taW.uses_wdbb() && !ArchKind::S2taW.uses_adbb());
        assert!(!ArchKind::SaZvcg.uses_wdbb());
    }
}
