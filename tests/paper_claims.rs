//! The paper's headline quantitative claims, asserted as integration
//! tests (tight enough to catch regressions, loose enough for a
//! calibrated model). The exact measured values sit next to the
//! paper's in the output of the matching figure and table benches
//! (`cargo bench -p s2ta-bench --bench fig11_models`, `tbl04_comparison`,
//! ...).

use s2ta::core::buffers::BufferPerMac;
use s2ta::core::microbench::run_point;
use s2ta::core::{Accelerator, ArchConfig, ArchKind};
use s2ta::energy::{EnergyBreakdown, TechParams};
use s2ta::models::alexnet;

const SEED: u64 = 42;

/// Fig. 9d / abstract: S2TA-AW speedup scales with activation DBB
/// sparsity up to 8x.
#[test]
fn aw_speedup_series() {
    let dense = run_point(ArchKind::S2taAw, 0.5, 0.0, SEED).report.events.cycles as f64;
    for (sp, expect) in [(0.25, 8.0 / 6.0), (0.5, 2.0), (0.75, 4.0), (0.875, 8.0)] {
        let c = run_point(ArchKind::S2taAw, 0.5, sp, SEED).report.events.cycles as f64;
        let got = dense / c;
        assert!(
            (got - expect).abs() / expect < 0.12,
            "act sparsity {sp}: speedup {got:.2} vs paper {expect:.2}"
        );
    }
}

/// Fig. 9c: S2TA-W steps to 2x at >=50% weight sparsity and saturates.
#[test]
fn wdbb_speedup_step() {
    let dense = run_point(ArchKind::S2taW, 0.0, 0.5, SEED).report.events.cycles as f64;
    let at50 = run_point(ArchKind::S2taW, 0.5, 0.5, SEED).report.events.cycles as f64;
    let at875 = run_point(ArchKind::S2taW, 0.875, 0.5, SEED).report.events.cycles as f64;
    assert!((dense / at50 - 2.0).abs() < 0.2);
    assert!((at50 - at875).abs() / at50 < 0.02, "no speedup past the step");
}

/// Sec. 2 / Fig. 3: exploiting unstructured sparsity with FIFOs costs
/// more energy than simple clock gating, despite the speedup.
#[test]
fn smt_pays_for_its_fifos() {
    let tech = TechParams::tsmc16();
    let zvcg = run_point(ArchKind::SaZvcg, 0.5, 0.5, SEED);
    let smt = run_point(ArchKind::SaSmtT2Q2, 0.5, 0.5, SEED);
    let e_zvcg = EnergyBreakdown::of(&zvcg.report.events, &tech).total_pj();
    let e_smt = EnergyBreakdown::of(&smt.report.events, &tech).total_pj();
    assert!(e_smt / e_zvcg > 1.2, "SMT energy ratio {:.2}", e_smt / e_zvcg);
    assert!(
        zvcg.report.events.cycles as f64 / smt.report.events.cycles as f64 > 1.4,
        "SMT must still be faster"
    );
}

/// Summary point 2: ZVCG saves roughly a quarter of the dense SA's
/// energy at typical sparsity.
#[test]
fn zvcg_saves_vs_dense_sa() {
    let tech = TechParams::tsmc16();
    let sa = run_point(ArchKind::Sa, 0.5, 0.5, SEED);
    let zvcg = run_point(ArchKind::SaZvcg, 0.5, 0.5, SEED);
    let ratio = EnergyBreakdown::of(&sa.report.events, &tech).total_pj()
        / EnergyBreakdown::of(&zvcg.report.events, &tech).total_pj();
    assert!((1.15..1.45).contains(&ratio), "SA/ZVCG energy ratio {ratio:.2} (paper ~1.33)");
    assert_eq!(sa.report.events.cycles, zvcg.report.events.cycles, "ZVCG gives no speedup");
}

/// Abstract / Sec. 8: S2TA-AW delivers >2x energy reduction and ~2x+
/// speedup over SA-ZVCG on the microbenchmark operating point.
#[test]
fn aw_headline_gains() {
    let tech = TechParams::tsmc16();
    let zvcg = run_point(ArchKind::SaZvcg, 0.5, 0.625, SEED);
    let aw = run_point(ArchKind::S2taAw, 0.5, 0.625, SEED);
    let energy = EnergyBreakdown::of(&zvcg.report.events, &tech).total_pj()
        / EnergyBreakdown::of(&aw.report.events, &tech).total_pj();
    let speed = zvcg.report.events.cycles as f64 / aw.report.events.cycles as f64;
    assert!(energy > 2.0, "energy reduction {energy:.2} (paper ~2.2x at this point)");
    assert!((speed - 8.0 / 3.0).abs() < 0.3, "speedup {speed:.2} (paper 2.7x)");
}

/// Table 1: the buffer-per-MAC ordering that motivates the whole paper.
#[test]
fn buffer_ordering() {
    let total = |k| BufferPerMac::of(&ArchConfig::preset(k)).total_bytes();
    assert!(total(ArchKind::SaSmtT2Q4) > total(ArchKind::SaSmtT2Q2));
    assert!(total(ArchKind::SaSmtT2Q2) > total(ArchKind::Sa));
    assert!(total(ArchKind::Sa) > total(ArchKind::S2taAw));
    assert!(total(ArchKind::S2taAw) > total(ArchKind::S2taW));
}

/// Fig. 11 (AlexNet column, conv only): S2TA-AW beats SA-ZVCG on energy
/// by well over 1.5x, and S2TA-W alone by a clear margin.
#[test]
fn alexnet_conv_energy_ordering() {
    let tech = TechParams::tsmc16();
    let model = alexnet();
    let zvcg = Accelerator::preset(ArchKind::SaZvcg).run_model_conv_only(&model, SEED);
    let w = Accelerator::preset(ArchKind::S2taW).run_model_conv_only(&model, SEED);
    let aw = Accelerator::preset(ArchKind::S2taAw).run_model_conv_only(&model, SEED);
    let aw_red = aw.energy_reduction_vs(&zvcg, &tech);
    let w_red = w.energy_reduction_vs(&zvcg, &tech);
    assert!(aw_red > 1.5, "AW vs ZVCG {aw_red:.2} (paper ~2x)");
    assert!(w_red > 1.0 && w_red < aw_red, "W vs ZVCG {w_red:.2} (paper ~1.13x, below AW)");
}

/// Sec. 3.2 / Table 4: peak effective throughput doubles with 4/8
/// weights (S2TA-W) and reaches 4x at 2/8 activations (S2TA-AW).
#[test]
fn peak_throughput_scaling() {
    let w = ArchConfig::preset(ArchKind::S2taW);
    let aw = ArchConfig::preset(ArchKind::S2taAw);
    let dense = ArchConfig::preset(ArchKind::SaZvcg).peak_dense_tops(1e9);
    assert!((w.peak_effective_tops(1e9, 8) / dense - 2.0).abs() < 1e-9);
    assert!((aw.peak_effective_tops(1e9, 2) / dense - 4.0).abs() < 1e-9);
    assert!((aw.peak_effective_tops(1e9, 1) / dense - 8.0).abs() < 1e-9);
}
