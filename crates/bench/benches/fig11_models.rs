//! Figure 11: full-model energy reduction and speedup vs SA-ZVCG on
//! ResNet50V1, VGG16, MobileNetV1 and AlexNet (convolution layers, as
//! in the paper's figure).
//!
//! Paper averages: S2TA-AW is 2.08x more energy-efficient and 2.11x
//! faster than SA-ZVCG; 1.84x / 1.26x vs S2TA-W; 2.24x / 1.43x vs
//! SA-SMT.

use s2ta_bench::{conv_reports, header};
use s2ta_core::ArchKind;
use s2ta_energy::TechParams;
use s2ta_models::{alexnet, mobilenet_v1, resnet50_v1, vgg16};

fn main() {
    header("Fig. 11", "Full-model (conv) energy reduction + speedup vs SA-ZVCG, 16nm");
    let tech = TechParams::tsmc16();
    let archs =
        [ArchKind::SaZvcg, ArchKind::Sa, ArchKind::SaSmtT2Q2, ArchKind::S2taW, ArchKind::S2taAw];
    let models = [resnet50_v1(), vgg16(), mobilenet_v1(), alexnet()];

    let mut aw_energy = Vec::new();
    let mut aw_speed = Vec::new();
    let mut w_energy = Vec::new();
    let mut smt_speed = Vec::new();

    // Per-model report sets fan out over the host executor (each model
    // in turn fans its architectures out on its own scoped threads);
    // order-preserving, so the printed tables are byte-identical to the
    // serial loops.
    let all_reports = s2ta_core::pool::Executor::global().map(&models, |m| conv_reports(m, &archs));

    for (model, reports) in models.iter().zip(&all_reports) {
        println!("\n--- {} ---", model.name);
        let base = &reports[0].1;
        println!("{:<14} {:>16} {:>9}", "arch", "energy reduction", "speedup");
        for (k, r) in reports {
            let red = r.energy_reduction_vs(base, &tech);
            let speed = r.speedup_vs(base);
            println!("{:<14} {:>15.2}x {:>8.2}x", k.to_string(), red, speed);
            match k {
                ArchKind::S2taAw => {
                    aw_energy.push(red);
                    aw_speed.push(speed);
                }
                ArchKind::S2taW => w_energy.push(red),
                ArchKind::SaSmtT2Q2 => smt_speed.push(speed),
                _ => {}
            }
        }
    }

    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!();
    println!(
        "S2TA-AW averages: {:.2}x energy reduction, {:.2}x speedup (paper: 2.08x, 2.11x)",
        avg(&aw_energy),
        avg(&aw_speed)
    );
    println!("S2TA-AW vs S2TA-W energy: {:.2}x (paper: 1.84x)", avg(&aw_energy) / avg(&w_energy));
    assert!(avg(&aw_energy) > 1.5, "S2TA-AW must be well above ZVCG efficiency");
    assert!(avg(&aw_speed) > 1.6, "S2TA-AW must be well above ZVCG speed");
    assert!(avg(&aw_energy) > avg(&w_energy), "joint sparsity beats weight-only");
    assert!(aw_energy.iter().all(|&e| e > 1.2), "AW wins on every model");
    println!("shape check PASSED");
}
