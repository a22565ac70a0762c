//! Quickstart: compress operands to DBB, run one convolution on the
//! S2TA-AW accelerator, and compare it with the SA-ZVCG baseline.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use s2ta::core::{Accelerator, ArchKind};
use s2ta::dbb::dap::LayerNnz;
use s2ta::dbb::{prune, DbbConfig, DbbVector};
use s2ta::energy::{EnergyBreakdown, TechParams};
use s2ta::tensor::sparsity::SparseSpec;
use s2ta::tensor::ConvShape;

fn main() {
    // --- 1. DBB in a nutshell: bound the non-zeros per 8-element block.
    let data: Vec<i8> = vec![0, 9, 0, 4, 3, 0, 5, 0];
    let block = DbbVector::compress(&data, DbbConfig::new(4, 8)).expect("4/8-satisfiable");
    println!("dense block   : {data:?}");
    println!(
        "DBB compressed: values {:?}, mask {:#010b}",
        block.block(0).values(),
        block.block(0).mask()
    );
    println!("storage       : {} bytes (vs 8 dense)\n", block.storage_bytes());

    // --- 2. A realistic mid-network conv layer, lowered to GEMM.
    let shape = ConvShape::new(256, 128, 16, 16, 3, 3, 1, 1);
    let gemm = shape.gemm();
    println!("conv layer {shape} lowers to GEMM {gemm} ({:.1} MMAC)", gemm.macs() as f64 / 1e6);

    // Synthetic operands at mobile-typical sparsity.
    let mut rng = StdRng::seed_from_u64(42);
    let weights = {
        let raw = SparseSpec::random(0.5).matrix(gemm.m, gemm.k, &mut rng);
        // Offline W-DBB pruning (keeps the 4 largest magnitudes per block).
        prune::prune_matrix(&raw, s2ta::dbb::BlockAxis::Rows, DbbConfig::new(4, 8))
    };
    let acts = SparseSpec::random(0.625).matrix(gemm.k, gemm.n, &mut rng);

    // --- 3. Run it on both architectures.
    let tech = TechParams::tsmc16();
    let zvcg = Accelerator::preset(ArchKind::SaZvcg);
    let aw = Accelerator::preset(ArchKind::S2taAw);
    let ev_zvcg = zvcg.run_gemm(&weights, &acts, LayerNnz::Dense, false);
    let ev_aw = aw.run_gemm(&weights, &acts, LayerNnz::Prune(3), false);

    let e_zvcg = EnergyBreakdown::of(&ev_zvcg, &tech);
    let e_aw = EnergyBreakdown::of(&ev_aw, &tech);
    println!("\nSA-ZVCG : {} cycles, {e_zvcg}", ev_zvcg.cycles);
    println!("S2TA-AW : {} cycles, {e_aw}", ev_aw.cycles);
    println!(
        "\nS2TA-AW wins: {:.2}x speedup, {:.2}x energy reduction",
        ev_zvcg.cycles as f64 / ev_aw.cycles as f64,
        e_zvcg.total_pj() / e_aw.total_pj()
    );
}
