//! Criterion kernel benchmarks: the hot paths of the simulator and the
//! DBB toolchain. These measure *our implementation's* wall-clock
//! speed (not the simulated accelerator), guarding against regressions
//! that would make the table/figure benches impractically slow.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use s2ta_dbb::dap::{dap_col_profile, dap_matrix, DapUnit, LayerNnz};
use s2ta_dbb::{prune, DbbConfig, DbbVector};
use s2ta_models::{cifar10_convnet, lenet5, LayerSpec};
use s2ta_sim::smt::SmtConfig;
use s2ta_sim::{smt, systolic, tpe, ArrayGeometry};
use s2ta_tensor::sparsity::SparseSpec;
use s2ta_tensor::{gemm_ref, Matrix};
use std::hint::black_box;

fn operands(m: usize, k: usize, n: usize, sp: f64) -> (Matrix, Matrix) {
    let mut rng = StdRng::seed_from_u64(7);
    (SparseSpec::random(sp).matrix(m, k, &mut rng), SparseSpec::random(sp).matrix(k, n, &mut rng))
}

fn bench_gemm_ref(c: &mut Criterion) {
    let (w, a) = operands(64, 576, 196, 0.5);
    c.bench_function("gemm_ref 64x576x196", |b| {
        b.iter(|| black_box(gemm_ref(black_box(&w), black_box(&a))))
    });
}

fn bench_dbb_compress(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(9);
    let data = SparseSpec::random(0.5).matrix(1, 4096, &mut rng);
    let pruned = prune::prune_matrix(&data, s2ta_dbb::BlockAxis::Rows, DbbConfig::new(4, 8));
    c.bench_function("dbb_compress 4096 elems 4/8", |b| {
        b.iter(|| black_box(DbbVector::compress(black_box(pruned.row(0)), DbbConfig::new(4, 8))))
    });
}

fn bench_dap_unit(c: &mut Criterion) {
    let unit = DapUnit::new(8);
    let block = [3i8, -9, 0, 4, 7, 0, -2, 5];
    c.bench_function("dap_unit prune 8-block top4", |b| {
        b.iter(|| {
            let mut blk = black_box(block);
            black_box(unit.prune(&mut blk, 4))
        })
    });
}

fn bench_dap_matrix(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(11);
    let a = SparseSpec::random(0.4).matrix(512, 196, &mut rng);
    c.bench_function("dap_matrix 512x196 top3", |b| {
        b.iter(|| black_box(dap_matrix(black_box(&a), 8, LayerNnz::Prune(3))))
    });
}

/// The activation tally pass's two kernels at the shape of
/// CIFAR-10 conv2 (`K` 288 x `N` 256) at the given activation sparsity.
fn conv2_acts(act_sparsity: f64) -> LayerSpec {
    let mut layer = cifar10_convnet().layers[1].clone();
    layer.act_sparsity = act_sparsity;
    layer
}

/// Generation at the typical 50% and at the ends of the profile's
/// range: 5% (first layers, the per-element loop) and 80% (deepest).
fn bench_gen_acts(c: &mut Criterion) {
    for (label, sparsity) in [("5%", 0.05), ("50%", 0.5), ("80%", 0.8)] {
        let layer = conv2_acts(sparsity);
        let mut buf = Vec::new();
        c.bench_function(&format!("gen_acts 288x256 {label}"), |b| {
            b.iter(|| {
                let acts = black_box(&layer).gen_acts_into(7, std::mem::take(&mut buf));
                black_box(acts.get(0, 0));
                buf = acts.into_data();
            })
        });
    }
}

fn bench_dap_col_profile(c: &mut Criterion) {
    let a = conv2_acts(0.5).gen_acts(7);
    c.bench_function("dap_col_profile 288x256 top4", |b| {
        b.iter(|| black_box(dap_col_profile(black_box(&a), 8, LayerNnz::Prune(4))))
    });
}

/// The DAP-bypass arm: a dense A-DBB scope only counts each row's
/// non-zeros (the single-use raw tally of every lane but S2TA-AW).
fn bench_dap_col_profile_dense(c: &mut Criterion) {
    let a = conv2_acts(0.5).gen_acts(7);
    c.bench_function("dap_col_profile 288x256 dense", |b| {
        b.iter(|| black_box(dap_col_profile(black_box(&a), 8, LayerNnz::Dense)))
    });
}

/// A batch-1 FC activation (`N = 1`): LeNet-5's first FC layer, 400
/// reduction positions in one column.
fn bench_dap_col_profile_single_column(c: &mut Criterion) {
    let model = lenet5();
    let fc = model.layers.iter().find(|l| l.gemm.n == 1).expect("LeNet-5 has FC layers");
    let a = fc.gen_acts(7);
    c.bench_function("dap_col_profile LeNet-5 fc3 400x1 top2", |b| {
        b.iter(|| black_box(dap_col_profile(black_box(&a), 8, LayerNnz::Prune(2))))
    });
}

fn bench_systolic_perf(c: &mut Criterion) {
    let (w, a) = operands(256, 1152, 256, 0.5);
    let g = ArrayGeometry::sa_baseline();
    c.bench_function("systolic run_perf typical conv", |b| {
        b.iter(|| black_box(systolic::run_perf(&g, true, black_box(&w), black_box(&a))))
    });
}

fn bench_aw_perf(c: &mut Criterion) {
    let (w, a) = operands(256, 1152, 256, 0.5);
    let wdbb = prune::prune_and_compress(&w, DbbConfig::new(4, 8));
    let (adbb, _) = dap_matrix(&a, 8, LayerNnz::Prune(4));
    let g = ArrayGeometry::s2ta_aw();
    c.bench_function("tpe run_aw_perf typical conv", |b| {
        b.iter(|| black_box(tpe::run_aw_perf(&g, black_box(&wdbb), black_box(&adbb))))
    });
}

fn bench_smt_tile(c: &mut Criterion) {
    let (w, a) = operands(32, 512, 64, 0.5);
    let g = ArrayGeometry::sa_baseline();
    c.bench_function("smt simulate 32x64 tile K=512", |b| {
        b.iter(|| black_box(smt::run(&g, SmtConfig::t2q2(), black_box(&w), black_box(&a))))
    });
}

criterion_group!(
    name = kernels;
    config = Criterion::default().sample_size(20);
    targets = bench_gemm_ref,
        bench_dbb_compress,
        bench_dap_unit,
        bench_dap_matrix,
        bench_gen_acts,
        bench_dap_col_profile,
        bench_dap_col_profile_dense,
        bench_dap_col_profile_single_column,
        bench_systolic_perf,
        bench_aw_perf,
        bench_smt_tile
);
criterion_main!(kernels);
