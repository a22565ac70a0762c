//! # S2TA — Structured Sparse Tensor Accelerator (reproduction)
//!
//! A full-system reproduction of *"S2TA: Exploiting Structured Sparsity
//! for Energy-Efficient Mobile CNN Acceleration"* (Liu, Whatmough, Zhu,
//! Mattina — HPCA 2022). This facade crate re-exports the workspace:
//!
//! * [`tensor`] — INT8 tensors, conv-to-GEMM lowering, reference kernels.
//! * [`dbb`] — Density Bound Block format, W-DBB pruning, DAP.
//! * [`sim`] — cycle-level systolic array / TPE / SMT simulation.
//! * [`energy`] — 16nm/65nm energy, area and power models.
//! * [`models`] — CNN workload definitions and sparsity profiles.
//! * [`nn`] — training substrate for DBB-aware fine-tuning experiments.
//! * [`core`] — the accelerator API: configure, plan, run, report.
//! * [`serve`] — batched request serving across a fleet of simulated
//!   accelerators.
//!
//! # Quickstart
//!
//! ```
//! use s2ta::core::{Accelerator, ArchKind};
//! use s2ta::models::alexnet;
//!
//! let acc = Accelerator::preset(ArchKind::S2taAw);
//! let base = Accelerator::preset(ArchKind::SaZvcg);
//! let report = acc.run_model(&alexnet(), 42);
//! let baseline = base.run_model(&alexnet(), 42);
//! let speedup = baseline.total_cycles as f64 / report.total_cycles as f64;
//! assert!(speedup > 1.5, "S2TA-AW should beat SA-ZVCG, got {speedup:.2}x");
//! ```

#![forbid(unsafe_code)]

pub use s2ta_core as core;
pub use s2ta_dbb as dbb;
pub use s2ta_energy as energy;
pub use s2ta_models as models;
pub use s2ta_nn as nn;
pub use s2ta_serve as serve;
pub use s2ta_sim as sim;
pub use s2ta_tensor as tensor;
