//! The S2TA accelerator — the paper's primary contribution, as a
//! configurable simulated accelerator with a small public API.
//!
//! [`Accelerator`] wraps an architecture configuration ([`ArchKind`] /
//! [`ArchConfig`]) and runs CNN layers or whole models through the
//! appropriate simulated datapath, applying the DBB toolchain where the
//! architecture calls for it (W-DBB weight pruning, per-layer DAP for
//! activations). Reports carry cycle counts, event tallies and derived
//! energy/power/efficiency for both technology nodes.
//!
//! ```
//! use s2ta_core::{Accelerator, ArchKind};
//! use s2ta_models::lenet5;
//!
//! let aw = Accelerator::preset(ArchKind::S2taAw);
//! let report = aw.run_model(&lenet5(), 7);
//! assert!(report.total_cycles > 0);
//! let e = report.energy(&s2ta_energy::TechParams::tsmc16());
//! assert!(e.total_uj() > 0.0);
//! ```
#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod arch;
mod report;
mod runner;

pub mod buffers;
pub mod infer;
mod memo;
pub mod memory;
pub mod microbench;
mod plan;
pub mod pool;
mod scratch;
pub mod summary;
pub mod sweep;

pub use arch::{ArchConfig, ArchKind};
pub use memo::{CacheStats, MemoCache};
pub use plan::{
    stage_handoff_bytes, ActProfile, ActProfileCache, LayerPlan, ModelPlan, PlannedWeights,
    WeightPlanCache, WeightResidency,
};
pub use report::{LayerReport, ModelReport};
pub use runner::{Accelerator, ExecPath};
pub use scratch::Scratch;
