//! Cycle-level simulation of the S2TA accelerator family.
//!
//! This crate models the four systolic architectures the paper evaluates
//! (Sec. 7 "Baselines"), all normalized to 2048 INT8 hardware MACs:
//!
//! | Architecture | Datapath | Paper reference |
//! |---|---|---|
//! | `SA` / `SA-ZVCG` | scalar 1x1x1_32x64 output-stationary array, optional zero-value clock gating | Fig. 6a/6b |
//! | `SA-SMT` | scalar array + T-thread operand staging FIFOs (unstructured sparsity) | Fig. 2a, [Shomron et al.] |
//! | `S2TA-W` | 4x4x4_4x8 TPE array of DP4M8 dot-product units (4/8 W-DBB, dense activations) | Fig. 6c |
//! | `S2TA-AW` | 8x4x4_8x8 TPE array of time-unrolled DP1M4 units (joint A/W-DBB) | Fig. 6e, Fig. 7c |
//!
//! Every datapath is **functional**: it computes the actual INT8 GEMM
//! through its own mux/serialization logic and is asserted bit-exact
//! against [`s2ta_tensor::gemm_ref`]. Alongside the result, each run
//! produces [`EventCounts`] — the microarchitectural event tally the
//! energy model (`s2ta-energy`) converts to joules.
//!
//! Two fidelity levels are cross-validated: [`cycle_exact`] moves data
//! register-by-register (small arrays, used to validate the skew
//! formulas), while the tile-level runners in [`systolic`], [`tpe`] and
//! [`smt`] use the closed-form cycle maths plus exact per-operand event
//! counting, scaling to full CNN layers.
//!
//! # Example
//!
//! ```
//! use s2ta_sim::{ArrayGeometry, systolic};
//! use s2ta_tensor::{gemm_ref, Matrix};
//!
//! let w = Matrix::from_vec(2, 4, vec![1, 0, -2, 3, 4, 5, 0, 0]);
//! let a = Matrix::from_vec(4, 3, vec![1, 2, 3, 0, 1, 0, 2, 2, 2, 1, 1, 1]);
//! let geom = ArrayGeometry::scalar(2, 2);
//! let run = systolic::run(&geom, true, &w, &a); // ZVCG enabled
//! assert_eq!(run.result, gemm_ref(&w, &a));
//! assert!(run.events.macs_gated > 0); // zero operands were gated
//! ```
#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod events;
mod geometry;

pub mod cycle_exact;
pub mod profile;
pub mod smt;
pub mod systolic;
pub mod tpe;
pub mod tpe_exact;
pub mod tpe_wa;

pub use events::EventCounts;
pub use geometry::{ArrayGeometry, TileWalk};
pub use profile::{ActTallies, ActivationProfile, WeightDesc, WeightProfile};

use s2ta_tensor::AccMatrix;

/// The outcome of running one GEMM through a simulated datapath.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GemmRun {
    /// The computed output (bit-exact INT8 GEMM with i32 accumulation).
    pub result: AccMatrix,
    /// Microarchitectural event counts for the run.
    pub events: EventCounts,
}
