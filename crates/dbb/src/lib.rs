//! Density Bound Block (DBB) structured sparsity.
//!
//! DBB (paper Sec. 3.1, Fig. 4-5) tiles a tensor along the channel /
//! reduction dimension into blocks of `BZ` elements and bounds the number
//! of non-zeros per block to `NNZ`. A compressed block stores exactly
//! `NNZ` values (zero-padded when the block is sparser than the bound)
//! plus a `BZ`-bit positional mask. Because the *maximum* per-block
//! workload is known at design time, the exploiting hardware needs only a
//! mux per MAC — no gather FIFOs, no scattered accumulators.
//!
//! This crate implements:
//!
//! * [`DbbConfig`] — the `NNZ/BZ` ratio (e.g. 4/8).
//! * [`DbbVector`] / [`DbbMatrix`] — compressed containers with
//!   bit-exact round-tripping and storage-byte accounting (used for SRAM
//!   bandwidth in the energy model). Each stores its blocks flat — one
//!   buffer of `NNZ` value bytes per block, one buffer of masks — and
//!   hands them out as borrowed [`DbbBlock`] views.
//! * [`prune`] — W-DBB magnitude pruning of weight matrices (offline,
//!   paper Sec. 4 / 8.1).
//! * [`dap`] — Dynamic Activation Pruning (paper Sec. 5.1 / 6.2): the
//!   software Top-NNZ reference and a stage-by-stage model of the
//!   cascaded magnitude-maxpool hardware (Fig. 8), asserted equivalent.
//!
//! # Example
//!
//! ```
//! use s2ta_dbb::{DbbConfig, DbbVector};
//!
//! let cfg = DbbConfig::new(4, 8); // 4/8 DBB, as used throughout the paper
//! let data: Vec<i8> = vec![0, 9, 0, 4, 3, 0, 5, 0, 1, 0, 0, 0, 0, 0, 0, 2];
//! let v = DbbVector::compress(&data, cfg).expect("data satisfies 4/8");
//! assert_eq!(v.decompress(), data);
//! // 2 blocks * (4 value bytes + 1 mask byte) = 10 bytes vs 16 dense.
//! assert_eq!(v.storage_bytes(), 10);
//! ```
#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod block;
mod config;
mod matrix;

pub mod dap;
pub mod prune;

pub use block::DbbBlock;
pub use config::{DbbConfig, DbbError};
pub use matrix::{BlockAxis, DbbMatrix, DbbVector};
