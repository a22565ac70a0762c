//! Scratch arenas: reusable host-side buffers for the execution hot
//! loop.
//!
//! The profiled (matrix-free) execution path is almost allocation-free
//! by construction — events are derived from the layer shapes and an
//! input's cached counters — but host costs remained per request:
//! regenerating activation matrices (the SMT sampled path and every
//! tally pass), the SMT FIFO-timing buffers, and the per-layer report
//! vector. A [`Scratch`] arena owns recycled backing storage for the
//! buffers; after the first batch warms them (and the fleet's plan and
//! counter caches), a steady-state request allocates nothing, and a
//! single-use input, tallied in place in the arena, allocates nothing
//! at all.
//!
//! Scratch lifetime (one serving engine):
//!
//! ```text
//!   Engine ── owns ──> Scratch ── &mut ──> every batch and stage it runs:
//!                                           each layer reuses acts / smt
//!                                           capacity; a tally pass
//!                                           generates into acts and
//!                                           counts both sides in one
//!                                           pass into raw / postdap,
//!                                           which each reader's counters
//!                                           are read off
//! ```
//!
//! A serving engine runs on one host thread, so it owns one arena for
//! the whole run and lends it to every execution; a cluster driver
//! that steps several engines on one thread lends them one arena in
//! turn. Work that fans out over the host executor (pipeline
//! calibration probes) gives each job its own fresh arena.

/// Reusable host buffers, lent to one batch execution at a time.
///
/// All fields keep their *capacity* across uses; contents are
/// overwritten per use and carry no information between requests (the
/// generated data is a pure function of `(layer, seed)`, so recycling
/// can never change simulated results).
#[derive(Debug, Default)]
pub struct Scratch {
    /// Backing storage for regenerated activation matrices
    /// (`Matrix::into_data` / `LayerSpec::gen_acts_into` recycling).
    pub(crate) acts: Vec<i8>,
    /// SMT FIFO-timing buffers (`smt::run_sampled_profiled_into`).
    pub(crate) smt: s2ta_sim::smt::SmtScratch,
    /// The raw and post-DAP `u16` tallies a tally pass
    /// (`s2ta_dbb::dap::dap_col_profile_into`) counts into, which each
    /// reader's counters are read off in place.
    pub(crate) raw: Vec<u16>,
    pub(crate) postdap: Vec<u16>,
}

impl Scratch {
    /// A fresh, empty arena (buffers grow to steady size on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Total capacity currently retained, in bytes — diagnostic only.
    pub fn retained_bytes(&self) -> usize {
        self.acts.capacity()
            + std::mem::size_of::<u16>() * (self.raw.capacity() + self.postdap.capacity())
            + self.smt.retained_bytes()
    }
}
