//! Scratch arenas: reusable host-side buffers for the execution hot
//! loop.
//!
//! The profiled (matrix-free) execution path is almost allocation-free
//! by construction — events are derived from cached per-position
//! profiles — but host costs remained per request: regenerating
//! activation matrices (the SMT sampled path and every cold profile
//! compile), the SMT FIFO-timing buffers, and the per-layer report
//! vector. A [`Scratch`] arena owns recycled backing storage for the
//! buffers; after the first batch warms them (and the fleet's
//! plan/profile caches), a steady-state request allocates nothing, a
//! cold profile compile allocates only the cache entry and the one
//! narrow tally buffer it holds, and a single-use input's profile,
//! read in place from the arena's tallies, allocates nothing at all.
//!
//! Scratch lifetime (one serving engine):
//!
//! ```text
//!   Engine ── owns ──> Scratch ── &mut ──> every batch and stage it runs:
//!                                           each layer reuses acts / smt
//!                                           capacity; a cold ActProfile
//!                                           generates into acts, tallies
//!                                           both sides in one pass into
//!                                           raw / postdap, and narrows
//!                                           them into a cache entry, or,
//!                                           used once, is read there
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
    /// The `u16` tallies a cold activation-profile compile counts into
    /// before narrowing them into the cache entry, or that a single-use
    /// input's layer run reads in place.
    pub(crate) tallies: DapTallies,
}

/// The raw and post-DAP `u16` tally buffers of
/// `s2ta_dbb::dap::dap_col_profile_into`.
#[derive(Debug, Default)]
pub(crate) struct DapTallies {
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
            + std::mem::size_of::<u16>()
                * (self.tallies.raw.capacity() + self.tallies.postdap.capacity())
            + self.smt.retained_bytes()
    }
}
