//! Per-lane scratch arenas: reusable host-side buffers for the
//! execution hot loop.
//!
//! The profiled (matrix-free) execution path is almost allocation-free
//! by construction — events are derived from cached per-position
//! profiles — but host costs remained per request: regenerating
//! activation matrices (the SMT sampled path and every cold profile
//! compile), the SMT FIFO-timing buffers, and the per-layer report
//! vector. A [`Scratch`] arena owns recycled backing storage for the
//! buffers; after the first batch warms them (and the fleet's
//! plan/profile caches), a steady-state request allocates nothing, and
//! a cold profile compile allocates only the cache entry and the one
//! narrow tally buffer it holds.
//!
//! Scratch lifetime (one serving lane):
//!
//! ```text
//!   ScratchPool ── checkout ──> Scratch ──┐
//!        ^                               batch: every layer reuses
//!        │                               acts / smt capacity; a cold
//!        │                               ActProfile generates into acts,
//!        │                               tallies both sides in one pass
//!        │                               into raw / postdap, narrows
//!        └────────── restore <───────────┘
//! ```
//!
//! A [`ScratchPool`] shares arenas across whatever executes batches —
//! cluster shard threads, calibration probes — so the warm capacity
//! survives between batches regardless of which worker runs the next
//! one.

use std::sync::{Arc, Mutex};

/// Reusable host buffers for one in-flight batch execution.
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
    /// before narrowing them into the cache entry.
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

/// A shared pool of [`Scratch`] arenas.
///
/// `checkout` hands out a warm arena when one is idle (LIFO, so the
/// hottest capacity is reused first) and a fresh one otherwise;
/// `restore` returns it. The pool never shrinks — arenas are small
/// (one activation matrix, two tally vectors and the SMT FIFO buffers)
/// and bounded by the number of concurrent batches ever in flight.
#[derive(Debug, Clone, Default)]
pub struct ScratchPool {
    idle: Arc<Mutex<Vec<Scratch>>>,
}

impl ScratchPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes an idle arena, or creates a fresh one if none is idle.
    pub fn checkout(&self) -> Scratch {
        self.idle.lock().expect("scratch pool poisoned").pop().unwrap_or_default()
    }

    /// Returns an arena to the pool for the next checkout.
    pub fn restore(&self, scratch: Scratch) {
        self.idle.lock().expect("scratch pool poisoned").push(scratch);
    }

    /// Number of idle arenas currently pooled.
    pub fn idle_len(&self) -> usize {
        self.idle.lock().expect("scratch pool poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_restore_recycles_capacity() {
        let pool = ScratchPool::new();
        let mut s = pool.checkout();
        assert_eq!(s.retained_bytes(), 0);
        s.acts.reserve(1024);
        let cap = s.acts.capacity();
        pool.restore(s);
        assert_eq!(pool.idle_len(), 1);
        let s2 = pool.checkout();
        assert!(s2.acts.capacity() >= cap, "warm capacity survives the pool");
        assert_eq!(pool.idle_len(), 0);
    }

    #[test]
    fn empty_pool_hands_out_fresh_arenas() {
        let pool = ScratchPool::new();
        assert_eq!(pool.idle_len(), 0);
        let a = pool.checkout();
        let b = pool.checkout();
        assert_eq!(a.retained_bytes() + b.retained_bytes(), 0);
    }
}
