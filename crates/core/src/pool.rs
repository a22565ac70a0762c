//! Order-preserving parallel fan-out.
//!
//! The design-space sweep ([`crate::sweep`]), the pre-routed cluster
//! driver and pipeline calibration (`s2ta-serve`), and the bench
//! fan-outs all need the same primitive: run a handful of independent
//! jobs on N OS threads and get the results back **in input order**,
//! so parallel output is byte-identical to the serial path.
//!
//! [`Executor::map`] is that primitive. Each call runs on scoped
//! threads (`std::thread::scope`) that pull job indices from a shared
//! atomic cursor (self-balancing for uneven job costs) and return
//! their results tagged by index, so the output order is fixed by
//! construction at every worker count. Every caller maps once over a
//! few coarse jobs, so a spawn per call is noise, and no thread
//! outlives the call that needed it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

/// The number of workers to use when the caller has no preference: the
/// machine's available parallelism (1 if it cannot be queried).
pub(crate) fn default_workers() -> usize {
    thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// An order-preserving fan-out over a fixed number of workers.
pub struct Executor {
    workers: usize,
}

impl Executor {
    /// An executor with `workers` total parallelism: the calling thread
    /// plus up to `workers - 1` scoped helpers per map. `workers <= 1`
    /// spawns no threads at all and every map runs serially.
    pub fn new(workers: usize) -> Self {
        Self { workers: workers.max(1) }
    }

    /// The process-wide executor, sized to `default_workers`.
    pub fn global() -> &'static Executor {
        static GLOBAL: OnceLock<Executor> = OnceLock::new();
        GLOBAL.get_or_init(|| Executor::new(default_workers()))
    }

    /// Total parallelism (helper threads + the calling thread).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Applies `f` to every item and returns the results in input
    /// order.
    ///
    /// An effective worker count of one — a batch of at most one item
    /// or a one-worker executor — runs serially inline on the calling
    /// thread and spawns nothing, so serial runs keep a deterministic
    /// side-effect order (e.g. LRU counters). The output is identical
    /// for every worker count.
    pub fn map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        let workers = self.workers.min(items.len());
        if workers <= 1 {
            return items.iter().map(&f).collect();
        }
        // The cursor only hands out indices (`Relaxed` suffices);
        // results come back through `join`, which orders them.
        let next = AtomicUsize::new(0);
        let work = || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { return done };
                done.push((i, f(item)));
            }
        };
        let mut out: Vec<Option<U>> = (0..items.len()).map(|_| None).collect();
        thread::scope(|scope| {
            let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
            let mut place = |done: Vec<(usize, U)>| {
                for (i, u) in done {
                    out[i] = Some(u);
                }
            };
            place(work());
            for helper in helpers {
                place(helper.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
            }
        });
        out.into_iter().map(|u| u.expect("executor produced every index")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..500).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x).collect();
        for workers in [1, 2, 3, 7, 8, 64, default_workers()] {
            assert_eq!(Executor::new(workers).map(&items, |&x| x * x), serial, "{workers} workers");
        }
    }

    #[test]
    fn runs_every_item_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<usize> = (0..137).collect();
        let out = Executor::new(7).map(&items, |&i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), items.len());
        assert_eq!(out, items);
    }

    #[test]
    fn handles_empty_and_tiny_batches() {
        let ex = Executor::new(4);
        let none: Vec<u32> = Vec::new();
        assert!(ex.map(&none, |&x| x).is_empty());
        assert_eq!(ex.map(&[9u32], |&x| x + 1), vec![10]);
        assert_eq!(ex.map(&[1u32, 2, 3], |&x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }

    #[test]
    fn executor_is_reusable_and_global_is_shared() {
        let ex = Executor::new(3);
        for _ in 0..20 {
            let items: Vec<usize> = (0..50).collect();
            assert_eq!(ex.map(&items, |&i| i + 1), (1..=50).collect::<Vec<_>>());
        }
        let a = Executor::global() as *const Executor;
        let b = Executor::global() as *const Executor;
        assert_eq!(a, b);
        assert_eq!(Executor::global().workers(), default_workers());
    }

    /// A map inside a map (the `fig11` bench maps each model's
    /// architectures inside its own per-model map) still returns every
    /// result in input order.
    #[test]
    fn nested_maps_preserve_order() {
        let ex = Executor::new(3);
        let outer: Vec<u64> = (0..5).collect();
        let inner: Vec<u64> = (0..40).collect();
        let nested = ex.map(&outer, |&o| ex.map(&inner, |&i| o * 100 + i));
        let serial: Vec<Vec<u64>> =
            outer.iter().map(|&o| inner.iter().map(|&i| o * 100 + i).collect()).collect();
        assert_eq!(nested, serial);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(32))]
        /// [`Executor::map`] is byte-identical to a serial `iter().map`
        /// at every interesting worker count — including the empty and
        /// single-job batches it short-circuits serially.
        #[test]
        fn prop_executor_map_is_order_and_value_identical(
            items in proptest::collection::vec(proptest::arbitrary::any::<u64>(), 0..200),
        ) {
            let f = |x: &u64| x.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(7);
            let serial: Vec<u64> = items.iter().map(f).collect();
            for workers in [1, 2, 7, default_workers()] {
                let ex = Executor::new(workers);
                proptest::prop_assert_eq!(&ex.map(&items, f), &serial, "{} workers", workers);
            }
        }
    }

    /// A zero-worker request is clamped to one worker and runs serially
    /// rather than spawning nothing and producing nothing.
    #[test]
    fn zero_workers_still_run() {
        let ex = Executor::new(0);
        assert_eq!(ex.workers(), 1);
        let none: Vec<u32> = Vec::new();
        assert!(ex.map(&none, |&x| x).is_empty());
        assert_eq!(ex.map(&[1u32, 2], |&x| x * 2), vec![2, 4]);
    }
}
