//! A fixed-capacity drop-oldest ring buffer.
//!
//! [`Ring`] preallocates its full capacity up front and never grows:
//! once full, every further push overwrites the oldest element and
//! bumps an `overwritten` tally. This is the storage discipline behind
//! the serving flight recorder: recording an event in the steady state
//! costs one slot write and zero heap allocations, no matter how long
//! the run is or how often the ring wraps.

/// A preallocated drop-oldest ring buffer.
///
/// * `push` never allocates after construction: below capacity it
///   appends; at capacity it overwrites the oldest element in place.
/// * A zero-capacity ring accepts pushes and drops every one of them
///   (counting each in [`Ring::overwritten`]) — the disabled-recorder
///   degenerate case.
/// * [`Ring::iter`] walks the retained elements oldest → newest.
///
/// Equality compares the *logical* content (the oldest → newest
/// sequence), the capacity, and the overwrite tally — two rings that
/// saw the same pushes compare equal regardless of their internal
/// rotation.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    buf: Vec<T>,
    capacity: usize,
    /// Index of the oldest element once the ring is full; 0 before.
    head: usize,
    overwritten: u64,
}

impl<T> Ring<T> {
    /// An empty ring holding at most `capacity` elements, with the
    /// whole backing store allocated immediately.
    pub fn new(capacity: usize) -> Self {
        Self { buf: Vec::with_capacity(capacity), capacity, head: 0, overwritten: 0 }
    }

    /// Appends `value`, overwriting the oldest element (and counting
    /// it as dropped) when the ring is already full. Never allocates.
    pub fn push(&mut self, value: T) {
        if self.capacity == 0 {
            self.overwritten += 1;
            return;
        }
        if self.buf.len() < self.capacity {
            self.buf.push(value);
        } else {
            self.buf[self.head] = value;
            self.head = (self.head + 1) % self.capacity;
            self.overwritten += 1;
        }
    }

    /// Elements currently retained (at most the capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// How many pushed elements have been dropped to make room (or
    /// dropped outright, for a zero-capacity ring).
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Iterates the retained elements oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let (tail, front) = self.buf.split_at(self.head.min(self.buf.len()));
        front.iter().chain(tail.iter())
    }
}

impl<T: PartialEq> PartialEq for Ring<T> {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity
            && self.overwritten == other.overwritten
            && self.len() == other.len()
            && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contents(r: &Ring<u32>) -> Vec<u32> {
        r.iter().copied().collect()
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let mut r = Ring::new(0);
        for i in 0..5 {
            r.push(i);
        }
        assert_eq!(r.len(), 0);
        assert!(r.is_empty());
        assert_eq!(r.overwritten(), 5);
        assert_eq!(contents(&r), Vec::<u32>::new());
    }

    #[test]
    fn capacity_one_keeps_only_the_newest() {
        let mut r = Ring::new(1);
        r.push(7);
        assert_eq!(contents(&r), vec![7]);
        assert_eq!(r.overwritten(), 0);
        r.push(8);
        r.push(9);
        assert_eq!(contents(&r), vec![9]);
        assert_eq!(r.overwritten(), 2);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn exact_fit_retains_everything_in_order() {
        let mut r = Ring::new(4);
        for i in 0..4 {
            r.push(i);
        }
        assert_eq!(contents(&r), vec![0, 1, 2, 3]);
        assert_eq!(r.overwritten(), 0);
        assert_eq!(r.len(), 4);
        assert_eq!(r.capacity, 4);
    }

    #[test]
    fn overflow_drops_oldest_first() {
        let mut r = Ring::new(3);
        for i in 0..7 {
            r.push(i);
        }
        // 0..4 were overwritten oldest-first; 4, 5, 6 remain.
        assert_eq!(contents(&r), vec![4, 5, 6]);
        assert_eq!(r.overwritten(), 4);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn never_allocates_past_construction() {
        let mut r = Ring::new(8);
        let cap_before = r.buf.capacity();
        for i in 0..1_000 {
            r.push(i);
        }
        assert_eq!(r.buf.capacity(), cap_before, "ring backing store must never grow");
    }

    #[test]
    fn equality_ignores_internal_rotation() {
        // Same logical pushes through different construction orders.
        let mut a = Ring::new(3);
        let mut b = Ring::new(3);
        for i in 0..9 {
            a.push(i);
            b.push(i);
        }
        assert_eq!(a, b);
        b.push(9);
        assert_ne!(a, b);
        // Different capacity is a different ring even when the
        // retained oldest -> newest contents happen to match.
        let mut c = Ring::new(3);
        let mut d = Ring::new(5);
        for i in 0..3 {
            c.push(i);
            d.push(i);
        }
        assert_eq!(contents(&c), contents(&d));
        assert_ne!(c, d);
    }
}
