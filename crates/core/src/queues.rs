//! Bounded FIFO queues with occupancy tracking.

use dva_isa::Cycle;
use std::collections::VecDeque;

/// A bounded FIFO connecting two processors of the decoupled machine.
///
/// All inter-processor communication in the architecture flows through
/// queues of this shape (paper, Section 4); a full queue back-pressures
/// the producer and an empty one blocks the consumer.
#[derive(Debug, Clone)]
pub struct Fifo<T> {
    name: &'static str,
    cap: usize,
    items: VecDeque<T>,
    max_occupancy: usize,
}

impl<T> Fifo<T> {
    /// Creates an empty queue with capacity `cap`.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero — every architectural queue holds at least
    /// one entry.
    pub fn new(name: &'static str, cap: usize) -> Fifo<T> {
        assert!(cap > 0, "queue {name} must have nonzero capacity");
        Fifo {
            name,
            cap,
            // Full-capacity preallocation: pushes never touch the heap, so
            // the engines' steady-state tick loops stay allocation-free.
            items: VecDeque::with_capacity(cap),
            max_occupancy: 0,
        }
    }

    /// Empties the queue and re-arms it with a (possibly different)
    /// capacity, keeping the already-allocated storage when it suffices.
    /// Part of the engines' [`reset`] contract: after `reset` the queue is
    /// indistinguishable from a freshly constructed one, but re-running a
    /// simulation allocates nothing.
    ///
    /// [`reset`]: crate::DvaRunner
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn reset(&mut self, cap: usize) {
        assert!(cap > 0, "queue {} must have nonzero capacity", self.name);
        self.cap = cap;
        self.items.clear();
        if self.items.capacity() < cap {
            self.items.reserve(cap);
        }
        self.max_occupancy = 0;
    }

    /// The queue's diagnostic name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the queue is at capacity.
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.cap
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Pushes an entry.
    ///
    /// # Panics
    ///
    /// Panics when full; producers must check [`Fifo::is_full`] first.
    pub fn push(&mut self, item: T) {
        assert!(!self.is_full(), "queue {} overflow", self.name);
        self.items.push_back(item);
        self.max_occupancy = self.max_occupancy.max(self.items.len());
    }

    /// The entry at the head, if any.
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// The entry at `index` (0 = oldest), if the queue holds that many.
    pub fn get(&self, index: usize) -> Option<&T> {
        self.items.get(index)
    }

    /// Mutable access to the head entry.
    pub fn front_mut(&mut self) -> Option<&mut T> {
        self.items.front_mut()
    }

    /// Pops the head entry.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Iterates the entries from oldest to youngest.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &T> {
        self.items.iter()
    }

    /// Applies `f` to the entry at `index` (0 = oldest).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn update_at(&mut self, index: usize, f: impl FnOnce(&mut T)) {
        let item = self
            .items
            .get_mut(index)
            .unwrap_or_else(|| panic!("queue index {index} out of bounds"));
        f(item);
    }

    /// Highest occupancy ever observed.
    pub fn max_occupancy(&self) -> usize {
        self.max_occupancy
    }
}

/// A queue entry carrying data that materializes at a known cycle: slots
/// are *reserved* in program order but become consumable only when their
/// data arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timed<T> {
    /// The payload.
    pub value: T,
    /// Cycle at which the data is fully present and consumable.
    pub ready_at: Cycle,
}

impl<T> Timed<T> {
    /// Creates an entry that becomes ready at `ready_at`.
    pub fn new(value: T, ready_at: Cycle) -> Timed<T> {
        Timed { value, ready_at }
    }

    /// Whether the data has arrived by cycle `now`.
    pub fn is_ready(&self, now: Cycle) -> bool {
        self.ready_at <= now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_preserves_order_and_tracks_occupancy() {
        let mut q: Fifo<u32> = Fifo::new("test", 3);
        q.push(1);
        q.push(2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        q.push(3);
        q.push(4);
        assert!(q.is_full());
        assert_eq!(q.max_occupancy(), 3);
        let rest: Vec<u32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(rest, vec![2, 3, 4]);
    }

    #[test]
    fn reset_restores_a_pristine_queue_without_reallocating() {
        let mut q: Fifo<u32> = Fifo::new("test", 4);
        q.push(1);
        q.push(2);
        q.pop();
        let storage = q.items.capacity();
        q.reset(3);
        assert!(q.is_empty());
        assert_eq!(q.capacity(), 3);
        assert_eq!(q.max_occupancy(), 0);
        assert_eq!(q.items.capacity(), storage, "storage must be reused");
        // Growing past the old storage is allowed (and reallocates).
        q.reset(8);
        assert!(q.items.capacity() >= 8);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut q: Fifo<u8> = Fifo::new("tiny", 1);
        q.push(0);
        q.push(1);
    }

    #[test]
    #[should_panic(expected = "nonzero capacity")]
    fn zero_capacity_rejected() {
        let _: Fifo<u8> = Fifo::new("zero", 0);
    }

    #[test]
    fn timed_entries_gate_on_arrival() {
        let t = Timed::new('x', 10);
        assert!(!t.is_ready(9));
        assert!(t.is_ready(10));
    }
}
