//! Queue structures shared by pipeline stages.
//!
//! [`CircularQueue`] models in-order structures (fetch queue, reorder
//! buffer); [`AgeQueue`] models the issue queues, whose entries leave in
//! arbitrary order but are always walked oldest-first.

/// A bounded FIFO with stable capacity, used for the fetch queue and ROB.
///
/// # Example
///
/// ```
/// use mcd_uarch::CircularQueue;
///
/// let mut q = CircularQueue::new(2);
/// assert!(q.push_back('a').is_ok());
/// assert!(q.push_back('b').is_ok());
/// assert!(q.push_back('c').is_err()); // full
/// assert_eq!(q.pop_front(), Some('a'));
/// ```
#[derive(Debug, Clone)]
pub struct CircularQueue<T> {
    items: std::collections::VecDeque<T>,
    capacity: usize,
}

impl<T> CircularQueue<T> {
    /// Creates an empty queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        CircularQueue {
            items: std::collections::VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Maximum number of items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue holds no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the queue is at capacity.
    pub fn is_full(&self) -> bool {
        self.items.len() == self.capacity
    }

    /// Free slots remaining.
    pub fn free(&self) -> usize {
        self.capacity - self.items.len()
    }

    /// Appends an item.
    ///
    /// # Errors
    ///
    /// Returns the item back if the queue is full.
    pub fn push_back(&mut self, item: T) -> Result<(), T> {
        if self.is_full() {
            Err(item)
        } else {
            self.items.push_back(item);
            Ok(())
        }
    }

    /// Removes and returns the oldest item.
    pub fn pop_front(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// The oldest item, if any.
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// Mutable access to the oldest item.
    pub fn front_mut(&mut self) -> Option<&mut T> {
        self.items.front_mut()
    }

    /// Iterates oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Iterates oldest-first, mutably.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.items.iter_mut()
    }

    /// Removes all items.
    pub fn clear(&mut self) {
        self.items.clear();
    }
}

/// A bounded queue of sequence numbers held in ascending (age) order.
///
/// Issue queues need exactly three operations per cycle: walk entries
/// oldest-first, insert newly dispatched entries, and remove issued ones.
/// Dispatch hands out sequence numbers monotonically, so a plain sorted
/// vector gives oldest-first iteration for free — no per-cycle sort, no
/// token bookkeeping — while removal is a binary search plus a short shift
/// within a cache line or two.
///
/// # Example
///
/// ```
/// use mcd_uarch::AgeQueue;
///
/// let mut iq = AgeQueue::new(4);
/// iq.push(10).expect("space");
/// iq.push(11).expect("space");
/// iq.remove(10);
/// assert_eq!(iq.as_slice(), &[11]);
/// ```
#[derive(Debug, Clone)]
pub struct AgeQueue {
    seqs: Vec<u64>,
    capacity: usize,
}

impl AgeQueue {
    /// Creates an empty queue with room for `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        AgeQueue {
            seqs: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// Whether the queue is at capacity.
    pub fn is_full(&self) -> bool {
        self.seqs.len() == self.capacity
    }

    /// Appends a sequence number.
    ///
    /// # Errors
    ///
    /// Returns the value back if the queue is full.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `seq` is not greater than every entry
    /// already present — insertion order is the age order.
    pub fn push(&mut self, seq: u64) -> Result<(), u64> {
        if self.is_full() {
            return Err(seq);
        }
        debug_assert!(
            self.seqs.last().is_none_or(|&last| last < seq),
            "sequence numbers must arrive in increasing order"
        );
        self.seqs.push(seq);
        Ok(())
    }

    /// Removes a sequence number.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not present.
    pub fn remove(&mut self, seq: u64) {
        let i = self.seqs.binary_search(&seq).expect("entry is present");
        self.seqs.remove(i);
    }

    /// The entries, oldest first.
    pub fn as_slice(&self) -> &[u64] {
        &self.seqs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circular_fifo_order() {
        let mut q = CircularQueue::new(4);
        for i in 0..4 {
            q.push_back(i).expect("space");
        }
        assert!(q.is_full());
        assert_eq!(q.push_back(9), Err(9));
        for i in 0..4 {
            assert_eq!(q.pop_front(), Some(i));
        }
        assert!(q.is_empty());
        assert_eq!(q.pop_front(), None);
    }

    #[test]
    fn circular_free_tracks_occupancy() {
        let mut q = CircularQueue::new(3);
        assert_eq!(q.free(), 3);
        q.push_back(1).expect("space");
        assert_eq!(q.free(), 2);
        q.pop_front();
        assert_eq!(q.free(), 3);
    }

    #[test]
    fn age_queue_keeps_oldest_first_across_removals() {
        let mut q = AgeQueue::new(4);
        for seq in [3u64, 7, 9, 12] {
            q.push(seq).expect("space");
        }
        assert!(q.is_full());
        assert_eq!(q.push(13), Err(13));
        q.remove(7);
        assert_eq!(q.as_slice(), &[3, 9, 12]);
        q.push(13).expect("space after removal");
        assert_eq!(q.as_slice(), &[3, 9, 12, 13]);
        q.remove(3);
        q.remove(13);
        assert_eq!(q.as_slice(), &[9, 12]);
        assert_eq!(q.len(), 2);
    }

    #[test]
    #[should_panic(expected = "entry is present")]
    fn age_queue_remove_of_absent_entry_panics() {
        let mut q = AgeQueue::new(2);
        q.push(1).expect("space");
        q.remove(2);
    }
}
