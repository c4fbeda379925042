//! Queue structures shared by pipeline stages.
//!
//! [`CircularQueue`] models in-order structures such as the fetch queue.

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
}
