//! Load/store queue with conservative memory disambiguation and
//! store-to-load forwarding.
//!
//! Entries are allocated in program order at dispatch. A load may access the
//! data cache once its own address is known and every older store's address
//! is also known; if an older store to the same (8-byte-aligned) address
//! exists, the load is satisfied by forwarding inside the queue. Stores
//! access the cache at commit.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

/// Stable, program-ordered identity of an LSQ entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LsqEntryId(u64);

impl LsqEntryId {
    /// Raw sequence number (program order among memory operations).
    pub fn sequence(self) -> u64 {
        self.0
    }
}

/// Load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemAccessKind {
    /// Memory read.
    Load,
    /// Memory write.
    Store,
}

/// The readiness of a load, as seen by the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadStatus {
    /// Address not yet computed.
    WaitingForAddress,
    /// An older store's address is unknown — conservative stall.
    WaitingForOlderStores,
    /// May access the cache.
    ReadyFromCache,
    /// Satisfied by an older in-queue store to the same address.
    ReadyForwarded {
        /// The forwarding store.
        store: LsqEntryId,
    },
    /// Already issued or completed.
    AlreadyIssued,
}

#[derive(Debug, Clone)]
struct Entry {
    id: LsqEntryId,
    kind: MemAccessKind,
    addr: Option<u64>,
    issued: bool,
}

/// The load/store queue (Table 1: 64 entries).
///
/// # Example
///
/// ```
/// use mcd_uarch::{LoadStoreQueue, MemAccessKind};
/// use mcd_uarch::lsq::LoadStatus;
///
/// let mut lsq = LoadStoreQueue::new(64);
/// let st = lsq.allocate(MemAccessKind::Store).expect("space");
/// let ld = lsq.allocate(MemAccessKind::Load).expect("space");
/// lsq.set_address(ld, 0x100);
/// // The older store's address is unknown: the load must wait.
/// assert_eq!(lsq.load_status(ld), LoadStatus::WaitingForOlderStores);
/// lsq.set_address(st, 0x100);
/// assert_eq!(lsq.load_status(ld), LoadStatus::ReadyForwarded { store: st });
/// ```
#[derive(Debug, Clone)]
pub struct LoadStoreQueue {
    entries: VecDeque<Entry>,
    capacity: usize,
    next_id: u64,
    forwards: u64,
}

impl LoadStoreQueue {
    /// Creates an empty queue.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LSQ capacity must be positive");
        LoadStoreQueue {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            next_id: 0,
            forwards: 0,
        }
    }

    /// Maximum entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the queue is full.
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// Count of loads satisfied by forwarding.
    pub fn forwards(&self) -> u64 {
        self.forwards
    }

    /// Allocates an entry in program order.
    ///
    /// # Errors
    ///
    /// Returns `None` if the queue is full — dispatch stalls.
    pub fn allocate(&mut self, kind: MemAccessKind) -> Option<LsqEntryId> {
        if self.is_full() {
            return None;
        }
        let id = LsqEntryId(self.next_id);
        self.next_id += 1;
        self.entries.push_back(Entry {
            id,
            kind,
            addr: None,
            issued: false,
        });
        Some(id)
    }

    fn position(&self, id: LsqEntryId) -> Option<usize> {
        // Ids are allocated consecutively and released only from the
        // front, so an entry sits at its id less the front's.
        let front = self.entries.front()?.id.0;
        let pos = usize::try_from(id.0.checked_sub(front)?).ok()?;
        (pos < self.entries.len()).then_some(pos)
    }

    /// Records the computed effective address of an entry.
    ///
    /// # Panics
    ///
    /// Panics if the entry is no longer in the queue.
    pub fn set_address(&mut self, id: LsqEntryId, addr: u64) {
        let pos = self.position(id).expect("entry is in the queue");
        self.entries[pos].addr = Some(addr);
    }

    /// The scheduler's view of a load.
    ///
    /// # Panics
    ///
    /// Panics if the entry is not in the queue or is not a load.
    pub fn load_status(&self, id: LsqEntryId) -> LoadStatus {
        let pos = self.position(id).expect("entry is in the queue");
        let entry = &self.entries[pos];
        assert_eq!(entry.kind, MemAccessKind::Load, "load_status on a store");
        if entry.issued {
            return LoadStatus::AlreadyIssued;
        }
        let Some(addr) = entry.addr else {
            return LoadStatus::WaitingForAddress;
        };
        let line = addr & !7;
        let mut forwarding = None;
        for older in self.entries.iter().take(pos) {
            if older.kind != MemAccessKind::Store {
                continue;
            }
            match older.addr {
                None => return LoadStatus::WaitingForOlderStores,
                Some(a) if (a & !7) == line => forwarding = Some(older.id),
                Some(_) => {}
            }
        }
        match forwarding {
            Some(store) => LoadStatus::ReadyForwarded { store },
            None => LoadStatus::ReadyFromCache,
        }
    }

    /// Marks a load as issued (forwarded loads count toward the forwarding
    /// statistic).
    ///
    /// # Panics
    ///
    /// Panics if the entry is absent or already issued.
    pub fn mark_issued(&mut self, id: LsqEntryId, forwarded: bool) {
        let pos = self.position(id).expect("entry is in the queue");
        assert!(!self.entries[pos].issued, "entry issued twice");
        self.entries[pos].issued = true;
        if forwarded {
            self.forwards += 1;
        }
    }

    /// Removes the oldest entry; memory operations commit in program order.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the oldest entry.
    pub fn release_oldest(&mut self, id: LsqEntryId) {
        let front = self.entries.front().expect("queue not empty");
        assert_eq!(front.id, id, "memory ops must release in program order");
        self.entries.pop_front();
    }

    /// The committed store's address (needed for the cache write at commit).
    ///
    /// # Panics
    ///
    /// Panics if the entry is absent or has no address yet.
    pub fn address_of(&self, id: LsqEntryId) -> u64 {
        let pos = self.position(id).expect("entry is in the queue");
        self.entries[pos].addr.expect("address was computed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_enforced() {
        let mut lsq = LoadStoreQueue::new(2);
        assert!(lsq.allocate(MemAccessKind::Load).is_some());
        assert!(lsq.allocate(MemAccessKind::Store).is_some());
        assert!(lsq.allocate(MemAccessKind::Load).is_none());
    }

    #[test]
    fn load_with_no_older_stores_hits_cache() {
        let mut lsq = LoadStoreQueue::new(8);
        let ld = lsq.allocate(MemAccessKind::Load).expect("space");
        assert_eq!(lsq.load_status(ld), LoadStatus::WaitingForAddress);
        lsq.set_address(ld, 0x40);
        assert_eq!(lsq.load_status(ld), LoadStatus::ReadyFromCache);
    }

    #[test]
    fn conservative_disambiguation() {
        let mut lsq = LoadStoreQueue::new(8);
        let st = lsq.allocate(MemAccessKind::Store).expect("space");
        let ld = lsq.allocate(MemAccessKind::Load).expect("space");
        lsq.set_address(ld, 0x100);
        assert_eq!(lsq.load_status(ld), LoadStatus::WaitingForOlderStores);
        lsq.set_address(st, 0x900); // different address
        assert_eq!(lsq.load_status(ld), LoadStatus::ReadyFromCache);
    }

    #[test]
    fn forwarding_from_matching_store() {
        let mut lsq = LoadStoreQueue::new(8);
        let st1 = lsq.allocate(MemAccessKind::Store).expect("space");
        let st2 = lsq.allocate(MemAccessKind::Store).expect("space");
        let ld = lsq.allocate(MemAccessKind::Load).expect("space");
        lsq.set_address(st1, 0x200);
        lsq.set_address(st2, 0x200);
        lsq.set_address(ld, 0x204); // same 8-byte word as 0x200? No: 0x204 & !7 = 0x200.
        assert_eq!(
            lsq.load_status(ld),
            LoadStatus::ReadyForwarded { store: st2 }
        );
        lsq.mark_issued(ld, true);
        assert_eq!(lsq.forwards(), 1);
        assert_eq!(lsq.load_status(ld), LoadStatus::AlreadyIssued);
    }

    #[test]
    fn younger_store_does_not_forward() {
        let mut lsq = LoadStoreQueue::new(8);
        let ld = lsq.allocate(MemAccessKind::Load).expect("space");
        let st = lsq.allocate(MemAccessKind::Store).expect("space");
        lsq.set_address(ld, 0x300);
        lsq.set_address(st, 0x300);
        assert_eq!(lsq.load_status(ld), LoadStatus::ReadyFromCache);
    }

    #[test]
    fn release_in_order() {
        let mut lsq = LoadStoreQueue::new(4);
        let a = lsq.allocate(MemAccessKind::Load).expect("space");
        let b = lsq.allocate(MemAccessKind::Store).expect("space");
        lsq.release_oldest(a);
        lsq.release_oldest(b);
        assert!(lsq.is_empty());
    }

    #[test]
    #[should_panic(expected = "program order")]
    fn out_of_order_release_panics() {
        let mut lsq = LoadStoreQueue::new(4);
        let _a = lsq.allocate(MemAccessKind::Load).expect("space");
        let b = lsq.allocate(MemAccessKind::Store).expect("space");
        lsq.release_oldest(b);
    }

    #[test]
    fn address_of_committed_store() {
        let mut lsq = LoadStoreQueue::new(4);
        let st = lsq.allocate(MemAccessKind::Store).expect("space");
        lsq.set_address(st, 0xabc0);
        assert_eq!(lsq.address_of(st), 0xabc0);
    }
}
