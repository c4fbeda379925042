//! Property-based tests for the microarchitectural structures.

use proptest::prelude::*;

use mcd_uarch::lsq::LoadStatus;
use mcd_uarch::{Cache, CacheConfig, CircularQueue, LoadStoreQueue, MemAccessKind, RenameUnit};
use mcd_workload::Reg;

proptest! {
    #[test]
    fn cache_access_then_probe_always_hits(addrs in proptest::collection::vec(0u64..1 << 32, 1..200)) {
        let mut cache = Cache::new(CacheConfig::l1d_paper());
        for addr in &addrs {
            cache.access(*addr, false);
            prop_assert!(cache.probe(*addr), "address {addr:#x} just accessed");
        }
        let stats = cache.stats();
        prop_assert!(stats.misses <= stats.accesses);
        prop_assert_eq!(stats.accesses, addrs.len() as u64);
    }

    #[test]
    fn cache_within_one_set_never_thrashes_below_assoc(base in 0u64..1 << 20) {
        // Two distinct lines fit the 2-way L1: alternating between them
        // after warm-up never misses.
        let stride = CacheConfig::l1d_paper().sets() * 64;
        let mut cache = Cache::new(CacheConfig::l1d_paper());
        let (a, b) = (base * 64, base * 64 + stride);
        cache.access(a, false);
        cache.access(b, false);
        for i in 0..20 {
            let addr = if i % 2 == 0 { a } else { b };
            prop_assert!(cache.access(addr, false));
        }
    }

    #[test]
    fn circular_queue_is_fifo(ops in proptest::collection::vec(any::<Option<u8>>(), 1..100)) {
        let mut queue = CircularQueue::new(8);
        let mut model = std::collections::VecDeque::new();
        for op in ops {
            match op {
                Some(v) => {
                    let ours = queue.push_back(v);
                    if model.len() < 8 {
                        model.push_back(v);
                        prop_assert!(ours.is_ok());
                    } else {
                        prop_assert!(ours.is_err());
                    }
                }
                None => {
                    prop_assert_eq!(queue.pop_front(), model.pop_front());
                }
            }
            prop_assert_eq!(queue.len(), model.len());
        }
    }

    #[test]
    fn rename_allocate_free_conserves_registers(
        writes in proptest::collection::vec(0u8..32, 1..60),
    ) {
        let mut rn = RenameUnit::paper();
        let initial_free = rn.free_int();
        let mut pending = Vec::new();
        for w in writes {
            if rn.free_int() == 0 {
                break;
            }
            pending.push(rn.allocate(Reg::int(w)).expect("checked free list").prev);
        }
        let allocated = pending.len();
        prop_assert_eq!(rn.free_int(), initial_free - allocated);
        for prev in pending {
            rn.free(prev);
        }
        prop_assert_eq!(rn.free_int(), initial_free);
    }

    #[test]
    fn lsq_forwarding_matches_a_naive_model(
        ops in proptest::collection::vec((any::<bool>(), 0u64..16), 1..40),
    ) {
        // Addresses restricted to 16 words so forwarding actually occurs.
        let mut lsq = LoadStoreQueue::new(64);
        let mut entries = Vec::new();
        for (is_store, word) in &ops {
            let kind = if *is_store { MemAccessKind::Store } else { MemAccessKind::Load };
            let id = lsq.allocate(kind).expect("capacity 64 is enough");
            lsq.set_address(id, word * 8);
            entries.push((id, *is_store, word * 8));
        }
        for (i, (id, is_store, addr)) in entries.iter().enumerate() {
            if *is_store {
                continue;
            }
            // Naive model: the youngest older store to the same address.
            let expected = entries[..i]
                .iter()
                .rev()
                .find(|(_, s, a)| *s && a == addr)
                .map(|(sid, _, _)| *sid);
            match lsq.load_status(*id) {
                LoadStatus::ReadyForwarded { store } => prop_assert_eq!(Some(store), expected),
                LoadStatus::ReadyFromCache => prop_assert_eq!(expected, None),
                other => prop_assert!(false, "unexpected status {other:?}"),
            }
        }
    }
}
