//! Property-based tests for the microarchitectural structures.

use std::sync::atomic::{AtomicBool, Ordering};

use proptest::prelude::*;

use mcd_uarch::lsq::LoadStatus;
use mcd_uarch::{
    Cache, CacheConfig, CircularQueue, LoadStoreQueue, LsqEntryId, MemAccessKind, RenameUnit,
};
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

/// One live entry of the naive LSQ model, oldest first.
struct ModelEntry {
    id: LsqEntryId,
    store: bool,
    addr: Option<u64>,
    issued: bool,
}

/// A load's status, found by searching the model for its id.
fn model_load_status(model: &[ModelEntry], id: LsqEntryId) -> LoadStatus {
    let i = model.iter().position(|e| e.id == id).expect("live entry");
    let load = &model[i];
    if load.issued {
        return LoadStatus::AlreadyIssued;
    }
    let Some(addr) = load.addr else {
        return LoadStatus::WaitingForAddress;
    };
    let mut store = None;
    for older in model[..i].iter().filter(|e| e.store) {
        match older.addr {
            None => return LoadStatus::WaitingForOlderStores,
            Some(a) if a & !7 == addr & !7 => store = Some(older.id),
            Some(_) => {}
        }
    }
    match store {
        Some(store) => LoadStatus::ReadyForwarded { store },
        None => LoadStatus::ReadyFromCache,
    }
}

/// Set once any case observes a load held back by an older store.
static SAW_WAITING_FOR_OLDER_STORES: AtomicBool = AtomicBool::new(false);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // No `#[test]`: `lsq_lookup_survives_releases` runs it, then checks
    // what the cases saw.
    fn lsq_interleaved_ops_match_a_naive_model(
        ops in proptest::collection::vec((0u8..4, any::<u64>()), 1..120),
    ) {
        // A small queue, so the front moves and ids outrun positions.
        const CAPACITY: usize = 8;
        let mut lsq = LoadStoreQueue::new(CAPACITY);
        let mut model: Vec<ModelEntry> = Vec::new();
        let mut forwards = 0;
        for (op, pick) in ops {
            match op {
                0 => {
                    let store = pick & 1 == 1;
                    let kind = if store { MemAccessKind::Store } else { MemAccessKind::Load };
                    match lsq.allocate(kind) {
                        Some(id) => model.push(ModelEntry { id, store, addr: None, issued: false }),
                        None => prop_assert_eq!(model.len(), CAPACITY),
                    }
                }
                1 => {
                    // Addresses arrive in any order, over 8 words so that
                    // forwarding happens.
                    let waiting: Vec<usize> =
                        (0..model.len()).filter(|&i| model[i].addr.is_none()).collect();
                    if !waiting.is_empty() {
                        let i = waiting[(pick % waiting.len() as u64) as usize];
                        let addr = (pick >> 32) % 8 * 8;
                        lsq.set_address(model[i].id, addr);
                        model[i].addr = Some(addr);
                    }
                }
                2 => {
                    let ready: Vec<(usize, bool)> = (0..model.len())
                        .filter(|&i| !model[i].store)
                        .filter_map(|i| match model_load_status(&model, model[i].id) {
                            LoadStatus::ReadyFromCache => Some((i, false)),
                            LoadStatus::ReadyForwarded { .. } => Some((i, true)),
                            _ => None,
                        })
                        .collect();
                    if !ready.is_empty() {
                        let (i, forwarded) = ready[(pick % ready.len() as u64) as usize];
                        lsq.mark_issued(model[i].id, forwarded);
                        model[i].issued = true;
                        forwards += u64::from(forwarded);
                    }
                }
                _ => {
                    if !model.is_empty() {
                        lsq.release_oldest(model.remove(0).id);
                    }
                }
            }
            prop_assert_eq!(lsq.len(), model.len());
            prop_assert_eq!(lsq.forwards(), forwards);
            for e in &model {
                if !e.store {
                    let status = lsq.load_status(e.id);
                    prop_assert_eq!(status, model_load_status(&model, e.id));
                    if status == LoadStatus::WaitingForOlderStores {
                        SAW_WAITING_FOR_OLDER_STORES.store(true, Ordering::Relaxed);
                    }
                }
                if let Some(addr) = e.addr {
                    prop_assert_eq!(lsq.address_of(e.id), addr);
                }
            }
        }
    }
}

#[test]
fn lsq_lookup_survives_releases() {
    lsq_interleaved_ops_match_a_naive_model();
    assert!(
        SAW_WAITING_FOR_OLDER_STORES.load(Ordering::Relaxed),
        "no case held a load back behind an older store"
    );
}
