//! Deterministic fault injection for the campaign harness.
//!
//! A [`FaultPlan`] is a fixed, inspectable list of faults the supervisor
//! consults at each injection point: before a cell attempt (panic, stall),
//! around a cache store (IO error, torn write), and after each computed
//! cell (simulated interrupt). Faults target explicit cells and attempt
//! counts, so a chaos test states exactly what goes wrong and when — and
//! the *same plan with the same campaign* misbehaves identically on every
//! run. [`FaultPlan::storm`] derives a mixed plan pseudo-randomly from a
//! seed for soak-style tests; the derivation is a pure function of the
//! seed, never of wall-clock time or thread scheduling.
//!
//! The plan is harness-level: it breaks the machinery *around* the
//! simulator (workers, cache, telemetry), never the simulated results.
//! Simulator-level perturbations (jitter outliers, PLL overruns) live
//! behind the `chaos` feature of `mcd-time` instead.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::time::Duration;

use serde::{Deserialize, Number, Serialize, Value};

/// One injected fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Panic inside the cell body on attempts `1..=attempts` of this cell.
    Panic {
        /// Target cell index (spec-expansion order).
        cell: usize,
        /// How many leading attempts panic. `u32::MAX` = every attempt
        /// (a deterministic, unrecoverable panic).
        attempts: u32,
    },
    /// Sleep inside the cell body before computing, simulating a hang. A
    /// supervisor deadline shorter than the stall sees a hung cell.
    Stall {
        /// Target cell index.
        cell: usize,
        /// How long the cell hangs.
        by: Duration,
    },
    /// The first `times` cache stores of this cell fail with an injected
    /// IO error (transient — backoff retries eventually succeed).
    StoreIoError {
        /// Target cell index.
        cell: usize,
        /// How many consecutive stores fail.
        times: u32,
    },
    /// The cell's cache entry is published torn: only the first `keep`
    /// bytes are written, simulating a crash mid-flush.
    TornStore {
        /// Target cell index.
        cell: usize,
        /// Bytes of the entry actually written.
        keep: usize,
    },
    /// After `computed` cells have finished computing, raise the campaign
    /// interrupt flag — the same path a SIGINT takes — so the run drains
    /// and leaves a resumable checkpoint.
    InterruptAfter {
        /// Computed-cell count that triggers the interrupt.
        computed: usize,
    },
    /// The worker *lies* about this cell: it computes honestly, then
    /// perturbs one deterministically chosen numeric field of the result
    /// before reporting it. The simulator itself is untouched — this
    /// models a hostile or broken remote host, and exists to exercise
    /// the grid audit/arbiter/quarantine path. Never part of
    /// [`FaultPlan::storm`], which feeds local campaigns where a lie
    /// would (correctly) break serial-byte convergence.
    Lie {
        /// Target cell index.
        cell: usize,
        /// Seed choosing which field is perturbed.
        seed: u64,
    },
}

/// A deterministic schedule of injected faults, shared across workers.
///
/// Counters (store failures seen, cells computed) are atomics: the plan is
/// consulted concurrently, but which faults fire for which cell is fixed
/// by the plan, not by scheduling.
#[derive(Debug, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
    store_failures: Vec<AtomicU32>,
    computed: AtomicUsize,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan from an explicit fault list.
    pub fn new(faults: Vec<Fault>) -> FaultPlan {
        let store_failures = faults.iter().map(|_| AtomicU32::new(0)).collect();
        FaultPlan {
            faults,
            store_failures,
            computed: AtomicUsize::new(0),
        }
    }

    /// Derives a mixed plan pseudo-randomly (but reproducibly) from `seed`
    /// for a campaign of `cells` cells: roughly one fault per four cells,
    /// drawn from the transient kinds (recoverable panic, short stall,
    /// transient store error, torn store). Identical seeds give identical
    /// plans.
    pub fn storm(seed: u64, cells: usize) -> FaultPlan {
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut faults = Vec::new();
        for cell in 0..cells {
            if next() % 4 != 0 {
                continue;
            }
            faults.push(match next() % 4 {
                0 => Fault::Panic { cell, attempts: 1 },
                1 => Fault::Stall {
                    cell,
                    by: Duration::from_millis(5 + next() % 20),
                },
                2 => Fault::StoreIoError {
                    cell,
                    times: 1 + (next() % 2) as u32,
                },
                _ => Fault::TornStore {
                    cell,
                    keep: (next() % 64) as usize,
                },
            });
        }
        FaultPlan::new(faults)
    }

    /// The plan's fault list.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The panic message to raise for `(cell, attempt)`, if planned. An
    /// every-attempt fault (`attempts == u32::MAX`) panics with the *same*
    /// payload each time, like a real deterministic bug — so the one retry
    /// classifies its failure as deterministic. A finite fault varies its
    /// payload by attempt, like an environmental failure.
    pub fn panic_message(&self, cell: usize, attempt: u32) -> Option<String> {
        self.faults.iter().find_map(|f| match f {
            Fault::Panic {
                cell: c,
                attempts: n,
            } if *c == cell && attempt <= *n => Some(if *n == u32::MAX {
                format!("chaos: injected panic (cell {cell})")
            } else {
                format!("chaos: injected panic (cell {cell} attempt {attempt})")
            }),
            _ => None,
        })
    }

    /// The stall to inject before computing `cell`, if planned.
    pub fn stall(&self, cell: usize) -> Option<Duration> {
        self.faults.iter().find_map(|f| match f {
            Fault::Stall { cell: c, by } if *c == cell => Some(*by),
            _ => None,
        })
    }

    /// Consumes one planned store failure for `cell`: `true` means this
    /// store call must fail with an injected IO error. Each call burns one
    /// of the fault's `times`, so backoff retries eventually get through.
    pub fn take_store_io_error(&self, cell: usize) -> bool {
        for (fault, used) in self.faults.iter().zip(&self.store_failures) {
            if let Fault::StoreIoError { cell: c, times } = fault {
                if *c == cell {
                    let prior = used.fetch_add(1, Ordering::Relaxed);
                    if prior < *times {
                        return true;
                    }
                    used.fetch_sub(1, Ordering::Relaxed);
                    return false;
                }
            }
        }
        false
    }

    /// The torn-write byte budget for `cell`'s store, if planned.
    pub fn torn_store(&self, cell: usize) -> Option<usize> {
        self.faults.iter().find_map(|f| match f {
            Fault::TornStore { cell: c, keep } if *c == cell => Some(*keep),
            _ => None,
        })
    }

    /// Records one computed cell; `true` when the plan says the campaign
    /// should now be interrupted.
    pub fn record_computed(&self) -> bool {
        let done = self.computed.fetch_add(1, Ordering::Relaxed) + 1;
        self.faults
            .iter()
            .any(|f| matches!(f, Fault::InterruptAfter { computed } if done >= *computed))
    }

    /// The lie seed for `cell`'s reported result, if planned.
    pub fn lie(&self, cell: usize) -> Option<u64> {
        self.faults.iter().find_map(|f| match f {
            Fault::Lie { cell: c, seed } if *c == cell => Some(*seed),
            _ => None,
        })
    }

    /// A plan in which the worker lies about *every* one of `cells`
    /// cells, with per-cell seeds derived from `seed`. Grid-test only:
    /// local campaigns have no audit layer to catch it.
    pub fn liar(seed: u64, cells: usize) -> FaultPlan {
        FaultPlan::new(
            (0..cells)
                .map(|cell| Fault::Lie {
                    cell,
                    seed: seed ^ cell as u64,
                })
                .collect(),
        )
    }
}

/// Perturbs one deterministically chosen numeric leaf of a JSON document
/// (object keys are canonically ordered, so "the `n`-th number" is well
/// defined). Returns `false` when the document holds no numbers.
pub fn corrupt_number(doc: &mut Value, seed: u64) -> bool {
    fn collect<'a>(v: &'a mut Value, out: &mut Vec<&'a mut Number>) {
        match v {
            Value::Number(n) => out.push(n),
            Value::Array(items) => items.iter_mut().for_each(|item| collect(item, out)),
            Value::Object(map) => map.values_mut().for_each(|item| collect(item, out)),
            Value::Null | Value::Bool(_) | Value::String(_) => {}
        }
    }
    let mut numbers = Vec::new();
    collect(doc, &mut numbers);
    if numbers.is_empty() {
        return false;
    }
    // splitmix64 finalizer, as FaultPlan::storm.
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    let pick = ((z ^ (z >> 31)) % numbers.len() as u64) as usize;
    *numbers[pick] = match *numbers[pick] {
        Number::U64(n) => Number::U64(n ^ 1),
        Number::I64(n) => Number::I64(n ^ 1),
        Number::F64(0.0) => Number::F64(1.0),
        Number::F64(n) => Number::F64(-n),
    };
    true
}

/// Applies a seeded lie to a serializable result: re-encodes it through
/// the JSON data model, corrupts one numeric field, and decodes it back.
/// Returns `false` (leaving the value untouched) when the document has
/// no numbers or the corrupted form no longer decodes.
pub fn lie_about<T: Serialize + Deserialize>(value: &mut T, seed: u64) -> bool {
    let mut doc = value.to_value();
    if !corrupt_number(&mut doc, seed) {
        return false;
    }
    match T::from_value(&doc) {
        Ok(corrupted) => {
            *value = corrupted;
            true
        }
        Err(_) => false,
    }
}

/// A `Write` sink whose every `write` fails after the first `ok_writes`
/// calls — for testing that telemetry IO failures never affect results.
#[derive(Debug)]
pub struct FailingWriter {
    ok_writes: usize,
    seen: usize,
}

impl FailingWriter {
    /// A writer that accepts `ok_writes` writes, then fails all later ones.
    pub fn after(ok_writes: usize) -> FailingWriter {
        FailingWriter { ok_writes, seen: 0 }
    }
}

impl std::io::Write for FailingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.seen += 1;
        if self.seen > self.ok_writes {
            Err(std::io::Error::other(
                "chaos: injected telemetry write failure",
            ))
        } else {
            Ok(buf.len())
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_faults_target_their_cell_and_attempt() {
        let plan = FaultPlan::new(vec![
            Fault::Panic {
                cell: 2,
                attempts: 1,
            },
            Fault::Stall {
                cell: 3,
                by: Duration::from_millis(50),
            },
        ]);
        assert!(plan.panic_message(2, 1).is_some());
        assert!(plan.panic_message(2, 2).is_none(), "only the first attempt");
        assert!(plan.panic_message(1, 1).is_none(), "wrong cell");
        assert_eq!(plan.stall(3), Some(Duration::from_millis(50)));
        assert_eq!(plan.stall(2), None);
    }

    #[test]
    fn store_io_errors_are_consumed_transiently() {
        let plan = FaultPlan::new(vec![Fault::StoreIoError { cell: 0, times: 2 }]);
        assert!(plan.take_store_io_error(0));
        assert!(plan.take_store_io_error(0));
        assert!(
            !plan.take_store_io_error(0),
            "budget exhausted: store succeeds"
        );
        assert!(!plan.take_store_io_error(1), "other cells unaffected");
    }

    #[test]
    fn interrupt_fires_at_the_planned_count() {
        let plan = FaultPlan::new(vec![Fault::InterruptAfter { computed: 2 }]);
        assert!(!plan.record_computed());
        assert!(plan.record_computed());
        assert!(plan.record_computed(), "stays raised after the threshold");
    }

    #[test]
    fn storm_is_a_pure_function_of_the_seed() {
        let a = FaultPlan::storm(7, 64);
        let b = FaultPlan::storm(7, 64);
        assert_eq!(a.faults(), b.faults());
        assert!(!a.is_empty(), "64 cells at ~1/4 density yields faults");
        let c = FaultPlan::storm(8, 64);
        assert_ne!(a.faults(), c.faults(), "different seed, different plan");
    }

    #[test]
    fn corrupt_number_is_a_deterministic_single_field_lie() {
        let doc = || serde_json::from_str::<Value>(r#"{"a": 3, "b": [1.5, {"c": 0.0}]}"#).unwrap();
        let (mut a, mut b) = (doc(), doc());
        assert!(corrupt_number(&mut a, 9));
        assert!(corrupt_number(&mut b, 9));
        assert_eq!(a, b, "same seed, same lie");
        assert_ne!(a, doc(), "the lie changes the document");
        let mut numberless = Value::String("x".to_string());
        assert!(!corrupt_number(&mut numberless, 1), "nothing to lie about");
    }

    #[test]
    fn liar_plan_targets_every_cell_with_derived_seeds() {
        let plan = FaultPlan::liar(42, 3);
        assert_eq!(plan.faults().len(), 3);
        for cell in 0..3 {
            assert_eq!(plan.lie(cell), Some(42 ^ cell as u64));
        }
        assert_eq!(plan.lie(3), None);
        assert_eq!(plan.panic_message(0, 1), None, "a liar never crashes");
    }

    #[test]
    fn failing_writer_fails_after_budget() {
        use std::io::Write;
        let mut w = FailingWriter::after(1);
        assert!(w.write(b"ok").is_ok());
        assert!(w.write(b"fails").is_err());
        assert!(w.flush().is_ok());
    }
}
