//! Record once, replay per run.
//!
//! Everything random about a run is a function of the seed, not of the
//! machine under test: the instruction stream depends only on
//! `(profile, seed)`, and each clock's jitter draws only on its clock seed
//! and jitter model. A [`Recording`] keeps both for one `(profile, seed)`
//! pair, and every pipeline built by [`Pipeline::replaying`] reads them
//! back instead of regenerating them, appending whatever draws it had to
//! make live. A replayed run's [`RunResult`](crate::RunResult) is
//! byte-identical to a plain run's.
//!
//! [`Pipeline::replaying`]: crate::Pipeline::replaying

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use mcd_time::{JitterModel, JitterTape};
use mcd_workload::{BenchmarkProfile, Instruction, InstructionTape, WorkloadGenerator};

/// The recorded instruction stream and clock-jitter draws of one
/// `(profile, seed)` pair, shared by every run replaying it.
///
/// Tapes grow on demand and live as long as the last handle (clones share
/// one recording). Runs of different machines may share a recording
/// freely; runs of another profile or seed may not.
///
/// # Example
///
/// ```
/// use mcd_pipeline::{simulate, MachineConfig, Pipeline, Recording, RunControl};
/// use mcd_workload::suites;
///
/// let profile = suites::by_name("gcc").expect("known benchmark");
/// let recording = Recording::new(&profile, 4);
/// for machine in [MachineConfig::baseline(4), MachineConfig::baseline_mcd(4)] {
///     let replayed =
///         Pipeline::replaying(machine.clone(), &recording).run(2_000, RunControl::default());
///     let plain = simulate(&machine, &profile, 2_000);
///     assert_eq!(
///         serde_json::to_string(&replayed).unwrap(),
///         serde_json::to_string(&plain).unwrap()
///     );
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Recording {
    seed: u64,
    tapes: Arc<Mutex<Tapes>>,
}

#[derive(Debug)]
struct Tapes {
    instructions: Arc<InstructionTape>,
    jitter: Vec<JitterTape>,
}

impl Recording {
    /// An empty recording of `profile`'s run inputs under `seed`; nothing
    /// is generated until a run needs it.
    pub fn new(profile: &BenchmarkProfile, seed: u64) -> Self {
        Recording {
            seed,
            tapes: Arc::new(Mutex::new(Tapes {
                instructions: Arc::new(InstructionTape::new(profile.clone(), seed)),
                jitter: Vec::new(),
            })),
        }
    }

    /// The seed whose inputs this recording holds.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Instructions recorded so far.
    pub fn instructions_recorded(&self) -> usize {
        self.lock().instructions.len()
    }

    /// Jitter draws recorded so far, over every clock stream.
    pub fn jitter_draws_recorded(&self) -> usize {
        self.lock().jitter.iter().map(JitterTape::len).sum()
    }

    fn lock(&self) -> MutexGuard<'_, Tapes> {
        // Tapes are only appended to under the lock, never left half
        // written, so a panic elsewhere cannot poison their contents.
        self.tapes.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The instruction tape, recorded to at least `n` instructions.
    pub(crate) fn instructions(&self, n: usize) -> Arc<InstructionTape> {
        let mut tapes = self.lock();
        if tapes.instructions.len() < n {
            Arc::make_mut(&mut tapes.instructions).record_to(n);
        }
        Arc::clone(&tapes.instructions)
    }

    /// Lends out the jitter tape of one clock stream (an empty one if the
    /// stream has not been recorded yet); [`Recording::give_back`] returns
    /// it.
    pub(crate) fn lend_jitter(&self, seed: u64, model: JitterModel) -> JitterTape {
        let mut tapes = self.lock();
        match tapes
            .jitter
            .iter()
            .position(|t| t.seed() == seed && t.model() == model)
        {
            Some(i) => tapes.jitter.swap_remove(i),
            None => JitterTape::new(seed, model),
        }
    }

    /// Returns a lent jitter tape, keeping the longer recording if the
    /// stream's tape came back twice.
    pub(crate) fn give_back(&self, tape: JitterTape) {
        let mut tapes = self.lock();
        match tapes
            .jitter
            .iter_mut()
            .find(|t| t.seed() == tape.seed() && t.model() == tape.model())
        {
            Some(held) if held.len() >= tape.len() => {}
            Some(held) => *held = tape,
            None => tapes.jitter.push(tape),
        }
    }
}

/// Where a pipeline's instructions come from.
#[derive(Debug)]
pub(crate) enum InstrSource {
    /// Generated on demand.
    Live(Box<WorkloadGenerator>),
    /// Read by index off a recording, then generated once it runs out.
    Tape {
        tape: Arc<InstructionTape>,
        pos: usize,
    },
}

impl InstrSource {
    /// The profile being expanded.
    pub(crate) fn profile(&self) -> &BenchmarkProfile {
        match self {
            InstrSource::Live(gen) => gen.profile(),
            InstrSource::Tape { tape, .. } => tape.profile(),
        }
    }

    /// The next instruction of the stream.
    #[inline]
    pub(crate) fn next(&mut self) -> Instruction {
        if let InstrSource::Tape { tape, pos } = self {
            if let Some(&instr) = tape.instructions().get(*pos) {
                *pos += 1;
                return instr;
            }
            *self = InstrSource::Live(Box::new(tape.rest()));
        }
        match self {
            InstrSource::Live(gen) => gen.next_instruction(),
            InstrSource::Tape { .. } => unreachable!("a spent tape turns live"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcd_workload::suites;

    #[test]
    fn a_spent_tape_continues_the_stream_live() {
        let profile = suites::by_name("art").expect("known benchmark");
        let recording = Recording::new(&profile, 9);
        let mut source = InstrSource::Tape {
            tape: recording.instructions(50),
            pos: 0,
        };
        let mut live = WorkloadGenerator::new(profile, 9);
        for _ in 0..120 {
            assert_eq!(source.next(), live.next_instruction());
        }
        assert!(matches!(source, InstrSource::Live(_)));
        assert_eq!(recording.instructions_recorded(), 50);
    }
}
