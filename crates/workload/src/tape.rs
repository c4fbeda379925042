//! A recorded prefix of a workload's instruction stream.
//!
//! The generator is a pure function of `(profile, seed)`, so every run of
//! the same program draws the same instructions. An [`InstructionTape`]
//! generates that prefix once; runs that share it read instructions by
//! index instead of regenerating them.

use crate::generator::WorkloadGenerator;
use crate::isa::Instruction;
use crate::profile::BenchmarkProfile;

/// The first [`InstructionTape::len`] instructions of one `(profile, seed)`
/// stream, plus the generator positioned just past them.
///
/// # Example
///
/// ```
/// use mcd_workload::{suites, InstructionTape, WorkloadGenerator};
///
/// let profile = suites::by_name("gcc").expect("known benchmark");
/// let mut tape = InstructionTape::new(profile.clone(), 3);
/// tape.record_to(100);
/// let mut live = WorkloadGenerator::new(profile, 3);
/// assert_eq!(tape.instructions(), &live.take_instructions(100)[..]);
/// // The rest of the stream continues exactly where the tape stops.
/// assert_eq!(tape.rest().next_instruction(), live.next_instruction());
/// ```
#[derive(Debug, Clone)]
pub struct InstructionTape {
    instructions: Vec<Instruction>,
    rest: WorkloadGenerator,
}

impl InstructionTape {
    /// An empty tape of `profile`'s stream under `seed`.
    pub fn new(profile: BenchmarkProfile, seed: u64) -> Self {
        InstructionTape {
            instructions: Vec::new(),
            rest: WorkloadGenerator::new(profile, seed),
        }
    }

    /// Extends the recording to at least `n` instructions.
    pub fn record_to(&mut self, n: usize) {
        let more = n.saturating_sub(self.instructions.len());
        self.instructions.reserve_exact(more);
        for _ in 0..more {
            self.instructions.push(self.rest.next_instruction());
        }
    }

    /// The recorded instructions, in stream order.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Instructions recorded.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// The profile being expanded.
    pub fn profile(&self) -> &BenchmarkProfile {
        self.rest.profile()
    }

    /// A generator that continues the stream after the last recorded
    /// instruction.
    pub fn rest(&self) -> WorkloadGenerator {
        self.rest.clone()
    }
}
