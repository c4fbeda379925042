//! Synthetic workloads for the MCD-DVFS simulator.
//!
//! The paper evaluates sixteen applications from MediaBench, Olden and
//! SPEC2000 (Table 2). Those binaries and reference inputs are not
//! reproducible here, so this crate provides the closest synthetic
//! equivalent: a small micro-op ISA ([`isa`]), per-benchmark statistical
//! profiles ([`profile`], [`suites`]) capturing the characteristics the
//! paper's analysis depends on (instruction mix, dependence density, cache
//! behaviour, branch predictability, and *phase structure*), and a
//! deterministic generator ([`generator`]) that expands a profile into a
//! reproducible dynamic instruction stream.
//!
//! # Example
//!
//! ```
//! use mcd_workload::{suites, WorkloadGenerator};
//!
//! let profile = suites::by_name("gcc").expect("known benchmark");
//! let mut generator = WorkloadGenerator::new(profile.clone(), 42);
//! let first = generator.next_instruction();
//! assert!(first.pc > 0);
//! ```

pub mod generator;
pub mod isa;
pub mod profile;
pub mod suites;
pub mod tape;

pub use generator::WorkloadGenerator;
pub use isa::{BranchInfo, Instruction, MemInfo, OpClass, Reg};
pub use profile::{BenchmarkProfile, Mix, PhaseSpec, Suite};
pub use tape::InstructionTape;
