//! The micro-op instruction set executed by the simulator.
//!
//! The pipeline does not interpret real machine code; it executes a stream
//! of typed micro-ops carrying exactly the information the timing and power
//! models need: operation class (which determines the executing clock
//! domain, functional unit, and latency), register operands (which determine
//! data dependences), memory addresses (which determine cache behaviour),
//! and branch outcomes (which exercise the branch predictor).

use serde::{Deserialize, Serialize};

/// An architectural register.
///
/// Indices `0..32` are integer registers, `32..64` floating-point registers.
/// Index 31 is *not* hard-wired to zero — the generator simply never reuses
/// registers in a way that needs one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Reg(u8);

impl Reg {
    /// Number of integer architectural registers.
    pub const NUM_INT: u8 = 32;
    /// Number of floating-point architectural registers.
    pub const NUM_FP: u8 = 32;

    /// The `i`-th integer register.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 32`.
    pub fn int(i: u8) -> Reg {
        assert!(
            i < Self::NUM_INT,
            "integer register index out of range: {i}"
        );
        Reg(i)
    }

    /// The `i`-th floating-point register.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 32`.
    pub fn fp(i: u8) -> Reg {
        assert!(i < Self::NUM_FP, "fp register index out of range: {i}");
        Reg(Self::NUM_INT + i)
    }

    /// Flat index in `0..64`, usable as a rename-map key.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this is a floating-point register.
    pub fn is_fp(self) -> bool {
        self.0 >= Self::NUM_INT
    }
}

/// Operation classes, each mapping to one functional-unit type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpClass {
    /// Simple integer ALU operation (add, logic, shift, compare).
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide (unpipelined).
    IntDiv,
    /// Floating-point add/subtract/convert.
    FpAdd,
    /// Floating-point multiply.
    FpMul,
    /// Floating-point divide (unpipelined).
    FpDiv,
    /// Floating-point square root (unpipelined).
    FpSqrt,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional branch.
    Branch,
}

impl OpClass {
    /// All classes, in a stable order (used by mix tables).
    pub const ALL: [OpClass; 10] = [
        OpClass::IntAlu,
        OpClass::IntMul,
        OpClass::IntDiv,
        OpClass::FpAdd,
        OpClass::FpMul,
        OpClass::FpDiv,
        OpClass::FpSqrt,
        OpClass::Load,
        OpClass::Store,
        OpClass::Branch,
    ];

    /// Whether the op accesses memory.
    pub fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }

    /// Whether the op executes on floating-point units.
    pub fn is_fp(self) -> bool {
        matches!(
            self,
            OpClass::FpAdd | OpClass::FpMul | OpClass::FpDiv | OpClass::FpSqrt
        )
    }

    /// Whether the op is a control transfer.
    pub fn is_branch(self) -> bool {
        matches!(self, OpClass::Branch)
    }

    /// Whether the op writes a destination register.
    pub fn has_dest(self) -> bool {
        !matches!(self, OpClass::Store | OpClass::Branch)
    }
}

/// Branch-specific payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BranchInfo {
    /// The architectural outcome of this dynamic branch.
    pub taken: bool,
    /// Target PC if taken.
    pub target: u64,
}

/// Memory-op payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemInfo {
    /// Effective virtual address.
    pub addr: u64,
    /// Access size in bytes.
    pub size: u8,
}

/// One dynamic micro-op.
///
/// # Example
///
/// ```
/// use mcd_workload::{Instruction, OpClass, Reg};
///
/// let add = Instruction::alu(0x1000, OpClass::IntAlu, Some(Reg::int(1)), [Some(Reg::int(2)), None]);
/// assert!(add.op.has_dest());
/// assert!(!add.op.is_mem());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Instruction {
    /// Program counter of the op.
    pub pc: u64,
    /// Operation class.
    pub op: OpClass,
    /// Destination register, if the class writes one.
    pub dest: Option<Reg>,
    /// Up to two source registers.
    pub srcs: [Option<Reg>; 2],
    /// Memory payload for loads/stores.
    pub mem: Option<MemInfo>,
    /// Branch payload for branches.
    pub branch: Option<BranchInfo>,
}

impl Instruction {
    /// Builds a non-memory, non-branch op.
    ///
    /// # Panics
    ///
    /// Panics if `op` is a memory or branch class.
    pub fn alu(pc: u64, op: OpClass, dest: Option<Reg>, srcs: [Option<Reg>; 2]) -> Self {
        assert!(
            !op.is_mem() && !op.is_branch(),
            "use load/store/branch constructors"
        );
        Instruction {
            pc,
            op,
            dest,
            srcs,
            mem: None,
            branch: None,
        }
    }

    /// Builds a load.
    pub fn load(pc: u64, dest: Reg, addr_src: Option<Reg>, addr: u64) -> Self {
        Instruction {
            pc,
            op: OpClass::Load,
            dest: Some(dest),
            srcs: [addr_src, None],
            mem: Some(MemInfo { addr, size: 8 }),
            branch: None,
        }
    }

    /// Builds a store.
    pub fn store(pc: u64, data_src: Option<Reg>, addr_src: Option<Reg>, addr: u64) -> Self {
        Instruction {
            pc,
            op: OpClass::Store,
            dest: None,
            srcs: [data_src, addr_src],
            mem: Some(MemInfo { addr, size: 8 }),
            branch: None,
        }
    }

    /// Builds a conditional branch.
    pub fn branch(pc: u64, cond_src: Option<Reg>, taken: bool, target: u64) -> Self {
        Instruction {
            pc,
            op: OpClass::Branch,
            dest: None,
            srcs: [cond_src, None],
            mem: None,
            branch: Some(BranchInfo { taken, target }),
        }
    }

    /// Source registers that are actually present.
    pub fn sources(&self) -> impl Iterator<Item = Reg> + '_ {
        self.srcs.iter().flatten().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_indexing() {
        assert_eq!(Reg::int(0).index(), 0);
        assert_eq!(Reg::int(31).index(), 31);
        assert_eq!(Reg::fp(0).index(), 32);
        assert_eq!(Reg::fp(31).index(), 63);
        assert!(Reg::fp(3).is_fp());
        assert!(!Reg::int(3).is_fp());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn register_bounds_checked() {
        let _ = Reg::int(32);
    }

    #[test]
    fn opclass_predicates() {
        assert!(OpClass::Load.is_mem());
        assert!(OpClass::Store.is_mem());
        assert!(!OpClass::IntAlu.is_mem());
        assert!(OpClass::FpSqrt.is_fp());
        assert!(!OpClass::Load.is_fp());
        assert!(OpClass::Branch.is_branch());
        assert!(OpClass::Load.has_dest());
        assert!(!OpClass::Store.has_dest());
        assert!(!OpClass::Branch.has_dest());
    }

    #[test]
    fn constructors_fill_payloads() {
        let ld = Instruction::load(0x10, Reg::int(1), Some(Reg::int(2)), 0xdead);
        assert_eq!(ld.mem.expect("mem payload").addr, 0xdead);
        assert_eq!(ld.sources().count(), 1);

        let st = Instruction::store(0x14, Some(Reg::int(1)), Some(Reg::int(2)), 0xbeef);
        assert_eq!(st.sources().count(), 2);
        assert!(st.dest.is_none());

        let br = Instruction::branch(0x18, Some(Reg::int(3)), true, 0x8);
        assert!(br.branch.expect("branch payload").taken);
    }

    #[test]
    #[should_panic(expected = "use load/store/branch constructors")]
    fn alu_constructor_rejects_mem_class() {
        let _ = Instruction::alu(0, OpClass::Load, None, [None, None]);
    }
}
