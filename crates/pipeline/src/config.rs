//! Pipeline configuration (Table 1 of the paper).

use serde::{Deserialize, Serialize};

use mcd_time::Femtos;
use mcd_uarch::{BranchPredictorConfig, CacheConfig, FuPoolConfig};
use mcd_workload::OpClass;

/// Structural and latency parameters of the simulated machine.
///
/// Defaults ([`PipelineConfig::alpha21264`]) reproduce Table 1: decode
/// width 4, issue width 6 (4 integer + 2 FP), retire width 11, 64 KB 2-way
/// L1 caches (2-cycle), 1 MB direct-mapped L2 (12-cycle), 80-entry ROB,
/// 20/15-entry integer/FP issue queues, 64-entry load/store queue, 72 + 72
/// physical registers, 7-cycle branch mispredict penalty.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Instructions fetched/decoded/renamed per front-end cycle.
    pub decode_width: usize,
    /// Integer-domain issue width.
    pub issue_width_int: usize,
    /// Floating-point-domain issue width.
    pub issue_width_fp: usize,
    /// Load/store-domain memory issue width (cache ports used per cycle).
    pub issue_width_mem: usize,
    /// Instructions retired per front-end cycle.
    pub retire_width: usize,
    /// Fetch-queue depth (fetch → dispatch decoupling inside the front end).
    pub fetch_queue: usize,
    /// Reorder-buffer entries.
    pub rob_size: usize,
    /// Integer issue-queue entries.
    pub iq_int: usize,
    /// Floating-point issue-queue entries.
    pub iq_fp: usize,
    /// Load/store queue entries.
    pub lsq_size: usize,
    /// Integer physical registers.
    pub phys_int: u16,
    /// Floating-point physical registers.
    pub phys_fp: u16,
    /// Branch mispredict penalty, in front-end cycles, charged after the
    /// resolving branch's outcome reaches the front end.
    pub mispredict_penalty: u64,
    /// L1 (I and D) access latency in owning-domain cycles.
    pub l1_latency: u64,
    /// L2 access latency in load/store-domain cycles.
    pub l2_latency: u64,
    /// Main-memory access latency (the external full-speed domain).
    pub mem_latency: Femtos,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// Branch predictor tables.
    pub bpred: BranchPredictorConfig,
    /// Functional-unit counts.
    pub fus: FuPoolConfig,
    /// Integer ALU latency (cycles).
    pub lat_int_alu: u64,
    /// Integer multiply latency (pipelined).
    pub lat_int_mul: u64,
    /// Integer divide latency (unpipelined).
    pub lat_int_div: u64,
    /// FP add latency (pipelined).
    pub lat_fp_add: u64,
    /// FP multiply latency (pipelined).
    pub lat_fp_mul: u64,
    /// FP divide latency (unpipelined).
    pub lat_fp_div: u64,
    /// FP square-root latency (unpipelined).
    pub lat_fp_sqrt: u64,
    /// Effective-address computation latency (integer domain).
    pub lat_agu: u64,
}

impl PipelineConfig {
    /// Table 1 of the paper (Alpha 21264-like).
    pub fn alpha21264() -> Self {
        PipelineConfig {
            decode_width: 4,
            issue_width_int: 4,
            issue_width_fp: 2,
            issue_width_mem: 2,
            retire_width: 11,
            fetch_queue: 8,
            rob_size: 80,
            iq_int: 20,
            iq_fp: 15,
            lsq_size: 64,
            phys_int: 72,
            phys_fp: 72,
            mispredict_penalty: 7,
            l1_latency: 2,
            l2_latency: 12,
            mem_latency: Femtos::from_nanos(80),
            l1d: CacheConfig::l1d_paper(),
            l1i: CacheConfig::l1i_paper(),
            l2: CacheConfig::l2_paper(),
            bpred: BranchPredictorConfig::paper(),
            fus: FuPoolConfig::paper(),
            lat_int_alu: 1,
            lat_int_mul: 7,
            lat_int_div: 20,
            lat_fp_add: 4,
            lat_fp_mul: 4,
            lat_fp_div: 16,
            lat_fp_sqrt: 30,
            lat_agu: 1,
        }
    }

    /// A small configuration for fast unit tests (narrow queues so that
    /// structural hazards are easy to provoke).
    pub fn tiny() -> Self {
        PipelineConfig {
            decode_width: 2,
            issue_width_int: 2,
            issue_width_fp: 1,
            issue_width_mem: 1,
            retire_width: 4,
            fetch_queue: 4,
            rob_size: 16,
            iq_int: 4,
            iq_fp: 4,
            lsq_size: 8,
            phys_int: 48,
            phys_fp: 48,
            ..PipelineConfig::alpha21264()
        }
    }

    /// Execution latency of an op class, in executing-domain cycles.
    pub fn latency(&self, op: OpClass) -> u64 {
        match op {
            OpClass::IntAlu | OpClass::Branch => self.lat_int_alu,
            OpClass::IntMul => self.lat_int_mul,
            OpClass::IntDiv => self.lat_int_div,
            OpClass::FpAdd => self.lat_fp_add,
            OpClass::FpMul => self.lat_fp_mul,
            OpClass::FpDiv => self.lat_fp_div,
            OpClass::FpSqrt => self.lat_fp_sqrt,
            // Memory-op latency is determined by the cache hierarchy.
            OpClass::Load | OpClass::Store => self.l1_latency,
        }
    }

    /// Whether an op class occupies its functional unit for its entire
    /// latency (unpipelined units).
    pub fn unpipelined(&self, op: OpClass) -> bool {
        matches!(op, OpClass::IntDiv | OpClass::FpDiv | OpClass::FpSqrt)
    }

    /// Validates structural invariants.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        let widths = [
            self.decode_width,
            self.retire_width,
            self.issue_width_int,
            self.issue_width_fp,
            self.issue_width_mem,
        ];
        if widths.contains(&0) {
            return Err("widths must be positive".into());
        }
        let queues = [
            self.fetch_queue,
            self.rob_size,
            self.iq_int,
            self.iq_fp,
            self.lsq_size,
        ];
        if queues.contains(&0) {
            return Err("queue sizes must be positive".into());
        }
        // The engine tracks issue-queue readiness one bit per entry in a u64.
        if self.iq_int > 64 || self.iq_fp > 64 {
            return Err("issue queues hold at most 64 entries".into());
        }
        let f = &self.fus;
        if [f.int_alu, f.int_muldiv, f.fp_alu, f.fp_muldiv, f.mem_ports].contains(&0) {
            return Err("functional-unit counts must be positive".into());
        }
        // A zero-cycle result would become ready inside the tick that
        // produced it, which the engine's issue order does not model.
        let latencies = [
            self.lat_int_alu,
            self.lat_int_mul,
            self.lat_int_div,
            self.lat_fp_add,
            self.lat_fp_mul,
            self.lat_fp_div,
            self.lat_fp_sqrt,
            self.lat_agu,
        ];
        if latencies.contains(&0) {
            return Err("execution latencies must be at least one cycle".into());
        }
        if self.phys_int <= 32 || self.phys_fp <= 32 {
            return Err("need more physical than architectural registers".into());
        }
        if self.rob_size < self.decode_width {
            return Err("ROB must hold at least one decode group".into());
        }
        Ok(())
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig::alpha21264()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table1_values() {
        let c = PipelineConfig::alpha21264();
        assert_eq!(c.decode_width, 4);
        assert_eq!(c.issue_width_int + c.issue_width_fp, 6);
        assert_eq!(c.retire_width, 11);
        assert_eq!(c.rob_size, 80);
        assert_eq!(c.iq_int, 20);
        assert_eq!(c.iq_fp, 15);
        assert_eq!(c.lsq_size, 64);
        assert_eq!(c.phys_int, 72);
        assert_eq!(c.phys_fp, 72);
        assert_eq!(c.mispredict_penalty, 7);
        assert_eq!(c.l1_latency, 2);
        assert_eq!(c.l2_latency, 12);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn latency_table() {
        let c = PipelineConfig::alpha21264();
        assert_eq!(c.latency(OpClass::IntAlu), 1);
        assert_eq!(c.latency(OpClass::FpAdd), 4);
        assert!(c.unpipelined(OpClass::IntDiv));
        assert!(!c.unpipelined(OpClass::IntMul));
    }

    #[test]
    fn tiny_config_is_valid() {
        assert!(PipelineConfig::tiny().validate().is_ok());
    }

    #[test]
    fn validation_rejects_too_few_phys_regs() {
        let mut c = PipelineConfig::alpha21264();
        c.phys_int = 32;
        assert!(c.validate().is_err());
    }

    /// One test per field `validate` must reject at `value`: each is a
    /// machine the engine cannot run (it deadlocks, a constructor asserts,
    /// or a result becomes ready inside its own tick).
    macro_rules! rejects {
        ($($name:ident: $($field:ident).+ = $value:expr;)*) => {$(
            #[test]
            fn $name() {
                let mut c = PipelineConfig::alpha21264();
                c.$($field).+ = $value;
                assert!(c.validate().is_err());
            }
        )*};
    }

    rejects! {
        validation_rejects_zero_fetch_queue: fetch_queue = 0;
        validation_rejects_zero_int_issue_width: issue_width_int = 0;
        validation_rejects_zero_fp_issue_width: issue_width_fp = 0;
        validation_rejects_zero_mem_issue_width: issue_width_mem = 0;
        validation_rejects_zero_int_alus: fus.int_alu = 0;
        validation_rejects_zero_int_muldiv_units: fus.int_muldiv = 0;
        validation_rejects_zero_fp_alus: fus.fp_alu = 0;
        validation_rejects_zero_fp_muldiv_units: fus.fp_muldiv = 0;
        validation_rejects_zero_mem_ports: fus.mem_ports = 0;
        validation_rejects_zero_int_alu_latency: lat_int_alu = 0;
        validation_rejects_zero_int_mul_latency: lat_int_mul = 0;
        validation_rejects_zero_int_div_latency: lat_int_div = 0;
        validation_rejects_zero_fp_add_latency: lat_fp_add = 0;
        validation_rejects_zero_fp_mul_latency: lat_fp_mul = 0;
        validation_rejects_zero_fp_div_latency: lat_fp_div = 0;
        validation_rejects_zero_fp_sqrt_latency: lat_fp_sqrt = 0;
        validation_rejects_zero_agu_latency: lat_agu = 0;
        validation_rejects_int_issue_queue_over_64: iq_int = 65;
        validation_rejects_fp_issue_queue_over_64: iq_fp = 65;
    }

    #[test]
    fn validation_accepts_64_entry_issue_queues() {
        let mut c = PipelineConfig::alpha21264();
        c.iq_int = 64;
        c.iq_fp = 64;
        assert!(c.validate().is_ok());
    }
}
