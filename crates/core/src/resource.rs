//! FPGA resource model — the Table I substitution.
//!
//! The paper's Table I reports Quartus fitter results for the prototype
//! on a Stratix V `5SGXEA7N2F45C2`: 31 006 ALMs (13 %), 2 604 288 block
//! memory bits (5 %), 39 664 registers, 2 PLLs and 2 DLLs. Without the
//! FPGA toolchain we cannot *synthesize*, but every one of those numbers
//! is an accounting of structures whose sizes the architecture
//! configuration determines: CAM width × depth, queue depths, bucket
//! width, dual-path duplication, and the two memory-controller IP cores.
//!
//! [`ResourceModel`] performs that accounting with per-component cost
//! formulas. The *constants* (ALMs per controller, per DLU, …) are
//! calibrated once against the prototype's published report — i.e. Table
//! I itself — so the value of the model is not the absolute total (which
//! is fitted) but how the totals *move* when the configuration changes:
//! CAM depth sweeps, wider tuples, deeper queues. The bench binary prints
//! model vs paper side by side, labelled as an estimate.

use crate::config::SimConfig;
use crate::table::TableConfig;

/// Per-block resource estimate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComponentCost {
    /// Adaptive logic modules.
    pub alms: u64,
    /// Block memory bits.
    pub memory_bits: u64,
    /// Registers.
    pub registers: u64,
}

impl ComponentCost {
    fn add(&mut self, other: ComponentCost) {
        self.alms += other.alms;
        self.memory_bits += other.memory_bits;
        self.registers += other.registers;
    }
}

/// A named line of the resource breakdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceLine {
    /// Component name as it would appear in a fitter report.
    pub component: String,
    /// Estimated cost.
    pub cost: ComponentCost,
}

/// The full resource estimate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceEstimate {
    /// Per-component lines.
    pub lines: Vec<ResourceLine>,
    /// Totals over all lines.
    pub total: ComponentCost,
    /// PLL count (one per external memory interface).
    pub plls: u32,
    /// DLL count (one per external memory interface).
    pub dlls: u32,
}

/// Stratix V 5SGXEA7N2F45C2 device capacities, for utilization
/// percentages.
pub mod stratix_v {
    /// ALMs on the 5SGXEA7N2F45C2.
    pub const ALMS: u64 = 234_720;
    /// Block memory bits (M20K) on the device.
    pub const MEMORY_BITS: u64 = 52_428_800;
}

/// Paper Table I values, for side-by-side reporting.
pub mod paper_table1 {
    /// "Logic utilization (in ALMs) 31,006 (13%)".
    pub const ALMS: u64 = 31_006;
    /// "Block memory bits 2,604,288 (5%)".
    pub const MEMORY_BITS: u64 = 2_604_288;
    /// "Total registers 39,664".
    pub const REGISTERS: u64 = 39_664;
    /// "Total PLLs 2".
    pub const PLLS: u32 = 2;
    /// "Total DLLs 2".
    pub const DLLS: u32 = 2;
}

/// Cost-model constants, calibrated against the prototype's fitter
/// report (see module docs). Public so ablations can adjust them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostConstants {
    /// ALMs per quarter-rate DDR3 controller (UniPhy-class IP).
    pub alms_per_controller: u64,
    /// Block memory bits per controller (data-path FIFOs, calibration).
    pub mem_bits_per_controller: u64,
    /// ALMs per DLU (bank selector + request filter + mem ctrl).
    pub alms_per_dlu: u64,
    /// ALMs per Flow Match comparator lane.
    pub alms_per_flow_match: u64,
    /// ALMs per update block (ReqArb + BWrGen).
    pub alms_per_updt: u64,
    /// ALMs for the sequencer/load balancer.
    pub alms_sequencer: u64,
    /// ALMs per CAM entry (match line + priority-encode share).
    pub alms_per_cam_entry: u64,
    /// Registers per ALM (pipeline density), in hundredths.
    pub regs_per_alm_x100: u64,
}

impl Default for CostConstants {
    fn default() -> Self {
        CostConstants {
            alms_per_controller: 6_900,
            mem_bits_per_controller: 1_190_000,
            alms_per_dlu: 2_400,
            alms_per_flow_match: 1_100,
            alms_per_updt: 850,
            alms_sequencer: 1_400,
            alms_per_cam_entry: 7,
            regs_per_alm_x100: 128,
        }
    }
}

/// The resource model.
#[derive(Debug, Clone, Default)]
pub struct ResourceModel {
    constants: CostConstants,
}

impl ResourceModel {
    /// A model with custom constants.
    pub fn with_constants(constants: CostConstants) -> Self {
        ResourceModel { constants }
    }

    /// Estimates the resources of a full dual-path flow LUT with the
    /// given simulator configuration.
    pub fn estimate(&self, cfg: &SimConfig) -> ResourceEstimate {
        let c = &self.constants;
        let t = &cfg.table;
        let key_bits = 8 * (t.entry_slot_bytes as u64 - 1);
        let mut lines = Vec::new();

        // Two DDR3 memory interfaces (controllers + PHY buffers).
        lines.push(ResourceLine {
            component: "DDR3 controllers (2x quarter-rate)".into(),
            cost: ComponentCost {
                alms: 2 * c.alms_per_controller,
                memory_bits: 2 * c.mem_bits_per_controller,
                registers: 0,
            },
        });

        // Overflow CAM: storage + match logic.
        let cam_bits = t.cam_capacity as u64 * (key_bits + 8);
        lines.push(ResourceLine {
            component: format!("overflow CAM ({} x {} b)", t.cam_capacity, key_bits),
            cost: ComponentCost {
                alms: t.cam_capacity as u64 * c.alms_per_cam_entry,
                memory_bits: cam_bits,
                registers: 0,
            },
        });

        // Per-path DLUs: bank queues + filter state.
        let req_width = 64u64; // request descriptor width in queue bits
        let bank_queue_bits =
            u64::from(cfg.memory.banks()) * cfg.dlu_queue_depth as u64 * req_width;
        lines.push(ResourceLine {
            component: "DLUs (2x: bank selector, request filter, mem ctrl)".into(),
            cost: ComponentCost {
                alms: 2 * c.alms_per_dlu,
                memory_bits: 2 * bank_queue_bits,
                registers: 0,
            },
        });

        // Flow match comparators: one bucket of entries compared per path.
        let bucket_bits = t.bucket_bytes() as u64 * 8;
        lines.push(ResourceLine {
            component: "Flow Match (2x comparator + bucket buffer)".into(),
            cost: ComponentCost {
                alms: 2 * c.alms_per_flow_match,
                memory_bits: 2 * bucket_bits * cfg.flow_match_buffers as u64,
                registers: 0,
            },
        });

        // Update blocks: ReqArb + BWrGen staging buffers.
        let bwr_bits = cfg.bwr_threshold as u64 * (bucket_bits + 32);
        lines.push(ResourceLine {
            component: "Updt (2x ReqArb + BWrGen)".into(),
            cost: ComponentCost {
                alms: 2 * c.alms_per_updt,
                memory_bits: 2 * bwr_bits,
                registers: 0,
            },
        });

        // Sequencer + load balancer + input queue.
        let seq_bits = cfg.sequencer_depth as u64 * (key_bits + 96);
        lines.push(ResourceLine {
            component: "Sequencer / load balancer".into(),
            cost: ComponentCost {
                alms: c.alms_sequencer,
                memory_bits: seq_bits,
                registers: 0,
            },
        });

        let mut total = ComponentCost::default();
        for l in &lines {
            total.add(l.cost);
        }
        total.registers = total.alms * c.regs_per_alm_x100 / 100;

        ResourceEstimate {
            lines,
            total,
            plls: 2,
            dlls: 2,
        }
    }

    /// Convenience: estimate for a bare table configuration with default
    /// simulator queue sizing.
    pub fn estimate_table(&self, table: TableConfig) -> ResourceEstimate {
        let cfg = SimConfig {
            table,
            ..SimConfig::default()
        };
        self.estimate(&cfg)
    }
}

impl ResourceEstimate {
    /// ALM utilization on the prototype device.
    pub fn alm_utilization(&self) -> f64 {
        self.total.alms as f64 / stratix_v::ALMS as f64
    }

    /// Block-memory utilization on the prototype device.
    pub fn memory_utilization(&self) -> f64 {
        self.total.memory_bits as f64 / stratix_v::MEMORY_BITS as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    #[test]
    fn default_config_lands_near_paper_table1() {
        let est = ResourceModel::default().estimate(&SimConfig::default());
        let alm_err =
            (est.total.alms as f64 - paper_table1::ALMS as f64).abs() / paper_table1::ALMS as f64;
        assert!(
            alm_err < 0.10,
            "ALM estimate {} vs paper {} ({:.1}% off)",
            est.total.alms,
            paper_table1::ALMS,
            100.0 * alm_err
        );
        let mem_err = (est.total.memory_bits as f64 - paper_table1::MEMORY_BITS as f64).abs()
            / paper_table1::MEMORY_BITS as f64;
        assert!(
            mem_err < 0.10,
            "memory estimate {} vs paper {} ({:.1}% off)",
            est.total.memory_bits,
            paper_table1::MEMORY_BITS,
            100.0 * mem_err
        );
        assert_eq!(est.plls, paper_table1::PLLS);
        assert_eq!(est.dlls, paper_table1::DLLS);
    }

    #[test]
    fn register_estimate_in_range() {
        let est = ResourceModel::default().estimate(&SimConfig::default());
        let err = (est.total.registers as f64 - paper_table1::REGISTERS as f64).abs()
            / paper_table1::REGISTERS as f64;
        assert!(
            err < 0.15,
            "registers {} vs paper {}",
            est.total.registers,
            paper_table1::REGISTERS
        );
    }

    #[test]
    fn bigger_cam_costs_more() {
        let model = ResourceModel::default();
        let small = model.estimate(&SimConfig::default());
        let mut cfg = SimConfig::default();
        cfg.table.cam_capacity *= 4;
        let big = model.estimate(&cfg);
        assert!(big.total.alms > small.total.alms);
        assert!(big.total.memory_bits > small.total.memory_bits);
    }

    #[test]
    fn dlu_bank_queues_follow_the_selected_memory() {
        // The DLU keeps one request queue per bank, so an HBM2 shard
        // (8 pseudo-channels x 16 banks) needs 16x the DDR3 queue bits.
        let dlu_bits = |memory| {
            let cfg = SimConfig {
                memory,
                ..SimConfig::default()
            };
            let est = ResourceModel::default().estimate(&cfg);
            let dlu = est.lines.iter().find(|l| l.component.starts_with("DLUs"));
            dlu.map(|l| l.cost.memory_bits).unwrap_or_default()
        };
        let per_bank = 2 * SimConfig::default().dlu_queue_depth as u64 * 64;
        let ddr3 = dlu_bits(flowlut_ddr3::MemoryKind::Ddr3.default_spec());
        let hbm2 = dlu_bits(flowlut_ddr3::MemoryKind::Hbm2.default_spec());
        assert_eq!(ddr3, 8 * per_bank);
        assert_eq!(hbm2, 8 * 16 * per_bank);
    }

    #[test]
    fn utilization_fractions_plausible() {
        let est = ResourceModel::default().estimate(&SimConfig::default());
        // Paper: 13% ALMs, 5% memory bits.
        assert!((est.alm_utilization() - 0.13).abs() < 0.03);
        assert!((est.memory_utilization() - 0.05).abs() < 0.02);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let est = ResourceModel::default().estimate(&SimConfig::default());
        let alms: u64 = est.lines.iter().map(|l| l.cost.alms).sum();
        let bits: u64 = est.lines.iter().map(|l| l.cost.memory_bits).sum();
        assert_eq!(alms, est.total.alms);
        assert_eq!(bits, est.total.memory_bits);
    }
}
