//! DQ-bus utilization models for Figure 3 of the paper.
//!
//! Figure 3 plots DQ bandwidth utilization against the number of
//! consecutive same-direction bursts when alternating groups of reads and
//! writes target the *same open row* (BL = 8, Micron DDR3-1066 `-187E`).
//! Growing the group from 1 to 35 bursts lifts utilization from ≈20 % to
//! ≈90 %, which is the entire motivation for the paper's burst-grouping
//! machinery (Mem Ctrl grouping, BWr_Gen write bursts).
//!
//! Two models are provided:
//!
//! * [`analytic_utilization`]: a closed-form expression
//!   `data / (data + turnaround)` per read-group/write-group period;
//! * [`simulate_utilization`]: the same experiment driven through the
//!   full [`MemoryController`] + [`crate::Ddr3Device`] stack.
//!
//! A unit test pins the two against each other; the `fig3` bench binary
//! prints both next to the paper's curve.

use crate::address::{AddressMapping, Geometry, MemAddress};
use crate::controller::{ControllerConfig, MemRequest, MemoryController, PagePolicy};
use crate::model::MemoryModel;
use crate::timing::TimingParams;

/// Per-direction-switch overhead in command-clock cycles, split into the
/// JEDEC-minimum part and the controller's extra bubble.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TurnaroundModel {
    /// Extra cycles on a read→write switch beyond the JEDEC minimum.
    pub extra_rd2wr: u64,
    /// Extra cycles on a write→read switch beyond the JEDEC minimum.
    pub extra_wr2rd: u64,
}

impl Default for TurnaroundModel {
    /// The calibration used throughout the reproduction (see DESIGN.md):
    /// a quarter-rate FPGA controller inserts ≈19 extra cycles per
    /// read/write round trip on top of the ≈13-cycle JEDEC minimum,
    /// matching the paper's measured 20 % utilization at one burst.
    fn default() -> Self {
        TurnaroundModel {
            extra_rd2wr: 9,
            extra_wr2rd: 10,
        }
    }
}

impl TurnaroundModel {
    /// DQ-bus idle cycles inserted by a read-group→write-group switch.
    ///
    /// Write data may start `(CL − CWL + burst + 2) + CWL` after the last
    /// read command, while the read data ends `CL + burst` after it — a
    /// 2-cycle JEDEC bus-turnaround gap, plus the controller bubble. The
    /// CL/CWL terms cancel, so the gap is timing-independent.
    pub fn rd2wr_gap(&self, _t: &TimingParams) -> u64 {
        2 + self.extra_rd2wr
    }

    /// DQ-bus idle cycles inserted by a write-group→read-group switch.
    pub fn wr2rd_gap(&self, t: &TimingParams) -> u64 {
        // Read command waits tWTR after write data ends; its data appears
        // CL later: idle gap = tWTR + CL plus the controller bubble.
        t.t_wtr + t.cl + self.extra_wr2rd
    }

    /// Total DQ idle cycles per read-group/write-group period.
    pub fn period_gap(&self, t: &TimingParams) -> u64 {
        self.rd2wr_gap(t) + self.wr2rd_gap(t)
    }
}

/// Closed-form DQ utilization for alternating groups of `bursts_per_group`
/// reads and `bursts_per_group` writes to one open row.
///
/// Utilization = `2·N·burst / (2·N·burst + period_gap)` where `N` is
/// `bursts_per_group` and `burst` is the per-burst bus occupancy
/// (4 cycles at BL8).
///
/// # Panics
///
/// Panics if `bursts_per_group` is zero.
pub fn analytic_utilization(
    timing: &TimingParams,
    model: &TurnaroundModel,
    bursts_per_group: u32,
) -> f64 {
    assert!(bursts_per_group > 0, "need at least one burst per group");
    let data = 2 * u64::from(bursts_per_group) * timing.burst_cycles();
    let gap = model.period_gap(timing);
    data as f64 / (data + gap) as f64
}

/// Measures DQ utilization by driving the simulated controller with
/// `periods` alternating groups of `bursts_per_group` reads and writes to
/// a single row.
///
/// Returns the fraction of elapsed cycles the DQ bus carried data between
/// the first and last data beat (steady state: ramp-in excluded by
/// measuring from the first completion).
///
/// # Panics
///
/// Panics if `bursts_per_group` is zero or `periods` is zero.
pub fn simulate_utilization(
    timing: TimingParams,
    model: TurnaroundModel,
    bursts_per_group: u32,
    periods: u32,
) -> f64 {
    assert!(bursts_per_group > 0 && periods > 0);
    let geometry = Geometry {
        banks: 8,
        rows: 64,
        // Enough distinct columns for one group of each direction.
        cols: (2 * bursts_per_group).next_power_of_two().max(16),
        bus_width_bits: 32,
        burst_length: timing.burst_length,
    };
    let total_requests = 2 * bursts_per_group as usize * periods as usize;
    let cfg = ControllerConfig {
        timing,
        geometry,
        mapping: AddressMapping::RowBankCol,
        page_policy: PagePolicy::Open,
        // All requests target one bank, so the per-bank FIFO preserves the
        // workload's own grouping exactly; the scheduler cannot regroup.
        group_limit: bursts_per_group,
        queue_capacity: total_requests,
        turnaround_extra_rd2wr: model.extra_rd2wr,
        turnaround_extra_wr2rd: model.extra_wr2rd,
        refresh_enabled: false,
        // Full-rate command issue: same-direction bursts then stream at
        // tCCD exactly as the closed-form model assumes.
        cmd_interval: 1,
    };
    let burst_bytes = geometry.burst_bytes();
    let mut ctrl = MemoryController::new(cfg);
    let mapping = AddressMapping::RowBankCol;

    let mut id = 0u64;
    for _period in 0..periods {
        // One group of reads then one group of writes, all to row 0 of
        // bank 0 — the Figure 3 configuration.
        for dir in 0..2u32 {
            for i in 0..bursts_per_group {
                let addr = mapping.compose(
                    &geometry,
                    MemAddress {
                        bank: 0,
                        row: 0,
                        col: (dir * bursts_per_group + i) % geometry.cols,
                    },
                );
                let req = if dir == 0 {
                    MemRequest::read(id, addr)
                } else {
                    MemRequest::write(id, addr, vec![0u8; burst_bytes])
                };
                id += 1;
                ctrl.enqueue(req).expect("queue sized for whole run");
            }
        }
    }

    let mut first_data: Option<u64> = None;
    let mut last_data = 0u64;
    while !ctrl.is_drained() {
        for c in ctrl.tick() {
            if first_data.is_none() {
                first_data = Some(c.completed_at);
            }
            last_data = last_data.max(c.completed_at);
        }
    }

    // Steady-state window: from the start of the first data burst to the
    // end of the last (excludes the one-off ACT + tRCD ramp-in).
    let start = first_data.expect("at least one completion") - timing.burst_cycles();
    let elapsed = last_data - start;
    let data_cycles = ctrl.device().stats().dq_busy_cycles;
    data_cycles as f64 / elapsed as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::TimingPreset;

    #[test]
    fn analytic_matches_paper_anchor_points() {
        let t = TimingPreset::Ddr3_1066E.params();
        let m = TurnaroundModel::default();
        // Paper Figure 3: ≈20 % at one burst, ≈90 % at 35 bursts.
        let u1 = analytic_utilization(&t, &m, 1);
        assert!((u1 - 0.20).abs() < 0.01, "u(1) = {u1}");
        let u35 = analytic_utilization(&t, &m, 35);
        assert!((u35 - 0.90).abs() < 0.02, "u(35) = {u35}");
    }

    #[test]
    fn analytic_is_monotonic() {
        let t = TimingPreset::Ddr3_1066E.params();
        let m = TurnaroundModel::default();
        let mut prev = 0.0;
        for n in 1..=35 {
            let u = analytic_utilization(&t, &m, n);
            assert!(u > prev);
            prev = u;
        }
        assert!(prev < 1.0);
    }

    #[test]
    fn zero_extra_overhead_is_jedec_floor() {
        let t = TimingPreset::Ddr3_1066E.params();
        let m = TurnaroundModel {
            extra_rd2wr: 0,
            extra_wr2rd: 0,
        };
        // JEDEC floor: gap = 2 + tWTR + CL = 13 cycles; u(1) = 8/21.
        let u1 = analytic_utilization(&t, &m, 1);
        assert!((u1 - 8.0 / 21.0).abs() < 1e-9);
    }

    #[test]
    fn simulated_tracks_analytic() {
        let t = TimingPreset::Ddr3_1066E.params();
        let m = TurnaroundModel::default();
        for n in [1u32, 2, 4, 8, 16] {
            let a = analytic_utilization(&t, &m, n);
            let s = simulate_utilization(t, m, n, 8);
            assert!(
                (a - s).abs() < 0.05,
                "n={n}: analytic {a:.3} vs simulated {s:.3}"
            );
        }
    }
}
