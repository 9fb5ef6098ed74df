//! Property tests for the DDR3 model: address mapping bijectivity,
//! scheduling liveness, bus-model monotonicity, and completion ordering.

use proptest::prelude::*;

use flowlut_ddr3::bus::{analytic_utilization, TurnaroundModel};
use flowlut_ddr3::{
    AddressMapping, ControllerConfig, DramParams, Geometry, MemRequest, MemoryController,
    MemoryModel, SramParams, TimingPreset,
};

fn geometry_strategy() -> impl Strategy<Value = Geometry> {
    (1u32..=8, 1u32..=64, 1u32..=32).prop_map(|(banks, rows, cols)| Geometry {
        banks,
        rows,
        cols,
        bus_width_bits: 32,
        burst_length: 8,
    })
}

proptest! {
    /// Every mapping is a bijection over the full address space.
    #[test]
    fn mapping_bijective(g in geometry_strategy(), linear_seed in any::<u64>()) {
        for mapping in [
            AddressMapping::RowBankCol,
            AddressMapping::BankRowCol,
            AddressMapping::RowColBank,
        ] {
            let linear = linear_seed % g.total_bursts();
            let addr = mapping.decompose(&g, linear);
            prop_assert!(addr.bank < g.banks);
            prop_assert!(addr.row < g.rows);
            prop_assert!(addr.col < g.cols);
            prop_assert_eq!(mapping.compose(&g, addr), linear);
        }
    }

    /// The controller drains any request mix, with any mapping, any page
    /// policy and refresh on — liveness across the configuration space.
    #[test]
    fn scheduler_liveness(
        addrs in prop::collection::vec(any::<u64>(), 1..64),
        closed_page in any::<bool>(),
        group_limit in 1u32..32,
        cmd_interval in 1u64..5,
    ) {
        let g = Geometry::tiny();
        let mut ctrl = MemoryController::new(ControllerConfig {
            timing: TimingPreset::Ddr3_1333.params(),
            geometry: g,
            page_policy: if closed_page {
                flowlut_ddr3::PagePolicy::Closed
            } else {
                flowlut_ddr3::PagePolicy::Open
            },
            queue_capacity: 128,
            group_limit,
            cmd_interval,
            refresh_enabled: true,
            ..ControllerConfig::default()
        });
        let n = addrs.len();
        for (i, a) in addrs.into_iter().enumerate() {
            let addr = a % g.total_bursts();
            let req = if i % 3 == 0 {
                MemRequest::write(i as u64, addr, vec![i as u8; 32])
            } else {
                MemRequest::read(i as u64, addr)
            };
            ctrl.enqueue(req).unwrap();
        }
        let done = ctrl.drain(5_000_000);
        prop_assert_eq!(done.len(), n);
    }

    /// Same-bank completions preserve enqueue order (per-bank FIFO).
    #[test]
    fn same_bank_fifo(count in 2usize..32) {
        let g = Geometry::tiny();
        let mut ctrl = MemoryController::new(ControllerConfig {
            timing: TimingPreset::Ddr3_1066E.params(),
            geometry: g,
            queue_capacity: 64,
            refresh_enabled: false,
            ..ControllerConfig::default()
        });
        // All requests to bank 0 (RowBankCol: low linear addresses share
        // a bank only within one col-run; force with explicit compose).
        let mapping = AddressMapping::RowBankCol;
        for i in 0..count {
            let addr = mapping.compose(&g, flowlut_ddr3::MemAddress {
                bank: 0,
                row: (i % g.rows as usize) as u32,
                col: 0,
            });
            ctrl.enqueue(MemRequest::read(i as u64, addr)).unwrap();
        }
        let done = ctrl.drain(2_000_000);
        let ids: Vec<u64> = done.iter().map(|c| c.id).collect();
        prop_assert_eq!(ids, (0..count as u64).collect::<Vec<_>>());
    }

    /// DQ utilization is monotone in group size and bounded by 1, for any
    /// turnaround overheads.
    #[test]
    fn utilization_monotone(extra_rd2wr in 0u64..64, extra_wr2rd in 0u64..64) {
        let t = TimingPreset::Ddr3_1066E.params();
        let m = TurnaroundModel { extra_rd2wr, extra_wr2rd };
        let mut prev = 0.0;
        for n in 1..=40 {
            let u = analytic_utilization(&t, &m, n);
            prop_assert!(u > prev && u < 1.0);
            prev = u;
        }
    }

    /// Larger turnaround overheads never improve utilization.
    #[test]
    fn utilization_decreasing_in_overhead(n in 1u32..=35, extra in 0u64..32) {
        let t = TimingPreset::Ddr3_1600.params();
        let small = TurnaroundModel { extra_rd2wr: extra, extra_wr2rd: extra };
        let big = TurnaroundModel { extra_rd2wr: extra + 1, extra_wr2rd: extra + 1 };
        prop_assert!(
            analytic_utilization(&t, &small, n) > analytic_utilization(&t, &big, n)
        );
    }

    /// Perturbing a valid DRAM preset without breaking any ordering
    /// relation keeps it valid: validation accepts the whole consistent
    /// neighbourhood, not just the literal presets.
    #[test]
    fn consistent_dram_perturbation_stays_valid(
        hbm in any::<bool>(),
        ras_pad in 0u64..16,
        rp_pad in 0u64..8,
        rc_pad in 0u64..8,
        ccd_pad in 0u64..4,
        rrd_pad in 0u64..4,
        wtr_pad in 0u64..4,
        refi_pad in 0u64..512,
    ) {
        let mut p = if hbm { DramParams::hbm2_2gbps() } else { DramParams::ddr4_2400() };
        p.t_ras += ras_pad;
        p.t_rp += rp_pad;
        p.t_rc = p.t_ras + p.t_rp + rc_pad;
        p.t_ccd_l = p.t_ccd_s + ccd_pad;
        p.t_rrd_l = p.t_rrd_s + rrd_pad;
        p.t_wtr_l = p.t_wtr_s + wtr_pad;
        p.t_refi = p.t_rfc + 1 + refi_pad;
        prop_assert!(p.validate().is_ok());
    }

    /// Each inconsistent DRAM relation is rejected no matter how the
    /// rest of the parameter set is shifted.
    #[test]
    fn inconsistent_dram_params_rejected(
        violation in 0usize..6,
        hbm in any::<bool>(),
        pad in 1u64..64,
    ) {
        let mut p = if hbm { DramParams::hbm2_2gbps() } else { DramParams::ddr4_2400() };
        match violation {
            0 => p.t_ccd_l = p.t_ccd_s - 1,              // same-group CCD below cross-group
            1 => p.t_rc = p.t_ras + p.t_rp - pad.min(p.t_ras), // tRC too short for tRAS+tRP
            2 => p.cwl = p.cl + pad,                     // write latency above read latency
            3 => p.t_refi = p.t_rfc,                     // refresh interval swallowed by tRFC
            4 => p.t_rrd_l = p.t_rrd_s - 1,              // same-group RRD below cross-group
            _ => p.t_ccd_s = p.burst_cycles() - 1,       // column rate faster than the burst
        }
        prop_assert!(p.validate().is_err());
    }

    /// SRAM validation accepts any all-nonzero parameter set and
    /// rejects every single-field zeroing of it.
    #[test]
    fn sram_zeroed_field_rejected(
        tck_ps in 1u64..20_000,
        read_latency in 1u64..64,
        write_latency in 1u64..64,
        ports in 1u32..8,
        burst_shift in 0u32..4,
        total_shift in 10u32..30,
        zeroed in 0usize..6,
    ) {
        let valid = SramParams {
            tck_ps,
            read_latency,
            write_latency,
            ports,
            burst_bytes: 32usize << burst_shift,
            total_bursts: 1u64 << total_shift,
        };
        prop_assert!(valid.validate().is_ok());
        let mut broken = valid;
        match zeroed {
            0 => broken.tck_ps = 0,
            1 => broken.read_latency = 0,
            2 => broken.write_latency = 0,
            3 => broken.ports = 0,
            4 => broken.burst_bytes = 0,
            _ => broken.total_bursts = 0,
        }
        prop_assert!(broken.validate().is_err());
    }
}
