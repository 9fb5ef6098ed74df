//! DDR3 timing explorer: why the paper's scheduling machinery exists.
//!
//! Demonstrates, with the raw memory model, the three effects the flow
//! LUT's DLU is built around: row hits vs row conflicts, bank
//! interleaving, and read/write turnaround (Figure 3).
//!
//! Run with: `cargo run --release --example ddr3_explorer`

use flowlut::ddr3::bus::{analytic_utilization, TurnaroundModel};
use flowlut::ddr3::{
    AddressMapping, ControllerConfig, Geometry, MemAddress, MemRequest, MemoryController,
    MemoryModel, TimingPreset,
};

fn drain_cycles(pattern: impl Fn(u64) -> MemAddress, n: u64) -> (u64, f64) {
    let geometry = Geometry::prototype_512mb();
    let mapping = AddressMapping::RowBankCol;
    let mut ctrl = MemoryController::new(ControllerConfig {
        timing: TimingPreset::Ddr3_1600.params(),
        geometry,
        refresh_enabled: false,
        queue_capacity: 64,
        ..ControllerConfig::default()
    });
    let mut issued = 0u64;
    let mut i = 0u64;
    while issued < n {
        let addr = mapping.compose(&geometry, pattern(i));
        if ctrl.enqueue(MemRequest::read(i, addr)).is_ok() {
            issued += 1;
            i += 1;
        } else {
            ctrl.tick();
        }
    }
    while !ctrl.is_drained() {
        ctrl.tick();
    }
    let hit_rate = ctrl.device().stats().row_hit_rate();
    (ctrl.now(), hit_rate)
}

fn main() {
    let n = 512;
    println!("== effect 1: row locality ({n} reads, DDR3-1600) ==");
    let (hit_cycles, hit_rate) = drain_cycles(
        |i| MemAddress {
            bank: 0,
            row: 0,
            col: (i % 128) as u32,
        },
        n,
    );
    println!(
        "  same row, same bank   : {hit_cycles:>6} cycles (row-hit rate {:.0}%)",
        hit_rate * 100.0
    );
    let (conflict_cycles, _) = drain_cycles(
        |i| MemAddress {
            bank: 0,
            row: (i % 16_384) as u32,
            col: 0,
        },
        n,
    );
    println!(
        "  new row, same bank    : {conflict_cycles:>6} cycles ({:.1}x slower: the tRC penalty)",
        conflict_cycles as f64 / hit_cycles as f64
    );

    println!("\n== effect 2: bank interleaving ==");
    let (interleaved_cycles, _) = drain_cycles(
        |i| MemAddress {
            bank: (i % 8) as u32,
            row: ((i / 8) % 16_384) as u32,
            col: 0,
        },
        n,
    );
    println!(
        "  new row, 8 banks      : {interleaved_cycles:>6} cycles ({:.1}x better than one bank)",
        conflict_cycles as f64 / interleaved_cycles as f64
    );
    println!("  -> this recovery is what the Bank Selector buys for random hashes");

    println!("\n== effect 3: read/write turnaround (Figure 3) ==");
    let timing = TimingPreset::Ddr3_1066E.params();
    let model = TurnaroundModel::default();
    for bursts in [1u32, 2, 5, 10, 20, 35] {
        let u = analytic_utilization(&timing, &model, bursts);
        println!(
            "  {bursts:>2} bursts per direction: {:>5.1}% DQ utilization",
            u * 100.0
        );
    }
    println!("  -> growing same-direction groups is what BWr_Gen + Mem Ctrl grouping buy");
}
