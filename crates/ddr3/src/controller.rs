//! Cycle-stepped DDR3 memory controller.
//!
//! The controller plays the role of the "DDR3 Controller" block in
//! Figure 4 of the paper (the prototype uses Altera's quarter-rate UniPhy
//! IP). It owns one [`Ddr3Device`] and schedules commands under these
//! policies:
//!
//! * **Per-bank FIFO queues.** Requests to the same bank complete in
//!   arrival order (which also makes same-address hazards impossible to
//!   reorder at this level); requests to *different* banks are freely
//!   interleaved — that is precisely the freedom the paper's Bank Selector
//!   exploits.
//! * **Open-page, row-hit-first.** Among bank-queue heads, a request whose
//!   row is already open wins over one that needs an activate.
//! * **Same-direction grouping.** The controller keeps issuing reads (or
//!   writes) while same-direction candidates exist, up to
//!   [`ControllerConfig::group_limit`], before paying the bus-turnaround
//!   penalty to switch — the behaviour Figure 3 of the paper motivates.
//! * **Quarter-rate turnaround overhead.** Real FPGA controllers insert
//!   extra bubbles on direction switches beyond the JEDEC minimum;
//!   [`ControllerConfig::turnaround_extra_rd2wr`]/`wr2rd` model this (see
//!   DESIGN.md "Calibration notes").
//! * **Refresh.** Every `tREFI` the controller drains to a precharged
//!   state and issues a REF, unless refresh is disabled.

use std::collections::VecDeque;

use crate::address::{AddressMapping, Geometry, MemAddress};
use crate::device::{Command, Ddr3Device};
use crate::error::EnqueueError;
use crate::model::{MemStats, MemoryModel};
use crate::stats::ControllerStats;
use crate::storage::SparseStorage;
use crate::timing::TimingParams;

/// Direction of a memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum AccessKind {
    /// Read one burst.
    Read,
    /// Write one burst.
    Write,
}

/// A burst-granular memory request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemRequest {
    /// Caller-chosen identifier returned with the [`Completion`].
    pub id: u64,
    /// Read or write.
    pub kind: AccessKind,
    /// Linear burst address (`0..geometry.total_bursts()`).
    pub addr: u64,
    /// Write payload; must be exactly one burst for writes, `None` for
    /// reads.
    pub data: Option<Vec<u8>>,
}

impl MemRequest {
    /// Creates a read request.
    pub fn read(id: u64, addr: u64) -> Self {
        MemRequest {
            id,
            kind: AccessKind::Read,
            addr,
            data: None,
        }
    }

    /// Creates a write request carrying one burst of data.
    pub fn write(id: u64, addr: u64, data: Vec<u8>) -> Self {
        MemRequest {
            id,
            kind: AccessKind::Write,
            addr,
            data: Some(data),
        }
    }
}

/// A finished request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// Identifier from the originating [`MemRequest`].
    pub id: u64,
    /// Read or write.
    pub kind: AccessKind,
    /// Linear burst address.
    pub addr: u64,
    /// Burst read data (reads only).
    pub data: Option<Vec<u8>>,
    /// Cycle the request entered the controller.
    pub enqueued_at: u64,
    /// Cycle the last data beat left the device.
    pub completed_at: u64,
}

impl Completion {
    /// Request latency in controller cycles.
    pub fn latency(&self) -> u64 {
        self.completed_at - self.enqueued_at
    }
}

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum PagePolicy {
    /// Leave rows open after access (amortises row activation for
    /// row-local streams). Default; matches the paper's design intent.
    #[default]
    Open,
    /// Auto-precharge after every column access.
    Closed,
}

/// Controller configuration.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Device timing parameters.
    pub timing: TimingParams,
    /// Device geometry.
    pub geometry: Geometry,
    /// Linear-address decomposition policy.
    pub mapping: AddressMapping,
    /// Row-buffer policy.
    pub page_policy: PagePolicy,
    /// Total queued-request capacity across banks; `enqueue` rejects
    /// beyond this (back-pressure).
    pub queue_capacity: usize,
    /// Maximum consecutive same-direction column commands before the
    /// scheduler will consider a direction switch even though more
    /// same-direction work is queued. Guards against starving the other
    /// direction.
    pub group_limit: u32,
    /// Extra command-bus cycles inserted on a read→write switch beyond
    /// the JEDEC minimum (quarter-rate controller bubble).
    pub turnaround_extra_rd2wr: u64,
    /// Extra command-bus cycles inserted on a write→read switch beyond
    /// the JEDEC minimum.
    pub turnaround_extra_wr2rd: u64,
    /// Periodic refresh every `tREFI` when `true`.
    pub refresh_enabled: bool,
    /// Minimum memory-clock cycles between consecutive commands.
    ///
    /// A full-rate controller issues one command per memory clock
    /// (`1`). FPGA quarter-rate controllers such as the Altera UniPhy IP
    /// the prototype uses sequence dependent commands at the *user*
    /// clock, one per user cycle — `4` at a 4:1 clock ratio. This cap is
    /// a first-order model of that command-issue bottleneck and is what
    /// pins the flow LUT's saturation throughput to the prototype's
    /// measured range (see DESIGN.md calibration notes).
    pub cmd_interval: u64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            timing: TimingParams::default(),
            geometry: Geometry::default(),
            mapping: AddressMapping::default(),
            page_policy: PagePolicy::default(),
            queue_capacity: 32,
            group_limit: 16,
            // Calibrated against Figure 3 of the paper; see DESIGN.md.
            turnaround_extra_rd2wr: 9,
            turnaround_extra_wr2rd: 10,
            refresh_enabled: true,
            cmd_interval: 1,
        }
    }
}

#[derive(Debug, Clone)]
struct QueuedReq {
    req: MemRequest,
    addr: MemAddress,
    enqueued_at: u64,
}

#[derive(Debug, Clone)]
struct InFlight {
    completion: Completion,
    done_at: u64,
}

/// The memory controller: wraps a [`Ddr3Device`] and a [`SparseStorage`]
/// and turns burst-granular requests into legal command streams.
#[derive(Debug)]
pub struct MemoryController {
    cfg: ControllerConfig,
    device: Ddr3Device,
    storage: SparseStorage,
    now: u64,
    queues: Vec<VecDeque<QueuedReq>>,
    queued: usize,
    in_flight: Vec<InFlight>,
    /// Direction of the last issued column command and the run length.
    last_dir: Option<AccessKind>,
    dir_run: u32,
    /// Extra turnaround fences (controller bubbles on top of JEDEC).
    read_extra_ok_at: u64,
    write_extra_ok_at: u64,
    next_refresh_due: u64,
    refresh_in_progress: bool,
    next_cmd_at: u64,
    stats: ControllerStats,
    last_progress: u64,
}

impl MemoryController {
    /// Creates a controller.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation (invalid timing or
    /// geometry, zero queue capacity).
    pub fn new(cfg: ControllerConfig) -> Self {
        cfg.timing.validate().expect("invalid timing");
        cfg.geometry.validate().expect("invalid geometry");
        assert!(cfg.queue_capacity > 0, "queue capacity must be non-zero");
        assert!(cfg.group_limit > 0, "group limit must be non-zero");
        assert!(cfg.cmd_interval > 0, "command interval must be non-zero");
        let device = Ddr3Device::new(cfg.timing, cfg.geometry);
        let storage = SparseStorage::new(cfg.geometry.burst_bytes());
        let banks = cfg.geometry.banks as usize;
        let t_refi = cfg.timing.t_refi;
        MemoryController {
            cfg,
            device,
            storage,
            now: 0,
            queues: (0..banks).map(|_| VecDeque::new()).collect(),
            queued: 0,
            in_flight: Vec::new(),
            last_dir: None,
            dir_run: 0,
            read_extra_ok_at: 0,
            write_extra_ok_at: 0,
            next_refresh_due: t_refi,
            refresh_in_progress: false,
            next_cmd_at: 0,
            stats: ControllerStats::default(),
            last_progress: 0,
        }
    }

    /// Configuration in force.
    #[inline]
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    /// The underlying device (for statistics).
    #[inline]
    pub fn device(&self) -> &Ddr3Device {
        &self.device
    }

    /// Controller statistics.
    #[inline]
    pub fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    fn collect_completions(&mut self) -> Vec<Completion> {
        let now = self.now;
        let mut done = Vec::new();
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].done_at <= now {
                let f = self.in_flight.swap_remove(i);
                match f.completion.kind {
                    AccessKind::Read => self.stats.reads_done += 1,
                    AccessKind::Write => self.stats.writes_done += 1,
                }
                let lat = f.completion.latency();
                self.stats.total_latency_cycles += lat;
                self.stats.max_latency_cycles = self.stats.max_latency_cycles.max(lat);
                done.push(f.completion);
            } else {
                i += 1;
            }
        }
        // Deliver in enqueue order for determinism.
        done.sort_by_key(|c| (c.enqueued_at, c.id));
        done
    }

    fn service_refresh(&mut self) {
        // Drain to all-banks-idle, then REF.
        if let Some(t) = self.device.refresh_legal_at() {
            if self.now >= t {
                self.device
                    .issue(self.now, Command::Refresh)
                    .expect("refresh legality checked");
                self.stats.refreshes += 1;
                self.next_refresh_due += self.cfg.timing.t_refi;
                self.refresh_in_progress = false;
                self.next_cmd_at = self.now + self.cfg.cmd_interval;
                self.last_progress = self.now;
            }
            return;
        }
        // Banks still open: precharge-all as soon as legal.
        let t = self.device.precharge_all_legal_at();
        if self.now >= t {
            self.device
                .issue(self.now, Command::PrechargeAll)
                .expect("precharge-all legality checked");
            self.next_cmd_at = self.now + self.cfg.cmd_interval;
            self.last_progress = self.now;
        }
    }

    /// Effective earliest issue time for a column command, including the
    /// controller's extra turnaround bubbles.
    fn column_legal_at(&self, kind: AccessKind, bank: u32, row: u32) -> Option<u64> {
        let base = match kind {
            AccessKind::Read => self.device.read_legal_at(bank, row)?,
            AccessKind::Write => self.device.write_legal_at(bank, row)?,
        };
        let extra = match kind {
            AccessKind::Read => self.read_extra_ok_at,
            AccessKind::Write => self.write_extra_ok_at,
        };
        Some(base.max(extra))
    }

    /// Attempts to issue one command this cycle. Returns `true` on issue.
    fn try_issue(&mut self) -> bool {
        if self.queued == 0 {
            return false;
        }
        let banks = self.queues.len();

        // Does any queue head want the direction we are currently running?
        let preferred_dir = match self.last_dir {
            Some(d) if self.dir_run < self.cfg.group_limit => Some(d),
            _ => None,
        };

        // Pass 1: column command for an already-open row, preferring the
        // current direction (grouping), then the other direction.
        let directions: [Option<AccessKind>; 2] = match preferred_dir {
            Some(d) => [Some(d), None],
            None => [None, None],
        };
        for want in directions.iter() {
            let mut best: Option<(u64, usize)> = None; // (enqueued_at, bank)
            for b in 0..banks {
                let Some(head) = self.queues[b].front() else {
                    continue;
                };
                if let Some(d) = want {
                    if head.req.kind != *d {
                        continue;
                    }
                }
                if let Some(t) = self.column_legal_at(head.req.kind, head.addr.bank, head.addr.row)
                {
                    if self.now >= t {
                        let key = head.enqueued_at;
                        if best.is_none_or(|(bk, _)| key < bk) {
                            best = Some((key, b));
                        }
                    }
                }
            }
            if let Some((_, b)) = best {
                self.issue_column_for(b);
                return true;
            }
            if want.is_none() {
                break; // second pass was already unconstrained
            }
        }

        // Pass 2: row management — activate idle banks or precharge
        // conflicting rows for queue heads.
        let mut best_act: Option<(u64, usize)> = None;
        let mut best_pre: Option<(u64, usize)> = None;
        for b in 0..banks {
            let Some(head) = self.queues[b].front() else {
                continue;
            };
            let bank = head.addr.bank;
            match self.device.bank(bank).open_row() {
                Some(row) if row == head.addr.row => {
                    // Column fences not yet satisfied; nothing to manage.
                }
                Some(_other) => {
                    let t = self.device.precharge_legal_at(bank);
                    if self.now >= t && best_pre.is_none_or(|(k, _)| head.enqueued_at < k) {
                        best_pre = Some((head.enqueued_at, b));
                    }
                }
                None => {
                    if let Some(t) = self.device.activate_legal_at(bank) {
                        if self.now >= t && best_act.is_none_or(|(k, _)| head.enqueued_at < k) {
                            best_act = Some((head.enqueued_at, b));
                        }
                    }
                }
            }
        }
        // Prefer activates (they start useful work) over precharges.
        if let Some((_, b)) = best_act {
            let head = self.queues[b].front().expect("checked above");
            let (bank, row) = (head.addr.bank, head.addr.row);
            self.device
                .issue(self.now, Command::Activate { bank, row })
                .expect("activate legality checked");
            self.device.stats_mut().row_misses += 1;
            return true;
        }
        if let Some((_, b)) = best_pre {
            let head = self.queues[b].front().expect("checked above");
            let bank = head.addr.bank;
            self.device
                .issue(self.now, Command::Precharge { bank })
                .expect("precharge legality checked");
            self.device.stats_mut().row_conflicts += 1;
            return true;
        }
        false
    }

    fn issue_column_for(&mut self, queue_idx: usize) {
        let q = self.queues[queue_idx]
            .pop_front()
            .expect("candidate selection guarantees a head");
        self.queued -= 1;
        let auto_precharge = matches!(self.cfg.page_policy, PagePolicy::Closed);
        let cmd = match q.req.kind {
            AccessKind::Read => Command::Read {
                bank: q.addr.bank,
                col: q.addr.col,
                auto_precharge,
            },
            AccessKind::Write => Command::Write {
                bank: q.addr.bank,
                col: q.addr.col,
                auto_precharge,
            },
        };
        let outcome = self
            .device
            .issue(self.now, cmd)
            .expect("column legality checked");
        self.device.stats_mut().row_hits += 1;

        // Apply data effects in command order.
        let data = match q.req.kind {
            AccessKind::Read => Some(self.storage.read_burst(q.req.addr)),
            AccessKind::Write => {
                let d = q.req.data.as_deref().expect("validated at enqueue");
                self.storage.write_burst(q.req.addr, d);
                None
            }
        };

        // Update direction run and extra-turnaround fences.
        let t = &self.cfg.timing;
        let burst = t.burst_cycles();
        match q.req.kind {
            AccessKind::Read => {
                self.write_extra_ok_at = self
                    .write_extra_ok_at
                    .max(self.now + (t.cl - t.cwl) + burst + 2 + self.cfg.turnaround_extra_rd2wr);
            }
            AccessKind::Write => {
                self.read_extra_ok_at = self
                    .read_extra_ok_at
                    .max(self.now + t.cwl + burst + t.t_wtr + self.cfg.turnaround_extra_wr2rd);
            }
        }
        match self.last_dir {
            Some(d) if d == q.req.kind => self.dir_run += 1,
            _ => {
                self.last_dir = Some(q.req.kind);
                self.dir_run = 1;
            }
        }

        let done_at = outcome.data_end.expect("column commands move data");
        self.in_flight.push(InFlight {
            completion: Completion {
                id: q.req.id,
                kind: q.req.kind,
                addr: q.req.addr,
                data,
                enqueued_at: q.enqueued_at,
                completed_at: done_at,
            },
            done_at,
        });
    }
}

impl MemoryModel for MemoryController {
    fn name(&self) -> &'static str {
        "ddr3"
    }

    #[inline]
    fn now(&self) -> u64 {
        self.now
    }

    /// # Panics
    ///
    /// Panics if the address is outside the geometry, if a write carries
    /// anything other than exactly one burst of data, or if a read
    /// carries data — these are caller bugs, not runtime conditions.
    fn enqueue(&mut self, req: MemRequest) -> Result<(), EnqueueError> {
        assert!(
            req.addr < self.cfg.geometry.total_bursts(),
            "address {} out of range",
            req.addr
        );
        match (req.kind, &req.data) {
            (AccessKind::Write, Some(d)) => assert_eq!(
                d.len(),
                self.cfg.geometry.burst_bytes(),
                "write payload must be exactly one burst"
            ),
            (AccessKind::Write, None) => panic!("write request without data"),
            (AccessKind::Read, Some(_)) => panic!("read request carries data"),
            (AccessKind::Read, None) => {}
        }
        if self.queued >= self.cfg.queue_capacity {
            self.stats.rejected += 1;
            return Err(EnqueueError {
                id: req.id,
                capacity: self.cfg.queue_capacity,
            });
        }
        let addr = self.cfg.mapping.decompose(&self.cfg.geometry, req.addr);
        self.queues[addr.bank as usize].push_back(QueuedReq {
            req,
            addr,
            enqueued_at: self.now,
        });
        self.queued += 1;
        self.stats.accepted += 1;
        Ok(())
    }

    /// At most one command issues per cycle (single command bus).
    ///
    /// # Panics
    ///
    /// Panics if the scheduler makes no progress for an implausibly long
    /// time while work is queued (a deadlock would otherwise hang the
    /// simulation silently).
    fn tick(&mut self) -> Vec<Completion> {
        self.now += 1;
        let done = self.collect_completions();

        if self.queued == 0 && self.in_flight.is_empty() {
            self.stats.idle_cycles += 1;
            self.last_progress = self.now;
        }

        if self.cfg.refresh_enabled
            && !self.refresh_in_progress
            && self.now >= self.next_refresh_due
        {
            self.refresh_in_progress = true;
        }

        let cmd_slot_open = self.now >= self.next_cmd_at;
        if self.refresh_in_progress {
            if cmd_slot_open {
                self.service_refresh();
            }
        } else if cmd_slot_open && self.try_issue() {
            self.next_cmd_at = self.now + self.cfg.cmd_interval;
            self.last_progress = self.now;
        } else if self.queued > 0 {
            self.stats.stall_cycles += 1;
            let limit = 20 * self.cfg.timing.t_rc + self.cfg.timing.t_rfc + self.cfg.timing.t_refi;
            assert!(
                self.now - self.last_progress < limit,
                "controller made no progress for {} cycles with {} requests queued: scheduler deadlock",
                self.now - self.last_progress,
                self.queued
            );
        }

        done
    }

    #[inline]
    fn queued_len(&self) -> usize {
        self.queued
    }

    #[inline]
    fn in_flight_len(&self) -> usize {
        self.in_flight.len()
    }

    fn storage(&self) -> &SparseStorage {
        &self.storage
    }

    fn storage_mut(&mut self) -> &mut SparseStorage {
        &mut self.storage
    }

    fn mem_stats(&self) -> MemStats {
        MemStats {
            controller: self.stats,
            device: *self.device.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::TimingPreset;

    fn small_cfg() -> ControllerConfig {
        ControllerConfig {
            timing: TimingPreset::Ddr3_1066E.params(),
            geometry: Geometry::tiny(),
            refresh_enabled: false,
            ..ControllerConfig::default()
        }
    }

    #[test]
    fn single_read_completes_with_zero_data() {
        let mut c = MemoryController::new(small_cfg());
        c.enqueue(MemRequest::read(7, 5)).unwrap();
        let done = c.drain(1000);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, 7);
        assert_eq!(done[0].data.as_deref(), Some(&[0u8; 32][..]));
        // Latency at least ACT + tRCD + CL + burst.
        let t = c.config().timing;
        assert!(done[0].latency() >= t.t_rcd + t.cl + t.burst_cycles());
    }

    #[test]
    fn write_then_read_same_address_returns_written_data() {
        let mut c = MemoryController::new(small_cfg());
        let payload = vec![0xAB; 32];
        c.enqueue(MemRequest::write(1, 9, payload.clone())).unwrap();
        c.enqueue(MemRequest::read(2, 9)).unwrap();
        let done = c.drain(2000);
        assert_eq!(done.len(), 2);
        let read = done.iter().find(|c| c.id == 2).unwrap();
        assert_eq!(read.data.as_deref(), Some(&payload[..]));
    }

    #[test]
    fn same_bank_requests_complete_in_order() {
        let mut c = MemoryController::new(small_cfg());
        // All to bank 0 (RowBankCol: same addresses within first cols run).
        for i in 0..8u64 {
            c.enqueue(MemRequest::read(i, i)).unwrap();
        }
        let done = c.drain(5000);
        let ids: Vec<u64> = done.iter().map(|c| c.id).collect();
        assert_eq!(ids, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn back_pressure_rejects_when_full() {
        let mut cfg = small_cfg();
        cfg.queue_capacity = 2;
        let mut c = MemoryController::new(cfg);
        c.enqueue(MemRequest::read(0, 0)).unwrap();
        c.enqueue(MemRequest::read(1, 1)).unwrap();
        let err = c.enqueue(MemRequest::read(2, 2)).unwrap_err();
        assert_eq!(err.capacity, 2);
        assert_eq!(c.stats().rejected, 1);
    }

    #[test]
    fn bank_interleaved_reads_faster_than_single_bank() {
        // 16 reads across 4 banks vs 16 reads to rows of one bank.
        let g = Geometry::tiny();
        let m = AddressMapping::RowBankCol;

        let mut interleaved = MemoryController::new(small_cfg());
        for i in 0..16u32 {
            let addr = m.compose(
                &g,
                MemAddress {
                    bank: i % 4,
                    row: i / 4,
                    col: 0,
                },
            );
            interleaved
                .enqueue(MemRequest::read(u64::from(i), addr))
                .unwrap();
        }
        interleaved.drain(100_000);
        let cycles_interleaved = interleaved.now();

        let mut single = MemoryController::new(small_cfg());
        for i in 0..16u32 {
            let addr = m.compose(
                &g,
                MemAddress {
                    bank: 0,
                    row: i, // force a row conflict every request
                    col: 0,
                },
            );
            single
                .enqueue(MemRequest::read(u64::from(i), addr))
                .unwrap();
        }
        single.drain(100_000);
        let cycles_single = single.now();

        assert!(
            cycles_interleaved * 2 < cycles_single,
            "bank interleaving should be at least 2x faster: {cycles_interleaved} vs {cycles_single}"
        );
    }

    #[test]
    fn row_hits_cheaper_than_row_conflicts() {
        let g = Geometry::tiny();
        let m = AddressMapping::RowBankCol;
        let mut hits = MemoryController::new(small_cfg());
        for i in 0..8u32 {
            let addr = m.compose(
                &g,
                MemAddress {
                    bank: 0,
                    row: 0,
                    col: i,
                },
            );
            hits.enqueue(MemRequest::read(u64::from(i), addr)).unwrap();
        }
        hits.drain(100_000);
        assert!(hits.device().stats().row_hit_rate() > 0.9);

        let mut conflicts = MemoryController::new(small_cfg());
        for i in 0..8u32 {
            let addr = m.compose(
                &g,
                MemAddress {
                    bank: 0,
                    row: i,
                    col: 0,
                },
            );
            conflicts
                .enqueue(MemRequest::read(u64::from(i), addr))
                .unwrap();
        }
        conflicts.drain(100_000);
        assert!(hits.now() < conflicts.now());
    }

    #[test]
    fn refresh_fires_when_enabled() {
        let mut cfg = small_cfg();
        cfg.refresh_enabled = true;
        let mut c = MemoryController::new(cfg);
        let t_refi = c.config().timing.t_refi;
        for _ in 0..(t_refi * 3) {
            c.tick();
        }
        assert!(c.stats().refreshes >= 2);
        // Device still usable after refreshes.
        c.enqueue(MemRequest::read(1, 0)).unwrap();
        let done = c.drain(10_000);
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn closed_page_policy_still_correct() {
        let mut cfg = small_cfg();
        cfg.page_policy = PagePolicy::Closed;
        let mut c = MemoryController::new(cfg);
        let payload = vec![0x5A; 32];
        c.enqueue(MemRequest::write(1, 3, payload.clone())).unwrap();
        c.enqueue(MemRequest::read(2, 3)).unwrap();
        let done = c.drain(5000);
        assert_eq!(done.len(), 2);
        assert_eq!(
            done.iter().find(|x| x.id == 2).unwrap().data.as_deref(),
            Some(&payload[..])
        );
    }

    #[test]
    fn grouping_reduces_turnarounds() {
        // Interleave read/write requests; grouped scheduling should issue
        // fewer direction switches than the request pattern implies.
        let mut cfg = small_cfg();
        cfg.group_limit = 16;
        cfg.queue_capacity = 64;
        let mut c = MemoryController::new(cfg);
        let g = Geometry::tiny();
        let m = AddressMapping::RowBankCol;
        let mut id = 0u64;
        for i in 0..16u32 {
            let addr = m.compose(
                &g,
                MemAddress {
                    bank: i % 4,
                    row: 0,
                    col: i / 4,
                },
            );
            c.enqueue(MemRequest::read(id, addr)).unwrap();
            id += 1;
            let waddr = m.compose(
                &g,
                MemAddress {
                    bank: i % 4,
                    row: 0,
                    col: 8 + i / 4,
                },
            );
            c.enqueue(MemRequest::write(id, waddr, vec![0; 32]))
                .unwrap();
            id += 1;
        }
        c.drain(1_000_000);
        let switches = c.device().stats().turnarounds;
        // 32 alternating requests would naively switch ~31 times. Grouping
        // (and the per-bank FIFO constraint) must do substantially better.
        assert!(
            switches <= 16,
            "expected grouped direction switches, got {switches}"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_address_panics() {
        let mut c = MemoryController::new(small_cfg());
        let max = c.config().geometry.total_bursts();
        let _ = c.enqueue(MemRequest::read(0, max));
    }

    #[test]
    #[should_panic(expected = "exactly one burst")]
    fn short_write_payload_panics() {
        let mut c = MemoryController::new(small_cfg());
        let _ = c.enqueue(MemRequest::write(0, 0, vec![0; 4]));
    }

    #[test]
    fn mean_latency_tracked() {
        let mut c = MemoryController::new(small_cfg());
        for i in 0..4 {
            c.enqueue(MemRequest::read(i, i)).unwrap();
        }
        c.drain(10_000);
        assert!(c.stats().mean_latency_cycles() > 0.0);
        assert!(c.stats().max_latency_cycles >= c.stats().mean_latency_cycles() as u64);
    }
}
