//! Per-flow state (the paper's "Flow State" block).
//!
//! The prototype stores 512 bits of per-flow information addressed by the
//! flow ID. [`FlowStateStore`] models the record store (NetFlow-style
//! counters). Records are stamped in system cycles only; exporters convert
//! with [`SimConfig::sys_period_ns`](crate::config::SimConfig::sys_period_ns).
//! Aging and pressure eviction walk the store incrementally through
//! [`FlowStateStore::scan_after`] on behalf of the simulator's
//! [`ExpiryPolicy`](crate::config::ExpiryPolicy) and
//! [`PressurePolicy`](crate::config::PressurePolicy).

use std::collections::BTreeMap;
use std::ops::Bound;

use flowlut_traffic::FlowKey;

use crate::fid::FlowId;

/// A NetFlow-style per-flow record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FlowRecord {
    /// Flow identity.
    pub key: FlowKey,
    /// System cycle of the first packet.
    pub first_touch_sys: u64,
    /// System cycle of the most recent packet — the recency stamp the
    /// TTL-expiry scan and pressure eviction compare against.
    pub last_touch_sys: u64,
    /// Packets observed.
    pub packets: u64,
    /// Layer-1 bytes observed.
    pub bytes: u64,
}

impl FlowRecord {
    /// Creates a record from the flow's first packet.
    pub fn first_packet(key: FlowKey, now_sys: u64, frame_bytes: u64) -> Self {
        FlowRecord {
            key,
            first_touch_sys: now_sys,
            last_touch_sys: now_sys,
            packets: 1,
            bytes: frame_bytes,
        }
    }

    /// Folds one more packet into the record.
    ///
    /// # Panics
    ///
    /// Panics (debug only) if time runs backwards.
    pub fn update(&mut self, now_sys: u64, frame_bytes: u64) {
        debug_assert!(now_sys >= self.last_touch_sys, "time ran backwards");
        self.last_touch_sys = now_sys;
        self.packets += 1;
        self.bytes += frame_bytes;
    }

    /// Flow duration so far, in system cycles.
    pub fn duration_sys(&self) -> u64 {
        self.last_touch_sys - self.first_touch_sys
    }
}

/// The per-flow record store, addressed by [`FlowId`].
///
/// Records live in a `BTreeMap` so iteration order is deterministic and
/// the incremental expiry/pressure scans can resume from a [`FlowId`]
/// cursor in O(log n) ([`FlowStateStore::scan_after`]). The ID space is
/// capacity-bounded (packed table/CAM locations), so cursors stay dense.
#[derive(Debug, Default)]
pub struct FlowStateStore {
    records: BTreeMap<FlowId, FlowRecord>,
}

impl FlowStateStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        FlowStateStore::default()
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no records are live.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records the packet that *created* flow `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` already has a record (the flow table must not remint
    /// a live ID — this guards invariant 2 of DESIGN.md).
    pub fn on_new_flow(&mut self, id: FlowId, key: FlowKey, now_sys: u64, frame_bytes: u64) {
        let prev = self
            .records
            .insert(id, FlowRecord::first_packet(key, now_sys, frame_bytes));
        assert!(prev.is_none(), "flow ID {id} reused while record live");
    }

    /// Installs a pre-existing record under a (possibly new) ID — the
    /// restore/rescale path, which must preserve the record's counters
    /// and timestamps instead of minting a fresh one.
    ///
    /// # Panics
    ///
    /// Panics if `id` already has a record, like
    /// [`on_new_flow`](Self::on_new_flow).
    pub fn adopt(&mut self, id: FlowId, record: FlowRecord) {
        let prev = self.records.insert(id, record);
        assert!(prev.is_none(), "flow ID {id} reused while record live");
    }

    /// Records a packet of an existing flow.
    ///
    /// # Panics
    ///
    /// Panics if `id` has no record (a hit on an ID that was never
    /// created means table and state store diverged).
    pub fn on_packet(&mut self, id: FlowId, now_sys: u64, frame_bytes: u64) {
        self.records
            .get_mut(&id)
            .unwrap_or_else(|| panic!("no record for {id}"))
            .update(now_sys, frame_bytes);
    }

    /// The record for `id`, if any.
    pub fn get(&self, id: FlowId) -> Option<&FlowRecord> {
        self.records.get(&id)
    }

    /// Removes and returns the record for `id`.
    pub fn remove(&mut self, id: FlowId) -> Option<FlowRecord> {
        self.records.remove(&id)
    }

    /// Iterates over live `(id, record)` pairs in ascending ID order.
    pub fn iter(&self) -> impl Iterator<Item = (FlowId, &FlowRecord)> {
        self.records.iter().map(|(&id, r)| (id, r))
    }

    /// One step of an incremental scan: up to `stride` records strictly
    /// after `cursor` (from the start when `cursor` is `None`), in ID
    /// order, plus the cursor to resume from. A returned cursor of
    /// `None` means the scan reached the end and should wrap around.
    pub fn scan_after(
        &self,
        cursor: Option<FlowId>,
        stride: usize,
    ) -> (Vec<(FlowId, FlowRecord)>, Option<FlowId>) {
        let mut out = Vec::new();
        let next = self.scan_after_into(cursor, stride, &mut out);
        (out, next)
    }

    /// [`scan_after`](Self::scan_after) into a caller-provided buffer
    /// (cleared and refilled), so per-cycle incremental scans reuse one
    /// allocation. Returns the cursor to resume from.
    pub fn scan_after_into(
        &self,
        cursor: Option<FlowId>,
        stride: usize,
        out: &mut Vec<(FlowId, FlowRecord)>,
    ) -> Option<FlowId> {
        let range = match cursor {
            Some(c) => self.records.range((Bound::Excluded(c), Bound::Unbounded)),
            None => self.records.range(..),
        };
        out.clear();
        out.extend(range.take(stride).map(|(&id, r)| (id, *r)));
        if out.len() < stride {
            None
        } else {
            out.last().map(|(id, _)| *id)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fid::Location;
    use flowlut_traffic::FiveTuple;

    fn key(i: u64) -> FlowKey {
        FlowKey::from(FiveTuple::from_index(i))
    }

    fn fid(i: u32) -> FlowId {
        FlowId::encode(Location::Cam(i), 2)
    }

    #[test]
    fn record_accumulates() {
        let mut r = FlowRecord::first_packet(key(1), 200, 72);
        r.update(400, 100);
        r.update(1000, 72);
        assert_eq!(r.packets, 3);
        assert_eq!(r.bytes, 244);
        assert_eq!(r.duration_sys(), 800);
        assert_eq!(r.last_touch_sys, 1000);
    }

    #[test]
    fn store_lifecycle() {
        let mut s = FlowStateStore::new();
        s.on_new_flow(fid(1), key(1), 0, 72);
        s.on_packet(fid(1), 2, 72);
        assert_eq!(s.get(fid(1)).unwrap().packets, 2);
        assert_eq!(s.get(fid(1)).unwrap().last_touch_sys, 2);
        assert_eq!(s.len(), 1);
        let r = s.remove(fid(1)).unwrap();
        assert_eq!(r.packets, 2);
        assert!(s.is_empty());
    }

    #[test]
    fn scan_after_walks_in_strides_and_signals_wraparound() {
        let mut s = FlowStateStore::new();
        for i in 0..7 {
            s.on_new_flow(fid(i), key(u64::from(i)), 0, 72);
        }
        let (batch, cur) = s.scan_after(None, 3);
        assert_eq!(
            batch.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![fid(0), fid(1), fid(2)]
        );
        assert_eq!(cur, Some(fid(2)));
        let (batch, cur) = s.scan_after(cur, 3);
        assert_eq!(
            batch.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![fid(3), fid(4), fid(5)]
        );
        let (batch, cur) = s.scan_after(cur, 3);
        assert_eq!(batch.len(), 1, "tail batch");
        assert_eq!(batch[0].0, fid(6));
        assert_eq!(cur, None, "end of keyspace wraps the cursor");
        let (batch, _) = s.scan_after(None, 100);
        assert_eq!(batch.len(), 7);
    }

    #[test]
    fn adopt_preserves_counters() {
        let mut s = FlowStateStore::new();
        let mut r = FlowRecord::first_packet(key(5), 20, 72);
        r.update(180, 1500);
        s.adopt(fid(5), r);
        let got = s.get(fid(5)).unwrap();
        assert_eq!(got.packets, 2);
        assert_eq!(got.bytes, 1572);
        assert_eq!(got.first_touch_sys, 20);
        assert_eq!(got.last_touch_sys, 180);
    }

    #[test]
    #[should_panic(expected = "reused while record live")]
    fn double_create_panics() {
        let mut s = FlowStateStore::new();
        s.on_new_flow(fid(1), key(1), 0, 72);
        s.on_new_flow(fid(1), key(2), 1, 72);
    }

    #[test]
    #[should_panic(expected = "no record for")]
    fn packet_for_unknown_id_panics() {
        let mut s = FlowStateStore::new();
        s.on_packet(fid(9), 0, 72);
    }
}
