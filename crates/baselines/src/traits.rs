//! What the baselines share: every table implements the workspace-wide
//! [`FlowStore`]/[`FlowBackend`](flowlut_core::backend::FlowBackend)
//! traits directly. Its `insert` is an upsert — a membership probe, then
//! the table's private raw `place` — so one generic harness drives the
//! baselines, the paper's table and the timed simulators alike.

use flowlut_core::backend::{FlowStore, FullError};
use flowlut_traffic::FlowKey;

/// Builds the [`FullError`] for a rejected `key`, capturing the
/// structure's name and its occupancy at rejection time.
pub(crate) fn full_error(table: &dyn FlowStore, key: FlowKey) -> FullError {
    FullError {
        table: table.name(),
        key,
        occupancy: table.len(),
        capacity: table.capacity(),
    }
}

#[cfg(test)]
mod tests {
    use flowlut_core::backend::{FlowBackend, FlowStore};
    use flowlut_traffic::{FiveTuple, FlowKey};

    fn key(i: u64) -> FlowKey {
        FlowKey::from(FiveTuple::from_index(i))
    }

    #[test]
    fn error_display_carries_context() {
        let mut t = crate::SingleHashTable::new(1, 1, 7);
        t.insert(key(0)).unwrap();
        let e = t.insert(key(1)).unwrap_err();
        assert_eq!(e.key, key(1));
        assert_eq!(e.occupancy, 1);
        assert_eq!(e.capacity, 1);
        let s = e.to_string();
        assert!(s.contains("single-hash"), "{s}");
        assert!(s.contains("1/1"), "{s}");
    }

    #[test]
    fn store_view_is_upsert() {
        let mut t = crate::CuckooTable::new(64, 1, 50, 7);
        let b: &mut dyn FlowBackend = &mut t;
        assert!(b.insert(key(9)).unwrap());
        assert!(!b.insert(key(9)).unwrap(), "second insert is a no-op");
        assert_eq!(b.len(), 1);
        assert!(b.as_pipeline().is_none(), "baselines are untimed");
        assert!(b.remove(&key(9)));
        assert!(b.is_empty());
    }

    #[test]
    fn every_baseline_is_a_backend() {
        let backends: Vec<Box<dyn FlowBackend>> = vec![
            Box::new(crate::SingleHashTable::new(64, 2, 7)),
            Box::new(crate::DLeftTable::new(2, 32, 2, 7)),
            Box::new(crate::CuckooTable::new(64, 1, 50, 7)),
            Box::new(crate::OneMoveTable::new(2, 32, 2, 8, 7)),
            Box::new(crate::BloomCamTable::new(120, 8, 7)),
            Box::new(crate::SimultaneousHashCam::new(32, 2, 8, 7)),
        ];
        for mut b in backends {
            assert!(b.insert(key(1)).unwrap(), "{}", b.name());
            assert!(b.contains(&key(1)), "{}", b.name());
            let s = b.op_stats();
            assert!(s.lookups > 0 || s.inserts > 0, "{}", b.name());
        }
    }
}
