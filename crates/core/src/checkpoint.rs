//! Consistent checkpoint/restore of the timed backends.
//!
//! A checkpoint is a hand-rolled little-endian byte stream (no external
//! serialization dependency) capturing everything that determines future
//! behaviour of a *quiescent* simulator: resident-flow placements,
//! per-flow records, cumulative statistics, the load-balancer PRNG
//! state, and the lifecycle-scan cursors. Memory-controller phase is
//! *canonicalized* rather than serialized: both the live instance (at
//! checkpoint time) and the restored instance rebuild fresh controllers
//! idle-ticked to the current cycle, so the two are in identical states
//! by construction and replay from a checkpoint is bit-identical —
//! `tests/checkpoint_restore.rs` pins exactly that.
//!
//! The format is versioned and guarded by magic bytes plus an FNV-1a
//! digest of the behaviour-relevant configuration, so restoring into a
//! mismatched configuration fails loudly instead of silently diverging.

use std::error::Error;
use std::fmt;

use flowlut_traffic::FlowKey;

use crate::fid::{Location, PathId};
use crate::flow_state::FlowRecord;
use crate::sim::SimStats;
use crate::table::TableConfig;

/// Checkpoint serialization or restore failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The pipeline still has staged, queued, or in-flight work; drain
    /// (and let internal write batches settle) before checkpointing.
    NotQuiescent {
        /// Descriptors still in the pipeline.
        in_pipeline: u64,
    },
    /// The byte stream does not start with the expected magic bytes.
    BadMagic,
    /// The byte stream's format version is not supported.
    BadVersion(u32),
    /// The restoring configuration differs from the checkpointed one
    /// (FNV-1a digests of the behaviour-relevant fields).
    ConfigMismatch {
        /// Digest of the configuration handed to restore.
        expected: u64,
        /// Digest recorded in the checkpoint.
        found: u64,
    },
    /// The byte stream ended early or carries trailing bytes.
    Truncated,
    /// A field failed validation during restore.
    Corrupt(&'static str),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::NotQuiescent { in_pipeline } => write!(
                f,
                "checkpoint requires a quiescent pipeline: {in_pipeline} descriptors in flight"
            ),
            CheckpointError::BadMagic => write!(f, "not a checkpoint: bad magic bytes"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint was taken under a different configuration \
                 (digest {found:#018x}, restoring config digests to {expected:#018x})"
            ),
            CheckpointError::Truncated => write!(f, "checkpoint byte stream truncated or padded"),
            CheckpointError::Corrupt(what) => write!(f, "corrupt checkpoint field: {what}"),
        }
    }
}

impl Error for CheckpointError {}

/// Little-endian byte-stream writer for checkpoint blobs.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes (length is *not* written; pair with
    /// [`put_u8`](Self::put_u8)/[`put_u64`](Self::put_u64) prefixes).
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Consumes the writer, returning the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian byte-stream reader for checkpoint blobs.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).ok_or(CheckpointError::Truncated)?;
        if end > self.buf.len() {
            return Err(CheckpointError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] at end of stream.
    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] at end of stream.
    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] at end of stream.
    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Asserts the stream was consumed exactly.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] if bytes remain.
    pub fn finish(&self) -> Result<(), CheckpointError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CheckpointError::Truncated)
        }
    }
}

/// Incremental FNV-1a (64-bit) digest, used to fingerprint the
/// behaviour-relevant configuration a checkpoint was taken under.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// Standard FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Folds raw bytes into the digest.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a `u64` (little-endian) into the digest.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// Serializes a [`FlowKey`] as `[len: u8][bytes]`.
pub fn write_key(w: &mut ByteWriter, key: &FlowKey) {
    let b = key.as_bytes();
    w.put_u8(b.len() as u8);
    w.put_bytes(b);
}

/// Reads a [`FlowKey`] written by [`write_key`].
///
/// # Errors
///
/// [`CheckpointError`] on truncation or an unrepresentable key.
pub fn read_key(r: &mut ByteReader<'_>) -> Result<FlowKey, CheckpointError> {
    let len = usize::from(r.u8()?);
    let bytes = r.take(len)?;
    FlowKey::new(bytes).map_err(|_| CheckpointError::Corrupt("flow key too long"))
}

const LOC_TAG_MEM_A: u8 = 0;
const LOC_TAG_MEM_B: u8 = 1;
const LOC_TAG_CAM: u8 = 2;

/// Serializes a table [`Location`].
pub fn write_location(w: &mut ByteWriter, loc: Location) {
    match loc {
        Location::Mem { path, bucket, slot } => {
            w.put_u8(match path {
                PathId::A => LOC_TAG_MEM_A,
                PathId::B => LOC_TAG_MEM_B,
            });
            w.put_u32(bucket);
            w.put_u8(slot);
        }
        Location::Cam(slot) => {
            w.put_u8(LOC_TAG_CAM);
            w.put_u32(slot);
        }
    }
}

/// Reads a [`Location`] written by [`write_location`], validated against
/// the table geometry (so a corrupt stream cannot panic downstream
/// encoders).
///
/// # Errors
///
/// [`CheckpointError`] on truncation or out-of-range indices.
pub fn read_location(
    r: &mut ByteReader<'_>,
    table: &TableConfig,
) -> Result<Location, CheckpointError> {
    match r.u8()? {
        tag @ (LOC_TAG_MEM_A | LOC_TAG_MEM_B) => {
            let bucket = r.u32()?;
            let slot = r.u8()?;
            if bucket >= table.buckets_per_mem {
                return Err(CheckpointError::Corrupt("bucket index out of range"));
            }
            if slot >= table.entries_per_bucket {
                return Err(CheckpointError::Corrupt("bucket slot out of range"));
            }
            let path = if tag == LOC_TAG_MEM_A {
                PathId::A
            } else {
                PathId::B
            };
            Ok(Location::Mem { path, bucket, slot })
        }
        LOC_TAG_CAM => {
            let slot = r.u32()?;
            if usize::try_from(slot)
                .ok()
                .is_none_or(|s| s >= table.cam_capacity)
            {
                return Err(CheckpointError::Corrupt("CAM slot out of range"));
            }
            Ok(Location::Cam(slot))
        }
        _ => Err(CheckpointError::Corrupt("unknown location tag")),
    }
}

/// Serializes a [`FlowRecord`].
pub fn write_record(w: &mut ByteWriter, r: &FlowRecord) {
    write_key(w, &r.key);
    w.put_u64(r.first_touch_sys);
    w.put_u64(r.last_touch_sys);
    w.put_u64(r.packets);
    w.put_u64(r.bytes);
}

/// Reads a [`FlowRecord`] written by [`write_record`].
///
/// # Errors
///
/// [`CheckpointError`] on truncation or a corrupt key.
pub fn read_record(r: &mut ByteReader<'_>) -> Result<FlowRecord, CheckpointError> {
    Ok(FlowRecord {
        key: read_key(r)?,
        first_touch_sys: r.u64()?,
        last_touch_sys: r.u64()?,
        packets: r.u64()?,
        bytes: r.u64()?,
    })
}

/// Serializes [`SimStats`], field by field in declaration order.
pub fn write_stats(w: &mut ByteWriter, s: &SimStats) {
    for v in [
        s.offered,
        s.admitted,
        s.completed,
        s.cam_hits,
        s.lu1_hits,
        s.lu2_hits,
        s.inserted_mem,
        s.inserted_cam,
        s.duplicate_races,
        s.drops,
        s.lu1_per_path[0],
        s.lu1_per_path[1],
        s.reads_issued,
        s.writes_issued,
        s.filter_hold_cycles,
        s.input_stall_cycles,
        s.same_key_holds,
        s.bwr_count_releases,
        s.bwr_timeout_releases,
        s.deletes,
        s.expired_ttl,
        s.pressure_evicted,
        s.total_latency_sys,
        s.max_latency_sys,
    ] {
        w.put_u64(v);
    }
}

/// Reads [`SimStats`] written by [`write_stats`].
///
/// # Errors
///
/// [`CheckpointError::Truncated`] at end of stream.
pub fn read_stats(r: &mut ByteReader<'_>) -> Result<SimStats, CheckpointError> {
    Ok(SimStats {
        offered: r.u64()?,
        admitted: r.u64()?,
        completed: r.u64()?,
        cam_hits: r.u64()?,
        lu1_hits: r.u64()?,
        lu2_hits: r.u64()?,
        inserted_mem: r.u64()?,
        inserted_cam: r.u64()?,
        duplicate_races: r.u64()?,
        drops: r.u64()?,
        lu1_per_path: {
            let a = r.u64()?;
            let b = r.u64()?;
            [a, b]
        },
        reads_issued: r.u64()?,
        writes_issued: r.u64()?,
        filter_hold_cycles: r.u64()?,
        input_stall_cycles: r.u64()?,
        same_key_holds: r.u64()?,
        bwr_count_releases: r.u64()?,
        bwr_timeout_releases: r.u64()?,
        deletes: r.u64()?,
        expired_ttl: r.u64()?,
        pressure_evicted: r.u64()?,
        total_latency_sys: r.u64()?,
        max_latency_sys: r.u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowlut_traffic::FiveTuple;

    #[test]
    fn byte_stream_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.take(3).unwrap(), &[1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_and_trailing_detected() {
        let mut w = ByteWriter::new();
        w.put_u32(1);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u64(), Err(CheckpointError::Truncated));
        let mut r = ByteReader::new(&bytes);
        r.u8().unwrap();
        assert_eq!(r.finish(), Err(CheckpointError::Truncated));
    }

    #[test]
    fn key_location_record_roundtrip() {
        let table = TableConfig::test_small();
        let key = FlowKey::from(FiveTuple::from_index(42));
        let locs = [
            Location::Mem {
                path: PathId::A,
                bucket: 3,
                slot: 1,
            },
            Location::Mem {
                path: PathId::B,
                bucket: 255,
                slot: 0,
            },
            Location::Cam(15),
        ];
        let mut rec = FlowRecord::first_packet(key, 100, 64);
        rec.update(180, 1500);
        let mut w = ByteWriter::new();
        write_key(&mut w, &key);
        for loc in locs {
            write_location(&mut w, loc);
        }
        write_record(&mut w, &rec);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(read_key(&mut r).unwrap(), key);
        for loc in locs {
            assert_eq!(read_location(&mut r, &table).unwrap(), loc);
        }
        assert_eq!(read_record(&mut r).unwrap(), rec);
        r.finish().unwrap();
    }

    #[test]
    fn out_of_range_locations_rejected() {
        let table = TableConfig::test_small();
        let cases = [
            Location::Mem {
                path: PathId::A,
                bucket: table.buckets_per_mem,
                slot: 0,
            },
            Location::Mem {
                path: PathId::B,
                bucket: 0,
                slot: table.entries_per_bucket,
            },
            Location::Cam(table.cam_capacity as u32),
        ];
        for loc in cases {
            let mut w = ByteWriter::new();
            write_location(&mut w, loc);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert!(
                matches!(
                    read_location(&mut r, &table),
                    Err(CheckpointError::Corrupt(_))
                ),
                "{loc:?} must be rejected"
            );
        }
    }

    #[test]
    fn stats_roundtrip_covers_every_field() {
        // Give every field a distinct value so a swapped read slot fails.
        let s = SimStats {
            offered: 1,
            admitted: 2,
            completed: 3,
            cam_hits: 4,
            lu1_hits: 5,
            lu2_hits: 6,
            inserted_mem: 7,
            inserted_cam: 8,
            duplicate_races: 9,
            drops: 10,
            lu1_per_path: [11, 12],
            reads_issued: 13,
            writes_issued: 14,
            filter_hold_cycles: 15,
            input_stall_cycles: 16,
            same_key_holds: 17,
            bwr_count_releases: 18,
            bwr_timeout_releases: 19,
            deletes: 20,
            expired_ttl: 21,
            pressure_evicted: 22,
            total_latency_sys: 23,
            max_latency_sys: 24,
        };
        let mut w = ByteWriter::new();
        write_stats(&mut w, &s);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 24 * 8);
        let mut r = ByteReader::new(&bytes);
        assert_eq!(read_stats(&mut r).unwrap(), s);
        r.finish().unwrap();
    }

    #[test]
    fn fnv_digest_is_stable_and_sensitive() {
        let mut a = Fnv64::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fnv64::new();
        b.write_u64(1);
        b.write_u64(2);
        assert_eq!(a.finish(), b.finish());
        let mut c = Fnv64::new();
        c.write_u64(2);
        c.write_u64(1);
        assert_ne!(a.finish(), c.finish(), "order-sensitive");
    }

    #[test]
    fn checkpoint_error_displays() {
        for (e, needle) in [
            (
                CheckpointError::NotQuiescent { in_pipeline: 3 },
                "quiescent",
            ),
            (CheckpointError::BadMagic, "magic"),
            (CheckpointError::BadVersion(9), "version 9"),
            (
                CheckpointError::ConfigMismatch {
                    expected: 1,
                    found: 2,
                },
                "different configuration",
            ),
            (CheckpointError::Truncated, "truncated"),
            (CheckpointError::Corrupt("bad slot"), "bad slot"),
        ] {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }
}
