//! # flowlut-hash — hardware-style hash functions for flow keys
//!
//! The paper's lookup table hashes each packet's n-tuple with "two
//! pre-selected hash functions" to index its two memory halves. On FPGAs
//! the usual choices are CRC circuits, the H3 universal family (XOR of
//! key-bit-selected random words), and — in NIC practice — the Toeplitz
//! RSS hash. This crate implements all three behind one object-safe
//! trait, plus the [`PairHasher`] — two independently seeded H3
//! functions — that yields the two bucket indices the two-choice scheme
//! needs.
//!
//! Hash *quality* matters for the reproduction: Table II(A) contrasts
//! "random hash" input against a crafted bank-increment pattern, and the
//! flow table's collision (CAM spill) rate depends on bucket-index
//! uniformity. The [`quality`] module provides the avalanche and
//! uniformity measurements the tests pin.
//!
//! ## Example
//!
//! ```
//! use flowlut_hash::{HashFunction, PairHasher, H3Hash};
//!
//! let pair = PairHasher::h3_pair(104, 7);
//! let key = [10, 0, 0, 1, 192, 168, 0, 1, 0x1F, 0x90, 0x00, 0x50, 6];
//! let (b1, b2) = pair.bucket_pair(&key, 1 << 20);
//! assert!(b1 < (1 << 20) && b2 < (1 << 20));
//! // The first function is the H3 instance seeded `2 * 7 + 1`.
//! assert_eq!(pair.hashes(&key).0, H3Hash::with_seed(104, 15).hash(&key));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod crc;
mod h3;
mod pair;
pub mod quality;
mod toeplitz;

pub use crc::Crc32;
pub use h3::H3Hash;
pub use pair::PairHasher;
pub use toeplitz::ToeplitzHash;

/// A 32-bit hardware hash function over byte-string keys.
///
/// Implementations are deterministic pure functions of the key (plus any
/// construction-time seed material), as a synthesized hash circuit is.
pub trait HashFunction: std::fmt::Debug + Send + Sync {
    /// Hashes `key` to 32 bits.
    fn hash(&self, key: &[u8]) -> u32;

    /// Reduces the hash to a bucket index in `0..buckets`.
    ///
    /// Uses the high-multiply range reduction (`(hash * buckets) >> 32`)
    /// rather than modulo: it is what FPGA designs do to avoid a divider,
    /// and it is bias-free for power-of-two bucket counts.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero.
    fn bucket(&self, key: &[u8], buckets: u32) -> u32 {
        assert!(buckets > 0, "bucket count must be non-zero");
        ((u64::from(self.hash(key)) * u64::from(buckets)) >> 32) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_is_object_safe() {
        let fns: Vec<Box<dyn HashFunction>> = vec![
            Box::new(Crc32::ieee()),
            Box::new(H3Hash::with_seed(64, 1)),
            Box::new(ToeplitzHash::with_seed(40, 2)),
        ];
        for f in &fns {
            let _ = f.hash(b"abc");
        }
    }

    #[test]
    fn bucket_reduction_in_range() {
        let f = Crc32::ieee();
        for buckets in [1u32, 2, 3, 7, 1024, u32::MAX] {
            for key in [&b"a"[..], b"bb", b"ccc"] {
                assert!(f.bucket(key, buckets) < buckets);
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_buckets_panics() {
        Crc32::ieee().bucket(b"x", 0);
    }
}
