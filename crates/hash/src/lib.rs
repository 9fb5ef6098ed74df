//! # flowlut-hash — hardware-style hash functions for flow keys
//!
//! The paper's lookup table hashes each packet's n-tuple with "two
//! pre-selected hash functions" to index its two memory halves. On FPGAs
//! the usual choices are CRC circuits and the H3 universal family (XOR of
//! key-bit-selected random words). This crate implements both, plus the
//! [`PairHasher`] — two independently seeded H3 functions — that yields
//! the two bucket indices the two-choice scheme needs.
//!
//! Hash *quality* matters for the reproduction: Table II(A) contrasts
//! "random hash" input against a crafted bank-increment pattern, and the
//! flow table's collision (CAM spill) rate depends on bucket-index
//! uniformity. The crate's tests pin avalanche and bucket uniformity of
//! both functions.
//!
//! ## Example
//!
//! ```
//! use flowlut_hash::{PairHasher, H3Hash};
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
#[cfg(test)]
mod quality;

pub use crc::Crc32;
pub use h3::H3Hash;
pub use pair::PairHasher;
