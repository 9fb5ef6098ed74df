//! The H3 universal hash family.
//!
//! H3 hashes a `w`-bit key by XOR-ing together a random 32-bit word for
//! every set key bit: `h(x) = ⊕ { q[i] : x[i] = 1 }`. In hardware this is
//! a pure XOR tree — single-cycle, trivially pipelined — which makes H3
//! the textbook choice for FPGA hash tables and the natural reading of
//! the paper's "two pre-selected hash functions". Choosing independent
//! `q` matrices yields the independent functions the two-choice table
//! needs.
//!
//! The host model evaluates the XOR tree nibble-sliced: by GF(2)
//! linearity `h(x)` is the XOR over key nibbles of `h(nibble placed at
//! its offset)`, so one precomputed 16-entry table per 4 key bits turns
//! the per-bit walk into two table loads per key byte, bit-identical to
//! the matrix definition.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An H3 universal hash over keys of at most `key_bits` bits.
///
/// Keys shorter than `key_bits` are treated as zero-padded (XOR of
/// nothing); keys longer than `key_bits` are rejected — the matrix is a
/// synthesized circuit of fixed width, exactly as on an FPGA.
#[derive(Debug, Clone)]
pub struct H3Hash {
    /// One random word per key bit.
    matrix: Vec<u32>,
    /// Per whole key byte, the XOR of `matrix` rows selected by every
    /// value of its low (`[0]`) and high (`[1]`) nibble.
    nibbles: Vec<[[u32; 16]; 2]>,
    seed: u64,
}

impl H3Hash {
    /// Builds an H3 function for keys up to `key_bits` bits, with matrix
    /// entries drawn from a deterministic RNG seeded with `seed`.
    ///
    /// The matrix is *screened*, mirroring the paper's "pre-selected"
    /// functions: a uniformly random GF(2) matrix can project
    /// rank-deficiently onto the high output bits that multiply-shift
    /// bucket reduction consumes, which silently halves (or worse) the
    /// bucket space for structured keys — sequential IPs and ports are
    /// exactly what flow tables see. Candidate matrices are redrawn
    /// deterministically until every byte-aligned window of key bits
    /// spans the top output bits with full rank. Construction stays a
    /// pure function of `(key_bits, seed)`.
    ///
    /// # Panics
    ///
    /// Panics if `key_bits` is zero.
    pub fn with_seed(key_bits: usize, seed: u64) -> Self {
        assert!(key_bits > 0, "key width must be non-zero");
        let mut matrix = Vec::new();
        for attempt in 0..Self::MAX_SCREEN_ATTEMPTS {
            let mut rng = StdRng::seed_from_u64(seed ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            matrix = (0..key_bits).map(|_| rng.gen()).collect();
            if Self::screen(&matrix) {
                break;
            }
        }
        let nibbles = Self::nibble_tables(&matrix);
        H3Hash {
            matrix,
            nibbles,
            seed,
        }
    }

    /// One pair of 16-entry tables per whole key byte of `matrix`: entry
    /// `n` of table `h` is the XOR of the rows for the set bits of `n`
    /// shifted to bit offset `8 * byte + 4 * h`.
    fn nibble_tables(matrix: &[u32]) -> Vec<[[u32; 16]; 2]> {
        matrix
            .chunks_exact(8)
            .map(|rows| {
                let mut tables = [[0u32; 16]; 2];
                for (table, rows) in tables.iter_mut().zip(rows.chunks_exact(4)) {
                    // Entries with bit `i` set are the entries below `2^i`
                    // XOR row `i`.
                    for (i, &row) in rows.iter().enumerate() {
                        let (below, above) = table.split_at_mut(1 << i);
                        for (hi, lo) in above.iter_mut().zip(below.iter()) {
                            *hi = lo ^ row;
                        }
                    }
                }
                tables
            })
            .collect()
    }

    const MAX_SCREEN_ATTEMPTS: u64 = 64;

    /// Number of high output bits whose coverage is screened (the bits
    /// bucket reduction uses for tables up to 2^10 buckets).
    const SCREEN_BITS: u32 = 10;

    /// Accepts a matrix iff every byte-aligned window of 16 key bits
    /// projects onto the top [`Self::SCREEN_BITS`] output bits with the
    /// maximum possible rank, so structured keys that vary in any
    /// contiguous low-bit field spread over all buckets.
    fn screen(matrix: &[u32]) -> bool {
        let window = 16.min(matrix.len());
        let mut start = 0;
        loop {
            let rows = &matrix[start..(start + window).min(matrix.len())];
            let want = (rows.len() as u32).min(Self::SCREEN_BITS);
            if Self::projected_rank(rows) < want {
                return false;
            }
            if start + window >= matrix.len() {
                return true;
            }
            start += 8;
        }
    }

    /// Rank over GF(2) of `rows` projected onto the top
    /// [`Self::SCREEN_BITS`] bits.
    fn projected_rank(rows: &[u32]) -> u32 {
        let mut basis = [0u32; Self::SCREEN_BITS as usize];
        let mut rank = 0;
        for &row in rows {
            if rank == Self::SCREEN_BITS {
                break; // full rank: the remaining rows cannot raise it
            }
            let mut v = row >> (32 - Self::SCREEN_BITS);
            while v != 0 {
                let lead = (31 - v.leading_zeros()) as usize;
                if basis[lead] == 0 {
                    basis[lead] = v;
                    rank += 1;
                    break;
                }
                v ^= basis[lead];
            }
        }
        rank
    }

    /// Maximum key width in bits.
    pub fn key_bits(&self) -> usize {
        self.matrix.len()
    }

    /// The seed the matrix was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Hashes `key` to 32 bits.
    ///
    /// # Panics
    ///
    /// Panics if `key.len() * 8 > key_bits()` — the circuit has no inputs
    /// for the extra bits, and truncating silently would corrupt flow
    /// identity.
    pub fn hash(&self, key: &[u8]) -> u32 {
        assert!(
            key.len() * 8 <= self.matrix.len(),
            "key of {} bits exceeds H3 circuit width {}",
            key.len() * 8,
            self.matrix.len()
        );
        self.nibbles.iter().zip(key).fold(0, |acc, (t, &b)| {
            acc ^ t[0][usize::from(b & 0xF)] ^ t[1][usize::from(b >> 4)]
        })
    }

    /// Reduces the hash of `key` to a bucket index in `0..buckets`.
    ///
    /// Uses the high-multiply range reduction (`(hash * buckets) >> 32`)
    /// rather than modulo: it is what FPGA designs do to avoid a divider,
    /// and it is bias-free for power-of-two bucket counts.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero, or as [`H3Hash::hash`] does.
    pub fn bucket(&self, key: &[u8], buckets: u32) -> u32 {
        assert!(buckets > 0, "bucket count must be non-zero");
        ((u64::from(self.hash(key)) * u64::from(buckets)) >> 32) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The matrix definition evaluated bit by bit: the reference the
    /// sliced tables must reproduce.
    fn bit_serial(h: &H3Hash, key: &[u8]) -> u32 {
        let mut acc = 0u32;
        for (byte_idx, &byte) in key.iter().enumerate() {
            let mut b = byte;
            let mut bit_idx = byte_idx * 8;
            while b != 0 {
                if b & 1 != 0 {
                    acc ^= h.matrix[bit_idx];
                }
                b >>= 1;
                bit_idx += 1;
            }
        }
        acc
    }

    #[test]
    fn sliced_matches_bit_serial() {
        let mut rng = StdRng::seed_from_u64(0x51_1CED);
        for key_bits in [8, 16, 104, 120, 504] {
            let h = H3Hash::with_seed(key_bits, key_bits as u64);
            for len in 0..=key_bits / 8 {
                for _ in 0..32 {
                    let key: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                    assert_eq!(
                        h.hash(&key),
                        bit_serial(&h, &key),
                        "{key_bits} bits, {key:?}"
                    );
                }
            }
            // Every single-bit key picks out exactly its matrix row.
            for bit in 0..key_bits / 8 * 8 {
                let mut key = vec![0u8; key_bits / 8];
                key[bit / 8] = 1 << (bit % 8);
                assert_eq!(h.hash(&key), h.matrix[bit]);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = H3Hash::with_seed(64, 42);
        let b = H3Hash::with_seed(64, 42);
        let c = H3Hash::with_seed(64, 43);
        assert_eq!(a.hash(b"12345678"), b.hash(b"12345678"));
        assert_ne!(a.hash(b"12345678"), c.hash(b"12345678"));
    }

    #[test]
    fn zero_key_hashes_to_zero() {
        let h = H3Hash::with_seed(32, 1);
        assert_eq!(h.hash(&[0, 0, 0, 0]), 0);
        assert_eq!(h.hash(&[]), 0);
    }

    #[test]
    fn linear_over_xor() {
        // H3 is GF(2)-linear: h(x ^ y) = h(x) ^ h(y).
        let h = H3Hash::with_seed(32, 7);
        let x = [0b1010_0001u8, 3, 9, 200];
        let y = [0b0110_1100u8, 250, 1, 17];
        let xy: Vec<u8> = x.iter().zip(&y).map(|(a, b)| a ^ b).collect();
        assert_eq!(h.hash(&xy), h.hash(&x) ^ h.hash(&y));
    }

    #[test]
    fn single_bit_key_selects_matrix_entry() {
        let h = H3Hash::with_seed(16, 5);
        // Key with only bit 9 set (second byte, bit 1).
        let key = [0u8, 0b0000_0010];
        assert_eq!(h.hash(&key), h.matrix[9]);
    }

    #[test]
    fn bucket_reduction_in_range() {
        let h = H3Hash::with_seed(64, 1);
        for buckets in [1u32, 2, 3, 7, 1024, u32::MAX] {
            for key in [&b"a"[..], b"bb", b"ccc"] {
                assert!(h.bucket(key, buckets) < buckets);
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_buckets_panics() {
        H3Hash::with_seed(64, 1).bucket(b"x", 0);
    }

    #[test]
    #[should_panic(expected = "exceeds H3 circuit width")]
    fn oversized_key_panics() {
        let h = H3Hash::with_seed(16, 5);
        let _ = h.hash(&[0, 0, 0]);
    }
}
