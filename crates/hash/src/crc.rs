//! Table-driven CRC-32 hashes.
//!
//! CRC circuits are the workhorse hash of FPGA lookup tables: they reduce
//! to a small XOR network and have excellent bit dispersion for the
//! structured keys (IP addresses, ports) that flow tables see.

/// A reflected table-driven CRC-32.
///
/// Two standard polynomials are provided: [`Crc32::ieee`] (Ethernet
/// CRC-32, polynomial `0xEDB88320` reflected) and [`Crc32::castagnoli`]
/// (CRC-32C, `0x82F63B78` reflected). Any other reflected polynomial can
/// be supplied with [`Crc32::with_polynomial`].
#[derive(Debug, Clone)]
pub struct Crc32 {
    table: Box<[u32; 256]>,
    init: u32,
    xorout: u32,
    polynomial: u32,
}

impl Crc32 {
    /// CRC-32/IEEE (Ethernet FCS): reflected polynomial `0xEDB88320`,
    /// init and xorout `0xFFFF_FFFF`.
    pub fn ieee() -> Self {
        Self::with_polynomial(0xEDB8_8320)
    }

    /// CRC-32C (Castagnoli): reflected polynomial `0x82F63B78`.
    pub fn castagnoli() -> Self {
        Self::with_polynomial(0x82F6_3B78)
    }

    /// Builds a CRC with an arbitrary reflected polynomial, init/xorout
    /// `0xFFFF_FFFF` (the common convention).
    pub fn with_polynomial(reflected_poly: u32) -> Self {
        let mut table = Box::new([0u32; 256]);
        for (i, slot) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ reflected_poly
                } else {
                    crc >> 1
                };
            }
            *slot = crc;
        }
        Crc32 {
            table,
            init: 0xFFFF_FFFF,
            xorout: 0xFFFF_FFFF,
            polynomial: reflected_poly,
        }
    }

    /// The reflected polynomial in use.
    pub fn polynomial(&self) -> u32 {
        self.polynomial
    }

    /// Hashes `key` to 32 bits.
    pub fn hash(&self, key: &[u8]) -> u32 {
        let mut crc = self.init;
        for &b in key {
            crc = (crc >> 8) ^ self.table[((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        crc ^ self.xorout
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The canonical CRC check string.
    const CHECK: &[u8] = b"123456789";

    #[test]
    fn ieee_check_value() {
        // CRC-32/IEEE("123456789") = 0xCBF43926.
        assert_eq!(Crc32::ieee().hash(CHECK), 0xCBF4_3926);
    }

    #[test]
    fn castagnoli_check_value() {
        // CRC-32C("123456789") = 0xE3069283.
        assert_eq!(Crc32::castagnoli().hash(CHECK), 0xE306_9283);
    }

    #[test]
    fn empty_key_is_zero_for_ieee() {
        // init ^ xorout with no data = 0.
        assert_eq!(Crc32::ieee().hash(b""), 0);
    }

    #[test]
    fn deterministic() {
        let c = Crc32::ieee();
        assert_eq!(c.hash(b"flow"), c.hash(b"flow"));
        assert_ne!(c.hash(b"flow"), c.hash(b"flor"));
    }

    #[test]
    fn polynomials_differ() {
        let a = Crc32::ieee().hash(b"key");
        let b = Crc32::castagnoli().hash(b"key");
        assert_ne!(a, b);
    }
}
