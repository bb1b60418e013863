//! Bit/byte packing, CRC-8, and bit-error accounting.
//!
//! The tag's downlink frames carry a CRC (§4.1 — "the payload bits
//! (including the CRC)"); we use CRC-8/ATM (poly 0x07), a standard choice
//! for short sensor frames. BER accounting backs every evaluation figure.

/// Unpacks bytes into bits, most-significant bit first.
pub fn bytes_to_bits(bytes: &[u8]) -> Vec<bool> {
    let mut bits = Vec::with_capacity(bytes.len() * 8);
    for &b in bytes {
        for i in (0..8).rev() {
            bits.push((b >> i) & 1 == 1);
        }
    }
    bits
}

/// Packs bits (MSB-first) into bytes. The final partial byte, if any, is
/// zero-padded on the right.
pub fn bits_to_bytes(bits: &[bool]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(bits.len().div_ceil(8));
    for chunk in bits.chunks(8) {
        let mut b = 0u8;
        for (i, &bit) in chunk.iter().enumerate() {
            if bit {
                b |= 1 << (7 - i);
            }
        }
        bytes.push(b);
    }
    bytes
}

/// CRC-8/ATM (polynomial 0x07, init 0x00, no reflection, no xorout).
pub fn crc8(data: &[u8]) -> u8 {
    let mut crc = 0u8;
    for &b in data {
        crc ^= b;
        for _ in 0..8 {
            crc = if crc & 0x80 != 0 {
                (crc << 1) ^ 0x07
            } else {
                crc << 1
            };
        }
    }
    crc
}

/// Hamming distance between two equal-length bit sequences.
///
/// # Panics
/// Panics if lengths differ.
fn hamming(a: &[bool], b: &[bool]) -> usize {
    assert_eq!(a.len(), b.len(), "hamming distance needs equal lengths");
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

/// Bit-error-rate accumulator used by the evaluation harness.
///
/// Follows the paper's convention (§7.1): if zero errors are observed, the
/// reported BER is floored at `1 / bits` — the paper transmits 1800 bits and
/// reports ≈5 × 10⁻⁴ for error-free runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BerCounter {
    bits: u64,
    errors: u64,
}

impl BerCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        BerCounter::default()
    }

    /// Records `errors` bit errors out of `bits` compared bits.
    pub fn record(&mut self, errors: u64, bits: u64) {
        debug_assert!(errors <= bits);
        self.errors += errors;
        self.bits += bits;
    }

    /// Compares a decoded sequence against the transmitted one. Missing
    /// trailing bits (decoder produced fewer) count as errors; extra decoded
    /// bits are ignored.
    pub fn compare(&mut self, transmitted: &[bool], decoded: &[bool]) {
        let n = transmitted.len().min(decoded.len());
        let errs = hamming(&transmitted[..n], &decoded[..n]) as u64;
        let missing = (transmitted.len() - n) as u64;
        self.record(errs + missing, transmitted.len() as u64);
    }

    /// Compares where the decoder may emit erasures (`None`); erasures count
    /// as errors.
    pub fn compare_with_erasures(&mut self, transmitted: &[bool], decoded: &[Option<bool>]) {
        let n = transmitted.len().min(decoded.len());
        let mut errs = 0u64;
        for i in 0..n {
            match decoded[i] {
                Some(b) if b == transmitted[i] => {}
                _ => errs += 1,
            }
        }
        errs += (transmitted.len() - n) as u64;
        self.record(errs, transmitted.len() as u64);
    }

    /// Total bits compared.
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Total bit errors.
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: &BerCounter) {
        self.bits += other.bits;
        self.errors += other.errors;
    }

    /// The raw error ratio (0 when no bits compared).
    pub fn raw_ber(&self) -> f64 {
        if self.bits == 0 {
            0.0
        } else {
            self.errors as f64 / self.bits as f64
        }
    }

    /// BER with the paper's zero-error floor of `1/bits`.
    pub fn ber(&self) -> f64 {
        if self.bits == 0 {
            return 0.0;
        }
        if self.errors == 0 {
            1.0 / self.bits as f64
        } else {
            self.raw_ber()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_bits_roundtrip() {
        let data = [0xA5u8, 0x00, 0xFF, 0x3C];
        let bits = bytes_to_bits(&data);
        assert_eq!(bits.len(), 32);
        assert_eq!(bits_to_bytes(&bits), data.to_vec());
    }

    #[test]
    fn bits_msb_first() {
        let bits = bytes_to_bits(&[0b1000_0001]);
        assert!(bits[0]);
        assert!(!bits[1]);
        assert!(bits[7]);
    }

    #[test]
    fn partial_byte_zero_padded() {
        let bits = [true, false, true]; // 101 -> 1010_0000
        assert_eq!(bits_to_bytes(&bits), vec![0b1010_0000]);
    }

    #[test]
    fn empty_roundtrip() {
        assert!(bytes_to_bits(&[]).is_empty());
        assert!(bits_to_bytes(&[]).is_empty());
    }

    #[test]
    fn crc8_known_vectors() {
        // CRC-8/ATM check value for "123456789" is 0xF4.
        assert_eq!(crc8(b"123456789"), 0xF4);
        assert_eq!(crc8(&[]), 0x00);
        assert_eq!(crc8(&[0x00]), 0x00);
    }

    #[test]
    fn crc8_detects_single_bit_flips() {
        let data = [0x12u8, 0x34, 0x56, 0x78];
        let good = crc8(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupt = data;
                corrupt[byte] ^= 1 << bit;
                assert_ne!(crc8(&corrupt), good, "flip {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn hamming_basics() {
        assert_eq!(hamming(&[true, false], &[true, false]), 0);
        assert_eq!(hamming(&[true, false], &[false, true]), 2);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn hamming_mismatch_panics() {
        hamming(&[true], &[true, false]);
    }

    #[test]
    fn ber_counter_basic() {
        let mut c = BerCounter::new();
        c.record(3, 100);
        assert_eq!(c.errors(), 3);
        assert_eq!(c.bits(), 100);
        assert!((c.ber() - 0.03).abs() < 1e-12);
    }

    #[test]
    fn ber_zero_error_floor_matches_paper() {
        // Paper: 1800 error-free bits → BER reported as ≈5e-4 (1/1800).
        let mut c = BerCounter::new();
        c.record(0, 1800);
        assert!((c.ber() - 1.0 / 1800.0).abs() < 1e-12);
        assert!(c.ber() > 5.0e-4 && c.ber() < 6.0e-4);
        assert_eq!(c.raw_ber(), 0.0);
    }

    #[test]
    fn ber_empty_is_zero() {
        let c = BerCounter::new();
        assert_eq!(c.ber(), 0.0);
        assert_eq!(c.raw_ber(), 0.0);
    }

    #[test]
    fn compare_counts_missing_as_errors() {
        let mut c = BerCounter::new();
        c.compare(&[true, true, true, true], &[true, false]);
        assert_eq!(c.errors(), 3); // one mismatch + two missing
        assert_eq!(c.bits(), 4);
    }

    #[test]
    fn compare_ignores_extra_decoded_bits() {
        let mut c = BerCounter::new();
        c.compare(&[true], &[true, false, false]);
        assert_eq!(c.errors(), 0);
        assert_eq!(c.bits(), 1);
    }

    #[test]
    fn compare_with_erasures() {
        let mut c = BerCounter::new();
        c.compare_with_erasures(&[true, false, true], &[Some(true), None, Some(false)]);
        assert_eq!(c.errors(), 2); // erasure + wrong bit
        assert_eq!(c.bits(), 3);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = BerCounter::new();
        a.record(1, 10);
        let mut b = BerCounter::new();
        b.record(2, 20);
        a.merge(&b);
        assert_eq!(a.errors(), 3);
        assert_eq!(a.bits(), 30);
    }
}
