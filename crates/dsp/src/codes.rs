//! Line codes used by the tag, plus the finite-field arithmetic the
//! transport's forward-error-correction layer builds on.
//!
//! * **Barker codes** — the prototype uses a 13-bit Barker code as its
//!   uplink preamble "for its good autocorrelation properties" (§6). We also
//!   provide the 7- and 11-chip codes for experimentation.
//! * **Orthogonal code pairs** — the long-range uplink (§3.4) represents the
//!   one and zero bits with two orthogonal length-L codes; the reader
//!   correlates with both and picks the larger. Correlating over L chips
//!   buys an SNR gain proportional to L, which is what extends the range to
//!   2.1 m in Fig. 20.
//! * **[`gf256`]** — table-driven GF(2⁸) arithmetic (the AES/CD-ROM field,
//!   primitive polynomial `x⁸+x⁴+x³+x²+1`), the symbol field of the
//!   Reed-Solomon coder in `bs_net::fec`. Offline like everything else in
//!   the workspace: the log/antilog tables are built by a `const fn` at
//!   compile time, no external crate involved.

/// The 13-chip Barker code (peak sidelobe 1/13).
pub const BARKER13: [i8; 13] = [1, 1, 1, 1, 1, -1, -1, 1, 1, -1, 1, -1, 1];

/// The 11-chip Barker code.
pub const BARKER11: [i8; 11] = [1, 1, 1, -1, -1, -1, 1, -1, -1, 1, -1];

/// The 7-chip Barker code.
pub const BARKER7: [i8; 7] = [1, 1, 1, -1, -1, 1, -1];

/// A pair of mutually-orthogonal ±1 codes of equal length, representing the
/// tag's one and zero bits on the long-range uplink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrthogonalPair {
    /// Code transmitted for a `1` bit.
    pub one: Vec<i8>,
    /// Code transmitted for a `0` bit.
    pub zero: Vec<i8>,
}

impl OrthogonalPair {
    /// Builds an orthogonal pair of length `len` (must be even and ≥ 2).
    ///
    /// Construction: the `one` code is an alternating ±1 square wave of
    /// period 2; the `zero` code is a square wave of period 4 truncated to
    /// `len`. For even `len` divisible by 4 these are exactly orthogonal;
    /// for even lengths not divisible by 4 we flip the final chip of `zero`
    /// to restore exact orthogonality. The codes are also both zero-mean,
    /// which makes them immune to residual DC left by signal conditioning.
    ///
    /// # Panics
    /// Panics if `len < 2` or `len` is odd.
    pub fn new(len: usize) -> Self {
        assert!(
            len >= 2 && len % 2 == 0,
            "code length must be even and >= 2"
        );
        let one: Vec<i8> = (0..len).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect();
        let mut zero: Vec<i8> = (0..len)
            .map(|i| if (i / 2) % 2 == 0 { 1 } else { -1 })
            .collect();
        // Exact-orthogonality fixup for len % 4 == 2.
        let dot: i32 = one
            .iter()
            .zip(&zero)
            .map(|(&a, &b)| i32::from(a) * i32::from(b))
            .sum();
        if dot != 0 {
            // Flipping the last chip changes the dot product by ∓2·one[last].
            // For this construction |dot| == 2 when len % 4 == 2, so one flip
            // suffices.
            let last = len - 1;
            zero[last] = -zero[last];
            debug_assert_eq!(
                one.iter()
                    .zip(&zero)
                    .map(|(&a, &b)| i32::from(a) * i32::from(b))
                    .sum::<i32>(),
                0
            );
        }
        OrthogonalPair { one, zero }
    }

    /// Code length L.
    pub fn len(&self) -> usize {
        self.one.len()
    }

    /// Always false: codes have length ≥ 2 by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The code for the given bit value.
    pub fn code_for(&self, bit: bool) -> &[i8] {
        if bit {
            &self.one
        } else {
            &self.zero
        }
    }

    /// Expands a bit sequence into the chip sequence the tag transmits.
    pub fn encode(&self, bits: &[bool]) -> Vec<i8> {
        let mut chips = Vec::with_capacity(bits.len() * self.len());
        for &b in bits {
            chips.extend_from_slice(self.code_for(b));
        }
        chips
    }

    /// Decodes one bit from a window of `len()` conditioned channel samples
    /// by correlating with both codes and picking the larger (§3.4).
    /// Returns the bit and the winning correlation margin.
    ///
    /// # Panics
    /// Panics if `window.len() != self.len()`.
    pub fn decode_bit(&self, window: &[f64]) -> (bool, f64) {
        let c1 = crate::correlate::dot(window, &self.one);
        let c0 = crate::correlate::dot(window, &self.zero);
        ((c1 >= c0), (c1 - c0).abs())
    }
}

/// Table-driven arithmetic in GF(2⁸) with primitive polynomial
/// `x⁸+x⁴+x³+x²+1` (0x11D) and generator α = 2.
///
/// This is the symbol field of the Reed-Solomon coder in `bs_net::fec`.
/// The antilog table is doubled (512 entries) so products of two logs
/// never need a modulo: `EXP[LOG[a] + LOG[b]]` is always in range.
/// All tables are computed by a `const fn` at compile time.
///
/// ```
/// use bs_dsp::codes::gf256;
/// let a = 0x53u8;
/// let inv = gf256::inv(a);
/// assert_eq!(gf256::mul(a, inv), 1);
/// assert_eq!(gf256::add(a, a), 0); // characteristic 2: addition is XOR
/// ```
pub mod gf256 {
    /// Field order.
    pub const ORDER: usize = 256;

    /// The primitive polynomial `x⁸+x⁴+x³+x²+1`, as the reduction mask
    /// applied when a product overflows 8 bits.
    pub const POLY: u16 = 0x11D;

    const fn build_tables() -> ([u8; 512], [u8; 256]) {
        let mut exp = [0u8; 512];
        let mut log = [0u8; 256];
        let mut x: u16 = 1;
        let mut i = 0usize;
        while i < 255 {
            exp[i] = x as u8;
            log[x as usize] = i as u8;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= POLY;
            }
            i += 1;
        }
        // Double the antilog table so EXP[la + lb] needs no reduction
        // (la + lb <= 508), and fill the seam at 255 with α⁰ = 1.
        while i < 512 {
            exp[i] = exp[i - 255];
            i += 1;
        }
        (exp, log)
    }

    const TABLES: ([u8; 512], [u8; 256]) = build_tables();

    /// Antilog table: `EXP[i] = α^i`, doubled to 512 entries.
    pub const EXP: [u8; 512] = TABLES.0;

    /// Log table: `LOG[x] = log_α(x)` for x ≠ 0; `LOG[0]` is 0 and must
    /// never be consulted (every accessor below guards the zero case).
    pub const LOG: [u8; 256] = TABLES.1;

    /// Field addition (= subtraction): XOR.
    #[inline]
    pub const fn add(a: u8, b: u8) -> u8 {
        a ^ b
    }

    /// Field multiplication via the log/antilog tables.
    #[inline]
    pub fn mul(a: u8, b: u8) -> u8 {
        if a == 0 || b == 0 {
            0
        } else {
            EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
        }
    }

    /// Field division `a / b`.
    ///
    /// # Panics
    /// Panics on division by zero.
    #[inline]
    pub fn div(a: u8, b: u8) -> u8 {
        assert!(b != 0, "GF(256) division by zero");
        if a == 0 {
            0
        } else {
            EXP[255 + LOG[a as usize] as usize - LOG[b as usize] as usize]
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics on `inv(0)`.
    #[inline]
    pub fn inv(a: u8) -> u8 {
        assert!(a != 0, "GF(256) inverse of zero");
        EXP[255 - LOG[a as usize] as usize]
    }

    /// `α^i` for any integer exponent (taken mod 255).
    #[inline]
    pub fn alpha_pow(i: i32) -> u8 {
        EXP[(i.rem_euclid(255)) as usize]
    }

    /// Evaluates the polynomial `poly` (coefficients in descending
    /// degree order) at `x`, by Horner's rule.
    pub fn poly_eval(poly: &[u8], x: u8) -> u8 {
        let mut y = 0u8;
        for &c in poly {
            y = add(mul(y, x), c);
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barker13_is_13_chips_of_pm1() {
        assert_eq!(BARKER13.len(), 13);
        assert!(BARKER13.iter().all(|&c| c == 1 || c == -1));
    }

    #[test]
    fn all_barker_codes_have_unit_sidelobes() {
        for code in [&BARKER7[..], &BARKER11[..], &BARKER13[..]] {
            let n = code.len();
            for lag in 1..n {
                let s: i32 = (0..n - lag)
                    .map(|i| i32::from(code[i]) * i32::from(code[i + lag]))
                    .sum();
                assert!(s.abs() <= 1, "lag {lag} sidelobe {s} for len {n}");
            }
        }
    }

    #[test]
    fn barker13_sidelobe_ratio_is_13() {
        // Peak 13 over a largest sidelobe of exactly 1.
        let n = BARKER13.len();
        let max_side = (1..n)
            .map(|lag| {
                (0..n - lag)
                    .map(|i| i32::from(BARKER13[i]) * i32::from(BARKER13[i + lag]))
                    .sum::<i32>()
                    .abs()
            })
            .max();
        assert_eq!(max_side, Some(1));
    }

    #[test]
    fn orthogonal_pair_is_orthogonal_for_many_lengths() {
        for len in (2..=160).step_by(2) {
            let p = OrthogonalPair::new(len);
            let dot: i32 = p
                .one
                .iter()
                .zip(&p.zero)
                .map(|(&a, &b)| i32::from(a) * i32::from(b))
                .sum();
            assert_eq!(dot, 0, "len {len}");
            assert_eq!(p.len(), len);
        }
    }

    #[test]
    fn orthogonal_pair_codes_are_near_zero_mean() {
        for len in [20usize, 150] {
            let p = OrthogonalPair::new(len);
            let s1: i32 = p.one.iter().map(|&c| i32::from(c)).sum();
            let s0: i32 = p.zero.iter().map(|&c| i32::from(c)).sum();
            assert_eq!(s1, 0, "one code len {len}");
            assert!(s0.abs() <= 2, "zero code len {len} sum {s0}");
        }
    }

    #[test]
    #[should_panic(expected = "even")]
    fn orthogonal_pair_odd_length_panics() {
        OrthogonalPair::new(7);
    }

    #[test]
    fn encode_concatenates_codes() {
        let p = OrthogonalPair::new(4);
        let chips = p.encode(&[true, false]);
        assert_eq!(chips.len(), 8);
        assert_eq!(&chips[..4], &p.one[..]);
        assert_eq!(&chips[4..], &p.zero[..]);
    }

    #[test]
    fn decode_bit_recovers_clean_codes() {
        let p = OrthogonalPair::new(20);
        let one_sig: Vec<f64> = p.one.iter().map(|&c| f64::from(c)).collect();
        let zero_sig: Vec<f64> = p.zero.iter().map(|&c| f64::from(c)).collect();
        assert!(p.decode_bit(&one_sig).0);
        assert!(!p.decode_bit(&zero_sig).0);
    }

    #[test]
    fn decode_bit_survives_heavy_noise_at_long_length() {
        // The §3.4 claim: correlation over L chips gains SNR ∝ L. At chip
        // SNR far below 0 dB, a length-150 code still decodes.
        use crate::SimRng;
        let p = OrthogonalPair::new(150);
        let mut rng = SimRng::new(42).stream("code-noise");
        let mut errors = 0;
        let trials = 200;
        for t in 0..trials {
            let bit = t % 2 == 0;
            // Chip SNR ≈ -10 dB; correlation gain sqrt(L/2) ≈ 8.7 makes the
            // per-bit error probability Q(2.6) ≈ 0.5 %.
            let sig: Vec<f64> = p
                .code_for(bit)
                .iter()
                .map(|&c| 0.3 * f64::from(c) + rng.gaussian(0.0, 1.0))
                .collect();
            if p.decode_bit(&sig).0 != bit {
                errors += 1;
            }
        }
        assert!(errors <= 6, "errors {errors}/{trials}");
    }

    #[test]
    fn short_code_fails_where_long_code_succeeds() {
        // Monotonic benefit of code length — the mechanism behind Fig. 20.
        use crate::SimRng;
        let noise_sigma = 1.0;
        let amp = 0.25;
        let err_rate = |len: usize| {
            let p = OrthogonalPair::new(len);
            let mut rng = SimRng::new(7).stream("len-sweep").substream(len as u64);
            let trials = 400;
            let mut errors = 0;
            for t in 0..trials {
                let bit = t % 2 == 0;
                let sig: Vec<f64> = p
                    .code_for(bit)
                    .iter()
                    .map(|&c| amp * f64::from(c) + rng.gaussian(0.0, noise_sigma))
                    .collect();
                if p.decode_bit(&sig).0 != bit {
                    errors += 1;
                }
            }
            errors as f64 / trials as f64
        };
        let short = err_rate(2);
        let long = err_rate(200);
        assert!(
            long < short,
            "long-code BER {long} should beat short-code BER {short}"
        );
        assert!(long < 0.02, "long-code BER {long}");
    }

    #[test]
    fn gf256_tables_are_consistent() {
        // α^0 = 1, tables round-trip, and the doubled antilog half
        // mirrors the first.
        assert_eq!(gf256::EXP[0], 1);
        for x in 1..=255u8 {
            assert_eq!(gf256::EXP[gf256::LOG[x as usize] as usize], x);
        }
        for i in 0..255usize {
            assert_eq!(gf256::EXP[i], gf256::EXP[i + 255]);
        }
    }

    #[test]
    fn gf256_mul_matches_carryless_reference() {
        // Bitwise carry-less multiply with 0x11D reduction, checked
        // against the table path over a spread of operands.
        fn slow_mul(mut a: u8, mut b: u8) -> u8 {
            let mut p = 0u8;
            while b != 0 {
                if b & 1 != 0 {
                    p ^= a;
                }
                let hi = a & 0x80 != 0;
                a <<= 1;
                if hi {
                    a ^= (gf256::POLY & 0xFF) as u8;
                }
                b >>= 1;
            }
            p
        }
        for a in (0..=255u8).step_by(7) {
            for b in (0..=255u8).step_by(11) {
                assert_eq!(gf256::mul(a, b), slow_mul(a, b), "{a} * {b}");
            }
        }
        assert_eq!(gf256::mul(0, 77), 0);
        assert_eq!(gf256::mul(77, 0), 0);
    }

    #[test]
    fn gf256_inverse_and_division() {
        for a in 1..=255u8 {
            let i = gf256::inv(a);
            assert_eq!(gf256::mul(a, i), 1, "inv({a})");
            assert_eq!(gf256::div(a, a), 1);
            assert_eq!(gf256::div(0, a), 0);
        }
    }

    #[test]
    fn gf256_pow_edge_cases() {
        assert_eq!(gf256::alpha_pow(0), 1);
        assert_eq!(gf256::alpha_pow(-1), gf256::inv(2));
        assert_eq!(gf256::alpha_pow(255), 1);
    }

    #[test]
    fn gf256_poly_eval_and_mul() {
        // x² + 3x + 2 = (x + 1)(x + 2) in GF(256) (3 = 1 XOR 2): Horner
        // agrees with the factored product everywhere.
        let p = [1, 3, 2];
        for x in 0..=255u8 {
            let product = gf256::mul(gf256::add(x, 1), gf256::add(x, 2));
            assert_eq!(gf256::poly_eval(&p, x), product, "x = {x}");
        }
        assert_eq!(gf256::poly_eval(&[], 9), 0);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn gf256_div_by_zero_panics() {
        gf256::div(3, 0);
    }
}
