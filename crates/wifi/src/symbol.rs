//! Symbol-level model of a helper frame for codeword-translation
//! backscatter (the FreeRider-style PHY behind
//! `wifi_backscatter::phy::PhyConfig::Codeword`).
//!
//! The presence/CSI PHY treats a Wi-Fi packet as one indivisible
//! measurement. Codeword translation goes below the packet: an 802.11b
//! transmission is a train of spread-spectrum symbols, each one of a
//! small codeword set, and a backscatter tag switching its antenna
//! impedance *during* the frame multiplies every covered symbol by an
//! extra phase term. For CCK and DBPSK codeword sets that phase flip
//! maps each codeword onto *another valid codeword* — the flipped frame
//! still demodulates, and a receiver that knows (or re-derives) the
//! original symbol stream reads the tag's flip sequence out of the
//! demodulation residue. The helper's own data rides through untouched
//! after the receiver strips the flips; the tag gets a channel with
//! **zero dedicated airtime**.
//!
//! This module models exactly the pieces the simulator needs:
//!
//! * the coarse symbol clock ([`SYMBOL_US`]) and how many symbols a
//!   frame of a given airtime carries;
//! * the flip-decision error model ([`flip_error_prob`] over
//!   [`residue_excess_db`]): the tag's reflected sideband must clear
//!   the receiver's residue floor, and the margin falls with
//!   helper→tag and tag→reader distance.
//!
//! Everything here is a pure function — determinism and seeding stay
//! with the callers.

use crate::frame::airtime_us;

/// Coarse symbol duration the codeword model uses (µs). Real 802.11b
/// symbols are 0.727–8 µs depending on rate; 4 µs is the CCK-5.5/11
/// scale and keeps symbol counts proportional to airtime without
/// per-rate bookkeeping.
pub const SYMBOL_US: u64 = 4;

/// Symbols carried by `duration_us` of airtime.
pub fn symbols_in(duration_us: u64) -> u64 {
    duration_us / SYMBOL_US
}

/// Symbols carried by one data frame of `payload_bytes` at `rate_mbps`
/// — [`crate::frame::airtime_us`] quantised to the symbol clock.
pub fn data_frame_symbols(payload_bytes: usize, rate_mbps: f64) -> u64 {
    symbols_in(airtime_us(payload_bytes, rate_mbps))
}

/// Margin (dB) of the tag's reflected sideband over the receiver's
/// residue-decision floor, from the deployment geometry.
///
/// The flip decision rides on energy that travelled
/// helper → tag → reader, so the margin falls with the tag→reader
/// path (log-distance, the calibrated indoor exponent 2.6) and, more
/// gently, with the helper→tag path (normalised to the §7.1 layout's
/// 3 m — the incident field sets how much the reflection perturbs the
/// composite symbol). Calibrated so the margin is comfortable
/// (> 20 dB) inside ~1.5 m, thinning through 4 m and gone near 8 m —
/// the codeword mode reaches metres where the plain presence uplink
/// dies at tens of centimetres, mirroring FreeRider's reported range.
pub fn residue_excess_db(d_helper_tag_m: f64, d_tag_reader_m: f64) -> f64 {
    let d_tr = d_tag_reader_m.max(0.05);
    let d_ht = d_helper_tag_m.max(0.05);
    26.0 - 26.0 * d_tr.log10() - 13.0 * (d_ht / 3.0).log10()
}

/// Probability the receiver decides a single symbol's flip wrongly,
/// given the residue margin: a logistic waterfall, ~0 above ~15 dB,
/// 0.25 at 0 dB, saturating at coin-flip (0.5) deep below the floor.
pub fn flip_error_prob(excess_db: f64) -> f64 {
    0.5 / (1.0 + (0.45 * excess_db).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbol_counts_follow_airtime() {
        // 1000-byte data frame at 54 Mbps: 169 µs → 42 symbols.
        assert_eq!(data_frame_symbols(1000, 54.0), 42);
        assert_eq!(symbols_in(0), 0);
        assert_eq!(symbols_in(SYMBOL_US * 7 + 3), 7);
    }

    #[test]
    fn residue_margin_falls_with_distance() {
        let near = residue_excess_db(3.0, 0.5);
        let mid = residue_excess_db(3.0, 2.0);
        let far = residue_excess_db(3.0, 8.0);
        assert!(near > mid && mid > far, "{near} {mid} {far}");
        assert!(near > 20.0, "near margin {near}");
        assert!(far < 5.0, "far margin {far}");
        // A closer helper illuminates the tag harder.
        assert!(residue_excess_db(1.0, 2.0) > residue_excess_db(6.0, 2.0));
    }

    #[test]
    fn flip_error_waterfall() {
        assert!(flip_error_prob(25.0) < 1e-4);
        assert!((flip_error_prob(0.0) - 0.25).abs() < 1e-12);
        assert!(flip_error_prob(-20.0) > 0.49);
        // Monotone decreasing in the margin.
        let mut last = 0.51;
        for db in -10..=30 {
            let p = flip_error_prob(f64::from(db));
            assert!(p < last, "not monotone at {db} dB");
            last = p;
        }
    }

    #[test]
    fn benign_geometry_supports_clean_chips() {
        // The conformance suite round-trips payloads at the §7.1 layout
        // with the reader ≤ 1 m out; the per-symbol error rate there must
        // be negligible even before majority voting.
        let p = flip_error_prob(residue_excess_db(3.0, 1.0));
        assert!(p < 1e-4, "per-symbol error {p} too high for clean chips");
    }
}
