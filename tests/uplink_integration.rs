//! Cross-crate uplink integration: the paper's headline uplink shapes,
//! exercised through the full simulation stack.

use bs_dsp::bits::BerCounter;
use wifi_backscatter::link::{LinkConfig, Measurement};
use wifi_backscatter::phy::run_uplink;

fn payload() -> Vec<bool> {
    (0..45).map(|i| (i * 13) % 7 < 3).collect()
}

fn ber_at(
    d_m: f64,
    measurement: Measurement,
    pkts_per_bit: u32,
    seeds: std::ops::Range<u64>,
) -> f64 {
    let mut ber = BerCounter::new();
    for seed in seeds {
        let mut cfg = LinkConfig::fig10(d_m, 100, pkts_per_bit, seed);
        cfg.measurement = measurement;
        cfg.payload = payload();
        ber.merge(&run_uplink(&cfg).ber);
    }
    ber.raw_ber()
}

/// Fig. 10's central claim: CSI decodes reliably at 65 cm where RSSI has
/// already degraded; both are clean very close.
#[test]
fn csi_outranges_rssi() {
    let csi_5 = ber_at(0.05, Measurement::Csi, 30, 0..3);
    let rssi_5 = ber_at(0.05, Measurement::Rssi, 30, 10..13);
    assert!(csi_5 < 1e-2, "CSI at 5 cm: {csi_5}");
    assert!(rssi_5 < 2e-2, "RSSI at 5 cm: {rssi_5}");

    let csi_60 = ber_at(0.60, Measurement::Csi, 30, 20..24);
    let rssi_60 = ber_at(0.60, Measurement::Rssi, 30, 30..34);
    assert!(csi_60 < 3e-2, "CSI at 60 cm: {csi_60}");
    assert!(
        rssi_60 > 3.0 * csi_60.max(1e-3),
        "RSSI ({rssi_60}) should be far worse than CSI ({csi_60}) at 60 cm"
    );
}

/// More packets per bit buys reliability (the Fig. 10 packets/bit sweep).
#[test]
fn packets_per_bit_buys_range() {
    let sparse = ber_at(0.45, Measurement::Csi, 3, 40..44);
    let dense = ber_at(0.45, Measurement::Csi, 30, 50..54);
    assert!(dense < sparse, "dense {dense} sparse {sparse}");
}

/// §3.4 / Fig. 20: the coded mode works where plain decoding fails.
#[test]
fn coding_extends_range_beyond_plain() {
    let mut plain = BerCounter::new();
    let mut coded = BerCounter::new();
    for seed in 0..3 {
        let mut p = LinkConfig::fig10(1.6, 100, 10, 60 + seed);
        p.payload = (0..10).map(|i| i % 2 == 0).collect();
        plain.merge(&run_uplink(&p).ber);

        let mut c = p.clone();
        c.code_length = 40;
        coded.merge(&run_uplink(&c).ber);
    }
    assert!(
        coded.raw_ber() < plain.raw_ber() || coded.errors() == 0,
        "coded {} vs plain {}",
        coded.raw_ber(),
        plain.raw_ber()
    );
    assert!(
        coded.raw_ber() < 5e-2,
        "coded at 1.6 m: {}",
        coded.raw_ber()
    );
}

/// Longer codes reach farther (the Fig. 20 monotonicity).
#[test]
fn longer_codes_reach_farther() {
    let ber_with_l = |l: usize, seeds: std::ops::Range<u64>| {
        let mut ber = BerCounter::new();
        for seed in seeds {
            let mut cfg = LinkConfig::fig10(2.0, 100, 10, seed);
            cfg.payload = (0..8).map(|i| i % 3 == 0).collect();
            cfg.code_length = l;
            ber.merge(&run_uplink(&cfg).ber);
        }
        ber.raw_ber()
    };
    let short = ber_with_l(4, 70..73);
    let long = ber_with_l(80, 80..83);
    assert!(long <= short, "L=80 ({long}) vs L=4 ({short}) at 2 m");
}

/// §5 / Fig. 14: the uplink depends on the tag↔reader distance, not the
/// helper's position — a helper twice as far barely changes the BER.
#[test]
fn helper_distance_is_immaterial() {
    let mut near = BerCounter::new();
    let mut far = BerCounter::new();
    for seed in 0..3 {
        let mut cfg = LinkConfig::fig10(0.20, 100, 30, 90 + seed);
        cfg.payload = payload();
        near.merge(&run_uplink(&cfg).ber);

        let mut cfg = LinkConfig::fig10(0.20, 100, 30, 90 + seed);
        cfg.scene.helper = bs_channel::Point::new(7.0, 0.0);
        cfg.payload = payload();
        far.merge(&run_uplink(&cfg).ber);
    }
    assert!(near.raw_ber() < 1e-2, "near helper: {}", near.raw_ber());
    assert!(far.raw_ber() < 2e-2, "far helper: {}", far.raw_ber());
}

/// A tag that is not transmitting produces no detection (no false frames
/// out of thin air).
#[test]
fn no_tag_no_detection() {
    let mut cfg = LinkConfig::fig10(0.30, 100, 30, 99);
    cfg.payload = payload();
    // Kill the differential: absorb state equals reflect state.
    cfg.scene.rcs = bs_channel::backscatter::RadarCrossSection {
        reflect_m2: 0.01,
        absorb_m2: 0.01,
    };
    let run = run_uplink(&cfg);
    assert!(
        !run.detected || run.ber.raw_ber() > 0.2,
        "decoded a tag that cannot modulate (ber {})",
        run.ber.raw_ber()
    );
}
