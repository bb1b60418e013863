//! Coexistence integration (§4.1, §5, §9): the tag and normal Wi-Fi
//! traffic sharing one medium without hurting each other.

use bs_channel::TagState;
use bs_dsp::bits::BerCounter;
use bs_tag::frame::UplinkFrame;
use bs_tag::modulator::{Modulator, UplinkMode};
use bs_wifi::frame::FrameKind;
use bs_wifi::mac::{Medium, Station};
use wifi_backscatter::downlink::DownlinkEncoder;
use wifi_backscatter::link::LinkConfig;
use wifi_backscatter::phy::run_uplink;

/// The uplink still works when the helper shares the medium with other
/// stations (§5: "Wi-Fi Backscatter in a general Wi-Fi network").
#[test]
fn uplink_survives_contending_background_traffic() {
    let mut ber = BerCounter::new();
    for seed in 0..3 {
        let mut cfg = LinkConfig::fig10(0.10, 100, 30, 800 + seed);
        cfg.background = vec![(600.0, 1500), (300.0, 500)];
        cfg.payload = (0..30).map(|i| i % 4 < 2).collect();
        ber.merge(&run_uplink(&cfg).ber);
    }
    assert!(
        ber.raw_ber() < 1e-2,
        "ber with background: {}",
        ber.raw_ber()
    );
}

/// Using *all* delivered traffic (helper + background) gives at least as
/// many measurements per bit as the helper alone.
#[test]
fn all_traffic_mode_gathers_more_packets() {
    let mk = |use_all: bool| {
        let mut cfg = LinkConfig::fig10(0.10, 100, 10, 801);
        cfg.background = vec![(800.0, 1000)];
        cfg.use_all_traffic = use_all;
        cfg.payload = (0..20).map(|i| i % 2 == 0).collect();
        run_uplink(&cfg)
    };
    let only_helper = mk(false);
    let all = mk(true);
    assert!(
        all.pkts_per_bit > only_helper.pkts_per_bit,
        "all {} vs helper-only {}",
        all.pkts_per_bit,
        only_helper.pkts_per_bit
    );
    assert_eq!(all.ber.errors(), 0);
}

/// The downlink's CTS_to_SELF actually silences contending stations for
/// the whole encoded message (§4.1) when its frames are replayed onto a
/// shared medium.
#[test]
fn downlink_reservation_keeps_silences_silent() {
    // Encode a frame; its CTS reserves the medium.
    let encoder = DownlinkEncoder::new(20_000);
    let frame = bs_tag::frame::DownlinkFrame::new(vec![0xAA, 0x55]);
    let tx = encoder.encode(&frame, 0).unwrap();
    let nav_us = tx.frames[0].nav_us();

    // A saturated background station tries to transmit throughout.
    let cts = Station {
        arrivals: vec![0],
        payload_bytes: 14,
        rate_mbps: 24.0,
        kind: FrameKind::CtsToSelf { nav_us },
    };
    let bg = Station::data((0..200).map(|i| i * 100).collect(), 500, 54.0);
    let mut medium = Medium::with_seed(802);
    let (timeline, _) = medium.simulate(&[cts, bg], tx.end_us + 10_000);
    let cts_end = timeline
        .iter()
        .find(|t| matches!(t.frame.kind, FrameKind::CtsToSelf { .. }))
        .unwrap()
        .frame
        .end_us();
    for t in &timeline {
        if t.frame.src == 1 {
            assert!(
                t.frame.timestamp_us >= cts_end + nav_us,
                "background frame at {} violated the NAV (ends {})",
                t.frame.timestamp_us,
                cts_end + nav_us
            );
        }
    }
}

/// §3.1: the tag modulates only while transmitting a queried response; the
/// channel is unperturbed before and after.
#[test]
fn tag_is_silent_outside_its_response() {
    let frame = UplinkFrame::new(vec![true; 8]);
    let m = Modulator::from_chip_rate(&frame, 100, UplinkMode::Plain, 500_000);
    assert_eq!(m.state_at(0), TagState::Absorb);
    assert_eq!(m.state_at(499_999), TagState::Absorb);
    assert_eq!(m.state_at(m.end_us() + 1), TagState::Absorb);
    // And it does modulate during the frame.
    assert_eq!(m.state_at(500_000 + 5_000), TagState::Reflect);
}

/// §3.1: at the fastest evaluated rate the modulation period still exceeds
/// a full-length Wi-Fi packet, so per-packet channels stay coherent.
#[test]
fn modulation_slower_than_packets() {
    let frame = UplinkFrame::new(vec![true, false]);
    let m = Modulator::from_chip_rate(&frame, 1000, UplinkMode::Plain, 0);
    let full_packet_us = bs_wifi::frame::airtime_us(1500, 54.0);
    assert!(m.chip_duration_us() >= 4 * full_packet_us);
}

/// Extension: a microwave-oven interferer raises the noise floor on a 50 %
/// duty cycle. At close range the uplink shrugs it off; at the edge of the
/// range it visibly hurts — and the conditioning + majority pipeline keeps
/// the close-range link intact.
#[test]
fn uplink_survives_microwave_interference_at_close_range() {
    use bs_channel::InterferenceConfig;

    let run_with = |interference: Option<InterferenceConfig>, d_m: f64, seed: u64| {
        let mut ber = BerCounter::new();
        for r in 0..3 {
            let mut cfg = LinkConfig::fig10(d_m, 100, 30, seed + r);
            cfg.scene.interference = interference;
            cfg.payload = (0..30).map(|i| i % 3 == 0).collect();
            ber.merge(&run_uplink(&cfg).ber);
        }
        ber.raw_ber()
    };

    // Close range: interference is absorbed.
    let close_clean = run_with(None, 0.10, 850);
    let close_noisy = run_with(Some(InterferenceConfig::microwave_oven()), 0.10, 850);
    assert!(close_clean < 1e-2, "baseline broken: {close_clean}");
    assert!(
        close_noisy < 2e-2,
        "microwave broke the close-range link: {close_noisy}"
    );

    // Range edge: a strong interferer measurably degrades the link.
    let strong = InterferenceConfig {
        power_dbm: -55.0,
        ..InterferenceConfig::microwave_oven()
    };
    let edge_clean = run_with(None, 0.55, 860);
    let edge_noisy = run_with(Some(strong), 0.55, 860);
    assert!(
        edge_noisy >= edge_clean,
        "interference should not help: {edge_noisy} vs {edge_clean}"
    );
}

/// Extension (§7.5 + fault model): a tag living off beacons alone — the
/// sparsest ambient traffic the paper evaluates — while the access point
/// periodically goes silent (driver resets / roaming scans). The slow
/// link must ride through the outages, and the run must say what hit it.
#[test]
fn beacon_only_uplink_survives_helper_outages() {
    use bs_channel::faults::FaultPlan;
    use wifi_backscatter::link::Measurement;

    let mut ber = BerCounter::new();
    let mut fired = false;
    for seed in 0..2 {
        // ~60 beacons/s (a busy multi-AP band), RSSI only — the Intel
        // tool reports no CSI for beacons — and a rate slow enough for a
        // few beacons per bit.
        let mut cfg = LinkConfig::fig10(0.05, 10, 6, 870 + seed);
        cfg.measurement = Measurement::Rssi;
        cfg.helper_pps = 60.0;
        cfg.payload = (0..16).map(|i| (i * 3) % 5 < 2).collect();
        cfg.faults = FaultPlan::preset("outage", 1.0, 870 + seed).unwrap();
        cfg.mitigations = true;
        let run = run_uplink(&cfg);
        assert!(run.detected, "seed {seed}: beacon-only link lost the frame");
        let d = &run.degradation;
        assert!(d.outage_us > 0, "seed {seed}: no outage time accounted");
        fired |= d.fired("helper-outage");
        ber.merge(&run.ber);
    }
    assert!(fired, "outage never observed in any run's report");
    assert!(
        ber.raw_ber() < 5e-2,
        "outages broke the beacon-only link: {}",
        ber.raw_ber()
    );
}
