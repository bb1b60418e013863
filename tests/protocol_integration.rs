//! Protocol-level integration: rate selection against simulated network
//! load, and protocol frames over the real downlink channel.

use bs_dsp::SimRng;
use bs_wifi::mac::{Medium, Station};
use wifi_backscatter::link::{DownlinkConfig, LinkConfig};
use wifi_backscatter::phy::{run_downlink_frame, run_uplink};
use wifi_backscatter::protocol::{select_bit_rate, Ack, Query, SUPPORTED_RATES_BPS};

/// The reader measures the helper's delivered rate off a real MAC
/// simulation, applies the §5 rule, and the resulting exchange succeeds.
#[test]
fn measured_load_drives_rate_selection_and_exchange_succeeds() {
    // Simulate 1 s of the helper's traffic contending with one background
    // station, and count what actually got delivered.
    let rng = SimRng::new(501);
    let mut helper_rng = rng.stream("helper");
    let mut bg_rng = rng.stream("bg");
    let stations = vec![
        Station::data(
            bs_wifi::traffic::cbr(1200.0, 1_000_000, &mut helper_rng),
            1000,
            54.0,
        ),
        Station::data(
            bs_wifi::traffic::poisson(400.0, 1_000_000, &mut bg_rng),
            1500,
            54.0,
        ),
    ];
    let mut medium = Medium::with_seed(502);
    let (timeline, _) = medium.simulate(&stations, 1_000_000);
    let delivered_pps = bs_wifi::mac::delivered_from(&timeline, 0).len() as f64;
    assert!(delivered_pps > 800.0, "helper starved: {delivered_pps}");

    // §5 rule with M = 5 packets/bit and a conservative margin.
    let rate = select_bit_rate(delivered_pps, 5, 0.8);
    assert!(SUPPORTED_RATES_BPS.contains(&rate));
    assert!(rate >= 100);

    // The exchange at that rate succeeds at close range.
    let mut cfg = LinkConfig::fig10(0.10, rate, 1, 503);
    cfg.helper_pps = delivered_pps;
    cfg.payload = (0..24).map(|i| i % 5 < 2).collect();
    let run = run_uplink(&cfg);
    assert!(run.detected);
    assert_eq!(run.ber.errors(), 0, "exchange at {rate} bps failed");
}

/// Higher network load lets the reader command a higher rate — the §5
/// N/M rule end to end.
#[test]
fn busier_network_means_faster_tag() {
    let slow = select_bit_rate(500.0, 4, 0.9);
    let fast = select_bit_rate(4500.0, 4, 0.9);
    assert!(fast > slow, "fast {fast} slow {slow}");
    assert_eq!(fast, 1000);
}

/// Every supported rate's query round-trips over the downlink channel.
#[test]
fn all_query_rates_roundtrip_on_downlink() {
    for (i, &rate) in SUPPORTED_RATES_BPS.iter().enumerate() {
        let q = Query {
            tag_address: i as u8,
            payload_bits: 32,
            bit_rate_bps: rate,
            code_length: 1,
        };
        let cfg = DownlinkConfig::fig17(0.8, 20_000, 600 + i as u64);
        let got = run_downlink_frame(&cfg, &q.to_frame().unwrap()).expect("query lost");
        assert_eq!(Query::from_frame(&got), Some(q));
    }
}

/// An ACK is short enough to ride the slowest downlink rate comfortably.
#[test]
fn ack_fits_slowest_downlink() {
    let ack = Ack { tag_address: 9 };
    let cfg = DownlinkConfig::fig17(1.5, 5_000, 700);
    let got = run_downlink_frame(&cfg, &ack.to_frame()).expect("ack lost");
    assert_eq!(Ack::from_frame(&got), Some(ack));
}

/// Queries and ACKs never cross-parse.
#[test]
fn query_and_ack_do_not_cross_parse() {
    let q = Query {
        tag_address: 1,
        payload_bits: 8,
        bit_rate_bps: 100,
        code_length: 1,
    };
    let a = Ack { tag_address: 1 };
    assert!(Ack::from_frame(&q.to_frame().unwrap()).is_none());
    assert!(Query::from_frame(&a.to_frame()).is_none());
}

/// Inventory-then-query: multiple tags are singulated with the EPC-style
/// inventory (§2's pointer), then each identified tag is queried
/// individually over the real channel — after singulation only one tag
/// modulates at a time, which is the regime the whole paper operates in.
#[test]
fn inventory_then_query_each_tag() {
    use wifi_backscatter::multitag::{run_inventory, InventoryConfig, InventoryTag};

    let tags: Vec<InventoryTag> = (10u8..16).map(InventoryTag::new).collect();
    let mut rng = SimRng::new(900).stream("inventory");
    let result = run_inventory(&tags, InventoryConfig::default(), &mut rng);
    assert!(result.complete(&tags), "inventory missed tags");

    // Query the first three identified tags; each responds alone.
    for (i, &addr) in result.identified.iter().take(3).enumerate() {
        let q = Query {
            tag_address: addr,
            payload_bits: 16,
            bit_rate_bps: 100,
            code_length: 1,
        };
        let dl = DownlinkConfig::fig17(0.8, 20_000, 910 + i as u64);
        let got = run_downlink_frame(&dl, &q.to_frame().unwrap()).expect("query lost");
        assert_eq!(Query::from_frame(&got).unwrap().tag_address, addr);

        let mut ul = LinkConfig::fig10(0.15, 100, 30, 920 + i as u64);
        ul.payload = (0..16).map(|b| (addr as usize + b) % 3 == 0).collect();
        let run = run_uplink(&ul);
        assert!(run.perfect(), "tag {addr} response failed");
    }
}

/// A capture rebuilt from its columns decodes identically — the
/// capture/offline-decode split of the Intel CSI tool workflow — and the
/// rebuilt capture still carries the payload.
#[test]
fn trace_roundtrip_preserves_decodability() {
    use wifi_backscatter::link::capture_uplink;
    use wifi_backscatter::series::SeriesBundle;
    use wifi_backscatter::uplink::{UplinkDecoder, UplinkDecoderConfig};

    let mut cfg = LinkConfig::fig10(0.25, 100, 30, 930);
    cfg.payload = (0..20).map(|i| i % 4 < 2).collect();
    let cap = capture_uplink(&cfg);

    let columns = (0..cap.bundle.channels())
        .map(|c| cap.bundle.channel(c).to_vec())
        .collect();
    let restored = SeriesBundle::from_columns(cap.bundle.t_us().to_vec(), columns)
        .expect("a capture's own columns are well formed");
    assert_eq!(restored, cap.bundle);

    let dec = UplinkDecoder::new(UplinkDecoderConfig::csi(100, 20));
    let a = dec.decode(&cap.bundle, cap.start_us).expect("original");
    let b = dec.decode(&restored, cap.start_us).expect("restored");
    assert_eq!(a.bits, b.bits);
    assert_eq!(a.frame.unwrap().payload, cfg.payload);
}

/// A window ACK — the ARQ transport's cumulative + selective feedback —
/// rides the real downlink channel like any other control frame, and its
/// SACK semantics survive the trip.
#[test]
fn window_ack_roundtrips_on_downlink() {
    use wifi_backscatter::protocol::WindowAck;

    let wa = WindowAck {
        tag_address: 0x21,
        msg_id: 4,
        cumulative: 37,
        // Segments 38 and 41 received ahead of the cumulative edge.
        sack: 0b1001,
    };
    let cfg = DownlinkConfig::fig17(0.8, 20_000, 800);
    let got = run_downlink_frame(&cfg, &wa.to_frame()).expect("window ack lost");
    let parsed = WindowAck::from_frame(&got).expect("window ack failed to parse");
    assert_eq!(parsed, wa);
    assert!(
        parsed.acks(0) && parsed.acks(36),
        "below the cumulative edge"
    );
    assert!(parsed.acks(38) && parsed.acks(41), "selective bits");
    assert!(!parsed.acks(37) && !parsed.acks(39), "unacked holes");

    // None of the three control opcodes cross-parse.
    assert!(Ack::from_frame(&wa.to_frame()).is_none());
    assert!(Query::from_frame(&wa.to_frame()).is_none());
    assert!(WindowAck::from_frame(&Ack { tag_address: 0x21 }.to_frame()).is_none());
}
