//! End-to-end integration: the full query-response exchange of §2 across
//! the real downlink and uplink channel simulations.

use wifi_backscatter::link::{DownlinkConfig, LinkConfig};
use wifi_backscatter::phy::{run_downlink_frame, run_uplink};
use wifi_backscatter::protocol::{Ack, Query};

/// The canonical round trip: the reader queries, the tag answers, the
/// reader acknowledges — each leg over its simulated channel.
#[test]
fn full_query_response_ack_roundtrip() {
    // 1. Downlink query at 1 m, 20 kbps.
    let query = Query {
        tag_address: 0x42,
        payload_bits: 24,
        bit_rate_bps: 100,
        code_length: 1,
    };
    let dl = DownlinkConfig::fig17(1.0, 20_000, 1001);
    let received =
        run_downlink_frame(&dl, &query.to_frame().unwrap()).expect("query lost on downlink");
    let parsed = Query::from_frame(&received).expect("tag failed to parse query");
    assert_eq!(parsed, query);

    // 2. Uplink response at the commanded rate, tag 15 cm from reader.
    let reading: u32 = 0xB0_5713;
    let payload: Vec<bool> = (0..parsed.payload_bits)
        .map(|i| (reading >> (23 - i)) & 1 == 1)
        .collect();
    let mut ul = LinkConfig::fig10(0.15, parsed.bit_rate_bps, 30, 1002);
    ul.payload = payload.clone();
    let run = run_uplink(&ul);
    assert!(run.detected, "reader missed the tag's preamble");
    assert_eq!(run.ber.errors(), 0, "uplink errors: {:?}", run.decoded);

    // 3. Downlink ACK.
    let ack = Ack {
        tag_address: query.tag_address,
    };
    let got = run_downlink_frame(&DownlinkConfig::fig17(1.0, 20_000, 1003), &ack.to_frame())
        .expect("ack lost");
    assert_eq!(Ack::from_frame(&got), Some(ack));
}

/// A query that commands the coded long-range mode, answered from 1.4 m —
/// beyond the plain decoder's range.
#[test]
fn coded_long_range_exchange() {
    let query = Query {
        tag_address: 7,
        payload_bits: 12,
        bit_rate_bps: 100,
        code_length: 20,
    };
    // Downlink still works at 1.4 m.
    let dl = DownlinkConfig::fig17(1.4, 20_000, 2001);
    let received = run_downlink_frame(&dl, &query.to_frame().unwrap()).expect("query lost");
    let parsed = Query::from_frame(&received).unwrap();
    assert!(parsed.is_coded());

    // Uplink with the commanded code length.
    let payload: Vec<bool> = (0..12).map(|i| i % 3 == 0).collect();
    let mut ul = LinkConfig::fig10(1.4, parsed.bit_rate_bps, 10, 2002);
    ul.payload = payload.clone();
    ul.code_length = usize::from(parsed.code_length);
    let run = run_uplink(&ul);
    assert!(run.detected);
    assert!(
        run.ber.errors() <= 1,
        "coded uplink at 1.4 m: {} errors",
        run.ber.errors()
    );
}

/// Retransmission: if the tag misses a query (too far / bad luck), the
/// reader retries until it gets through (§4.1's query-response rule).
#[test]
fn reader_retries_until_query_delivered() {
    let query = Query {
        tag_address: 1,
        payload_bits: 8,
        bit_rate_bps: 200,
        code_length: 1,
    };
    // 2.9 m: marginal downlink at 20 kbps — some attempts fail.
    let mut delivered = false;
    let mut attempts = 0;
    for attempt in 0..20 {
        attempts += 1;
        let dl = DownlinkConfig::fig17(2.9, 20_000, 3000 + attempt);
        if let Some(f) = run_downlink_frame(&dl, &query.to_frame().unwrap()) {
            if Query::from_frame(&f) == Some(query.clone()) {
                delivered = true;
                break;
            }
        }
    }
    assert!(delivered, "query never delivered in {attempts} attempts");
}

/// Determinism: the same seeds produce bit-identical outcomes.
#[test]
fn end_to_end_is_deterministic() {
    let mk = || {
        let mut cfg = LinkConfig::fig10(0.25, 100, 30, 4001);
        cfg.payload = (0..16).map(|i| i % 2 == 1).collect();
        run_uplink(&cfg)
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.decoded, b.decoded);
    assert_eq!(a.ber.errors(), b.ber.errors());
    assert_eq!(a.packets_used, b.packets_used);
}
