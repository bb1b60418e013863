//! Quickstart: one complete Wi-Fi Backscatter query-response exchange.
//!
//! A Wi-Fi reader (e.g. a phone) asks a battery-free tag for a sensor
//! reading:
//!
//! 1. **Downlink** — the reader encodes a query as short Wi-Fi packets and
//!    silences inside a CTS_to_SELF reservation; the tag's ~µW analog
//!    receiver decodes it.
//! 2. **Uplink** — the tag toggles its backscatter switch; the reader
//!    decodes the reply from per-packet CSI perturbations on the helper's
//!    traffic.
//!
//! Run with: `cargo run --release --example quickstart`

use wifi_backscatter::prelude::*;

fn main() {
    println!("=== Wi-Fi Backscatter quickstart ===\n");

    // --- Downlink: reader → tag, 60 cm apart, 20 kbps -------------------
    let query = Query {
        tag_address: 0x17,
        payload_bits: 16,
        bit_rate_bps: 100,
        code_length: 1,
    };
    println!(
        "reader: sending query to tag 0x{:02x} (asking for {} bits at {} bps)",
        query.tag_address, query.payload_bits, query.bit_rate_bps
    );
    let dl = DownlinkConfig::fig17(0.6, 20_000, 7);
    let received = run_downlink_frame(&dl, &query.to_frame().unwrap())
        .expect("tag failed to decode the query at 60 cm");
    let decoded_query = Query::from_frame(&received).expect("frame was not a query");
    assert_eq!(decoded_query, query);
    println!(
        "tag:    decoded the query (CRC ok) — will respond at {} bps\n",
        decoded_query.bit_rate_bps
    );

    // --- Uplink: tag → reader, tag 20 cm from the reader ----------------
    // The "sensor reading" the tag backscatters: 16 bits.
    let reading: u16 = 0x2A5C; // e.g. a temperature ADC value
    let payload: Vec<bool> = (0..16).map(|i| (reading >> (15 - i)) & 1 == 1).collect();
    println!("tag:    backscattering reading 0x{reading:04X} by toggling its RF switch");

    let ul =
        LinkConfig::fig10(0.20, decoded_query.bit_rate_bps, 30, 42).with_payload(payload.clone());
    let run = run_uplink(&ul);

    println!(
        "reader: observed {} helper packets ({:.0} per tag bit), preamble {}",
        run.packets_used,
        run.pkts_per_bit,
        if run.detected {
            "detected"
        } else {
            "NOT detected"
        }
    );
    let bits: Option<Vec<bool>> = run.decoded.iter().copied().collect();
    match bits {
        Some(bits) if bits == payload => {
            let mut value = 0u16;
            for b in &bits {
                value = (value << 1) | u16::from(*b);
            }
            println!("reader: decoded reading 0x{value:04X} — matches what the tag sent ✓");
        }
        Some(bits) => {
            let errors = bits.iter().zip(&payload).filter(|(a, b)| a != b).count();
            println!("reader: decoded with {errors} bit error(s)");
        }
        None => println!("reader: decode had erasures"),
    }
    println!(
        "\nuplink BER counter: {} errors / {} bits",
        run.ber.errors(),
        run.ber.bits()
    );
}
