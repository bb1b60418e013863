//! Multi-tag inventory over the physical channel.
//!
//! Three tags sit near one reader. The reader cannot query "everyone" —
//! simultaneous backscatter superposes on the channel and garbles the
//! decoder. So it first runs the
//! EPC-style slotted inventory (§2's pointer) at the protocol level, then
//! queries each identified tag *individually over the simulated channel*.
//!
//! Run with: `cargo run --release --example inventory`

use wifi_backscatter::prelude::*;

fn main() {
    println!("=== inventory, then query each tag ===\n");

    // Three battery-free sensors embedded in nearby objects.
    let tags = vec![
        InventoryTag::new(0x11),
        InventoryTag::new(0x22),
        InventoryTag::new(0x33),
    ];

    // Phase 1: singulation.
    let mut rng = SimRng::new(20140817).stream("inventory-example");
    let result = run_inventory(&tags, InventoryConfig::default(), &mut rng);
    println!(
        "inventory: identified {:?} in {} rounds / {} slots ({} collisions)\n",
        result
            .identified
            .iter()
            .map(|a| format!("0x{a:02X}"))
            .collect::<Vec<_>>(),
        result.rounds,
        result.slots,
        result.collisions
    );
    assert!(result.complete(&tags));

    // Phase 2: query each identified tag over the real channel; everyone
    // else keeps its switch parked (the inventory told them so).
    for (i, &addr) in result.identified.iter().enumerate() {
        let query = Query {
            tag_address: addr,
            payload_bits: 16,
            bit_rate_bps: 100,
            code_length: 1,
        };
        let dl = DownlinkConfig::fig17(0.7, 20_000, 5100 + i as u64);
        let delivered = run_downlink_frame(&dl, &query.to_frame().unwrap()).is_some();

        // The addressed tag backscatters a reading; it is the only
        // modulating tag, so the plain single-tag uplink applies.
        let reading = u16::from(addr) << 8 | 0x5A;
        let payload: Vec<bool> = (0..16).map(|b| (reading >> (15 - b)) & 1 == 1).collect();
        let ul = LinkConfig::fig10(0.20, 100, 30, 5200 + i as u64).with_payload(payload);
        let run = run_uplink(&ul);

        println!(
            "tag 0x{addr:02X}: query {} | response {} (reading 0x{reading:04X})",
            if delivered { "delivered" } else { "LOST" },
            if run.perfect() {
                "decoded ✓"
            } else {
                "errors"
            },
        );
    }

    println!(
        "\nslot cost: {:.1} slots per tag — framed slotted ALOHA with Q-adaptation",
        result.slots as f64 / tags.len() as f64
    );
}
