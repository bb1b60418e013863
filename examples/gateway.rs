//! Multi-tag gateway: several RF-powered tags share one reader.
//!
//! The gateway is the "internet connectivity" layer of the paper made
//! concrete: it singulates the tags with the slotted-ALOHA inventory,
//! opens a sliding-window ARQ session per tag, and serves the sessions
//! with a deficit round-robin scheduler on one simulated clock, adapting
//! each tag's chip rate to its helper cadence along the way. Everything
//! is seeded, so the run below reproduces bit-for-bit.
//!
//! Run with: `cargo run --release -p bs-net --example gateway`

use bs_dsp::obs::MemRecorder;
use bs_net::prelude::*;

fn message(n: usize, salt: u8) -> Vec<u8> {
    (0..n)
        .map(|i| (i as u8).wrapping_mul(37).wrapping_add(salt))
        .collect()
}

fn main() {
    println!("=== multi-tag gateway over one reader ===\n");

    // Three tags with different uploads and helper cadences. The slow
    // helper forces tag 3 onto a lower chip rate; the scheduler keeps
    // the shares fair anyway.
    let tags = vec![
        TagProfile::new(1, message(600, 1)),
        TagProfile::new(2, message(300, 2)),
        TagProfile::new(3, message(450, 3)).with_helper_pps(900.0),
    ];

    // A moderately hostile channel: packet loss and MAC duplication at
    // half severity — the regime the ARQ window exists for.
    let faults = FaultPlan::preset("loss", 0.5, 11).expect("known preset");
    let cfg = GatewayConfig::default().with_faults(faults).with_seed(11);

    let mut rec = MemRecorder::new();
    let run = run_gateway_with(&tags, &cfg, &mut rec).expect("unique tag addresses");

    println!(
        "inventory: {} tags singulated in {} rounds ({} slots, {} collisions)\n",
        run.inventory.identified.len(),
        run.inventory.rounds,
        run.inventory.slots,
        run.inventory.collisions
    );

    println!(
        "{:<5} {:>9} {:>10} {:>7} {:>6} {:>6} {:>12}",
        "tag", "bytes", "chip_bps", "rounds", "retx", "dups", "goodput_bps"
    );
    for t in &run.tags {
        println!(
            "{:<5} {:>9} {:>10} {:>7} {:>6} {:>6} {:>12.1}",
            t.address,
            t.transfer.delivered_bytes,
            t.final_chip_rate_bps,
            t.rounds_served,
            t.transfer.retransmissions,
            t.transfer.duplicate_segments,
            t.transfer.goodput_bps()
        );
    }

    println!(
        "\nall complete: {}   cycles: {}   fairness (Jain): {:.3}   aggregate: {:.1} bps",
        run.all_complete,
        run.cycles,
        run.fairness,
        run.aggregate_goodput_bps()
    );

    let obs = rec.into_report();
    println!("\nscheduler counters:");
    for key in [
        "net.sched-cycles",
        "net.sched-serves",
        "net.polls",
        "net.segments-sent",
        "net.retransmissions",
        "net.duplicate-acks",
        "net.rate-readapts",
    ] {
        println!("  {key:<24} {}", obs.counter(key));
    }

    assert!(run.all_complete, "every tag must deliver its full message");
    println!("\nevery tag delivered its message exactly — gateway done.");
}
