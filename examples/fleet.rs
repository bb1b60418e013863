//! Fleet-scale simulation: hundreds of gateways, thousands of tags.
//!
//! The single-reader gateway example scales one room; this one scales
//! the deployment in the paper's Figure 1 — a grid of readers, each
//! serving its local tag population, with tags wandering between
//! coverage cells (handoff) and neighbouring readers stealing each
//! other's helper transmissions (interference). Sharded across worker
//! threads, yet byte-identical for any `jobs` count.
//!
//! Run with: `cargo run --release -p bs-net --example fleet`

use bs_net::prelude::*;

fn main() {
    println!("=== fleet: 100 gateways x 40 tags, 3 epochs ===\n");

    let cfg = FleetConfig::default()
        .with_population(100, 40)
        .with_epochs(3)
        .with_faults(FaultPlan::preset("loss", 0.2, 7).unwrap())
        .with_seed(7);

    let start = std::time::Instant::now();
    let run = run_fleet(&cfg, 4).expect("population fits the address space");
    let wall = start.elapsed();

    println!(
        "population: {} tags behind {} gateways",
        run.tags, run.gateways
    );
    println!(
        "delivered:  {} bytes, all complete: {}, truncated gateway-epochs: {}",
        run.delivered_bytes, run.all_complete, run.truncated_gateway_epochs
    );
    println!(
        "mobility:   {} handoffs applied, {} denied by the address-space cap",
        run.handoffs, run.handoffs_denied
    );
    println!(
        "goodput:    {:.0} bps aggregate, Jain fairness {:.3}",
        run.aggregate_goodput_bps, run.fairness
    );
    println!(
        "latency:    p50 {:.0} us, p90 {:.0} us, p99 {:.0} us",
        run.latency_us_p50, run.latency_us_p90, run.latency_us_p99
    );
    println!(
        "digest:     {:016x}  ({} ms wall)",
        run.digest,
        wall.as_millis()
    );

    // The determinism contract, demonstrated: a single-worker rerun
    // reproduces the sharded run byte for byte.
    let rerun = run_fleet(&cfg, 1).expect("same config");
    assert_eq!(run.to_json(), rerun.to_json());
    println!("\nsingle-worker rerun is byte-identical — fleet done.");
}
