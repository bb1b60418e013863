//! Energy co-simulation: an RF-powered tag browning out mid-session.
//!
//! The paper's tag is a power-harvesting device: it can only listen and
//! backscatter while its storage capacitor holds charge. This example
//! arms that budget on a small roster — one mains-like tag with a long
//! upload, three tags on 47 µF reservoirs fed by a 2 µW trickle that
//! cannot cover the 10 µW listen draw — and runs the same workload
//! under both polling policies on the same seed:
//!
//! - **naive** deficit round-robin polls a browned-out tag every cycle,
//!   burning a query plus a response window of airtime on silence;
//! - **energy-aware** DRR watches consecutive silent polls (it never
//!   reads the capacitor — the reader can't) and backs a silent tag off
//!   exponentially, spending the saved airtime on tags that can talk.
//!
//! It ends with the budget behind the brownouts: a query decode's energy
//! with the MCU duty-cycled (§4.2) or awake, and a capacitor ride-through.
//!
//! Run with: `cargo run --release -p bs-net --example energy`

use bs_dsp::obs::MemRecorder;
use bs_net::gateway::PollingPolicy;
use bs_net::prelude::*;
use bs_tag::energy::{
    Capacitor, CapacitorConfig, EnergyConfig, EnergyPolicy, EnergyState, LISTEN_LOAD_UW,
};
use bs_tag::{harvester, power::EnergyLedger};

fn message(n: usize, salt: u8) -> Vec<u8> {
    (0..n)
        .map(|i| (i as u8).wrapping_mul(37).wrapping_add(salt))
        .collect()
}

fn starving_supply() -> EnergyConfig {
    EnergyConfig {
        capacitor: CapacitorConfig {
            capacitance_uf: 47.0,
            ..CapacitorConfig::default()
        },
        harvest_uw: 2.0,
        policy: EnergyPolicy::SleepUntilCharged,
    }
}

fn report(label: &str, run: &GatewayRun) {
    println!("--- {label} ---");
    println!(
        "{:<5} {:>9} {:>8} {:>10} {:>10} {:>12}",
        "tag", "bytes", "misses", "brownouts", "recoveries", "charge_uj"
    );
    for t in &run.tags {
        match t.energy {
            Some(e) => println!(
                "{:<5} {:>9} {:>8} {:>10} {:>10} {:>12.1}",
                t.address,
                t.transfer.delivered_bytes,
                e.missed_polls,
                e.brownouts,
                e.recoveries,
                e.final_charge_uj
            ),
            None => println!(
                "{:<5} {:>9} {:>8} {:>10} {:>10} {:>12}",
                t.address, t.transfer.delivered_bytes, "-", "-", "-", "mains"
            ),
        }
    }
    println!(
        "polls: {}   wasted on silence: {}   aggregate: {:.1} bps\n",
        run.polls,
        run.missed_polls,
        run.aggregate_goodput_bps()
    );
}

fn main() {
    println!("=== harvest-store-spend: polling tags that brown out ===\n");

    let mut tags = vec![TagProfile::new(1, message(2048, 1))];
    for addr in 2..=4u8 {
        tags.push(TagProfile::new(addr, message(256, addr)).with_energy(starving_supply()));
    }

    let base = GatewayConfig::default()
        .with_faults(FaultPlan::preset("loss", 0.3, 7).expect("known preset"))
        .with_seed(3);

    let naive = run_gateway(&tags, &base).expect("unique tag addresses");
    report("naive DRR (polls the dead)", &naive);

    let mut rec = MemRecorder::new();
    let aware = run_gateway_with(
        &tags,
        &base.with_polling(PollingPolicy::EnergyAware),
        &mut rec,
    )
    .expect("unique tag addresses");
    report("energy-aware DRR (silence-driven backoff)", &aware);

    let skips = rec.into_report().counter("net.energy-skips");
    println!(
        "the estimator skipped {skips} poll slots it predicted would be silent;\n\
         wasted polls fell {} -> {} and goodput rose {:.1} -> {:.1} bps",
        naive.missed_polls,
        aware.missed_polls,
        naive.aggregate_goodput_bps(),
        aware.aggregate_goodput_bps()
    );

    assert!(aware.missed_polls < naive.missed_polls);
    assert!(aware.aggregate_goodput_bps() >= naive.aggregate_goodput_bps());
    let browned: u32 = naive
        .tags
        .iter()
        .filter_map(|t| t.energy)
        .map(|e| e.brownouts)
        .sum();
    assert!(browned > 0, "the starving tags must actually brown out");

    // A 96-bit query (4.8 ms) decode, and a full capacitor at 1 m from +16 dBm.
    let mut cycled = EnergyLedger::new();
    cycled.analog(4_800.0, true, false);
    cycled.wakeups(20); // preamble edges
    cycled.samples(96); // one mid-bit sample per bit
    cycled.mcu_sleep(4_800.0);
    let mut awake = EnergyLedger::new();
    awake.analog(4_800.0, true, false);
    awake.mcu_active(4_800.0);
    let (cycled, awake) = (cycled.total_uj(), awake.total_uj());
    println!("\none query decode: {cycled:.3} µJ duty-cycled vs {awake:.3} µJ awake");
    let harvest = harvester::harvested_uw(harvester::wifi_incident_dbm(16.0, 1.0));
    let mut cap = Capacitor::new(CapacitorConfig::default());
    let ms = (1..=1_000_000u32)
        .find(|_| cap.advance(1_000.0, harvest, LISTEN_LOAD_UW) == EnergyState::Dead)
        .expect("the 1 m harvest is below the listen load");
    println!(
        "at 1 m ({harvest:.2} µW in, {LISTEN_LOAD_UW} µW out) a full 100 µF store listens {:.1} s",
        f64::from(ms) / 1e3
    );
    println!("\nevery starving tag browned out and the backoff paid for itself — energy done.");
}
