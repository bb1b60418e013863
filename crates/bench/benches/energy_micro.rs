//! The energy smoke bench: the energy co-simulation's acceptance gates.
//!
//! With `--json [path]` it writes its evidence to `path` (default
//! `BENCH_energy.json`; see `scripts/check.sh --bench-smoke`); without,
//! it only prints its gates. Exits non-zero if a gate fails:
//!
//! 1. **always-powered bit-identity** — with the energy model armed in
//!    always-powered mode, the golden fleet and gateway workloads
//!    reproduce the pre-energy engine exactly (legacy per-tag digest,
//!    delivered bytes, airtime — the pins hardcoded below were captured
//!    at the commit before the subsystem landed);
//! 2. **aware never trails naive** — on every paired wild-harvest run
//!    (same tags, same seed, same faults; only the polling policy
//!    differs) energy-aware DRR delivers at least naive DRR's aggregate
//!    goodput;
//! 3. **starving recovery** — in the starving-tag scenario naive
//!    polling wastes ≥ 30 % of its poll slots and energy-aware polling
//!    recovers at least half of those wasted slots, on every seed;
//! 4. **intermittent fleet determinism** — a 10⁵-tag fleet with tags
//!    browning out and recovering produces byte-identical `FleetRun`
//!    JSON across 1, 2 and 4 workers, with a pinned digest recorded in
//!    the evidence file.

use bs_bench::experiments::energy::{poll_waste, small_cap, starving_pair, STARVING_HARVEST_UW};
use bs_bench::object;
use bs_bench::report::{json_path, BenchReport, Value, Verdict};
use bs_channel::faults::FaultPlan;
use bs_dsp::rng::Fnv1a64;
use bs_net::fleet::{run_fleet, FleetConfig, FleetEnergyConfig, TagRecord};
use bs_net::gateway::{run_gateway, GatewayConfig, PollingPolicy, TagProfile};
use bs_tag::energy::{EnergyConfig, EnergyPolicy};
use std::process::ExitCode;
use std::time::Instant;

// ---------------------------------------------------------------------
// Pre-energy behaviour pins (identical to tests/energy_conformance.rs),
// captured at the commit before the energy subsystem landed.
// ---------------------------------------------------------------------

const FLEET_CLEAN_DIGEST: u64 = 0xdbcb924593a63613;
const FLEET_CLEAN_AIRTIME: u64 = 39_748_400;
const FLEET_LOSSY_DIGEST: u64 = 0x8d0d4cb9e5979e71;
const FLEET_LOSSY_AIRTIME: u64 = 43_997_296;
const GATEWAY_AIRTIME: u64 = 20_362_274;
const GATEWAY_DELIVERED: u64 = 512;

/// The legacy FNV-1a 64 digest over the pre-energy `TagRecord` fields.
fn legacy_digest(records: &[TagRecord]) -> u64 {
    let mut h = Fnv1a64::new();
    for t in records {
        for v in [
            t.tag as u64,
            t.gateway as u64,
            t.handoffs as u64,
            t.delivered_bytes,
            t.complete_epochs as u64,
            t.truncated_epochs as u64,
            t.last_latency_us,
        ] {
            h.write_u64(v);
        }
    }
    h.finish()
}

fn golden_fleet_cfg() -> FleetConfig {
    FleetConfig::default()
        .with_population(9, 5)
        .with_epochs(2)
        .with_seed(11)
}

fn gateway_tags(bytes: usize) -> Vec<TagProfile> {
    (0..4usize)
        .map(|i| {
            TagProfile::new(
                i as u8 + 1,
                (0..bytes).map(|b| ((b + i * 7) % 251) as u8).collect(),
            )
        })
        .collect()
}

/// Gate 1: always-powered mode reproduces the pre-energy engine bit for
/// bit on the golden workloads. Returns per-workload verdicts.
fn golden_gate() -> (bool, bool, bool) {
    let clean = run_fleet(
        &golden_fleet_cfg().with_energy(FleetEnergyConfig::always_powered()),
        2,
    )
    .expect("golden population fits");
    let clean_ok = legacy_digest(&clean.tag_records) == FLEET_CLEAN_DIGEST
        && clean.airtime_us == FLEET_CLEAN_AIRTIME
        && clean.brownouts == 0
        && clean.missed_polls == 0;

    let lossy = run_fleet(
        &golden_fleet_cfg()
            .with_faults(FaultPlan::preset("loss", 0.4, 5).expect("known preset"))
            .with_energy(FleetEnergyConfig::always_powered()),
        2,
    )
    .expect("golden population fits");
    let lossy_ok = legacy_digest(&lossy.tag_records) == FLEET_LOSSY_DIGEST
        && lossy.airtime_us == FLEET_LOSSY_AIRTIME
        && lossy.brownouts == 0;

    let powered: Vec<TagProfile> = gateway_tags(128)
        .into_iter()
        .map(|t| t.with_energy(EnergyConfig::always_powered()))
        .collect();
    let gw = run_gateway(
        &powered,
        &GatewayConfig::default()
            .with_faults(FaultPlan::preset("loss", 0.8, 3).expect("known preset"))
            .with_seed(42),
    )
    .expect("distinct addresses");
    let gw_ok = gw.airtime_us == GATEWAY_AIRTIME
        && gw
            .tags
            .iter()
            .map(|t| t.transfer.delivered_bytes)
            .sum::<u64>()
            == GATEWAY_DELIVERED
        && gw.missed_polls == 0;

    (clean_ok, lossy_ok, gw_ok)
}

/// Gate 2's paired wild-harvest runs: one starving tag at a swept
/// harvest level inside an otherwise healthy roster, lossy link, both
/// policies on the same seed.
fn wild_pair(harvest_uw: f64, seed: u64) -> (f64, f64) {
    let mut tags = gateway_tags(256);
    tags[0] = tags[0].clone().with_energy(EnergyConfig {
        capacitor: small_cap(),
        harvest_uw,
        policy: EnergyPolicy::SleepUntilCharged,
    });
    let base = GatewayConfig::default()
        .with_faults(FaultPlan::preset("loss", 0.6, 7).expect("known preset"))
        .with_seed(seed);
    let naive = run_gateway(&tags, &base).expect("distinct addresses");
    let aware = run_gateway(&tags, &base.with_polling(PollingPolicy::EnergyAware))
        .expect("distinct addresses");
    (naive.aggregate_goodput_bps(), aware.aggregate_goodput_bps())
}

/// Gate 4's deployment: 10⁵ tags on small reservoirs under an ambient
/// trickle near the listen draw, so a slice of the population is always
/// browning out or crawling back — without stalling whole sessions into
/// the cycle backstop.
fn intermittent_fleet_cfg() -> FleetConfig {
    let mut cfg = FleetConfig::default()
        .with_population(500, 200)
        .with_epochs(1)
        .with_faults(FaultPlan::preset("loss", 0.2, 31 ^ 0xF1EE_7000).expect("known preset"))
        .with_seed(31)
        .with_energy(FleetEnergyConfig {
            tx_power_dbm: 33.0,
            ambient_uw: 8.0,
            capacitor: small_cap(),
            policy: EnergyPolicy::SleepUntilCharged,
        });
    cfg.gateway.polling = PollingPolicy::EnergyAware;
    cfg
}

fn smoke() -> BenchReport {
    // Gate 1 — always-powered bit-identity against the pre-energy pins.
    let (clean_ok, lossy_ok, gw_ok) = golden_gate();
    let gate_golden = clean_ok && lossy_ok && gw_ok;

    // Gate 2 — aware ≥ naive on every paired wild-harvest run.
    let mut wild_rows: Vec<Value> = Vec::new();
    let mut gate_wild = true;
    for &harvest in &[2.0f64, 5.0, 8.0] {
        for seed in [1u64, 5, 9, 13, 17] {
            let (naive_bps, aware_bps) = wild_pair(harvest, seed);
            gate_wild &= aware_bps >= naive_bps;
            wild_rows.push(object! {
                "harvest_uw": harvest, "seed": seed, "naive_bps": naive_bps, "aware_bps": aware_bps,
            });
        }
    }

    // Gate 3 — starving scenario: naive wastes ≥30 % of its poll slots,
    // aware recovers ≥ half of the wasted slots.
    let mut starving_rows: Vec<Value> = Vec::new();
    let mut gate_starving = true;
    for seed in [1u64, 3, 5, 9, 13, 17] {
        let (naive, aware) = starving_pair(STARVING_HARVEST_UW, seed);
        let waste = poll_waste(&naive);
        let ok = waste >= 0.30
            && aware.missed_polls * 2 <= naive.missed_polls
            && aware.aggregate_goodput_bps() >= naive.aggregate_goodput_bps();
        gate_starving &= ok;
        starving_rows.push(object! {
            "seed": seed, "naive_polls": naive.polls, "naive_missed": naive.missed_polls,
            "naive_waste": waste, "aware_missed": aware.missed_polls,
            "naive_bps": naive.aggregate_goodput_bps(), "aware_bps": aware.aggregate_goodput_bps(),
            "ok": ok,
        });
    }

    // Gate 4 — 10⁵-tag intermittent fleet, byte-identical across jobs.
    let cfg = intermittent_fleet_cfg();
    let mut walls_ms: Vec<(usize, f64)> = Vec::new();
    let mut jsons: Vec<String> = Vec::new();
    let mut last = None;
    for jobs in [1usize, 2, 4] {
        let t0 = Instant::now();
        let run = run_fleet(&cfg, jobs).expect("acceptance population fits");
        walls_ms.push((jobs, t0.elapsed().as_secs_f64() * 1e3));
        jsons.push(run.to_json());
        last = Some(run);
    }
    let fleet = last.expect("three runs completed");
    let gate_fleet_jobs = jsons.iter().all(|j| j == &jsons[0]);
    let gate_fleet_stress = fleet.brownouts > 0 && fleet.recoveries > 0;

    let wall_rows: Vec<Value> = walls_ms
        .iter()
        .map(|&(jobs, ms)| object! { "jobs": jobs, "wall_ms": ms })
        .collect();
    let mut report = BenchReport::new("energy");
    report.field(
        "golden",
        object! {
            "fleet_clean_ok": clean_ok, "fleet_lossy_ok": lossy_ok, "gateway_ok": gw_ok,
        },
    );
    report.field("wild_pairs", wild_rows);
    report.field("starving", starving_rows);
    report.field("intermittent_fleet", object! {
        "gateways": 500u64, "tags_per_gateway": 200u64, "tags": fleet.tags, "epochs": 1u64,
        "seed": 31u64, "digest": format!("{:016x}", fleet.digest), "brownouts": fleet.brownouts,
        "recoveries": fleet.recoveries, "missed_polls": fleet.missed_polls, "polls": fleet.polls,
        "wall": wall_rows,
    });
    for (gate, ok, reason) in [
        (
            "always_powered_bit_identical",
            gate_golden,
            "drifted from the pre-energy pins",
        ),
        (
            "aware_ge_naive_on_all_wild_pairs",
            gate_wild,
            "aware trailed naive on a pair",
        ),
        (
            "starving_waste_recovered",
            gate_starving,
            "a seed missed its bounds",
        ),
        (
            "fleet_json_identical_across_jobs",
            gate_fleet_jobs,
            "JSON differs across worker counts",
        ),
        (
            "fleet_actually_intermittent",
            gate_fleet_stress,
            "no tag browned out",
        ),
    ] {
        report.gate(gate, Verdict::check(ok, reason));
    }
    println!(
        "BENCH_energy: fleet {} tags, {} brownouts / {} recoveries, digest {:016x}",
        fleet.tags, fleet.brownouts, fleet.recoveries, fleet.digest
    );
    report
}

fn main() -> ExitCode {
    smoke().finish(json_path("energy").as_deref())
}
