//! Conformance suite for the energy co-simulation (`bs_tag::energy`
//! threaded through session, gateway and fleet).
//!
//! The energy model's contract, pinned here:
//!
//! - **Bit-identity off and immortal** — with no energy config (and,
//!   independently, with the explicit always-powered config) the
//!   gateway and fleet reproduce the pre-energy engine *exactly*: the
//!   legacy per-tag digest, delivered bytes and airtime captured before
//!   this subsystem landed are hardcoded below and must never drift.
//! - **Physics sanity** — harvest falls with distance, and on paired
//!   seeds the brownout count is monotone non-decreasing as a tag moves
//!   away from its reader.
//! - **Scheduling safety** — the energy-aware polling policy never
//!   lowers aggregate goodput versus naive DRR on paired seeds: skips
//!   cost no airtime, so silence avoided is airtime saved.
//! - **Determinism** — the full [`FleetRun`] JSON stays byte-identical
//!   across worker counts with the energy model enabled.

use bs_channel::faults::FaultPlan;
use bs_dsp::rng::Fnv1a64;
use bs_net::fleet::FleetEnergyConfig;
use bs_net::gateway::PollingPolicy;
use bs_net::prelude::*;
use bs_tag::energy::{CapacitorConfig, EnergyConfig, EnergyPolicy};

// ---------------------------------------------------------------------
// Pre-energy behaviour pins, captured at the commit before this
// subsystem landed. The fleet digest here is the *legacy* 7-field
// per-tag digest (the live digest now also folds brownouts/recoveries,
// which are zero in these runs but change the byte stream).
// ---------------------------------------------------------------------

const FLEET_CLEAN_DIGEST: u64 = 0xdbcb924593a63613;
const FLEET_CLEAN_DELIVERED: u64 = 4320;
const FLEET_CLEAN_AIRTIME: u64 = 39_748_400;

const FLEET_LOSSY_DIGEST: u64 = 0x8d0d4cb9e5979e71;
const FLEET_LOSSY_DELIVERED: u64 = 4320;
const FLEET_LOSSY_AIRTIME: u64 = 43_997_296;

const GATEWAY_AIRTIME: u64 = 20_362_274;
const GATEWAY_CYCLES: u32 = 5;
const GATEWAY_DELIVERED: u64 = 512;

/// The legacy FNV-1a 64 digest over the pre-energy `TagRecord` fields,
/// reimplemented so the pins survive the record gaining
/// brownout/recovery counters.
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

fn fleet_clean_cfg() -> FleetConfig {
    FleetConfig::default()
        .with_population(9, 5)
        .with_epochs(2)
        .with_seed(11)
}

fn fleet_lossy_cfg() -> FleetConfig {
    fleet_clean_cfg().with_faults(FaultPlan::preset("loss", 0.4, 5).unwrap())
}

fn gateway_tags(n: usize, bytes: usize) -> Vec<TagProfile> {
    (0..n)
        .map(|i| {
            TagProfile::new(
                i as u8 + 1,
                (0..bytes).map(|b| ((b + i * 7) % 251) as u8).collect(),
            )
        })
        .collect()
}

fn gateway_cfg() -> GatewayConfig {
    GatewayConfig::default()
        .with_faults(FaultPlan::preset("loss", 0.8, 3).unwrap())
        .with_seed(42)
}

fn assert_fleet_pin(run: &FleetRun, digest: u64, delivered: u64, airtime: u64, label: &str) {
    assert_eq!(
        legacy_digest(&run.tag_records),
        digest,
        "{label}: legacy per-tag digest drifted from the pre-energy engine"
    );
    assert_eq!(run.delivered_bytes, delivered, "{label}: delivered bytes");
    assert_eq!(run.airtime_us, airtime, "{label}: airtime");
}

#[test]
fn energy_off_fleet_is_bit_identical_to_pre_energy_engine() {
    let clean = run_fleet(&fleet_clean_cfg(), 2).unwrap();
    assert_fleet_pin(
        &clean,
        FLEET_CLEAN_DIGEST,
        FLEET_CLEAN_DELIVERED,
        FLEET_CLEAN_AIRTIME,
        "clean fleet, energy off",
    );
    let lossy = run_fleet(&fleet_lossy_cfg(), 2).unwrap();
    assert_fleet_pin(
        &lossy,
        FLEET_LOSSY_DIGEST,
        FLEET_LOSSY_DELIVERED,
        FLEET_LOSSY_AIRTIME,
        "lossy fleet, energy off",
    );
}

#[test]
fn always_powered_fleet_is_bit_identical_to_pre_energy_engine() {
    for (cfg, digest, delivered, airtime, label) in [
        (
            fleet_clean_cfg(),
            FLEET_CLEAN_DIGEST,
            FLEET_CLEAN_DELIVERED,
            FLEET_CLEAN_AIRTIME,
            "clean fleet, always powered",
        ),
        (
            fleet_lossy_cfg(),
            FLEET_LOSSY_DIGEST,
            FLEET_LOSSY_DELIVERED,
            FLEET_LOSSY_AIRTIME,
            "lossy fleet, always powered",
        ),
    ] {
        let run = run_fleet(&cfg.with_energy(FleetEnergyConfig::always_powered()), 2).unwrap();
        assert_fleet_pin(&run, digest, delivered, airtime, label);
        assert_eq!(run.brownouts, 0, "{label}: immortal tags cannot brown out");
        assert_eq!(
            run.missed_polls, 0,
            "{label}: immortal tags answer every poll"
        );
    }
}

#[test]
fn energy_off_and_always_powered_gateway_match_pre_energy_pins() {
    let plain = run_gateway(&gateway_tags(4, 128), &gateway_cfg()).unwrap();
    let powered_tags: Vec<TagProfile> = gateway_tags(4, 128)
        .into_iter()
        .map(|t| t.with_energy(EnergyConfig::always_powered()))
        .collect();
    let powered = run_gateway(&powered_tags, &gateway_cfg()).unwrap();
    for (run, label) in [(&plain, "energy off"), (&powered, "always powered")] {
        assert_eq!(run.airtime_us, GATEWAY_AIRTIME, "{label}: airtime");
        assert_eq!(run.cycles, GATEWAY_CYCLES, "{label}: cycles");
        assert_eq!(
            run.tags
                .iter()
                .map(|t| t.transfer.delivered_bytes)
                .sum::<u64>(),
            GATEWAY_DELIVERED,
            "{label}: delivered"
        );
        assert!((run.fairness - 1.0).abs() < 1e-9, "{label}: fairness");
        assert!(
            (run.aggregate_goodput_bps() - 201.156315).abs() < 1e-3,
            "{label}: goodput {}",
            run.aggregate_goodput_bps()
        );
        assert_eq!(run.missed_polls, 0, "{label}: no polls missed");
    }
    // The per-tag transfers are identical byte for byte.
    for (a, b) in plain.tags.iter().zip(powered.tags.iter()) {
        assert_eq!(
            a.transfer, b.transfer,
            "tag {} transfer diverged",
            a.address
        );
    }
}

// ---------------------------------------------------------------------
// Physics: distance starves tags, monotonically on paired seeds.
// ---------------------------------------------------------------------

/// A deliberately small storage capacitor so brownouts happen within a
/// single gateway run.
fn small_cap() -> CapacitorConfig {
    CapacitorConfig {
        capacitance_uf: 10.0,
        ..CapacitorConfig::default()
    }
}

#[test]
fn harvest_falls_with_distance() {
    let e = FleetEnergyConfig::default();
    let mut prev = f64::INFINITY;
    for d in [1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 80.0] {
        let h = e.harvest_uw_at(d);
        assert!(h.is_finite() && h >= e.ambient_uw);
        assert!(
            h <= prev,
            "harvest must fall with distance: {h} µW at {d} m after {prev} µW"
        );
        prev = h;
    }
}

#[test]
fn brownout_count_is_monotone_in_distance_on_paired_seeds() {
    let e = FleetEnergyConfig::default();
    let distances = [2.0, 8.0, 20.0, 45.0];
    let mut per_distance = Vec::new();
    for &d in &distances {
        let mut brownouts = 0u64;
        for seed in [3u64, 7, 11] {
            let mut tags = gateway_tags(3, 192);
            tags[0] = tags[0].clone().with_energy(EnergyConfig {
                capacitor: small_cap(),
                harvest_uw: e.harvest_uw_at(d),
                policy: EnergyPolicy::SleepUntilCharged,
            });
            let cfg = GatewayConfig::default()
                .with_faults(FaultPlan::preset("loss", 0.5, 21).unwrap())
                .with_seed(seed);
            let run = run_gateway(&tags, &cfg).unwrap();
            brownouts += run
                .tags
                .iter()
                .filter_map(|t| t.energy)
                .map(|en| en.brownouts as u64)
                .sum::<u64>();
        }
        per_distance.push(brownouts);
    }
    for w in per_distance.windows(2) {
        assert!(
            w[0] <= w[1],
            "brownouts must not fall with distance: {per_distance:?} over {distances:?}"
        );
    }
    assert!(
        per_distance.last().unwrap() > per_distance.first().unwrap(),
        "the far tag must brown out more than the near one: {per_distance:?}"
    );
}

// ---------------------------------------------------------------------
// Scheduling: silence-aware backoff never costs goodput.
// ---------------------------------------------------------------------

#[test]
fn energy_aware_polling_never_lowers_goodput_on_paired_seeds() {
    for seed in [1u64, 5, 9, 13, 17] {
        let mut tags = gateway_tags(4, 256);
        tags[0] = tags[0].clone().with_energy(EnergyConfig {
            capacitor: small_cap(),
            harvest_uw: 5.0,
            policy: EnergyPolicy::SleepUntilCharged,
        });
        let base = GatewayConfig::default()
            .with_faults(FaultPlan::preset("loss", 0.6, 7).unwrap())
            .with_seed(seed);
        let naive = run_gateway(&tags, &base).unwrap();
        let aware = run_gateway(
            &tags,
            &base.clone().with_polling(PollingPolicy::EnergyAware),
        )
        .unwrap();
        assert!(
            aware.aggregate_goodput_bps() >= naive.aggregate_goodput_bps(),
            "seed {seed}: aware {} bps must not trail naive {} bps",
            aware.aggregate_goodput_bps(),
            naive.aggregate_goodput_bps()
        );
        assert!(
            aware.missed_polls <= naive.missed_polls,
            "seed {seed}: aware {} misses vs naive {}",
            aware.missed_polls,
            naive.missed_polls
        );
    }
}

// ---------------------------------------------------------------------
// Determinism with the energy model on.
// ---------------------------------------------------------------------

#[test]
fn fleet_json_is_byte_identical_across_jobs_with_energy_on() {
    let cfg = FleetConfig::default()
        .with_population(9, 6)
        .with_epochs(2)
        .with_seed(23)
        .with_faults(FaultPlan::preset("loss", 0.3, 31).unwrap())
        .with_energy(FleetEnergyConfig {
            tx_power_dbm: 24.0,
            ambient_uw: 0.5,
            capacitor: small_cap(),
            policy: EnergyPolicy::SleepUntilCharged,
        });
    let one = run_fleet(&cfg, 1).unwrap();
    let two = run_fleet(&cfg, 2).unwrap();
    let eight = run_fleet(&cfg, 8).unwrap();
    assert!(one.brownouts > 0, "the regime must actually stress tags");
    assert_eq!(one, two);
    assert_eq!(one.to_json(), eight.to_json());
    assert!(
        one.to_json().contains("\"brownouts\""),
        "energy counters must be inside the compared bytes"
    );
}
