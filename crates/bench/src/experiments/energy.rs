//! Energy sweep: delivered goodput, poll-waste and brownout rate versus
//! harvest regime × polling policy.
//!
//! This backs the harness's `energy` figure (not a paper figure — §6 of
//! the paper measures the prototype's power budget; this measures what
//! that budget *does* to a deployment once the harvest-store-spend loop
//! is closed). Every point runs the sharded fleet with the energy
//! co-simulation armed: tags harvest from their grid distance to the
//! reader, store in a small capacitor, brown out when the balance goes
//! negative and miss their polls until they recover. The two polling
//! policies are run on **paired seeds** — same topology, same initial
//! charges, same fault draws — so the only difference between a `naive`
//! and an `aware` row is the scheduler's reaction to silence.
//!
//! Seed partitioning follows the harness contract: per-tag initial
//! charge comes from a tag-keyed stream and harvest is a pure function
//! of position, so a point reproduces byte-identically whatever the
//! worker count.

use bs_channel::faults::FaultPlan;
use bs_net::fleet::{run_fleet, FleetConfig, FleetEnergyConfig, FleetRun};
use bs_net::gateway::{run_gateway, GatewayConfig, GatewayRun, PollingPolicy, TagProfile};
use bs_tag::energy::{CapacitorConfig, EnergyConfig, EnergyPolicy};

/// The figure's harvest regimes: `(name, reader tx dBm, ambient µW)`.
/// The listen draw is 10 µW, so `strong`'s ambient floor sustains a
/// listening tag anywhere in the cell, `weak` starves the cell edge
/// (RF harvest must make up the deficit), and `famine` browns out most
/// of the population.
pub const REGIMES: &[(&str, f64, f64)] = &[
    ("strong", 36.0, 12.0),
    ("weak", 30.0, 4.0),
    ("famine", 24.0, 0.5),
];

/// Figure deployment: `(gateways, tags_per_gateway)` — small enough for
/// the debug-profile budget, large enough for a distance spread.
pub const POPULATION: (usize, usize) = (9, 6);

/// Epochs per figure point.
pub const EPOCHS: u32 = 2;

/// The figure's storage element: a 10 µF capacitor (20 µJ full) so the
/// harvest regimes separate within one epoch instead of after hours of
/// simulated time.
pub fn small_cap() -> CapacitorConfig {
    CapacitorConfig {
        capacitance_uf: 10.0,
        ..CapacitorConfig::default()
    }
}

/// One measured energy point.
#[derive(Debug, Clone)]
pub struct EnergyPoint {
    /// Harvest regime name (see [`REGIMES`]).
    pub regime: &'static str,
    /// Polling policy the gateways ran.
    pub policy: PollingPolicy,
    /// Total tags.
    pub tags: u32,
    /// Aggregate goodput (bits per wall-clock simulated second).
    pub goodput_bps: f64,
    /// Bytes delivered fleet-wide.
    pub delivered_bytes: u64,
    /// Poll slots scheduled fleet-wide.
    pub polls: u64,
    /// Poll slots wasted on silent (browned-out) tags.
    pub missed_polls: u64,
    /// `missed_polls / polls` (0 when no polls were scheduled).
    pub poll_waste: f64,
    /// Brownouts per tag across the run.
    pub brownout_rate: f64,
    /// Recoveries fleet-wide.
    pub recoveries: u64,
    /// The run's per-tag FNV digest (the determinism fingerprint).
    pub digest: u64,
}

/// The sweep's deployment for one `(regime, policy)` cell: the standard
/// fleet with the energy model armed and a small storage element.
fn energy_fleet_config(
    tx_power_dbm: f64,
    ambient_uw: f64,
    polling: PollingPolicy,
    seed: u64,
) -> FleetConfig {
    let mut cfg = FleetConfig::default()
        .with_population(POPULATION.0, POPULATION.1)
        .with_epochs(EPOCHS)
        .with_faults(FaultPlan::preset("loss", 0.2, seed ^ 0xE4E2_6100).expect("known preset"))
        .with_seed(seed)
        .with_energy(FleetEnergyConfig {
            tx_power_dbm,
            ambient_uw,
            capacitor: small_cap(),
            policy: EnergyPolicy::SleepUntilCharged,
        });
    cfg.gateway.polling = polling;
    cfg
}

/// Measures one `(regime, policy)` cell; the paired seed means the
/// `naive` and `aware` rows of a regime differ only in scheduling.
pub fn energy_point(
    regime: &'static str,
    tx_power_dbm: f64,
    ambient_uw: f64,
    policy: PollingPolicy,
    seed: u64,
) -> EnergyPoint {
    let run = run_fleet(
        &energy_fleet_config(tx_power_dbm, ambient_uw, policy, seed),
        1,
    )
    .expect("sweep population fits the address space");
    point_of(regime, policy, &run)
}

/// Folds a [`FleetRun`] into the figure's point shape.
pub fn point_of(regime: &'static str, policy: PollingPolicy, run: &FleetRun) -> EnergyPoint {
    EnergyPoint {
        regime,
        policy,
        tags: run.tags,
        goodput_bps: run.aggregate_goodput_bps,
        delivered_bytes: run.delivered_bytes,
        polls: run.polls,
        missed_polls: run.missed_polls,
        poll_waste: if run.polls > 0 {
            run.missed_polls as f64 / run.polls as f64
        } else {
            0.0
        },
        brownout_rate: run.brownouts as f64 / run.tags.max(1) as f64,
        recoveries: run.recoveries,
        digest: run.digest,
    }
}

/// The starving-tag acceptance scenario: one immortal tag with a long
/// transfer keeps the reader busy while three starving tags — 47 µF
/// reservoirs against a 2 µW trickle that cannot cover the 10 µW listen
/// draw — drain, brown out and stay dark for seconds at a stretch. A
/// naive scheduler keeps burning query-plus-window airtime on their
/// silence every cycle; the energy-aware backoff converts most of those
/// slots into service for the tag that can still talk.
fn starving_tags(harvest_uw: f64) -> Vec<TagProfile> {
    (0..4u8)
        .map(|i| {
            let bytes = if i == 0 { 2048 } else { 256 };
            let profile = TagProfile::new(
                i + 1,
                (0..bytes)
                    .map(|b: usize| ((b + i as usize * 7) % 251) as u8)
                    .collect(),
            );
            if i == 0 {
                profile // one immortal tag keeps the gateway busy
            } else {
                profile.with_energy(EnergyConfig {
                    capacitor: CapacitorConfig {
                        capacitance_uf: 47.0,
                        ..CapacitorConfig::default()
                    },
                    harvest_uw,
                    policy: EnergyPolicy::SleepUntilCharged,
                })
            }
        })
        .collect()
}

/// The starving scenario's trickle harvest (µW): far below the listen
/// draw, so a browned-out tag needs tens of simulated seconds to crawl
/// back to its wake threshold.
pub const STARVING_HARVEST_UW: f64 = 2.0;

/// Runs the starving scenario under both policies on one paired seed:
/// `(naive, aware)`.
pub fn starving_pair(harvest_uw: f64, seed: u64) -> (GatewayRun, GatewayRun) {
    let tags = starving_tags(harvest_uw);
    let base = GatewayConfig::default()
        .with_faults(FaultPlan::preset("loss", 0.3, 7).expect("known preset"))
        .with_seed(seed);
    let naive = run_gateway(&tags, &base).expect("distinct addresses");
    let aware = run_gateway(&tags, &base.with_polling(PollingPolicy::EnergyAware))
        .expect("distinct addresses");
    (naive, aware)
}

/// `missed_polls / polls` of one gateway run.
pub fn poll_waste(run: &GatewayRun) -> f64 {
    if run.polls == 0 {
        return 0.0;
    }
    run.missed_polls as f64 / run.polls as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_point_is_deterministic_and_worker_invariant() {
        let (_, tx, amb) = REGIMES[2];
        let cfg = energy_fleet_config(tx, amb, PollingPolicy::Naive, 5);
        let a = run_fleet(&cfg, 1).unwrap();
        let b = run_fleet(&cfg, 4).unwrap();
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn famine_wastes_polls_where_strong_does_not() {
        let strong = energy_point(
            "strong",
            REGIMES[0].1,
            REGIMES[0].2,
            PollingPolicy::Naive,
            9,
        );
        let famine = energy_point(
            "famine",
            REGIMES[2].1,
            REGIMES[2].2,
            PollingPolicy::Naive,
            9,
        );
        assert!(
            famine.poll_waste > strong.poll_waste,
            "famine {:.3} vs strong {:.3} poll waste",
            famine.poll_waste,
            strong.poll_waste
        );
        assert!(
            famine.goodput_bps < strong.goodput_bps,
            "famine {:.1} bps must trail strong {:.1} bps",
            famine.goodput_bps,
            strong.goodput_bps
        );
        assert!(famine.brownout_rate > 0.0);
    }

    #[test]
    fn starving_scenario_meets_the_acceptance_shape() {
        let (naive, aware) = starving_pair(STARVING_HARVEST_UW, 3);
        assert!(
            poll_waste(&naive) >= 0.30,
            "naive must waste ≥30% of slots, got {:.3}",
            poll_waste(&naive)
        );
        assert!(
            aware.missed_polls * 2 <= naive.missed_polls,
            "aware must recover ≥ half the wasted slots: {} vs {}",
            aware.missed_polls,
            naive.missed_polls
        );
        assert!(aware.aggregate_goodput_bps() >= naive.aggregate_goodput_bps());
        assert!(!naive.truncated && !aware.truncated);
    }
}
