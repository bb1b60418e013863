//! Fleet sweep: aggregate goodput, Jain fairness and tail latency
//! versus deployment population.
//!
//! This backs the harness's `fleet` figure (not a paper figure — the
//! paper evaluates one reader; this measures the Figure-1 deployment
//! `bs_net::fleet` scales that reader to). Every point runs a full
//! sharded fleet — jittered gateway grid, tag mobility with handoff,
//! interference from coverage overlap — at a fixed loss floor, so the
//! figure shows how the headline metrics bend as the population grows
//! from hundreds to tens of thousands of tags.
//!
//! Seed partitioning follows the harness contract: every random draw in
//! the fleet derives from `(seed, entity id, epoch)` alone, so a point
//! reproduces byte-identically whatever the worker count — the figure
//! jobs run the engine single-threaded and let the harness scheduler
//! own the parallelism. Wall-clock scaling across engine workers is the
//! `fleet_micro` bench's job (`BENCH_fleet.json`), not the figure's:
//! wall times are the one non-deterministic output the harness tables
//! must never contain.

use bs_channel::faults::FaultPlan;
use bs_net::fleet::{run_fleet, FleetConfig, FleetRun};

/// The figure's population sweep: `(gateways, tags_per_gateway)`, kept
/// within the debug-profile budget. The 10⁵-tag acceptance point
/// (500 × 200) lives in the `fleet_micro` release bench.
pub const POPULATIONS: &[(usize, usize)] = &[(25, 40), (100, 40), (250, 80)];

/// Epochs per figure point: enough for one movement/handoff round on
/// top of the initial service pass.
pub const EPOCHS: u32 = 2;

/// One measured fleet point.
#[derive(Debug, Clone)]
pub struct FleetPoint {
    /// Gateways in the deployment.
    pub gateways: usize,
    /// Total tags.
    pub tags: u32,
    /// Aggregate goodput (bits per wall-clock simulated second).
    pub goodput_bps: f64,
    /// Jain fairness over per-tag delivered bytes.
    pub fairness: f64,
    /// Median per-tag service latency (µs).
    pub p50_us: f64,
    /// 99th-percentile per-tag service latency (µs).
    pub p99_us: f64,
    /// Handoffs applied across the run.
    pub handoffs: u64,
    /// Gateway-epochs that hit the cycle backstop.
    pub truncated_gateway_epochs: u32,
    /// Every tag completed every epoch.
    pub all_complete: bool,
    /// The run's per-tag FNV digest (the determinism fingerprint).
    pub digest: u64,
}

/// The sweep's standard deployment: a mild loss floor for interference
/// to build on, nominal mobility, the default gateway template.
pub fn fleet_config(gateways: usize, tags_per_gateway: usize, seed: u64) -> FleetConfig {
    FleetConfig::default()
        .with_population(gateways, tags_per_gateway)
        .with_epochs(EPOCHS)
        .with_faults(FaultPlan::preset("loss", 0.2, seed ^ 0xF1EE_7000).expect("known preset"))
        .with_seed(seed)
}

/// Measures one population point on `jobs` engine workers (the result
/// is independent of `jobs` by the fleet's determinism contract).
pub fn fleet_point(gateways: usize, tags_per_gateway: usize, jobs: usize, seed: u64) -> FleetPoint {
    let run = run_fleet(&fleet_config(gateways, tags_per_gateway, seed), jobs)
        .unwrap_or_else(|e| panic!("fleet point {gateways}x{tags_per_gateway} failed: {e}"));
    point_of(gateways, &run)
}

/// Folds a [`FleetRun`] into the figure's point shape.
pub fn point_of(gateways: usize, run: &FleetRun) -> FleetPoint {
    FleetPoint {
        gateways,
        tags: run.tags,
        goodput_bps: run.aggregate_goodput_bps,
        fairness: run.fairness,
        p50_us: run.latency_us_p50,
        p99_us: run.latency_us_p99,
        handoffs: run.handoffs,
        truncated_gateway_epochs: run.truncated_gateway_epochs,
        all_complete: run.all_complete,
        digest: run.digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_point_is_deterministic_and_worker_invariant() {
        let a = fleet_point(9, 6, 1, 5);
        let b = fleet_point(9, 6, 4, 5);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.goodput_bps, b.goodput_bps);
        assert_eq!(a.p99_us, b.p99_us);
    }

    #[test]
    fn mild_loss_floor_still_delivers() {
        let pt = fleet_point(9, 6, 2, 11);
        assert!(pt.all_complete, "severity-0.2 fleet must deliver");
        assert_eq!(pt.truncated_gateway_epochs, 0);
        assert!(pt.fairness > 0.9);
        assert!(pt.p99_us >= pt.p50_us && pt.p50_us > 0.0);
    }
}
