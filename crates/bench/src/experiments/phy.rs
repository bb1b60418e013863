//! PHY figure: tag goodput vs helper-traffic rate, presence capture vs
//! codeword translation.
//!
//! This backs the harness's `phy` figure (not a paper figure — the
//! paper's tag only has the presence PHY; this measures codeword
//! translation, [`wifi_backscatter::phy::PhyConfig::Codeword`], against
//! it). Both modes run
//! the *same* question at each operating point: how many correct
//! payload bits per second of simulated air does one uplink exchange
//! deliver, as the helper's packet cadence sweeps from a quiet network
//! to a busy one?
//!
//! The modes scale oppositely with traffic. Presence needs several
//! helper packets per *chip* plus a ~2.4 s conditioning lead, so its
//! goodput is capped by the §5 rate table (≤ 1 kbps on the wire) and
//! the lead dominates short frames. Codeword translation XORs phase
//! flips onto in-flight helper frames — every 4 µs data symbol is a
//! free carrier, no dedicated airtime, no conditioning lead — so its
//! bit rate rides the helper's own frame rate (tens of kbps at office
//! cadences), the FreeRider result.
//!
//! Determinism: per-run seeds derive from the master seed by
//! golden-ratio increments exactly like the `net`/`fec` sweeps, and
//! both modes at a given `(helper_pps, run)` use the same seed, so the
//! paired ratio the `phy_micro` gate checks is a pure function of the
//! master seed.

use bs_dsp::SimRng;
use wifi_backscatter::link::LinkConfig;
use wifi_backscatter::phy::{run_uplink, PhyConfig};

/// Payload bits each exchange carries.
pub const PAYLOAD_BITS: usize = 128;

/// Tag↔reader distance (m). Close enough that *both* modes decode
/// cleanly — the figure isolates rate, not range.
pub const DISTANCE_M: f64 = 0.3;

/// Helper cadences swept (packets/s): quiet, light office, the paper's
/// nominal busy channel, heavy, and saturated.
pub const HELPER_PPS: &[f64] = &[500.0, 1_000.0, 3_000.0, 6_000.0, 12_000.0];

/// One measured `(mode, helper_pps)` point.
#[derive(Debug, Clone, PartialEq)]
pub struct PhyPoint {
    /// PHY mode of this point ([`PhyCapabilities::name`]).
    ///
    /// [`PhyCapabilities::name`]: wifi_backscatter::phy::PhyCapabilities::name
    pub mode: &'static str,
    /// Helper cadence (packets/s).
    pub helper_pps: f64,
    /// Commanded uplink bit rate (bps) — the mode's own rate selection
    /// at this cadence.
    pub bit_rate_bps: u64,
    /// Mean goodput across the runs: correct payload bits per simulated
    /// second of exchange airtime (undetected runs contribute 0).
    pub goodput_bps: f64,
    /// Runs where the preamble was detected.
    pub detected_runs: u64,
    /// Total bit errors (erasures included) across the runs.
    pub bit_errors: u64,
    /// Per-run goodput, index = run — for paired mode-vs-mode gates at
    /// the same `(helper_pps, run, seed)`.
    pub per_run_goodput: Vec<f64>,
}

/// The deterministic payload every run transmits.
fn phy_payload() -> Vec<bool> {
    (0..PAYLOAD_BITS).map(|i| (i * 29 + 3) % 5 < 2).collect()
}

/// Correct payload bits per second of exchange airtime for one run.
fn run_goodput(run: &wifi_backscatter::link::UplinkRun) -> f64 {
    if !run.detected || run.elapsed_us == 0 {
        return 0.0;
    }
    let correct = run
        .transmitted
        .iter()
        .zip(run.decoded.iter())
        .filter(|(tx, rx)| **rx == Some(**tx))
        .count();
    correct as f64 / (run.elapsed_us as f64 / 1e6)
}

/// Measures one point of the sweep over `runs` seeded exchanges.
pub fn phy_point(phy: &PhyConfig, helper_pps: f64, runs: u64, seed: u64) -> PhyPoint {
    // Each mode commands the rate its own capabilities would pick — the
    // same decision the session layer makes.
    let caps = phy.capabilities();
    let bit_rate = caps.select_rate_bps(helper_pps, 5, 0.8);
    let mut goodput_sum = 0.0;
    let mut detected_runs = 0;
    let mut bit_errors = 0;
    let mut per_run_goodput = Vec::with_capacity(runs as usize);
    for r in 0..runs {
        let run_seed = SimRng::run_seed(seed, r);
        let mut cfg = LinkConfig::fig10(DISTANCE_M, bit_rate, 5, run_seed);
        cfg.helper_pps = helper_pps;
        cfg.payload = phy_payload();
        cfg.phy = *phy;
        let run = run_uplink(&cfg);
        let g = run_goodput(&run);
        goodput_sum += g;
        per_run_goodput.push(g);
        if run.detected {
            detected_runs += 1;
        }
        bit_errors += run.ber.errors();
    }
    PhyPoint {
        mode: caps.name,
        helper_pps,
        bit_rate_bps: bit_rate,
        goodput_bps: goodput_sum / runs.max(1) as f64,
        detected_runs,
        bit_errors,
        per_run_goodput,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phy_point_is_deterministic() {
        let a = phy_point(&PhyConfig::Codeword, 3_000.0, 2, 5);
        let b = phy_point(&PhyConfig::Codeword, 3_000.0, 2, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn codeword_outpaces_presence_at_nominal_cadence() {
        let p = phy_point(&PhyConfig::Presence, 3_000.0, 2, 7);
        let c = phy_point(&PhyConfig::Codeword, 3_000.0, 2, 7);
        assert_eq!(p.detected_runs, 2);
        assert_eq!(c.detected_runs, 2);
        assert!(
            c.goodput_bps > 10.0 * p.goodput_bps,
            "codeword {} bps vs presence {} bps",
            c.goodput_bps,
            p.goodput_bps
        );
    }

    #[test]
    fn codeword_rate_follows_helper_cadence() {
        let slow = phy_point(&PhyConfig::Codeword, 500.0, 1, 9);
        let fast = phy_point(&PhyConfig::Codeword, 12_000.0, 1, 9);
        assert!(fast.bit_rate_bps > slow.bit_rate_bps);
        assert!(fast.goodput_bps > slow.goodput_bps);
    }
}
