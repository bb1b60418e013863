//! Fault-injection sweep: BER under each preset fault scenario with the
//! link-layer mitigations off versus on.
//!
//! This backs the harness's `faults` figure (not a paper figure — the
//! paper measures the clean testbed; this measures how gracefully the
//! reproduction's link stack degrades when the testbed misbehaves). Each
//! point follows the same seed-partitioning contract as every other
//! experiment: the per-run seeds derive from the point coordinates alone,
//! and the fault streams derive from the plan seed alone, so the sweep is
//! byte-deterministic under any `--jobs`.

use bs_channel::faults::FaultPlan;
use bs_dsp::bits::BerCounter;
use bs_dsp::SimRng;
use wifi_backscatter::link::{DegradationReport, LinkConfig, Measurement};
use wifi_backscatter::phy::run_uplink;

/// One measured `(scenario, severity, mitigated)` point.
#[derive(Debug, Clone)]
pub struct FaultPoint {
    /// Preset scenario name (`bs_channel::faults::PRESET_SCENARIOS`).
    pub scenario: String,
    /// Fault severity in `[0, 1]`.
    pub severity: f64,
    /// True if the reader armed every mitigation.
    pub mitigated: bool,
    /// Raw BER across the runs (erasures count as errors).
    pub ber: f64,
    /// Runs in which the decoder detected the preamble.
    pub detected_runs: u64,
    /// Degradation aggregated over the runs.
    pub report: DegradationReport,
}

/// The shared operating point of the fault sweep: close range and a
/// modest rate, so that without faults the link is comfortably clean and
/// any degradation measured is attributable to the injected fault.
fn fault_link_config(scenario: &str, severity: f64, mitigated: bool, seed: u64) -> LinkConfig {
    let mut cfg = LinkConfig::fig10(0.1, 100, 10, seed);
    cfg.measurement = Measurement::Csi;
    cfg.payload = (0..30).map(|i| (i * 7) % 5 < 2).collect();
    cfg.faults = FaultPlan::preset(scenario, severity, seed ^ 0xFA17)
        .unwrap_or_else(|| panic!("unknown fault scenario '{scenario}'"));
    cfg.mitigations = mitigated;
    cfg
}

/// Measures one point of the sweep over `runs` independent channel
/// realisations.
pub fn fault_point(
    scenario: &str,
    severity: f64,
    mitigated: bool,
    runs: u64,
    seed: u64,
) -> FaultPoint {
    let mut ber = BerCounter::new();
    let mut report = DegradationReport::default();
    let mut detected_runs = 0;
    for r in 0..runs {
        // Same per-run seed for mitigated and unmitigated: the comparison
        // is paired on identical channel + fault realisations.
        let run_seed = SimRng::run_seed(seed, r);
        let run = run_uplink(&fault_link_config(scenario, severity, mitigated, run_seed));
        ber.merge(&run.ber);
        if run.detected {
            detected_runs += 1;
        }
        report.merge(&run.degradation);
    }
    FaultPoint {
        scenario: scenario.to_string(),
        severity,
        mitigated,
        ber: ber.raw_ber(),
        detected_runs,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_point_is_deterministic() {
        let a = fault_point("loss", 1.0, true, 1, 9);
        let b = fault_point("loss", 1.0, true, 1, 9);
        assert_eq!(a.ber, b.ber);
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn clean_baseline_decodes() {
        // Severity 0 disarms the faults entirely: the operating point must
        // be clean so measured degradation is attributable to the fault.
        let pt = fault_point("all", 0.0, false, 1, 3);
        assert_eq!(pt.ber, 0.0, "baseline BER {}", pt.ber);
        assert_eq!(pt.detected_runs, 1);
        assert!(pt.report.faults_fired.is_empty());
    }

    #[test]
    fn mitigated_config_differs_only_in_policy() {
        let off = fault_link_config("outage", 1.0, false, 5);
        let on = fault_link_config("outage", 1.0, true, 5);
        assert_eq!(off.faults, on.faults);
        assert_eq!(off.seed, on.seed);
        assert!(!off.mitigations);
        assert!(on.mitigations);
    }
}
