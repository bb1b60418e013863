//! Transport sweep: message goodput versus fault severity × ARQ window.
//!
//! This backs the harness's `net` figure (not a paper figure — the paper
//! stops at single-frame exchanges; this measures the connectivity layer
//! `bs-net` builds on top). The point of the figure is the sliding
//! window: at any nonzero loss, `window ≥ 4` amortises the poll + ACK
//! control overhead over several segments and beats stop-and-wait
//! (`window = 1`) on goodput. Seed partitioning follows the same
//! contract as every other experiment: per-run seeds derive from the
//! point coordinates alone, so the sweep is byte-deterministic under any
//! `--jobs`.

use bs_channel::faults::{Fault, FaultPlan};
use bs_dsp::SimRng;
use bs_net::prelude::{run_transfer, SimLink, TransportConfig};
use wifi_backscatter::link::DegradationReport;

/// The 1 KiB message every point transfers (the acceptance workload).
pub const MESSAGE_BYTES: usize = 1024;

/// One measured `(severity, window)` point.
#[derive(Debug, Clone)]
pub struct NetPoint {
    /// Fault severity in `[0, 1]`.
    pub severity: f64,
    /// ARQ window (segments in flight per round).
    pub window: usize,
    /// Mean goodput across the runs (delivered bits / simulated second).
    pub goodput_bps: f64,
    /// Runs whose message arrived completely.
    pub complete_runs: u64,
    /// Total segment retransmissions across the runs.
    pub retransmissions: u64,
    /// Total duplicate segments the receivers dropped.
    pub duplicate_segments: u64,
    /// Degradation aggregated over the runs.
    pub report: DegradationReport,
}

/// The sweep's fault plan: independent segment loss plus MAC duplication,
/// both scaled by `severity` — the two impairments ARQ exists to absorb.
fn net_fault_plan(severity: f64, seed: u64) -> FaultPlan {
    FaultPlan::new(seed ^ 0x4E45_54F0)
        .with(Fault::PacketLoss { prob: 0.3 })
        .with(Fault::PacketDuplication { prob: 0.15 })
        .with_severity(severity)
}

/// The deterministic message every run transfers.
fn net_message() -> Vec<u8> {
    (0..MESSAGE_BYTES)
        .map(|i| ((i * 131 + 17) % 251) as u8)
        .collect()
}

/// Measures one point of the sweep over `runs` independent link
/// realisations.
pub fn net_point(severity: f64, window: usize, runs: u64, seed: u64) -> NetPoint {
    let message = net_message();
    let mut goodput_sum = 0.0;
    let mut complete_runs = 0;
    let mut retransmissions = 0;
    let mut duplicate_segments = 0;
    let mut report = DegradationReport::default();
    for r in 0..runs {
        // Same per-run seed across windows: the window comparison is
        // paired on identical loss/duplication realisations.
        let run_seed = SimRng::run_seed(seed, r);
        let mut link = SimLink::new(net_fault_plan(severity, run_seed), run_seed);
        let cfg = TransportConfig::default()
            .with_window(window)
            .with_seed(run_seed ^ 0x7A11);
        let t = run_transfer(&message, cfg, &mut link);
        goodput_sum += t.goodput_bps();
        if t.complete {
            complete_runs += 1;
        }
        retransmissions += t.retransmissions;
        duplicate_segments += t.duplicate_segments;
        report.merge(&t.degradation);
    }
    NetPoint {
        severity,
        window,
        goodput_bps: goodput_sum / runs.max(1) as f64,
        complete_runs,
        retransmissions,
        duplicate_segments,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_point_is_deterministic() {
        let a = net_point(0.5, 8, 2, 9);
        let b = net_point(0.5, 8, 2, 9);
        assert_eq!(a.goodput_bps, b.goodput_bps);
        assert_eq!(a.retransmissions, b.retransmissions);
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn clean_baseline_completes_without_retx() {
        let pt = net_point(0.0, 8, 1, 3);
        assert_eq!(pt.complete_runs, 1);
        assert_eq!(pt.retransmissions, 0);
        assert!(pt.goodput_bps > 0.0);
        assert!(pt.report.faults_fired.is_empty());
    }

    #[test]
    fn sliding_window_beats_stop_and_wait_under_loss() {
        // The figure's headline claim, checked at the acceptance point.
        let w1 = net_point(0.5, 1, 2, 7);
        let w8 = net_point(0.5, 8, 2, 7);
        assert_eq!(w1.complete_runs, 2);
        assert_eq!(w8.complete_runs, 2);
        assert!(
            w8.goodput_bps > w1.goodput_bps,
            "window 8 {} must beat stop-and-wait {}",
            w8.goodput_bps,
            w1.goodput_bps
        );
    }
}
