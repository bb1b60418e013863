//! Stage-profiling runs: the `obs` figure.
//!
//! Not a paper figure — this arms a [`MemRecorder`] on representative
//! uplink, downlink and session runs and reports where the simulated time
//! and work went, stage by stage. It is the worked example for the
//! observability layer (EXPERIMENTS.md §"Reading a stage profile") and the
//! one harness figure whose records carry an `"obs"` JSON object.
//!
//! Everything recorded is simulated time and discrete work counts, so the
//! profile obeys the same determinism contract as every other figure: the
//! per-run seeds derive from the point coordinates alone and the output is
//! byte-identical under any `--jobs`.

use bs_dsp::obs::{MemRecorder, ObsReport};
use bs_dsp::SimRng;
use wifi_backscatter::link::{DownlinkConfig, LinkConfig, Measurement};
use wifi_backscatter::phy::{run_downlink_ber_with, run_uplink_with};
use wifi_backscatter::session::{Reader, ReaderConfig};

/// One profiled operating point: the merged observability report across
/// its runs plus the headline result the profile belongs to.
#[derive(Debug, Clone)]
pub struct ObsPoint {
    /// Merged report: spans append per run, counters add, gauges keep the
    /// last run's value.
    pub report: ObsReport,
    /// Raw BER across the runs (0 for session profiles, which only
    /// complete on clean decodes).
    pub ber: f64,
    /// Runs merged into the report.
    pub runs: u64,
}

impl ObsPoint {
    /// Renders the per-stage table lines: one line per distinct stage with
    /// span count, total items and total simulated microseconds.
    pub fn stage_lines(&self) -> Vec<String> {
        let mut stages: Vec<&str> = self.report.spans.iter().map(|s| s.stage).collect();
        stages.sort_unstable();
        stages.dedup();
        stages
            .iter()
            .map(|stage| {
                let (mut n, mut items, mut us) = (0u64, 0u64, 0u64);
                for s in self.report.spans_for(stage) {
                    n += 1;
                    items += s.items;
                    us += s.duration_us();
                }
                format!("{stage}  {n}  {items}  {us}")
            })
            .collect()
    }
}

/// Profiles the CSI uplink pipeline at `d_m` metres over `runs` channel
/// realisations.
pub fn uplink_profile(d_m: f64, runs: u64, seed: u64) -> ObsPoint {
    let mut report = ObsReport::new();
    let mut ber = bs_dsp::bits::BerCounter::new();
    for r in 0..runs {
        let mut cfg = LinkConfig::fig10(d_m, 100, 10, SimRng::run_seed(seed, r));
        cfg.measurement = Measurement::Csi;
        cfg.payload = (0..30).map(|i| (i * 3) % 7 < 3).collect();
        let mut rec = MemRecorder::new();
        let run = run_uplink_with(&cfg, &mut rec);
        ber.merge(&run.ber);
        report.merge(&rec.into_report());
    }
    ObsPoint {
        report,
        ber: ber.raw_ber(),
        runs,
    }
}

/// Profiles the downlink envelope/comparator pipeline at `d_m` metres and
/// `rate_bps`, `bits` payload bits per run.
pub fn downlink_profile(d_m: f64, rate_bps: u64, bits: usize, runs: u64, seed: u64) -> ObsPoint {
    let mut report = ObsReport::new();
    let mut ber = bs_dsp::bits::BerCounter::new();
    for r in 0..runs {
        let cfg = DownlinkConfig::fig17(d_m, rate_bps, SimRng::run_seed(seed, r));
        let mut rec = MemRecorder::new();
        let run = run_downlink_ber_with(&cfg, bits, &mut rec);
        ber.merge(&run.ber);
        report.merge(&rec.into_report());
    }
    ObsPoint {
        report,
        ber: ber.raw_ber(),
        runs,
    }
}

/// Profiles full query/response sessions (downlink query, uplink
/// response, ACK) at close range, where every query completes.
pub fn session_profile(runs: u64, seed: u64) -> ObsPoint {
    let mut report = ObsReport::new();
    let mut completed = 0u64;
    for r in 0..runs {
        let mut reader = Reader::new(ReaderConfig::default(), SimRng::run_seed(seed, r));
        let payload: Vec<bool> = (0..16).map(|i| i % 3 != 1).collect();
        let mut rec = MemRecorder::new();
        reader
            .query_with(0x2A, &payload, &mut rec)
            .expect("close-range session must complete");
        completed += 1;
        report.merge(&rec.into_report());
    }
    ObsPoint {
        report,
        ber: 0.0,
        runs: completed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uplink_profile_is_deterministic_and_rich() {
        let a = uplink_profile(0.1, 2, 7);
        let b = uplink_profile(0.1, 2, 7);
        assert_eq!(a.report, b.report);
        assert_eq!(a.report.to_json(), b.report.to_json());
        assert!(a.report.distinct_stages() >= 4, "{:?}", a.report.spans);
        assert!(a.report.counter("uplink.packets-delivered") > 0);
        assert_eq!(a.report.counter("uplink.decode-attempts"), 2);
    }

    #[test]
    fn downlink_profile_reaches_tag_stages() {
        let p = downlink_profile(0.5, 20_000, 200, 1, 11);
        assert!(p.report.spans_for("downlink.envelope").count() > 0);
        assert!(p.report.spans_for("tag.comparator").count() > 0);
        assert!(p.report.counter("downlink.bits-sent") >= 200);
        assert!(p.report.gauge("tag.energy-uj").is_some());
    }

    #[test]
    fn session_profile_spans_both_directions() {
        let p = session_profile(1, 3);
        assert_eq!(p.runs, 1);
        assert!(p.report.counter("session.query-attempts") >= 1);
        assert!(p.report.spans_for("downlink.encode").count() > 0);
        assert!(p.report.spans_for("uplink.slice").count() > 0);
    }

    #[test]
    fn stage_lines_are_sorted_and_cover_every_stage() {
        let p = uplink_profile(0.1, 1, 5);
        let lines = p.stage_lines();
        assert_eq!(lines.len(), p.report.distinct_stages());
        let mut sorted = lines.clone();
        sorted.sort();
        assert_eq!(lines, sorted);
    }
}
