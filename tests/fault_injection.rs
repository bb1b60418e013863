//! Conformance suite for the fault-injection subsystem.
//!
//! The contract under test (DESIGN.md §"Fault model"):
//!
//! 1. **Mitigations never hurt.** For every preset scenario, arming the
//!    link-layer mitigations yields a BER no worse than running bare,
//!    on identical channel + fault realisations (paired seeds).
//! 2. **Degradation is bounded and monotone.** More severity never means
//!    less damage, and even the composite worst case stays decodable
//!    enough to be useful.
//! 3. **Every injected fault is observable.** A run hit by a fault says
//!    so in its [`DegradationReport`]; mitigations that engage are named.
//! 4. **Reports are deterministic** — same config, same report, byte for
//!    byte — and a severity-0 plan is a strict no-op.
//! 5. **The session degrades instead of hanging**: retries are backed
//!    off and budget-gated.

use bs_channel::faults::{FaultPlan, PRESET_SCENARIOS};
use bs_dsp::bits::BerCounter;
use bs_dsp::SimRng;
use wifi_backscatter::error::SessionError;
use wifi_backscatter::link::{DegradationReport, LinkConfig, Measurement, UplinkRun};
use wifi_backscatter::phy::run_uplink;
use wifi_backscatter::protocol::RetryPolicy;
use wifi_backscatter::session::{Reader, ReaderConfig};

/// The suite's shared operating point: close range and a modest rate, so
/// the no-fault link is comfortably clean and any degradation measured is
/// attributable to the injected fault. Mirrors the bench `faults` figure.
fn faulted_cfg(scenario: &str, severity: f64, mitigated: bool, seed: u64) -> LinkConfig {
    let mut cfg = LinkConfig::fig10(0.1, 100, 10, seed);
    cfg.measurement = Measurement::Csi;
    cfg.payload = (0..30).map(|i| (i * 7) % 5 < 2).collect();
    cfg.faults = FaultPlan::preset(scenario, severity, seed ^ 0xFA17)
        .unwrap_or_else(|| panic!("unknown scenario '{scenario}'"));
    cfg.mitigations = mitigated;
    cfg
}

/// Aggregates `runs` paired realisations of one sweep point. The per-run
/// seed depends only on (base seed, run index), never on `mitigated`, so
/// the off/on comparison is paired.
fn sweep_point(
    scenario: &str,
    severity: f64,
    mitigated: bool,
    runs: u64,
    seed: u64,
) -> (BerCounter, u64, DegradationReport) {
    let mut ber = BerCounter::new();
    let mut detected = 0;
    let mut report = DegradationReport::default();
    for r in 0..runs {
        let run_seed = SimRng::run_seed(seed, r);
        let run = run_uplink(&faulted_cfg(scenario, severity, mitigated, run_seed));
        ber.merge(&run.ber);
        detected += u64::from(run.detected);
        report.merge(&run.degradation);
    }
    (ber, detected, report)
}

// ---- 1. mitigations never hurt ----

#[test]
fn mitigations_never_increase_ber_in_any_scenario() {
    for &scenario in PRESET_SCENARIOS {
        let (off, _, _) = sweep_point(scenario, 1.0, false, 3, 11);
        let (on, on_detected, _) = sweep_point(scenario, 1.0, true, 3, 11);
        assert!(
            on.errors() <= off.errors(),
            "{scenario}: mitigated {} errors > bare {} errors",
            on.errors(),
            off.errors()
        );
        assert!(
            on_detected > 0,
            "{scenario}: mitigated link never even detected the preamble"
        );
    }
}

// ---- 2. degradation bounded and monotone in severity ----

#[test]
fn degradation_is_monotone_in_severity_and_bounded() {
    // The composite worst case, mitigations armed. Severity scales every
    // impairment together, so total damage must not shrink as it rises.
    // The slack absorbs threshold jitter (a burst landing on a chip edge
    // at 0.5 but not 1.0); it is far below any real inversion.
    let errs: Vec<(f64, BerCounter, u64)> = [0.0, 0.5, 1.0]
        .iter()
        .map(|&s| {
            let (ber, detected, _) = sweep_point("all", s, true, 3, 23);
            (s, ber, detected)
        })
        .collect();
    let slack = 3;
    for w in errs.windows(2) {
        let (lo_s, ref lo, _) = w[0];
        let (hi_s, ref hi, _) = w[1];
        assert!(
            lo.errors() <= hi.errors() + slack,
            "severity {lo_s} caused {} errors but {hi_s} only {}",
            lo.errors(),
            hi.errors()
        );
    }
    // Severity 0 is clean: the operating point itself contributes nothing.
    assert_eq!(errs[0].1.errors(), 0, "clean baseline has errors");
    assert_eq!(errs[0].2, 3, "clean baseline missed detections");
    // Bounded at the top: the mitigated composite worst case stays below
    // coin-flip decoding and the link still locks on.
    let (_, ref worst, worst_detected) = errs[2];
    assert!(
        worst.raw_ber() < 0.5,
        "mitigated worst case is no better than chance: {}",
        worst.raw_ber()
    );
    assert!(worst_detected > 0, "worst case never detected");
}

// ---- 3. every injected fault is observable ----

#[test]
fn every_armed_fault_appears_in_the_report() {
    // Bare run so no mitigation reroutes a fault before it can fire.
    let cfg = faulted_cfg("all", 1.0, false, 31);
    let run = run_uplink(&cfg);
    for name in cfg.faults.fault_names() {
        assert!(
            run.degradation.fired(name),
            "fault '{name}' armed but not in faults_fired {:?}",
            run.degradation.faults_fired
        );
    }
    // The counters agree that something actually happened.
    let d = &run.degradation;
    assert!(d.packets_dropped > 0, "no packets dropped");
    assert!(d.packets_duplicated > 0, "no packets duplicated");
    assert!(d.outage_us > 0, "no outage time accounted");
    assert!(d.frozen_packets > 0, "no frozen CSI reports");
    assert!(d.drift_applied != 0.0, "no drift applied");
    assert!(
        d.mitigations_engaged.is_empty(),
        "bare run engaged {:?}",
        d.mitigations_engaged
    );
}

#[test]
fn engaged_mitigations_are_named_in_the_report() {
    // Sensor wedge → the reader abandons CSI before capturing.
    let sensor = run_uplink(&faulted_cfg("sensor", 1.0, true, 37));
    assert!(
        sensor.degradation.engaged("csi-fallback"),
        "{:?}",
        sensor.degradation
    );
    assert!(
        sensor.degradation.fired("sensor-degradation"),
        "{:?}",
        sensor.degradation
    );

    // Cadence collapse → proactive chip-rate re-adaptation.
    let collapse = run_uplink(&faulted_cfg("collapse", 1.0, true, 37));
    assert!(
        collapse.degradation.engaged("rate-readapt"),
        "{:?}",
        collapse.degradation
    );
    let readapted = collapse
        .degradation
        .readapted_rate_bps
        .expect("collapse must re-adapt the rate");
    assert!(
        readapted < 100,
        "re-adapted rate {readapted} not below nominal"
    );

    // Clock drift → the decoder re-scans stretch candidates, judged by
    // both timing anchors (preamble + postamble); the winner must stretch
    // in the true drift's direction, since only that keeps the postamble
    // aligned at the end of the frame.
    let drift = run_uplink(&faulted_cfg("drift", 1.0, true, 37));
    assert!(
        drift.degradation.engaged("drift-rescan"),
        "{:?}",
        drift.degradation
    );
    assert!(
        drift.degradation.drift_compensation > 0.0,
        "rescan picked no (or backwards) compensation: {:?}",
        drift.degradation
    );
    assert_eq!(drift.ber.errors(), 0, "compensated drift still erred");
}

// ---- 4. determinism and the severity-0 no-op ----

#[test]
fn identical_configs_produce_identical_reports() {
    let a = run_uplink(&faulted_cfg("all", 1.0, true, 41));
    let b = run_uplink(&faulted_cfg("all", 1.0, true, 41));
    assert_eq!(a.degradation, b.degradation);
    assert_eq!(a.decoded, b.decoded);
    assert_eq!(a.ber.errors(), b.ber.errors());
    assert_eq!(a.degradation.to_json(), b.degradation.to_json());
}

#[test]
fn severity_zero_plan_is_byte_identical_to_no_plan() {
    let run = |plan: FaultPlan| -> UplinkRun {
        let mut cfg = faulted_cfg("all", 1.0, false, 43);
        cfg.faults = plan;
        run_uplink(&cfg)
    };
    let unplanned = run(FaultPlan::none());
    let zeroed = run(FaultPlan::preset("all", 0.0, 43 ^ 0xFA17).unwrap());
    assert_eq!(unplanned.decoded, zeroed.decoded);
    assert_eq!(unplanned.ber.errors(), zeroed.ber.errors());
    assert_eq!(unplanned.degradation, zeroed.degradation);
    assert!(zeroed.degradation.is_clean());
}

// ---- 5. the session degrades instead of hanging ----

#[test]
fn session_retries_through_downlink_loss_within_budget() {
    // A lossy downlink (30 % frame loss): the session must retry with
    // backoff and still come home. Seeds chosen so at least one query
    // frame is actually dropped across the batch — asserted below, so a
    // calibration change that silently stops exercising the retry path
    // fails loudly instead of passing vacuously.
    let mut dropped_somewhere = false;
    for seed in 0..4 {
        let cfg = ReaderConfig {
            faults: FaultPlan::preset("loss", 1.0, 900 + seed).unwrap(),
            ..ReaderConfig::default()
        };
        let mut reader = Reader::new(cfg, seed);
        let payload: Vec<bool> = (0..16).map(|i| i % 3 == 0).collect();
        let out = reader
            .query(0x05, &payload)
            .unwrap_or_else(|e| panic!("seed {seed}: lossy session failed: {e}"));
        assert_eq!(out.payload, payload);
        assert!(out.waited_us > 0);
        assert!(
            RetryPolicy::default().within_budget(out.waited_us),
            "seed {seed}: session claims {} µs, over budget",
            out.waited_us
        );
        dropped_somewhere |= out.degradation.fired("packet-loss");
    }
    assert!(
        dropped_somewhere,
        "no seed ever dropped a frame — the retry path went unexercised"
    );
}

#[test]
fn session_budget_exhaustion_fails_cleanly_not_slowly() {
    // An unreachable tag plus a near-zero time budget: the retry loop
    // must stop at the budget, not grind through all 30 attempts.
    let cfg = ReaderConfig {
        tag_distance_m: 6.0,
        max_query_attempts: 30,
        retry: RetryPolicy { budget_us: 1 },
        ..ReaderConfig::default()
    };
    let mut reader = Reader::new(cfg, 9);
    match reader.query(0x01, &[true; 8]) {
        Err(SessionError::TagUnresponsive { attempts }) => {
            assert!(
                attempts <= 2,
                "budget did not bound retries: {attempts} attempts"
            );
        }
        other => panic!("expected TagUnresponsive, got {other:?}"),
    }
}

#[test]
fn backoff_schedule_is_exponential_and_capped() {
    let retry = RetryPolicy::default();
    assert_eq!(retry.backoff_us(0), 0);
    let mut prev = 0;
    for attempt in 1..12 {
        let b = retry.backoff_us(attempt);
        assert!(b >= prev, "backoff shrank at attempt {attempt}");
        assert!(
            b <= 64_000,
            "backoff over the 64 ms cap at attempt {attempt}"
        );
        prev = b;
    }
    assert_eq!(prev, 64_000, "cap never reached");
}
