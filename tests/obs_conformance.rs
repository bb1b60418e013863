//! Conformance suite for the observability layer (DESIGN.md
//! §"Observability"). The contract:
//!
//! 1. **Observation never perturbs.** Arming a recorder changes nothing
//!    about a run — same decoded bits, same BER, same degradation report —
//!    because instrumented code only reports values it already computed.
//!    Each `_with` entry point is run under a `NullRecorder` and under a
//!    `MemRecorder` and the results compared; the plain entry points are
//!    the `NullRecorder` runs, so the golden fixtures (`tests/golden/`)
//!    pin this too.
//! 2. **Coverage.** One profiled uplink + downlink + session pass emits at
//!    least 8 distinct stage spans and at least 10 distinct counters,
//!    spanning the reader, link and tag layers.
//! 3. **Determinism.** The armed-recorder report, and its JSON rendering,
//!    are identical across repeated runs of the same config.

use wifi_backscatter::prelude::*;

fn uplink_cfg(seed: u64) -> LinkConfig {
    LinkConfig::fig10(0.1, 100, 10, seed).with_payload((0..24).map(|i| (i * 11) % 5 < 2).collect())
}

/// Runs the uplink under an armed recorder and returns the run with its
/// report.
fn observed_uplink(cfg: &LinkConfig) -> (UplinkRun, ObsReport) {
    let mut rec = MemRecorder::new();
    let run = run_uplink_with(cfg, &mut rec);
    (run, rec.into_report())
}

// ---- 1. observation never perturbs ----

#[test]
fn observed_uplink_is_bit_identical_to_plain() {
    let cfg = uplink_cfg(2014);
    let plain = run_uplink_with(&cfg, &mut NullRecorder);
    let (observed, report) = observed_uplink(&cfg);
    assert_eq!(plain.decoded, observed.decoded);
    assert_eq!(plain.transmitted, observed.transmitted);
    assert_eq!(plain.ber.bits(), observed.ber.bits());
    assert_eq!(plain.ber.errors(), observed.ber.errors());
    assert_eq!(plain.detected, observed.detected);
    assert_eq!(plain.packets_used, observed.packets_used);
    assert_eq!(plain.pkts_per_bit, observed.pkts_per_bit);
    assert_eq!(plain.degradation, observed.degradation);
    assert!(
        !report.spans.is_empty(),
        "armed recorder must collect a report"
    );
}

#[test]
fn observed_downlink_is_bit_identical_to_plain() {
    let cfg = DownlinkConfig::fig17(1.0, 10_000, 55);
    let plain = run_downlink_ber_with(&cfg, 1_000, &mut NullRecorder);
    let mut rec = MemRecorder::new();
    let observed = run_downlink_ber_with(&cfg, 1_000, &mut rec);
    assert_eq!(plain.ber.bits(), observed.ber.bits());
    assert_eq!(plain.ber.errors(), observed.ber.errors());
    assert_eq!(plain.bits_sent, observed.bits_sent);
    assert_eq!(plain.degradation, observed.degradation);
    assert!(!rec.into_report().spans.is_empty());
}

#[test]
fn explicit_null_recorder_matches_plain_entry_point() {
    let cfg = uplink_cfg(77);
    let plain = run_uplink(&cfg);
    let with_null = run_uplink_with(&cfg, &mut NullRecorder);
    assert_eq!(plain.decoded, with_null.decoded);
    assert_eq!(plain.ber.errors(), with_null.ber.errors());
}

// ---- 2. coverage across the stack ----

/// Merges one observed pass of each path (uplink capture+decode, downlink
/// envelope+tag receiver, full query/response session) — the acceptance
/// criterion's "across uplink, downlink, and tag paths".
fn full_stack_report(seed: u64) -> ObsReport {
    let mut rec = MemRecorder::new();
    run_uplink_with(&uplink_cfg(seed), &mut rec);
    run_downlink_ber_with(&DownlinkConfig::fig17(0.5, 20_000, seed), 500, &mut rec);
    let mut reader = Reader::new(ReaderConfig::default(), seed);
    let payload: Vec<bool> = (0..16).map(|i| i % 3 == 0).collect();
    reader
        .query_with(0x11, &payload, &mut rec)
        .expect("close-range session completes");
    rec.into_report()
}

#[test]
fn full_stack_profile_meets_span_and_counter_floors() {
    let r = full_stack_report(9);
    assert!(
        r.distinct_stages() >= 8,
        "only {} distinct stages: {:?}",
        r.distinct_stages(),
        r.spans.iter().map(|s| s.stage).collect::<Vec<_>>()
    );
    assert!(
        r.counters.len() >= 10,
        "only {} counters: {:?}",
        r.counters.len(),
        r.counters.keys().collect::<Vec<_>>()
    );
    // The three layers all show up.
    for prefix in ["uplink.", "downlink.", "tag."] {
        assert!(
            r.spans.iter().any(|s| s.stage.starts_with(prefix)),
            "no span from the {prefix} layer"
        );
        assert!(
            r.counters.keys().any(|k| k.starts_with(prefix)),
            "no counter from the {prefix} layer"
        );
    }
    // Spans are simulated time with real extent and work attached.
    assert!(r.spans.iter().any(|s| s.duration_us() > 0));
    assert!(r.spans.iter().any(|s| s.items > 0));
    // Gauges from both the decoder and the tag's energy ledger.
    assert!(r.gauge("uplink.preamble-score").is_some());
    assert!(r.gauge("tag.energy-uj").is_some());
}

// ---- 3. determinism ----

#[test]
fn armed_report_and_json_are_deterministic() {
    let a = full_stack_report(3);
    let b = full_stack_report(3);
    assert_eq!(a, b);
    assert_eq!(a.to_json(), b.to_json());
}
