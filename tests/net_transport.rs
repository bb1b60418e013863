//! Conformance suite for the `bs-net` connectivity layer.
//!
//! These are the transport's contract tests, exercised over the fast
//! [`SimLink`] fault model (plus one end-to-end pass over the full-PHY
//! [`PhyLink`]):
//!
//! - **Exactness** — the delivered bytes are exactly the sent bytes at
//!   every tested severity/seed, including under heavy duplication.
//! - **Ordering** — goodput falls as severity rises (paired seeds), and
//!   a sliding window (W ≥ 4) strictly beats stop-and-wait under loss.
//! - **Determinism** — the same config and seed reproduce the entire
//!   [`Transfer`]/[`GatewayRun`] struct, observability included.
//! - **Observability** — retransmission counters in the `ObsReport`
//!   agree with the transfer's own counters, and the `net.*` spans are
//!   present.

use bs_channel::faults::{Fault, FaultPlan};
use bs_dsp::obs::{MemRecorder, NullRecorder, ObsReport};
use bs_dsp::rng::Fnv1a64;
use bs_net::prelude::*;

/// A deterministic test message that is not byte-repetitive.
fn message(n: usize, salt: u8) -> Vec<u8> {
    (0..n)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
        .collect()
}

/// The acceptance fault plan: independent segment loss plus MAC-layer
/// duplication, both scaled by `severity`.
fn lossy_plan(severity: f64, seed: u64) -> FaultPlan {
    FaultPlan::new(seed ^ 0x0bad_cafe)
        .with(Fault::PacketLoss { prob: 0.3 })
        .with(Fault::PacketDuplication { prob: 0.15 })
        .with_severity(severity)
}

#[test]
fn kilobyte_delivers_exactly_at_every_tested_severity_and_seed() {
    // The acceptance workload: a 1 KiB message survives severities up
    // to 0.5 losslessly on every tested seed.
    let msg = message(1024, 7);
    for &severity in &[0.1, 0.3, 0.5] {
        for seed in 1..=5u64 {
            let mut link = SimLink::new(lossy_plan(severity, seed), seed);
            let t = run_transfer(&msg, TransportConfig::default().with_seed(seed), &mut link);
            assert!(
                t.complete,
                "severity {severity} seed {seed}: transfer incomplete after {} rounds",
                t.rounds
            );
            assert_eq!(
                t.delivered.as_deref(),
                Some(msg.as_slice()),
                "severity {severity} seed {seed}: delivered bytes differ from sent bytes"
            );
            assert_eq!(t.delivered_bytes, msg.len() as u64);
        }
    }
}

#[test]
fn heavy_duplication_never_leaks_duplicates_or_reorders() {
    let msg = message(512, 99);
    let plan = FaultPlan::new(41).with(Fault::PacketDuplication { prob: 0.9 });
    let mut link = SimLink::new(plan, 41);
    let t = run_transfer(&msg, TransportConfig::default().with_seed(41), &mut link);
    assert!(t.complete);
    // Exact reassembly: duplicates were dropped at the receiver, never
    // spliced into the message, and order is the sender's order.
    assert_eq!(t.delivered.as_deref(), Some(msg.as_slice()));
    assert!(
        t.duplicate_segments > 0,
        "a 0.9 duplication probability must produce duplicates to drop"
    );
}

#[test]
fn goodput_is_monotone_in_severity_on_paired_seeds() {
    let msg = message(1024, 3);
    let severities = [0.0, 0.4, 0.8];
    let mut goodput = Vec::new();
    for &severity in &severities {
        let mut sum = 0.0;
        for run in 0..3u64 {
            // Paired seeds: each severity sees the same link realisation
            // stream, so the comparison isolates the severity knob.
            let seed = 17 + run * 1000;
            let mut link = SimLink::new(lossy_plan(severity, seed), seed);
            let t = run_transfer(&msg, TransportConfig::default().with_seed(seed), &mut link);
            assert!(t.complete, "severity {severity} run {run} incomplete");
            sum += t.goodput_bps();
        }
        goodput.push(sum / 3.0);
    }
    assert!(
        goodput[0] > goodput[2],
        "goodput must fall from clean {} to severity 0.8 {}",
        goodput[0],
        goodput[2]
    );
    for w in goodput.windows(2) {
        assert!(
            w[0] >= w[1],
            "goodput must be non-increasing in severity: {} then {}",
            w[0],
            w[1]
        );
    }
}

#[test]
fn sliding_window_beats_stop_and_wait_under_loss() {
    // Acceptance: W >= 4 strictly above W = 1 at nonzero loss, paired
    // on identical seeds.
    let msg = message(1024, 11);
    for &window in &[4usize, 8] {
        let mut g1 = 0.0;
        let mut gw = 0.0;
        for seed in 1..=3u64 {
            let mut a = SimLink::new(lossy_plan(0.5, seed), seed);
            let t1 = run_transfer(
                &msg,
                TransportConfig::default().with_window(1).with_seed(seed),
                &mut a,
            );
            let mut b = SimLink::new(lossy_plan(0.5, seed), seed);
            let tw = run_transfer(
                &msg,
                TransportConfig::default()
                    .with_window(window)
                    .with_seed(seed),
                &mut b,
            );
            assert!(t1.complete && tw.complete);
            g1 += t1.goodput_bps();
            gw += tw.goodput_bps();
        }
        assert!(
            gw > g1,
            "window {window} goodput {gw} must strictly beat stop-and-wait {g1}"
        );
    }
}

/// [`run_transfer_with`] under an armed recorder, returning its report.
fn observed_transfer(
    msg: &[u8],
    cfg: TransportConfig,
    link: &mut dyn SegmentLink,
) -> (Transfer, ObsReport) {
    let mut rec = MemRecorder::new();
    let t = run_transfer_with(msg, cfg, link, &mut rec);
    (t, rec.into_report())
}

#[test]
fn transfer_is_bit_for_bit_deterministic() {
    let msg = message(256, 5);
    let run = || {
        let mut link = SimLink::new(lossy_plan(0.5, 23), 23);
        observed_transfer(&msg, TransportConfig::default().with_seed(23), &mut link)
    };
    let (a, a_obs) = run();
    let (b, b_obs) = run();
    // Whole-struct equality: payload, counters, degradation and the
    // observability report all reproduce.
    assert_eq!(a, b);
    assert_eq!(a_obs, b_obs);
    assert!(!a_obs.spans.is_empty());
}

#[test]
fn obs_report_carries_retx_counters_and_spans() {
    let msg = message(1024, 29);
    let mut link = SimLink::new(lossy_plan(0.5, 31), 31);
    let (t, obs) = observed_transfer(&msg, TransportConfig::default().with_seed(31), &mut link);
    assert!(t.complete);
    assert!(
        t.retransmissions > 0,
        "severity 0.5 must force retransmissions"
    );
    assert_eq!(obs.counter("net.retransmissions"), t.retransmissions);
    assert_eq!(obs.counter("net.duplicate-acks"), t.duplicate_acks);
    assert_eq!(obs.counter("net.polls"), t.polls_sent);
    assert_eq!(obs.counter("net.segments-sent"), t.segments_sent);
    for span in ["net.segment", "net.window", "net.retx"] {
        assert!(
            obs.spans_for(span).next().is_some(),
            "span {span} missing from the observed transfer"
        );
    }
    // The unarmed run returns the same outcome.
    let mut link2 = SimLink::new(lossy_plan(0.5, 31), 31);
    let plain = run_transfer_with(
        &msg,
        TransportConfig::default().with_seed(31),
        &mut link2,
        &mut NullRecorder,
    );
    assert_eq!(plain, t);
    assert_eq!(plain.delivered, t.delivered);
    assert_eq!(plain.retransmissions, t.retransmissions);
}

/// FNV-1a 64 over the `Debug` rendering of a [`Transfer`]: every field,
/// the delivered bytes and the degradation report included.
fn transfer_digest(t: &Transfer) -> u64 {
    let mut h = Fnv1a64::new();
    h.write(format!("{t:?}").as_bytes());
    h.finish()
}

#[test]
fn simlink_transfers_under_fault_presets_are_pinned() {
    // The fleet digest reaches `run_transfer` only through the gateway's
    // default loss plan; these pin whole transfers under each SimLink
    // preset, so a change in segment airtime, RNG order or accounting
    // shows up here.
    let msg = message(1024, 11);
    for (preset, want) in [
        ("loss", 0x0e39_9ee4_7495_6632u64),
        ("dup", 0x15cb_526a_0b7d_cbcf),
        ("outage", 0x0e2c_5c7b_423e_37ed),
    ] {
        let plan = FaultPlan::preset(preset, 0.8, 19).expect("preset exists");
        let mut link = SimLink::new(plan, 19);
        let t = run_transfer(&msg, TransportConfig::default().with_seed(19), &mut link);
        assert!(t.complete, "{preset}: transfer incomplete");
        assert_eq!(transfer_digest(&t), want, "{preset}: transfer drifted");
    }
}

#[test]
fn lossy_gateway_run_is_pinned() {
    // The 200-tag `loss` roster of `alloc_budget`, whole: every
    // `TagOutcome` field, airtime, polls, cycles, fairness and the
    // inventory, through the same `Debug` rendering as a transfer. The
    // FleetRun digest sees a gateway only through the fields the fleet
    // copies; this pins the rest of the run, so the per-tag seed
    // derivation, the served-tag table and singulation cannot drift.
    let tags: Vec<TagProfile> = (0..200)
        .map(|i| TagProfile::new(i as u8 + 1, (0..48).map(|b| (b * 7 + i) as u8).collect()))
        .collect();
    let cfg = GatewayConfig::default()
        .with_faults(FaultPlan::preset("loss", 1.0, 17).expect("known preset"))
        .with_seed(5);
    let run = run_gateway(&tags, &cfg).expect("a valid roster");
    assert!(
        run.tags.len() > 150,
        "only {} tags identified",
        run.tags.len()
    );
    let mut h = Fnv1a64::new();
    h.write(format!("{run:?}").as_bytes());
    assert_eq!(h.finish(), 0xbc22_db10_7567_49f0, "gateway run drifted");
}

#[test]
fn full_phy_link_delivers_a_message_end_to_end() {
    // The slow path: every segment rides the real uplink DSP chain and
    // every poll the real downlink decoder.
    let msg = message(32, 77);
    let mut link = PhyLink::new(0.65, FaultPlan::none(), 13);
    let t = run_transfer(&msg, TransportConfig::default().with_seed(13), &mut link);
    assert!(t.complete, "clean PHY link must deliver");
    assert_eq!(t.delivered.as_deref(), Some(msg.as_slice()));
    // Not `degradation.is_clean()`: a marginal PHY distance legitimately
    // engages the decoder's own mitigations; what the transport owes is
    // exact bytes.
    assert_eq!(
        t.delivered_bytes, t.message_bytes,
        "complete transfer must deliver every byte"
    );
}

#[test]
fn gateway_delivers_every_tag_exactly_and_reproduces() {
    let tags = vec![
        TagProfile::new(1, message(300, 1)),
        TagProfile::new(2, message(200, 2)).with_helper_pps(1500.0),
        TagProfile::new(3, message(400, 3)),
    ];
    let cfg = GatewayConfig::default()
        .with_faults(lossy_plan(0.5, 5))
        .with_seed(5);
    let observed = || {
        let mut rec = MemRecorder::new();
        let run = run_gateway_with(&tags, &cfg, &mut rec).expect("unique addresses");
        (run, rec.into_report())
    };
    let (run, obs) = observed();
    assert!(run.all_complete, "every tag must finish under severity 0.5");
    for outcome in &run.tags {
        let profile = tags
            .iter()
            .find(|p| p.address == outcome.address)
            .expect("gateway invented a tag address");
        assert_eq!(
            outcome.transfer.delivered.as_deref(),
            Some(profile.message.as_slice()),
            "tag {} bytes differ",
            outcome.address
        );
    }
    assert!(
        run.fairness > 0.5,
        "deficit round-robin fairness {} collapsed",
        run.fairness
    );
    assert!(obs.spans_for("net.sched").next().is_some());
    assert!(obs.counter("net.sched-cycles") > 0);
    // Bit-for-bit reproducibility of the whole multi-tag run, report
    // included.
    assert_eq!((run, obs), observed());
}
