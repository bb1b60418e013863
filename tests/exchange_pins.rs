//! FNV-1a digests of whole exchanges whose shape is fixed by private
//! constants: the codeword uplink (chips per bit, symbols per chip,
//! preamble tolerance), the reader session under every fault preset
//! (retry backoff, armed mitigations), the mitigated uplink, the CSI
//! and the RSSI uplink that step their rate down once and twice, and the
//! downlink encoder's schedule (CTS airtime, guard, reader id).
//!
//! Each test folds a deterministic transcript into one digest and
//! compares it with the pinned value, so a change to any of those
//! constants, or to the code that reads them, fails here.

use bs_channel::faults::{FaultPlan, PRESET_SCENARIOS};
use bs_dsp::rng::Fnv1a64;
use wifi_backscatter::downlink::DownlinkEncoder;
use wifi_backscatter::link::{LinkConfig, UplinkRun};
use wifi_backscatter::phy::{run_uplink, PhyConfig};
use wifi_backscatter::session::{Reader, ReaderConfig};

/// Every single-fault preset, then the composite `"all"`.
fn presets() -> impl Iterator<Item = &'static str> {
    PRESET_SCENARIOS.iter().copied().chain(["all"])
}

fn assert_pinned(name: &str, transcript: &str, pinned: u64) {
    let mut h = Fnv1a64::new();
    h.write(transcript.as_bytes());
    let got = h.finish();
    assert_eq!(
        got, pinned,
        "{name} digest {got:016x} != pinned {pinned:016x}; transcript:\n{transcript}"
    );
}

fn uplink_line(label: &str, run: &UplinkRun) -> String {
    let bits: String = run
        .decoded
        .iter()
        .map(|b| match b {
            Some(true) => '1',
            Some(false) => '0',
            None => '?',
        })
        .collect();
    format!(
        "{label} detected={} packets={} elapsed_us={} bits={bits} degradation={}\n",
        run.detected,
        run.packets_used,
        run.elapsed_us,
        run.degradation.to_json()
    )
}

#[test]
fn codeword_uplink_is_pinned() {
    let mut out = String::new();
    let payload: Vec<bool> = (0..48).map(|i| (i * 7) % 5 < 2).collect();
    for (distance_m, seed) in [(0.8, 3), (0.8, 17), (2.5, 91), (4.0, 5)] {
        let mut cfg = LinkConfig::fig10(distance_m, 100, 5, seed).with_payload(payload.clone());
        cfg.helper_pps = 3_000.0;
        cfg.phy = PhyConfig::Codeword;
        out += &uplink_line(&format!("d={distance_m} seed={seed}"), &run_uplink(&cfg));
    }
    let mut faulted = LinkConfig::fig10(0.8, 100, 5, 29).with_payload(payload);
    faulted.helper_pps = 3_000.0;
    faulted.phy = PhyConfig::Codeword;
    faulted.faults = FaultPlan::preset("all", 0.5, 29).expect("known preset");
    out += &uplink_line("all@0.5", &run_uplink(&faulted));
    assert_pinned("codeword uplink", &out, 0x66f7_7b63_9e58_e6fd);
}

#[test]
fn mitigated_uplink_is_pinned_under_every_preset() {
    let mut out = String::new();
    for (i, scenario) in presets().enumerate() {
        let seed = 400 + i as u64;
        let mut cfg = LinkConfig::fig10(0.1, 100, 10, seed)
            .with_payload((0..24).map(|b| (b * 7) % 5 < 2).collect());
        cfg.faults = FaultPlan::preset(scenario, 0.7, seed ^ 0xFA17).expect("known preset");
        cfg.mitigations = true;
        out += &uplink_line(scenario, &run_uplink(&cfg));
    }
    assert_pinned("mitigated uplink", &out, 0xea97_248d_f085_306b);
}

/// Mitigated CSI exchanges whose first decode fails, so the reader
/// re-captures at half the chip rate (`retries_used` 1) or at half and
/// then a quarter (`retries_used` 2): fault-free, under clock drift and
/// under an interference burst. Each re-capture runs with the seed of
/// the capture before it.
#[test]
fn stepped_down_uplink_is_pinned() {
    let mut out = String::new();
    let cases = [
        ("none", 0.5, 3, 1),
        ("none", 0.9, 1, 2),
        ("drift", 0.5, 1, 1),
        ("drift", 0.9, 4, 2),
        ("burst", 0.5, 3, 1),
        ("burst", 0.7, 1, 2),
    ];
    for (scenario, distance_m, seed, retries) in cases {
        let mut cfg = LinkConfig::fig10(distance_m, 200, 5, seed)
            .with_payload((0..24).map(|b| (b * 7) % 5 < 2).collect());
        if scenario != "none" {
            cfg.faults = FaultPlan::preset(scenario, 0.8, seed ^ 0xBEEF).expect("known preset");
        }
        cfg.mitigations = true;
        let run = run_uplink(&cfg);
        assert_eq!(
            run.degradation.retries_used, retries,
            "{scenario} at {distance_m} m, seed {seed}: step-downs"
        );
        out += &uplink_line(&format!("{scenario} d={distance_m} seed={seed}"), &run);
    }
    assert_pinned("stepped-down uplink", &out, 0x86c8_2c4c_4624_f552);
}

/// Mitigated exchanges under the `sensor` preset, which wedges the CSI
/// tool so the reader falls back to RSSI, whose first RSSI decode fails:
/// the reader re-captures RSSI at half the chip rate (`retries_used` 1)
/// or at half and then a quarter (`retries_used` 2), each re-capture
/// with the seed of the capture before it.
#[test]
fn stepped_down_rssi_uplink_is_pinned() {
    let mut out = String::new();
    let cases = [
        (0.1, 1, 1),
        (0.2, 1, 2),
        (0.2, 4, 1),
        (0.3, 2, 2),
        (0.4, 3, 1),
        (0.4, 1, 2),
    ];
    for (distance_m, seed, retries) in cases {
        let mut cfg = LinkConfig::fig10(distance_m, 200, 5, seed)
            .with_payload((0..24).map(|b| (b * 7) % 5 < 2).collect());
        cfg.faults = FaultPlan::preset("sensor", 0.8, seed ^ 0xBEEF).expect("known preset");
        cfg.mitigations = true;
        let run = run_uplink(&cfg);
        assert!(run.degradation.engaged("csi-fallback"), "seed {seed}");
        assert_eq!(
            run.degradation.retries_used, retries,
            "{distance_m} m, seed {seed}: step-downs"
        );
        out += &uplink_line(&format!("sensor d={distance_m} seed={seed}"), &run);
    }
    assert_pinned("stepped-down RSSI uplink", &out, 0x1bb7_f1f0_92f2_7565);
}

#[test]
fn faulted_reader_query_is_pinned_under_every_preset() {
    let mut out = String::new();
    let payload: Vec<bool> = (0..16).map(|b| b % 3 != 1).collect();
    for (i, scenario) in ["none"].into_iter().chain(presets()).enumerate() {
        let seed = 700 + i as u64;
        let faults = if scenario == "none" {
            FaultPlan::none()
        } else {
            FaultPlan::preset(scenario, 0.8, seed).expect("known preset")
        };
        let cfg = ReaderConfig::default()
            .with_distance_m(0.25)
            .with_faults(faults);
        let mut reader = Reader::new(cfg, seed);
        let line = match reader.query(0x2A, &payload) {
            Ok(q) => format!(
                "ok payload_ok={} rate={} query_attempts={} response_attempts={} \
                 fallback={} waited_us={} degradation={}",
                q.payload == payload,
                q.bit_rate_bps,
                q.query_attempts,
                q.response_attempts,
                q.used_fallback,
                q.waited_us,
                q.degradation.to_json()
            ),
            Err(e) => format!("err {e:?}"),
        };
        out += &format!("{scenario} {line}\n");
    }
    assert_pinned("faulted query", &out, 0x3b3d_9004_8ad8_92c8);
}

#[test]
fn downlink_encoder_schedule_is_pinned() {
    let mut out = String::new();
    let frames = [
        bs_tag::frame::DownlinkFrame::new(vec![0xAA, 0x55]),
        bs_tag::frame::DownlinkFrame::new((0..9).map(|b| b * 29 + 3).collect()),
        // Fits one reservation at 20 kbps, not at 5 kbps.
        bs_tag::frame::DownlinkFrame::new((0..40u32).map(|b| (b * 7 + 1) as u8).collect()),
    ];
    for rate in [20_000, 10_000, 5_000] {
        let encoder = DownlinkEncoder::new(rate);
        for (i, frame) in frames.iter().enumerate() {
            let tx = encoder.encode(frame, 1_000 * i as u64);
            out += &format!("{rate} frame{i} {tx:?}\n");
        }
        let multi = encoder.encode_multi(&frames[..2], 50, 400);
        out += &format!("{rate} multi {multi:?}\n");
    }
    assert_pinned("downlink schedule", &out, 0xc2c0_36b2_8023_7949);
}
