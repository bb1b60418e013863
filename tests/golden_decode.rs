//! Golden-vector regression tests for the uplink decode chain.
//!
//! Each test renders a canonical text transcript of one stage of the
//! chain — hysteresis slicing, preamble correlation, and the full
//! capture→condition→select→combine→slice pipeline — and compares it
//! byte-for-byte against a fixture committed under `tests/golden/`. The
//! simulation is deterministic, so any diff is a behaviour change, not
//! noise: if the change is intentional, regenerate the fixtures with
//!
//! ```sh
//! GOLDEN_BLESS=1 cargo test -p wifi-backscatter --test golden_decode
//! ```
//!
//! and review the fixture diff like any other code change.

use bs_channel::faults::FaultPlan;
use bs_dsp::correlate::{best_alignment, peak, sliding};
use bs_dsp::rng::Fnv1a64;
use bs_dsp::slicer::{majority, sign_decision, vote_bit, Decision, HysteresisSlicer};
use wifi_backscatter::link::{capture_uplink, LinkConfig, Measurement};
use wifi_backscatter::phy::run_uplink;
use wifi_backscatter::uplink::{UplinkDecoder, UplinkDecoderConfig};

/// Compares `actual` against the committed fixture, or rewrites the
/// fixture when `GOLDEN_BLESS` is set.
fn assert_golden(rel_path: &str, committed: &str, actual: &str) {
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        let path = format!("{}/../../{rel_path}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("blessing {path}: {e}"));
        return;
    }
    assert_eq!(
        committed, actual,
        "golden mismatch for {rel_path}; if intentional, re-bless with \
         GOLDEN_BLESS=1 and review the fixture diff"
    );
}

fn fmt_decision(d: Decision) -> char {
    match d {
        Decision::One => '1',
        Decision::Zero => '0',
        Decision::Indeterminate => '?',
    }
}

fn fmt_bits(bits: &[Option<bool>]) -> String {
    bits.iter()
        .map(|b| match b {
            Some(true) => '1',
            Some(false) => '0',
            None => '?',
        })
        .collect()
}

/// §3.2 step 3: thresholds from a reference population, per-sample
/// decisions, and the majority vote — including the tie → erasure case.
#[test]
fn golden_slicer() {
    let mut out = String::new();
    // A bimodal reference population (reflect/absorb levels plus jitter).
    let reference: Vec<f64> = (0..40)
        .map(|i| {
            let level = if i % 2 == 0 { 4.0 } else { -4.0 };
            level + (i as f64) * 0.05
        })
        .collect();
    let slicer = HysteresisSlicer::from_samples(&reference);
    out.push_str(&format!(
        "thresh0 {:.6e}\nthresh1 {:.6e}\n",
        slicer.thresh0(),
        slicer.thresh1()
    ));
    let probes = [-6.0, -3.0, -1.0, 0.0, 0.9, 1.0, 2.5, 3.0, 6.0, 12.0];
    out.push_str("probe decisions ");
    out.extend(probes.iter().map(|&x| fmt_decision(slicer.decide(x))));
    out.push('\n');
    out.push_str("sign decisions  ");
    out.extend(probes.iter().map(|&x| fmt_decision(sign_decision(x))));
    out.push('\n');
    for (name, samples) in [
        ("vote-clear-one", vec![5.0, 5.5, -6.0, 4.8, 0.1]),
        ("vote-clear-zero", vec![-5.0, -5.5, 6.0, -4.8, 0.1]),
        ("vote-tie", vec![5.0, -5.0, 0.2, -0.2]),
        ("vote-all-abstain", vec![0.0, 0.1, -0.1]),
    ] {
        out.push_str(&format!("{name} {:?}\n", vote_bit(&slicer, &samples)));
    }
    out.push_str(&format!(
        "majority-empty {:?}\n",
        majority(&[] as &[Decision])
    ));
    assert_golden(
        "tests/golden/slicer.txt",
        include_str!("golden/slicer.txt"),
        &out,
    );
}

/// Preamble correlation: sliding normalised correlation, its peak, and
/// the alignment search on a noisy embedded preamble.
#[test]
fn golden_correlate() {
    let mut out = String::new();
    let reference: [i8; 8] = [1, -1, 1, 1, -1, 1, -1, -1];
    // The preamble embedded at offset 5 in a deterministic "noise" floor.
    let mut signal: Vec<f64> = (0..30)
        .map(|i| ((i as f64 * 2.399) % 1.0) * 0.4 - 0.2)
        .collect();
    for (i, &r) in reference.iter().enumerate() {
        signal[5 + i] += r as f64 * 2.0;
    }
    let corr = sliding(&signal, &reference);
    for (i, c) in corr.iter().enumerate() {
        out.push_str(&format!("corr[{i:02}] {c:+.6e}\n"));
    }
    let (pi, pv) = peak(&corr).expect("correlation has a peak");
    out.push_str(&format!("peak {pi} {pv:+.6e}\n"));
    let hit = best_alignment(&signal, &reference).expect("preamble found");
    out.push_str(&format!(
        "alignment start {} score {:+.6e}\n",
        hit.start, hit.score
    ));
    assert_golden(
        "tests/golden/correlate.txt",
        include_str!("golden/correlate.txt"),
        &out,
    );
}

/// The full chain at three operating points: CSI/MRC, RSSI/best-single,
/// and the long-range coded mode. Records alignment, channel selection
/// and MRC weights, the sliced bits, and the resulting error count.
#[test]
fn golden_uplink_decode_chain() {
    let mut out = String::new();
    let payload: Vec<bool> = (0..16).map(|i| (i * 5) % 3 == 0).collect();

    // CSI + MRC, decoder inspected directly for the selection/weights.
    let mut cfg = LinkConfig::fig10(0.1, 100, 10, 77);
    cfg.measurement = Measurement::Csi;
    cfg.payload = payload.clone();
    let capture = capture_uplink(&cfg);
    let dec = UplinkDecoder::new(UplinkDecoderConfig::csi(100, payload.len()));
    let dout = dec
        .decode(&capture.bundle, capture.start_us)
        .expect("CSI decode detects");
    out.push_str(&format!(
        "csi start_us {} preamble_score {:.6e} postamble_score {:.6e}\n",
        dout.start_us, dout.preamble_score, dout.postamble_score
    ));
    for ch in &dout.channels {
        out.push_str(&format!(
            "csi channel {:02} score {:.6e} weight {:+.6e}\n",
            ch.index, ch.score, ch.weight
        ));
    }
    out.push_str(&format!("csi bits {}\n", fmt_bits(&dout.bits)));

    // The same chain through run_uplink, then the RSSI pipeline (§3.3).
    for (name, measurement) in [("csi", Measurement::Csi), ("rssi", Measurement::Rssi)] {
        let mut cfg = LinkConfig::fig10(0.1, 100, 10, 77);
        cfg.measurement = measurement;
        cfg.payload = payload.clone();

        // The straight-line reference decodes the real capture to the
        // same output as the slot-indexed decoder.
        let capture = capture_uplink(&cfg);
        let dcfg = match measurement {
            Measurement::Csi => UplinkDecoderConfig::csi(100, payload.len()),
            Measurement::Rssi => UplinkDecoderConfig::rssi(100, payload.len()),
        };
        let dec = UplinkDecoder::new(dcfg);
        let indexed = dec.decode(&capture.bundle, capture.start_us);
        assert!(indexed.is_some(), "{name} golden capture must decode");
        assert_eq!(
            indexed,
            dec.decode_reference(&capture.bundle, capture.start_us),
            "{name} decode drifted from decode_reference"
        );

        let run = run_uplink(&cfg);
        out.push_str(&format!(
            "{name} run detected {} errors {} erasures {} bits {}\n",
            run.detected,
            run.ber.errors(),
            run.decoded.iter().filter(|b| b.is_none()).count(),
            fmt_bits(&run.decoded)
        ));
    }

    // Long-range coded mode (§3.4) at a range the plain decoder can't do.
    let mut cfg = LinkConfig::fig10(1.0, 200, 10, 78);
    cfg.measurement = Measurement::Csi;
    cfg.payload = payload[..8].to_vec();
    cfg.code_length = 8;
    let run = run_uplink(&cfg);
    out.push_str(&format!(
        "coded run detected {} errors {} bits {}\n",
        run.detected,
        run.ber.errors(),
        fmt_bits(&run.decoded)
    ));

    assert_golden(
        "tests/golden/uplink_chain.txt",
        include_str!("golden/uplink_chain.txt"),
        &out,
    );
}

/// FNV-1a over the raw capture: every timestamp and the bits of every
/// measured value, channel by channel. `uplink_chain.txt` prints scores
/// to 7 significant digits; this digest catches a change to any measured
/// value down to its last bit.
fn capture_digest(bundle: &wifi_backscatter::SeriesBundle) -> u64 {
    let mut h = Fnv1a64::new();
    h.write_u64(bundle.packets() as u64);
    h.write_u64(bundle.channels() as u64);
    for &t in bundle.t_us() {
        h.write_u64(t);
    }
    for c in 0..bundle.channels() {
        for v in bundle.channel(c) {
            h.write_u64(v.to_bits());
        }
    }
    h.finish()
}

/// Bit-exact raw captures (the measured series before any decoding) at
/// the canonical operating point with CSI and with RSSI, and with the
/// `sensor` fault preset's frozen CSI packets. Any change here is a
/// behaviour change, however small.
#[test]
fn golden_raw_capture_digests() {
    let payload: Vec<bool> = (0..16).map(|i| (i * 5) % 3 == 0).collect();
    let cases = [
        ("csi", Measurement::Csi, None, 0x3d95_c278_6b98_90aa_u64),
        ("rssi", Measurement::Rssi, None, 0xe34a_de02_48c6_322b),
        (
            "csi+sensor",
            Measurement::Csi,
            Some("sensor"),
            0xeb3d_fa80_7846_7092,
        ),
    ];
    for (name, measurement, preset, expected) in cases {
        let mut cfg = LinkConfig::fig10(0.1, 100, 10, 77);
        cfg.measurement = measurement;
        cfg.payload = payload.clone();
        if let Some(p) = preset {
            cfg.faults = FaultPlan::preset(p, 1.0, 77).expect("known preset");
        }
        let capture = capture_uplink(&cfg);
        if preset.is_some() {
            assert!(
                capture.fault_events.frozen_packets > 0,
                "{name}: the preset froze no packets"
            );
        }
        let actual = capture_digest(&capture.bundle);
        assert_eq!(
            actual, expected,
            "{name}: raw capture digest {actual:#018x}, pinned {expected:#018x}"
        );
    }
}
