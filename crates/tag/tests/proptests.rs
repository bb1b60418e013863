//! Property-based tests for the tag hardware model's invariants,
//! driven by the deterministic in-repo [`bs_dsp::testkit`] generator.

use bs_dsp::testkit::{check, Gen};
use bs_dsp::SimRng;
use bs_tag::energy::{Capacitor, CapacitorConfig};
use bs_tag::envelope::{EnvelopeConfig, EnvelopeModel};
use bs_tag::frame::{DownlinkFrame, FrameError, UplinkFrame};
use bs_tag::harvester::{duty_cycle, rectifier_efficiency};
use bs_tag::modulator::{Modulator, UplinkMode};
use bs_tag::receiver::{debounce_transitions, CircuitConfig, ReceiverCircuit};

// ---- frames ----

#[test]
fn uplink_frame_roundtrips() {
    check("uplink-frame-roundtrip", 256, |g| {
        let payload = g.vec_bool(0, 200);
        let f = UplinkFrame::new(payload.clone());
        let bits = f.to_bits();
        assert_eq!(bits.len(), UplinkFrame::on_air_len(payload.len()));
        let back = UplinkFrame::from_bits(&bits, payload.len()).unwrap();
        assert_eq!(back.payload, payload);
    });
}

#[test]
fn downlink_frame_roundtrips() {
    check("downlink-frame-roundtrip", 256, |g| {
        let payload = g.vec_u8(0, 64);
        let f = DownlinkFrame::new(payload);
        let bits = f.to_bits();
        let back = DownlinkFrame::from_body_bits(&bits[16..]).unwrap();
        assert_eq!(back, f);
    });
}

#[test]
fn on_air_len_matches_the_serialised_bits_for_every_payload_length() {
    // Airtime is charged from `on_air_len` without serialising the
    // frame; it must equal the length of what the frame puts on the air.
    check("frame-on-air-len", 4, |g| {
        for n in 0..=DownlinkFrame::MAX_PAYLOAD {
            let f = DownlinkFrame::new(g.vec_u8(n, n + 1));
            assert_eq!(
                DownlinkFrame::on_air_len(n),
                f.to_bits().len(),
                "downlink {n}"
            );
        }
        for n in 0..=256 {
            let f = UplinkFrame::new(g.vec_bool(n, n + 1));
            assert_eq!(UplinkFrame::on_air_len(n), f.to_bits().len(), "uplink {n}");
        }
    });
}

#[test]
fn downlink_single_bitflip_never_accepted_as_different_frame() {
    check("downlink-bitflip-rejected", 256, |g| {
        let payload = g.vec_u8(1, 24);
        let f = DownlinkFrame::new(payload);
        let mut bits = f.to_bits()[16..].to_vec();
        let i = g.usize_in(0, bits.len());
        bits[i] = !bits[i];
        match DownlinkFrame::from_body_bits(&bits) {
            // Any accepted frame must be the original (flip in padding
            // can't happen — every bit is live), so acceptance means error.
            Ok(back) => assert_eq!(back, f, "corrupted frame accepted"),
            Err(FrameError::BadCrc { .. })
            | Err(FrameError::BadLength)
            | Err(FrameError::Truncated) => {}
        }
    });
}

// ---- modulator ----

#[test]
fn modulator_covers_whole_frame() {
    check("modulator-covers-frame", 128, |g| {
        let payload = g.vec_bool(1, 64);
        let rate = g.usize_in(50, 2000) as u64;
        let start = g.usize_in(0, 1_000_000) as u64;
        let f = UplinkFrame::new(payload);
        let m = Modulator::from_chip_rate(&f, rate, UplinkMode::Plain, start);
        assert_eq!(m.chips().len(), f.to_bits().len());
        assert_eq!(
            m.end_us(),
            start + m.chips().len() as u64 * m.chip_duration_us()
        );
        // Mid-chip states match the chip stream.
        for (i, &c) in m.chips().iter().enumerate() {
            let t = start + i as u64 * m.chip_duration_us() + m.chip_duration_us() / 2;
            assert_eq!(m.state_at(t).bit(), c);
        }
    });
}

#[test]
fn coded_modulator_is_l_times_longer() {
    check("coded-modulator-length", 128, |g| {
        let payload = g.vec_bool(1, 16);
        let l = g.usize_in(1, 32) * 2;
        let f = UplinkFrame::new(payload);
        let plain = Modulator::from_chip_rate(&f, 100, UplinkMode::Plain, 0);
        let coded = Modulator::from_chip_rate(
            &f,
            100,
            UplinkMode::Coded(bs_dsp::codes::OrthogonalPair::new(l)),
            0,
        );
        assert_eq!(coded.chips().len(), plain.chips().len() * l);
    });
}

// ---- receiver circuit ----

#[test]
fn peak_never_negative_and_bounded() {
    check("peak-bounded", 128, |g| {
        let samples = g.vec_f64(0.0, 1000.0, 1, 500);
        let mut c = ReceiverCircuit::new(CircuitConfig::default());
        let max_in = samples.iter().cloned().fold(0.0, f64::max);
        for &s in &samples {
            c.step(s);
            assert!(c.peak_mw() >= 0.0);
            assert!(c.peak_mw() <= max_in + 1e-9);
        }
    });
}

#[test]
fn comparator_low_for_silence() {
    check("comparator-silence", 128, |g| {
        let n = g.usize_in(10, 200);
        let mut c = ReceiverCircuit::new(CircuitConfig::default());
        for _ in 0..n {
            assert!(!c.step(0.0), "comparator high on zero input");
        }
    });
}

#[test]
fn debounce_output_alternates_and_is_subset() {
    check("debounce-invariants", 256, |g| {
        let n_runs = g.usize_in(1, 40);
        let runs: Vec<u64> = (0..n_runs).map(|_| g.usize_in(1, 300) as u64).collect();
        let min_run = g.usize_in(1, 50) as u64;
        // Build an alternating transition list from run lengths.
        let mut trans = Vec::new();
        let mut t = 0u64;
        let mut level = true;
        for &r in &runs {
            trans.push((t, level));
            t += r;
            level = !level;
        }
        let out = debounce_transitions(&trans, min_run);
        // Alternating levels.
        for w in out.windows(2) {
            assert_ne!(w[0].1, w[1].1);
        }
        // Subset of input times.
        for o in &out {
            assert!(trans.contains(o));
        }
        // All interior runs at least min_run long.
        for w in out.windows(2) {
            assert!(w[1].0 - w[0].0 >= min_run || w[0].0 == trans[0].0);
        }
    });
}

// ---- envelope ----

#[test]
fn envelope_positive_and_tracks_level() {
    check("envelope-tracks-level", 64, |g| {
        let seed = g.case() ^ 0xe4e1;
        let level = g.f64_in(0.0, 10.0);
        let cfg = EnvelopeConfig::default();
        let mut m = EnvelopeModel::new(cfg, SimRng::new(seed));
        let trace = m.trace(2000, |_| level);
        assert!(trace.iter().all(|&v| v > 0.0));
        let mean = bs_dsp::stats::mean(&trace[500..]);
        let expect = level + cfg.noise_mw;
        assert!(
            (mean - expect).abs() < 0.3 * expect + 1e-12,
            "{mean} vs {expect}"
        );
    });
}

// ---- harvesting ----

#[test]
fn efficiency_monotone_everywhere() {
    check("efficiency-monotone", 256, |g| {
        let a = g.f64_in(-60.0, 30.0);
        let b = g.f64_in(-60.0, 30.0);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(rectifier_efficiency(lo) <= rectifier_efficiency(hi) + 1e-12);
    });
}

#[test]
fn duty_cycle_in_unit_interval() {
    check("duty-cycle-unit", 256, |g| {
        // Ordinary powers mixed with NaN, ±∞ and negative ones.
        let draw = |g: &mut Gen| match g.usize_in(0, 9) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => g.f64_in(-1000.0, 0.0),
            _ => g.f64_in(0.0, 1000.0),
        };
        let (harvest, load) = (draw(g), draw(g));
        let d = duty_cycle(harvest, load);
        assert!((0.0..=1.0).contains(&d), "duty {d} at {harvest} / {load}");
        if !harvest.is_finite() || harvest < 0.0 {
            assert_eq!(d, 0.0, "a bad harvest {harvest} must fund nothing");
        }
    });
}

#[test]
fn storage_energy_bounded() {
    check("storage-bounded", 128, |g| {
        let cap = g.f64_in(1.0, 1000.0);
        let v = g.f64_in(0.5, 5.0);
        let n = g.usize_in(1, 50);
        let mut s = Capacitor::new(CapacitorConfig {
            capacitance_uf: cap,
            voltage: v,
            initial_fraction: 0.0,
            ..CapacitorConfig::default()
        });
        for _ in 0..n {
            let h = g.f64_in(0.0, 100.0);
            let l = g.f64_in(0.0, 100.0);
            s.advance(10_000.0, h, l);
            assert!(s.charge_uj() >= 0.0);
            assert!(s.charge_uj() <= s.capacity_uj() + 1e-9);
        }
    });
}
