//! Property-based tests for the Wi-Fi substrate's invariants,
//! driven by the deterministic in-repo [`bs_dsp::testkit`] generator.

use bs_channel::scene::ChannelSnapshot;
use bs_channel::TagState;
use bs_dsp::obs::MemRecorder;
use bs_dsp::testkit::check;
use bs_dsp::{Complex, SimRng};
use bs_wifi::csi::{CsiConfig, CsiExtractor};
use bs_wifi::frame::{airtime_us, FrameKind, WifiFrame, MAX_NAV_US};
use bs_wifi::mac::{all_delivered, MacConfig, Medium, Station};
use bs_wifi::rate_adapt::{best_rate, mac_efficiency, RateAdapter, RATE_TABLE};
use bs_wifi::rssi::RssiExtractor;
use bs_wifi::traffic;

// ---- frames ----

#[test]
fn airtime_positive_and_monotone() {
    check("airtime-monotone", 256, |g| {
        let bytes = g.usize_in(1, 3000);
        let extra = g.usize_in(1, 1000);
        let rate = g.usize_in(60, 540) as f64 / 10.0;
        let a = airtime_us(bytes, rate);
        let b = airtime_us(bytes + extra, rate);
        assert!(a > 0);
        assert!(b >= a);
    });
}

#[test]
fn nav_is_always_clamped() {
    check("nav-clamped", 256, |g| {
        let nav = g.case().wrapping_mul(0x2545_f491_4f6c_dd1d);
        let f = WifiFrame {
            kind: FrameKind::CtsToSelf { nav_us: nav },
            src: 0,
            timestamp_us: 0,
            duration_us: 30,
        };
        assert!(f.nav_us() <= MAX_NAV_US);
    });
}

// ---- MAC ----

#[test]
fn mac_frames_never_overlap() {
    check("mac-no-overlap", 24, |g| {
        let seed = g.case() ^ 0x3ac011;
        let pps1 = g.f64_in(50.0, 1500.0);
        let pps2 = g.f64_in(50.0, 1500.0);
        let rng = SimRng::new(seed);
        let s1 = Station::data(
            traffic::poisson(pps1, 200_000, &mut rng.stream("s1")),
            800,
            54.0,
        );
        let s2 = Station::data(
            traffic::poisson(pps2, 200_000, &mut rng.stream("s2")),
            800,
            54.0,
        );
        let mut medium = Medium::new(MacConfig::default(), rng.stream("m"));
        let (timeline, stats) = medium.simulate(&[s1, s2], 200_000);
        // Non-collided frames never overlap in time.
        let ok = all_delivered(&timeline);
        for w in ok.windows(2) {
            assert!(
                w[1].timestamp_us >= w[0].end_us(),
                "{} < {}",
                w[1].timestamp_us,
                w[0].end_us()
            );
        }
        // Accounting adds up.
        assert_eq!(stats.delivered + stats.collisions, timeline.len() as u64);
    });
}

#[test]
fn mac_delivers_at_most_offered() {
    check("mac-at-most-offered", 24, |g| {
        let seed = g.case() ^ 0x0ff312;
        let pps = g.f64_in(10.0, 3000.0);
        let rng = SimRng::new(seed);
        let arrivals = traffic::poisson(pps, 500_000, &mut rng.stream("a"));
        let offered = arrivals.len();
        let st = Station::data(arrivals, 1000, 54.0);
        let mut medium = Medium::new(MacConfig::default(), rng.stream("m"));
        let (timeline, _) = medium.simulate(&[st], 500_000);
        assert!(timeline.len() <= offered);
    });
}

// ---- traffic ----

#[test]
fn generators_sorted_and_bounded() {
    check("traffic-sorted-bounded", 48, |g| {
        let seed = g.case() ^ 0x7aff1c;
        let pps = g.f64_in(1.0, 5000.0);
        let mut rng = SimRng::new(seed);
        for arr in [
            traffic::cbr(pps, 300_000, &mut rng),
            traffic::poisson(pps, 300_000, &mut rng),
            traffic::bursty_onoff(pps.max(100.0), 20_000.0, 40_000.0, 300_000, &mut rng),
        ] {
            assert!(arr.windows(2).all(|w| w[0] <= w[1]));
            assert!(arr.iter().all(|&t| t < 300_000));
        }
    });
}

#[test]
fn generators_are_seed_reproducible() {
    check("traffic-seed-reproducible", 32, |g| {
        let seed = g.case() ^ 0x5eed;
        let pps = g.f64_in(10.0, 2000.0);
        let gen_all = |seed: u64| -> Vec<Vec<u64>> {
            let rng = SimRng::new(seed);
            vec![
                traffic::cbr(pps, 250_000, &mut rng.stream("cbr")),
                traffic::poisson(pps, 250_000, &mut rng.stream("poisson")),
                traffic::bursty_onoff(
                    pps.max(100.0),
                    15_000.0,
                    30_000.0,
                    250_000,
                    &mut rng.stream("bursty"),
                ),
                traffic::streaming(128.0, 800, 60_000, 250_000, &mut rng.stream("stream")),
                traffic::beacons(102_400, 250_000),
            ]
        };
        assert_eq!(gen_all(seed), gen_all(seed));
    });
}

#[test]
fn streaming_and_beacons_sorted_and_bounded() {
    check("stream-beacon-sorted-bounded", 64, |g| {
        let seed = g.case() ^ 0xbea0c;
        let kbps = g.f64_in(32.0, 512.0);
        let mut rng = SimRng::new(seed);
        for arr in [
            traffic::streaming(kbps, 800, 60_000, 300_000, &mut rng),
            traffic::beacons(g.usize_in(10_000, 200_000) as u64, 300_000),
        ] {
            assert!(arr.windows(2).all(|w| w[0] <= w[1]));
            assert!(arr.iter().all(|&t| t < 300_000));
        }
    });
}

// ---- fault-wrapped traffic ----

#[test]
fn fault_wrapped_generators_keep_the_contract() {
    use bs_channel::faults::{FaultEvents, FaultPlan};
    // Whatever a plan does to a stream, the decorated output must still
    // honour the generator contract: sorted, within `until_us`, and
    // byte-reproducible from (plan seed, stream name) alone.
    check("traffic-fault-wrapped", 24, |g| {
        let seed = g.case() ^ 0xfa017;
        let pps = g.f64_in(100.0, 2000.0);
        let severity = g.f64_in(0.0, 1.0);
        let scenario = ["outage", "collapse", "loss", "dup", "all"][g.usize_in(0, 4)];
        let plan = FaultPlan::preset(scenario, severity, seed).unwrap();
        let base = traffic::cbr(pps, 300_000, &mut SimRng::new(seed).stream("base"));

        let mut e1 = FaultEvents::default();
        let out = traffic::apply_faults(base.clone(), &plan, "helper", &mut e1);
        assert!(
            out.windows(2).all(|w| w[0] <= w[1]),
            "unsorted after faults"
        );
        assert!(out.iter().all(|&t| t < 300_000), "arrival past until_us");

        let mut e2 = FaultEvents::default();
        let again = traffic::apply_faults(base.clone(), &plan, "helper", &mut e2);
        assert_eq!(out, again, "fault decoration not reproducible");
        assert_eq!(e1, e2, "fault events not reproducible");

        // The books balance: output size = input - dropped + duplicated.
        assert_eq!(
            out.len() as i64,
            base.len() as i64 - e1.packets_dropped as i64 + e1.packets_duplicated as i64,
            "fault accounting does not balance"
        );

        // A zero-severity or empty plan is the identity, with no events.
        let mut e3 = FaultEvents::default();
        let inert = plan.clone().with_severity(0.0);
        assert_eq!(
            traffic::apply_faults(base.clone(), &inert, "helper", &mut e3),
            base
        );
        assert_eq!(e3, FaultEvents::default());
    });
}

#[test]
fn office_profile_bounded() {
    check("office-profile-bounded", 256, |g| {
        let h = g.f64_in(0.0, 24.0);
        let p = traffic::OfficeLoadProfile.load_pps(h);
        assert!((100.0..=1200.0).contains(&p), "{p}");
    });
}

// ---- rate adaptation ----

#[test]
fn best_rate_monotone_in_snr() {
    check("best-rate-monotone", 256, |g| {
        let a = g.f64_in(-10.0, 45.0);
        let b = g.f64_in(-10.0, 45.0);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(best_rate(lo).rate_mbps <= best_rate(hi).rate_mbps);
    });
}

#[test]
fn adapter_always_in_table() {
    check("adapter-in-table", 128, |g| {
        let snrs = g.vec_f64(-20.0, 50.0, 1, 100);
        let mut ad = RateAdapter::default();
        for s in snrs {
            let r = ad.observe(s);
            assert!(RATE_TABLE.iter().any(|m| m.rate_mbps == r.rate_mbps));
        }
    });
}

#[test]
fn mac_efficiency_in_unit_interval() {
    check("mac-efficiency-unit", 256, |g| {
        let e = mac_efficiency(g.usize_in(60, 540) as f64 / 10.0);
        assert!(e > 0.0 && e < 1.0);
    });
}

// ---- CSI ----

/// The draw-only pass and the in-place writer agree with `measure_with`:
/// the same stream position after every packet, the same counters, and
/// the same amplitudes to the last bit, over random artifact configs and
/// shapes. A capture splits its sweep between the two on the strength
/// of this.
#[test]
fn csi_skip_and_in_place_measure_agree_with_measure() {
    check("csi-skip-measure", 96, |g| {
        let mut cfg = if g.bool() {
            CsiConfig::default()
        } else {
            CsiConfig::ideal()
        };
        cfg.spurious_jump_prob = [0.0, 0.5, 1.0][g.usize_in(0, 3)];
        cfg.spurious_jump_scale = g.f64_in(0.0, 0.9);
        if g.bool() {
            cfg.gain_jitter = 0.0;
            cfg.subchannel_jitter = 0.0;
        }
        if g.bool() {
            cfg.quant_step = 0.0;
        }
        let antennas = g.usize_in(1, 5);
        let subchannels = g.usize_in(1, 31);
        cfg.weak_antenna = g.bool().then(|| g.usize_in(0, antennas));
        let seed = g.case() ^ 0xc51;
        let mut measured = CsiExtractor::new(cfg, SimRng::new(seed));
        let mut skipped = measured.clone();
        let (mut rec_measured, mut rec_skipped) = (MemRecorder::new(), MemRecorder::new());
        for p in 0..g.usize_in(1, 51) {
            let snap = ChannelSnapshot {
                h: (0..antennas * subchannels)
                    .map(|_| Complex::new(g.f64_in(-1e-2, 1e-2), g.f64_in(-1e-2, 1e-2)))
                    .collect(),
                antennas,
                tx_mw_per_subcarrier: g.f64_in(1e-3, 1.0),
                noise_mw_per_subcarrier: g.f64_in(1e-12, 1e-6),
                tag_state: TagState::Absorb,
                time_s: 0.0,
            };
            let mut in_place = vec![f64::NAN; snap.h.len()];
            let mut written = skipped.clone();
            written.measure_into(&snap, &mut in_place);
            skipped.skip_with(&snap, &mut rec_skipped);
            let m = measured.measure_with(&snap, p as u64, &mut rec_measured);
            let want: Vec<u64> = m.amplitude.iter().map(|a| a.to_bits()).collect();
            let got: Vec<u64> = in_place.iter().map(|a| a.to_bits()).collect();
            assert_eq!(got, want, "case {} packet {p}", g.case());
            let next = |ex: &CsiExtractor| ex.rng().clone().next_u64();
            assert_eq!(
                next(&skipped),
                next(&measured),
                "case {} packet {p}: skip",
                g.case()
            );
            assert_eq!(
                next(&written),
                next(&measured),
                "case {} packet {p}: in place",
                g.case()
            );
        }
        assert_eq!(
            rec_skipped.report().to_json(),
            rec_measured.report().to_json(),
            "case {}",
            g.case()
        );
    });
}

// ---- RSSI ----

/// The RSSI draw-only pass and the in-place writer agree with
/// `measure_with`, as the CSI ones do: the same stream position after
/// every packet, the same counter, and the same values to the last bit,
/// over random channels, antenna counts and powers.
#[test]
fn rssi_skip_and_in_place_measure_agree_with_measure() {
    check("rssi-skip-measure", 96, |g| {
        let antennas = g.usize_in(1, 5);
        let subchannels = g.usize_in(1, 31);
        let mut measured = RssiExtractor::new(SimRng::new(g.case() ^ 0x551));
        let mut skipped = measured.clone();
        let (mut rec_measured, mut rec_skipped) = (MemRecorder::new(), MemRecorder::new());
        for p in 0..g.usize_in(1, 51) {
            let scale = 10f64.powf(g.f64_in(-6.0, 0.0));
            let snap = ChannelSnapshot {
                h: (0..antennas * subchannels)
                    .map(|_| Complex::new(g.f64_in(-scale, scale), g.f64_in(-scale, scale)))
                    .collect(),
                antennas,
                tx_mw_per_subcarrier: g.f64_in(1e-3, 1.0),
                noise_mw_per_subcarrier: g.f64_in(1e-12, 1e-6),
                tag_state: TagState::Absorb,
                time_s: 0.0,
            };
            let mut in_place = vec![f64::NAN; antennas];
            let mut written = skipped.clone();
            written.measure_into(&snap, &mut in_place);
            skipped.skip_with(&snap, &mut rec_skipped);
            let m = measured.measure_with(&snap, p as u64, &mut rec_measured);
            let want: Vec<u64> = m.rssi_dbm.iter().map(|v| v.to_bits()).collect();
            let got: Vec<u64> = in_place.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "case {} packet {p}", g.case());
            let next = |ex: &RssiExtractor| ex.rng().clone().next_u64();
            assert_eq!(
                next(&skipped),
                next(&measured),
                "case {} packet {p}: skip",
                g.case()
            );
            assert_eq!(
                next(&written),
                next(&measured),
                "case {} packet {p}: in place",
                g.case()
            );
        }
        assert_eq!(
            rec_skipped.report().to_json(),
            rec_measured.report().to_json(),
            "case {}",
            g.case()
        );
    });
}
