//! Property-based tests for the RF substrate's physical invariants,
//! driven by the deterministic in-repo [`bs_dsp::testkit`] generator.

use bs_channel::backscatter::{RadarCrossSection, TagState};
use bs_channel::fading::{FadingConfig, SlowFading};
use bs_channel::geometry::{line_of_sight, path_wall_loss_db, Point, Wall};
use bs_channel::multipath::{Multipath, MultipathConfig};
use bs_channel::pathloss::{db_to_linear, linear_to_db, LogDistance, WIFI_CH6_HZ};
use bs_channel::scene::{ChannelSnapshot, InterferenceConfig, Scene, SceneConfig, SceneStep};
use bs_dsp::testkit::check;
use bs_dsp::SimRng;

#[test]
fn db_linear_inverse() {
    check("db-linear-inverse", 256, |g| {
        let db = g.f64_in(-150.0, 60.0);
        let lin = db_to_linear(db);
        assert!(lin > 0.0);
        assert!((linear_to_db(lin) - db).abs() < 1e-9);
    });
}

#[test]
fn pathloss_monotone() {
    check("pathloss-monotone", 256, |g| {
        let d1 = g.f64_in(0.02, 50.0);
        let d2 = g.f64_in(0.02, 50.0);
        let exp = g.f64_in(2.0, 4.0);
        let m = LogDistance {
            exponent: exp,
            freq_hz: WIFI_CH6_HZ,
        };
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        assert!(m.loss_db(lo) <= m.loss_db(hi) + 1e-9);
        assert!(m.power_gain(lo) + 1e-15 >= m.power_gain(hi));
    });
}

#[test]
fn pathloss_gain_in_unit_interval() {
    check("pathloss-gain-unit", 256, |g| {
        let d = g.f64_in(1.0, 100.0);
        let m = LogDistance::default();
        let gain = m.power_gain(d);
        assert!(gain > 0.0 && gain < 1.0);
    });
}

#[test]
fn multipath_power_always_normalized() {
    check("multipath-normalized", 128, |g| {
        let seed = g.case();
        let taps = g.usize_in(1, 16);
        let spread_ns = g.f64_in(10.0, 200.0);
        let k = g.f64_in(0.0, 10.0);
        let cfg = MultipathConfig {
            scattered_taps: taps,
            delay_spread_s: spread_ns * 1e-9,
            k_factor: k,
        };
        let mp = Multipath::generate(&cfg, &mut SimRng::new(seed));
        assert!((mp.total_power() - 1.0).abs() < 1e-9);
    });
}

#[test]
fn multipath_response_bounded_by_tap_amplitudes() {
    check("multipath-response-bounded", 128, |g| {
        let seed = g.case().wrapping_mul(0x9e37_79b9) ^ 0x5bd1;
        let f_mhz = g.f64_in(-10.0, 10.0);
        let mp = Multipath::generate(&MultipathConfig::default(), &mut SimRng::new(seed));
        let bound: f64 = mp.taps().iter().map(|t| t.gain.abs()).sum();
        assert!(mp.response(f_mhz * 1e6).abs() <= bound + 1e-9);
    });
}

#[test]
fn rcs_differential_nonnegative_when_reflect_dominates() {
    check("rcs-differential", 256, |g| {
        let reflect = g.f64_in(0.001, 0.5);
        let frac = g.f64_in(0.0, 1.0);
        let rcs = RadarCrossSection {
            reflect_m2: reflect,
            absorb_m2: reflect * frac,
        };
        assert!(rcs.differential_amplitude(WIFI_CH6_HZ) >= -1e-12);
    });
}

#[test]
fn wall_loss_symmetric() {
    check("wall-loss-symmetric", 256, |g| {
        let walls = vec![
            Wall::new(Point::new(0.0, -10.0), Point::new(0.0, 10.0), 7.0),
            Wall::new(Point::new(2.0, -10.0), Point::new(2.0, 10.0), 3.0),
        ];
        let p = Point::new(g.f64_in(-5.0, 5.0), g.f64_in(-5.0, 5.0));
        let q = Point::new(g.f64_in(-5.0, 5.0), g.f64_in(-5.0, 5.0));
        assert_eq!(
            path_wall_loss_db(&walls, p, q),
            path_wall_loss_db(&walls, q, p)
        );
        assert_eq!(line_of_sight(&walls, p, q), line_of_sight(&walls, q, p));
    });
}

#[test]
fn fading_gain_stays_near_one() {
    check("fading-near-one", 64, |g| {
        let seed = g.case() ^ 0xfad176;
        let cfg = FadingConfig {
            sigma: 0.05,
            tau_s: 1.0,
        };
        let mut f = SlowFading::new(cfg, SimRng::new(seed));
        for i in 0..50 {
            let gain = f.gain_at(i as f64 * 0.1);
            // 0.05 sigma: |g - 1| beyond 0.5 would be a >10-sigma event.
            assert!((gain - bs_dsp::Complex::ONE).abs() < 0.5);
        }
    });
}

#[test]
fn scene_differential_scales_down_with_distance() {
    check("scene-differential-distance", 32, |g| {
        let seed = g.usize_in(0, 500) as u64;
        let f: Vec<f64> = (0..8).map(|i| (i as f64 - 3.5) * 2.5e6).collect();
        let diff_at = |d: f64| -> f64 {
            let mut cfg = SceneConfig::uplink(d);
            cfg.fading = FadingConfig::static_channel();
            let s = Scene::new(cfg, &SimRng::new(seed));
            s.differential(&f).iter().map(|c| c.abs()).sum()
        };
        // Same multipath seed, 20x distance: differential must shrink.
        assert!(diff_at(0.1) > diff_at(2.0));
    });
}

#[test]
fn scene_snapshot_deterministic() {
    check("scene-snapshot-deterministic", 64, |g| {
        let seed = g.case().wrapping_mul(0x517c_c1b7_2722_0a95);
        let d_cm = g.usize_in(5, 200) as u32;
        let f: Vec<f64> = (0..4).map(|i| i as f64 * 5e6 - 7.5e6).collect();
        let mut cfg = SceneConfig::uplink(d_cm as f64 / 100.0);
        cfg.fading = FadingConfig::static_channel();
        let mut a = Scene::new(cfg.clone(), &SimRng::new(seed));
        let mut b = Scene::new(cfg, &SimRng::new(seed));
        let sa = a.snapshot(0.0, TagState::Reflect, &f);
        let sb = b.snapshot(0.0, TagState::Reflect, &f);
        assert_eq!(sa.h, sb.h);
    });
}

/// Every bit of a snapshot: its channel, powers, time, shape and state.
fn snapshot_bits(s: &ChannelSnapshot) -> (Vec<u64>, usize, TagState) {
    let scalars = [s.tx_mw_per_subcarrier, s.noise_mw_per_subcarrier, s.time_s];
    let bits = (s.h.iter().flat_map(|c| [c.re, c.im]))
        .chain(scalars)
        .map(f64::to_bits)
        .collect();
    (bits, s.antennas, s.tag_state)
}

/// `Scene::snapshot` is its serial step followed by the pure fill, bit
/// for bit, also in the order a capture runs them: every step first,
/// then each fill from a cloned table into one reused snapshot.
#[test]
fn snapshot_is_its_step_then_a_fill() {
    check("scene-step-then-fill", 64, |g| {
        let seed = g.case().wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut cfg = SceneConfig::uplink(g.f64_in(0.05, 3.0));
        let antennas = g.usize_in(1, 5);
        cfg.reader_antennas = antennas;
        if g.bool() {
            cfg.fading = FadingConfig::static_channel();
        }
        if g.bool() {
            cfg.interference = Some(InterferenceConfig::microwave_oven());
        }
        let offsets = g.vec_f64(-10e6, 10e6, 1, 31);
        let mut t_s = 0.0;
        let plan: Vec<(f64, TagState)> = (0..g.usize_in(1, 40))
            .map(|_| {
                // Some packets share an instant.
                if g.bool() {
                    t_s += g.f64_in(0.0, 0.05);
                }
                let state = if g.bool() {
                    TagState::Reflect
                } else {
                    TagState::Absorb
                };
                (t_s, state)
            })
            .collect();
        let mut whole = Scene::new(cfg.clone(), &SimRng::new(seed));
        let mut split = Scene::new(cfg, &SimRng::new(seed));
        let steps: Vec<SceneStep> = plan.iter().map(|&(t, s)| split.step(t, s)).collect();
        let table = split.table(&offsets).clone();
        let mut reused = table.snapshot(&steps[steps.len() - 1]);
        for (k, (&(t, state), step)) in plan.iter().zip(&steps).enumerate() {
            let want = whole.snapshot(t, state, &offsets);
            let shape = (want.antennas, want.h.len());
            assert_eq!(shape, (antennas, antennas * offsets.len()));
            assert_eq!(
                (want.time_s.to_bits(), want.tag_state),
                (t.to_bits(), state)
            );
            assert_eq!(
                snapshot_bits(&table.snapshot(step)),
                snapshot_bits(&want),
                "case {} packet {k}",
                g.case()
            );
            table.fill(step, &mut reused);
            assert_eq!(snapshot_bits(&reused), snapshot_bits(&want));
        }
    });
}
