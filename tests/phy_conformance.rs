//! PHY mode conformance: the trait family must not change physics.
//!
//! Three contracts pin the `phy` redesign:
//!
//! 1. **Presence identity** — routing through [`PhyConfig::Presence`]
//!    (the default) and calling [`PresencePhy`] directly must produce
//!    bit-identical results on the golden workloads, including under
//!    every fault preset.
//! 2. **Codeword round-trip** — [`CodewordPhy`] recovers random
//!    payloads exactly in the benign regime (close range, healthy
//!    helper, zero fault severity).
//! 3. **Determinism** — both modes are pure functions of the seed,
//!    fault plans included.

use wifi_backscatter::link::{DownlinkConfig, LinkConfig, Measurement, UplinkRun};
use wifi_backscatter::phy::{
    run_downlink_ber, run_uplink, CodewordPhy, PhyConfig, PhyDownlink, PhyUplink, PresencePhy,
};
use wifi_backscatter::prelude::{FaultPlan, NullRecorder};

/// Collapses everything observable about an uplink run into one
/// comparable value (ObsReport excluded: recorders are identity-neutral
/// by the obs-conformance suite).
fn uplink_fingerprint(run: &UplinkRun) -> String {
    format!(
        "tx={:?} rx={:?} ber={}/{} det={} pkts={} ppb={:.9} deg={:?} t={}",
        run.transmitted,
        run.decoded,
        run.ber.errors(),
        run.ber.bits(),
        run.detected,
        run.packets_used,
        run.pkts_per_bit,
        run.degradation,
        run.elapsed_us,
    )
}

fn presence_workloads() -> Vec<LinkConfig> {
    let payload: Vec<bool> = (0..16).map(|i| (i * 5) % 3 == 0).collect();
    let mut out = Vec::new();
    for (d, rate, ppb, seed) in [(0.1, 100, 10, 77), (0.3, 500, 5, 12), (0.65, 100, 10, 9)] {
        for m in [Measurement::Csi, Measurement::Rssi] {
            let mut cfg = LinkConfig::fig10(d, rate, ppb, seed);
            cfg.measurement = m;
            cfg.payload = payload.clone();
            out.push(cfg);
        }
    }
    // The long-range coded point from the golden decode chain.
    let mut coded = LinkConfig::fig10(1.0, 200, 10, 78);
    coded.payload = payload[..8].to_vec();
    coded.code_length = 8;
    out.push(coded);
    // Every fault preset at mid severity.
    for scenario in ["loss", "outage", "collapse", "sensor", "drift", "burst", "all"] {
        if let Some(plan) = FaultPlan::preset(scenario, 0.7, 31) {
            let mut cfg = LinkConfig::fig10(0.2, 200, 5, 55);
            cfg.payload = payload.clone();
            cfg.faults = plan;
            out.push(cfg);
        }
    }
    out
}

#[test]
fn presence_phy_is_bit_identical_to_pre_trait_path() {
    for (i, cfg) in presence_workloads().into_iter().enumerate() {
        assert_eq!(
            cfg.phy,
            PhyConfig::Presence,
            "workload {i} should default to presence"
        );
        let routed = uplink_fingerprint(&run_uplink(&cfg));
        let direct =
            uplink_fingerprint(&PresencePhy.uplink_with(&cfg, &mut NullRecorder));
        assert_eq!(routed, direct, "workload {i}: routed vs direct PresencePhy");
    }
}

#[test]
fn presence_downlink_is_bit_identical_to_pre_trait_path() {
    for (i, (d, bps, seed)) in [(0.5, 20_000, 7), (1.5, 20_000, 3), (2.5, 10_000, 19)]
        .into_iter()
        .enumerate()
    {
        let cfg = DownlinkConfig::fig17(d, bps, seed);
        let routed = run_downlink_ber(&cfg, 400);
        let direct = PresencePhy.downlink_ber_with(&cfg, 400, &mut NullRecorder);
        assert_eq!(routed.ber, direct.ber, "point {i}");
        assert_eq!(routed.bits_sent, direct.bits_sent, "point {i}");
        assert_eq!(routed.degradation, direct.degradation, "point {i}");
    }
}

#[test]
fn codeword_phy_round_trips_random_payloads_benignly() {
    // "Random" payloads drawn from a seeded generator (the suite must be
    // reproducible): 3 lengths x 3 seeds at zero fault severity.
    for (i, &(bits, seed)) in [(16, 101), (64, 202), (96, 303)].iter().enumerate() {
        let payload: Vec<bool> = (0..bits)
            .map(|b| (b as u64).wrapping_mul(seed).wrapping_mul(0x9E37_79B9) % 7 < 3)
            .collect();
        let mut cfg = LinkConfig::fig10(0.8, 100, 5, seed);
        cfg.helper_pps = 3_000.0;
        cfg.payload = payload.clone();
        cfg.phy = PhyConfig::codeword();
        let run = run_uplink(&cfg);
        assert!(run.detected, "payload {i} not detected");
        assert_eq!(
            run.decoded,
            payload.iter().map(|&b| Some(b)).collect::<Vec<_>>(),
            "payload {i} corrupted"
        );
        assert_eq!(run.ber.errors(), 0, "payload {i} has bit errors");
    }
}

#[test]
fn both_modes_deterministic_under_fault_seeds() {
    let payload: Vec<bool> = (0..24).map(|i| i % 3 != 1).collect();
    for scenario in ["loss", "outage", "all"] {
        let plan = FaultPlan::preset(scenario, 0.8, 17).expect("preset exists");
        for phy in [PhyConfig::Presence, PhyConfig::codeword()] {
            let mk = || {
                let mut cfg = LinkConfig::fig10(0.4, 200, 5, 91);
                cfg.payload = payload.clone();
                cfg.faults = plan.clone();
                cfg.phy = phy.clone();
                uplink_fingerprint(&run_uplink(&cfg))
            };
            assert_eq!(mk(), mk(), "{scenario}/{} not deterministic", phy.capabilities().name);

            // A different seed must actually change something somewhere;
            // check divergence on the benign clone to avoid asserting on
            // a fully-saturated fault case.
            let mut a = LinkConfig::fig10(0.4, 200, 5, 91);
            a.payload = payload.clone();
            a.phy = phy.clone();
            let mut b = a.clone();
            b.seed = 92;
            assert_ne!(
                uplink_fingerprint(&run_uplink(&a)),
                uplink_fingerprint(&run_uplink(&b)),
                "seed does not reach the {} noise process",
                phy.capabilities().name
            );
        }
    }
}

#[test]
fn codeword_phy_object_is_usable_through_the_trait() {
    // The whole point of the redesign: mode-generic code holds a
    // `Box<dyn PhyMode>` and never matches on the variant.
    let modes: Vec<Box<dyn wifi_backscatter::phy::PhyMode>> =
        vec![Box::new(PresencePhy), Box::new(CodewordPhy::default())];
    for mode in &modes {
        let caps = mode.capabilities();
        assert_eq!(caps.name, mode.name());
        assert!(!caps.rate_steps_bps.is_empty());
        assert!(
            caps.select_rate_bps(3_000.0, 5, 0.8) >= *caps.rate_steps_bps.first().unwrap()
        );
    }
}
