//! Micro-benchmarks of the PHY mode family — per-exchange decode cost
//! of the presence and codeword paths — plus the PHY smoke bench behind
//! `--json <path>`.
//!
//! The smoke bench writes its evidence to `<path>` (see
//! `scripts/check.sh --bench-smoke`) and exits non-zero if a gate
//! fails:
//!
//! 1. presence identity — routing through the default
//!    `PhyConfig::Presence` and calling `PresencePhy` directly produce
//!    bit-identical runs across 3 seeds and the 7 fault presets: 10
//!    checks, one per workload (20 while a third, since removed, entry
//!    point was also compared);
//! 2. codeword speedup — at the paper's nominal 3000 pps helper cadence
//!    in the benign regime, codeword-translation goodput is ≥ 10× the
//!    presence PHY's on the same seeds (measured ≈ 3 orders of
//!    magnitude at the pinned seed: the presence exchange pays a ~2.4 s
//!    conditioning lead for ≤ 1 kbps on the wire, while codeword bits
//!    ride the helper's own frames).

use bs_bench::experiments::phy::{phy_point, Mode};
use bs_bench::microbench::{measure_ns, Group};
use bs_bench::object;
use bs_bench::report::{json_path, BenchReport, Verdict};
use std::process::ExitCode;
use wifi_backscatter::link::{LinkConfig, UplinkRun};
use wifi_backscatter::phy::{run_uplink, PhyUplink, PresencePhy};
use wifi_backscatter::prelude::{FaultPlan, NullRecorder};

/// Master seed of the smoke sweep; per-run seeds derive from it by
/// golden-ratio increments, so the sweep reproduces byte-identically.
const SEED: u64 = 33;

/// Paired runs per mode in the goodput gate.
const RUNS: u64 = 3;

fn fingerprint(run: &UplinkRun) -> String {
    format!(
        "{:?}|{:?}|{}|{}|{}|{:.9}|{:?}|{}",
        run.transmitted,
        run.decoded,
        run.ber.errors(),
        run.detected,
        run.packets_used,
        run.pkts_per_bit,
        run.degradation,
        run.elapsed_us,
    )
}

/// Gate 1 workloads: clean points and every fault preset. Returns the
/// number of (workload, path) mismatches against the routed entry point.
fn identity_mismatches() -> (u64, u64) {
    let payload: Vec<bool> = (0..16).map(|i| (i * 5) % 3 == 0).collect();
    let mut cfgs: Vec<LinkConfig> = Vec::new();
    for seed in [77u64, 12, 9] {
        let mut cfg = LinkConfig::fig10(0.2, 200, 5, seed);
        cfg.payload = payload.clone();
        cfgs.push(cfg);
    }
    for scenario in ["loss", "outage", "collapse", "sensor", "drift", "burst", "all"] {
        let mut cfg = LinkConfig::fig10(0.2, 200, 5, 55);
        cfg.payload = payload.clone();
        cfg.faults = FaultPlan::preset(scenario, 0.7, 31).expect("preset exists");
        cfgs.push(cfg);
    }
    let mut checked = 0;
    let mut mismatches = 0;
    for cfg in &cfgs {
        let routed = fingerprint(&run_uplink(cfg));
        let direct = fingerprint(&PresencePhy.uplink_with(cfg, &mut NullRecorder));
        checked += 1;
        if routed != direct {
            mismatches += 1;
        }
    }
    (checked, mismatches)
}

/// The PHY smoke bench behind `--json <path>` (wired into
/// `scripts/check.sh --bench-smoke`).
fn smoke() -> BenchReport {
    // Gate 1: presence identity across the decode paths.
    let (identity_checked, identity_mismatched) = identity_mismatches();
    let gate_identity = identity_mismatched == 0;

    // Gate 2: codeword vs presence goodput at the nominal busy channel,
    // benign regime, same per-run seeds.
    let presence = phy_point(Mode::Presence, 3_000.0, RUNS, SEED);
    let codeword = phy_point(Mode::Codeword, 3_000.0, RUNS, SEED);
    let ratio = codeword.goodput_bps / presence.goodput_bps.max(1e-9);
    let gate_speedup = presence.goodput_bps > 0.0 && ratio >= 10.0;

    let mut report = BenchReport::new("phy_modes");
    report.field("workload", object! {
        "payload_bits": 128u64, "distance_m": 0.3, "helper_pps": 3000u64, "runs_per_mode": RUNS,
        "seed": SEED, "pairing": "per run: same seed for both modes",
    });
    report.field("identity_checks", identity_checked);
    report.field("identity_mismatches", identity_mismatched);
    report.field("presence_goodput_bps", presence.goodput_bps);
    report.field("presence_bit_rate_bps", presence.bit_rate_bps);
    report.field("codeword_goodput_bps", codeword.goodput_bps);
    report.field("codeword_bit_rate_bps", codeword.bit_rate_bps);
    report.field("goodput_ratio", ratio);
    for (gate, ok, reason) in [
        ("presence_bit_identity", gate_identity, "decode paths differ"),
        ("codeword_goodput_ge_10x_presence", gate_speedup, "goodput ratio below 10x"),
    ] {
        report.gate(gate, Verdict::check(ok, reason));
    }
    report
}

fn main() -> ExitCode {
    if let Some(path) = json_path("phy") {
        return smoke().finish(&path);
    }

    let g = Group::new("phy_micro");
    let payload: Vec<bool> = (0..64).map(|i| i % 3 != 1).collect();

    // One presence exchange (capture + decode) at the nominal point.
    let mut presence_cfg = LinkConfig::fig10(0.3, 200, 5, 5);
    presence_cfg.payload = payload.clone();
    g.bench("uplink_presence_64b", 5, 2, || run_uplink(&presence_cfg));

    // The same payload through codeword translation.
    let mut codeword_cfg = LinkConfig::fig10(0.3, 200, 5, 5);
    codeword_cfg.helper_pps = 3_000.0;
    codeword_cfg.payload = payload.clone();
    codeword_cfg.phy = wifi_backscatter::phy::PhyConfig::codeword();
    g.bench("uplink_codeword_64b", 5, 2, || run_uplink(&codeword_cfg));

    // One whole figure point per mode — the end-to-end unit the phy
    // figure measures.
    let ns = measure_ns(3, 1, || phy_point(Mode::Codeword, 3_000.0, 1, SEED));
    println!("phy_micro/point_codeword_3000pps  {ns:.0} ns/iter (3 samples)");
    ExitCode::SUCCESS
}
