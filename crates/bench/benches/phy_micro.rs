//! Micro-benchmarks of the two PHY modes — per-exchange decode cost
//! of the presence and codeword paths — plus the PHY smoke bench behind
//! `--json <path>`.
//!
//! The smoke bench writes its evidence to `<path>` (see
//! `scripts/check.sh --bench-smoke`) and exits non-zero if its gate
//! fails: codeword speedup — at the paper's nominal 3000 pps helper
//! cadence in the benign regime, codeword-translation goodput is ≥ 10×
//! the presence PHY's on the same seeds (measured ≈ 3 orders of
//! magnitude at the pinned seed: the presence exchange pays a ~2.4 s
//! conditioning lead for ≤ 1 kbps on the wire, while codeword bits ride
//! the helper's own frames).

use bs_bench::experiments::phy::phy_point;
use bs_bench::microbench::{measure_ns, Group};
use bs_bench::object;
use bs_bench::report::{json_path, BenchReport, Verdict};
use std::process::ExitCode;
use wifi_backscatter::link::LinkConfig;
use wifi_backscatter::phy::{run_uplink, PhyConfig};

/// Master seed of the smoke sweep; per-run seeds derive from it by
/// golden-ratio increments, so the sweep reproduces byte-identically.
const SEED: u64 = 33;

/// Paired runs per mode in the goodput gate.
const RUNS: u64 = 3;

/// The PHY smoke bench behind `--json <path>` (wired into
/// `scripts/check.sh --bench-smoke`).
fn smoke() -> BenchReport {
    // Codeword vs presence goodput at the nominal busy channel, benign
    // regime, same per-run seeds.
    let presence = phy_point(&PhyConfig::Presence, 3_000.0, RUNS, SEED);
    let codeword = phy_point(&PhyConfig::Codeword, 3_000.0, RUNS, SEED);
    let ratio = codeword.goodput_bps / presence.goodput_bps.max(1e-9);
    let gate_speedup = presence.goodput_bps > 0.0 && ratio >= 10.0;

    let mut report = BenchReport::new("phy_modes");
    report.field(
        "workload",
        object! {
            "payload_bits": 128u64, "distance_m": 0.3, "helper_pps": 3000u64, "runs_per_mode": RUNS,
            "seed": SEED, "pairing": "per run: same seed for both modes",
        },
    );
    report.field("presence_goodput_bps", presence.goodput_bps);
    report.field("presence_bit_rate_bps", presence.bit_rate_bps);
    report.field("codeword_goodput_bps", codeword.goodput_bps);
    report.field("codeword_bit_rate_bps", codeword.bit_rate_bps);
    report.field("goodput_ratio", ratio);
    report.gate(
        "codeword_goodput_ge_10x_presence",
        Verdict::check(gate_speedup, "goodput ratio below 10x"),
    );
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
    codeword_cfg.phy = PhyConfig::Codeword;
    g.bench("uplink_codeword_64b", 5, 2, || run_uplink(&codeword_cfg));

    // One whole figure point per mode — the end-to-end unit the phy
    // figure measures.
    let ns = measure_ns(3, 1, || phy_point(&PhyConfig::Codeword, 3_000.0, 1, SEED));
    println!("phy_micro/point_codeword_3000pps  {ns:.0} ns/iter (3 samples)");
    ExitCode::SUCCESS
}
