//! The PHY smoke bench: goodput of the presence and codeword modes on
//! paired seeds, and the wall time of one 64-bit exchange in each.
//!
//! With `--json [path]` it writes its evidence to `path` (default
//! `BENCH_phy.json`; see `scripts/check.sh --bench-smoke`); without, it
//! only prints its gate. It exits non-zero if the gate fails: codeword
//! speedup — at the paper's nominal 3000 pps helper cadence in the
//! benign regime, codeword-translation goodput is ≥ 10× the presence
//! PHY's on the same seeds (measured ≈ 3 orders of
//! magnitude at the pinned seed: the presence exchange pays a ~2.4 s
//! conditioning lead for ≤ 1 kbps on the wire, while codeword bits ride
//! the helper's own frames).

use bs_bench::experiments::phy::phy_point;
use bs_bench::microbench::measure_ns;
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

/// Median wall time of one 64-bit exchange (capture + decode) at the
/// nominal point under `phy`, in ns. Ungated: it varies run to run.
fn exchange_ns(phy: PhyConfig) -> f64 {
    let mut cfg = LinkConfig::fig10(0.3, 200, 5, 5);
    if matches!(phy, PhyConfig::Codeword) {
        cfg.helper_pps = 3_000.0;
    }
    cfg.payload = (0..64).map(|i| i % 3 != 1).collect();
    cfg.phy = phy;
    measure_ns(5, 2, || run_uplink(&cfg))
}

/// The goodput gate and the exchange timings.
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
    report.field("presence_exchange_64b_ns", exchange_ns(PhyConfig::Presence));
    report.field("codeword_exchange_64b_ns", exchange_ns(PhyConfig::Codeword));
    report.gate(
        "codeword_goodput_ge_10x_presence",
        Verdict::check(gate_speedup, "goodput ratio below 10x"),
    );
    report
}

fn main() -> ExitCode {
    smoke().finish(json_path("phy").as_deref())
}
