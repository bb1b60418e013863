//! The FEC smoke bench: it replays the `fec` figure's wild-regime
//! severity sweep with paired links (every coding scheme sees the
//! identical arrival trace and fault stream per run) and times the
//! pooled RS(96, 64) code's encode and its decode at all 32 erasures.
//!
//! With `--json [path]` it writes its evidence to `path` (default
//! `BENCH_fec.json`; see `scripts/check.sh --bench-smoke`); without, it
//! only prints its gates. Exits non-zero if a gate fails:
//!
//! 1. exactness — the (96, 64) pooled code fills exactly n−k = 32
//!    erasures, bit for bit, across deterministic trials;
//! 2. paired wins — adaptive FEC+ARQ goodput ≥ plain ARQ on *every*
//!    paired run at every severity in {0, 0.25, 0.5, 0.75, 1};
//! 3. wild speedup — at severity 0.5 in the heavy-tailed wild regime,
//!    adaptive FEC's aggregate goodput is ≥ 1.5× plain ARQ's
//!    (measured ≈ 1.8× at the pinned seed);
//! 4. benign tie — on near-Poisson traffic the adaptive rule disables
//!    itself and matches plain ARQ bit for bit (FEC costs nothing when
//!    the channel doesn't need it).

use bs_bench::experiments::fec::{fec_point, Coding, FIXED_GROUP_DATA, FIXED_GROUP_PARITY};
use bs_bench::microbench::measure_ns;
use bs_bench::object;
use bs_bench::report::{json_path, BenchReport, Value, Verdict};
use bs_dsp::SimRng;
use bs_net::prelude::ReedSolomon;
use std::process::ExitCode;

/// Master seed of the smoke sweep. Pinned with the same contract as the
/// figure: per-run seeds derive from it by golden-ratio increments, so
/// the sweep reproduces byte-identically on any host.
const SEED: u64 = 24;

/// Paired runs per (severity, coding) cell.
const RUNS: u64 = 4;

/// Deterministic exactness trials: encode, erase n−k symbols, decode,
/// compare bit for bit. Returns the number of failing trials.
fn exactness_failures(trials: u64) -> u64 {
    let rs = ReedSolomon::new(FIXED_GROUP_DATA + FIXED_GROUP_PARITY, FIXED_GROUP_DATA);
    let mut rng = SimRng::new(SEED).stream("fec-bench-exactness");
    let mut failures = 0;
    for _ in 0..trials {
        let data: Vec<u8> = (0..rs.k()).map(|_| rng.index(256) as u8).collect();
        let clean = rs.encode(&data);
        let mut cw = clean.clone();
        let mut positions: Vec<usize> = Vec::new();
        while positions.len() < rs.parity_len() {
            let p = rng.index(rs.n());
            if !positions.contains(&p) {
                positions.push(p);
                cw[p] = rng.index(256) as u8;
            }
        }
        if rs.decode(&mut cw, &positions).is_err() || cw != clean {
            failures += 1;
        }
    }
    failures
}

/// Median wall times of the pooled code's encode and of its decode with
/// all n−k symbols erased, in ns. Ungated: they vary run to run.
fn pooled_code_ns() -> (f64, f64) {
    let rs = ReedSolomon::new(FIXED_GROUP_DATA + FIXED_GROUP_PARITY, FIXED_GROUP_DATA);
    let mut rng = SimRng::new(7).stream("fec-bench-micro");
    let data: Vec<u8> = (0..rs.k()).map(|_| rng.index(256) as u8).collect();
    let encode_ns = measure_ns(20, 50, || rs.encode(&data));
    let erased: Vec<usize> = (0..rs.parity_len()).map(|p| p * 2).collect();
    let mut holed = rs.encode(&data);
    for &p in &erased {
        holed[p] = 0;
    }
    let decode_ns = measure_ns(20, 50, || {
        let mut cw = holed.clone();
        rs.decode(&mut cw, &erased)
            .expect("decode at full erasure capacity")
    });
    (encode_ns, decode_ns)
}

/// The four gates and the pooled code's timings.
fn smoke() -> BenchReport {
    // Gate 1: Reed–Solomon exactness at capacity.
    let exact_fail = exactness_failures(64);
    let gate_exact = exact_fail == 0;

    // Gates 2 + 3: the wild-regime severity sweep, paired runs.
    let severities = [0.0f64, 0.25, 0.5, 0.75, 1.0];
    let mut paired_losses = 0u64;
    let mut paired_total = 0u64;
    let mut sweep_rows: Vec<Value> = Vec::new();
    let mut wild_05_ratio = 0.0f64;
    let mut repairs_total = 0u64;
    let mut decode_fails_total = 0u64;
    for &sev in &severities {
        let arq = fec_point("wild", Coding::ArqOnly, sev, RUNS, SEED);
        let ad = fec_point("wild", Coding::Adaptive, sev, RUNS, SEED);
        for r in 0..RUNS as usize {
            paired_total += 1;
            if ad.per_run_goodput[r] < arq.per_run_goodput[r] {
                paired_losses += 1;
            }
        }
        let (ga, gf): (f64, f64) = (
            arq.per_run_goodput.iter().sum(),
            ad.per_run_goodput.iter().sum(),
        );
        let ratio = gf / ga.max(1e-9);
        if (sev - 0.5).abs() < 1e-9 {
            wild_05_ratio = ratio;
        }
        repairs_total += ad.fec_repairs;
        decode_fails_total += ad.fec_decode_fails;
        sweep_rows.push(object! {
            "severity": sev, "arq_goodput_bps": arq.goodput_bps,
            "adaptive_goodput_bps": ad.goodput_bps, "ratio": ratio,
            "arq_complete": arq.complete_runs, "adaptive_complete": ad.complete_runs,
            "repairs": ad.fec_repairs, "decode_fails": ad.fec_decode_fails,
        });
    }
    let gate_paired = paired_losses == 0;
    let gate_speedup = wild_05_ratio >= 1.5;

    // Gate 4: benign tie — adaptive must match plain ARQ exactly on
    // near-Poisson traffic (the rule disables itself).
    let benign_arq = fec_point("poisson", Coding::ArqOnly, 0.5, RUNS, SEED);
    let benign_ad = fec_point("poisson", Coding::Adaptive, 0.5, RUNS, SEED);
    let gate_benign =
        benign_arq.per_run_goodput == benign_ad.per_run_goodput && benign_ad.fec_repairs == 0;

    let mut report = BenchReport::new("fec_transport");
    report.field(
        "workload",
        object! {
            "message_bytes": 1024u64, "regime": "wild", "window": 48u64, "runs_per_cell": RUNS,
            "seed": SEED,
            "pairing": "per (severity, run): same arrival trace and fault stream for every scheme",
        },
    );
    report.field(
        "exactness",
        object! {
            "code": format!("RS({}, {FIXED_GROUP_DATA})", FIXED_GROUP_DATA + FIXED_GROUP_PARITY),
            "trials": 64u64, "failures": exact_fail,
        },
    );
    report.field("wild_sweep", sweep_rows);
    report.field("wild_05_ratio", wild_05_ratio);
    report.field("paired_runs", paired_total);
    report.field("paired_losses", paired_losses);
    report.field("repairs_total", repairs_total);
    report.field("decode_fails_total", decode_fails_total);
    let (encode_ns, decode_ns) = pooled_code_ns();
    report.field("rs96_64_encode_ns", encode_ns);
    report.field("rs96_64_decode_32_erasures_ns", decode_ns);
    for (gate, ok, reason) in [
        (
            "rs_exact_at_capacity",
            gate_exact,
            "RS decode not exact at capacity",
        ),
        (
            "adaptive_ge_arq_every_paired_run",
            gate_paired,
            "adaptive lost a paired run",
        ),
        (
            "wild_05_speedup_ge_1_5x",
            gate_speedup,
            "wild@0.5 ratio below 1.5x",
        ),
        (
            "adaptive_ties_arq_on_benign_traffic",
            gate_benign,
            "adaptive differs from plain ARQ",
        ),
    ] {
        report.gate(gate, Verdict::check(ok, reason));
    }
    report
}

fn main() -> ExitCode {
    smoke().finish(json_path("fec").as_deref())
}
