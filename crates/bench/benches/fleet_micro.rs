//! Micro-benchmarks of the fleet engine — the 10⁵-tag acceptance point
//! and the determinism/scaling smoke behind `--json <path>`.
//!
//! The smoke bench runs the acceptance deployment (500 gateways ×
//! 200 tags = 10⁵ tags) and writes the evidence to `<path>` (see
//! `scripts/check.sh --bench-smoke`). Exits non-zero if a gate fails:
//!
//! 1. jobs determinism — the full `FleetRun` JSON (per-tag records
//!    included) is byte-identical across 1, 2 and 8 engine workers;
//! 2. shard invariance — the per-tag digest is unchanged when the flat
//!    control blocks are partitioned into 1, 4 or 7 shards;
//! 3. core scaling — 4 workers finish the 10⁵-tag point ≥ 2× faster
//!    than 1 worker. Wall-clock is the one host-dependent measurement
//!    here, so this gate runs only when the host actually has ≥ 4
//!    cores; on smaller hosts its verdict reads `"skipped: <reason>"`,
//!    never `"pass"`.

use bs_bench::experiments::fleet::{fleet_config, point_of};
use bs_bench::object;
use bs_bench::report::{host_cores, json_path, BenchReport, Value, Verdict};
use bs_net::fleet::run_fleet;
use std::process::ExitCode;
use std::time::Instant;

/// Master seed of the smoke runs; pinned so the digests in
/// `BENCH_fleet.json` reproduce on any host.
const SEED: u64 = 29;

/// The acceptance deployment: 10⁵ tags behind 500 gateways.
const GATEWAYS: usize = 500;
const TAGS_PER_GATEWAY: usize = 200;

fn acceptance_config() -> bs_net::fleet::FleetConfig {
    let mut cfg = fleet_config(GATEWAYS, TAGS_PER_GATEWAY, SEED);
    // One epoch keeps the four measured runs inside the smoke budget;
    // the determinism contract is epoch-independent.
    cfg.epochs = 1;
    cfg
}

fn smoke() -> BenchReport {
    let cfg = acceptance_config();

    // Gate 1: byte-identical JSON across worker counts (and the wall
    // times double as the scaling measurement).
    let mut walls_ms: Vec<(usize, f64)> = Vec::new();
    let mut jsons: Vec<String> = Vec::new();
    for jobs in [1usize, 2, 4, 8] {
        let t0 = Instant::now();
        let run = run_fleet(&cfg, jobs).expect("acceptance population fits");
        walls_ms.push((jobs, t0.elapsed().as_secs_f64() * 1e3));
        jsons.push(run.to_json());
    }
    let gate_jobs = jsons.iter().all(|j| j == &jsons[0]);
    let point = {
        let run = run_fleet(&cfg, 1).expect("acceptance population fits");
        point_of(GATEWAYS, &run)
    };

    // Gate 2: shard count never changes per-tag outcomes (smaller
    // deployment: the contract is population-independent).
    let mut shard_digests: Vec<u64> = Vec::new();
    for shards in [1usize, 4, 7] {
        let mut small = fleet_config(32, 25, SEED);
        small.shards = shards;
        shard_digests.push(run_fleet(&small, 2).expect("small population fits").digest);
    }
    let gate_shards = shard_digests.iter().all(|d| *d == shard_digests[0]);

    // Gate 3: ≥2× at 4 workers vs 1 — run only on hosts that have
    // the cores to show it.
    let cores = host_cores();
    let wall_1 = walls_ms.iter().find(|(j, _)| *j == 1).unwrap().1;
    let wall_4 = walls_ms.iter().find(|(j, _)| *j == 4).unwrap().1;
    let speedup_4 = wall_1 / wall_4.max(1e-9);
    let scaling = if cores >= 4 {
        Verdict::check(speedup_4 >= 2.0, "4 workers under 2x the speed of 1")
    } else {
        Verdict::Skipped(format!("host has {cores} core(s), gate needs 4"))
    };

    let scaling_rows: Vec<Value> = walls_ms
        .iter()
        .map(|&(jobs, ms)| {
            object! { "jobs": jobs, "wall_ms": ms, "speedup": wall_1 / ms.max(1e-9) }
        })
        .collect();
    let mut report = BenchReport::new("fleet");
    report.field("workload", object! {
        "gateways": GATEWAYS, "tags_per_gateway": TAGS_PER_GATEWAY,
        "tags": GATEWAYS * TAGS_PER_GATEWAY, "epochs": 1u64, "seed": SEED,
    });
    report.field("point", object! {
        "goodput_bps": point.goodput_bps, "fairness": point.fairness, "p50_us": point.p50_us,
        "p99_us": point.p99_us, "all_complete": point.all_complete,
        "digest": format!("{:016x}", point.digest),
    });
    report.field("core_scaling", scaling_rows);
    report.field("speedup_at_4_jobs", speedup_4);
    let shard_hex: Vec<String> = shard_digests.iter().map(|d| format!("{d:016x}")).collect();
    report.field("shard_digests", shard_hex);
    for (gate, ok, reason) in [
        ("json_identical_across_jobs", gate_jobs, "FleetRun JSON differs across worker counts"),
        ("digest_invariant_across_shards", gate_shards, "digest changed with shards"),
    ] {
        report.gate(gate, Verdict::check(ok, reason));
    }
    report.gate("speedup_4_jobs_ge_2x", scaling);
    println!(
        "BENCH_fleet: {} tags, wall 1j {wall_1:.0} ms / 4j {wall_4:.0} ms \
         (speedup {speedup_4:.2}, {cores} cores), digest {:016x}",
        GATEWAYS * TAGS_PER_GATEWAY,
        point.digest
    );
    report
}

fn main() -> ExitCode {
    if let Some(path) = json_path("fleet") {
        return smoke().finish(&path);
    }

    // Plain micro mode: time the acceptance point at a few worker
    // counts without gating.
    for jobs in [1usize, 2, 4] {
        let cfg = acceptance_config();
        let t0 = Instant::now();
        let run = run_fleet(&cfg, jobs).expect("acceptance population fits");
        println!(
            "fleet_micro/accept_100k_tags jobs={jobs}  {:.0} ms  digest {:016x}",
            t0.elapsed().as_secs_f64() * 1e3,
            run.digest
        );
    }
    ExitCode::SUCCESS
}
