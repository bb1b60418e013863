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
//!    here, so this gate is fatal only when the host actually has ≥ 4
//!    cores; on smaller hosts its verdict in `gates` reads
//!    `"skipped: <reason>"`, never `true`.

use bs_bench::experiments::fleet::{fleet_config, point_of};
use bs_net::fleet::run_fleet;
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

fn smoke(json_path: &str) {
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

    // Gate 3: ≥2× at 4 workers vs 1 — fatal only on hosts that have
    // the cores to show it.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let wall_1 = walls_ms.iter().find(|(j, _)| *j == 1).unwrap().1;
    let wall_4 = walls_ms.iter().find(|(j, _)| *j == 4).unwrap().1;
    let speedup_4 = wall_1 / wall_4.max(1e-9);
    let scaling_enforced = cores >= 4;
    let gate_scaling = !scaling_enforced || speedup_4 >= 2.0;
    let reason = format!("host has {cores} core(s), gate needs 4");
    // A gate that did not run is reported as skipped, never as a pass.
    let scaling_verdict = if scaling_enforced {
        gate_scaling.to_string()
    } else {
        format!("\"skipped: {reason}\"")
    };

    let scaling_rows: Vec<String> = walls_ms
        .iter()
        .map(|(jobs, ms)| {
            format!(
                "    {{\"jobs\": {jobs}, \"wall_ms\": {ms:.1}, \"speedup\": {:.2}}}",
                wall_1 / ms.max(1e-9)
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"fleet\",\n  \"workload\": {{\n    \
         \"gateways\": {GATEWAYS},\n    \"tags_per_gateway\": {TAGS_PER_GATEWAY},\n    \
         \"tags\": {tags},\n    \"epochs\": 1,\n    \"seed\": {SEED}\n  }},\n  \
         \"point\": {{\n    \"goodput_bps\": {goodput:.1},\n    \"fairness\": {fairness:.6},\n    \
         \"p50_us\": {p50:.1},\n    \"p99_us\": {p99:.1},\n    \
         \"all_complete\": {complete},\n    \"digest\": \"{digest:016x}\"\n  }},\n  \
         \"core_scaling\": [\n{scaling}\n  ],\n  \
         \"host_cores\": {cores},\n  \"speedup_at_4_jobs\": {speedup_4:.2},\n  \
         \"scaling_gate_enforced\": {scaling_enforced},\n  \
         \"scaling_gate_skip_reason\": {skip_reason},\n  \
         \"shard_digests\": [{shard_digests}],\n  \
         \"gates\": {{\n    \"json_identical_across_jobs\": {gate_jobs},\n    \
         \"digest_invariant_across_shards\": {gate_shards},\n    \
         \"speedup_4_jobs_ge_2x\": {scaling_verdict}\n  }}\n}}\n",
        tags = GATEWAYS * TAGS_PER_GATEWAY,
        goodput = point.goodput_bps,
        fairness = point.fairness,
        p50 = point.p50_us,
        p99 = point.p99_us,
        complete = point.all_complete,
        digest = point.digest,
        scaling = scaling_rows.join(",\n"),
        skip_reason = if scaling_enforced {
            "null".to_string()
        } else {
            format!("\"{reason}\"")
        },
        shard_digests = shard_digests
            .iter()
            .map(|d| format!("\"{d:016x}\""))
            .collect::<Vec<_>>()
            .join(", "),
    );
    std::fs::write(json_path, &json).unwrap_or_else(|e| panic!("writing {json_path}: {e}"));
    println!("BENCH_fleet: wrote {json_path}");
    println!(
        "BENCH_fleet: {} tags, wall 1j {wall_1:.0} ms / 4j {wall_4:.0} ms \
         (speedup {speedup_4:.2}, {cores} cores), digest {:016x}",
        GATEWAYS * TAGS_PER_GATEWAY,
        point.digest
    );
    if !gate_jobs {
        eprintln!("BENCH_fleet: FAIL — FleetRun JSON differs across worker counts");
        std::process::exit(1);
    }
    if !gate_shards {
        eprintln!(
            "BENCH_fleet: FAIL — per-tag digest changed with shard count: {shard_digests:?}"
        );
        std::process::exit(1);
    }
    if !gate_scaling {
        eprintln!(
            "BENCH_fleet: FAIL — speedup {speedup_4:.2} at 4 workers below the 2x gate \
             on a {cores}-core host"
        );
        std::process::exit(1);
    }
    if !scaling_enforced {
        println!(
            "BENCH_fleet: scaling gate skipped — {reason} \
             (recorded in the JSON, not silently dropped)"
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--json") {
        let path = args
            .get(i + 1)
            .cloned()
            .unwrap_or_else(|| "BENCH_fleet.json".to_string());
        smoke(&path);
        return;
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
}
