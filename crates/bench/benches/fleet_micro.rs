//! The fleet smoke bench: determinism, scaling and allocations at the
//! 10⁵-tag acceptance deployment (500 gateways × 200 tags).
//!
//! With `--json [path]` it writes its evidence to `path` (default
//! `BENCH_fleet.json`; see `scripts/check.sh --bench-smoke`); without,
//! it only prints its gates. Exits non-zero if a gate fails:
//!
//! 1. jobs determinism — the full `FleetRun` JSON (per-tag records
//!    included) is byte-identical across 1, 2 and 8 engine workers;
//! 2. pinned digest — the 10⁵-tag point's per-tag digest equals
//!    [`PINNED_DIGEST`], so a change that moves any tag's outcome fails
//!    here instead of only rewriting the committed JSON;
//! 3. core scaling — 4 workers finish the 10⁵-tag point ≥ 2× faster
//!    than 1 worker. Wall-clock is the one host-dependent measurement
//!    here, so this gate runs only when the host actually has ≥ 4
//!    cores; on smaller hosts its verdict reads `"skipped: <reason>"`,
//!    never `"pass"`;
//! 4. parallel efficiency — the jobs-1 over jobs-`cores` median speedup,
//!    divided by the host's core count, stays at or above
//!    [`MIN_PARALLEL_EFFICIENCY`]. It runs on any host with ≥ 2 cores;
//!    on one core there is nothing to scale and it reads `"skipped"`.
//!    A miss the host explains is not the code's: if taking the
//!    run-queue wait other processes cost the threads
//!    ([`with_foreign_wait`]) off the rounds at 1 job and at the core
//!    count lifts the efficiency back to the floor, the gate reads
//!    `"skipped: host busy (…)"` with the numbers;
//! 5. heap allocations — one jobs-1 run of the acceptance point makes
//!    at most [`MAX_ALLOCS_PER_TAG_EPOCH`] heap allocations per
//!    tag-epoch, at most [`ALLOCS_PER_TAG_EPOCH`] (the count since a
//!    served tag's transport state stopped allocating per segment) and
//!    at most [`REUSED_ALLOCS_PER_TAG_EPOCH`] (the count since each
//!    shard serves its gateways in reused state), counted by this
//!    binary's own thread-local counting allocator (the library's
//!    allocator is untouched).
//!
//! The scaling rows are sampled, not single shots: after the
//! determinism runs (which double as the warm-up), the worker counts
//! 1, 4 and the host's core count run in [`ROUNDS`] interleaved rounds,
//! ascending then descending (1, 2, 4, 4, 2, 1, … on a 2-core host),
//! so no count always runs first or cold. Each row reports the median and min wall time;
//! speedups and `parallel_efficiency_at_host_cores` use the medians.

use bs_bench::experiments::fleet::{fleet_config, point_of};
use bs_bench::object;
use bs_bench::report::{json_path, BenchReport, Value, Verdict};
use bs_dsp::par::available_jobs;
use bs_dsp::stats::median;
use bs_net::fleet::run_fleet;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

thread_local! {
    /// Heap allocations (alloc, alloc_zeroed, realloc) made by this
    /// thread so far.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation on the calling thread.
/// A jobs-1 fleet run does all its work on the calling thread, so the
/// difference of two [`thread_allocs`] readings around it is the run's
/// whole allocation count.
struct CountingAlloc;

impl CountingAlloc {
    fn count() {
        // `try_with`: the counter may already be gone while a thread
        // exits; such allocations go uncounted rather than abort.
        let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Master seed of the smoke runs; pinned so the digests in
/// `BENCH_fleet.json` reproduce on any host.
const SEED: u64 = 29;

/// The acceptance point's per-tag digest at [`SEED`] on any host.
const PINNED_DIGEST: u64 = 0xae68_04fc_8fcd_a43d;

/// The acceptance deployment: 10⁵ tags behind 500 gateways.
const GATEWAYS: usize = 500;
const TAGS_PER_GATEWAY: usize = 200;

/// Interleaved sampling rounds behind each scaling row: an even count,
/// so every worker count runs first in half of them.
const ROUNDS: usize = 4;

/// Floor of `parallel_efficiency_at_host_cores` on a host with ≥ 2
/// cores: the lowest of ten smoke runs on a 2-core host (0.755) minus
/// 0.1, rounded down.
const MIN_PARALLEL_EFFICIENCY: f64 = 0.65;

/// Ceiling on heap allocations per tag-epoch at jobs 1.
const MAX_ALLOCS_PER_TAG_EPOCH: f64 = 14.0;

/// The measured heap allocations per tag-epoch at jobs 1 (5.60),
/// rounded up: DESIGN.md §"What a tag-epoch allocates" names each.
const ALLOCS_PER_TAG_EPOCH: f64 = 6.0;

/// Ceiling on heap allocations per tag-epoch at jobs 1 once every
/// shard serves its gateways in one reused scratch: a tag-epoch
/// allocates nothing of its own, and what is left is per gateway and
/// per shard (DESIGN.md §"What a tag-epoch allocates").
const REUSED_ALLOCS_PER_TAG_EPOCH: f64 = 1.0;

/// How often [`with_foreign_wait`] reads the run queues.
const WAIT_SAMPLE: Duration = Duration::from_millis(2);

/// This process's threads as `[tid, ns on a CPU, ns of run-queue wait]`,
/// the first two fields of `/proc/self/task/<tid>/schedstat`, and how
/// many of them are running or runnable (state `R` in `…/<tid>/stat`).
/// A thread that exits between the listing and the reads is left out.
fn read_threads() -> Option<(Vec<[u64; 3]>, usize)> {
    let (mut times, mut runnable) = (Vec::new(), 0);
    for task in std::fs::read_dir("/proc/self/task").ok()?.flatten() {
        let read = |file| std::fs::read_to_string(task.path().join(file)).unwrap_or_default();
        let sched = read("schedstat");
        let mut fields = sched.split_whitespace().map(str::parse);
        let tid = task.file_name().to_str().and_then(|t| t.parse().ok());
        let (Some(tid), Some(Ok(run)), Some(Ok(wait))) = (tid, fields.next(), fields.next()) else {
            continue;
        };
        times.push([tid, run, wait]);
        // The state follows the parenthesised command name.
        let stat = read("stat");
        runnable += usize::from(stat.rsplit(") ").next().is_some_and(|s| s.starts_with('R')));
    }
    (!times.is_empty()).then_some((times, runnable))
}

/// Runs `f` while a sampler thread reads the run queues every
/// [`WAIT_SAMPLE`], and returns `f`'s result with the run-queue wait
/// (ms) that other processes cost this one's threads meanwhile; `None`
/// where the files cannot be read.
///
/// Each reading adds every other thread's wait since the last one, but
/// only while the host had more runnable tasks (`/proc/loadavg`) than
/// this process and this process had no more runnable threads than
/// cores besides the sampler: wait the code makes itself — more workers
/// than cores, a spinning queue — does not count. The sampler's own time
/// on a CPU, the most it can have held the others back, is taken off.
/// A worker's wait after its last reading is lost when it exits, so
/// this errs low; so does hypervisor steal, which shows in no thread.
fn with_foreign_wait<R>(f: impl FnOnce() -> R) -> (R, Option<f64>) {
    let cores = available_jobs();
    let Some((start, _)) = read_threads() else {
        return (f(), None);
    };
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let own = std::fs::read_link("/proc/thread-self").ok()?;
            let own: u64 = own.file_name()?.to_str()?.parse().ok()?;
            let mut last: HashMap<u64, u64> = start.iter().map(|&[t, _, w]| (t, w)).collect();
            let (mut foreign_ns, mut own_run_ns) = (0u64, 0u64);
            loop {
                let finished = done.load(Ordering::Relaxed);
                let (threads, runnable) = read_threads()?;
                let loadavg = std::fs::read_to_string("/proc/loadavg").ok()?;
                // Its fourth field is `<runnable>/<total>` on the host.
                let host: usize = loadavg.split([' ', '/']).nth(3)?.parse().ok()?;
                let foreign = runnable.saturating_sub(1) <= cores && host > runnable;
                for [tid, run, wait] in threads {
                    let before = last.insert(tid, wait).unwrap_or(0);
                    if tid == own {
                        own_run_ns = run;
                    } else if foreign {
                        foreign_ns += wait.saturating_sub(before);
                    }
                }
                if finished {
                    return Some(foreign_ns.saturating_sub(own_run_ns) as f64 / 1e6);
                }
                std::thread::sleep(WAIT_SAMPLE);
            }
        });
        let out = f();
        done.store(true, Ordering::Relaxed);
        (out, sampler.join().expect("the sampler does not panic"))
    })
}

fn acceptance_config() -> bs_net::fleet::FleetConfig {
    let mut cfg = fleet_config(GATEWAYS, TAGS_PER_GATEWAY, SEED);
    // One epoch keeps the measured runs inside the smoke budget;
    // the determinism contract is epoch-independent.
    cfg.epochs = 1;
    cfg
}

fn smoke() -> BenchReport {
    let cfg = acceptance_config();

    // Gate 1: byte-identical JSON across worker counts. These runs
    // also warm the caches and the allocator for the timed rounds.
    let jsons: Vec<String> = [1usize, 2, 4, 8]
        .iter()
        .map(|&jobs| {
            run_fleet(&cfg, jobs)
                .expect("acceptance population fits")
                .to_json()
        })
        .collect();
    let gate_jobs = jsons.iter().all(|j| j == &jsons[0]);
    let allocs_before = thread_allocs();
    let run = run_fleet(&cfg, 1).expect("acceptance population fits");
    let allocs = thread_allocs() - allocs_before;
    let point = point_of(GATEWAYS, &run);
    let tag_epochs = (GATEWAYS * TAGS_PER_GATEWAY) as f64 * f64::from(cfg.epochs);
    let allocs_per_tag_epoch = allocs as f64 / tag_epochs;

    // Scaling samples: worker counts 1, 4 and the host's cores, in
    // rounds alternating ascending and descending order.
    let cores = available_jobs();
    let mut counts = vec![1usize, 4, cores];
    counts.sort_unstable();
    counts.dedup();
    let mut walls_ms: Vec<Vec<f64>> = vec![Vec::with_capacity(ROUNDS); counts.len()];
    // Each round's foreign wait, where readable.
    let mut waits_ms: Vec<Vec<f64>> = vec![Vec::with_capacity(ROUNDS); counts.len()];
    for round in 0..ROUNDS {
        let order: Vec<usize> = if round % 2 == 0 {
            (0..counts.len()).collect()
        } else {
            (0..counts.len()).rev().collect()
        };
        for k in order {
            // Every count runs under the sampler, so its cost is the
            // same on both sides of a speedup.
            let (wall, wait) = with_foreign_wait(|| {
                let t0 = Instant::now();
                run_fleet(&cfg, counts[k]).expect("acceptance population fits");
                t0.elapsed().as_secs_f64() * 1e3
            });
            walls_ms[k].push(wall);
            waits_ms[k].extend(wait);
        }
    }
    let row = |jobs: usize| {
        counts
            .iter()
            .position(|&c| c == jobs)
            .expect("sampled count")
    };
    let (k_1, k_cores) = (row(1), row(cores));
    let wall_1 = median(&walls_ms[k_1]);
    let wall_4 = median(&walls_ms[row(4)]);
    let speedup_4 = wall_1 / wall_4.max(1e-9);
    let wall_cores = median(&walls_ms[k_cores]);
    let efficiency = wall_1 / wall_cores.max(1e-9) / cores as f64;
    // The median waits at 1 job and at the core count, and the
    // efficiency had no other process held the threads back: each
    // side's median wall less its median wait shared over its threads.
    let wait = |k: usize| (waits_ms[k].len() == ROUNDS).then(|| median(&waits_ms[k]));
    let without_wait = wait(k_1).zip(wait(k_cores)).map(|(w_1, w_cores)| {
        let unwaited_cores = (wall_cores - w_cores / cores as f64).max(1e-9);
        (w_1, w_cores, (wall_1 - w_1) / unwaited_cores / cores as f64)
    });

    // Gate 3: ≥2× at 4 workers vs 1 — run only on hosts that have
    // the cores to show it.
    let scaling = if cores >= 4 {
        Verdict::check(speedup_4 >= 2.0, "4 workers under 2x the speed of 1")
    } else {
        Verdict::Skipped(format!("host has {cores} core(s), gate needs 4"))
    };
    let miss =
        format!("efficiency {efficiency:.2} at {cores} cores is below {MIN_PARALLEL_EFFICIENCY}");
    let waited = match without_wait {
        Some((w_1, w_cores, e)) => format!(
            "other processes held the threads {w_1:.1} ms per run at 1 job and \
             {w_cores:.1} ms at {cores}, {e:.2} without that"
        ),
        None => "run-queue wait not readable".into(),
    };
    let efficiency_gate = if cores < 2 {
        Verdict::Skipped("host has 1 core, gate needs 2".into())
    } else if efficiency >= MIN_PARALLEL_EFFICIENCY {
        Verdict::Pass
    } else if without_wait.is_some_and(|(_, _, e)| e >= MIN_PARALLEL_EFFICIENCY) {
        Verdict::Skipped(format!("host busy ({miss}; {waited})"))
    } else {
        Verdict::Fail(format!("{miss}; {waited}"))
    };

    let scaling_rows: Vec<Value> = counts
        .iter()
        .zip(&walls_ms)
        .map(|(&jobs, samples)| {
            let med = median(samples);
            let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
            object! {
                "jobs": jobs, "samples": samples.len(), "wall_ms_median": med,
                "wall_ms_min": min, "speedup": wall_1 / med.max(1e-9),
            }
        })
        .collect();
    let mut report = BenchReport::new("fleet");
    report.field(
        "workload",
        object! {
            "gateways": GATEWAYS, "tags_per_gateway": TAGS_PER_GATEWAY,
            "tags": GATEWAYS * TAGS_PER_GATEWAY, "epochs": 1u64, "seed": SEED,
        },
    );
    report.field(
        "point",
        object! {
            "goodput_bps": point.goodput_bps, "fairness": point.fairness, "p50_us": point.p50_us,
            "p99_us": point.p99_us, "all_complete": point.all_complete,
            "digest": format!("{:016x}", point.digest),
        },
    );
    report.field("core_scaling", scaling_rows);
    report.field("speedup_at_4_jobs", speedup_4);
    report.field("parallel_efficiency_at_host_cores", efficiency);
    if let Some((w_1, w_cores, _)) = without_wait {
        report.field("foreign_wait_ms_at_1_job", w_1);
        report.field("foreign_wait_ms_at_host_cores", w_cores);
    }
    report.field("allocs_per_tag_epoch", allocs_per_tag_epoch);
    for (gate, ok, reason) in [
        (
            "json_identical_across_jobs",
            gate_jobs,
            "FleetRun JSON differs across worker counts",
        ),
        (
            "digest_pinned",
            point.digest == PINNED_DIGEST,
            "acceptance digest differs from the pinned ae6804fc8fcda43d",
        ),
    ] {
        report.gate(gate, Verdict::check(ok, reason));
    }
    report.gate("speedup_4_jobs_ge_2x", scaling);
    report.gate("parallel_efficiency_at_host_cores", efficiency_gate);
    for (gate, ceiling) in [
        ("allocs_per_tag_epoch_le_14", MAX_ALLOCS_PER_TAG_EPOCH),
        ("allocs_per_tag_epoch_le_6", ALLOCS_PER_TAG_EPOCH),
        ("allocs_per_tag_epoch_le_1", REUSED_ALLOCS_PER_TAG_EPOCH),
    ] {
        report.gate(
            gate,
            Verdict::check(
                allocs_per_tag_epoch <= ceiling,
                format!("{allocs_per_tag_epoch:.2} heap allocations per tag-epoch at jobs 1"),
            ),
        );
    }
    println!(
        "BENCH_fleet: {} tags, median wall 1j {wall_1:.0} ms / 4j {wall_4:.0} ms \
         (speedup {speedup_4:.2}, efficiency {efficiency:.2} at {cores} cores), \
         {allocs_per_tag_epoch:.2} allocations per tag-epoch, digest {:016x}",
        GATEWAYS * TAGS_PER_GATEWAY,
        point.digest
    );
    report
}

fn main() -> ExitCode {
    smoke().finish(json_path("fleet").as_deref())
}
