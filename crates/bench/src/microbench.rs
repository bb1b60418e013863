//! A minimal micro-benchmark runner for the `benches/*_micro.rs`
//! targets: their kernel timings without `--json`, and the wall-clock
//! evidence their `--json` smoke runs write.
//!
//! The workspace builds offline with no external crates, so the bench
//! targets (declared `harness = false`) drive this runner instead of
//! Criterion. It deliberately keeps Criterion's reporting shape — named
//! benchmarks, warm-up, median-of-samples ns/iter — without the
//! statistical machinery: these numbers guide optimisation work, they are
//! not publication-grade measurements.

use std::time::Instant;

/// One benchmark group, printed as a header followed by its benchmarks.
pub struct Group {
    name: &'static str,
}

impl Group {
    /// Starts a named group (prints the header immediately).
    pub fn new(name: &'static str) -> Self {
        println!("# bench group: {name}");
        Group { name }
    }

    /// Times `f`, printing `group/name  <median> ns/iter (<samples> samples)`.
    ///
    /// Runs one untimed warm-up call, then `samples` timed batches of
    /// `iters_per_sample` calls each, and reports the median batch.
    pub fn bench<T>(
        &self,
        name: &str,
        samples: usize,
        iters_per_sample: u32,
        f: impl FnMut() -> T,
    ) {
        let median = measure_ns(samples, iters_per_sample, f);
        println!(
            "{}/{name}  {median:.0} ns/iter ({samples} samples)",
            self.name
        );
    }
}

/// Times `f` the same way [`Group::bench`] does — one untimed warm-up
/// call, then `samples` timed batches of `iters_per_sample` calls — and
/// returns the median ns/iter instead of printing, for the `--json`
/// smoke runs (e.g. the decode bench's reference-vs-indexed ratio in
/// `BENCH_decode.json`).
pub fn measure_ns<T>(samples: usize, iters_per_sample: u32, mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    let mut per_iter_ns: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters_per_sample.max(1) {
                std::hint::black_box(f());
            }
            start.elapsed().as_nanos() as f64 / f64::from(iters_per_sample.max(1))
        })
        .collect();
    per_iter_ns.sort_by(f64::total_cmp);
    per_iter_ns[per_iter_ns.len() / 2]
}
