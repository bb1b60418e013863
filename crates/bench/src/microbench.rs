//! The wall-clock timer of the `benches/*_micro.rs` smoke runs.
//!
//! The workspace builds offline with no external crates, so the bench
//! targets (declared `harness = false`) time with [`measure_ns`] instead
//! of Criterion: a warm-up, then the median of timed batches, without
//! the statistical machinery. These numbers guide optimisation work;
//! they are not publication-grade measurements.

use std::time::Instant;

/// Times `f`: one untimed warm-up call, then `samples` timed batches of
/// `iters_per_sample` calls; returns the median batch's ns/iter (e.g.
/// the decode bench's reference-vs-indexed ratio in `BENCH_decode.json`).
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
