//! The job scheduler.
//!
//! [`run_jobs`] executes a list of independent [`Job`]s on `workers`
//! OS threads through [`bs_dsp::par::map_indexed`], the workspace's one
//! parallel runtime: a shared atomic cursor over the job list, so a slow
//! job on one thread never idles the others, with results returned in
//! job order. This module only times each job and builds its
//! [`RunRecord`].
//!
//! **Determinism contract.** A job must be a pure function of its
//! captured configuration and seed: it derives every random number from
//! its own `SimRng` substreams and touches no shared state. Under that
//! contract the *values* computed are independent of the worker count and
//! of completion order; only [`RunRecord::wall_s`] varies between runs,
//! and the renderer never prints it. Results are returned sorted by
//! `job_index` (serial order), so assembling tables from them is
//! byte-identical for `--jobs 1` and `--jobs 8`. A regression test pins
//! this (`crates/bench/tests/determinism.rs`).

use std::time::Instant;

use bs_dsp::par::map_indexed;

use super::record::{JobOutput, RunRecord};

/// One schedulable unit of work: a closure plus the metadata the record
/// will carry.
pub struct Job {
    /// Figure id, e.g. `"fig10"`.
    pub fig: String,
    /// Index of the output section this job's lines belong to.
    pub section: usize,
    /// Human-readable point configuration, e.g. `"csi d=5cm ppb=3"`.
    pub label: String,
    /// Master seed the closure derives its per-run seeds from.
    pub seed: u64,
    /// The work itself. Must be pure given its captures (see the module
    /// docs for the determinism contract).
    pub work: Box<dyn Fn() -> JobOutput + Send + Sync>,
}

/// A job panicked; the campaign was abandoned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// Figure id of the job that panicked.
    pub fig: String,
    /// Label of the job that panicked.
    pub label: String,
    /// The panic message.
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} job '{}' panicked: {}",
            self.fig, self.label, self.message
        )
    }
}

impl std::error::Error for JobPanic {}

/// Runs `jobs` on `workers` threads and returns one [`RunRecord`] per
/// job, sorted by job index (serial order). `workers <= 1` runs the jobs
/// inline.
///
/// # Errors
/// [`JobPanic`] naming the first job (in job order) whose work panicked.
pub fn run_jobs(jobs: Vec<Job>, workers: usize) -> Result<Vec<RunRecord>, JobPanic> {
    map_indexed(workers, jobs.len(), |i| {
        let job = &jobs[i];
        let start = Instant::now();
        let out = (job.work)();
        RunRecord {
            fig: job.fig.clone(),
            section: job.section,
            label: job.label.clone(),
            seed: job.seed,
            job_index: i,
            wall_s: start.elapsed().as_secs_f64(),
            work_items: out.work_items,
            metrics: out.metrics,
            lines: out.lines,
            degradation: out.degradation,
            obs: out.obs,
        }
    })
    .map_err(|p| JobPanic {
        fig: jobs[p.chunk].fig.clone(),
        label: jobs[p.chunk].label.clone(),
        message: p.message,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counting_jobs(n: usize) -> Vec<Job> {
        (0..n)
            .map(|i| Job {
                fig: "test".into(),
                section: 0,
                label: format!("job {i}"),
                seed: i as u64,
                work: Box::new(move || JobOutput {
                    lines: vec![format!("{i}  {}", i * i)],
                    metrics: vec![("square".into(), (i * i) as f64)],
                    work_items: 1,
                    ..Default::default()
                }),
            })
            .collect()
    }

    #[test]
    fn results_come_back_in_job_order() {
        for workers in [1, 2, 8, 64] {
            let records = run_jobs(counting_jobs(17), workers).unwrap();
            assert_eq!(records.len(), 17);
            for (i, r) in records.iter().enumerate() {
                assert_eq!(r.job_index, i);
                assert_eq!(r.lines, vec![format!("{i}  {}", i * i)]);
            }
        }
    }

    #[test]
    fn values_are_worker_count_invariant() {
        let serial = run_jobs(counting_jobs(9), 1).unwrap();
        let parallel = run_jobs(counting_jobs(9), 4).unwrap();
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.lines, b.lines);
            assert_eq!(a.metrics, b.metrics);
            assert_eq!(a.label, b.label);
        }
    }

    #[test]
    fn empty_job_list_is_fine() {
        assert!(run_jobs(Vec::new(), 8).unwrap().is_empty());
    }

    #[test]
    fn a_panicking_job_is_named_by_figure_and_label() {
        for workers in [1, 4] {
            let mut jobs = counting_jobs(6);
            jobs[3].work = Box::new(|| panic!("bad point"));
            let err = run_jobs(jobs, workers).unwrap_err();
            assert_eq!(err.label, "job 3");
            assert_eq!(err.to_string(), "test job 'job 3' panicked: bad point");
        }
    }
}
