//! Parallel deterministic experiment harness.
//!
//! The harness turns the paper's figure sweeps into independent jobs — one
//! per measured point — and runs them on a pool of worker threads, then
//! reassembles the classic gnuplot tables and a JSON-lines record stream
//! from the results. The pipeline is
//!
//! ```text
//! figure ids ──plan()──▶ Plan { sections, jobs }
//!                              │
//!                     run_jobs(jobs, workers)        (bs_dsp::par runtime)
//!                              │
//!               Result<Vec<RunRecord>, JobPanic>     (serial job order)
//!                        │            │
//!              render(sections, &recs)  RunRecord::to_json_line()
//!                        │                      │
//!                 gnuplot tables          records.jsonl
//! ```
//!
//! **Why the output cannot depend on the worker count.** Each job derives
//! every random number from seeds that are a function of its point
//! coordinates only (see DESIGN.md §"Determinism under parallelism" for
//! the seed-partitioning contract), computes its table lines itself, and
//! shares nothing. The scheduler stores results by job index and returns
//! them in serial order, and [`render`] concatenates lines in that order
//! — so `--jobs 8` is byte-identical to `--jobs 1`, which
//! `crates/bench/tests/determinism.rs` pins.
//!
//! The `experiments` binary is a thin CLI over this module; library users
//! (and the determinism test) drive [`plan`] → [`run_jobs`] → [`render`]
//! directly.

pub mod figures;
pub mod record;
pub mod scheduler;

pub use figures::{plan, render, Effort, Plan, Section, SectionFooter, ALL_FIGURES};
pub use record::{JobOutput, RunRecord};
pub use scheduler::{run_jobs, Job, JobPanic};
