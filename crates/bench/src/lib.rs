//! # bs-bench — experiment harness for the Wi-Fi Backscatter reproduction
//!
//! Four modules:
//!
//! * [`experiments`] — pure per-figure runners. Each figure has a
//!   *per-point* function (one distance/rate/location, one seed) that the
//!   harness schedules as one job; all are deterministic given their seed
//!   arguments and print nothing.
//! * [`harness`] — the parallel execution layer: expands a figure list
//!   into independent [`harness::Job`]s, runs them on a work-stealing
//!   pool, and reassembles [`harness::RunRecord`]s into the exact serial
//!   report (byte-identical for any `--jobs` count).
//! * [`microbench`] — the median-of-batches wall-clock timer the
//!   `benches/*_micro.rs` smoke runs record with (no external
//!   benchmarking framework).
//! * [`report`] — the one writer of the smoke benches' `BENCH_*.json`
//!   evidence, with `pass | fail | skipped` gates.
//!
//! See DESIGN.md §4 for the full experiment index and EXPERIMENTS.md for
//! recorded paper-vs-measured results.
//!
//! ## Figure → experiment function → core module
//!
//! | Figure | Per-point entry | Exercises |
//! |---|---|---|
//! | Fig 3 | [`experiments::uplink::raw_csi_trace`] | `bs_channel`, `bs_wifi::csi` |
//! | Fig 4 | [`experiments::uplink::normalized_pdfs`] | `bs_core::conditioning` |
//! | Fig 5 | [`experiments::uplink::good_subchannels_at`] | `bs_core::uplink` |
//! | Fig 6 | [`experiments::uplink::raw_csi_trace`] (d = 1 m) | `bs_channel` |
//! | Fig 10a/b | [`experiments::uplink::uplink_ber_point`] | `bs_core::uplink` |
//! | Fig 11 | [`experiments::uplink::frequency_diversity_at`] | `bs_core::uplink` (MRC) |
//! | Fig 12 | [`experiments::uplink::bitrate_at_helper_rate`] | `bs_wifi::traffic`, `bs_core` |
//! | Fig 14 | [`experiments::uplink::delivery_at_location`] | `bs_channel::geometry` |
//! | Fig 15 | [`experiments::ambient::office_slot`] | `bs_wifi::traffic` |
//! | Fig 16 | [`experiments::ambient::beacons_only_at`] | `bs_wifi::beacon`, `bs_core` |
//! | Fig 17 | [`experiments::downlink::downlink_ber_point`] | `bs_tag::receiver`, `bs_core::link` |
//! | Fig 18 | [`experiments::downlink::false_positive_slot`] | `bs_tag::receiver` |
//! | Fig 19 | [`experiments::coexistence::throughput_at_location`] | `bs_wifi::rate_adapt` |
//! | Fig 20 | [`experiments::uplink::correlation_length_at`] | `bs_core::longrange` |
//! | §6 power | [`experiments::power::power_table`] | `bs_tag::harvester` |
//! | ablations | [`experiments::ablation`] (four runners) | `bs_core`, `bs_dsp`, `bs_wifi::csi` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod microbench;
pub mod report;

/// Builds and runs every Rust snippet in the workspace README as a
/// doctest; this crate depends on every other one, so each snippet's
/// imports resolve here.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
struct ReadmeDoctests;
