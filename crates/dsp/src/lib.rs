//! # bs-dsp — signal-processing substrate for the Wi-Fi Backscatter reproduction
//!
//! This crate contains the numeric building blocks shared by every other
//! crate in the workspace:
//!
//! * [`complex`] — a small, dependency-free complex-number type used for
//!   baseband channel responses.
//! * [`rng`] — deterministic, named random streams so every experiment is
//!   exactly reproducible ([`rng::SimRng`]), plus the distributions the
//!   channel and traffic models need (Gaussian, Rayleigh, exponential).
//! * [`stats`] — running statistics (Welford), histograms / empirical PDFs
//!   (Fig. 4 of the paper), percentiles.
//! * [`filter`] — the moving-average detrender and normaliser that implement
//!   the paper's *signal conditioning* step (§3.2 step 1).
//! * [`correlate`] — sliding correlation against known ±1 preambles and
//!   codes; used for sub-channel selection (§3.2 step 2) and for the
//!   long-range correlation decoder (§3.4).
//! * [`codes`] — Barker preambles (§6) and the orthogonal code pairs used by
//!   the long-range uplink (§3.4).
//! * [`slicer`] — hysteresis thresholding (µ ± σ/2, §3.2 step 3) and
//!   majority voting over the channel measurements of one bit.
//! * [`slotstats`] — binned slot statistics over a timestamped packet
//!   stream: the O(packets)-build, O(slots)-query index behind the
//!   decoders' alignment search and MRC weighting.
//! * [`stream`] — the chunked vector kernels the decode hot path is
//!   written in terms of.
//! * [`bits`] — bit/byte packing, CRC-8 framing checks and bit-error-rate
//!   accounting used throughout the evaluation.
//! * [`obs`] — the deterministic observability layer: stage spans in
//!   simulated time, counters and gauges behind a zero-cost
//!   [`obs::Recorder`] trait.
//! * [`testkit`] — a deterministic property-testing driver used by every
//!   crate's invariant tests (no external `proptest` dependency).
//! * [`par`] — the workspace's one parallel runtime: an index-ordered
//!   parallel map over scoped threads that contains worker panics.
//!
//! Everything here is plain, allocation-conscious synchronous Rust: the
//! whole reproduction is a deterministic discrete-event simulation, so there
//! is no async runtime anywhere in the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod codes;
pub mod complex;
pub mod correlate;
pub mod filter;
pub mod obs;
pub mod par;
pub mod rng;
pub mod slicer;
pub mod slotstats;
pub mod stats;
pub mod stream;
pub mod testkit;

pub use complex::Complex;
pub use rng::SimRng;
