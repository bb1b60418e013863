//! # wifi-backscatter — the Wi-Fi Backscatter system (SIGCOMM 2014)
//!
//! A full reproduction of *"Wi-Fi Backscatter: Internet Connectivity for
//! RF-Powered Devices"* (Kellogg, Parks, Gollakota, Smith, Wetherall,
//! SIGCOMM 2014), running on the simulated substrates in `bs-channel`,
//! `bs-wifi` and `bs-tag`. See DESIGN.md for the substitution map.
//!
//! Most applications should start from the [`prelude`]:
//!
//! ```
//! use wifi_backscatter::prelude::*;
//!
//! let cfg = LinkConfig::fig10(0.1, 100, 5, 42)
//!     .with_payload((0..16).map(|i| i % 3 == 0).collect());
//! let run = run_uplink(&cfg);
//! assert!(run.detected);
//! ```
//!
//! The paper's contribution — implemented unchanged on top of the
//! simulated hardware — lives here:
//!
//! * [`series`] — per-packet channel time series (CSI sub-channels ×
//!   antennas, or per-antenna RSSI) with MAC timestamps.
//! * [`uplink`] — the reader's uplink decoder (§3.2/§3.3): signal
//!   conditioning, good-sub-channel selection by preamble correlation,
//!   maximum-ratio combining by 1/σ², hysteresis thresholding and
//!   timestamp-binned majority voting. One decode entry point,
//!   [`uplink::UplinkDecoder::decode`]; packets that arrive live are
//!   pushed into a [`series::SeriesBundle`] and decoded the same way, so
//!   streaming is bit-identical to batch by construction.
//! * [`longrange`] — the coded long-range decoder (§3.4): the tag expands
//!   each bit to an L-chip orthogonal code; the reader correlates.
//! * [`downlink`] — the reader's downlink encoder (§4.1): bits as packet /
//!   silence inside CTS_to_SELF reservations.
//! * [`protocol`] — the query-response link protocol (§2, §5): queries,
//!   responses, ACKs, and the N/M rate-selection rule for shared networks.
//! * [`link`] — an end-to-end simulator wiring scene + MAC + tag + reader
//!   together; this is the API the examples and every experiment harness
//!   use.
//! * [`phy`] — PHY mode selection: [`phy::PhyConfig`] picks the paper's
//!   presence uplink (above) or FreeRider-style codeword translation
//!   ([`codeword`]); the `phy::run_*` entry points dispatch on it and are
//!   what the prelude exports.
//!
//! Beyond the paper's evaluation, two extensions it explicitly points at:
//!
//! * [`multitag`] — EPC-Gen-2-style framed-slotted-ALOHA inventory for
//!   identifying multiple tags before querying them individually (§2).
//! * [`trace`] — capture save/load as plain text, splitting capture from
//!   offline decoding the way the Intel CSI tool workflow does.
//! * [`session`] — the high-level [`session::Reader`] API: rate
//!   selection, query retransmission and the long-range fallback composed
//!   into one call.
//!
//! Cross-cutting layers added by the API consolidation:
//!
//! * [`obs`] (re-exported from `bs-dsp`) — the deterministic observability
//!   layer: per-stage spans in simulated time, counters and gauges behind
//!   the zero-cost [`obs::Recorder`] trait. Every `run_*` entry point has a
//!   `*_with` variant taking a recorder; pass an [`obs::MemRecorder`] and
//!   call `into_report()` to get the profile.
//! * [`error`] — the unified [`Error`] hierarchy, the one home of every
//!   error type.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codeword;
pub mod downlink;
pub mod error;
pub mod link;
pub mod longrange;
pub mod multitag;
pub mod phy;
pub mod prelude;
pub mod protocol;
pub mod series;
pub mod session;
pub mod trace;
pub mod uplink;

/// The deterministic observability layer (spans, counters, gauges),
/// re-exported from `bs-dsp` so `wifi_backscatter::obs::Recorder` is the
/// one canonical path.
pub use bs_dsp::obs;

pub use error::Error;
pub use link::{DownlinkRun, LinkConfig, UplinkRun};
pub use series::SeriesBundle;
pub use session::{Reader, ReaderConfig};
pub use uplink::{UplinkDecoder, UplinkDecoderConfig};
