//! # bs-wifi — Wi-Fi substrate for the Wi-Fi Backscatter reproduction
//!
//! Simulated replacements for the commodity Wi-Fi hardware the paper runs
//! on: Intel Wi-Fi Link 5300 cards (reader/helper), a Linksys WRT54GL AP,
//! and the building's 802.11 network.
//!
//! * [`ofdm`] — the 20 MHz 802.11 OFDM subcarrier layout and the Intel CSI
//!   tool's 30 grouped sub-channels.
//! * [`frame`] — typed Wi-Fi frames, airtime computation, timestamps and
//!   the CTS_to_SELF reservation frame used by the downlink (§4.1).
//! * [`mac`] — a discrete-event CSMA/CA (DCF) simulation of a shared
//!   collision domain: backoff, collisions, beacons, NAV reservations.
//! * [`traffic`] — offered-load models: controlled injection (§7.2),
//!   Poisson, bursty ON/OFF, the diurnal office profile behind Fig. 15 and
//!   a streaming client (Fig. 18).
//! * [`csi`] — the Intel 5300 CSI measurement model, including estimation
//!   noise, amplitude quantisation, the spurious level jumps and the weak
//!   third antenna that the paper's decoder must tolerate (§3.2, §7.1).
//! * [`rssi`] — per-packet RSSI with 1 dB quantisation (§3.3).
//! * [`rate_adapt`] — an SNR-driven rate-adaptation model used to show the
//!   tag's impact on normal Wi-Fi traffic is absorbed (Fig. 19, §9).
//! * [`symbol`] — the sub-frame symbol model for codeword-translation
//!   backscatter (FreeRider-style): symbol clock, phase-flip codeword
//!   mapping and the residue-decision error model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csi;
pub mod frame;
pub mod mac;
pub mod ofdm;
pub mod rate_adapt;
pub mod rssi;
pub mod symbol;
pub mod traffic;

pub use csi::{CsiExtractor, CsiMeasurement};
pub use frame::{FrameKind, WifiFrame};
pub use mac::{Medium, Transmission};
pub use rssi::{RssiExtractor, RssiMeasurement};
