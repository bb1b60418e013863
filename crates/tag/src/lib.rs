//! # bs-tag — the Wi-Fi Backscatter tag hardware model
//!
//! Simulated replacement for the paper's prototype tag (§6): a 6-element
//! patch antenna with an ADG902 RF switch, an SMS7630-diode envelope
//! detection chain, and an MSP430 microcontroller running custom firmware.
//!
//! * [`frame`] — the tag's frame formats: the uplink frame (Barker-13
//!   preamble, payload, postamble; §6) and the downlink frame (16-bit
//!   preamble, length, payload, CRC-8; §4.1).
//! * [`modulator`] — uplink transmit logic: a bit clock driving the RF
//!   switch, in plain-bit or long-range orthogonal-code mode (§3.4). The
//!   modulator yields the tag's [`bs_channel::TagState`] at any instant.
//! * [`codeword`] — the symbol-clocked chip schedule for the
//!   codeword-translation (FreeRider-style) uplink, where the helper's
//!   own symbol train is the tag's clock.
//! * [`envelope`] — the incident-power envelope at the tag's detector
//!   input: OFDM's smoothed high-PAPR envelope during packets, detector
//!   noise during silence.
//! * [`receiver`] — the analog receive chain of Fig. 8 (peak finder with
//!   RC decay, half-peak set-threshold, comparator) and the MCU decode
//!   logic with its two power modes (§4.2).
//! * [`harvester`] — RF-to-DC harvesting from Wi-Fi and TV and
//!   duty-cycle arithmetic (§6).
//! * [`energy`] — the harvest-store-spend co-simulation: a storage
//!   capacitor with brownout/cold-start hysteresis and the duty-cycling
//!   policy that gates what the tag may do in each power state.
//! * [`power`] — the measured power budget of the prototype and an energy
//!   accounting ledger.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codeword;
pub mod energy;
pub mod envelope;
pub mod frame;
pub mod harvester;
pub mod modulator;
pub mod power;
pub mod receiver;

pub use frame::{DownlinkFrame, UplinkFrame};
pub use modulator::Modulator;
pub use receiver::{DownlinkDecoder, ReceiverCircuit};
