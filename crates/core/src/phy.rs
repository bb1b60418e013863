//! The PHY mode family: modulation, decode and rate adaptation behind
//! object-safe traits.
//!
//! The paper's reader has exactly one physical layer — presence/CSI on
//! the uplink, envelope on the downlink — and before this module the
//! whole stack above (`link`, `session`, `multitag`, `bs-net`) was
//! welded to it. The family splits the contract in three:
//!
//! * [`PhyUplink`] — run one tag→reader frame exchange over a
//!   [`LinkConfig`];
//! * [`PhyDownlink`] — run the reader→tag side over a
//!   [`DownlinkConfig`];
//! * [`PhyMode`] — both halves plus a [`PhyCapabilities`] descriptor.
//!
//! Two implementations ship:
//!
//! * [`PresencePhy`] — the paper's PHY, re-homed. Its output is
//!   bit-identical to the pre-trait code path (the conformance suite and
//!   the decode goldens pin this).
//! * [`CodewordPhy`] — FreeRider-style codeword translation
//!   ([`crate::codeword`]): the tag phase-flips individual 802.11
//!   symbols of in-flight helper frames and the reader decodes the flip
//!   sequence from the demodulation residue. Orders of magnitude faster,
//!   zero dedicated airtime.
//!
//! Callers pick a mode with [`LinkConfig::with_phy`] (and the session /
//! gateway equivalents); the [`run_uplink`] / `run_downlink_*` functions
//! here route through the configured mode and are what the prelude
//! re-exports.
//!
//! ## Why capabilities gate rate adaptation
//!
//! The §5 rate rules are not PHY-neutral: the presence mode's step table
//! (100–1000 bit/s) is the range a commanded tag oscillator can hold
//! while the decoder still gets multiple *packets* per bit, and its
//! re-adaptation halves a chip rate because halving doubles packets per
//! bit. Under codeword translation the currencies change — supply is
//! helper *symbols*, the tag has no free-running chip clock to halve,
//! and workable rates sit two orders of magnitude higher. Hardcoding
//! either table above the PHY boundary bakes one mode's physics into
//! mode-neutral layers, which is exactly the coupling this redesign
//! removes: the session and gateway now ask [`PhyCapabilities`] to
//! select, re-adapt, and wire-encode rates.

use crate::codeword::{run_codeword_uplink_with, CodewordParams, CODEWORD_RATE_STEPS_BPS};
use crate::link::{
    presence_downlink_ber_with, presence_downlink_frame_with, presence_uplink_with,
    DegradationReport, DownlinkConfig, DownlinkRun, LinkConfig, UplinkRun,
};
use crate::protocol::{select_bit_rate, SUPPORTED_RATES_BPS};
use bs_dsp::obs::{NullRecorder, Recorder};
use bs_tag::frame::{DownlinkFrame, UplinkFrame};
use bs_wifi::rate_adapt::cadence_collapsed;

/// The uplink half of a PHY mode: one tag→reader frame exchange.
pub trait PhyUplink {
    /// Runs one uplink exchange under `cfg`, with observability threaded
    /// through `rec`. Implementations must keep every RNG draw
    /// independent of the recorder.
    fn uplink_with(&self, cfg: &LinkConfig, rec: &mut dyn Recorder) -> UplinkRun;
}

/// The downlink half of a PHY mode: the reader→tag side.
pub trait PhyDownlink {
    /// Measures raw downlink BER over `n_bits` random bits.
    fn downlink_ber_with(
        &self,
        cfg: &DownlinkConfig,
        n_bits: usize,
        rec: &mut dyn Recorder,
    ) -> DownlinkRun;

    /// Sends one framed downlink message end-to-end.
    fn downlink_frame_with(
        &self,
        cfg: &DownlinkConfig,
        frame: &DownlinkFrame,
        rec: &mut dyn Recorder,
    ) -> (Option<DownlinkFrame>, DegradationReport);
}

/// A complete PHY mode: both link directions plus a capability
/// descriptor the mode-neutral layers (session, gateway) consult.
pub trait PhyMode: PhyUplink + PhyDownlink {
    /// Short stable identifier (`"presence"`, `"codeword"`).
    fn name(&self) -> &'static str;

    /// What this mode can do and which rate rules apply to it.
    fn capabilities(&self) -> PhyCapabilities;
}

/// Internal discriminant carrying the mode-specific numbers the
/// capability methods need.
#[derive(Debug, Clone, PartialEq)]
enum CapabilityKind {
    Presence,
    Codeword { syms_per_bit: u64, syms_per_frame: u64 },
}

/// What a PHY mode can do, in the vocabulary the layers above the PHY
/// actually consume. Constructed by the mode (via
/// [`PhyMode::capabilities`] or [`PhyConfig::capabilities`]), never by
/// hand — the private discriminant keeps the rate rules tied to the
/// physics they model.
#[derive(Debug, Clone, PartialEq)]
pub struct PhyCapabilities {
    /// The mode's stable identifier.
    pub name: &'static str,
    /// True if tag bits ride inside existing data frames (codeword
    /// translation) rather than across dedicated helper packets.
    pub rides_data_frames: bool,
    /// True if the mode consumes helper airtime purpose-sent for the
    /// tag (the presence mode's CBR injection).
    pub dedicated_airtime: bool,
    /// True if the mode has a long-range orthogonal-coded fallback the
    /// session may retry with (§3.4 applies to the presence PHY only).
    pub coded_fallback: bool,
    /// The mode's supported tag bit rates (bits/s), ascending.
    pub rate_steps_bps: Vec<u64>,
    /// Conditioning lead the reader budgets before a response's first
    /// bit can land (µs) — the presence decoder's moving-average warmup;
    /// zero for codeword translation.
    pub response_lead_us: u64,
    /// Singulation slot length this PHY needs (µs): long enough for one
    /// short reply at the mode's base rate.
    pub inventory_slot_us: u64,
    kind: CapabilityKind,
}

impl PhyCapabilities {
    /// Capabilities of the paper's presence/CSI PHY.
    pub fn presence() -> Self {
        PhyCapabilities {
            name: "presence",
            rides_data_frames: false,
            dedicated_airtime: true,
            coded_fallback: true,
            rate_steps_bps: SUPPORTED_RATES_BPS.to_vec(),
            response_lead_us: 1_200_000,
            inventory_slot_us: 2_500,
            kind: CapabilityKind::Presence,
        }
    }

    /// Capabilities of the codeword-translation PHY for `params`.
    pub fn codeword(params: &CodewordParams) -> Self {
        PhyCapabilities {
            name: "codeword",
            rides_data_frames: true,
            dedicated_airtime: false,
            coded_fallback: false,
            rate_steps_bps: CODEWORD_RATE_STEPS_BPS.to_vec(),
            response_lead_us: 0,
            inventory_slot_us: 400,
            kind: CapabilityKind::Codeword {
                syms_per_bit: params.syms_per_bit(),
                syms_per_frame: crate::codeword::helper_frame_symbols(),
            },
        }
    }

    /// The §5 rate-selection rule in this mode's currency: the fastest
    /// step the offered helper traffic supports with `margin` headroom,
    /// or the slowest step if none qualifies.
    ///
    /// Presence counts *packets* per bit (`pkts_per_bit` measurements
    /// each); codeword counts *symbols* per bit, so `pkts_per_bit` is
    /// ignored there and the ceiling is
    /// `margin · helper_pps · syms_per_frame / syms_per_bit`.
    pub fn select_rate_bps(&self, helper_pps: f64, pkts_per_bit: u32, margin: f64) -> u64 {
        match &self.kind {
            CapabilityKind::Presence => select_bit_rate(helper_pps, pkts_per_bit, margin),
            CapabilityKind::Codeword {
                syms_per_bit,
                syms_per_frame,
            } => {
                let max_rate =
                    margin * helper_pps * *syms_per_frame as f64 / *syms_per_bit as f64;
                self.rate_steps_bps
                    .iter()
                    .rev()
                    .find(|&&r| (r as f64) <= max_rate)
                    .copied()
                    .unwrap_or(self.rate_steps_bps[0])
            }
        }
    }

    /// Rate re-adaptation when the measured helper cadence collapses
    /// below what selection assumed: `Some(lower_rate)` if stepping down
    /// helps, `None` if the cadence is healthy or the rate is already at
    /// the floor. Presence delegates to the §5 chip-halving rule
    /// ([`bs_wifi::rate_adapt::readapt_chip_rate`], floor 25 cps);
    /// codeword steps down its own table.
    pub fn readapt_rate(&self, current_bps: u64, measured_pps: f64, target_ppb: f64) -> Option<u64> {
        match &self.kind {
            CapabilityKind::Presence => {
                bs_wifi::rate_adapt::readapt_chip_rate(current_bps, measured_pps, target_ppb)
            }
            CapabilityKind::Codeword {
                syms_per_bit,
                syms_per_frame,
            } => {
                let expected_pps =
                    current_bps as f64 * *syms_per_bit as f64 / *syms_per_frame as f64;
                if !cadence_collapsed(measured_pps, expected_pps) {
                    return None;
                }
                self.rate_steps_bps
                    .iter()
                    .rev()
                    .find(|&&r| r < current_bps)
                    .copied()
            }
        }
    }

    /// Airtime the reader budgets for one uplink response of
    /// `payload_bits` at `bit_rate_bps` (µs): the on-air frame plus this
    /// mode's conditioning lead. `code_length` spreads presence bits
    /// only (the codeword mode has no coded fallback).
    pub fn response_air_us(&self, payload_bits: usize, bit_rate_bps: u64, code_length: usize) -> u64 {
        match &self.kind {
            CapabilityKind::Presence => {
                1_200_000
                    + ((payload_bits + 13) * code_length) as u64 * 1_000_000
                        / bit_rate_bps.max(1)
            }
            CapabilityKind::Codeword { .. } => {
                UplinkFrame::on_air_len(payload_bits) as u64 * 1_000_000 / bit_rate_bps.max(1)
            }
        }
    }

    /// The rate index the query wire format carries for a selected rate.
    /// The wire encodes an index into the presence table
    /// ([`SUPPORTED_RATES_BPS`]); presence rates map to themselves.
    /// Codeword rates never fit that table — the tag's clock is the
    /// helper's symbol train, so the field is vestigial and pins to the
    /// table's top entry to stay encodable.
    pub fn wire_rate_bps(&self, selected_bps: u64) -> u64 {
        match &self.kind {
            CapabilityKind::Presence => selected_bps,
            CapabilityKind::Codeword { .. } => *SUPPORTED_RATES_BPS
                .last()
                .expect("supported rate table is non-empty"),
        }
    }
}

/// Which PHY mode a link/session/gateway runs — the value callers put in
/// configs via `with_phy(...)`. [`PhyConfig::Presence`] is the default
/// everywhere, keeping pre-trait behaviour.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum PhyConfig {
    /// The paper's presence/CSI PHY (the baseline).
    #[default]
    Presence,
    /// FreeRider-style codeword translation with the given shape.
    Codeword(CodewordParams),
}

impl PhyConfig {
    /// Codeword translation at the default shape.
    pub fn codeword() -> Self {
        PhyConfig::Codeword(CodewordParams::default())
    }

    /// Instantiates the configured mode.
    pub fn mode(&self) -> Box<dyn PhyMode> {
        match self {
            PhyConfig::Presence => Box::new(PresencePhy),
            PhyConfig::Codeword(p) => Box::new(CodewordPhy::new(p.clone())),
        }
    }

    /// The configured mode's capabilities (without boxing); its `name`
    /// is the mode's stable identifier.
    pub fn capabilities(&self) -> PhyCapabilities {
        match self {
            PhyConfig::Presence => PhyCapabilities::presence(),
            PhyConfig::Codeword(p) => PhyCapabilities::codeword(p),
        }
    }
}

/// The paper's presence/CSI PHY as a [`PhyMode`]. A unit struct — all
/// its state lives in the configs it is handed. Its decode path is the
/// pre-trait `link` code, moved, not rewritten: outputs are
/// bit-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PresencePhy;

impl PhyUplink for PresencePhy {
    fn uplink_with(&self, cfg: &LinkConfig, rec: &mut dyn Recorder) -> UplinkRun {
        presence_uplink_with(cfg, rec)
    }
}

impl PhyDownlink for PresencePhy {
    fn downlink_ber_with(
        &self,
        cfg: &DownlinkConfig,
        n_bits: usize,
        rec: &mut dyn Recorder,
    ) -> DownlinkRun {
        presence_downlink_ber_with(cfg, n_bits, rec)
    }

    fn downlink_frame_with(
        &self,
        cfg: &DownlinkConfig,
        frame: &DownlinkFrame,
        rec: &mut dyn Recorder,
    ) -> (Option<DownlinkFrame>, DegradationReport) {
        presence_downlink_frame_with(cfg, frame, rec)
    }
}

impl PhyMode for PresencePhy {
    fn name(&self) -> &'static str {
        "presence"
    }

    fn capabilities(&self) -> PhyCapabilities {
        PhyCapabilities::presence()
    }
}

/// The codeword-translation PHY as a [`PhyMode`]. The uplink rides
/// in-flight helper frames ([`crate::codeword`]); the downlink reuses
/// the presence envelope channel — the tag's wake/command receiver is
/// the same analog front end whichever way its uplink modulates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CodewordPhy {
    params: CodewordParams,
}

impl CodewordPhy {
    /// A codeword PHY with the given shape.
    pub fn new(params: CodewordParams) -> Self {
        CodewordPhy { params }
    }
}

impl PhyUplink for CodewordPhy {
    fn uplink_with(&self, cfg: &LinkConfig, rec: &mut dyn Recorder) -> UplinkRun {
        run_codeword_uplink_with(cfg, &self.params, rec)
    }
}

impl PhyDownlink for CodewordPhy {
    fn downlink_ber_with(
        &self,
        cfg: &DownlinkConfig,
        n_bits: usize,
        rec: &mut dyn Recorder,
    ) -> DownlinkRun {
        presence_downlink_ber_with(cfg, n_bits, rec)
    }

    fn downlink_frame_with(
        &self,
        cfg: &DownlinkConfig,
        frame: &DownlinkFrame,
        rec: &mut dyn Recorder,
    ) -> (Option<DownlinkFrame>, DegradationReport) {
        presence_downlink_frame_with(cfg, frame, rec)
    }
}

impl PhyMode for CodewordPhy {
    fn name(&self) -> &'static str {
        "codeword"
    }

    fn capabilities(&self) -> PhyCapabilities {
        PhyCapabilities::codeword(&self.params)
    }
}

/// Runs one uplink frame exchange through the PHY mode configured in
/// `cfg.phy`.
pub fn run_uplink(cfg: &LinkConfig) -> UplinkRun {
    run_uplink_with(cfg, &mut NullRecorder)
}

/// [`run_uplink`] with observability threaded through `rec`; pass a
/// [`MemRecorder`](bs_dsp::obs::MemRecorder) and call `into_report()` to
/// profile the exchange. The run is bit-identical whatever the recorder.
pub fn run_uplink_with(cfg: &LinkConfig, rec: &mut dyn Recorder) -> UplinkRun {
    cfg.phy.mode().uplink_with(cfg, rec)
}

/// Measures raw downlink BER through the PHY mode configured in
/// `cfg.phy` (both shipped modes share the envelope downlink).
pub fn run_downlink_ber(cfg: &DownlinkConfig, n_bits: usize) -> DownlinkRun {
    run_downlink_ber_with(cfg, n_bits, &mut NullRecorder)
}

/// [`run_downlink_ber`] with observability threaded through `rec`.
pub fn run_downlink_ber_with(
    cfg: &DownlinkConfig,
    n_bits: usize,
    rec: &mut dyn Recorder,
) -> DownlinkRun {
    cfg.phy.mode().downlink_ber_with(cfg, n_bits, rec)
}

/// Sends one framed downlink message through the configured PHY mode.
pub fn run_downlink_frame(cfg: &DownlinkConfig, frame: &DownlinkFrame) -> Option<DownlinkFrame> {
    run_downlink_frame_with(cfg, frame, &mut NullRecorder).0
}

/// [`run_downlink_frame`] with observability threaded through `rec`,
/// plus the [`DegradationReport`] naming the faults that hit the
/// exchange.
pub fn run_downlink_frame_with(
    cfg: &DownlinkConfig,
    frame: &DownlinkFrame,
    rec: &mut dyn Recorder,
) -> (Option<DownlinkFrame>, DegradationReport) {
    cfg.phy.mode().downlink_frame_with(cfg, frame, rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presence_capabilities_mirror_the_section5_rules() {
        let caps = PhyCapabilities::presence();
        assert_eq!(caps.rate_steps_bps, SUPPORTED_RATES_BPS.to_vec());
        for (pps, ppb, margin) in [(1_500.0, 5, 0.8), (600.0, 5, 0.9), (12_000.0, 5, 0.8)] {
            assert_eq!(
                caps.select_rate_bps(pps, ppb, margin),
                select_bit_rate(pps, ppb, margin)
            );
        }
        for (cur, meas, tgt) in [(500u64, 40.0, 5.0), (500, 2_500.0, 5.0), (25, 1.0, 5.0)] {
            assert_eq!(
                caps.readapt_rate(cur, meas, tgt),
                bs_wifi::rate_adapt::readapt_chip_rate(cur, meas, tgt)
            );
        }
        assert_eq!(caps.wire_rate_bps(200), 200);
        // The session's historical response budget, exactly
        // (conditioning lead + (payload + framing) bits at 100 bps,
        // code_length 1).
        assert_eq!(
            caps.response_air_us(90, 100, 1),
            1_200_000 + (90 + 13) as u64 * 1_000_000 / 100
        );
    }

    #[test]
    fn codeword_capabilities_scale_with_symbol_supply() {
        let caps = PhyCapabilities::codeword(&CodewordParams::default());
        // 3 000 pps × 42 syms / 4 syms-per-bit × 0.8 margin = 25 200 →
        // top of the step table.
        assert_eq!(caps.select_rate_bps(3_000.0, 5, 0.8), 25_000);
        // 500 pps → 4 200 → 2 000.
        assert_eq!(caps.select_rate_bps(500.0, 5, 0.8), 2_000);
        // Starved traffic floors at the slowest step instead of
        // presence's 100 bps.
        assert_eq!(caps.select_rate_bps(10.0, 5, 0.8), 1_000);
        assert!(caps.rate_steps_bps.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn codeword_readapt_steps_down_its_own_table() {
        let caps = PhyCapabilities::codeword(&CodewordParams::default());
        // Healthy cadence: 10 000 bps needs ~952 pps; measuring that
        // exact supply is no collapse.
        assert_eq!(caps.readapt_rate(10_000, 952.0, 5.0), None);
        // Collapsed to a tenth: step down one entry.
        assert_eq!(caps.readapt_rate(10_000, 95.0, 5.0), Some(5_000));
        // Already at the floor.
        assert_eq!(caps.readapt_rate(1_000, 1.0, 5.0), None);
    }

    #[test]
    fn codeword_wire_rate_is_always_encodable() {
        let caps = PhyCapabilities::codeword(&CodewordParams::default());
        for r in CODEWORD_RATE_STEPS_BPS {
            let wire = caps.wire_rate_bps(r);
            assert!(SUPPORTED_RATES_BPS.contains(&wire));
        }
    }

    #[test]
    fn codeword_response_budget_has_no_conditioning_lead() {
        let p = PhyCapabilities::presence();
        let c = PhyCapabilities::codeword(&CodewordParams::default());
        assert!(c.response_air_us(90, 25_000, 1) < 10_000);
        assert!(p.response_air_us(90, 1_000, 1) > 1_200_000);
    }

    #[test]
    fn config_routes_to_the_right_mode() {
        assert_eq!(PhyConfig::default(), PhyConfig::Presence);
        assert_eq!(PhyConfig::Presence.mode().name(), "presence");
        assert_eq!(PhyConfig::codeword().mode().name(), "codeword");
        assert_eq!(PhyConfig::codeword().capabilities().name, "codeword");
        assert!(PhyConfig::Presence.capabilities().coded_fallback);
        assert!(!PhyConfig::codeword().capabilities().coded_fallback);
    }
}
