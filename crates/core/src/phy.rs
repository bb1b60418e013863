//! PHY mode selection: one [`PhyConfig`] value picks the uplink, and one
//! [`PhyCapabilities`] descriptor carries the mode's rate rules.
//!
//! The paper's reader has exactly one physical layer — presence/CSI on
//! the uplink, envelope on the downlink. Two uplink modes ship:
//!
//! * [`PhyConfig::Presence`] — the paper's PHY
//!   ([`crate::link`]'s capture and [`crate::uplink`]'s decoder).
//! * [`PhyConfig::Codeword`] — FreeRider-style codeword translation
//!   ([`crate::codeword`]): the tag phase-flips individual 802.11
//!   symbols of in-flight helper frames and the reader decodes the flip
//!   sequence from the demodulation residue. Orders of magnitude faster,
//!   zero dedicated airtime.
//!
//! Both modes share the envelope downlink: the tag's wake/command
//! receiver is the same analog front end whichever way its uplink
//! modulates. Callers pick a mode with [`LinkConfig::with_phy`] (and the
//! session / gateway equivalents); [`run_uplink`] dispatches on it, and
//! the `run_downlink_*` functions run the shared envelope downlink.
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
//! mode-neutral layers, so the session and gateway ask
//! [`PhyCapabilities`] to select, re-adapt, and wire-encode rates.

use crate::codeword::{
    helper_frame_symbols, run_codeword_uplink_with, CODEWORD_RATE_STEPS_BPS, SYMS_PER_BIT,
};
use crate::downlink::DownlinkEncoder;
use crate::link::{
    envelope_receive, presence_uplink_with, DegradationReport, DownlinkConfig, DownlinkRun,
    LinkConfig, UplinkRun,
};
use crate::protocol::{select_bit_rate, SUPPORTED_RATES_BPS};
use bs_dsp::bits::BerCounter;
use bs_dsp::obs::{NullRecorder, Recorder};
use bs_dsp::SimRng;
use bs_tag::frame::{DownlinkFrame, UplinkFrame};
use bs_wifi::rate_adapt::cadence_collapsed;

/// Conditioning lead the reader budgets before a presence response's
/// first bit can land (µs): the presence decoder's moving-average
/// warmup. Codeword translation has none.
const PRESENCE_RESPONSE_LEAD_US: u64 = 1_200_000;

/// What a PHY mode can do, in the vocabulary the layers above the PHY
/// actually consume. Built only by [`PhyConfig::capabilities`], so the
/// rate rules stay tied to the physics they model.
#[derive(Debug, Clone, PartialEq)]
pub struct PhyCapabilities {
    /// The mode's stable identifier (`"presence"`, `"codeword"`).
    pub name: &'static str,
    /// True if the mode has a long-range orthogonal-coded fallback the
    /// session may retry with (§3.4 applies to the presence PHY only).
    pub coded_fallback: bool,
    /// The mode's supported tag bit rates (bits/s), ascending.
    pub rate_steps_bps: Vec<u64>,
    /// Singulation slot length this PHY needs (µs): long enough for one
    /// short reply at the mode's base rate.
    pub inventory_slot_us: u64,
    phy: PhyConfig,
}

impl PhyCapabilities {
    /// The §5 rate-selection rule in this mode's currency: the fastest
    /// step the offered helper traffic supports with `margin` headroom,
    /// or the slowest step if none qualifies.
    ///
    /// Presence counts *packets* per bit (`pkts_per_bit` measurements
    /// each); codeword counts *symbols* per bit, so `pkts_per_bit` is
    /// ignored there and the ceiling is
    /// `margin · helper_pps · syms_per_frame / syms_per_bit`.
    pub fn select_rate_bps(&self, helper_pps: f64, pkts_per_bit: u32, margin: f64) -> u64 {
        match self.phy {
            PhyConfig::Presence => select_bit_rate(helper_pps, pkts_per_bit, margin),
            PhyConfig::Codeword => {
                let max_rate =
                    margin * helper_pps * helper_frame_symbols() as f64 / SYMS_PER_BIT as f64;
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
    pub fn readapt_rate(
        &self,
        current_bps: u64,
        measured_pps: f64,
        target_ppb: f64,
    ) -> Option<u64> {
        match self.phy {
            PhyConfig::Presence => {
                bs_wifi::rate_adapt::readapt_chip_rate(current_bps, measured_pps, target_ppb)
            }
            PhyConfig::Codeword => {
                let expected_pps =
                    current_bps as f64 * SYMS_PER_BIT as f64 / helper_frame_symbols() as f64;
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
    pub fn response_air_us(
        &self,
        payload_bits: usize,
        bit_rate_bps: u64,
        code_length: usize,
    ) -> u64 {
        match self.phy {
            PhyConfig::Presence => {
                PRESENCE_RESPONSE_LEAD_US
                    + ((payload_bits + 13) * code_length) as u64 * 1_000_000 / bit_rate_bps.max(1)
            }
            PhyConfig::Codeword => {
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
        match self.phy {
            PhyConfig::Presence => selected_bps,
            PhyConfig::Codeword => *SUPPORTED_RATES_BPS
                .last()
                .expect("supported rate table is non-empty"),
        }
    }
}

/// Which PHY mode a link/session/gateway runs — the value callers put in
/// configs via `with_phy(...)`. [`PhyConfig::Presence`] is the default
/// everywhere.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum PhyConfig {
    /// The paper's presence/CSI PHY (the baseline).
    #[default]
    Presence,
    /// FreeRider-style codeword translation: each frame bit is two
    /// chips, each chip held for two helper symbols.
    Codeword,
}

impl PhyConfig {
    /// The configured mode's capabilities; its `name` is the mode's
    /// stable identifier.
    pub fn capabilities(&self) -> PhyCapabilities {
        let (name, coded_fallback, rate_steps_bps, inventory_slot_us) = match self {
            PhyConfig::Presence => ("presence", true, SUPPORTED_RATES_BPS.to_vec(), 2_500),
            PhyConfig::Codeword => ("codeword", false, CODEWORD_RATE_STEPS_BPS.to_vec(), 400),
        };
        PhyCapabilities {
            name,
            coded_fallback,
            rate_steps_bps,
            inventory_slot_us,
            phy: *self,
        }
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
    match cfg.phy {
        PhyConfig::Presence => presence_uplink_with(cfg, rec),
        PhyConfig::Codeword => run_codeword_uplink_with(cfg, rec),
    }
}

/// Measures raw downlink BER over `n_bits` random bits on the envelope
/// downlink both PHY modes share.
pub fn run_downlink_ber(cfg: &DownlinkConfig, n_bits: usize) -> DownlinkRun {
    run_downlink_ber_with(cfg, n_bits, &mut NullRecorder)
}

/// [`run_downlink_ber`] with observability threaded through `rec`: a
/// `downlink.envelope` span over the simulated trace, the tag comparator
/// span and transition counter from
/// [`ReceiverCircuit::run_with`](bs_tag::receiver::ReceiverCircuit::run_with),
/// counters `downlink.bits-sent` / `downlink.bit-errors`, and the tag's
/// energy ledger gauges (`tag.energy-uj`, `tag.mean-uw`) for the receive
/// window. Every RNG draw is identical whatever the recorder.
pub fn run_downlink_ber_with(
    cfg: &DownlinkConfig,
    n_bits: usize,
    rec: &mut dyn Recorder,
) -> DownlinkRun {
    let mut bit_rng = SimRng::new(cfg.seed).stream("dl-bits");
    let bits: Vec<bool> = (0..n_bits).map(|_| bit_rng.chance(0.5)).collect();
    let mut report = DegradationReport::default();
    if cfg.faults.interference().is_some() {
        report.fire("interference-burst");
    }
    // 1 µs samples, one bit per bit time.
    let bit_samples = (1_000_000 / cfg.bit_rate_bps.max(1)) as usize;
    let n_samples = bits.len() * bit_samples + 100;
    rec.span("downlink.envelope", 0, n_samples as u64, n_samples as u64);
    let lit = |i: usize| bits.get(i / bit_samples) == Some(&true);
    let (comparator, mut dec) = envelope_receive(cfg, "dl-envelope", n_samples, lit, rec);
    let decoded = dec.slice_bits(&comparator, 0.0, bits.len());

    let mut ber = BerCounter::new();
    ber.compare(&bits, &decoded);
    rec.add("downlink.bits-sent", bits.len() as u64);
    rec.add("downlink.bit-errors", ber.errors());

    // The tag-side energy story of this receive window: analog rx front
    // end on for the whole trace, one mid-bit sample per sliced bit, MCU
    // otherwise asleep (§4.2's duty-cycled firmware).
    let mut ledger = bs_tag::power::EnergyLedger::new();
    ledger.analog(n_samples as f64, true, false);
    ledger.samples(bits.len() as u64);
    ledger.mcu_sleep(n_samples as f64);
    ledger.record(rec);

    DownlinkRun {
        ber,
        bits_sent: bits.len(),
        degradation: report,
    }
}

/// Sends one framed downlink message end-to-end on the shared envelope
/// downlink.
pub fn run_downlink_frame(cfg: &DownlinkConfig, frame: &DownlinkFrame) -> Option<DownlinkFrame> {
    run_downlink_frame_with(cfg, frame, &mut NullRecorder).0
}

/// [`run_downlink_frame`] with observability threaded through `rec`,
/// plus the [`DegradationReport`] naming the faults that hit the
/// exchange. An armed [`Fault::PacketLoss`] can swallow the whole short
/// query burst (the frame-level loss the session layer retries around);
/// an armed interference burst raises the envelope floor under the
/// frame. Observability: a `downlink.encode` span over the
/// transmission's on-air extent, the tag comparator instrumentation, and
/// counters `downlink.frames-attempted` / `downlink.frames-recovered` /
/// `downlink.frames-lost`. The exchange is bit-identical whatever the
/// recorder.
///
/// [`Fault::PacketLoss`]: bs_channel::faults::Fault::PacketLoss
pub fn run_downlink_frame_with(
    cfg: &DownlinkConfig,
    frame: &DownlinkFrame,
    rec: &mut dyn Recorder,
) -> (Option<DownlinkFrame>, DegradationReport) {
    let mut report = DegradationReport::default();
    rec.add("downlink.frames-attempted", 1);
    let loss = cfg.faults.frame_loss_prob();
    if loss > 0.0 {
        let mut rng = SimRng::new(cfg.seed ^ cfg.faults.seed).stream("dl-frame-loss");
        if rng.chance(loss) {
            report.fire("packet-loss");
            report.packets_dropped += 1;
            rec.add("downlink.frames-lost", 1);
            return (None, report);
        }
    }
    if cfg.faults.interference().is_some() {
        report.fire("interference-burst");
    }
    let Ok(tx) = DownlinkEncoder::new(cfg.bit_rate_bps).encode(frame, 2_000) else {
        return (None, report);
    };
    rec.span(
        "downlink.encode",
        2_000,
        tx.end_us,
        frame.payload.len() as u64,
    );
    let n_samples = (tx.end_us + 2_000) as usize;
    let lit = |i: usize| tx.on_air(i as u64);
    let (comparator, mut dec) = envelope_receive(cfg, "dl-frame-env", n_samples, lit, rec);
    let got = dec
        .decode_stream(&comparator, frame.payload.len())
        .into_iter()
        .next();
    dec.stats.record(rec);
    if got.is_some() {
        rec.add("downlink.frames-recovered", 1);
    }
    (got, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presence_capabilities_mirror_the_section5_rules() {
        let caps = PhyConfig::Presence.capabilities();
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
        let caps = PhyConfig::Codeword.capabilities();
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
        let caps = PhyConfig::Codeword.capabilities();
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
        let caps = PhyConfig::Codeword.capabilities();
        for r in CODEWORD_RATE_STEPS_BPS {
            let wire = caps.wire_rate_bps(r);
            assert!(SUPPORTED_RATES_BPS.contains(&wire));
        }
    }

    #[test]
    fn codeword_response_budget_has_no_conditioning_lead() {
        let p = PhyConfig::Presence.capabilities();
        let c = PhyConfig::Codeword.capabilities();
        assert!(c.response_air_us(90, 25_000, 1) < 10_000);
        assert!(p.response_air_us(90, 1_000, 1) > 1_200_000);
    }

    #[test]
    fn config_routes_to_the_right_mode() {
        assert_eq!(PhyConfig::default(), PhyConfig::Presence);
        assert_eq!(PhyConfig::Presence.capabilities().name, "presence");
        assert_eq!(PhyConfig::Codeword.capabilities().name, "codeword");
        assert!(PhyConfig::Presence.capabilities().coded_fallback);
        assert!(!PhyConfig::Codeword.capabilities().coded_fallback);
    }
}
