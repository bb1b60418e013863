//! The link abstraction the transport runs over, with two
//! implementations: a fast seeded loss model for benches, conformance
//! sweeps and wild helper traffic, and the full PHY simulation for
//! end-to-end validation.
//!
//! The ARQ machinery ([`crate::arq`]) only needs four things from a
//! link: deliver a downlink control frame or not, deliver an uplink
//! segment (possibly duplicated) or not, account airtime, and keep a
//! simulated clock. [`SimLink`] answers those with severity-scaled
//! Bernoulli draws derived from the same [`FaultPlan`] vocabulary the
//! rest of the stack uses — `packet-loss` drops, `rate-collapse`
//! starvation, `helper-outage` windows and `packet-duplication` — so a
//! transport sweep composes with the existing fault presets. Built with
//! [`SimLink::from_traffic`], it also replays a helper arrival trace
//! (see [`WildTraffic`]): a segment dies when too few helper packets
//! land inside its on-air window, which turns heavy-tailed idle gaps
//! into the *bursty* loss process the FEC layer exists to repair.
//! [`PhyLink`] routes every frame through `run_downlink_frame_with` and
//! every segment through the actual uplink decode chain.
//!
//! Every link charges airtime through [`control_air_us`] and
//! [`segment_air_us`], so the models cannot disagree on how long a
//! frame is on the air.

use crate::seg::Segment;
use bs_channel::faults::{Fault, FaultPlan};
use bs_dsp::obs::Recorder;
use bs_dsp::SimRng;
use bs_tag::frame::DownlinkFrame;
use bs_wifi::traffic::WildTraffic;
use std::borrow::Borrow;
use wifi_backscatter::link::{DegradationReport, DownlinkConfig, LinkConfig};
use wifi_backscatter::phy::{run_downlink_frame_with, run_uplink_with, PhyConfig};

/// Downlink (reader→tag) bit rate of every link, bits/s: the paper's
/// 20 kbps envelope channel.
const DOWNLINK_BPS: u64 = 20_000;

/// Turnaround gap every link charges after each frame or segment (µs).
const TURNAROUND_US: u64 = 200;

/// On-air time (µs) of a downlink control frame carrying `payload_len`
/// bytes.
pub fn control_air_us(payload_len: usize) -> u64 {
    DownlinkFrame::on_air_len(payload_len) as u64 * 1_000_000 / DOWNLINK_BPS
}

/// On-air time (µs) of an uplink burst of `n_bits` bits at
/// `chip_rate_bps` (a zero rate counts as 1 bit/s).
pub fn segment_air_us(n_bits: usize, chip_rate_bps: u64) -> u64 {
    n_bits as u64 * 1_000_000 / chip_rate_bps.max(1)
}

/// What happened to one uplink segment on the air.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentFate {
    /// Never decoded at the reader.
    Lost,
    /// Decoded once.
    Delivered,
    /// Decoded twice (MAC-level duplication): the receiver must
    /// deduplicate.
    DeliveredTwice,
}

/// The transport's view of a backscatter link.
///
/// All methods are deterministic functions of the construction seed and
/// the call sequence; the transport owns the call sequence, so a whole
/// transfer is replayable from its seed.
pub trait SegmentLink {
    /// Current simulated time (µs).
    fn now_us(&self) -> u64;

    /// Advances the simulated clock (airtime, turnaround, backoff).
    fn advance_us(&mut self, us: u64);

    /// Attempts a downlink control frame (poll or ACK); true = the other
    /// end decoded it.
    fn send_control(&mut self, frame: &DownlinkFrame, rec: &mut dyn Recorder) -> bool;

    /// Attempts one uplink segment. Only a link that modulates the
    /// segment's bits serialises it ([`Segment::to_bits`]); a link model
    /// needs just its on-air length ([`Segment::on_air_len`]).
    fn send_segment(&mut self, seg: &Segment, rec: &mut dyn Recorder) -> SegmentFate;

    /// Current uplink chip rate (bits/s in plain mode).
    fn chip_rate_bps(&self) -> u64;

    /// Re-commands the uplink chip rate (rate adaptation).
    fn set_chip_rate_bps(&mut self, bps: u64);

    /// Takes the degradation accounting accumulated since the last call.
    fn take_degradation(&mut self) -> DegradationReport;
}
/// The numbers a link model reads from its [`FaultPlan`], derived once
/// when the link is built: the severity-scaled outage window and the
/// frame-loss, segment-loss and duplication probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FaultRates {
    /// Severity-scaled `(period_us, silent_us)` of an armed outage.
    outage_us: Option<(u64, u64)>,
    /// Per-control-frame loss probability.
    frame_loss: f64,
    /// Per-segment loss probability: frame loss composed with
    /// rate-collapse starvation (a collapsed helper cadence starves the
    /// decoder of measurements for the whole segment).
    segment_loss: f64,
    /// Whole-segment duplication probability (a MAC retransmission whose
    /// ACK was lost).
    dup: f64,
}

impl FaultRates {
    pub(crate) fn of(faults: &FaultPlan) -> Self {
        let sev = faults.severity.clamp(0.0, 1.0);
        let segment_loss = if sev <= 0.0 {
            0.0
        } else {
            let mut keep = 1.0 - faults.frame_loss_prob();
            for f in &faults.faults {
                if let Fault::RateCollapse { keep: k } = *f {
                    keep *= 1.0 - (sev * (1.0 - k.clamp(0.0, 1.0))).clamp(0.0, 1.0);
                }
            }
            (1.0 - keep).clamp(0.0, 1.0)
        };
        let dup = faults
            .faults
            .iter()
            .map(|f| match *f {
                Fault::PacketDuplication { prob } => (prob * sev).clamp(0.0, 1.0),
                _ => 0.0,
            })
            .fold(0.0, f64::max);
        FaultRates {
            outage_us: faults.outage_window_us(),
            frame_loss: faults.frame_loss_prob(),
            segment_loss,
            dup,
        }
    }

    /// True if the outage silences time `t_us` (as
    /// [`FaultPlan::outage_at`]).
    fn outage_at(&self, t_us: u64) -> bool {
        self.outage_us
            .is_some_and(|(period, silent)| t_us % period < silent)
    }
}

/// Fixed cost of every control exchange on a [`SimLink::new`] link
/// (µs): medium access, the CTS_to_SELF reservation fronting each
/// downlink frame, and the tag's wake/settle turnaround. This is the
/// per-round overhead a sliding window amortises over its burst — with
/// it near zero, stop-and-wait would look artificially competitive.
const CTRL_OVERHEAD_US: u64 = 30_000;

/// Fixed cost of every control exchange on a [`SimLink::from_traffic`]
/// link (µs). There the tag is modelled as RF-powered, and every
/// feedback round costs a harvest-recharge cycle — the tag trickles
/// energy from ambient RF for seconds to afford decoding the next
/// poll/ACK exchange. That recharge-scale round cost is precisely why
/// cutting feedback rounds with FEC pays on this link where it would
/// not on a battery-powered one.
const RECHARGE_US: u64 = 3_000_000;

/// Helper packets the uplink decoder needs per bit, on average over a
/// segment's on-air window. The paper's decoder integrates several
/// helper packets per chip at high rates; 0.35 models an operating
/// point where a segment survives moderate thinning but dies when an
/// idle gap swallows a third of its airtime.
const MIN_PKTS_PER_BIT: f64 = 0.35;

/// A helper-packet arrival trace a [`SimLink`] replays cyclically.
#[derive(Debug, Clone)]
struct HelperTrace {
    /// Sorted helper-packet arrival times in `[0, horizon_us)`.
    arrivals: Vec<u64>,
    horizon_us: u64,
}

impl HelperTrace {
    /// Helper packets arriving in `[start_us, start_us + dur_us)`, with
    /// the trace wrapping cyclically at the horizon.
    fn packets_within(&self, start_us: u64, dur_us: u64) -> u64 {
        if self.arrivals.is_empty() {
            return 0;
        }
        let n = self.arrivals.len() as u64;
        let full_cycles = dur_us / self.horizon_us;
        let s = start_us % self.horizon_us;
        let rem = dur_us % self.horizon_us;
        let count_before = |t: u64| self.arrivals.partition_point(|&a| a < t) as u64;
        let partial = if s + rem <= self.horizon_us {
            count_before(s + rem) - count_before(s)
        } else {
            (n - count_before(s)) + count_before(s + rem - self.horizon_us)
        };
        full_cycles * n + partial
    }

    /// True when a segment of `n_bits` on the air for `air_us` from
    /// `start_us` sees fewer than `ceil(n_bits × MIN_PKTS_PER_BIT)`
    /// helper packets.
    fn starves(&self, start_us: u64, air_us: u64, n_bits: usize) -> bool {
        let need = (n_bits as f64 * MIN_PKTS_PER_BIT).ceil() as u64;
        self.packets_within(start_us, air_us.max(1)) < need
    }
}

/// Fast seeded link model: Bernoulli frame outcomes whose probabilities
/// scale with [`FaultPlan`] severity, plus deterministic outage windows
/// on the shared simulated clock, at the paper's nominal rates (20 kbps
/// downlink, 500 bps uplink until re-commanded, 200 µs turnaround).
///
/// A link built with [`SimLink::from_traffic`] is also gated by *when
/// the helper actually talks*. Wi-Fi Backscatter's uplink only exists
/// while helper packets are on the air — the tag modulates its
/// reflection of *their* energy. A Poisson helper keeps every segment
/// fed; a heavy-tailed one leaves Pareto-length silences that starve
/// whole bursts of segments at once. That burstiness is exactly the loss
/// process FEC-across-a-window repairs and per-segment ARQ pays a full
/// round trip for, so the fec bench and conformance suite run over such
/// a link. A segment of `n` bits needs at least `ceil(n × 0.35)` helper
/// packets inside its on-air window or it is lost (recorded as the
/// `helper-idle` fault); the trace wraps cyclically past its horizon, so
/// arbitrarily long transfers replay the same diurnal day. The fault
/// plan composes on top of the starvation gate exactly as without a
/// trace. Control frames are reader-transmitted (the reader *is* a Wi-Fi
/// device and needs no ambient traffic), so they see only the fault plan.
#[derive(Debug, Clone)]
pub struct SimLink {
    /// What the armed fault plan does to this link.
    rates: FaultRates,
    /// Uplink chip rate, bits/s in plain mode.
    chip_rate_bps: u64,
    /// Fixed cost of every control exchange (µs): [`CTRL_OVERHEAD_US`],
    /// or [`RECHARGE_US`] on a traffic-driven link.
    ctrl_overhead_us: u64,
    /// The helper arrivals gating each segment, if the link replays any.
    helper: Option<HelperTrace>,
    now_us: u64,
    rng: SimRng,
    report: DegradationReport,
}

impl SimLink {
    /// A link under the fault plan `faults` (owned or borrowed; the link
    /// reads it once), with no helper trace and a 30 ms control exchange.
    /// All randomness derives from `seed` (kept independent of the fault
    /// plan's own seed). Building one allocates nothing.
    pub fn new(faults: impl Borrow<FaultPlan>, seed: u64) -> Self {
        let faults = faults.borrow();
        let rates = FaultRates::of(faults);
        Self::build(
            rates,
            faults.seed,
            seed,
            "net-simlink",
            CTRL_OVERHEAD_US,
            None,
        )
    }

    /// A link driven by `traffic`'s arrival process over one cyclic
    /// `horizon_us` trace, under `faults`, with the RF-powered tag's 3 s
    /// recharge per control exchange. The trace and the Bernoulli draws
    /// derive from independent substreams of `seed`.
    ///
    /// # Errors
    /// [`SimLinkError::InvalidConfig`] if `horizon_us` is zero or a
    /// `traffic` field is out of its domain
    /// ([`WildTraffic::invalid_field`]).
    pub fn from_traffic(
        traffic: &WildTraffic,
        horizon_us: u64,
        faults: impl Borrow<FaultPlan>,
        seed: u64,
    ) -> Result<Self, SimLinkError> {
        if horizon_us == 0 {
            return Err(SimLinkError::InvalidConfig {
                field: "horizon_us",
            });
        }
        if let Some(field) = traffic.invalid_field() {
            return Err(SimLinkError::InvalidConfig { field });
        }
        let faults = faults.borrow();
        let mut gen_rng = SimRng::new(seed ^ faults.seed.rotate_left(17)).stream("net-traffic-gen");
        let arrivals = traffic.arrivals(horizon_us, &mut gen_rng);
        Ok(Self::from_arrivals(arrivals, horizon_us, faults, seed))
    }

    /// A traffic-driven link over an explicit arrival trace (must be
    /// sorted and within `[0, horizon_us)`).
    fn from_arrivals(arrivals: Vec<u64>, horizon_us: u64, faults: &FaultPlan, seed: u64) -> Self {
        assert!(horizon_us > 0, "horizon must be positive");
        assert!(
            arrivals.windows(2).all(|w| w[0] <= w[1]),
            "arrival trace must be sorted"
        );
        assert!(
            arrivals.last().is_none_or(|&t| t < horizon_us),
            "arrivals must fall inside the horizon"
        );
        let trace = HelperTrace {
            arrivals,
            horizon_us,
        };
        let rates = FaultRates::of(faults);
        Self::build(
            rates,
            faults.seed,
            seed,
            "net-trafficlink",
            RECHARGE_US,
            Some(trace),
        )
    }

    fn build(
        rates: FaultRates,
        faults_seed: u64,
        seed: u64,
        stream: &str,
        ctrl_overhead_us: u64,
        helper: Option<HelperTrace>,
    ) -> Self {
        SimLink {
            rng: SimRng::new(seed ^ faults_seed.rotate_left(17)).stream(stream),
            rates,
            chip_rate_bps: 500,
            ctrl_overhead_us,
            helper,
            now_us: 0,
            report: DegradationReport::default(),
        }
    }

    /// Re-arms the link as [`SimLink::new`] builds it under a plan whose
    /// rates ([`FaultRates::of`]) and seed are `rates` and
    /// `faults_seed`: the gateway reads its plan once and re-arms every
    /// tag's link from it. The degradation report is cleared in place,
    /// so its name lists keep their capacity.
    pub(crate) fn rearm(&mut self, rates: FaultRates, faults_seed: u64, seed: u64) {
        let mut report = std::mem::take(&mut self.report);
        clear_report(&mut report);
        *self = SimLink {
            report,
            ..Self::build(
                rates,
                faults_seed,
                seed,
                "net-simlink",
                CTRL_OVERHEAD_US,
                None,
            )
        };
    }

    /// The degradation accounting since the last
    /// [`SegmentLink::take_degradation`] or re-arm.
    pub(crate) fn degradation(&self) -> &DegradationReport {
        &self.report
    }

    /// The helper-packet arrival trace this link replays; empty for a
    /// link built with [`SimLink::new`], which no trace gates.
    pub fn arrivals(&self) -> &[u64] {
        self.helper.as_ref().map_or(&[], |h| &h.arrivals)
    }
}

/// Empties `report` as [`DegradationReport::default`] would, keeping
/// the capacity of its name lists.
pub(crate) fn clear_report(report: &mut DegradationReport) {
    let mut faults = std::mem::take(&mut report.faults_fired);
    let mut mitigations = std::mem::take(&mut report.mitigations_engaged);
    faults.clear();
    mitigations.clear();
    *report = DegradationReport {
        faults_fired: faults,
        mitigations_engaged: mitigations,
        ..DegradationReport::default()
    };
}

/// Why [`SimLink::from_traffic`] rejects its inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimLinkError {
    /// The horizon is zero, or a [`WildTraffic`] field is out of its
    /// domain (see [`WildTraffic::invalid_field`]).
    InvalidConfig {
        /// `horizon_us`, or the rejected [`WildTraffic`] field.
        field: &'static str,
    },
}

impl std::fmt::Display for SimLinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimLinkError::InvalidConfig { field } => {
                write!(f, "traffic link field {field} is out of its domain")
            }
        }
    }
}

impl std::error::Error for SimLinkError {}

impl SegmentLink for SimLink {
    fn now_us(&self) -> u64 {
        self.now_us
    }

    fn advance_us(&mut self, us: u64) {
        self.now_us += us;
    }

    fn send_control(&mut self, frame: &DownlinkFrame, rec: &mut dyn Recorder) -> bool {
        let air = control_air_us(frame.payload.len());
        let outage = self.rates.outage_at(self.now_us + air / 2);
        let lost = self.rng.chance(self.rates.frame_loss);
        self.now_us += self.ctrl_overhead_us + air + TURNAROUND_US;
        if outage || lost {
            self.report.packets_dropped += 1;
            self.report.fire(if outage {
                "helper-outage"
            } else {
                "packet-loss"
            });
            rec.add("net.control-lost", 1);
            return false;
        }
        true
    }

    fn send_segment(&mut self, seg: &Segment, rec: &mut dyn Recorder) -> SegmentFate {
        let n_bits = Segment::on_air_len(seg.payload.len());
        let air = segment_air_us(n_bits, self.chip_rate_bps);
        let starved = self
            .helper
            .as_ref()
            .is_some_and(|h| h.starves(self.now_us, air, n_bits));
        let outage = self.rates.outage_at(self.now_us + air / 2);
        let lost = self.rng.chance(self.rates.segment_loss);
        let dup = self.rng.chance(self.rates.dup);
        self.now_us += air + TURNAROUND_US;
        if starved {
            self.report.packets_dropped += 1;
            self.report.fire("helper-idle");
            rec.add("net.segments-starved", 1);
            return SegmentFate::Lost;
        }
        if outage || lost {
            self.report.packets_dropped += 1;
            self.report.fire(if outage {
                "helper-outage"
            } else {
                "packet-loss"
            });
            rec.add("net.segments-lost", 1);
            return SegmentFate::Lost;
        }
        if dup {
            self.report.packets_duplicated += 1;
            self.report.fire("packet-duplication");
            return SegmentFate::DeliveredTwice;
        }
        SegmentFate::Delivered
    }

    fn chip_rate_bps(&self) -> u64 {
        self.chip_rate_bps
    }

    fn set_chip_rate_bps(&mut self, bps: u64) {
        self.chip_rate_bps = bps.max(1);
    }

    fn take_degradation(&mut self) -> DegradationReport {
        std::mem::take(&mut self.report)
    }
}

/// Packets-per-bit target of a [`PhyLink`]'s uplink decoder.
const PHY_PKTS_PER_BIT: u32 = 5;

/// Full-PHY link: every control frame runs the downlink envelope
/// simulation and every segment runs the uplink capture/decode chain,
/// with every mitigation armed. Orders of magnitude slower than
/// [`SimLink`]; used by the end-to-end tests and the gateway example to
/// validate that the transport's abstractions hold over the real stack.
#[derive(Debug, Clone)]
pub struct PhyLink {
    /// Reader↔tag distance (m).
    distance_m: f64,
    /// Injected faults, forwarded to both PHY directions.
    faults: FaultPlan,
    /// PHY mode both directions run.
    phy: PhyConfig,
    chip_rate_bps: u64,
    seed: u64,
    attempt: u64,
    now_us: u64,
    report: DegradationReport,
}

impl PhyLink {
    /// A PHY link at `distance_m` with the given fault plan; `seed`
    /// isolates this link's channel noise from every other stream.
    pub fn new(distance_m: f64, faults: FaultPlan, seed: u64) -> Self {
        PhyLink {
            distance_m,
            faults,
            phy: PhyConfig::Presence,
            chip_rate_bps: 100,
            seed,
            attempt: 0,
            now_us: 0,
            report: DegradationReport::default(),
        }
    }

    /// Sets the PHY mode (default: [`PhyConfig::Presence`]). With a
    /// codeword PHY the uplink decodes tag bits from helper-frame
    /// demodulation residue instead of CSI presence captures; the
    /// downlink envelope channel is shared.
    pub fn with_phy(mut self, phy: PhyConfig) -> Self {
        self.phy = phy;
        self
    }

    fn next_seed(&mut self) -> u64 {
        self.attempt += 1;
        SimRng::run_seed(self.seed, self.attempt)
    }
}

impl SegmentLink for PhyLink {
    fn now_us(&self) -> u64 {
        self.now_us
    }

    fn advance_us(&mut self, us: u64) {
        self.now_us += us;
    }

    fn send_control(&mut self, frame: &DownlinkFrame, _rec: &mut dyn Recorder) -> bool {
        let cfg = DownlinkConfig::fig17(self.distance_m, DOWNLINK_BPS, self.next_seed())
            .with_faults(self.faults.clone());
        self.now_us += control_air_us(frame.payload.len()) + TURNAROUND_US;
        let (got, report) = run_downlink_frame_with(&cfg, frame, &mut bs_dsp::obs::NullRecorder);
        self.report.merge(&report);
        got.as_ref() == Some(frame)
    }

    fn send_segment(&mut self, seg: &Segment, _rec: &mut dyn Recorder) -> SegmentFate {
        let bits = seg.to_bits();
        let air = segment_air_us(bits.len(), self.chip_rate_bps);
        let mut cfg = LinkConfig::fig10(
            self.distance_m,
            self.chip_rate_bps,
            PHY_PKTS_PER_BIT,
            self.next_seed(),
        )
        .with_payload(bits)
        .with_faults(self.faults.clone())
        .with_phy(self.phy);
        cfg.mitigations = true;
        self.now_us += air + TURNAROUND_US;
        let run = run_uplink_with(&cfg, &mut bs_dsp::obs::NullRecorder);
        self.report.merge(&run.degradation);
        if run.detected && run.ber.errors() == 0 {
            SegmentFate::Delivered
        } else {
            SegmentFate::Lost
        }
    }

    fn chip_rate_bps(&self) -> u64 {
        self.chip_rate_bps
    }

    fn set_chip_rate_bps(&mut self, bps: u64) {
        self.chip_rate_bps = bps.max(1);
    }

    fn take_degradation(&mut self) -> DegradationReport {
        std::mem::take(&mut self.report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bs_dsp::obs::NullRecorder;

    fn frame() -> DownlinkFrame {
        DownlinkFrame::new(vec![0x03, 1, 2, 3])
    }

    /// A segment carrying `payload_len` bytes: `Segment::on_air_len`
    /// bits on the air (56 for an empty payload, 64 for one byte).
    fn seg(payload_len: usize) -> Segment<'static> {
        Segment {
            msg_id: 1,
            seq: 0,
            total: 1,
            payload: (0..payload_len).map(|i| (i * 37 + 5) as u8).collect(),
        }
    }

    #[test]
    fn clean_simlink_never_loses() {
        let mut link = SimLink::new(FaultPlan::none(), 42);
        let mut rec = NullRecorder;
        for _ in 0..100 {
            assert!(link.send_control(&frame(), &mut rec));
            assert_eq!(link.send_segment(&seg(1), &mut rec), SegmentFate::Delivered);
        }
        assert!(link.take_degradation().is_clean());
    }

    #[test]
    fn simlink_is_deterministic() {
        let plan = FaultPlan::preset("loss", 0.8, 77).unwrap();
        let run = |seed| {
            let mut link = SimLink::new(plan.clone(), seed);
            let mut rec = NullRecorder;
            (0..200)
                .map(|_| link.send_segment(&seg(0), &mut rec))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "different seeds should diverge");
    }

    #[test]
    fn loss_probability_scales_with_severity() {
        let count = |sev: f64| {
            let plan = FaultPlan::preset("loss", sev, 11).unwrap();
            let mut link = SimLink::new(plan, 3);
            let mut rec = NullRecorder;
            (0..2000)
                .filter(|_| link.send_segment(&seg(0), &mut rec) == SegmentFate::Lost)
                .count()
        };
        let (lo, hi) = (count(0.2), count(1.0));
        assert!(lo < hi, "severity 0.2 lost {lo}, 1.0 lost {hi}");
        assert_eq!(count(0.0), 0);
    }

    #[test]
    fn collapse_composes_into_segment_loss() {
        let plan = FaultPlan::new(1).with(Fault::RateCollapse { keep: 0.25 });
        let link = SimLink::new(plan.clone().with_severity(1.0), 0);
        assert!(link.rates.segment_loss > 0.5);
        let mild = SimLink::new(plan.with_severity(0.1), 0);
        assert!(mild.rates.segment_loss < link.rates.segment_loss);
    }

    #[test]
    fn outage_window_kills_control_frames() {
        let plan = FaultPlan::preset("outage", 1.0, 5).unwrap();
        let mut link = SimLink::new(plan.clone(), 9);
        let mut rec = NullRecorder;
        // Walk the clock across several outage periods; some sends must
        // fall inside the silent window.
        let mut lost = 0;
        for _ in 0..50 {
            if !link.send_control(&frame(), &mut rec) {
                lost += 1;
            }
            link.advance_us(40_000);
        }
        assert!(lost > 0, "no control frame hit the outage window");
        assert!(link.take_degradation().fired("helper-outage"));
    }

    #[test]
    fn helper_trace_window_count_wraps_cyclically() {
        // Horizon 1000 µs, packets at 100/300/900.
        let link = SimLink::from_arrivals(vec![100, 300, 900], 1_000, &FaultPlan::none(), 0);
        let trace = link.helper.as_ref().expect("traced link");
        assert_eq!(trace.packets_within(0, 1_000), 3);
        assert_eq!(trace.packets_within(0, 200), 1);
        assert_eq!(trace.packets_within(100, 200), 1); // [100, 300) half-open: excludes 300
        assert_eq!(trace.packets_within(100, 201), 2); // [100, 301) includes both
        assert_eq!(trace.packets_within(850, 300), 2); // wraps: 900 then 100
        assert_eq!(trace.packets_within(0, 3_000), 9); // three full cycles
        assert_eq!(trace.packets_within(850, 1_300), 5); // cycle + wrap remainder
        assert_eq!(trace.packets_within(400, 100), 0);
    }

    #[test]
    fn dense_traffic_delivers_and_silence_starves() {
        let mut rec = NullRecorder;
        // One helper packet every 100 µs: a 64-bit segment at 500 bps is
        // 128 ms on the air and sees ~1280 packets — far above the
        // 64 × 0.35 = 23 it needs.
        let dense: Vec<u64> = (0..10_000).map(|i| i * 100).collect();
        let mut link = SimLink::from_arrivals(dense, 1_000_000, &FaultPlan::none(), 1);
        for _ in 0..50 {
            assert_eq!(link.send_segment(&seg(1), &mut rec), SegmentFate::Delivered);
        }
        assert!(link.take_degradation().is_clean());

        // An empty trace starves everything, and says why.
        let mut silent = SimLink::from_arrivals(vec![], 1_000_000, &FaultPlan::none(), 1);
        assert_eq!(silent.send_segment(&seg(1), &mut rec), SegmentFate::Lost);
        assert!(silent.take_degradation().fired("helper-idle"));
    }

    #[test]
    fn wild_traffic_starves_some_segments() {
        let mut rec = NullRecorder;
        let mut link =
            SimLink::from_traffic(&WildTraffic::wild(), 600_000_000, FaultPlan::none(), 7)
                .expect("valid traffic");
        let fates: Vec<SegmentFate> = (0..200)
            .map(|_| link.send_segment(&seg(1), &mut rec))
            .collect();
        let lost = fates.iter().filter(|f| **f == SegmentFate::Lost).count();
        assert!(lost > 0, "heavy-tailed helper never starved a segment");
        assert!(
            lost < fates.len(),
            "helper starved everything — trace or threshold is wrong"
        );
        assert!(link.take_degradation().fired("helper-idle"));
    }

    #[test]
    fn traced_simlink_is_deterministic_and_composes_faults() {
        let plan = FaultPlan::preset("loss", 0.6, 21).unwrap();
        let run = |seed| {
            let mut link = SimLink::from_traffic(&WildTraffic::default(), 60_000_000, &plan, seed)
                .expect("valid traffic");
            let mut rec = NullRecorder;
            (0..100)
                .map(|_| link.send_segment(&seg(0), &mut rec))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4), "different seeds should diverge");
        // With a loss plan armed, Bernoulli losses fire on top of
        // starvation.
        let mut link = SimLink::from_traffic(&WildTraffic::default(), 60_000_000, plan, 3)
            .expect("valid traffic");
        let mut rec = NullRecorder;
        for _ in 0..200 {
            link.send_segment(&seg(0), &mut rec);
        }
        assert!(link.take_degradation().fired("packet-loss"));
    }

    #[test]
    fn bad_traffic_is_a_typed_error_not_a_panic_or_a_hang() {
        let invalid = |traffic: WildTraffic, horizon_us| match SimLink::from_traffic(
            &traffic,
            horizon_us,
            FaultPlan::none(),
            1,
        ) {
            Err(SimLinkError::InvalidConfig { field }) => field,
            Ok(_) => panic!("accepted {traffic:?} over {horizon_us} µs"),
        };
        let ok = WildTraffic::default();
        assert_eq!(invalid(ok, 0), "horizon_us");
        for alpha in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let t = WildTraffic {
                gap_alpha: alpha,
                ..ok
            };
            assert_eq!(invalid(t, 1_000_000), "gap_alpha");
        }
        for xmin in [0.0, -5.0, f64::NAN] {
            let t = WildTraffic {
                gap_xmin_us: xmin,
                ..ok
            };
            assert_eq!(invalid(t, 1_000_000), "gap_xmin_us");
        }
        for active in [f64::NAN, -1.0, f64::INFINITY] {
            let t = WildTraffic {
                mean_active_us: active,
                ..ok
            };
            assert_eq!(invalid(t, 1_000_000), "mean_active_us");
        }
    }

    #[test]
    fn unbounded_traffic_rates_are_refused_at_once() {
        let invalid = |traffic: WildTraffic| match SimLink::from_traffic(
            &traffic,
            1_000_000,
            FaultPlan::none(),
            1,
        ) {
            Err(SimLinkError::InvalidConfig { field }) => field,
            Ok(_) => panic!("accepted {traffic:?}"),
        };
        let ok = WildTraffic::default();
        for pps in [f64::INFINITY, f64::NAN, 0.0, -1.0] {
            let t = WildTraffic {
                per_station_pps: pps,
                ..ok
            };
            assert_eq!(invalid(t), "per_station_pps", "per_station_pps {pps}");
            let t = WildTraffic {
                capacity_pps: pps,
                ..ok
            };
            assert_eq!(invalid(t), "capacity_pps", "capacity_pps {pps}");
        }
        // Both rates infinite: this used to push arrivals at t = 0 until
        // memory ran out.
        let flood = WildTraffic {
            per_station_pps: f64::INFINITY,
            capacity_pps: f64::INFINITY,
            ..ok
        };
        assert_eq!(invalid(flood), "per_station_pps");
        // Finite, but faster than the microsecond clock can tell apart.
        let cap = bs_wifi::traffic::MAX_ARRIVAL_RATE_PPS;
        let hot = WildTraffic {
            stations: 10,
            per_station_pps: cap,
            capacity_pps: 2.0 * cap,
            ..ok
        };
        assert_eq!(invalid(hot), "capacity_pps");
        let at_cap = WildTraffic {
            capacity_pps: cap,
            ..hot
        };
        assert_eq!(at_cap.invalid_field(), None);
    }

    #[test]
    fn phylink_codeword_mode_delivers_segments() {
        // The full-PHY link routed through the codeword PHY still
        // satisfies the transport contract: close-range segments and
        // control frames are delivered, and the run is deterministic in
        // the seed.
        let mut rec = NullRecorder;
        let mut link = PhyLink::new(0.3, FaultPlan::none(), 33).with_phy(PhyConfig::Codeword);
        for _ in 0..3 {
            assert_eq!(link.send_segment(&seg(0), &mut rec), SegmentFate::Delivered);
        }
        assert!(link.send_control(&frame(), &mut rec));
        assert!(link.take_degradation().is_clean());
    }

    #[test]
    fn every_link_charges_the_same_airtime() {
        let f = frame();
        assert_eq!(
            control_air_us(f.payload.len()),
            f.to_bits().len() as u64 * 50
        );
        assert_eq!(segment_air_us(100, 500), 200_000);
        assert_eq!(segment_air_us(100, 1_000), 100_000);

        // The clock each link advances per exchange, less the fixed
        // control cost its constructor set.
        let dense: Vec<u64> = (0..10_000).map(|i| i * 100).collect();
        let links: [(Box<dyn SegmentLink>, u64); 3] = [
            (
                Box::new(SimLink::new(FaultPlan::none(), 0)),
                CTRL_OVERHEAD_US,
            ),
            (
                Box::new(SimLink::from_arrivals(
                    dense,
                    1_000_000,
                    &FaultPlan::none(),
                    0,
                )),
                RECHARGE_US,
            ),
            (Box::new(PhyLink::new(0.3, FaultPlan::none(), 0)), 0),
        ];
        let mut rec = NullRecorder;
        for (mut link, ctrl_overhead_us) in links {
            let t0 = link.now_us();
            link.send_control(&f, &mut rec);
            let t1 = link.now_us();
            assert_eq!(
                t1 - t0 - ctrl_overhead_us,
                control_air_us(f.payload.len()) + TURNAROUND_US
            );
            link.set_chip_rate_bps(1_000);
            link.send_segment(&seg(1), &mut rec);
            assert_eq!(
                link.now_us() - t1,
                segment_air_us(Segment::on_air_len(1), 1_000) + TURNAROUND_US
            );
        }
    }
}
