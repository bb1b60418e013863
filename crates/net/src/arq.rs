//! The sliding-window ARQ transport.
//!
//! One transfer moves an arbitrary byte message across the lossy
//! backscatter link in *rounds*. Each round the reader (which drives
//! everything — the tag is passive between polls):
//!
//! 1. transmits a poll — a [`Query`] whose `payload_bits` grants the tag
//!    an uplink burst of up to `window` unacknowledged segments;
//! 2. the tag backscatters those segments, oldest-unacked first;
//! 3. the reader feeds whatever decoded into its [`Reassembler`] and
//!    answers with a [`WindowAck`] carrying the cumulative sequence
//!    number plus a 32-bit selective-ACK bitmap.
//!
//! A lost poll wastes the round; a lost ACK makes the tag retransmit
//! segments the reader already holds (counted as duplicates). Rounds
//! that make no progress back off exponentially through the existing
//! [`RetryPolicy`], with a seeded ±jitter so paired runs stay
//! deterministic, and the policy's budget bounds the whole transfer.
//!
//! Stop-and-wait is the `window = 1` special case: every segment then
//! pays the full poll + ACK control overhead, which is exactly the gap
//! the `net` bench figure measures against `window ≥ 4`.

use crate::fec::{FecConfig, GroupCoder};
use crate::linkmodel::{SegmentFate, SegmentLink};
use crate::seg::{segment_message, Accept, Reassembler, Segment};
use bs_dsp::obs::{NullRecorder, Recorder};
use bs_dsp::SimRng;
use bs_tag::frame::DownlinkFrame;
use wifi_backscatter::link::DegradationReport;
use wifi_backscatter::protocol::{Query, RetryPolicy, WindowAck, SUPPORTED_RATES_BPS};

/// Transport knobs for one transfer.
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// Address of the tag holding the message.
    pub tag_address: u8,
    /// Message identifier carried by every segment and ACK.
    pub msg_id: u8,
    /// Segments in flight per round; 1 = stop-and-wait.
    pub window: usize,
    /// Payload bytes per segment (1..=255).
    pub seg_payload_bytes: usize,
    /// Backoff and budget for no-progress rounds.
    pub retry: RetryPolicy,
    /// Hard cap on rounds, a backstop under pathological loss.
    pub max_rounds: u32,
    /// ± fractional jitter on each backoff, drawn from the seeded
    /// timeout stream (0 = none).
    pub timeout_jitter: f64,
    /// Seed for the transport's own randomness (timeout jitter); kept
    /// separate from link and fault seeds.
    pub seed: u64,
    /// Forward error correction across segment groups; disabled by
    /// default (plain ARQ, bit for bit the pre-FEC transport).
    pub fec: FecConfig,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            tag_address: 1,
            msg_id: 0,
            window: 8,
            seg_payload_bytes: 16,
            retry: RetryPolicy::default(),
            max_rounds: 4_096,
            timeout_jitter: 0.25,
            seed: 1,
            fec: FecConfig::none(),
        }
    }
}

impl TransportConfig {
    /// Sets the window (builder style).
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }

    /// Sets the per-segment payload size (builder style).
    pub fn with_seg_payload_bytes(mut self, bytes: usize) -> Self {
        self.seg_payload_bytes = bytes.clamp(1, 255);
        self
    }

    /// Sets the retry policy (builder style).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the transport seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Arms forward error correction (builder style). A disabled config
    /// ([`FecConfig::none`]) keeps the transport bit-identical to plain
    /// ARQ. With FEC enabled the segment payload is capped at 254 bytes
    /// (parity columns carry one extra length byte).
    ///
    /// FEC operates on segments, above the PHY: it composes with either
    /// [`wifi_backscatter::phy::PhyConfig`] mode — presence captures and
    /// codeword-translation residue decoding alike — because the
    /// transport only sees segment fates, never how the bits crossed
    /// the air (see [`crate::linkmodel::PhyLink::with_phy`] and
    /// [`crate::gateway::GatewayConfig::with_phy`]).
    pub fn with_fec(mut self, fec: FecConfig) -> Self {
        self.fec = fec;
        if fec.is_enabled() {
            self.seg_payload_bytes = self.seg_payload_bytes.min(254);
        }
        self
    }

    /// Wire segments a `message_len`-byte message takes under this
    /// config, FEC parity included — what [`TransportSession::new`]
    /// would number, counted without segmenting anything.
    pub(crate) fn wire_segments(&self, message_len: usize) -> usize {
        if !self.fec.is_enabled() {
            return message_len.div_ceil(self.seg_payload_bytes).max(1);
        }
        let data = message_len.div_ceil(self.seg_payload_bytes.min(254)).max(1);
        GroupCoder::wire_total_of(data, self.fec)
    }
}

/// What one ARQ round accomplished — the unit the gateway scheduler
/// charges against a tag's deficit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundOutcome {
    /// Payload bytes put on the air this round (sent, not acked).
    pub sent_bytes: u64,
    /// Payload bytes newly acknowledged by this round's ACK.
    pub acked_bytes: u64,
    /// Segments retransmitted this round.
    pub retransmissions: u64,
    /// Simulated airtime this round consumed, backoff included (µs).
    pub airtime_us: u64,
    /// True when the receiver now holds the whole message.
    pub complete: bool,
}

/// The completed-transfer report: what arrived, what it cost, what
/// degraded.
#[derive(Debug, Clone, PartialEq)]
pub struct Transfer {
    /// The reassembled message; `None` if the transfer gave up.
    pub delivered: Option<Vec<u8>>,
    /// Bytes the sender offered.
    pub message_bytes: u64,
    /// Unique payload bytes that reached the receiver.
    pub delivered_bytes: u64,
    /// Segments the message was split into.
    pub segments_total: u16,
    /// True when `delivered` holds the complete message.
    pub complete: bool,
    /// Rounds the transfer ran.
    pub rounds: u32,
    /// Polls transmitted (= rounds; kept separate for clarity).
    pub polls_sent: u64,
    /// Segment transmissions, first attempts included.
    pub segments_sent: u64,
    /// Segment transmissions beyond each segment's first.
    pub retransmissions: u64,
    /// ACKs that repeated the previous round's state verbatim.
    pub duplicate_acks: u64,
    /// Duplicate segment arrivals the receiver dropped.
    pub duplicate_segments: u64,
    /// Rounds that ended head-of-line blocked.
    pub hol_stalls: u64,
    /// Segments reconstructed by the FEC layer instead of a
    /// retransmission round trip (0 with FEC disabled).
    pub fec_repairs: u64,
    /// Group-repair attempts that found more holes than parity could
    /// cover (the group waited for ARQ instead).
    pub fec_decode_fails: u64,
    /// Total simulated time, airtime + backoff (µs).
    pub airtime_us: u64,
    /// Faults fired and mitigations engaged, link-reported.
    pub degradation: DegradationReport,
}

impl Transfer {
    /// Delivered-message bits per second of simulated time; 0 until
    /// anything both arrived and time passed.
    pub fn goodput_bps(&self) -> f64 {
        if self.airtime_us == 0 || !self.complete {
            return 0.0;
        }
        self.message_bytes as f64 * 8.0 / (self.airtime_us as f64 / 1e6)
    }
}

/// The closest wire-encodable rate to an arbitrary chip rate — the
/// transport's safe path around [`Query::to_frame`]'s
/// `UnsupportedRate` error when rate adaptation lands between the four
/// §7.2 operating points.
pub fn nearest_supported_rate(bps: u64) -> u64 {
    *SUPPORTED_RATES_BPS
        .iter()
        .min_by_key(|&&r| r.abs_diff(bps))
        .expect("rate table is non-empty")
}

/// [`TransportSession`] per-segment flag: transmitted at least once.
const SENT: u8 = 1;
/// [`TransportSession`] per-segment flag: the sender has seen it acked.
const ACKED: u8 = 2;

/// Sender + receiver state of one in-progress transfer. The gateway
/// steps many of these against one shared clock; [`run_transfer`] is the
/// single-tag convenience loop.
///
/// Everything a round touches is owned by the session and refilled in
/// place — the burst window, the FEC groups it touched, and the poll and
/// ACK frames — so a round allocates nothing.
#[derive(Debug, Clone)]
pub struct TransportSession {
    cfg: TransportConfig,
    message_bytes: u64,
    segments: Vec<Segment>,
    /// [`SENT`] and [`ACKED`] bits per segment.
    flags: Vec<u8>,
    /// This round's burst: segment indices in transmission order.
    window: Vec<usize>,
    touched_groups: Vec<usize>,
    poll_frame: DownlinkFrame,
    ack_frame: DownlinkFrame,
    rx: Reassembler,
    coder: Option<GroupCoder>,
    rng: SimRng,
    failed_rounds: u32,
    started_us: Option<u64>,
    waited_us: u64,
    rounds: u32,
    polls_sent: u64,
    segments_sent: u64,
    retransmissions: u64,
    duplicate_acks: u64,
    hol_stalls: u64,
    fec_repairs: u64,
    fec_decode_fails: u64,
    last_ack: Option<(u16, u32)>,
}

impl TransportSession {
    /// Prepares a transfer of `message` under `cfg`.
    pub fn new(message: &[u8], cfg: TransportConfig) -> Self {
        let (segments, coder) = if cfg.fec.is_enabled() {
            let coder =
                GroupCoder::for_message(message.len(), cfg.seg_payload_bytes.min(254), cfg.fec);
            (coder.encode_message(cfg.msg_id, message), Some(coder))
        } else {
            (
                segment_message(cfg.msg_id, message, cfg.seg_payload_bytes),
                None,
            )
        };
        let total = segments.len() as u16;
        let rng = SimRng::new(cfg.seed).stream("net-timeout");
        TransportSession {
            rx: Reassembler::new(cfg.msg_id, total),
            flags: vec![0; segments.len()],
            window: Vec::with_capacity(cfg.window.max(1).min(segments.len())),
            touched_groups: Vec::new(),
            poll_frame: DownlinkFrame::new(Vec::new()),
            ack_frame: DownlinkFrame::new(Vec::new()),
            message_bytes: message.len() as u64,
            segments,
            coder,
            rng,
            cfg,
            failed_rounds: 0,
            started_us: None,
            waited_us: 0,
            rounds: 0,
            polls_sent: 0,
            segments_sent: 0,
            retransmissions: 0,
            duplicate_acks: 0,
            hol_stalls: 0,
            fec_repairs: 0,
            fec_decode_fails: 0,
            last_ack: None,
        }
    }

    /// True once the receiver holds every segment.
    pub fn complete(&self) -> bool {
        self.rx.complete()
    }

    /// Rounds run so far.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// True while the transfer may run another round: incomplete, under
    /// the round cap, within the retry budget.
    pub fn can_continue(&self) -> bool {
        !self.complete()
            && self.rounds < self.cfg.max_rounds
            && self.cfg.retry.within_budget(self.waited_us)
    }

    /// Payload bytes the next round would put on the air — what the
    /// gateway charges against a tag's deficit before serving it.
    pub fn next_round_bytes(&self) -> u64 {
        self.unacked()
            .map(|i| self.segments[i].payload.len() as u64)
            .sum::<u64>()
            .max(1)
    }

    /// The next burst's segments in sequence order: the first `window`
    /// the sender has not seen acked.
    fn unacked(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.segments.len())
            .filter(|&i| self.flags[i] & ACKED == 0)
            .take(self.cfg.window.max(1))
    }

    /// Refills [`Self::window`] with the next burst in transmission order.
    fn fill_window(&mut self) {
        let mut window = std::mem::take(&mut self.window);
        window.clear();
        window.extend(self.unacked());
        // With FEC on, interleave the burst across code groups: helper
        // silence kills *consecutive transmissions*, and a window sent
        // in sequence order concentrates those holes in one group —
        // past its parity. Striping the order (position within group
        // first, group second) spreads a length-L outage over ~L/G
        // groups, each within erasure reach. The key (pos, group, seq) is
        // unique per segment, so the order is deterministic and ARQ-alone
        // is untouched.
        if let Some(coder) = &self.coder {
            let span = coder.group_size().max(1);
            window.sort_unstable_by_key(|&i| (i % span, i / span, i));
        }
        self.window = window;
    }

    /// Runs one ARQ round over `link`, recording spans and counters on
    /// `rec`.
    pub fn step_round(
        &mut self,
        link: &mut dyn SegmentLink,
        rec: &mut dyn Recorder,
    ) -> RoundOutcome {
        if self.started_us.is_none() {
            self.started_us = Some(link.now_us());
            // The segmentation span: zero simulated duration (it is
            // reader-side computation), items = segments produced.
            let t = link.now_us();
            rec.span("net.segment", t, t, self.segments.len() as u64);
        }
        let round_start = link.now_us();
        self.rounds += 1;

        // Seeded-deterministic timeout: exponential backoff with ±jitter
        // before every no-progress retry round.
        if self.failed_rounds > 0 {
            let base = self.cfg.retry.backoff_us(self.failed_rounds) as f64;
            let jitter = 1.0 + self.cfg.timeout_jitter * (2.0 * self.rng.uniform() - 1.0);
            let wait = (base * jitter.max(0.0)) as u64;
            link.advance_us(wait);
        }

        // Poll: grant the tag a burst of up to `window` unacked segments.
        self.fill_window();
        let burst_bits: u64 = self
            .window
            .iter()
            .map(|&i| Segment::on_air_len(self.segments[i].payload.len()) as u64)
            .sum();
        let rate = nearest_supported_rate(link.chip_rate_bps());
        let poll = Query {
            tag_address: self.cfg.tag_address,
            payload_bits: burst_bits.min(u16::MAX as u64) as u16,
            bit_rate_bps: rate,
            code_length: 1,
        };
        poll.write_frame(&mut self.poll_frame)
            .expect("nearest_supported_rate returns encodable rates");
        self.polls_sent += 1;
        rec.add("net.polls", 1);
        let poll_heard = link.send_control(&self.poll_frame, rec);

        let mut sent_bytes = 0u64;
        let mut retx_this_round = 0u64;
        self.touched_groups.clear();
        if poll_heard {
            // The tag's burst, oldest unacked first.
            let burst_start = link.now_us();
            for &i in &self.window {
                self.segments_sent += 1;
                rec.add("net.segments-sent", 1);
                if self.flags[i] & SENT != 0 {
                    self.retransmissions += 1;
                    retx_this_round += 1;
                    rec.add("net.retransmissions", 1);
                } else {
                    self.flags[i] |= SENT;
                }
                sent_bytes += self.segments[i].payload.len() as u64;
                let fate = link.send_segment(&self.segments[i], rec);
                if fate != SegmentFate::Lost {
                    if self.rx.accept(&self.segments[i]) == Accept::New {
                        if let Some(coder) = &self.coder {
                            self.touched_groups
                                .push(coder.group_of(self.segments[i].seq));
                        }
                    }
                    if fate == SegmentFate::DeliveredTwice {
                        self.rx.accept(&self.segments[i]);
                    }
                }
            }
            if retx_this_round > 0 {
                rec.span("net.retx", burst_start, link.now_us(), retx_this_round);
            }
        }

        // FEC repair before the ACK is built: any group that can decode
        // fills its holes (data *and* parity) from parity, the ACK then
        // covers the reconstruction, and ARQ never retransmits those
        // segments. A touched group that still has more holes than
        // parity is a decode failure — it waits for another round.
        if let Some(coder) = &self.coder {
            self.touched_groups.sort_unstable();
            self.touched_groups.dedup();
            for g in 0..coder.groups() {
                let (first, d, p) = coder.group_span(g);
                let missing = (first..first + (d + p) as u16)
                    .filter(|&s| !self.rx.has(s))
                    .count();
                if missing == 0 {
                    continue;
                }
                if missing <= p {
                    let out = coder.repair_group(g, &mut self.rx);
                    if out.repaired > 0 {
                        self.fec_repairs += out.repaired;
                        rec.add("net.fec.repair", out.repaired);
                    }
                    if out.failed {
                        self.fec_decode_fails += 1;
                        rec.add("net.fec.decode_fail", 1);
                    }
                } else if self.touched_groups.binary_search(&g).is_ok() {
                    // New segments arrived but the group is still short:
                    // an attempted-and-failed repair.
                    self.fec_decode_fails += 1;
                    rec.add("net.fec.decode_fail", 1);
                }
            }
        }

        // The reader's acknowledgement. A repeat of the previous state is
        // a duplicate ACK (the tag learns nothing new from it).
        let ack = WindowAck {
            tag_address: self.cfg.tag_address,
            msg_id: self.cfg.msg_id,
            cumulative: self.rx.cumulative(),
            sack: self.rx.sack(),
        };
        if self.last_ack == Some((ack.cumulative, ack.sack)) {
            self.duplicate_acks += 1;
            rec.add("net.duplicate-acks", 1);
        }
        self.last_ack = Some((ack.cumulative, ack.sack));
        ack.write_frame(&mut self.ack_frame);
        let ack_heard = link.send_control(&self.ack_frame, rec);

        // The sender only learns what the ACK told it — a lost ACK means
        // next round retransmits segments the receiver already holds.
        let mut acked_bytes = 0u64;
        if ack_heard {
            for (flags, seg) in self.flags.iter_mut().zip(&self.segments) {
                if *flags & ACKED == 0 && ack.acks(seg.seq) {
                    *flags |= ACKED;
                    acked_bytes += seg.payload.len() as u64;
                }
            }
        }

        if self.rx.head_of_line_blocked() {
            self.hol_stalls += 1;
            rec.add("net.hol-stalls", 1);
        }
        if acked_bytes > 0 || self.complete() {
            self.failed_rounds = 0;
        } else {
            self.failed_rounds += 1;
        }
        self.waited_us += link.now_us() - round_start;
        rec.span(
            "net.window",
            round_start,
            link.now_us(),
            self.window.len() as u64,
        );

        RoundOutcome {
            sent_bytes,
            acked_bytes,
            retransmissions: retx_this_round,
            airtime_us: link.now_us() - round_start,
            complete: self.complete(),
        }
    }

    /// Closes the session into its [`Transfer`] report, draining the
    /// link's degradation accounting.
    pub fn finish(self, link: &mut dyn SegmentLink) -> Transfer {
        // With FEC the deliverable is the data slots alone (parity is
        // overhead, not payload); without it, the whole reassembly.
        let (delivered, delivered_bytes) = match &self.coder {
            Some(coder) => (coder.assemble_data(&self.rx), coder.data_bytes(&self.rx)),
            None => (self.rx.assemble(), self.rx.received_bytes()),
        };
        let complete = delivered.is_some();
        let started = self.started_us.unwrap_or_else(|| link.now_us());
        // `packets_duplicated` is the link's own count of on-air MAC
        // duplication. The receiver's `rx.duplicates` additionally
        // counts every retransmit that arrived after a SACK hole was
        // already filled — summing the two double-counted each on-air
        // duplicate and misread ordinary ARQ retransmissions as link
        // faults. The receiver-side dedup count is reported separately
        // as `duplicate_segments`.
        let degradation = link.take_degradation();
        Transfer {
            message_bytes: self.message_bytes,
            delivered_bytes,
            segments_total: self.segments.len() as u16,
            complete,
            delivered,
            rounds: self.rounds,
            polls_sent: self.polls_sent,
            segments_sent: self.segments_sent,
            retransmissions: self.retransmissions,
            duplicate_acks: self.duplicate_acks,
            duplicate_segments: self.rx.duplicates,
            hol_stalls: self.hol_stalls,
            fec_repairs: self.fec_repairs,
            fec_decode_fails: self.fec_decode_fails,
            airtime_us: link.now_us() - started,
            degradation,
        }
    }
}

/// Transfers `message` over `link`, running rounds until completion, the
/// round cap, or the retry budget, with observability threaded through
/// `rec`. The transfer is bit-identical whatever the recorder.
pub fn run_transfer_with(
    message: &[u8],
    cfg: TransportConfig,
    link: &mut dyn SegmentLink,
    rec: &mut dyn Recorder,
) -> Transfer {
    let mut session = TransportSession::new(message, cfg);
    while session.can_continue() {
        session.step_round(link, rec);
    }
    session.finish(link)
}

/// Transfers `message` over `link` with no observability overhead.
pub fn run_transfer(message: &[u8], cfg: TransportConfig, link: &mut dyn SegmentLink) -> Transfer {
    run_transfer_with(message, cfg, link, &mut NullRecorder)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linkmodel::SimLink;
    use bs_channel::faults::FaultPlan;
    use bs_dsp::obs::MemRecorder;

    fn msg(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 131 + 17) as u8).collect()
    }

    #[test]
    fn clean_link_single_round_per_window() {
        let mut link = SimLink::new(FaultPlan::none(), 1);
        let t = run_transfer(
            &msg(64),
            TransportConfig::default().with_window(8),
            &mut link,
        );
        assert!(t.complete);
        assert_eq!(t.delivered.as_deref(), Some(&msg(64)[..]));
        assert_eq!(t.retransmissions, 0);
        assert_eq!(t.duplicate_segments, 0);
        assert_eq!(t.rounds, 1, "4 segments fit one window-8 round");
        assert_eq!(t.delivered_bytes, t.message_bytes);
        assert!(t.degradation.is_clean());
    }

    #[test]
    fn lossy_link_still_delivers_exactly() {
        let plan = FaultPlan::preset("loss", 1.0, 21).unwrap();
        let mut link = SimLink::new(plan, 4);
        let message = msg(256);
        let t = run_transfer(&message, TransportConfig::default(), &mut link);
        assert!(t.complete, "30% loss must not defeat ARQ");
        assert_eq!(t.delivered, Some(message));
        assert!(t.retransmissions > 0, "loss must force retransmissions");
    }

    #[test]
    fn duplication_never_leaks_into_the_message() {
        let plan = FaultPlan::preset("dup", 1.0, 8).unwrap();
        let mut link = SimLink::new(plan, 2);
        let message = msg(200);
        let t = run_transfer(&message, TransportConfig::default(), &mut link);
        assert!(t.complete);
        assert_eq!(t.delivered, Some(message));
        assert!(t.duplicate_segments > 0, "the dup preset should duplicate");
    }

    #[test]
    fn stop_and_wait_needs_at_least_one_round_per_segment() {
        let mut link = SimLink::new(FaultPlan::none(), 1);
        let t = run_transfer(
            &msg(64),
            TransportConfig::default().with_window(1),
            &mut link,
        );
        assert!(t.complete);
        assert_eq!(t.rounds, 4, "one segment per stop-and-wait round");
    }

    #[test]
    fn transfer_is_deterministic() {
        let plan = FaultPlan::preset("loss", 0.9, 13).unwrap();
        let run = || {
            let mut link = SimLink::new(plan.clone(), 7);
            run_transfer(&msg(300), TransportConfig::default(), &mut link)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn budget_bounds_a_dead_link() {
        let plan = FaultPlan::new(3)
            .with(bs_channel::faults::Fault::PacketLoss { prob: 1.0 })
            .with_severity(1.0);
        let mut link = SimLink::new(plan, 1);
        let cfg = TransportConfig {
            retry: RetryPolicy::default().with_budget_us(2_000_000),
            ..TransportConfig::default()
        };
        let t = run_transfer(&msg(64), cfg, &mut link);
        assert!(!t.complete);
        assert!(t.delivered.is_none());
        assert!(
            t.delivered_bytes < t.message_bytes,
            "undelivered bytes must show"
        );
        assert!(
            t.rounds < 4_096,
            "budget should stop it well before the cap"
        );
    }

    #[test]
    fn observed_variant_records_spans_and_counters() {
        let plan = FaultPlan::preset("loss", 1.0, 5).unwrap();
        let mut link = SimLink::new(plan, 3);
        let mut rec = MemRecorder::new();
        let t = run_transfer_with(&msg(128), TransportConfig::default(), &mut link, &mut rec);
        let obs = rec.into_report();
        assert!(obs.spans_for("net.segment").count() == 1);
        assert!(obs.spans_for("net.window").count() >= 1);
        assert_eq!(obs.counter("net.polls"), t.polls_sent);
        assert_eq!(obs.counter("net.segments-sent"), t.segments_sent);
        assert_eq!(obs.counter("net.retransmissions"), t.retransmissions);
    }

    #[test]
    fn duplicate_accounting_counts_each_on_air_event_once() {
        // Regression for the retransmit/SACK-hole double count: the
        // transfer's degradation must report exactly the link's own
        // duplication events, not link events + receiver-side dedup
        // drops summed.
        let plan = FaultPlan::preset("dup", 1.0, 8).unwrap();
        let mut link = SimLink::new(plan, 2);
        let t = run_transfer(&msg(400), TransportConfig::default(), &mut link);
        assert!(t.complete);
        assert!(t.duplicate_segments > 0, "the dup preset should duplicate");
        assert_eq!(
            t.degradation.packets_duplicated, t.duplicate_segments,
            "dup-only plan: every receiver dedup drop is one on-air MAC \
             duplicate, so the counts must match exactly (the old code \
             reported 2x)"
        );
    }

    #[test]
    fn loss_only_plan_reports_zero_link_duplication() {
        // A lost ACK makes the tag retransmit a segment the reader
        // already holds — a receiver-side duplicate that is *not* link
        // duplication and must not appear in the degradation report.
        let plan = FaultPlan::preset("loss", 1.0, 21).unwrap();
        let mut link = SimLink::new(plan, 8);
        let t = run_transfer(&msg(256), TransportConfig::default(), &mut link);
        assert!(t.complete);
        assert!(
            t.duplicate_segments > 0,
            "lost ACKs should cause retransmit-duplicates at the receiver"
        );
        assert_eq!(
            t.degradation.packets_duplicated, 0,
            "loss-only plan: no MAC duplication occurred on the air"
        );
    }

    #[test]
    fn fec_disabled_is_bit_identical_to_plain_arq() {
        let plan = FaultPlan::preset("loss", 0.8, 31).unwrap();
        let run = |cfg: TransportConfig| {
            let mut link = SimLink::new(plan.clone(), 9);
            run_transfer(&msg(300), cfg, &mut link)
        };
        let plain = run(TransportConfig::default());
        let nofec = run(TransportConfig::default().with_fec(crate::fec::FecConfig::none()));
        assert_eq!(plain, nofec);
    }

    #[test]
    fn fec_transfer_delivers_exactly_and_repairs() {
        let plan = FaultPlan::preset("loss", 1.0, 5).unwrap();
        let message = msg(600);
        let cfg = TransportConfig::default().with_fec(crate::fec::FecConfig::fixed(4, 2));
        let mut link = SimLink::new(plan, 11);
        let t = run_transfer(&message, cfg, &mut link);
        assert!(t.complete);
        assert_eq!(t.delivered, Some(message.clone()));
        assert_eq!(t.delivered_bytes, message.len() as u64);
        assert!(t.fec_repairs > 0, "30% loss should exercise repair");
        assert!(
            t.segments_total > (600u16).div_ceil(16),
            "wire total must include parity segments"
        );
    }

    #[test]
    fn fec_transfer_is_deterministic() {
        let plan = FaultPlan::preset("loss", 0.9, 13).unwrap();
        let cfg = TransportConfig::default().with_fec(crate::fec::FecConfig::fixed(8, 2));
        let run = || {
            let mut link = SimLink::new(plan.clone(), 7);
            run_transfer(&msg(500), cfg.clone(), &mut link)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fec_counters_reach_the_recorder() {
        let plan = FaultPlan::preset("loss", 1.0, 17).unwrap();
        let cfg = TransportConfig::default().with_fec(crate::fec::FecConfig::fixed(4, 2));
        let mut link = SimLink::new(plan, 3);
        let mut rec = MemRecorder::new();
        let t = run_transfer_with(&msg(800), cfg, &mut link, &mut rec);
        let obs = rec.into_report();
        assert_eq!(obs.counter("net.fec.repair"), t.fec_repairs);
        assert_eq!(obs.counter("net.fec.decode_fail"), t.fec_decode_fails);
        assert!(t.fec_repairs > 0);
    }

    #[test]
    fn wire_segments_counts_what_the_session_numbers() {
        bs_dsp::testkit::check("arq-wire-segments", 200, |g| {
            let len = g.usize_in(0, 3_000);
            let mut cfg = TransportConfig::default().with_seg_payload_bytes(g.usize_in(1, 256));
            if g.bool() {
                cfg = cfg.with_fec(crate::fec::FecConfig::fixed(
                    g.usize_in(1, 65),
                    g.usize_in(1, 5),
                ));
            }
            let session = TransportSession::new(&vec![7u8; len], cfg.clone());
            assert_eq!(
                cfg.wire_segments(len),
                session.segments.len(),
                "{len} B, {cfg:?}"
            );
        });
    }

    #[test]
    fn session_frames_equal_the_standalone_encoders() {
        // Each round rewrites the session-owned poll and ACK frames in
        // place; after a round they must hold exactly what `to_frame`
        // encodes from the same fields.
        let plan = FaultPlan::preset("loss", 0.8, 3).unwrap();
        let mut link = SimLink::new(plan, 5);
        let mut s = TransportSession::new(&msg(300), TransportConfig::default());
        while s.can_continue() {
            s.step_round(&mut link, &mut NullRecorder);
            let poll = Query::from_frame(&s.poll_frame).expect("a poll frame");
            assert_eq!(poll.to_frame().unwrap(), s.poll_frame);
            let ack = WindowAck::from_frame(&s.ack_frame).expect("an ACK frame");
            assert_eq!(ack.to_frame(), s.ack_frame);
            assert_eq!((ack.cumulative, ack.sack), (s.rx.cumulative(), s.rx.sack()));
        }
        assert!(s.complete());
    }

    #[test]
    fn nearest_supported_rate_snaps_sensibly() {
        assert_eq!(nearest_supported_rate(100), 100);
        assert_eq!(nearest_supported_rate(120), 100);
        assert_eq!(nearest_supported_rate(160), 200);
        assert_eq!(nearest_supported_rate(2_000), 1000);
        assert_eq!(nearest_supported_rate(0), 100);
        // And the snapped rate always encodes.
        let q = Query {
            tag_address: 0,
            payload_bits: 1,
            bit_rate_bps: nearest_supported_rate(123),
            code_length: 1,
        };
        assert!(q.to_frame().is_ok());
    }
}
