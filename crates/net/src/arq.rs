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
use crate::seg::{payload_range, Accept, Reassembler, Segment};
use bs_dsp::obs::{NullRecorder, Recorder};
use bs_dsp::SimRng;
use bs_tag::frame::DownlinkFrame;
use std::borrow::Cow;
use std::fmt;
use std::ops::Range;
use wifi_backscatter::link::DegradationReport;
use wifi_backscatter::protocol::{Query, RetryPolicy, WindowAck, SUPPORTED_RATES_BPS};

/// ± fractional jitter on each retry backoff, drawn from the seeded
/// timeout stream.
const TIMEOUT_JITTER: f64 = 0.25;

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
    /// would number, counted without segmenting anything. The FEC group
    /// must be in its domain (see [`Self::check`]).
    pub(crate) fn wire_segments(&self, message_len: usize) -> usize {
        if !self.fec.is_enabled() {
            return message_len.div_ceil(self.seg_payload_bytes).max(1);
        }
        let data = message_len.div_ceil(self.seg_payload_bytes.min(254)).max(1);
        GroupCoder::wire_total_of(data, self.fec)
    }

    /// The one check of a transport config against a message length:
    /// a segment payload in the wire format's `1..=255` bytes, an FEC
    /// group (when parity is armed) in [`FecConfig::fixed`]'s `1..=64`
    /// data and `0..=64` parity segments, and at most `u16::MAX` wire
    /// segments, parity included. Returns the wire segment count.
    ///
    /// [`TransportSession::new`], [`run_transfer`], [`segment_message`]
    /// and the gateway all take this check.
    ///
    /// [`segment_message`]: crate::seg::segment_message
    ///
    /// # Errors
    /// The first [`TransportError`] in that order.
    pub fn check(&self, message_len: usize) -> Result<usize, TransportError> {
        let seg_payload_bytes = self.seg_payload_bytes;
        if !(1..=255).contains(&seg_payload_bytes) {
            return Err(TransportError::SegPayload { seg_payload_bytes });
        }
        let fec = self.fec;
        if fec.is_enabled() && !((1..=64).contains(&fec.group_data) && fec.group_parity <= 64) {
            return Err(TransportError::FecGroup);
        }
        match self.wire_segments(message_len) {
            segments if segments > usize::from(u16::MAX) => {
                Err(TransportError::TooManySegments { segments })
            }
            segments => Ok(segments),
        }
    }
}

/// Why [`TransportConfig::check`] rejects a config for a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TransportError {
    /// `seg_payload_bytes` is outside the wire format's `1..=255`.
    SegPayload {
        /// The config's `seg_payload_bytes`.
        seg_payload_bytes: usize,
    },
    /// FEC parity is armed with a group outside `1..=64` data and
    /// `0..=64` parity segments.
    FecGroup,
    /// The message needs more wire segments (FEC parity included) than
    /// the 16-bit sequence space numbers.
    TooManySegments {
        /// Wire segments the message would need.
        segments: usize,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::SegPayload { seg_payload_bytes } => write!(
                f,
                "segment payload of {seg_payload_bytes} bytes is outside the wire format's 1..=255"
            ),
            TransportError::FecGroup => write!(
                f,
                "FEC group is outside 1..=64 data and 0..=64 parity segments"
            ),
            TransportError::TooManySegments { segments } => write!(
                f,
                "the message needs {segments} wire segments, more than {}",
                u16::MAX
            ),
        }
    }
}

impl std::error::Error for TransportError {}

/// The unsent [`Slot`] of a payload at `range` of the message, or of the
/// parity buffer when `parity` is set.
fn slot(parity: bool, range: Range<usize>) -> Slot {
    Slot {
        start: range.start as u32,
        len: range.len() as u8,
        flags: if parity { PARITY } else { 0 },
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
fn nearest_supported_rate(bps: u64) -> u64 {
    *SUPPORTED_RATES_BPS
        .iter()
        .min_by_key(|&&r| r.abs_diff(bps))
        .expect("rate table is non-empty")
}

/// [`Slot`] flag: transmitted at least once.
const SENT: u8 = 1;
/// [`Slot`] flag: the sender has seen it acked.
const ACKED: u8 = 2;
/// [`Slot`] flag: part of this round's burst.
const IN_WINDOW: u8 = 4;
/// [`Slot`] flag: the payload lives in the session's parity buffer,
/// not in the message.
const PARITY: u8 = 8;
/// [`Slot`] flag: first arrival at the receiver during this round's
/// burst (what makes its FEC group "touched").
const ARRIVED: u8 = 16;

/// One wire segment as the sender holds it: where its payload lives and
/// what the sender knows about it. A session's whole per-segment state
/// is one table of these.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Offset of the payload in the message, or in the parity buffer
    /// when [`PARITY`] is set.
    start: u32,
    /// Payload length: at most 255 bytes, the wire format's length field.
    len: u8,
    /// [`SENT`], [`ACKED`], [`IN_WINDOW`], [`PARITY`] and [`ARRIVED`]
    /// bits.
    flags: u8,
}

/// Wire segment `seq` of a session: a view of its slice of the message
/// or of the parity buffer.
fn segment_of<'s>(
    slots: &[Slot],
    message: &'s [u8],
    parity: &'s [u8],
    msg_id: u8,
    seq: usize,
) -> Segment<'s> {
    let slot = slots[seq];
    let src = if slot.flags & PARITY != 0 {
        parity
    } else {
        message
    };
    let start = slot.start as usize;
    Segment {
        msg_id,
        seq: seq as u16,
        total: slots.len() as u16,
        payload: Cow::Borrowed(&src[start..start + usize::from(slot.len)]),
    }
}

/// The sequence numbers `first..=last` in burst transmission order.
/// With FEC on (`span` = the code group's wire size) the order is
/// striped across code groups: position within group first, group
/// second. Helper silence kills *consecutive transmissions*, and a burst
/// sent in sequence order concentrates those holes in one group — past
/// its parity; striping spreads a length-L outage over ~L/G groups, each
/// within erasure reach. Without FEC it is plain sequence order.
fn burst_order(first: usize, last: usize, span: Option<usize>) -> impl Iterator<Item = usize> {
    let span = span.unwrap_or(1).max(1);
    let (g0, g1) = (first / span, last / span);
    (0..span).flat_map(move |pos| {
        (g0..=g1)
            .map(move |g| g * span + pos)
            .filter(move |&i| (first..=last).contains(&i))
    })
}

/// Sender + receiver state of one in-progress transfer. The gateway
/// steps many of these against one shared clock; [`run_transfer`] is the
/// single-tag convenience loop.
///
/// A session borrows its message: each data segment is a view of its
/// slice, and with FEC on the parity segments are views of one
/// session-owned parity buffer. One table of slots holds every
/// segment's span, its sent/acked bits and its membership in the
/// current burst, and one downlink frame carries the poll and then the
/// ACK of every round. So setting a session up allocates the table, the
/// receiver's span table and buffer, and the frame (plus, with FEC, the
/// parity and the code's generator), and a round allocates nothing.
#[derive(Debug, Clone)]
pub struct TransportSession<'m> {
    message: &'m [u8],
    state: SessionState,
}

/// Everything a [`TransportSession`] holds but its message. The gateway
/// keeps one per tag it serves and re-arms it for the next gateway's
/// tag ([`Self::arm`]), so the buffers are reset, not rebuilt; each
/// call that reads the message takes it as an argument.
#[derive(Debug, Clone)]
pub(crate) struct SessionState {
    cfg: TransportConfig,
    /// Length of the message being sent (bytes).
    message_len: usize,
    /// Every group's parity columns, group after group (empty without
    /// FEC).
    parity: Vec<u8>,
    /// One row per wire segment, indexed by sequence number.
    slots: Vec<Slot>,
    /// First sequence number the sender has not seen acked.
    head: usize,
    /// This round's burst: its lowest and highest sequence numbers and
    /// its size; members carry [`IN_WINDOW`].
    window: (usize, usize, usize),
    /// The poll, then the ACK, of the current round.
    frame: DownlinkFrame,
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

/// Payload bytes of the longer control frame, a [`WindowAck`]; a poll
/// is shorter, so the session's one frame never regrows.
const CONTROL_FRAME_BYTES: usize = 9;

impl<'m> TransportSession<'m> {
    /// Prepares a transfer of `message` under `cfg`.
    ///
    /// # Panics
    /// Exactly when [`TransportConfig::check`] rejects `cfg` for this
    /// message: a segment payload outside `1..=255`, an FEC group out of
    /// its domain, or more than `u16::MAX` wire segments.
    pub fn new(message: &'m [u8], cfg: TransportConfig) -> Self {
        TransportSession {
            message,
            state: SessionState::new(message, cfg),
        }
    }

    /// True once the receiver holds every segment.
    pub fn complete(&self) -> bool {
        self.state.complete()
    }

    /// Rounds run so far.
    pub fn rounds(&self) -> u32 {
        self.state.rounds
    }

    /// True while the transfer may run another round: incomplete, under
    /// the round cap, within the retry budget.
    pub fn can_continue(&self) -> bool {
        self.state.can_continue()
    }

    /// Payload bytes the next round would put on the air — what the
    /// gateway charges against a tag's deficit before serving it.
    pub fn next_round_bytes(&self) -> u64 {
        self.state.next_round_bytes()
    }

    /// Runs one ARQ round over `link`, recording spans and counters on
    /// `rec`.
    pub fn step_round(
        &mut self,
        link: &mut dyn SegmentLink,
        rec: &mut dyn Recorder,
    ) -> RoundOutcome {
        self.state.step_round(self.message, link, rec)
    }

    /// Closes the session into its [`Transfer`] report, draining the
    /// link's degradation accounting.
    pub fn finish(self, link: &mut dyn SegmentLink) -> Transfer {
        self.state.finish(link)
    }
}

impl SessionState {
    /// Fresh buffers armed for `message` under `cfg` ([`Self::arm`]).
    pub(crate) fn new(message: &[u8], cfg: TransportConfig) -> Self {
        let mut state = Self::idle();
        state.arm(message, cfg);
        state
    }

    /// A session with no buffers and nothing to send, for
    /// [`Self::arm`] to fill.
    pub(crate) fn idle() -> Self {
        SessionState {
            cfg: TransportConfig::default(),
            message_len: 0,
            parity: Vec::new(),
            slots: Vec::new(),
            head: 0,
            window: (0, 0, 0),
            frame: DownlinkFrame::new(Vec::new()),
            rx: Reassembler::idle(),
            coder: None,
            rng: SimRng::new(0),
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

    /// Re-arms the session for a transfer of `message` under `cfg`,
    /// keeping every buffer's capacity: the same state
    /// [`TransportSession::new`] builds.
    ///
    /// # Panics
    /// As [`TransportSession::new`].
    pub(crate) fn arm(&mut self, message: &[u8], cfg: TransportConfig) {
        let total = match cfg.check(message.len()) {
            Ok(total) => total,
            Err(e) => panic!("invalid transport config: {e}"),
        };
        // The buffers are taken out, refilled and put back; every other
        // field is written as new, and the struct literal names them all.
        let mut slots = std::mem::take(&mut self.slots);
        let mut parity = std::mem::take(&mut self.parity);
        slots.clear();
        slots.reserve(total);
        let coder = if cfg.fec.is_enabled() {
            let coder =
                GroupCoder::for_message(message.len(), cfg.seg_payload_bytes.min(254), cfg.fec);
            coder.parity_into(message, &mut parity);
            slots.extend(coder.wire_layout(message.len()).map(|(p, r)| slot(p, r)));
            Some(coder)
        } else {
            let l = cfg.seg_payload_bytes;
            slots.extend((0..total).map(|i| slot(false, payload_range(message.len(), l, i))));
            parity.clear();
            None
        };
        debug_assert_eq!(slots.len(), total);
        let mut rx = std::mem::replace(&mut self.rx, Reassembler::idle());
        rx.reset(cfg.msg_id, total as u16, message.len() + parity.len());
        let mut frame = std::mem::replace(&mut self.frame, DownlinkFrame::new(Vec::new()));
        frame.payload.clear();
        frame.payload.reserve(CONTROL_FRAME_BYTES);
        *self = SessionState {
            rng: SimRng::new(cfg.seed).stream("net-timeout"),
            cfg,
            message_len: message.len(),
            parity,
            slots,
            head: 0,
            window: (0, 0, 0),
            frame,
            rx,
            coder,
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
        };
    }

    /// As [`TransportSession::complete`].
    pub(crate) fn complete(&self) -> bool {
        self.rx.complete()
    }

    /// As [`TransportSession::can_continue`].
    pub(crate) fn can_continue(&self) -> bool {
        !self.complete()
            && self.rounds < self.cfg.max_rounds
            && self.cfg.retry.within_budget(self.waited_us)
    }

    /// As [`TransportSession::next_round_bytes`].
    pub(crate) fn next_round_bytes(&self) -> u64 {
        self.unacked()
            .map(|i| u64::from(self.slots[i].len))
            .sum::<u64>()
            .max(1)
    }

    /// The next burst's segments in sequence order: the first `window`
    /// the sender has not seen acked.
    fn unacked(&self) -> impl Iterator<Item = usize> + '_ {
        (self.head..self.slots.len())
            .filter(|&i| self.slots[i].flags & ACKED == 0)
            .take(self.cfg.window.max(1))
    }

    /// Marks the next burst's segments [`IN_WINDOW`] (clearing the last
    /// round's) and records its extent in [`Self::window`].
    fn fill_window(&mut self) {
        let (first, last, n) = self.window;
        if n > 0 {
            for slot in &mut self.slots[first..=last] {
                slot.flags &= !IN_WINDOW;
            }
        }
        let mut window = (usize::MAX, 0, 0);
        for i in self.unacked() {
            window = (window.0.min(i), i, window.2 + 1);
        }
        if window.2 > 0 {
            for slot in &mut self.slots[window.0..=window.1] {
                if slot.flags & ACKED == 0 {
                    slot.flags |= IN_WINDOW;
                }
            }
        }
        self.window = window;
    }

    /// As [`TransportSession::step_round`], sending `message` — the one
    /// the session was armed with.
    pub(crate) fn step_round(
        &mut self,
        message: &[u8],
        link: &mut dyn SegmentLink,
        rec: &mut dyn Recorder,
    ) -> RoundOutcome {
        debug_assert_eq!(message.len(), self.message_len);
        if self.started_us.is_none() {
            self.started_us = Some(link.now_us());
            // The segmentation span: zero simulated duration (it is
            // reader-side computation), items = segments produced.
            let t = link.now_us();
            rec.span("net.segment", t, t, self.slots.len() as u64);
        }
        let round_start = link.now_us();
        self.rounds += 1;

        // Seeded-deterministic timeout: exponential backoff with ±jitter
        // before every no-progress retry round.
        if self.failed_rounds > 0 {
            let base = self.cfg.retry.backoff_us(self.failed_rounds) as f64;
            let jitter = 1.0 + TIMEOUT_JITTER * (2.0 * self.rng.uniform() - 1.0);
            let wait = (base * jitter) as u64;
            link.advance_us(wait);
        }

        // Poll: grant the tag a burst of up to `window` unacked segments.
        self.fill_window();
        let (first, last, burst_len) = self.window;
        let burst_bits: u64 = self
            .unacked()
            .map(|i| Segment::on_air_len(usize::from(self.slots[i].len)) as u64)
            .sum();
        let rate = nearest_supported_rate(link.chip_rate_bps());
        let poll = Query {
            tag_address: self.cfg.tag_address,
            payload_bits: burst_bits.min(u16::MAX as u64) as u16,
            bit_rate_bps: rate,
            code_length: 1,
        };
        poll.write_frame(&mut self.frame)
            .expect("nearest_supported_rate returns encodable rates");
        self.polls_sent += 1;
        rec.add("net.polls", 1);
        let poll_heard = link.send_control(&self.frame, rec);

        let mut sent_bytes = 0u64;
        let mut retx_this_round = 0u64;
        if poll_heard && burst_len > 0 {
            // The tag's burst, oldest unacked first.
            let burst_start = link.now_us();
            let span = self.coder.as_ref().map(GroupCoder::group_size);
            for i in burst_order(first, last, span) {
                let slot = &mut self.slots[i];
                if slot.flags & IN_WINDOW == 0 {
                    continue;
                }
                self.segments_sent += 1;
                rec.add("net.segments-sent", 1);
                if slot.flags & SENT != 0 {
                    self.retransmissions += 1;
                    retx_this_round += 1;
                    rec.add("net.retransmissions", 1);
                } else {
                    slot.flags |= SENT;
                }
                sent_bytes += u64::from(slot.len);
                let seg = segment_of(&self.slots, message, &self.parity, self.cfg.msg_id, i);
                let fate = link.send_segment(&seg, rec);
                if fate != SegmentFate::Lost {
                    if self.rx.accept(&seg) == Accept::New {
                        self.slots[i].flags |= ARRIVED;
                    }
                    if fate == SegmentFate::DeliveredTwice {
                        self.rx.accept(&seg);
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
            for g in 0..coder.groups() {
                let (first, d, p) = coder.group_span(g);
                let group = first as usize..first as usize + d + p;
                let missing = group.clone().filter(|&s| !self.rx.has(s as u16)).count();
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
                } else if self.slots[group].iter().any(|s| s.flags & ARRIVED != 0) {
                    // New segments arrived but the group is still short:
                    // an attempted-and-failed repair.
                    self.fec_decode_fails += 1;
                    rec.add("net.fec.decode_fail", 1);
                }
            }
        }
        if burst_len > 0 {
            for slot in &mut self.slots[first..=last] {
                slot.flags &= !ARRIVED;
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
        ack.write_frame(&mut self.frame);
        let ack_heard = link.send_control(&self.frame, rec);

        // The sender only learns what the ACK told it — a lost ACK means
        // next round retransmits segments the receiver already holds.
        let mut acked_bytes = 0u64;
        if ack_heard {
            for (seq, slot) in self.slots.iter_mut().enumerate().skip(self.head) {
                if slot.flags & ACKED == 0 && ack.acks(seq as u16) {
                    slot.flags |= ACKED;
                    acked_bytes += u64::from(slot.len);
                }
            }
            while self
                .slots
                .get(self.head)
                .is_some_and(|s| s.flags & ACKED != 0)
            {
                self.head += 1;
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
        rec.span("net.window", round_start, link.now_us(), burst_len as u64);

        RoundOutcome {
            sent_bytes,
            acked_bytes,
            retransmissions: retx_this_round,
            airtime_us: link.now_us() - round_start,
            complete: self.complete(),
        }
    }

    /// The session's [`Transfer`] report without what the report owns:
    /// `delivered` is `None` and `degradation` empty, so closing
    /// allocates nothing. Every other field is [`Self::finish`]'s.
    pub(crate) fn close(&self, link: &dyn SegmentLink) -> Transfer {
        // With FEC the deliverable is the data slots alone (parity is
        // overhead, not payload); without it, the whole reassembly.
        let (complete, delivered_bytes) = match &self.coder {
            Some(coder) => (coder.data_complete(&self.rx), coder.data_bytes(&self.rx)),
            None => (self.rx.complete(), self.rx.received_bytes()),
        };
        let started = self.started_us.unwrap_or_else(|| link.now_us());
        // `packets_duplicated` is the link's own count of on-air MAC
        // duplication. The receiver's `rx.duplicates` additionally
        // counts every retransmit that arrived after a SACK hole was
        // already filled — summing the two double-counted each on-air
        // duplicate and misread ordinary ARQ retransmissions as link
        // faults. The receiver-side dedup count is reported separately
        // as `duplicate_segments`.
        Transfer {
            message_bytes: self.message_len as u64,
            delivered_bytes,
            segments_total: self.slots.len() as u16,
            complete,
            delivered: None,
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
            degradation: DegradationReport::default(),
        }
    }

    /// As [`TransportSession::finish`]: [`Self::close`] plus the
    /// delivered message's copy and the link's degradation accounting.
    pub(crate) fn finish(&self, link: &mut dyn SegmentLink) -> Transfer {
        let delivered = match &self.coder {
            Some(coder) => coder.assemble_data(&self.rx),
            None => self.rx.assemble(),
        };
        Transfer {
            delivered,
            degradation: link.take_degradation(),
            ..self.close(&*link)
        }
    }
}

/// Transfers `message` over `link`, running rounds until completion, the
/// round cap, or the retry budget, with observability threaded through
/// `rec`. The transfer is bit-identical whatever the recorder.
///
/// # Panics
/// As [`TransportSession::new`]: exactly when [`TransportConfig::check`]
/// fails.
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
///
/// # Panics
/// As [`run_transfer_with`].
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
            retry: RetryPolicy {
                budget_us: 2_000_000,
            },
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
            let mut cfg = TransportConfig {
                seg_payload_bytes: g.usize_in(1, 256),
                ..TransportConfig::default()
            };
            if g.bool() {
                cfg = cfg.with_fec(crate::fec::FecConfig::fixed(
                    g.usize_in(1, 65),
                    g.usize_in(1, 5),
                ));
            }
            let message = vec![7u8; len];
            let session = TransportSession::new(&message, cfg.clone());
            assert_eq!(
                cfg.wire_segments(len),
                session.state.slots.len(),
                "{len} B, {cfg:?}"
            );
        });
    }

    /// A [`SimLink`] that keeps a copy of every control frame it carries.
    struct FrameLog {
        link: SimLink,
        frames: Vec<DownlinkFrame>,
    }

    impl SegmentLink for FrameLog {
        fn now_us(&self) -> u64 {
            self.link.now_us()
        }
        fn advance_us(&mut self, us: u64) {
            self.link.advance_us(us)
        }
        fn send_control(&mut self, frame: &DownlinkFrame, rec: &mut dyn Recorder) -> bool {
            self.frames.push(frame.clone());
            self.link.send_control(frame, rec)
        }
        fn send_segment(&mut self, seg: &Segment, rec: &mut dyn Recorder) -> SegmentFate {
            self.link.send_segment(seg, rec)
        }
        fn chip_rate_bps(&self) -> u64 {
            self.link.chip_rate_bps()
        }
        fn set_chip_rate_bps(&mut self, bps: u64) {
            self.link.set_chip_rate_bps(bps)
        }
        fn take_degradation(&mut self) -> DegradationReport {
            self.link.take_degradation()
        }
    }

    #[test]
    fn session_frames_equal_the_standalone_encoders() {
        // Each round rewrites the session's one control frame in place,
        // poll then ACK; every frame sent must be exactly what
        // `to_frame` encodes from the same fields, and the buffer never
        // regrows.
        let plan = FaultPlan::preset("loss", 0.8, 3).unwrap();
        let mut link = FrameLog {
            link: SimLink::new(plan, 5),
            frames: Vec::new(),
        };
        let message = msg(300);
        let mut s = TransportSession::new(&message, TransportConfig::default());
        let capacity = s.state.frame.payload.capacity();
        while s.can_continue() {
            s.step_round(&mut link, &mut NullRecorder);
            let [poll, ack] = &link.frames[link.frames.len() - 2..] else {
                unreachable!("a round sends a poll and an ACK")
            };
            let q = Query::from_frame(poll).expect("a poll frame");
            assert_eq!(&q.to_frame().unwrap(), poll);
            let a = WindowAck::from_frame(ack).expect("an ACK frame");
            assert_eq!(&a.to_frame(), ack);
            assert_eq!(
                (a.cumulative, a.sack),
                (s.state.rx.cumulative(), s.state.rx.sack())
            );
            assert_eq!(&s.state.frame, ack, "the ACK is the round's last frame");
        }
        assert!(s.complete());
        assert_eq!(link.frames.len(), 2 * s.rounds() as usize);
        assert_eq!(
            s.state.frame.payload.capacity(),
            capacity,
            "the frame regrew"
        );
    }

    #[test]
    fn burst_order_is_the_striped_sort_of_the_window() {
        // The order the session sends a burst in: sequence order without
        // FEC, and with it the (position in group, group, seq) sort the
        // transport has always used.
        bs_dsp::testkit::check("arq-burst-order", 300, |g| {
            let first = g.usize_in(0, 300);
            let last = first + g.usize_in(0, 80);
            let span = g.bool().then(|| g.usize_in(1, 129));
            let mut want: Vec<usize> = (first..=last).collect();
            if let Some(span) = span {
                want.sort_unstable_by_key(|&i| (i % span, i / span, i));
            }
            let got: Vec<usize> = burst_order(first, last, span).collect();
            assert_eq!(got, want, "{first}..={last} span {span:?}");
        });
    }

    #[test]
    fn check_names_the_first_violation_and_counts_segments() {
        let cfg = |bytes: usize| TransportConfig {
            seg_payload_bytes: bytes,
            ..TransportConfig::default()
        };
        for bytes in [0, 256, usize::MAX] {
            assert_eq!(
                cfg(bytes).check(48),
                Err(TransportError::SegPayload {
                    seg_payload_bytes: bytes
                })
            );
        }
        assert_eq!(cfg(16).check(48), Ok(3));
        assert_eq!(cfg(255).check(0), Ok(1));
        assert_eq!(
            cfg(1).check(1 << 20),
            Err(TransportError::TooManySegments { segments: 1 << 20 })
        );
        assert_eq!(cfg(1).check(usize::from(u16::MAX)), Ok(65_535));
        for (group_data, group_parity) in [(0, 2), (65, 2), (8, 65)] {
            let bad = TransportConfig {
                fec: crate::fec::FecConfig {
                    group_data,
                    group_parity,
                },
                ..TransportConfig::default()
            };
            assert_eq!(bad.check(48), Err(TransportError::FecGroup));
            assert!(bad.check(48).unwrap_err().to_string().contains("FEC"));
        }
        // Parity counts toward the sequence space.
        let fec = cfg(1).with_fec(crate::fec::FecConfig::fixed(8, 2));
        assert_eq!(
            fec.check(60_000),
            Err(TransportError::TooManySegments { segments: 75_000 })
        );
    }

    #[test]
    fn session_and_transfer_panic_exactly_when_the_check_fails() {
        let catch = |cfg: TransportConfig, len: usize| {
            let message = vec![7u8; len];
            let new = std::panic::catch_unwind(|| {
                TransportSession::new(&message, cfg.clone());
            });
            let transfer = std::panic::catch_unwind(|| {
                run_transfer(
                    &message,
                    cfg.clone(),
                    &mut SimLink::new(FaultPlan::none(), 1),
                );
            });
            assert_eq!(new.is_err(), transfer.is_err());
            new.is_err()
        };
        bs_dsp::testkit::check("arq-check-panics", 40, |g| {
            let cfg = TransportConfig {
                seg_payload_bytes: g.usize_in(0, 258),
                ..TransportConfig::default()
            };
            let len = g.usize_in(0, 600);
            assert_eq!(
                catch(cfg.clone(), len),
                cfg.check(len).is_err(),
                "{cfg:?} {len}"
            );
        });
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
