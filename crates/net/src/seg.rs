//! Segmentation and reassembly: arbitrary byte messages in and out of
//! CRC-protected, sequence-numbered link segments.
//!
//! The raw link moves one short frame per query (§4.1); internet
//! connectivity needs messages far larger than the 127-byte downlink
//! payload or the few-hundred-bit uplink burst a tag can sustain. A
//! [`Segment`] is the transport's wire unit: a 6-byte header, up to 255
//! payload bytes and a trailing CRC-8 over everything before it, so a
//! corrupted segment is dropped at the receiver instead of poisoning the
//! reassembled message.
//!
//! ```text
//! byte  0       1..3      3..5      5         6..6+len   6+len
//!      ┌───────┬─────────┬─────────┬─────────┬──────────┬───────┐
//!      │msg_id │ seq(BE) │total(BE)│ len     │ payload  │ crc8  │
//!      └───────┴─────────┴─────────┴─────────┴──────────┴───────┘
//! ```

use crate::arq::{TransportConfig, TransportError};
use bs_dsp::bits::{bits_to_bytes, bytes_to_bits, crc8};
use std::borrow::Cow;
use std::fmt;
use std::ops::Range;

/// Header + CRC bytes a segment adds around its payload.
pub const SEGMENT_OVERHEAD_BYTES: usize = 7;

/// One transport segment: the unit of loss, retransmission and
/// acknowledgement.
///
/// The payload borrows where it can: a sender's segments are views of
/// the message (or of its FEC parity), and [`Segment::from_bytes`]
/// borrows the received bytes, so handing a segment to a link or a
/// [`Reassembler`] copies nothing. [`Segment::from_bits`] has no bytes
/// to borrow and returns an owned payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment<'a> {
    /// Message this segment belongs to (wraps at 256 in-flight messages).
    pub msg_id: u8,
    /// 0-based sequence number within the message.
    pub seq: u16,
    /// Total segments in the message (always ≥ 1, > `seq`).
    pub total: u16,
    /// Payload slice of the original message (≤ 255 bytes).
    pub payload: Cow<'a, [u8]>,
}

/// Why a byte string failed to parse as a [`Segment`]. Parsing never
/// panics: a truncated or bit-flipped segment is data loss, not a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentError {
    /// Fewer bytes (or non-byte-aligned bits) than the fixed overhead.
    Truncated,
    /// The length field disagrees with the bytes present.
    BadLength,
    /// The CRC-8 check failed.
    BadCrc,
    /// `total` is zero or `seq` is not below `total`.
    BadSequence,
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::Truncated => write!(f, "segment truncated"),
            SegmentError::BadLength => write!(f, "segment length field mismatch"),
            SegmentError::BadCrc => write!(f, "segment CRC mismatch"),
            SegmentError::BadSequence => write!(f, "segment sequence out of range"),
        }
    }
}

impl std::error::Error for SegmentError {}

impl<'a> Segment<'a> {
    /// Serialises to the wire byte layout (header, payload, CRC).
    pub fn to_bytes(&self) -> Vec<u8> {
        debug_assert!(self.payload.len() <= 255, "payload exceeds length field");
        let mut out = Vec::with_capacity(SEGMENT_OVERHEAD_BYTES + self.payload.len());
        out.push(self.msg_id);
        out.push((self.seq >> 8) as u8);
        out.push((self.seq & 0xFF) as u8);
        out.push((self.total >> 8) as u8);
        out.push((self.total & 0xFF) as u8);
        out.push(self.payload.len() as u8);
        out.extend_from_slice(&self.payload);
        out.push(crc8(&out));
        out
    }

    /// Serialises to on-air bits (MSB-first per byte), whitened by
    /// the 802.11 additive scrambler, the form the tag actually
    /// backscatters.
    pub fn to_bits(&self) -> Vec<bool> {
        let mut bits = bytes_to_bits(&self.to_bytes());
        scramble(&mut bits);
        bits
    }

    /// Parses the wire byte layout; every malformation maps to a
    /// [`SegmentError`] — this function must never panic, whatever the
    /// input.
    pub fn from_bytes(bytes: &'a [u8]) -> Result<Segment<'a>, SegmentError> {
        if bytes.len() < SEGMENT_OVERHEAD_BYTES {
            return Err(SegmentError::Truncated);
        }
        let len = bytes[5] as usize;
        if bytes.len() != SEGMENT_OVERHEAD_BYTES + len {
            return Err(SegmentError::BadLength);
        }
        let (body, crc) = bytes.split_at(bytes.len() - 1);
        if crc8(body) != crc[0] {
            return Err(SegmentError::BadCrc);
        }
        let seq = (u16::from(bytes[1]) << 8) | u16::from(bytes[2]);
        let total = (u16::from(bytes[3]) << 8) | u16::from(bytes[4]);
        if total == 0 || seq >= total {
            return Err(SegmentError::BadSequence);
        }
        Ok(Segment {
            msg_id: bytes[0],
            seq,
            total,
            payload: Cow::Borrowed(&bytes[6..6 + len]),
        })
    }

    /// Parses from on-air bits (descrambling first); a bit count that is
    /// not a whole number of bytes is a truncation.
    pub fn from_bits(bits: &[bool]) -> Result<Segment<'static>, SegmentError> {
        if bits.len() % 8 != 0 {
            return Err(SegmentError::Truncated);
        }
        let mut bits = bits.to_vec();
        scramble(&mut bits);
        let bytes = bits_to_bytes(&bits);
        let seg = Segment::from_bytes(&bytes)?;
        Ok(Segment {
            payload: Cow::Owned(seg.payload.into_owned()),
            ..seg
        })
    }

    /// Wire size in bytes of a segment carrying `payload_len` bytes.
    fn wire_bytes(payload_len: usize) -> usize {
        SEGMENT_OVERHEAD_BYTES + payload_len
    }

    /// On-air bits of a segment carrying `payload_len` bytes: the length
    /// of [`Segment::to_bits`], without serialising anything.
    pub fn on_air_len(payload_len: usize) -> usize {
        Self::wire_bytes(payload_len) * 8
    }
}

/// Whitens on-air bits with the 802.11 additive scrambler (LFSR
/// `x^7 + x^4 + 1`, fixed nonzero seed). Segment headers start with long
/// zero runs (`msg_id` 0, `seq` 0, a zero `total` high byte) and the
/// envelope decoder loses its threshold over a transition-free stretch;
/// scrambling keeps the backscattered stream DC-balanced exactly the way
/// the Wi-Fi frames the tag piggybacks on are. XOR with a fixed
/// keystream is its own inverse, so the same call descrambles.
fn scramble(bits: &mut [bool]) {
    let mut state: u8 = 0x5D;
    for b in bits {
        let feedback = ((state >> 6) ^ (state >> 3)) & 1;
        *b ^= feedback == 1;
        state = ((state << 1) | feedback) & 0x7F;
    }
}

/// Splits `message` into segments of at most `max_payload` bytes each,
/// each borrowing its slice of the message. An empty message still
/// produces one zero-length segment so that "send nothing" remains
/// acknowledgeable.
///
/// # Errors
/// What [`TransportConfig::check`] returns for a plain-ARQ config with
/// this payload size: a `max_payload` outside `1..=255`, or a message
/// that needs more than `u16::MAX` segments.
pub fn segment_message(
    msg_id: u8,
    message: &[u8],
    max_payload: usize,
) -> Result<Vec<Segment<'_>>, TransportError> {
    let cfg = TransportConfig {
        seg_payload_bytes: max_payload,
        ..TransportConfig::default()
    };
    let total = cfg.check(message.len())?;
    Ok((0..total)
        .map(|i| Segment {
            msg_id,
            seq: i as u16,
            total: total as u16,
            payload: Cow::Borrowed(&message[payload_range(message.len(), max_payload, i)]),
        })
        .collect())
}

/// Where data segment `index`'s payload lies when a `message_len`-byte
/// message is cut into `seg_payload`-byte segments: every segment full
/// but the last, and an empty range past the end.
pub(crate) fn payload_range(message_len: usize, seg_payload: usize, index: usize) -> Range<usize> {
    let start = (index * seg_payload).min(message_len);
    start..(start + seg_payload).min(message_len)
}

/// What [`Reassembler::accept`] did with a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Accept {
    /// First copy of this sequence number: stored.
    New,
    /// Already held — a retransmission or link-level duplicate: dropped.
    Duplicate,
    /// Wrong message id or inconsistent `total`: dropped.
    Mismatch,
}

/// Receiver-side state: collects segments of one message in any order,
/// deduplicates, and exposes the cumulative + selective acknowledgement
/// the transport puts on the wire.
///
/// Held payloads live back to back in one buffer, in arrival order; each
/// sequence number owns a `(start, len)` span into it, so storing a
/// segment copies its bytes once and allocates nothing per segment.
#[derive(Debug, Clone)]
pub struct Reassembler {
    msg_id: u8,
    total: u16,
    /// Every held payload, in arrival order.
    buf: Vec<u8>,
    /// `(start, len)` of each sequence number's payload in `buf`.
    spans: Vec<Option<(usize, usize)>>,
    received: usize,
    cumulative: u16,
    /// Duplicate segment arrivals dropped so far.
    pub duplicates: u64,
    /// Mismatched (foreign / inconsistent) segments dropped so far.
    pub mismatches: u64,
}

impl Reassembler {
    /// A reassembler expecting `total` segments of message `msg_id`.
    pub fn new(msg_id: u8, total: u16) -> Self {
        Self::with_capacity(msg_id, total, 0)
    }

    /// A reassembler expecting `total` segments of message `msg_id`
    /// whose payloads add up to `payload_bytes` — what a sender that
    /// knows the message sizes the buffer to, so it never regrows. With
    /// 0 the first arrival sizes it.
    pub fn with_capacity(msg_id: u8, total: u16, payload_bytes: usize) -> Self {
        let mut rx = Self::idle();
        rx.reset(msg_id, total, payload_bytes);
        rx
    }

    /// A reassembler expecting nothing, with no buffers: the state a
    /// session is built in before [`Self::reset`] arms it.
    pub(crate) fn idle() -> Self {
        Reassembler {
            msg_id: 0,
            total: 0,
            buf: Vec::new(),
            spans: Vec::new(),
            received: 0,
            cumulative: 0,
            duplicates: 0,
            mismatches: 0,
        }
    }

    /// Re-arms the reassembler as [`Self::with_capacity`] builds it,
    /// keeping its buffers' capacity.
    pub(crate) fn reset(&mut self, msg_id: u8, total: u16, payload_bytes: usize) {
        assert!(total >= 1, "a message has at least one segment");
        self.msg_id = msg_id;
        self.total = total;
        self.buf.clear();
        self.buf.reserve(payload_bytes);
        self.spans.clear();
        self.spans.resize(total as usize, None);
        self.received = 0;
        self.cumulative = 0;
        self.duplicates = 0;
        self.mismatches = 0;
    }

    /// Offers one received segment.
    pub fn accept(&mut self, seg: &Segment) -> Accept {
        if seg.msg_id != self.msg_id || seg.total != self.total || seg.seq >= self.total {
            self.mismatches += 1;
            return Accept::Mismatch;
        }
        if self.spans[seg.seq as usize].is_some() {
            self.duplicates += 1;
            return Accept::Duplicate;
        }
        self.store(seg.seq, &seg.payload);
        Accept::New
    }

    /// Copies `payload` into the buffer as `seq`'s (empty) slot and
    /// advances the cumulative head.
    fn store(&mut self, seq: u16, payload: &[u8]) {
        if self.buf.capacity() == 0 {
            // All segments of a message but its last carry the same
            // payload size, so the first arrival sizes the buffer.
            self.buf.reserve(payload.len() * self.total as usize);
        }
        self.spans[seq as usize] = Some((self.buf.len(), payload.len()));
        self.buf.extend_from_slice(payload);
        self.received += 1;
        while (self.cumulative as usize) < self.spans.len()
            && self.spans[self.cumulative as usize].is_some()
        {
            self.cumulative += 1;
        }
    }

    /// Segments with `seq < cumulative()` have all arrived.
    pub fn cumulative(&self) -> u16 {
        self.cumulative
    }

    /// Selective-ACK bitmap over the 32 sequence numbers after the
    /// cumulative head (bit `i` ⇔ `cumulative + 1 + i` held).
    pub fn sack(&self) -> u32 {
        let mut bits = 0u32;
        for i in 0..32u32 {
            let seq = self.cumulative as usize + 1 + i as usize;
            if seq < self.spans.len() && self.spans[seq].is_some() {
                bits |= 1 << i;
            }
        }
        bits
    }

    /// True when the segment with this sequence number has arrived (or
    /// been reconstructed).
    pub fn has(&self, seq: u16) -> bool {
        (seq as usize) < self.spans.len() && self.spans[seq as usize].is_some()
    }

    /// The held payload for `seq`, if any.
    pub fn payload_of(&self, seq: u16) -> Option<&[u8]> {
        let (start, len) = (*self.spans.get(seq as usize)?)?;
        Some(&self.buf[start..start + len])
    }

    /// Fills an empty slot with a payload reconstructed by the FEC layer
    /// (not received off the air). Advances the cumulative head like a
    /// normal arrival but does **not** touch the duplicate counter — a
    /// repair is not an on-air event. Returns false (and stores nothing)
    /// if the slot is already held or `seq` is out of range.
    pub fn insert_repaired(&mut self, seq: u16, payload: &[u8]) -> bool {
        if seq >= self.total || self.spans[seq as usize].is_some() {
            return false;
        }
        self.store(seq, payload);
        true
    }

    /// Segments received so far (unique).
    pub fn received(&self) -> usize {
        self.received
    }

    /// Payload bytes received so far (unique).
    pub fn received_bytes(&self) -> u64 {
        self.buf.len() as u64
    }

    /// True once every segment has arrived.
    pub fn complete(&self) -> bool {
        self.cumulative == self.total
    }

    /// True while later segments are held but the window head is missing
    /// — the head-of-line stall the transport counts.
    pub fn head_of_line_blocked(&self) -> bool {
        !self.complete()
            && self.spans[self.cumulative as usize..]
                .iter()
                .any(|s| s.is_some())
    }

    /// The reassembled message once complete; `None` before that.
    pub fn assemble(&self) -> Option<Vec<u8>> {
        if !self.complete() {
            return None;
        }
        let mut out = Vec::with_capacity(self.buf.len());
        for seq in 0..self.total {
            out.extend_from_slice(self.payload_of(seq).unwrap_or_default());
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_sizes() {
        for len in [0usize, 1, 7, 16, 255] {
            let seg = Segment {
                msg_id: 7,
                seq: 3,
                total: 9,
                payload: (0..len).map(|i| (i * 31 + 5) as u8).collect(),
            };
            assert_eq!(Segment::from_bytes(&seg.to_bytes()), Ok(seg.clone()));
            assert_eq!(Segment::from_bits(&seg.to_bits()), Ok(seg));
        }
    }

    #[test]
    fn on_air_len_matches_the_serialised_bits_for_every_payload_length() {
        // The link models charge airtime from this length without
        // serialising; it must equal what a modulating link sends.
        bs_dsp::testkit::check("segment-on-air-len", 4, |g| {
            for n in 0..=255 {
                let seg = Segment {
                    msg_id: g.u8(),
                    seq: 0,
                    total: 1,
                    payload: g.vec_u8(n, n + 1).into(),
                };
                let bits = seg.to_bits().len();
                assert_eq!(Segment::wire_bytes(n) * 8, bits, "payload {n}");
                assert_eq!(Segment::on_air_len(n), bits, "payload {n}");
            }
        });
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let seg = Segment {
            msg_id: 1,
            seq: 0,
            total: 2,
            payload: vec![0xAB, 0xCD, 0xEF].into(),
        };
        let bits = seg.to_bits();
        for i in 0..bits.len() {
            let mut flipped = bits.clone();
            flipped[i] = !flipped[i];
            assert!(
                Segment::from_bits(&flipped).is_err(),
                "flip at bit {i} slipped through"
            );
        }
    }

    #[test]
    fn truncations_error_out() {
        let seg = Segment {
            msg_id: 1,
            seq: 1,
            total: 3,
            payload: vec![1, 2, 3, 4].into(),
        };
        let bits = seg.to_bits();
        for cut in 0..bits.len() {
            assert!(Segment::from_bits(&bits[..cut]).is_err());
        }
    }

    #[test]
    fn scrambler_is_an_involution_and_breaks_zero_runs() {
        let mut bits = vec![false; 256];
        scramble(&mut bits);
        // The whitened stream must have no decoder-breaking runs: count
        // the longest stretch of identical bits.
        let mut longest = 0;
        let mut run = 0;
        let mut last = None;
        for &b in &bits {
            run = if last == Some(b) { run + 1 } else { 1 };
            longest = longest.max(run);
            last = Some(b);
        }
        assert!(longest <= 8, "scrambled all-zeros has a {longest}-bit run");
        scramble(&mut bits);
        assert_eq!(bits, vec![false; 256], "scramble must be its own inverse");
    }

    #[test]
    fn sequence_bounds_enforced() {
        let bad = Segment {
            msg_id: 0,
            seq: 5,
            total: 5,
            payload: vec![].into(),
        };
        assert_eq!(
            Segment::from_bytes(&bad.to_bytes()),
            Err(SegmentError::BadSequence)
        );
    }

    #[test]
    fn segmentation_reassembles_exactly() {
        let msg: Vec<u8> = (0..1024u32).map(|i| (i % 251) as u8).collect();
        let segs = segment_message(9, &msg, 16).unwrap();
        assert_eq!(segs.len(), 64);
        let mut rx = Reassembler::new(9, segs.len() as u16);
        // Deliver in a scrambled order with duplicates.
        for k in (0..segs.len()).rev() {
            assert_eq!(rx.accept(&segs[k]), Accept::New);
            assert_eq!(rx.accept(&segs[k]), Accept::Duplicate);
        }
        assert!(rx.complete());
        assert_eq!(rx.assemble(), Some(msg));
        assert_eq!(rx.duplicates, 64);
    }

    #[test]
    fn segment_message_returns_the_check_error_instead_of_panicking() {
        let msg = [1u8; 48];
        for max_payload in [0, 256] {
            assert_eq!(
                segment_message(0, &msg, max_payload),
                Err(TransportError::SegPayload {
                    seg_payload_bytes: max_payload
                })
            );
        }
        let mib = vec![0u8; 1 << 20];
        assert_eq!(
            segment_message(0, &mib, 1),
            Err(TransportError::TooManySegments { segments: 1 << 20 })
        );
        // Segments borrow their slices of the message.
        let segs = segment_message(0, &msg, 255).unwrap();
        assert!(matches!(&segs[0].payload, Cow::Borrowed(p) if p.as_ptr() == msg.as_ptr()));
    }

    #[test]
    fn empty_message_is_one_segment() {
        let segs = segment_message(0, &[], 16).unwrap();
        assert_eq!(segs.len(), 1);
        assert!(segs[0].payload.is_empty());
        let mut rx = Reassembler::new(0, 1);
        rx.accept(&segs[0]);
        assert_eq!(rx.assemble(), Some(vec![]));
    }

    #[test]
    fn sack_tracks_out_of_order_receipts() {
        let msg = [0u8; 80];
        let segs = segment_message(3, &msg, 16).unwrap(); // 5 segments
        let mut rx = Reassembler::new(3, 5);
        rx.accept(&segs[0]);
        rx.accept(&segs[2]);
        rx.accept(&segs[4]);
        assert_eq!(rx.cumulative(), 1);
        // seq 2 is cumulative+1 → bit 0; seq 4 → bit 2.
        assert_eq!(rx.sack(), 0b101);
        assert!(rx.head_of_line_blocked());
        rx.accept(&segs[1]);
        assert_eq!(rx.cumulative(), 3);
        rx.accept(&segs[3]);
        assert!(rx.complete());
        assert!(!rx.head_of_line_blocked());
    }

    #[test]
    fn insert_repaired_fills_holes_without_counting_duplicates() {
        let msg = [7u8; 48];
        let segs = segment_message(4, &msg, 16).unwrap(); // 3 segments
        let mut rx = Reassembler::new(4, 3);
        rx.accept(&segs[0]);
        rx.accept(&segs[2]);
        assert_eq!(rx.cumulative(), 1);
        assert!(!rx.has(1));
        assert_eq!(rx.payload_of(1), None);
        assert!(rx.insert_repaired(1, &segs[1].payload));
        assert_eq!(rx.cumulative(), 3, "repair must advance the head");
        assert!(rx.complete());
        assert_eq!(rx.duplicates, 0, "repairs are not duplicates");
        assert_eq!(rx.assemble(), Some(msg.to_vec()));
        // Repairing a held or out-of-range slot is refused.
        assert!(!rx.insert_repaired(1, &[0]));
        assert!(!rx.insert_repaired(9, &[0]));
        assert_eq!(rx.payload_of(2), Some(&segs[2].payload[..]));
        assert_eq!(rx.payload_of(9), None);
    }

    /// The storage `Reassembler` replaced, kept as the oracle for its
    /// flat buffer: one owned payload per slot.
    struct SlotModel {
        msg_id: u8,
        slots: Vec<Option<Vec<u8>>>,
        duplicates: u64,
        mismatches: u64,
    }

    impl SlotModel {
        fn accept(&mut self, seg: &Segment) -> Accept {
            if seg.msg_id != self.msg_id
                || seg.total as usize != self.slots.len()
                || seg.seq as usize >= self.slots.len()
            {
                self.mismatches += 1;
                return Accept::Mismatch;
            }
            let slot = &mut self.slots[seg.seq as usize];
            if slot.is_some() {
                self.duplicates += 1;
                return Accept::Duplicate;
            }
            *slot = Some(seg.payload.to_vec());
            Accept::New
        }

        fn insert_repaired(&mut self, seq: u16, payload: Vec<u8>) -> bool {
            match self.slots.get_mut(seq as usize) {
                Some(slot @ None) => {
                    *slot = Some(payload);
                    true
                }
                _ => false,
            }
        }

        fn cumulative(&self) -> u16 {
            self.slots.iter().take_while(|s| s.is_some()).count() as u16
        }

        fn sack(&self) -> u32 {
            let head = self.cumulative() as usize;
            (0..32)
                .filter(|i| self.slots.get(head + 1 + i).is_some_and(|s| s.is_some()))
                .fold(0, |b, i| b | 1 << i)
        }

        fn assemble(&self) -> Option<Vec<u8>> {
            self.slots
                .iter()
                .map(|s| s.as_deref())
                .collect::<Option<Vec<_>>>()
                .map(|p| p.concat())
        }
    }

    #[test]
    fn reassembler_matches_the_owned_slot_model() {
        bs_dsp::testkit::check("reassembler-oracle", 200, |g| {
            let total = g.usize_in(1, 40) as u16;
            let msg_id = g.u8();
            let mut rx = Reassembler::new(msg_id, total);
            let mut model = SlotModel {
                msg_id,
                slots: vec![None; total as usize],
                duplicates: 0,
                mismatches: 0,
            };
            for _ in 0..g.usize_in(1, 120) {
                // Any seq below total (new or duplicate), or one past it.
                let seq = g.usize_in(0, total as usize + 2) as u16;
                let payload = g.vec_u8(0, 20);
                match g.usize_in(0, 4) {
                    0 | 1 => {
                        let seg = Segment {
                            msg_id,
                            seq,
                            total,
                            payload: payload.into(),
                        };
                        assert_eq!(rx.accept(&seg), model.accept(&seg));
                    }
                    2 => {
                        // A foreign message id or an inconsistent total.
                        let seg = if g.bool() {
                            Segment {
                                msg_id: msg_id.wrapping_add(1),
                                seq,
                                total,
                                payload: payload.into(),
                            }
                        } else {
                            Segment {
                                msg_id,
                                seq,
                                total: total + 1,
                                payload: payload.into(),
                            }
                        };
                        assert_eq!(rx.accept(&seg), model.accept(&seg));
                    }
                    _ => {
                        assert_eq!(
                            rx.insert_repaired(seq, &payload),
                            model.insert_repaired(seq, payload)
                        );
                    }
                }
                assert_eq!(rx.cumulative(), model.cumulative());
                assert_eq!(rx.sack(), model.sack());
                for s in 0..total + 2 {
                    let want = model.slots.get(s as usize).and_then(|p| p.as_deref());
                    assert_eq!(rx.has(s), want.is_some(), "has({s})");
                    assert_eq!(rx.payload_of(s), want, "payload_of({s})");
                }
                assert_eq!(rx.received(), model.slots.iter().flatten().count());
                assert_eq!(
                    rx.received_bytes(),
                    model
                        .slots
                        .iter()
                        .flatten()
                        .map(|p| p.len() as u64)
                        .sum::<u64>()
                );
                let blocked = !rx.complete()
                    && model.slots[model.cumulative() as usize..]
                        .iter()
                        .any(|s| s.is_some());
                assert_eq!(rx.head_of_line_blocked(), blocked);
                assert_eq!(rx.complete(), model.cumulative() == total);
                assert_eq!(rx.assemble(), model.assemble());
                assert_eq!(
                    (rx.duplicates, rx.mismatches),
                    (model.duplicates, model.mismatches)
                );
            }
        });
    }

    #[test]
    fn foreign_segments_are_mismatches() {
        let mut rx = Reassembler::new(1, 4);
        let other = Segment {
            msg_id: 2,
            seq: 0,
            total: 4,
            payload: vec![1].into(),
        };
        assert_eq!(rx.accept(&other), Accept::Mismatch);
        let wrong_total = Segment {
            msg_id: 1,
            seq: 0,
            total: 5,
            payload: vec![1].into(),
        };
        assert_eq!(rx.accept(&wrong_total), Accept::Mismatch);
        assert_eq!(rx.mismatches, 2);
    }
}
