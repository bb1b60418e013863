//! The query-response link protocol (§2, §5).
//!
//! Wi-Fi Backscatter follows a request-response model like RFID: the reader
//! queries the tag on the downlink; the tag answers on the uplink at the
//! bit rate the query commanded. The reader picks that rate from the
//! current network conditions: if the helper delivers N packets/s and the
//! decoder wants M packets per bit, the tag can sustain N/M bits/s — scaled
//! by a conservative margin so that bursty traffic rarely starves a bit of
//! channel measurements (§5).

use crate::error::{Error, ProtocolError};
use bs_tag::frame::DownlinkFrame;

/// The uplink bit rates the prototype supports (§7.2 evaluates exactly
/// these).
pub const SUPPORTED_RATES_BPS: [u64; 4] = [100, 200, 500, 1000];

/// Opcode byte distinguishing downlink message types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Opcode {
    Query = 0x01,
    Ack = 0x02,
    WindowAck = 0x03,
}

/// A query from the reader to a tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// Address of the tag being interrogated (EPC-Gen2-style singulation
    /// is out of scope, as in the paper; the address is a plain byte).
    pub tag_address: u8,
    /// Number of payload bits requested on the uplink.
    pub payload_bits: u16,
    /// Commanded uplink bit rate (bits/s).
    pub bit_rate_bps: u64,
    /// Code length for the long-range mode; 1 = plain (uncoded) mode.
    pub code_length: u16,
}

impl Query {
    /// Payload bytes of every serialised query.
    pub const PAYLOAD_BYTES: usize = 7;

    /// Serialises into a downlink frame payload.
    ///
    /// Fails with [`ProtocolError::UnsupportedRate`] (wrapped in the
    /// unified [`Error`]) when `bit_rate_bps` is not one of
    /// [`SUPPORTED_RATES_BPS`]: the wire format only has indices for
    /// those four rates, and a transport probing rates must see an error,
    /// not a reader crash.
    pub fn to_frame(&self) -> Result<DownlinkFrame, Error> {
        let mut frame = DownlinkFrame::new(Vec::with_capacity(Self::PAYLOAD_BYTES));
        self.write_frame(&mut frame)?;
        Ok(frame)
    }

    /// Serialises into `frame`, replacing its payload and reusing its
    /// buffer — the form a transport that polls every round calls.
    ///
    /// # Errors
    /// As [`Self::to_frame`]; `frame` is left unchanged.
    pub fn write_frame(&self, frame: &mut DownlinkFrame) -> Result<(), Error> {
        let rate_idx = SUPPORTED_RATES_BPS
            .iter()
            .position(|&r| r == self.bit_rate_bps)
            .ok_or(ProtocolError::UnsupportedRate {
                bps: self.bit_rate_bps,
            })? as u8;
        frame.payload.clear();
        frame.payload.extend_from_slice(&[
            Opcode::Query as u8,
            self.tag_address,
            (self.payload_bits >> 8) as u8,
            (self.payload_bits & 0xFF) as u8,
            rate_idx,
            (self.code_length >> 8) as u8,
            (self.code_length & 0xFF) as u8,
        ]);
        Ok(())
    }

    /// Parses a query from a downlink frame; `None` if the frame is not a
    /// well-formed query.
    pub fn from_frame(frame: &DownlinkFrame) -> Option<Query> {
        let p = &frame.payload;
        if p.len() != Self::PAYLOAD_BYTES || p[0] != Opcode::Query as u8 {
            return None;
        }
        let rate = *SUPPORTED_RATES_BPS.get(p[4] as usize)?;
        let code_length = (u16::from(p[5]) << 8) | u16::from(p[6]);
        if code_length == 0 {
            return None;
        }
        Some(Query {
            tag_address: p[1],
            payload_bits: (u16::from(p[2]) << 8) | u16::from(p[3]),
            bit_rate_bps: rate,
            code_length,
        })
    }

    /// True if the query asks for the long-range coded uplink.
    pub fn is_coded(&self) -> bool {
        self.code_length > 1
    }
}

/// An ACK from the reader (the short retransmission-control message of
/// §4.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ack {
    /// Address of the tag being acknowledged.
    pub tag_address: u8,
}

impl Ack {
    /// Serialises into a downlink frame.
    pub fn to_frame(&self) -> DownlinkFrame {
        DownlinkFrame::new(vec![Opcode::Ack as u8, self.tag_address])
    }

    /// Parses an ACK.
    pub fn from_frame(frame: &DownlinkFrame) -> Option<Ack> {
        let p = &frame.payload;
        if p.len() != 2 || p[0] != Opcode::Ack as u8 {
            return None;
        }
        Some(Ack { tag_address: p[1] })
    }
}

/// A sliding-window ACK for the `bs-net` transport: cumulative sequence
/// acknowledgement plus a 32-bit selective-ACK bitmap, carried on the
/// downlink exactly like [`Ack`] but under its own opcode so the two
/// never cross-parse.
///
/// Semantics follow TCP SACK: every segment with `seq < cumulative` is
/// acknowledged, and bit `i` of `sack` (LSB first) acknowledges segment
/// `cumulative + 1 + i` — out-of-order receipts the receiver is holding
/// while the window head is still missing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowAck {
    /// Address of the tag whose segments are being acknowledged.
    pub tag_address: u8,
    /// Message the acknowledgement refers to (wraps at 256 messages).
    pub msg_id: u8,
    /// All segments with sequence number `< cumulative` are acknowledged.
    pub cumulative: u16,
    /// Bit `i` (LSB first) acknowledges segment `cumulative + 1 + i`.
    pub sack: u32,
}

impl WindowAck {
    /// Serialises into a downlink frame (9 payload bytes; infallible —
    /// every field value has a wire encoding).
    pub fn to_frame(&self) -> DownlinkFrame {
        let mut frame = DownlinkFrame::new(Vec::with_capacity(9));
        self.write_frame(&mut frame);
        frame
    }

    /// Serialises into `frame`, replacing its payload and reusing its
    /// buffer — the form a transport that acknowledges every round calls.
    pub fn write_frame(&self, frame: &mut DownlinkFrame) {
        frame.payload.clear();
        frame.payload.extend_from_slice(&[
            Opcode::WindowAck as u8,
            self.tag_address,
            self.msg_id,
            (self.cumulative >> 8) as u8,
            (self.cumulative & 0xFF) as u8,
            (self.sack >> 24) as u8,
            (self.sack >> 16) as u8,
            (self.sack >> 8) as u8,
            (self.sack & 0xFF) as u8,
        ]);
    }

    /// Parses a window ACK; `None` if the frame is not a well-formed
    /// window ACK.
    pub fn from_frame(frame: &DownlinkFrame) -> Option<WindowAck> {
        let p = &frame.payload;
        if p.len() != 9 || p[0] != Opcode::WindowAck as u8 {
            return None;
        }
        Some(WindowAck {
            tag_address: p[1],
            msg_id: p[2],
            cumulative: (u16::from(p[3]) << 8) | u16::from(p[4]),
            sack: (u32::from(p[5]) << 24)
                | (u32::from(p[6]) << 16)
                | (u32::from(p[7]) << 8)
                | u32::from(p[8]),
        })
    }

    /// True if this ACK acknowledges segment `seq`, either cumulatively
    /// or through the selective bitmap.
    pub fn acks(&self, seq: u16) -> bool {
        if seq < self.cumulative {
            return true;
        }
        let offset = u32::from(seq) - u32::from(self.cumulative);
        (1..=32).contains(&offset) && (self.sack >> (offset - 1)) & 1 == 1
    }
}

/// Wait before the first retry (µs).
const BASE_BACKOFF_US: u64 = 2_000;

/// Multiplier applied to the backoff per subsequent retry.
const BACKOFF_FACTOR: f64 = 2.0;

/// Cap on any single backoff (µs).
const MAX_BACKOFF_US: u64 = 64_000;

/// Frame-level retry schedule: exponential backoff between attempts
/// (2 ms, doubling, capped at 64 ms) plus a per-session time budget.
/// §4.1 says the reader "re-transmits its packet until it gets a
/// response"; unbounded retransmission is how real deployments melt down
/// under a persistent fault, so the session bounds it twice — per-stage
/// attempt caps (in `ReaderConfig`) and this overall budget on
/// accumulated airtime + backoff.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total per-query budget (µs) across backoffs and estimated airtime
    /// (default: 60 s); once exceeded, no further attempts are started.
    pub budget_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            budget_us: 60_000_000,
        }
    }
}

impl RetryPolicy {
    /// Backoff before attempt number `attempt` (0-based; the initial
    /// transmission waits nothing, retry `n` waits `2 ms · 2^(n-1)`,
    /// capped at 64 ms).
    pub fn backoff_us(&self, attempt: u32) -> u64 {
        if attempt == 0 {
            return 0;
        }
        let exp = BACKOFF_FACTOR.powi(attempt as i32 - 1);
        let backoff = (BASE_BACKOFF_US as f64 * exp).min(MAX_BACKOFF_US as f64);
        backoff as u64
    }

    /// True if a session that has spent `waited_us` may start another
    /// attempt.
    pub fn within_budget(&self, waited_us: u64) -> bool {
        waited_us < self.budget_us
    }
}

/// The §5 rate-selection rule: with the helper delivering `helper_pps`
/// packets/s and the decoder wanting `pkts_per_bit` measurements per bit,
/// pick the fastest supported rate not exceeding
/// `margin · helper_pps / pkts_per_bit`. The margin < 1 is the paper's
/// "conservative bit rate estimate" guarding against bursty traffic.
pub fn select_bit_rate(helper_pps: f64, pkts_per_bit: u32, margin: f64) -> u64 {
    assert!(pkts_per_bit > 0);
    let max_rate = margin * helper_pps / f64::from(pkts_per_bit);
    SUPPORTED_RATES_BPS
        .iter()
        .rev()
        .find(|&&r| (r as f64) <= max_rate)
        .copied()
        .unwrap_or(SUPPORTED_RATES_BPS[0])
}

/// How many packets per bit the decoder will see on average at a chosen
/// rate — used by tests and the harness to sanity-check selections.
pub fn expected_pkts_per_bit(helper_pps: f64, bit_rate_bps: u64) -> f64 {
    helper_pps / bit_rate_bps as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_roundtrip() {
        let q = Query {
            tag_address: 0x42,
            payload_bits: 90,
            bit_rate_bps: 500,
            code_length: 1,
        };
        let f = q.to_frame().unwrap();
        assert_eq!(Query::from_frame(&f), Some(q));
    }

    #[test]
    fn coded_query_roundtrip() {
        let q = Query {
            tag_address: 1,
            payload_bits: 16,
            bit_rate_bps: 100,
            code_length: 150,
        };
        let f = q.to_frame().unwrap();
        let back = Query::from_frame(&f).unwrap();
        assert!(back.is_coded());
        assert_eq!(back.code_length, 150);
    }

    #[test]
    fn query_rejects_garbage() {
        assert_eq!(Query::from_frame(&DownlinkFrame::new(vec![0x01])), None);
        assert_eq!(Query::from_frame(&DownlinkFrame::new(vec![0xFF; 7])), None);
        // Bad rate index.
        let mut f = Query {
            tag_address: 0,
            payload_bits: 8,
            bit_rate_bps: 100,
            code_length: 1,
        }
        .to_frame()
        .unwrap();
        f.payload[4] = 9;
        assert_eq!(Query::from_frame(&f), None);
        // Zero code length.
        let mut g = Query {
            tag_address: 0,
            payload_bits: 8,
            bit_rate_bps: 100,
            code_length: 1,
        }
        .to_frame()
        .unwrap();
        g.payload[5] = 0;
        g.payload[6] = 0;
        assert_eq!(Query::from_frame(&g), None);
    }

    /// Regression: an unsupported rate used to panic the reader via
    /// `expect("unsupported bit rate")`; it now surfaces through the
    /// unified error type so transports can probe rates safely.
    #[test]
    fn query_unsupported_rate_is_an_error_not_a_panic() {
        for bps in [0, 99, 123, 999, 1001, u64::MAX] {
            let q = Query {
                tag_address: 0,
                payload_bits: 8,
                bit_rate_bps: bps,
                code_length: 1,
            };
            match q.to_frame() {
                Err(Error::Protocol(ProtocolError::UnsupportedRate { bps: got })) => {
                    assert_eq!(got, bps);
                }
                other => panic!("expected UnsupportedRate for {bps} bps, got {other:?}"),
            }
        }
        // Every supported rate still encodes.
        for bps in SUPPORTED_RATES_BPS {
            assert!(Query {
                tag_address: 0,
                payload_bits: 8,
                bit_rate_bps: bps,
                code_length: 1,
            }
            .to_frame()
            .is_ok());
        }
    }

    #[test]
    fn ack_roundtrip() {
        let a = Ack { tag_address: 7 };
        assert_eq!(Ack::from_frame(&a.to_frame()), Some(a));
        assert_eq!(Ack::from_frame(&DownlinkFrame::new(vec![0x01, 0x02])), None);
    }

    #[test]
    fn window_ack_roundtrip() {
        let w = WindowAck {
            tag_address: 9,
            msg_id: 200,
            cumulative: 0x1234,
            sack: 0xDEAD_BEEF,
        };
        assert_eq!(WindowAck::from_frame(&w.to_frame()), Some(w));
    }

    #[test]
    fn write_frame_overwrites_a_used_frame() {
        // A reused frame keeps no trace of its previous contents, and a
        // refused query leaves it untouched.
        let mut frame = DownlinkFrame::new(vec![0xEE; 20]);
        let w = WindowAck {
            tag_address: 9,
            msg_id: 200,
            cumulative: 0x1234,
            sack: 0xDEAD_BEEF,
        };
        w.write_frame(&mut frame);
        assert_eq!(frame, w.to_frame());
        let q = Query {
            tag_address: 3,
            payload_bits: 0x0102,
            bit_rate_bps: 500,
            code_length: 7,
        };
        q.write_frame(&mut frame).unwrap();
        assert_eq!(frame, q.to_frame().unwrap());
        let bad = Query {
            bit_rate_bps: 300,
            ..q.clone()
        };
        assert!(bad.write_frame(&mut frame).is_err());
        assert_eq!(Query::from_frame(&frame), Some(q));
    }

    #[test]
    fn window_ack_rejects_garbage_and_other_opcodes() {
        assert_eq!(WindowAck::from_frame(&DownlinkFrame::new(vec![0x03])), None);
        let q = Query {
            tag_address: 1,
            payload_bits: 8,
            bit_rate_bps: 100,
            code_length: 1,
        }
        .to_frame()
        .unwrap();
        assert_eq!(WindowAck::from_frame(&q), None);
        let a = Ack { tag_address: 1 }.to_frame();
        assert_eq!(WindowAck::from_frame(&a), None);
        // And the reverse: a window ACK parses as neither Query nor Ack.
        let w = WindowAck {
            tag_address: 1,
            msg_id: 0,
            cumulative: 0,
            sack: 0,
        }
        .to_frame();
        assert_eq!(Query::from_frame(&w), None);
        assert_eq!(Ack::from_frame(&w), None);
    }

    #[test]
    fn window_ack_sack_semantics() {
        let w = WindowAck {
            tag_address: 0,
            msg_id: 0,
            cumulative: 5,
            sack: 0b101, // acks seqs 6 and 8
        };
        for seq in 0..5 {
            assert!(w.acks(seq), "cumulative should cover {seq}");
        }
        assert!(!w.acks(5), "the window head is by definition unacked");
        assert!(w.acks(6));
        assert!(!w.acks(7));
        assert!(w.acks(8));
        assert!(!w.acks(9));
        // Far beyond the bitmap: never acknowledged, never panics.
        assert!(!w.acks(u16::MAX));
        // Full bitmap at the top of the seq space stays in range.
        let top = WindowAck {
            tag_address: 0,
            msg_id: 0,
            cumulative: u16::MAX,
            sack: u32::MAX,
        };
        assert!(top.acks(0));
        assert!(!top.acks(u16::MAX));
    }

    #[test]
    fn ack_is_tiny() {
        // §4.1: the tag "can reduce the overhead of the ACK packet" — ours
        // is 2 payload bytes → 48 on-air bits, 2.4 ms at 50 µs/bit.
        let a = Ack { tag_address: 0 };
        assert_eq!(a.to_frame().to_bits().len(), 48);
    }

    #[test]
    fn rate_selection_matches_fig12_operating_points() {
        // Fig. 12: ~100 bps at 500 pkts/s, ~1 kbps at ~3000 pkts/s, with
        // ~5 packets/bit sufficing at short range.
        assert_eq!(select_bit_rate(500.0, 4, 0.9), 100);
        assert_eq!(select_bit_rate(3_000.0, 2, 0.9), 1000);
        assert_eq!(select_bit_rate(1_200.0, 4, 0.9), 200);
    }

    #[test]
    fn rate_selection_is_conservative_under_margin() {
        // Exactly at the boundary, a smaller margin must drop a tier.
        let generous = select_bit_rate(1000.0, 2, 1.0);
        let cautious = select_bit_rate(1000.0, 2, 0.5);
        assert!(cautious < generous, "{cautious} vs {generous}");
    }

    #[test]
    fn rate_selection_floors_at_slowest() {
        assert_eq!(select_bit_rate(10.0, 30, 0.8), 100);
    }

    #[test]
    fn rate_monotone_in_load() {
        let mut prev = 0;
        for pps in [200.0, 600.0, 1500.0, 4000.0, 12_000.0] {
            let r = select_bit_rate(pps, 3, 0.9);
            assert!(r >= prev, "rate decreased at {pps}");
            prev = r;
        }
        assert_eq!(prev, 1000);
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_us(0), 0);
        assert_eq!(p.backoff_us(1), 2_000);
        assert_eq!(p.backoff_us(2), 4_000);
        assert_eq!(p.backoff_us(3), 8_000);
        // Far attempts hit the cap instead of overflowing.
        assert_eq!(p.backoff_us(20), MAX_BACKOFF_US);
        assert_eq!(p.backoff_us(63), MAX_BACKOFF_US);
    }

    #[test]
    fn budget_gates_attempts() {
        let p = RetryPolicy { budget_us: 10_000 };
        assert!(p.within_budget(0));
        assert!(p.within_budget(9_999));
        assert!(!p.within_budget(10_000));
        assert!(!p.within_budget(1_000_000));
    }

    #[test]
    fn expected_pkts_per_bit_math() {
        assert_eq!(expected_pkts_per_bit(3000.0, 100), 30.0);
        assert_eq!(expected_pkts_per_bit(500.0, 100), 5.0);
    }

    #[test]
    fn combining_enum_exists_for_protocol_consumers() {
        // The query implies a decoding mode at the reader.
        let q = Query {
            tag_address: 0,
            payload_bits: 8,
            bit_rate_bps: 100,
            code_length: 1,
        };
        use crate::uplink::Combining;
        let mode = if q.is_coded() {
            None
        } else {
            Some(Combining::Mrc)
        };
        assert_eq!(mode, Some(Combining::Mrc));
    }
}
