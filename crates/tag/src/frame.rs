//! Tag frame formats, smoltcp-style: typed encode/decode with explicit
//! error enums.
//!
//! **Uplink** (§6): `preamble (Barker-13) | payload | postamble`. The
//! reader uses the preamble and postamble to recover the bit clock. The
//! payload length is fixed by the query that solicited the frame, so no
//! length field is needed on the air.
//!
//! **Downlink** (§4.1): `preamble (16 bits) | length (8 bits) | payload |
//! CRC-8`. The paper's example message is a 64-bit payload with a 16-bit
//! preamble transmitted in 4 ms at 50 µs/bit.

use bs_dsp::bits::{bits_to_bytes, bytes_to_bits, crc8};
use bs_dsp::codes::BARKER13;

/// The downlink preamble: 16 bits with strong transition structure —
/// Barker-13 (as ±1 mapped to bits) padded with `101`. Chosen for the same
/// reason as the uplink preamble: low autocorrelation sidelobes make false
/// matches against ambient traffic unlikely (Fig. 18).
pub const DOWNLINK_PREAMBLE: [bool; 16] = [
    true, true, true, true, true, false, false, true, true, false, true, false,
    true, // Barker-13
    true, false, true, // pad
];

/// The uplink preamble as bits (Barker-13, +1 → `true`).
pub fn uplink_preamble() -> Vec<bool> {
    BARKER13.iter().map(|&c| c > 0).collect()
}

/// The uplink postamble: the reversed preamble, giving the reader a second
/// timing anchor at the end of the frame.
fn uplink_postamble() -> Vec<bool> {
    let mut p = uplink_preamble();
    p.reverse();
    p
}

/// Errors from decoding a tag frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Not enough bits for the fixed header fields.
    Truncated,
    /// The length field exceeds the bits actually present.
    BadLength,
    /// CRC mismatch.
    BadCrc {
        /// CRC computed over the received payload.
        computed: u8,
        /// CRC carried in the frame.
        received: u8,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::BadLength => write!(f, "length field exceeds frame"),
            FrameError::BadCrc { computed, received } => {
                write!(
                    f,
                    "CRC mismatch: computed {computed:#04x}, received {received:#04x}"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// An uplink frame: what the tag backscatters in response to a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UplinkFrame {
    /// Payload bits (the paper's evaluation uses 90-bit messages, §7.1).
    pub payload: Vec<bool>,
}

impl UplinkFrame {
    /// Creates a frame from payload bits.
    pub fn new(payload: Vec<bool>) -> Self {
        UplinkFrame { payload }
    }

    /// The on-air bit sequence: preamble | payload | postamble.
    pub fn to_bits(&self) -> Vec<bool> {
        let mut bits = uplink_preamble();
        bits.extend_from_slice(&self.payload);
        bits.extend(uplink_postamble());
        bits
    }

    /// Total on-air bits for a payload of `n` bits.
    pub fn on_air_len(n: usize) -> usize {
        n + 2 * BARKER13.len()
    }

    /// Extracts the payload from a decoded on-air bit sequence of known
    /// payload length (the reader knows the length from its query).
    pub fn from_bits(bits: &[bool], payload_len: usize) -> Result<UplinkFrame, FrameError> {
        let pre = BARKER13.len();
        if bits.len() < Self::on_air_len(payload_len) {
            return Err(FrameError::Truncated);
        }
        Ok(UplinkFrame {
            payload: bits[pre..pre + payload_len].to_vec(),
        })
    }
}

/// A downlink frame: what the reader sends to the tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DownlinkFrame {
    /// Payload bytes (queries are small: an opcode plus parameters).
    pub payload: Vec<u8>,
}

impl DownlinkFrame {
    /// Maximum payload length (bytes).
    ///
    /// Capped at 127 rather than the length field's full 255 so the
    /// length byte's MSB is always 0: the preamble ends in a `1` bit, and
    /// the first body bit must differ from it or the preamble's final run
    /// would merge into the body and the tag's run-length matcher could
    /// never anchor the frame end (pinned by the test
    /// `max_payload_first_body_bit_is_zero`).
    pub const MAX_PAYLOAD: usize = 127;

    /// Creates a frame.
    ///
    /// # Panics
    /// Panics if the payload exceeds [`Self::MAX_PAYLOAD`].
    pub fn new(payload: Vec<u8>) -> Self {
        assert!(
            payload.len() <= Self::MAX_PAYLOAD,
            "downlink payload too long"
        );
        DownlinkFrame { payload }
    }

    /// The on-air bit sequence: preamble | length | payload | CRC-8.
    pub fn to_bits(&self) -> Vec<bool> {
        let mut bits: Vec<bool> = DOWNLINK_PREAMBLE.to_vec();
        bits.extend(bytes_to_bits(&[self.payload.len() as u8]));
        bits.extend(bytes_to_bits(&self.payload));
        bits.extend(bytes_to_bits(&[crc8(&self.payload)]));
        bits
    }

    /// Total on-air bits for a payload of `n` bytes.
    pub fn on_air_len(n: usize) -> usize {
        DOWNLINK_PREAMBLE.len() + 8 + n * 8 + 8
    }

    /// Decodes the body (everything *after* the preamble — the receiver
    /// strips the preamble during detection).
    pub fn from_body_bits(bits: &[bool]) -> Result<DownlinkFrame, FrameError> {
        if bits.len() < 16 {
            return Err(FrameError::Truncated);
        }
        let len = bits_to_bytes(&bits[0..8])[0] as usize;
        let need = 8 + len * 8 + 8;
        if len > Self::MAX_PAYLOAD || bits.len() < need {
            return Err(FrameError::BadLength);
        }
        let payload = bits_to_bytes(&bits[8..8 + len * 8]);
        let received = bits_to_bytes(&bits[8 + len * 8..need])[0];
        let computed = crc8(&payload);
        if computed != received {
            return Err(FrameError::BadCrc { computed, received });
        }
        Ok(DownlinkFrame { payload })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uplink_roundtrip() {
        let payload: Vec<bool> = (0..90).map(|i| i % 3 == 0).collect();
        let f = UplinkFrame::new(payload.clone());
        let bits = f.to_bits();
        assert_eq!(bits.len(), UplinkFrame::on_air_len(90));
        let g = UplinkFrame::from_bits(&bits, 90).unwrap();
        assert_eq!(g.payload, payload);
    }

    #[test]
    fn uplink_truncated_rejected() {
        let f = UplinkFrame::new(vec![true; 10]);
        let bits = f.to_bits();
        assert_eq!(
            UplinkFrame::from_bits(&bits[..20], 10),
            Err(FrameError::Truncated)
        );
    }

    #[test]
    fn uplink_preamble_is_barker13() {
        let p = uplink_preamble();
        assert_eq!(p.len(), 13);
        assert!(p[0]);
        let post = uplink_postamble();
        assert!(post[12]);
        let mut rev = post.clone();
        rev.reverse();
        assert_eq!(rev, p);
    }

    #[test]
    fn downlink_roundtrip() {
        let f = DownlinkFrame::new(vec![0xDE, 0xAD, 0xBE, 0xEF]);
        let bits = f.to_bits();
        assert_eq!(bits.len(), DownlinkFrame::on_air_len(4));
        let body = &bits[16..];
        let g = DownlinkFrame::from_body_bits(body).unwrap();
        assert_eq!(g, f);
    }

    #[test]
    fn downlink_empty_payload_roundtrip() {
        let f = DownlinkFrame::new(vec![]);
        let bits = f.to_bits();
        let g = DownlinkFrame::from_body_bits(&bits[16..]).unwrap();
        assert!(g.payload.is_empty());
    }

    #[test]
    fn downlink_crc_detects_payload_corruption() {
        let f = DownlinkFrame::new(vec![1, 2, 3]);
        let mut bits = f.to_bits();
        // Flip one payload bit (after preamble + length).
        let idx = 16 + 8 + 5;
        bits[idx] = !bits[idx];
        match DownlinkFrame::from_body_bits(&bits[16..]) {
            Err(FrameError::BadCrc { .. }) => {}
            other => panic!("expected BadCrc, got {other:?}"),
        }
    }

    #[test]
    fn downlink_bad_length_detected() {
        let f = DownlinkFrame::new(vec![1, 2, 3]);
        let mut bits = f.to_bits();
        // Corrupt the length field upward (set all length bits).
        for b in bits.iter_mut().skip(16).take(8) {
            *b = true;
        }
        assert_eq!(
            DownlinkFrame::from_body_bits(&bits[16..]),
            Err(FrameError::BadLength)
        );
    }

    #[test]
    fn downlink_truncated_detected() {
        assert_eq!(
            DownlinkFrame::from_body_bits(&[true; 8]),
            Err(FrameError::Truncated)
        );
    }

    #[test]
    fn paper_example_frame_timing() {
        // §4.1: 64-bit payload + 16-bit preamble ≈ 4.0 ms at 50 µs/bit.
        // With our explicit length + CRC fields: 16 + 8 + 64 + 8 = 96 bits
        // → 4.8 ms; the paper's 80-bit figure is preamble + payload only.
        let bits = DownlinkFrame::on_air_len(8);
        assert_eq!(bits, 96);
        let at_50us_ms = bits as f64 * 50.0 / 1000.0;
        assert!((4.0..=5.0).contains(&at_50us_ms));
    }

    #[test]
    #[should_panic(expected = "too long")]
    fn oversize_downlink_panics() {
        DownlinkFrame::new(vec![0; 128]);
    }

    #[test]
    fn max_payload_first_body_bit_is_zero() {
        // The constraint MAX_PAYLOAD guards: the first body bit (length
        // MSB) must be 0 to terminate the preamble's final `1` run.
        let f = DownlinkFrame::new(vec![0xAB; DownlinkFrame::MAX_PAYLOAD]);
        let bits = f.to_bits();
        assert!(DOWNLINK_PREAMBLE[15]);
        assert!(!bits[16], "length MSB must be 0");
    }

    #[test]
    fn frame_error_display() {
        assert_eq!(FrameError::Truncated.to_string(), "frame truncated");
        assert!(FrameError::BadCrc {
            computed: 1,
            received: 2
        }
        .to_string()
        .contains("CRC"));
    }
}
