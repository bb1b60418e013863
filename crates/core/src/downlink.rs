//! The reader's downlink encoder (§4.1).
//!
//! The reader can only transmit Wi-Fi packets; the tag can only detect
//! energy. So the reader encodes a `1` as the presence of a short Wi-Fi
//! packet and a `0` as an equal-length silence, and reserves the medium
//! with a CTS_to_SELF first so that other (protocol-unaware) Wi-Fi devices
//! do not fill the silences. The 802.11 standard caps one reservation at
//! 32 ms; messages that don't fit are split across multiple reservations,
//! one complete frame per reservation.

use crate::error as err;
use bs_tag::frame::DownlinkFrame;
use bs_wifi::frame::{FrameKind, StationId, WifiFrame, MAX_NAV_US};

/// The reader's station id on the medium.
const READER: StationId = 0;

/// Airtime of the CTS_to_SELF control frame itself (µs).
const CTS_DURATION_US: u64 = 30;

/// Guard silence between the CTS frame and the first data bit (µs),
/// letting the tag's comparator settle.
const GUARD_US: u64 = 100;

/// A fully-scheduled downlink transmission.
#[derive(Debug, Clone, PartialEq)]
pub struct DownlinkTransmission {
    /// Every frame the reader puts on the air (CTS_to_SELF reservations
    /// and the marker packets for `1` bits), in time order. Feed these to
    /// the MAC medium as pre-scheduled transmissions.
    pub frames: Vec<WifiFrame>,
    /// The encoded bit sequence.
    pub bits: Vec<bool>,
    /// Start time (µs) of each bit interval.
    pub bit_starts_us: Vec<u64>,
    /// When the first data bit begins.
    pub data_start_us: u64,
    /// When the transmission (including NAV) ends.
    pub end_us: u64,
}

impl DownlinkTransmission {
    /// Signal-presence at time `t_us`: true while a marker packet (or CTS)
    /// is on the air. This drives the tag-side envelope model.
    pub fn on_air(&self, t_us: u64) -> bool {
        // Frames are in time order; linear scan is fine for tests, but the
        // envelope loop calls this per microsecond — binary search on start.
        let idx = self.frames.partition_point(|f| f.timestamp_us <= t_us);
        if idx == 0 {
            return false;
        }
        let f = &self.frames[idx - 1];
        t_us < f.end_us()
    }
}

/// The downlink encoder.
#[derive(Debug, Clone, Copy)]
pub struct DownlinkEncoder {
    /// Bit duration = marker packet duration = silence duration (µs).
    /// Paper rates: 50 µs → 20 kbps, 100 µs → 10 kbps, 200 µs → 5 kbps.
    bit_duration_us: u64,
}

impl DownlinkEncoder {
    /// An encoder at `bit_rate_bps` (bits/s).
    ///
    /// # Panics
    /// If the rate is 0 or above 1 Mbit/s (a bit shorter than 1 µs).
    pub fn new(bit_rate_bps: u64) -> Self {
        assert!(
            (1..=1_000_000).contains(&bit_rate_bps),
            "downlink rate {bit_rate_bps} bps outside 1..=1_000_000"
        );
        DownlinkEncoder {
            bit_duration_us: 1_000_000 / bit_rate_bps,
        }
    }

    /// How many bits fit in one CTS_to_SELF reservation.
    fn bits_per_reservation(&self) -> usize {
        ((MAX_NAV_US - GUARD_US) / self.bit_duration_us) as usize
    }

    /// Encodes one frame into a scheduled transmission starting at
    /// `start_us`.
    pub fn encode(
        &self,
        frame: &DownlinkFrame,
        start_us: u64,
    ) -> Result<DownlinkTransmission, err::EncodeError> {
        let bits = frame.to_bits();
        let capacity = self.bits_per_reservation();
        if bits.len() > capacity {
            return Err(err::EncodeError::TooLongForReservation {
                needed: bits.len(),
                available: capacity,
            });
        }
        let bit = self.bit_duration_us;
        let nav = GUARD_US + bits.len() as u64 * bit;
        let mut frames = vec![WifiFrame {
            kind: FrameKind::CtsToSelf { nav_us: nav },
            src: READER,
            timestamp_us: start_us,
            duration_us: CTS_DURATION_US,
        }];
        let data_start = start_us + CTS_DURATION_US + GUARD_US;
        let mut bit_starts = Vec::with_capacity(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            let t = data_start + i as u64 * bit;
            bit_starts.push(t);
            if b {
                frames.push(WifiFrame {
                    kind: FrameKind::DownlinkMarker,
                    src: READER,
                    timestamp_us: t,
                    duration_us: bit,
                });
            }
        }
        let end = data_start + bits.len() as u64 * bit;
        Ok(DownlinkTransmission {
            frames,
            bits,
            bit_starts_us: bit_starts,
            data_start_us: data_start,
            end_us: end,
        })
    }

    /// Encodes a sequence of frames, one CTS_to_SELF reservation per frame,
    /// separated by `gap_us` of idle medium (during which normal traffic
    /// proceeds).
    pub fn encode_multi(
        &self,
        frames: &[DownlinkFrame],
        start_us: u64,
        gap_us: u64,
    ) -> Result<Vec<DownlinkTransmission>, err::EncodeError> {
        let mut out = Vec::with_capacity(frames.len());
        let mut t = start_us;
        for f in frames {
            let tx = self.encode(f, t)?;
            t = tx.end_us + gap_us;
            out.push(tx);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::DownlinkEncoder;
    use crate::error::EncodeError;
    use bs_tag::frame::DownlinkFrame;
    use bs_wifi::frame::{FrameKind, MAX_NAV_US};

    fn encoder(rate: u64) -> DownlinkEncoder {
        DownlinkEncoder::new(rate)
    }

    #[test]
    fn rates_map_to_paper_bit_durations() {
        let f = DownlinkFrame::new(vec![0xAA]);
        for (rate, bit_us) in [(20_000, 50), (10_000, 100), (5_000, 200)] {
            let tx = encoder(rate).encode(&f, 0).unwrap();
            assert_eq!(tx.bit_starts_us[1] - tx.bit_starts_us[0], bit_us);
        }
    }

    #[test]
    fn marker_frames_match_one_bits() {
        let f = DownlinkFrame::new(vec![0xF0]);
        let tx = encoder(20_000).encode(&f, 1_000).unwrap();
        let markers = tx
            .frames
            .iter()
            .filter(|fr| fr.kind == FrameKind::DownlinkMarker)
            .count();
        let ones = tx.bits.iter().filter(|&&b| b).count();
        assert_eq!(markers, ones);
        // CTS first.
        assert!(matches!(tx.frames[0].kind, FrameKind::CtsToSelf { .. }));
        assert_eq!(tx.frames[0].timestamp_us, 1_000);
    }

    #[test]
    fn nav_covers_whole_message() {
        let f = DownlinkFrame::new(vec![1, 2, 3, 4]);
        let tx = encoder(20_000).encode(&f, 0).unwrap();
        let nav = tx.frames[0].nav_us();
        let msg_span = tx.end_us - tx.frames[0].end_us();
        assert!(nav >= msg_span, "nav {nav} < span {msg_span}");
        assert!(nav <= MAX_NAV_US);
    }

    #[test]
    fn bit_starts_are_contiguous() {
        let f = DownlinkFrame::new(vec![0xAA, 0x55]);
        let tx = encoder(10_000).encode(&f, 500).unwrap();
        assert_eq!(tx.bit_starts_us.len(), tx.bits.len());
        for w in tx.bit_starts_us.windows(2) {
            assert_eq!(w[1] - w[0], 100);
        }
        assert_eq!(tx.bit_starts_us[0], tx.data_start_us);
    }

    #[test]
    fn on_air_tracks_markers_and_silences() {
        let f = DownlinkFrame::new(vec![0b1010_0000]);
        let tx = encoder(20_000).encode(&f, 1_000).unwrap();
        // Preamble starts with five 1s: first data bit is on the air.
        assert!(tx.on_air(tx.data_start_us + 10));
        // Find a 0 bit and check silence mid-bit.
        let zero_idx = tx.bits.iter().position(|&b| !b).unwrap();
        assert!(!tx.on_air(tx.bit_starts_us[zero_idx] + 25));
        // Before the transmission begins: silent.
        assert!(!tx.on_air(500));
    }

    #[test]
    fn paper_example_is_about_4ms() {
        // 64-bit payload (8 bytes): 96 on-air bits at 50 µs ≈ 4.8 ms, fits
        // easily in one 32 ms reservation.
        let f = DownlinkFrame::new(vec![0; 8]);
        let tx = encoder(20_000).encode(&f, 0).unwrap();
        let span_ms = (tx.end_us - tx.data_start_us) as f64 / 1000.0;
        assert!((4.0..=5.0).contains(&span_ms), "{span_ms} ms");
    }

    #[test]
    fn oversize_frame_rejected() {
        // At 5 kbps (200 µs bits) one reservation fits ~159 bits; a 32-byte
        // payload needs 16+8+256+8 = 288 bits.
        let f = DownlinkFrame::new(vec![0; 32]);
        match encoder(5_000).encode(&f, 0) {
            Err(EncodeError::TooLongForReservation { needed, available }) => {
                assert_eq!(needed, 288);
                assert!(available < needed);
            }
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn encode_multi_spaces_reservations() {
        let frames = vec![DownlinkFrame::new(vec![1]), DownlinkFrame::new(vec![2])];
        let txs = encoder(20_000).encode_multi(&frames, 0, 5_000).unwrap();
        assert_eq!(txs.len(), 2);
        assert_eq!(txs[1].frames[0].timestamp_us, txs[0].end_us + 5_000);
    }

    #[test]
    fn error_display() {
        let e = EncodeError::TooLongForReservation {
            needed: 100,
            available: 50,
        };
        assert!(e.to_string().contains("100"));
    }
}
