//! The crate's error types: one leaf enum per fallible domain
//! ([`SeriesError`], [`DecodeError`], [`SessionError`], [`EncodeError`],
//! [`ProtocolError`]), defined here and only here. Each fallible public
//! API returns its own leaf, so a caller matches exactly the failures
//! that call can have:
//!
//! ```
//! use wifi_backscatter::error::ProtocolError;
//! use wifi_backscatter::protocol::Query;
//!
//! let q = Query { tag_address: 7, payload_bits: 16, bit_rate_bps: 123, code_length: 1 };
//! assert_eq!(q.to_frame(), Err(ProtocolError::UnsupportedRate { bps: 123 }));
//! ```

/// Why a [`crate::series::SeriesBundle`] refused a packet: the decoders
/// bin packets by MAC timestamp, so the time axis must ascend and every
/// packet must carry one value per channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesError {
    /// The packet's timestamp is earlier than the one before it.
    Backwards {
        /// 0-based packet index.
        packet: usize,
    },
    /// The packet does not carry exactly one value per channel.
    Width {
        /// 0-based packet index.
        packet: usize,
    },
}

impl std::fmt::Display for SeriesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SeriesError::Backwards { packet } => {
                write!(f, "timestamp runs backwards at packet {packet}")
            }
            SeriesError::Width { packet } => {
                write!(f, "packet {packet} does not carry one value per channel")
            }
        }
    }
}

impl std::error::Error for SeriesError {}

/// Why a decoder refused a [`crate::series::SlotIndex`]: the index
/// conditioned its channels once, with one half-window, and decoding
/// them with another decoder's window would read the wrong series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The index was conditioned with another half-window than the
    /// decoder's window yields on this capture.
    HalfWindow {
        /// The index's half-window (packets).
        index: usize,
        /// The decoder's half-window (packets).
        decoder: usize,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::HalfWindow { index, decoder } => write!(
                f,
                "index conditioned with a {index}-packet half-window, decoder needs {decoder}"
            ),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Errors a reader session can surface to the application (see
/// [`crate::session`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The downlink query was never acknowledged by a decodable response,
    /// even after all retries (tag out of range, unpowered, or absent).
    TagUnresponsive {
        /// Query transmissions attempted.
        attempts: u32,
    },
    /// A response was detected but never decoded cleanly.
    ResponseGarbled {
        /// Bit errors in the best attempt.
        best_bit_errors: u64,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::TagUnresponsive { attempts } => {
                write!(f, "tag unresponsive after {attempts} query attempts")
            }
            SessionError::ResponseGarbled { best_bit_errors } => {
                write!(f, "response garbled ({best_bit_errors} bit errors at best)")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// Errors from downlink encoding (see [`crate::downlink`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeError {
    /// The frame's on-air length exceeds one CTS_to_SELF reservation; use
    /// [`crate::downlink::DownlinkEncoder::encode_multi`] with smaller
    /// frames.
    TooLongForReservation {
        /// Bits needed.
        needed: usize,
        /// Bits available in one reservation.
        available: usize,
    },
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::TooLongForReservation { needed, available } => write!(
                f,
                "frame needs {needed} bits but one 32 ms reservation fits {available}"
            ),
        }
    }
}

impl std::error::Error for EncodeError {}

/// Errors from building protocol frames (see [`crate::protocol`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolError {
    /// The requested uplink bit rate is not one of
    /// [`crate::protocol::SUPPORTED_RATES_BPS`], so it has no wire
    /// encoding. Transports probing rates must handle this instead of
    /// crashing the reader.
    UnsupportedRate {
        /// The offending rate (bits/s).
        bps: u64,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::UnsupportedRate { bps } => {
                write!(f, "bit rate {bps} bps has no wire encoding")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_error_display_names_the_rate() {
        let s = ProtocolError::UnsupportedRate { bps: 123 }.to_string();
        assert!(s.contains("123"), "{s}");
    }
}
