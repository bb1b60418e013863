//! The unified error hierarchy for the crate.
//!
//! Every leaf error enum ([`SeriesError`], [`DecodeError`], [`TraceError`],
//! [`SessionError`], [`EncodeError`], [`ProtocolError`]) is defined here
//! and only here, wrapped by one top-level [`Error`] with `From` impls, so
//! applications can hold a single error type:
//!
//! ```
//! use wifi_backscatter::error::Error;
//!
//! fn load(text: &str) -> Result<wifi_backscatter::SeriesBundle, Error> {
//!     Ok(wifi_backscatter::trace::from_text(text)?) // TraceError → Error
//! }
//! assert!(load("not a capture").is_err());
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

/// Errors from parsing a capture trace (see [`crate::trace`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The header line is missing or wrong.
    BadHeader,
    /// A data line has the wrong number of fields or an unparsable value.
    BadLine {
        /// 1-based line number.
        line: usize,
    },
    /// Timestamps are not non-decreasing.
    UnsortedTimestamps {
        /// 1-based line number where order broke.
        line: usize,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadHeader => write!(f, "missing or invalid capture header"),
            TraceError::BadLine { line } => write!(f, "malformed data on line {line}"),
            TraceError::UnsortedTimestamps { line } => {
                write!(f, "timestamps go backwards at line {line}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

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

/// The crate-wide error type: every fallible public API converts into it
/// via `?`.
///
/// Marked `#[non_exhaustive]`: future releases may add variants without a
/// breaking change, so downstream matches need a wildcard arm.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A packet broke a series bundle's invariant.
    Series(SeriesError),
    /// A decoder refused a slot index.
    Decode(DecodeError),
    /// Capture trace parsing failed.
    Trace(TraceError),
    /// A reader session gave up.
    Session(SessionError),
    /// Downlink encoding failed.
    Encode(EncodeError),
    /// Protocol frame construction failed.
    Protocol(ProtocolError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Series(e) => write!(f, "series: {e}"),
            Error::Decode(e) => write!(f, "decode: {e}"),
            Error::Trace(e) => write!(f, "trace: {e}"),
            Error::Session(e) => write!(f, "session: {e}"),
            Error::Encode(e) => write!(f, "encode: {e}"),
            Error::Protocol(e) => write!(f, "protocol: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Series(e) => Some(e),
            Error::Decode(e) => Some(e),
            Error::Trace(e) => Some(e),
            Error::Session(e) => Some(e),
            Error::Encode(e) => Some(e),
            Error::Protocol(e) => Some(e),
        }
    }
}

impl From<SeriesError> for Error {
    fn from(e: SeriesError) -> Self {
        Error::Series(e)
    }
}

impl From<DecodeError> for Error {
    fn from(e: DecodeError) -> Self {
        Error::Decode(e)
    }
}

impl From<TraceError> for Error {
    fn from(e: TraceError) -> Self {
        Error::Trace(e)
    }
}

impl From<SessionError> for Error {
    fn from(e: SessionError) -> Self {
        Error::Session(e)
    }
}

impl From<EncodeError> for Error {
    fn from(e: EncodeError) -> Self {
        Error::Encode(e)
    }
}

impl From<ProtocolError> for Error {
    fn from(e: ProtocolError) -> Self {
        Error::Protocol(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_impls_wrap_each_leaf() {
        let b: Error = SeriesError::Backwards { packet: 1 }.into();
        assert_eq!(b, Error::Series(SeriesError::Backwards { packet: 1 }));
        let d: Error = DecodeError::HalfWindow {
            index: 2,
            decoder: 3,
        }
        .into();
        assert!(matches!(d, Error::Decode(_)));
        let t: Error = TraceError::BadHeader.into();
        assert_eq!(t, Error::Trace(TraceError::BadHeader));
        let s: Error = SessionError::TagUnresponsive { attempts: 2 }.into();
        assert!(matches!(s, Error::Session(_)));
        let e: Error = EncodeError::TooLongForReservation {
            needed: 10,
            available: 5,
        }
        .into();
        assert!(matches!(e, Error::Encode(_)));
        let p: Error = ProtocolError::UnsupportedRate { bps: 123 }.into();
        assert!(matches!(p, Error::Protocol(_)));
    }

    #[test]
    fn protocol_error_display_names_the_rate() {
        let e = Error::from(ProtocolError::UnsupportedRate { bps: 123 });
        let s = e.to_string();
        assert!(s.starts_with("protocol:"), "{s}");
        assert!(s.contains("123"), "{s}");
    }

    #[test]
    fn display_prefixes_the_domain() {
        let e = Error::from(TraceError::BadLine { line: 3 });
        let s = e.to_string();
        assert!(s.starts_with("trace:"), "{s}");
        assert!(s.contains('3'));
    }

    #[test]
    fn source_exposes_the_leaf() {
        use std::error::Error as _;
        let e = Error::from(SessionError::ResponseGarbled { best_bit_errors: 1 });
        assert!(e.source().unwrap().to_string().contains("garbled"));
    }

    #[test]
    fn question_mark_converts() {
        fn inner() -> Result<(), TraceError> {
            Err(TraceError::BadHeader)
        }
        fn outer() -> Result<(), Error> {
            inner()?;
            Ok(())
        }
        assert_eq!(outer(), Err(Error::Trace(TraceError::BadHeader)));
    }
}
