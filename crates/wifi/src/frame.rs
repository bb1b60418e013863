//! Typed Wi-Fi frames and airtime arithmetic.
//!
//! The simulation doesn't need byte-accurate 802.11 headers; it needs the
//! *timing* and *identity* of frames: who sent them, when, for how long,
//! and whether they reserve the medium (CTS_to_SELF, §4.1). Frame kinds and
//! durations follow the 802.11g/n figures the paper quotes: the smallest
//! useful packet is ≈40 µs at 54 Mbps, and CTS_to_SELF can reserve up to
//! 32 ms.

/// Station identifier within a simulated collision domain.
pub type StationId = usize;

/// PHY preamble + PLCP header duration for OFDM (802.11g/n), µs.
pub const PHY_OVERHEAD_US: u64 = 20;

/// Maximum NAV reservation a CTS_to_SELF may establish (§4.1: 32 ms).
pub const MAX_NAV_US: u64 = 32_000;

/// The kinds of frames the simulation distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// A unicast data frame.
    Data,
    /// A periodic AP beacon (§7.5).
    Beacon,
    /// A CTS_to_SELF reservation covering `nav_us` after the frame.
    CtsToSelf {
        /// NAV duration in µs the frame reserves for its sender.
        nav_us: u64,
    },
    /// A link-layer acknowledgement.
    Ack,
    /// A downlink "marker" packet used by the Wi-Fi Backscatter reader to
    /// encode a `1` bit toward the tag (§4.1).
    DownlinkMarker,
}

/// A transmitted Wi-Fi frame as observed on the medium.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WifiFrame {
    /// What kind of frame this is.
    pub kind: FrameKind,
    /// Transmitting station.
    pub src: StationId,
    /// MAC timestamp: transmission start, µs since simulation start. This
    /// is the per-packet timestamp the paper's reader uses to bin channel
    /// measurements into bit intervals (§3.2, §5).
    pub timestamp_us: u64,
    /// Time on air, µs (including PHY overhead).
    pub duration_us: u64,
}

impl WifiFrame {
    /// End of the transmission, µs.
    pub fn end_us(&self) -> u64 {
        self.timestamp_us + self.duration_us
    }

    /// The NAV this frame sets for *other* stations, if any.
    pub fn nav_us(&self) -> u64 {
        match self.kind {
            FrameKind::CtsToSelf { nav_us } => nav_us.min(MAX_NAV_US),
            _ => 0,
        }
    }
}

/// Time on air (µs) of a payload of `bytes` at `rate_mbps`, including PHY
/// overhead. Rounds the symbol payload time up to a whole microsecond.
pub fn airtime_us(bytes: usize, rate_mbps: f64) -> u64 {
    assert!(rate_mbps > 0.0, "rate must be positive");
    let bits = (bytes * 8) as f64;
    PHY_OVERHEAD_US + (bits / rate_mbps).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn airtime_of_1500_bytes_at_54mbps() {
        // 12000 bits / 54 Mbps ≈ 222 µs + 20 µs PHY.
        let t = airtime_us(1500, 54.0);
        assert!((242..=244).contains(&t), "{t}");
    }

    #[test]
    fn airtime_monotone_in_size() {
        assert!(airtime_us(100, 54.0) < airtime_us(1000, 54.0));
    }

    #[test]
    fn airtime_monotone_in_rate() {
        assert!(airtime_us(1500, 54.0) < airtime_us(1500, 6.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn airtime_zero_rate_panics() {
        airtime_us(100, 0.0);
    }

    #[test]
    fn frame_end_and_nav() {
        let f = WifiFrame {
            kind: FrameKind::CtsToSelf { nav_us: 4_000 },
            src: 0,
            timestamp_us: 100,
            duration_us: 44,
        };
        assert_eq!(f.end_us(), 144);
        assert_eq!(f.nav_us(), 4_000);
        let d = WifiFrame {
            kind: FrameKind::Data,
            src: 1,
            timestamp_us: 0,
            duration_us: 244,
        };
        assert_eq!(d.nav_us(), 0);
    }

    #[test]
    fn nav_clamped_to_standard_maximum() {
        let f = WifiFrame {
            kind: FrameKind::CtsToSelf { nav_us: 1_000_000 },
            src: 0,
            timestamp_us: 0,
            duration_us: 44,
        };
        assert_eq!(f.nav_us(), MAX_NAV_US);
    }
}
