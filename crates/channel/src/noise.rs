//! Thermal noise floor.
//!
//! The receiver noise floor anchors both the CSI measurement noise on the
//! uplink (how faint a backscatter differential the reader can see) and the
//! envelope-detector noise on the downlink.

use crate::pathloss::db_to_linear;

/// Thermal noise power spectral density at 290 K, in dBm/Hz.
pub const KT_DBM_PER_HZ: f64 = -174.0;

/// Receiver noise model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseConfig {
    /// Receiver noise figure in dB (commodity Wi-Fi cards: ~5–8 dB).
    pub noise_figure_db: f64,
}

impl Default for NoiseConfig {
    fn default() -> Self {
        NoiseConfig {
            noise_figure_db: 6.0,
        }
    }
}

impl NoiseConfig {
    /// Noise power (dBm) in a bandwidth of `bw_hz`.
    fn noise_dbm(&self, bw_hz: f64) -> f64 {
        KT_DBM_PER_HZ + 10.0 * bw_hz.log10() + self.noise_figure_db
    }

    /// Noise power (mW) in a bandwidth of `bw_hz`.
    pub fn noise_mw(&self, bw_hz: f64) -> f64 {
        db_to_linear(self.noise_dbm(bw_hz))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_floor_20mhz_is_about_minus_95() {
        // kTB over 20 MHz = -101 dBm; +6 dB NF → -95 dBm.
        let n = NoiseConfig::default();
        assert!(
            (n.noise_dbm(20e6) + 95.0).abs() < 0.1,
            "{}",
            n.noise_dbm(20e6)
        );
    }

    #[test]
    fn noise_scales_with_bandwidth() {
        let n = NoiseConfig::default();
        let d = n.noise_dbm(20e6) - n.noise_dbm(2e6);
        assert!((d - 10.0).abs() < 1e-9);
    }

    #[test]
    fn per_subcarrier_noise() {
        // One OFDM subcarrier is 312.5 kHz → kTB = -119 dBm; +6 → -113 dBm.
        let n = NoiseConfig::default();
        assert!((n.noise_dbm(312_500.0) + 113.05).abs() < 0.1);
    }
}
