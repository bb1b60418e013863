//! Path-loss models and dB/linear conversions.
//!
//! Indoor 2.4 GHz propagation is modelled with the standard log-distance
//! model anchored at a 1 m free-space reference, with a configurable
//! exponent (2.0 = free space, ~2.8 typical indoors) plus per-wall
//! penetration losses from [`crate::geometry`].

/// Speed of light (m/s).
pub const C: f64 = 299_792_458.0;

/// Centre frequency of Wi-Fi channel 6 (Hz) — the channel used throughout
/// the paper's evaluation (§7.1).
pub const WIFI_CH6_HZ: f64 = 2.437e9;

/// Wavelength at a given frequency (m).
pub fn wavelength(freq_hz: f64) -> f64 {
    C / freq_hz
}

/// Converts decibels to a linear power ratio.
pub fn db_to_linear(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Converts a linear power ratio to decibels.
pub fn linear_to_db(lin: f64) -> f64 {
    10.0 * lin.log10()
}

/// Converts dBm to milliwatts.
pub fn dbm_to_mw(dbm: f64) -> f64 {
    db_to_linear(dbm)
}

/// Converts milliwatts to dBm.
pub fn mw_to_dbm(mw: f64) -> f64 {
    linear_to_db(mw)
}

/// Free-space path loss (dB) at distance `d` metres and frequency `f` Hz.
/// Clamps distances below 1 cm to avoid the near-field singularity.
pub fn free_space_db(d_m: f64, freq_hz: f64) -> f64 {
    let d = d_m.max(0.01);
    let lambda = wavelength(freq_hz);
    20.0 * (4.0 * std::f64::consts::PI * d / lambda).log10()
}

/// Log-distance path-loss model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogDistance {
    /// Path-loss exponent (2.0 free space, 2.5–3.5 indoor).
    pub exponent: f64,
    /// Carrier frequency (Hz).
    pub freq_hz: f64,
}

impl Default for LogDistance {
    fn default() -> Self {
        LogDistance {
            exponent: 2.6,
            freq_hz: WIFI_CH6_HZ,
        }
    }
}

impl LogDistance {
    /// Path loss in dB at distance `d_m` metres: free-space loss to the 1 m
    /// reference, then `10·n·log10(d)` beyond it.
    pub fn loss_db(&self, d_m: f64) -> f64 {
        let d = d_m.max(0.01);
        let ref_loss = free_space_db(1.0, self.freq_hz);
        if d <= 1.0 {
            // Inside the reference distance fall back to free space — the
            // log-distance exponent only applies beyond the reference.
            free_space_db(d, self.freq_hz)
        } else {
            ref_loss + 10.0 * self.exponent * d.log10()
        }
    }

    /// Linear *amplitude* gain (√ of the power gain) at distance `d_m`.
    pub fn amplitude_gain(&self, d_m: f64) -> f64 {
        db_to_linear(-self.loss_db(d_m)).sqrt()
    }

    /// Linear power gain at distance `d_m` (≤ 1).
    pub fn power_gain(&self, d_m: f64) -> f64 {
        db_to_linear(-self.loss_db(d_m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_linear_roundtrip() {
        for db in [-100.0, -3.0, 0.0, 3.0, 30.0] {
            assert!((linear_to_db(db_to_linear(db)) - db).abs() < 1e-9);
        }
        assert!((db_to_linear(3.0) - 1.9952623).abs() < 1e-6);
        assert_eq!(db_to_linear(0.0), 1.0);
    }

    #[test]
    fn dbm_mw_roundtrip() {
        assert_eq!(dbm_to_mw(0.0), 1.0);
        assert!((dbm_to_mw(16.0) - 39.81).abs() < 0.01); // paper's +16 dBm ≈ 40 mW
        assert!((mw_to_dbm(40.0) - 16.02).abs() < 0.01);
    }

    #[test]
    fn wavelength_at_2_4ghz() {
        let l = wavelength(WIFI_CH6_HZ);
        assert!((l - 0.123).abs() < 0.001, "{l}");
    }

    #[test]
    fn free_space_matches_friis_at_known_point() {
        // FSPL(d=1 m, f=2.437 GHz) ≈ 40.2 dB.
        let l = free_space_db(1.0, WIFI_CH6_HZ);
        assert!((l - 40.2).abs() < 0.2, "{l}");
        // +6 dB per distance doubling.
        let l2 = free_space_db(2.0, WIFI_CH6_HZ);
        assert!((l2 - l - 6.02).abs() < 0.01);
    }

    #[test]
    fn free_space_clamps_tiny_distance() {
        assert_eq!(
            free_space_db(0.0, WIFI_CH6_HZ),
            free_space_db(0.01, WIFI_CH6_HZ)
        );
    }

    #[test]
    fn log_distance_monotone_in_distance() {
        let m = LogDistance::default();
        let mut prev = m.loss_db(0.02);
        for i in 1..200 {
            let d = 0.02 + i as f64 * 0.1;
            let l = m.loss_db(d);
            assert!(l > prev, "loss must increase with distance at {d}");
            prev = l;
        }
    }

    #[test]
    fn log_distance_continuous_at_reference() {
        let m = LogDistance::default();
        let below = m.loss_db(0.999_999);
        let above = m.loss_db(1.000_001);
        assert!((below - above).abs() < 0.01, "{below} vs {above}");
    }

    #[test]
    fn log_distance_exponent_slope() {
        let m = LogDistance {
            exponent: 3.0,
            freq_hz: WIFI_CH6_HZ,
        };
        // 10·n dB per decade beyond the reference distance.
        let slope = m.loss_db(100.0) - m.loss_db(10.0);
        assert!((slope - 30.0).abs() < 1e-9);
    }

    #[test]
    fn amplitude_gain_is_sqrt_power_gain() {
        let m = LogDistance::default();
        let a = m.amplitude_gain(5.0);
        let p = m.power_gain(5.0);
        assert!((a * a - p).abs() < 1e-15);
        assert!(p < 1.0 && p > 0.0);
    }
}
