//! Small-scale fading: seeded tapped-delay-line multipath.
//!
//! Each radio link (helper→reader, helper→tag, tag→reader — one realisation
//! per reader antenna) gets an independent multipath profile: a line-of-
//! sight tap (Rician K-factor, dropped for NLOS links) plus several
//! exponentially-decaying scattered taps at random delays. Evaluating the
//! taps at each OFDM subcarrier offset yields the frequency-selective
//! response that gives the paper its sub-channel diversity: with ~50 ns RMS
//! delay spread the coherence bandwidth is a few MHz, so the 20 MHz Wi-Fi
//! band spans several independent fades (Figs 4, 5, 11).

use bs_dsp::{Complex, SimRng};

/// One multipath tap: a complex gain arriving after `delay_s` seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tap {
    /// Excess delay relative to the first arrival (seconds).
    pub delay_s: f64,
    /// Complex amplitude gain of this tap.
    pub gain: Complex,
}

/// Configuration for generating a multipath profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultipathConfig {
    /// Number of scattered (non-LOS) taps.
    pub scattered_taps: usize,
    /// RMS delay spread of the scattered taps (seconds). Indoor 2.4 GHz is
    /// typically 30–100 ns.
    pub delay_spread_s: f64,
    /// Rician K-factor (linear): LOS power / total scattered power.
    /// `0.0` = pure Rayleigh (NLOS).
    pub k_factor: f64,
}

impl Default for MultipathConfig {
    fn default() -> Self {
        MultipathConfig {
            scattered_taps: 8,
            delay_spread_s: 50e-9,
            k_factor: 4.0,
        }
    }
}

impl MultipathConfig {
    /// A non-line-of-sight variant of this profile (no LOS tap).
    pub fn nlos(mut self) -> Self {
        self.k_factor = 0.0;
        self
    }
}

/// A static multipath realisation for one link.
///
/// Total tap power is normalised to 1, so the profile carries only the
/// small-scale *shape* of the channel; large-scale attenuation comes from
/// [`crate::pathloss`].
#[derive(Debug, Clone, PartialEq)]
pub struct Multipath {
    taps: Vec<Tap>,
}

impl Multipath {
    /// Draws a random realisation from the profile.
    pub fn generate(cfg: &MultipathConfig, rng: &mut SimRng) -> Self {
        assert!(
            cfg.scattered_taps > 0 || cfg.k_factor > 0.0,
            "multipath needs at least one tap"
        );
        let mut taps = Vec::with_capacity(cfg.scattered_taps + 1);

        // Scattered taps: exponential power-delay profile with random
        // uniform phases; delays drawn exponentially with the configured
        // spread.
        let mut scattered_power = 0.0;
        let mut raw = Vec::with_capacity(cfg.scattered_taps);
        for _ in 0..cfg.scattered_taps {
            let delay = rng.exponential(cfg.delay_spread_s);
            // Power decays with delay (normalised later); Rayleigh magnitude
            // gives per-tap fading.
            let mean_amp = (-delay / (2.0 * cfg.delay_spread_s)).exp();
            let amp = rng.rayleigh(mean_amp / (2.0f64).sqrt());
            let phase = rng.phase();
            scattered_power += amp * amp;
            raw.push((delay, amp, phase));
        }

        // Normalise: scattered power = 1/(1+K), LOS power = K/(1+K).
        let k = cfg.k_factor;
        let scatter_target = 1.0 / (1.0 + k);
        let scale = if scattered_power > 0.0 {
            (scatter_target / scattered_power).sqrt()
        } else {
            0.0
        };
        if k > 0.0 {
            let los_amp = (k / (1.0 + k)).sqrt();
            taps.push(Tap {
                delay_s: 0.0,
                gain: Complex::from_polar(los_amp, rng.phase()),
            });
        }
        for (delay, amp, phase) in raw {
            taps.push(Tap {
                delay_s: delay,
                gain: Complex::from_polar(amp * scale, phase),
            });
        }
        Multipath { taps }
    }

    /// The taps of this realisation.
    pub fn taps(&self) -> &[Tap] {
        &self.taps
    }

    /// Total tap power (≈1 by construction).
    pub fn total_power(&self) -> f64 {
        self.taps.iter().map(|t| t.gain.norm_sq()).sum()
    }

    /// Frequency response at a baseband offset `freq_offset_hz` from the
    /// carrier: `H(Δf) = Σ gᵢ · e^{-j2πΔf·τᵢ}`.
    pub fn response(&self, freq_offset_hz: f64) -> Complex {
        self.taps
            .iter()
            .map(|t| {
                t.gain
                    * Complex::from_polar(
                        1.0,
                        -2.0 * std::f64::consts::PI * freq_offset_hz * t.delay_s,
                    )
            })
            .sum()
    }

    /// Frequency response sampled at several offsets at once.
    pub fn response_at(&self, freq_offsets_hz: &[f64]) -> Vec<Complex> {
        freq_offsets_hz.iter().map(|&f| self.response(f)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(2024).stream("multipath-test")
    }

    #[test]
    fn total_power_is_normalized() {
        let r = rng();
        for i in 0..20 {
            let mp = Multipath::generate(&MultipathConfig::default(), &mut r.substream(i));
            assert!(
                (mp.total_power() - 1.0).abs() < 1e-9,
                "power {}",
                mp.total_power()
            );
        }
    }

    #[test]
    fn nlos_has_no_zero_delay_tap() {
        let mut r = rng();
        let cfg = MultipathConfig::default().nlos();
        let mp = Multipath::generate(&cfg, &mut r);
        assert_eq!(mp.taps().len(), cfg.scattered_taps);
        assert!((mp.total_power() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn los_tap_carries_k_fraction_of_power() {
        let mut r = rng();
        let cfg = MultipathConfig {
            k_factor: 9.0,
            ..Default::default()
        };
        let mp = Multipath::generate(&cfg, &mut r);
        let los_power = mp.taps()[0].gain.norm_sq();
        assert!((los_power - 0.9).abs() < 1e-9, "los {los_power}");
    }

    #[test]
    fn response_at_dc_is_tap_sum() {
        let mut r = rng();
        let mp = Multipath::generate(&MultipathConfig::default(), &mut r);
        let sum: Complex = mp.taps().iter().map(|t| t.gain).sum();
        let h = mp.response(0.0);
        assert!((h - sum).abs() < 1e-12);
    }

    #[test]
    fn response_is_frequency_selective() {
        // Across a 20 MHz band with 50 ns delay spread, |H| must vary
        // substantially between subcarriers — the diversity the decoder
        // exploits.
        let mut r = rng();
        let mp = Multipath::generate(&MultipathConfig::default(), &mut r);
        let offsets: Vec<f64> = (0..64).map(|i| (i as f64 - 32.0) * 312_500.0).collect();
        let mags: Vec<f64> = mp.response_at(&offsets).iter().map(|h| h.abs()).collect();
        let max = mags.iter().cloned().fold(f64::MIN, f64::max);
        let min = mags.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min > 1.2, "band too flat: {min}..{max}");
    }

    #[test]
    fn narrow_band_is_flat() {
        // Over 100 kHz the channel must be essentially flat (coherence
        // bandwidth ≫ 100 kHz for 50 ns spread). Measured against the
        // profile's unit total power, not |H(0)| — a realisation can fade
        // at DC, which would inflate a relative-to-|H(0)| metric without
        // the channel being any less flat.
        let r = rng();
        for i in 0..8 {
            let mp = Multipath::generate(&MultipathConfig::default(), &mut r.substream(i));
            let h0 = mp.response(0.0);
            let h1 = mp.response(100e3);
            assert!((h0 - h1).abs() < 0.05, "substream {i}: {}", (h0 - h1).abs());
        }
    }

    #[test]
    fn different_seeds_give_different_profiles() {
        let cfg = MultipathConfig::default();
        let a = Multipath::generate(&cfg, &mut SimRng::new(1));
        let b = Multipath::generate(&cfg, &mut SimRng::new(2));
        assert_ne!(a, b);
    }

    #[test]
    fn same_seed_reproduces_profile() {
        let cfg = MultipathConfig::default();
        let a = Multipath::generate(&cfg, &mut SimRng::new(5));
        let b = Multipath::generate(&cfg, &mut SimRng::new(5));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one tap")]
    fn zero_taps_zero_k_panics() {
        let cfg = MultipathConfig {
            scattered_taps: 0,
            delay_spread_s: 50e-9,
            k_factor: 0.0,
        };
        Multipath::generate(&cfg, &mut SimRng::new(0));
    }

    #[test]
    fn ensemble_mean_power_flat_across_band() {
        // Averaged over many realisations, E|H(f)|² ≈ 1 at every offset.
        let cfg = MultipathConfig::default();
        let root = SimRng::new(77);
        let offsets = [-10e6, -5e6, 0.0, 5e6, 10e6];
        let n = 400;
        let mut mean_power = [0.0; 5];
        for i in 0..n {
            let mp = Multipath::generate(&cfg, &mut root.substream(i));
            for (k, &f) in offsets.iter().enumerate() {
                mean_power[k] += mp.response(f).norm_sq() / n as f64;
            }
        }
        for (k, &p) in mean_power.iter().enumerate() {
            assert!((p - 1.0).abs() < 0.15, "offset {k}: mean power {p}");
        }
    }
}
