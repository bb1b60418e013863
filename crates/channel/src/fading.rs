//! Slow temporal channel variation ("mobility in the environment").
//!
//! §3.2 step 1 of the paper exists because real channels drift: people walk,
//! doors open, the measured CSI wanders on timescales of hundreds of
//! milliseconds. We model this as a complex first-order Gauss–Markov (AR(1))
//! process multiplying each link's static multipath response:
//!
//! `g(t+Δ) = ρ(Δ)·g(t) + √(1-ρ²)·w`,  `ρ(Δ) = e^{-Δ/τ}`
//!
//! with `w` a complex Gaussian centred on the mean gain 1. The stationary
//! distribution keeps `E[g] = 1` and `Var[g]` equal to the configured
//! variance, so fading never changes average power, only wiggles it — which
//! is exactly what the moving-average conditioner removes.

use bs_dsp::{Complex, SimRng};

/// Configuration of the slow-fading process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FadingConfig {
    /// Standard deviation of the complex gain around 1 (0 = static channel).
    /// Typical quiet office: 0.02–0.08.
    pub sigma: f64,
    /// Correlation time constant (seconds). Typical: 0.5–3 s.
    pub tau_s: f64,
}

impl Default for FadingConfig {
    fn default() -> Self {
        FadingConfig {
            sigma: 0.04,
            tau_s: 1.5,
        }
    }
}

impl FadingConfig {
    /// A perfectly static channel (no temporal variation).
    pub fn static_channel() -> Self {
        FadingConfig {
            sigma: 0.0,
            tau_s: 1.0,
        }
    }
}

/// The evolving multiplicative gain of one link.
#[derive(Debug, Clone)]
pub struct SlowFading {
    cfg: FadingConfig,
    gain: Complex,
    last_time_s: f64,
    rng: SimRng,
}

impl SlowFading {
    /// Creates the process in its stationary distribution at time 0.
    pub fn new(cfg: FadingConfig, mut rng: SimRng) -> Self {
        let gain = Complex::ONE + rng.complex_gaussian(cfg.sigma / (2.0f64).sqrt());
        SlowFading {
            cfg,
            gain,
            last_time_s: 0.0,
            rng,
        }
    }

    /// Advances to absolute time `t_s` (seconds) and returns the gain.
    /// Time must be non-decreasing across calls.
    ///
    /// # Panics
    /// Panics if `t_s` moves backwards.
    pub fn gain_at(&mut self, t_s: f64) -> Complex {
        assert!(
            t_s >= self.last_time_s,
            "fading time must be monotonic: {} -> {}",
            self.last_time_s,
            t_s
        );
        if self.cfg.sigma == 0.0 {
            self.last_time_s = t_s;
            return Complex::ONE;
        }
        let dt = t_s - self.last_time_s;
        if dt > 0.0 {
            let rho = (-dt / self.cfg.tau_s).exp();
            let innov = self.rng.complex_gaussian(self.cfg.sigma / (2.0f64).sqrt());
            // AR(1) around the mean gain 1.
            let centered = self.gain - Complex::ONE;
            self.gain = Complex::ONE + centered.scale(rho) + innov.scale((1.0 - rho * rho).sqrt());
            self.last_time_s = t_s;
        }
        self.gain
    }

    /// The configuration of this process.
    pub fn config(&self) -> FadingConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(404).stream("fading-test")
    }

    #[test]
    fn static_channel_is_exactly_one() {
        let mut f = SlowFading::new(FadingConfig::static_channel(), rng());
        for i in 0..10 {
            assert_eq!(f.gain_at(i as f64 * 0.1), Complex::ONE);
        }
    }

    #[test]
    fn stationary_mean_near_one() {
        let root = rng();
        let n = 300;
        let mut sum = Complex::ZERO;
        for i in 0..n {
            let mut f = SlowFading::new(FadingConfig::default(), root.substream(i));
            sum += f.gain_at(10.0);
        }
        let mean = sum / n as f64;
        assert!((mean - Complex::ONE).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn variance_matches_config() {
        let root = rng();
        let cfg = FadingConfig {
            sigma: 0.1,
            tau_s: 1.0,
        };
        let n = 2000;
        let mut var = 0.0;
        for i in 0..n {
            let mut f = SlowFading::new(cfg, root.substream(i));
            var += (f.gain_at(5.0) - Complex::ONE).norm_sq() / n as f64;
        }
        assert!((var - 0.01).abs() < 0.002, "var {var}");
    }

    #[test]
    fn short_interval_is_highly_correlated() {
        let mut f = SlowFading::new(FadingConfig::default(), rng());
        let g0 = f.gain_at(0.0);
        let g1 = f.gain_at(0.001); // 1 ms later, tau = 1.5 s
        assert!((g1 - g0).abs() < 0.01, "jump {}", (g1 - g0).abs());
    }

    #[test]
    fn long_interval_decorrelates() {
        // After many time constants the process forgets its start. Compare
        // the ensemble correlation at Δt = 10·τ to Δt = 0.01·τ.
        let root = rng();
        let cfg = FadingConfig {
            sigma: 0.1,
            tau_s: 0.5,
        };
        let n = 1000;
        let mut corr_short = 0.0;
        let mut corr_long = 0.0;
        for i in 0..n {
            let mut f1 = SlowFading::new(cfg, root.substream(i));
            let a = f1.gain_at(0.0) - Complex::ONE;
            let b = f1.gain_at(0.005) - Complex::ONE;
            corr_short += (a.conj() * b).re;
            let mut f2 = SlowFading::new(cfg, root.substream(i + 10_000));
            let c = f2.gain_at(0.0) - Complex::ONE;
            let d = f2.gain_at(5.0) - Complex::ONE;
            corr_long += (c.conj() * d).re;
        }
        assert!(
            corr_short > 5.0 * corr_long.abs(),
            "short {corr_short} long {corr_long}"
        );
    }

    #[test]
    fn same_time_query_does_not_advance() {
        let mut f = SlowFading::new(FadingConfig::default(), rng());
        let g1 = f.gain_at(1.0);
        let g2 = f.gain_at(1.0);
        assert_eq!(g1, g2);
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn backwards_time_panics() {
        let mut f = SlowFading::new(FadingConfig::default(), rng());
        f.gain_at(2.0);
        f.gain_at(1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = SlowFading::new(FadingConfig::default(), SimRng::new(9));
        let mut b = SlowFading::new(FadingConfig::default(), SimRng::new(9));
        for i in 1..20 {
            let t = i as f64 * 0.3;
            assert_eq!(a.gain_at(t), b.gain_at(t));
        }
    }
}
