//! The incident-power envelope at the tag's detector input.
//!
//! Wi-Fi transmissions are OFDM, whose instantaneous envelope fluctuates
//! with a high peak-to-average ratio (§4.2 cites this as the reason naive
//! average-energy detection fails on low-sensitivity hardware). The
//! envelope detector's RC output smooths the nanosecond-scale fluctuation
//! to the microsecond scale; we model the smoothed detector output
//! directly:
//!
//! * during a packet: exponentially-distributed instantaneous power (the
//!   Rayleigh envelope of a Gaussian-like OFDM signal) at the received
//!   signal level, RC-smoothed;
//! * always: detector input-referred noise with the same statistics at the
//!   noise level ([`bs_channel::calib::ENVELOPE_DETECTOR_NOISE_DBM`]).

use bs_dsp::SimRng;

/// Configuration of the envelope model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvelopeConfig {
    /// Sample period of the simulated trace (µs).
    pub sample_period_us: f64,
    /// RC smoothing time constant of the detector output (µs).
    pub smoothing_tau_us: f64,
    /// Detector input-referred noise power (mW).
    pub noise_mw: f64,
    /// Gamma shape of the per-sample power fluctuation (shape 1 = raw
    /// Rayleigh envelope; larger = smoother). The default of 3 is not an
    /// OFDM prediction: synthesising an *ideal* 802.11 OFDM waveform
    /// (random QAM subcarriers, IFFT, cyclic prefix) and averaging its
    /// instantaneous power over 1 µs gives a Gamma shape of ≈ 20–25. The
    /// default is deliberately lumpier, standing in for
    /// multipath-induced symbol-to-symbol variation and the diode
    /// detector's own noise near its sensitivity floor — the fluctuation
    /// budget that shapes Fig. 17's gradual BER slopes.
    pub papr_shape: u32,
}

impl Default for EnvelopeConfig {
    fn default() -> Self {
        EnvelopeConfig {
            sample_period_us: 1.0,
            smoothing_tau_us: 3.0,
            noise_mw: bs_channel::pathloss::dbm_to_mw(
                bs_channel::calib::ENVELOPE_DETECTOR_NOISE_DBM,
            ),
            papr_shape: 3,
        }
    }
}

/// Streaming envelope generator.
#[derive(Debug, Clone)]
pub struct EnvelopeModel {
    cfg: EnvelopeConfig,
    /// Current RC-smoothed output (mW).
    smoothed: f64,
    rng: SimRng,
}

impl EnvelopeModel {
    /// Creates a model; the smoother starts at the noise level.
    pub fn new(cfg: EnvelopeConfig, rng: SimRng) -> Self {
        assert!(cfg.sample_period_us > 0.0 && cfg.smoothing_tau_us > 0.0);
        assert!(cfg.papr_shape > 0, "papr_shape must be positive");
        EnvelopeModel {
            smoothed: cfg.noise_mw,
            cfg,
            rng,
        }
    }

    /// One unit-mean Gamma(shape)/shape draw — the pre-averaged envelope
    /// fluctuation of one sample.
    fn unit_fluct(&mut self) -> f64 {
        let k = self.cfg.papr_shape;
        let sum: f64 = (0..k).map(|_| self.rng.exponential(1.0)).sum();
        sum / f64::from(k)
    }

    /// Advances one sample period with `signal_mw` of RF signal incident
    /// (0 during silence) and returns the smoothed detector output (mW).
    pub fn sample(&mut self, signal_mw: f64) -> f64 {
        // Instantaneous power: pre-averaged Rayleigh-envelope fluctuation
        // for both the OFDM signal and the noise.
        let sig_fluct = self.unit_fluct();
        let noise_fluct = self.unit_fluct();
        let inst = signal_mw * sig_fluct + self.cfg.noise_mw * noise_fluct;
        let alpha = self.cfg.sample_period_us / self.cfg.smoothing_tau_us;
        let alpha = alpha.min(1.0);
        self.smoothed += alpha * (inst - self.smoothed);
        self.smoothed
    }

    /// The model configuration.
    pub fn config(&self) -> EnvelopeConfig {
        self.cfg
    }

    /// Generates a trace of `n` samples from a schedule function: `on(t)`
    /// returns the incident signal power (mW) at sample `t`.
    pub fn trace(&mut self, n: usize, mut signal_mw_at: impl FnMut(usize) -> f64) -> Vec<f64> {
        (0..n).map(|i| self.sample(signal_mw_at(i))).collect()
    }
}

/// Builds a sample-indexed signal-power function from the bits of a
/// downlink transmission: bit `i` occupies samples
/// `[i·bit_samples, (i+1)·bit_samples)`; `1` bits carry `signal_mw`, `0`
/// bits are silent. Samples beyond the last bit are silent.
pub fn bit_schedule(
    bits: &[bool],
    bit_samples: usize,
    signal_mw: f64,
) -> impl Fn(usize) -> f64 + '_ {
    move |i: usize| {
        let bit = i / bit_samples;
        match bits.get(bit) {
            Some(&true) => signal_mw,
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(seed: u64) -> EnvelopeModel {
        EnvelopeModel::new(EnvelopeConfig::default(), SimRng::new(seed).stream("env"))
    }

    #[test]
    fn silence_settles_to_noise_level() {
        let mut m = model(1);
        let noise = m.config().noise_mw;
        let trace = m.trace(5000, |_| 0.0);
        let tail = &trace[1000..];
        let mean = bs_dsp::stats::mean(tail);
        assert!(
            (mean - noise).abs() < 0.2 * noise,
            "mean {mean} noise {noise}"
        );
    }

    #[test]
    fn signal_raises_envelope() {
        let mut m = model(2);
        let noise = m.config().noise_mw;
        let sig = 20.0 * noise;
        let trace = m.trace(5000, |_| sig);
        let mean = bs_dsp::stats::mean(&trace[1000..]);
        assert!(
            (mean - (sig + noise)).abs() < 0.2 * (sig + noise),
            "mean {mean}"
        );
    }

    #[test]
    fn smoothing_reduces_fluctuation() {
        // Raw exponential has CV = 1; smoothing with tau = 3 samples should
        // cut it well below 0.7.
        let mut m = model(3);
        let trace = m.trace(20_000, |_| 1.0);
        let tail = &trace[2000..];
        let mean = bs_dsp::stats::mean(tail);
        let cv = bs_dsp::stats::variance(tail).sqrt() / mean;
        assert!(cv < 0.7, "cv {cv}");
        assert!(cv > 0.1, "cv {cv} suspiciously smooth");
    }

    #[test]
    fn envelope_tracks_packet_boundaries() {
        // 50-sample packets alternating with 50-sample silences: the
        // envelope must be clearly bimodal between mid-packet and
        // mid-silence samples.
        let mut m = model(4);
        let noise = m.config().noise_mw;
        let sig = 50.0 * noise;
        let bits: Vec<bool> = (0..40).map(|i| i % 2 == 0).collect();
        let schedule = bit_schedule(&bits, 50, sig);
        let trace = m.trace(2000, schedule);
        let mut on_mean = 0.0;
        let mut off_mean = 0.0;
        let mut n = 0.0;
        for (bit, &b) in bits.iter().enumerate().take(40).skip(4) {
            let mid = bit * 50 + 25;
            if b {
                on_mean += trace[mid];
            } else {
                off_mean += trace[mid];
            }
            n += 0.5;
        }
        on_mean /= n;
        off_mean /= n;
        assert!(on_mean > 10.0 * off_mean, "on {on_mean} off {off_mean}");
    }

    #[test]
    fn bit_schedule_maps_samples() {
        let bits = [true, false, true];
        let s = bit_schedule(&bits, 10, 2.0);
        assert_eq!(s(0), 2.0);
        assert_eq!(s(9), 2.0);
        assert_eq!(s(10), 0.0);
        assert_eq!(s(20), 2.0);
        assert_eq!(s(30), 0.0); // past the end
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = model(9);
        let mut b = model(9);
        for _ in 0..100 {
            assert_eq!(a.sample(1.0), b.sample(1.0));
        }
    }

    #[test]
    #[should_panic]
    fn zero_sample_period_panics() {
        EnvelopeModel::new(
            EnvelopeConfig {
                sample_period_us: 0.0,
                ..Default::default()
            },
            SimRng::new(0),
        );
    }
}
