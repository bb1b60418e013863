//! The Intel 5300 CSI measurement model.
//!
//! The paper's reader uses the Intel CSI tool \[13\] to obtain per-packet
//! channel state for 30 grouped sub-channels on each of 3 antennas. Real
//! reported CSI differs from the true channel in ways the decoder was
//! explicitly designed around, all modelled here:
//!
//! * **estimation noise** — CSI is estimated from the packet preamble, so
//!   each measurement carries complex noise scaled by 1/SNR;
//! * **quantisation** — the tool reports 8-bit components; we quantise the
//!   amplitude grid;
//! * **spurious jumps** — "the Intel cards used in our experiments report
//!   spurious changes in the CSI once every so often … even in a static
//!   network" (§3.2); modelled as rare per-packet multiplicative glitches,
//!   which is what the hysteresis slicer exists to reject;
//! * **a weak antenna** — "one of the antennas on our Intel device almost
//!   always reported significantly low CSI values" (§7.1).

use bs_channel::scene::ChannelSnapshot;
use bs_dsp::obs::{NullRecorder, Recorder};
use bs_dsp::{Complex, SimRng};

/// Scaling from channel amplitude to "Intel CSI units". Calibrated so the
/// reported values land in the paper's observed span (§7.3: "the average
/// CSI values span 3–50 across these locations").
pub const CSI_AMPLITUDE_SCALE: f64 = 4000.0;

/// Amplitude quantisation step in CSI units (8-bit component resolution at
/// typical amplitudes).
pub const CSI_QUANT_STEP: f64 = 0.05;

/// Channel-estimation processing gain (linear): two LTF symbols plus
/// frequency smoothing.
pub const CSI_ESTIMATION_GAIN: f64 = 4.0;

/// Common-mode per-packet gain jitter (fraction of amplitude): AGC and
/// transmit-power-control wobble shared by all sub-channels of one antenna.
/// Correlated noise like this is why the paper's conditioning operates per
/// sub-channel time series rather than across the band.
pub const CSI_GAIN_JITTER: f64 = 0.06;

/// Independent per-sub-channel per-packet jitter (fraction of amplitude):
/// phase noise, interpolation and reporting error.
pub const CSI_SUBCHANNEL_JITTER: f64 = 0.10;

/// Configuration of the CSI extractor.
#[derive(Debug, Clone, Copy)]
pub struct CsiConfig {
    /// Probability per packet of a spurious glitch on one antenna.
    pub spurious_jump_prob: f64,
    /// Multiplicative magnitude of a glitch.
    pub spurious_jump_scale: f64,
    /// Amplitude scale applied to the weak antenna.
    pub weak_antenna_scale: f64,
    /// Index of the weak antenna, if any.
    pub weak_antenna: Option<usize>,
    /// Common-mode multiplicative jitter per antenna per packet (fraction).
    pub gain_jitter: f64,
    /// Independent multiplicative jitter per sub-channel (fraction).
    pub subchannel_jitter: f64,
    /// Amplitude quantisation step in CSI units (0 disables quantisation).
    pub quant_step: f64,
}

impl Default for CsiConfig {
    fn default() -> Self {
        CsiConfig {
            spurious_jump_prob: bs_channel::calib::CSI_SPURIOUS_JUMP_PROB,
            spurious_jump_scale: bs_channel::calib::CSI_SPURIOUS_JUMP_SCALE,
            weak_antenna_scale: bs_channel::calib::WEAK_ANTENNA_SCALE,
            weak_antenna: Some(bs_channel::calib::WEAK_ANTENNA_INDEX),
            gain_jitter: CSI_GAIN_JITTER,
            subchannel_jitter: CSI_SUBCHANNEL_JITTER,
            quant_step: CSI_QUANT_STEP,
        }
    }
}

impl CsiConfig {
    /// An idealised extractor with none of the Intel artifacts — only the
    /// unavoidable thermal estimation noise remains (useful for ablation
    /// benches).
    pub fn ideal() -> Self {
        CsiConfig {
            spurious_jump_prob: 0.0,
            spurious_jump_scale: 0.0,
            weak_antenna_scale: 1.0,
            weak_antenna: None,
            gain_jitter: 0.0,
            subchannel_jitter: 0.0,
            quant_step: 0.0,
        }
    }
}

/// One per-packet CSI report.
#[derive(Debug, Clone, PartialEq)]
pub struct CsiMeasurement {
    /// MAC timestamp of the packet this CSI came from (µs).
    pub timestamp_us: u64,
    /// Amplitude in CSI units, one per value of the snapshot's
    /// [`ChannelSnapshot::h`] and in its order (antenna by antenna): the
    /// packet's row of virtual sub-channels.
    pub amplitude: Vec<f64>,
}

/// Produces [`CsiMeasurement`]s from true channel snapshots.
#[derive(Debug, Clone)]
pub struct CsiExtractor {
    cfg: CsiConfig,
    rng: SimRng,
}

impl CsiExtractor {
    /// Creates an extractor with the given artifact configuration.
    pub fn new(cfg: CsiConfig, rng: SimRng) -> Self {
        CsiExtractor { cfg, rng }
    }

    /// Creates an extractor with the default Intel 5300 artifact model.
    pub fn intel5300(rng: SimRng) -> Self {
        CsiExtractor::new(CsiConfig::default(), rng)
    }

    /// Measures the CSI a card would report for one received packet.
    pub fn measure(&mut self, snap: &ChannelSnapshot, timestamp_us: u64) -> CsiMeasurement {
        self.measure_with(snap, timestamp_us, &mut NullRecorder)
    }

    /// [`Self::measure`] plus observability: counts each measurement
    /// (`wifi.csi-measurements`) and each spurious Intel glitch
    /// (`wifi.csi-spurious-jumps`) into `rec`. The measurement itself —
    /// including every RNG draw — is identical to [`Self::measure`].
    pub fn measure_with(
        &mut self,
        snap: &ChannelSnapshot,
        timestamp_us: u64,
        rec: &mut dyn Recorder,
    ) -> CsiMeasurement {
        let mut amplitude = Vec::with_capacity(snap.h.len());
        self.packet::<true>(snap, rec, |amp| amplitude.push(amp));
        CsiMeasurement {
            timestamp_us,
            amplitude,
        }
    }

    /// Moves the stream past one packet exactly as [`Self::measure_with`]
    /// would, and records the same counters, without computing a single
    /// amplitude. Together with [`Self::measure_into`] on a copy taken
    /// before the call, this splits a sweep into a serial pass over the
    /// stream and a parallel pass over the math.
    pub fn skip_with(&mut self, snap: &ChannelSnapshot, rec: &mut dyn Recorder) {
        self.packet::<false>(snap, rec, |_| {});
    }

    /// [`Self::measure`] written in place: writes the snapshot's
    /// amplitudes into `out`, bit for bit the `amplitude` that `measure`
    /// returns.
    ///
    /// # Panics
    /// Panics if `out` is not as long as `snap.h`.
    pub fn measure_into(&mut self, snap: &ChannelSnapshot, out: &mut [f64]) {
        assert_eq!(out.len(), snap.h.len(), "one value per sub-channel");
        let mut slots = out.iter_mut();
        self.packet::<true>(snap, &mut NullRecorder, |amp| {
            *slots.next().expect("sized above") = amp;
        });
    }

    /// The extractor's stream, at the position of its next packet.
    pub fn rng(&self) -> &SimRng {
        &self.rng
    }

    /// One packet's draws, in order: the only copy of the draw order.
    /// With `MEASURE`, `emit` gets every amplitude in the order of
    /// `snap.h`; without it, only the uniforms are drawn, the channel is
    /// read for its shape alone, and `emit` is never called.
    fn packet<const MEASURE: bool>(
        &mut self,
        snap: &ChannelSnapshot,
        rec: &mut dyn Recorder,
        mut emit: impl FnMut(f64),
    ) {
        let rows = snap.rows();
        let noise_std = estimation_noise_std(snap);
        let cfg = self.cfg;
        let rng = &mut self.rng;
        let normal = |rng: &mut SimRng, std_dev: f64| {
            let u = rng.box_muller_uniforms();
            if MEASURE {
                SimRng::box_muller(u, 0.0, std_dev)
            } else {
                0.0
            }
        };

        // At most one antenna glitches per packet.
        let glitch_antenna = if rng.chance(cfg.spurious_jump_prob) {
            Some(rng.index(rows.len()))
        } else {
            None
        };
        rec.add("wifi.csi-measurements", 1);
        if glitch_antenna.is_some() {
            rec.add("wifi.csi-spurious-jumps", 1);
        }

        for (ant, row) in rows.enumerate() {
            let ant_scale = match cfg.weak_antenna {
                Some(w) if w == ant => cfg.weak_antenna_scale,
                _ => 1.0,
            };
            let glitch = match glitch_antenna {
                Some(g) if g == ant => {
                    if rng.chance(0.5) {
                        1.0 + cfg.spurious_jump_scale
                    } else {
                        1.0 - cfg.spurious_jump_scale
                    }
                }
                _ => 1.0,
            };
            // AGC / TPC wobble: common to every sub-channel of this
            // antenna for this packet.
            let common = 1.0 + normal(rng, cfg.gain_jitter);
            for &h in row {
                let noise = Complex::new(normal(rng, noise_std), normal(rng, noise_std));
                let indep = 1.0 + normal(rng, cfg.subchannel_jitter);
                if MEASURE {
                    let amp = (h + noise).abs()
                        * CSI_AMPLITUDE_SCALE
                        * ant_scale
                        * glitch
                        * common
                        * indep;
                    emit(if cfg.quant_step > 0.0 {
                        (amp / cfg.quant_step).round() * cfg.quant_step
                    } else {
                        amp
                    });
                }
            }
        }
    }
}

/// Per-component noise std of a snapshot's channel estimate:
/// Ĥ = H + n/√P, n per-component variance N/(2·G_est).
fn estimation_noise_std(snap: &ChannelSnapshot) -> f64 {
    (snap.noise_mw_per_subcarrier / (2.0 * CSI_ESTIMATION_GAIN * snap.tx_mw_per_subcarrier)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bs_channel::fading::FadingConfig;
    use bs_channel::scene::{Scene, SceneConfig};
    use bs_channel::TagState;

    fn scene(d: f64, seed: u64) -> Scene {
        let mut cfg = SceneConfig::uplink(d);
        cfg.fading = FadingConfig::static_channel();
        Scene::new(cfg, &SimRng::new(seed))
    }

    fn offsets() -> Vec<f64> {
        crate::ofdm::csi_subchannel_offsets()
    }

    /// Mean amplitude of each antenna's sub-channels, on the Intel grid.
    fn antenna_means(m: &CsiMeasurement) -> Vec<f64> {
        let n = crate::ofdm::CSI_SUBCHANNELS;
        m.amplitude
            .chunks(n)
            .map(|row| row.iter().sum::<f64>() / n as f64)
            .collect()
    }

    #[test]
    fn measurement_shape() {
        let mut s = scene(0.3, 1);
        let snap = s.snapshot(0.0, TagState::Absorb, &offsets());
        let mut ex = CsiExtractor::intel5300(SimRng::new(2));
        let m = ex.measure(&snap, 42);
        assert_eq!(m.timestamp_us, 42);
        assert_eq!(m.amplitude.len(), 90);
    }

    #[test]
    fn amplitudes_in_paper_range() {
        // §7.3: "the average CSI values span 3–50 across these locations."
        let mut s = scene(0.3, 3);
        let snap = s.snapshot(0.0, TagState::Absorb, &offsets());
        let mut ex = CsiExtractor::intel5300(SimRng::new(4));
        let m = ex.measure(&snap, 0);
        let mean = antenna_means(&m)[0];
        assert!((1.0..=60.0).contains(&mean), "mean CSI {mean}");
    }

    #[test]
    fn weak_antenna_reports_low() {
        let mut s = scene(0.3, 5);
        let snap = s.snapshot(0.0, TagState::Absorb, &offsets());
        let mut ex = CsiExtractor::intel5300(SimRng::new(6));
        let m = ex.measure(&snap, 0);
        let mean = antenna_means(&m);
        assert!(
            mean[2] < 0.5 * mean[0].min(mean[1]),
            "weak antenna not weak: {} vs {} {}",
            mean[2],
            mean[0],
            mean[1]
        );
    }

    #[test]
    fn quantisation_grid_respected() {
        let mut s = scene(0.3, 7);
        let snap = s.snapshot(0.0, TagState::Absorb, &offsets());
        let mut ex = CsiExtractor::intel5300(SimRng::new(8));
        let m = ex.measure(&snap, 0);
        for &a in &m.amplitude {
            let steps = a / CSI_QUANT_STEP;
            assert!((steps - steps.round()).abs() < 1e-9, "amp {a} off-grid");
        }
    }

    #[test]
    fn ideal_config_has_no_glitches() {
        let mut s = scene(0.3, 9);
        let snap = s.snapshot(0.0, TagState::Absorb, &offsets());
        // With estimation noise present measurements still vary, but no
        // antenna is scaled down and no glitch occurs; verify weak antenna
        // parity.
        let mut ex = CsiExtractor::new(CsiConfig::ideal(), SimRng::new(10));
        let m = ex.measure(&snap, 0);
        let mean = antenna_means(&m);
        assert!(mean[2] > 0.3 * mean[0], "{} vs {}", mean[2], mean[0]);
    }

    #[test]
    fn spurious_jumps_occur_at_configured_rate() {
        let mut s = scene(0.3, 11);
        let snap = s.snapshot(0.0, TagState::Absorb, &offsets());
        let cfg = CsiConfig {
            spurious_jump_prob: 0.2,
            spurious_jump_scale: 0.5,
            ..CsiConfig::ideal()
        };
        let mut ex = CsiExtractor::new(cfg, SimRng::new(12));
        // Per-antenna baseline means from an ideal extractor on the same
        // snapshot (antennas fade independently, so baselines differ).
        let mut ideal = CsiExtractor::new(CsiConfig::ideal(), SimRng::new(13));
        let base = ideal.measure(&snap, 0);
        let base_mean = antenna_means(&base);
        let mut glitched = 0;
        let n = 2000;
        for i in 0..n {
            let m = ex.measure(&snap, i);
            for (mean, base) in antenna_means(&m).iter().zip(&base_mean) {
                if (mean - base).abs() > 0.25 * base {
                    glitched += 1;
                    break;
                }
            }
        }
        let rate = glitched as f64 / n as f64;
        assert!((0.12..=0.28).contains(&rate), "glitch rate {rate}");
    }

    #[test]
    fn noisier_at_longer_helper_distance() {
        // Helper farther away → lower SNR → noisier CSI (relative). Uses
        // the ideal config so only thermal estimation noise remains.
        let offsets = offsets();
        let spread = |helper_x: f64| -> f64 {
            let mut cfg = SceneConfig::uplink(0.3);
            cfg.helper = bs_channel::Point::new(helper_x, 0.0);
            cfg.fading = FadingConfig::static_channel();
            let mut s = Scene::new(cfg, &SimRng::new(20));
            let snap = s.snapshot(0.0, TagState::Absorb, &offsets);
            let mut ex = CsiExtractor::new(CsiConfig::ideal(), SimRng::new(21));
            // Relative std of repeated measurements of subchannel 0, ant 0.
            let vals: Vec<f64> = (0..200)
                .map(|i| ex.measure(&snap, i).amplitude[0])
                .collect();
            bs_dsp::stats::variance(&vals).sqrt() / bs_dsp::stats::mean(&vals)
        };
        let near = spread(3.0);
        let far = spread(20.0);
        assert!(far > near, "far {far} near {near}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut s = scene(0.3, 30);
        let snap = s.snapshot(0.0, TagState::Reflect, &offsets());
        let mut a = CsiExtractor::intel5300(SimRng::new(31));
        let mut b = CsiExtractor::intel5300(SimRng::new(31));
        assert_eq!(a.measure(&snap, 5), b.measure(&snap, 5));
    }
}
