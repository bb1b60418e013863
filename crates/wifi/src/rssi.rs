//! Per-packet RSSI measurement (§3.3).
//!
//! Most commodity chipsets expose only RSSI: one coarse number per packet
//! (or per antenna on MIMO receivers) summarising total received power
//! across the whole 20 MHz band. Compared with CSI, two things are lost:
//! frequency resolution (backscatter perturbations on different subcarriers
//! can partially cancel) and amplitude resolution (1 dB quantisation). That
//! is exactly why the paper measures a shorter RSSI uplink range (~30 cm vs
//! ~65 cm, Fig. 10).

use bs_channel::scene::ChannelSnapshot;
use bs_dsp::obs::{NullRecorder, Recorder};
use bs_dsp::SimRng;

/// RSSI quantisation step (dB) — commodity cards report integer dBm.
pub const RSSI_QUANT_DB: f64 = 1.0;

/// Per-packet RSSI measurement noise (dB, std) before quantisation: AGC
/// and estimation jitter.
pub const RSSI_JITTER_DB: f64 = 0.35;

/// One per-packet RSSI report.
#[derive(Debug, Clone, PartialEq)]
pub struct RssiMeasurement {
    /// MAC timestamp of the packet (µs).
    pub timestamp_us: u64,
    /// RSSI per antenna (dBm, quantised).
    pub rssi_dbm: Vec<f64>,
}

impl RssiMeasurement {
    /// Number of antenna chains reported.
    pub fn antennas(&self) -> usize {
        self.rssi_dbm.len()
    }
}

/// Produces [`RssiMeasurement`]s from true channel snapshots.
#[derive(Debug, Clone)]
pub struct RssiExtractor {
    rng: SimRng,
    quant_db: f64,
    jitter_db: f64,
}

impl RssiExtractor {
    /// Creates an extractor with standard quantisation and jitter.
    pub fn new(rng: SimRng) -> Self {
        RssiExtractor {
            rng,
            quant_db: RSSI_QUANT_DB,
            jitter_db: RSSI_JITTER_DB,
        }
    }

    /// Measures per-antenna RSSI for one received packet.
    pub fn measure(&mut self, snap: &ChannelSnapshot, timestamp_us: u64) -> RssiMeasurement {
        self.measure_with(snap, timestamp_us, &mut NullRecorder)
    }

    /// [`Self::measure`] plus observability: counts each measurement into
    /// `rec` (`wifi.rssi-measurements`). The measurement itself —
    /// including every RNG draw — is identical to [`Self::measure`].
    pub fn measure_with(
        &mut self,
        snap: &ChannelSnapshot,
        timestamp_us: u64,
        rec: &mut dyn Recorder,
    ) -> RssiMeasurement {
        let mut rssi_dbm = Vec::with_capacity(snap.antennas);
        self.packet::<true>(snap, rec, |dbm| rssi_dbm.push(dbm));
        RssiMeasurement {
            timestamp_us,
            rssi_dbm,
        }
    }

    /// Moves the stream past one packet exactly as [`Self::measure_with`]
    /// would, and records the same counter, without computing a single
    /// RSSI. Together with [`Self::measure_into`] on a copy taken before
    /// the call, this splits a sweep into a serial pass over the stream
    /// and a parallel pass over the math.
    pub fn skip_with(&mut self, snap: &ChannelSnapshot, rec: &mut dyn Recorder) {
        self.packet::<false>(snap, rec, |_| {});
    }

    /// [`Self::measure`] written in place: writes one packet's
    /// per-antenna RSSI into `row`, bit for bit the `rssi_dbm` that
    /// `measure` returns.
    ///
    /// # Panics
    /// Panics if `row` is not one value per antenna of `snap`.
    pub fn measure_into(&mut self, snap: &ChannelSnapshot, row: &mut [f64]) {
        assert_eq!(row.len(), snap.antennas, "one RSSI value per antenna");
        let mut slots = row.iter_mut();
        self.packet::<true>(snap, &mut NullRecorder, |dbm| {
            *slots.next().expect("sized above") = dbm;
        });
    }

    /// The extractor's stream, at the position of its next packet.
    pub fn rng(&self) -> &SimRng {
        &self.rng
    }

    /// One packet's draws, in order: the only copy of the draw order.
    /// Each antenna, in antenna order, draws one Gaussian jitter. With
    /// `MEASURE`, `emit` gets each antenna's RSSI (dBm, quantised);
    /// without it, only the uniforms are drawn, the channel is read for
    /// its shape alone, and `emit` is never called.
    fn packet<const MEASURE: bool>(
        &mut self,
        snap: &ChannelSnapshot,
        rec: &mut dyn Recorder,
        mut emit: impl FnMut(f64),
    ) {
        rec.add("wifi.rssi-measurements", 1);
        for (ant, ch) in snap.rows().enumerate() {
            let u = self.rng.box_muller_uniforms();
            if MEASURE {
                // Total signal power across the band plus in-band noise.
                let sig_mw = snap.rx_power_mw(ant);
                let noise_mw = snap.noise_mw_per_subcarrier * ch.len() as f64;
                let raw_dbm = bs_channel::pathloss::mw_to_dbm(sig_mw + noise_mw);
                let jittered = raw_dbm + SimRng::box_muller(u, 0.0, self.jitter_db);
                emit(if self.quant_db > 0.0 {
                    (jittered / self.quant_db).round() * self.quant_db
                } else {
                    jittered
                });
            }
        }
    }
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

    #[test]
    fn rssi_is_quantised_to_1db() {
        let mut s = scene(0.3, 1);
        let snap = s.snapshot(0.0, TagState::Absorb, &offsets());
        let mut ex = RssiExtractor::new(SimRng::new(2));
        let m = ex.measure(&snap, 7);
        assert_eq!(m.antennas(), 3);
        assert_eq!(m.timestamp_us, 7);
        for &r in &m.rssi_dbm {
            assert!((r - r.round()).abs() < 1e-9, "rssi {r} not integer dBm");
        }
    }

    #[test]
    fn rssi_in_plausible_range() {
        let mut s = scene(0.3, 3);
        let snap = s.snapshot(0.0, TagState::Absorb, &offsets());
        let mut ex = RssiExtractor::new(SimRng::new(4));
        let m = ex.measure(&snap, 0);
        for &r in &m.rssi_dbm[..2] {
            assert!((-90.0..=-30.0).contains(&r), "rssi {r} dBm");
        }
    }

    #[test]
    fn rssi_decreases_with_helper_distance() {
        let offs = offsets();
        let rssi_at = |x: f64| -> f64 {
            let mut cfg = SceneConfig::uplink(0.3);
            cfg.helper = bs_channel::Point::new(x, 0.0);
            cfg.fading = FadingConfig::static_channel();
            // Average several seeds to wash out small-scale fading.
            (0..8)
                .map(|seed| {
                    let mut s = Scene::new(cfg.clone(), &SimRng::new(100 + seed));
                    let snap = s.snapshot(0.0, TagState::Absorb, &offs);
                    let mut ex = RssiExtractor::new(SimRng::new(200 + seed));
                    ex.measure(&snap, 0).rssi_dbm[0]
                })
                .sum::<f64>()
                / 8.0
        };
        assert!(rssi_at(3.0) > rssi_at(9.0) + 5.0);
    }

    #[test]
    fn unquantised_extractor_sees_backscatter_differential() {
        // With quantisation off, the reflect/absorb RSSI difference at 5 cm
        // must be visible.
        let mut s = scene(0.05, 5);
        let offs = offsets();
        let a = s.snapshot(0.0, TagState::Reflect, &offs);
        let b = s.snapshot(0.0, TagState::Absorb, &offs);
        let mut ex = RssiExtractor {
            rng: SimRng::new(6),
            quant_db: 0.0,
            jitter_db: 0.0,
        };
        let ra = ex.measure(&a, 0).rssi_dbm[0];
        let rb = ex.measure(&b, 0).rssi_dbm[0];
        assert!((ra - rb).abs() > 0.05, "differential {} dB", ra - rb);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut s = scene(0.3, 7);
        let snap = s.snapshot(0.0, TagState::Reflect, &offsets());
        let mut a = RssiExtractor::new(SimRng::new(8));
        let mut b = RssiExtractor::new(SimRng::new(8));
        assert_eq!(a.measure(&snap, 1), b.measure(&snap, 1));
    }
}
