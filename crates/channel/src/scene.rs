//! The composed propagation scene.
//!
//! A [`Scene`] holds one helper, one reader (with one or more antennas) and
//! one backscatter tag, plus the static multipath realisations and slow
//! fading processes of every link. Each call to [`Scene::snapshot`] returns
//! the *true* complex channel from the helper to each reader antenna at the
//! requested subcarrier offsets, for the tag's current state:
//!
//! ```text
//! H(f, ant, state) = A_hr · g_hr(t) · M_hr[ant](f)                (direct)
//!                  + A_ht·A_tr · s(state) · g_bs(t) · M_ht(f)·M_tr[ant](f)
//! ```
//!
//! where `A` are large-scale amplitude gains (path loss + walls), `M` are
//! unit-power multipath responses, `g` are slow-fading gains and `s` is the
//! tag's scatter amplitude. The `bs-wifi` crate layers measurement effects
//! (CSI estimation noise, quantisation, RSSI integration) on top.
//!
//! The `M` and `A` terms never change after [`Scene::new`], so a scene
//! tabulates them once per set of offsets (helper→tag once, not once per
//! antenna) in a [`ChannelTable`], and a snapshot only multiplies and
//! adds. The table holds each link's response on its own and the
//! snapshot multiplies in the same order as evaluating the formula
//! directly, so tabulating changes no bit of any output.
//!
//! A snapshot is two steps. [`Scene::step`] is the serial one: it
//! advances the fading to the packet's time and returns the few scalars
//! the packet needs (a [`SceneStep`]). [`ChannelTable::fill`] is pure: it
//! multiplies them into the table. [`Scene::snapshot`] is the two in
//! turn; a capture steps in packet order and fills on worker threads.

use crate::backscatter::{RadarCrossSection, TagState};
use crate::fading::{FadingConfig, SlowFading};
use crate::geometry::{path_wall_loss_db, Point, Wall};
use crate::multipath::{Multipath, MultipathConfig};
use crate::noise::NoiseConfig;
use crate::pathloss::{db_to_linear, dbm_to_mw, LogDistance};
use bs_dsp::{Complex, SimRng};

/// Configuration of a propagation scene.
#[derive(Debug, Clone)]
pub struct SceneConfig {
    /// Helper (transmitting Wi-Fi device) position.
    pub helper: Point,
    /// Reader (receiving Wi-Fi device) position.
    pub reader: Point,
    /// Tag position.
    pub tag: Point,
    /// Number of reader antennas (Intel 5300: 3).
    pub reader_antennas: usize,
    /// Wall segments of the floor plan.
    pub walls: Vec<Wall>,
    /// Large-scale path-loss model.
    pub pathloss: LogDistance,
    /// Small-scale multipath profile for line-of-sight links.
    pub multipath: MultipathConfig,
    /// Slow temporal fading.
    pub fading: FadingConfig,
    /// Tag radar cross-section.
    pub rcs: RadarCrossSection,
    /// Helper transmit power (dBm), spread evenly over the data subcarriers.
    pub helper_tx_dbm: f64,
    /// Number of occupied subcarriers sharing the transmit power (802.11n
    /// 20 MHz: 52 data+pilot subcarriers).
    pub occupied_subcarriers: usize,
    /// Bandwidth of one subcarrier (Hz).
    pub subcarrier_bw_hz: f64,
    /// Receiver noise model.
    pub noise: NoiseConfig,
    /// Optional non-Wi-Fi interferer raising the in-band noise floor
    /// while active (e.g. a microwave oven's magnetron duty cycle).
    pub interference: Option<InterferenceConfig>,
}

/// A duty-cycled wideband interferer.
///
/// Microwave ovens are the classic 2.4 GHz offender: the magnetron runs
/// at the mains half-cycle (~8.3 ms on / 8.3 ms off at 60 Hz) and raises
/// the in-band noise floor by tens of dB while on. The paper does not
/// evaluate interference; this extension lets the robustness tests do so.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterferenceConfig {
    /// Interference power received across the 20 MHz band (dBm).
    pub power_dbm: f64,
    /// Fraction of each period the interferer is on.
    pub on_fraction: f64,
    /// Cycle period (µs); 16 667 µs ≈ a 60 Hz mains cycle.
    pub period_us: u64,
}

impl InterferenceConfig {
    /// A microwave oven heard at moderate range: −70 dBm across the band,
    /// half duty at the mains rate.
    pub fn microwave_oven() -> Self {
        InterferenceConfig {
            power_dbm: -70.0,
            on_fraction: 0.5,
            period_us: 16_667,
        }
    }

    /// True if the interferer is radiating at time `t_s`.
    pub fn active_at(&self, t_s: f64) -> bool {
        let t_us = (t_s * 1e6) as u64;
        let phase = t_us % self.period_us.max(1);
        (phase as f64) < self.on_fraction * self.period_us as f64
    }

    /// Added noise per subcarrier (mW) while active, for `n_subcarriers`
    /// sharing the band.
    fn per_subcarrier_mw(&self, n_subcarriers: usize) -> f64 {
        dbm_to_mw(self.power_dbm) / n_subcarriers.max(1) as f64
    }
}

impl SceneConfig {
    /// The canonical uplink evaluation layout (§7.1): helper 3 m from the
    /// tag, reader at `tag_reader_m` metres from the tag, no walls.
    pub fn uplink(tag_reader_m: f64) -> Self {
        SceneConfig {
            helper: Point::new(3.0, 0.0),
            reader: Point::new(-tag_reader_m, 0.0),
            tag: Point::new(0.0, 0.0),
            reader_antennas: 3,
            walls: Vec::new(),
            pathloss: LogDistance {
                exponent: crate::calib::PATHLOSS_EXPONENT,
                freq_hz: crate::pathloss::WIFI_CH6_HZ,
            },
            multipath: MultipathConfig::default(),
            fading: FadingConfig::default(),
            rcs: crate::calib::TAG_RCS,
            helper_tx_dbm: crate::calib::HELPER_TX_DBM,
            occupied_subcarriers: 52,
            subcarrier_bw_hz: 312_500.0,
            noise: NoiseConfig::default(),
            interference: None,
        }
    }

    /// Distance between helper and tag (m).
    pub fn d_helper_tag(&self) -> f64 {
        self.helper.distance(self.tag)
    }

    /// Distance between tag and reader (m).
    pub fn d_tag_reader(&self) -> f64 {
        self.tag.distance(self.reader)
    }
}

/// The true channel at one instant, for one packet.
///
/// The layout is one flat row per packet: `h` holds `antennas` rows of
/// equal width (one value per subcarrier), antenna by antenna, so
/// `h.len()` is the packet's count of virtual sub-channels (§3.2: 30
/// sub-channels × 3 antennas = 90). [`Self::rows`] is the one place that
/// splits it; [`Scene::differential`] and the CSI reports built from a
/// snapshot keep the same order.
#[derive(Debug, Clone)]
pub struct ChannelSnapshot {
    /// Complex channel including path loss, antenna by antenna.
    pub h: Vec<Complex>,
    /// Number of reader antennas, i.e. of rows in `h`.
    pub antennas: usize,
    /// Transmit power per subcarrier (mW).
    pub tx_mw_per_subcarrier: f64,
    /// Receiver noise power per subcarrier (mW).
    pub noise_mw_per_subcarrier: f64,
    /// The tag state this snapshot was taken under.
    pub tag_state: TagState,
    /// Simulation time of the snapshot (seconds).
    pub time_s: f64,
}

impl ChannelSnapshot {
    /// Each antenna's channel in turn: `antennas` rows of equal width
    /// that tile `h` in order (none when `antennas` is 0).
    ///
    /// # Panics
    /// Panics if `h` does not split into `antennas` equal rows.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[Complex]> + '_ {
        let width = self.h.len().checked_div(self.antennas).unwrap_or(0);
        assert_eq!(width * self.antennas, self.h.len(), "ragged rows");
        (0..self.antennas).map(move |a| &self.h[a * width..(a + 1) * width])
    }

    /// One antenna's row of [`Self::rows`].
    fn row(&self, antenna: usize) -> &[Complex] {
        self.rows().nth(antenna).expect("antenna index in range")
    }

    /// Received power (mW) summed over the sampled subcarriers on one
    /// antenna.
    pub fn rx_power_mw(&self, antenna: usize) -> f64 {
        self.row(antenna)
            .iter()
            .map(|h| self.tx_mw_per_subcarrier * h.norm_sq())
            .sum()
    }

    /// Mean per-subcarrier SNR (linear) on one antenna.
    pub fn mean_snr(&self, antenna: usize) -> f64 {
        let n = self.row(antenna).len().max(1) as f64;
        self.rx_power_mw(antenna) / (self.noise_mw_per_subcarrier * n)
    }
}

/// One link's static propagation state.
#[derive(Debug, Clone)]
struct Link {
    /// Large-scale amplitude gain (path loss + wall loss).
    amp: f64,
    /// Small-scale multipath realisation.
    mp: Multipath,
}

/// What [`Scene::step`] reads off a scene for one packet: both
/// slow-fading gains at its time, the tag's scatter amplitude and the
/// noise floor. A few scalars and no heap; [`ChannelTable::fill`] turns
/// them into the packet's channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SceneStep {
    g_direct: Complex,
    g_scatter: Complex,
    scatter_amp: f64,
    noise_mw_per_subcarrier: f64,
    tag_state: TagState,
    time_s: f64,
}

/// A scene's multipath responses at one set of subcarrier offsets, with
/// each link's large-scale gain: all of a snapshot's channel that never
/// changes after [`Scene::new`]. Filling from it is pure, so a clone can
/// serve other threads while the scene's fading moves on.
#[derive(Debug, Clone)]
pub struct ChannelTable {
    /// The offsets tabulated (Hz), matched bitwise.
    offsets_hz: Vec<f64>,
    /// One entry per reader antenna, in order.
    antennas: Vec<AntennaResponses>,
    /// Helper → tag gain.
    ht_amp: f64,
    /// `ht[subcarrier]`: helper → tag, shared by every antenna.
    ht: Vec<Complex>,
    /// Transmit power per subcarrier (mW).
    tx_mw_per_subcarrier: f64,
}

/// One reader antenna's two links in a [`ChannelTable`]: gain and
/// response per subcarrier.
#[derive(Debug, Clone)]
struct AntennaResponses {
    hr_amp: f64,
    /// Helper → reader.
    hr: Vec<Complex>,
    tr_amp: f64,
    /// Tag → reader.
    tr: Vec<Complex>,
}

impl ChannelTable {
    fn tabulates(&self, freq_offsets_hz: &[f64]) -> bool {
        self.offsets_hz.len() == freq_offsets_hz.len()
            && self
                .offsets_hz
                .iter()
                .zip(freq_offsets_hz)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Values per snapshot: antennas × offsets.
    fn width(&self) -> usize {
        self.antennas.len() * self.ht.len()
    }

    /// A new snapshot of `step`, as [`Self::fill`] writes it.
    pub fn snapshot(&self, step: &SceneStep) -> ChannelSnapshot {
        let mut snap = ChannelSnapshot {
            h: Vec::with_capacity(self.width()),
            antennas: 0,
            tx_mw_per_subcarrier: 0.0,
            noise_mw_per_subcarrier: 0.0,
            tag_state: step.tag_state,
            time_s: 0.0,
        };
        self.fill(step, &mut snap);
        snap
    }

    /// Overwrites `snap` with the snapshot of `step`, reusing its `h`
    /// buffer: the module docs' formula, multiplied in its order, which
    /// is what [`Scene::snapshot`] returns, bit for bit.
    pub fn fill(&self, step: &SceneStep, snap: &mut ChannelSnapshot) {
        let mut h = std::mem::take(&mut snap.h);
        h.clear();
        for a in &self.antennas {
            let scatter_gain = self.ht_amp * a.tr_amp * step.scatter_amp;
            h.extend(
                (a.hr.iter().zip(&self.ht).zip(&a.tr)).map(|((&m_hr, &m_ht), &m_tr)| {
                    let direct = step.g_direct * m_hr * a.hr_amp;
                    let scattered = step.g_scatter * m_ht * m_tr * scatter_gain;
                    direct + scattered
                }),
            );
        }
        *snap = ChannelSnapshot {
            h,
            antennas: self.antennas.len(),
            tx_mw_per_subcarrier: self.tx_mw_per_subcarrier,
            noise_mw_per_subcarrier: step.noise_mw_per_subcarrier,
            tag_state: step.tag_state,
            time_s: step.time_s,
        };
    }
}

/// A composed propagation scene; see the module docs for the model.
#[derive(Debug, Clone)]
pub struct Scene {
    cfg: SceneConfig,
    /// Helper → reader, one realisation per antenna.
    hr: Vec<Link>,
    /// Helper → tag.
    ht: Link,
    /// Tag → reader, one per antenna.
    tr: Vec<Link>,
    fading_direct: SlowFading,
    fading_scatter: SlowFading,
    /// The table at the offsets of the last snapshot; built on the
    /// first one and rebuilt whenever the offsets change.
    table: Option<ChannelTable>,
}

impl Scene {
    /// Builds the scene, drawing all multipath realisations from `rng`.
    ///
    /// # Panics
    /// Panics if `reader_antennas == 0`.
    pub fn new(cfg: SceneConfig, rng: &SimRng) -> Self {
        assert!(
            cfg.reader_antennas > 0,
            "scene needs at least one reader antenna"
        );
        let make_link = |a: Point, b: Point, name: &str, idx: u64| -> Link {
            let d = a.distance(b);
            let wall_db = path_wall_loss_db(&cfg.walls, a, b);
            let amp = cfg.pathloss.amplitude_gain(d) * db_to_linear(-wall_db).sqrt();
            let los = crate::geometry::line_of_sight(&cfg.walls, a, b);
            let mp_cfg = if los {
                cfg.multipath
            } else {
                cfg.multipath.nlos()
            };
            let mut link_rng = rng.stream(name).substream(idx);
            Link {
                amp,
                mp: Multipath::generate(&mp_cfg, &mut link_rng),
            }
        };

        let hr = (0..cfg.reader_antennas)
            .map(|a| make_link(cfg.helper, cfg.reader, "link-helper-reader", a as u64))
            .collect();
        let ht = make_link(cfg.helper, cfg.tag, "link-helper-tag", 0);
        let tr = (0..cfg.reader_antennas)
            .map(|a| make_link(cfg.tag, cfg.reader, "link-tag-reader", a as u64))
            .collect();

        let fading_direct = SlowFading::new(cfg.fading, rng.stream("fading-direct"));
        let fading_scatter = SlowFading::new(cfg.fading, rng.stream("fading-scatter"));

        Scene {
            cfg,
            hr,
            ht,
            tr,
            fading_direct,
            fading_scatter,
            table: None,
        }
    }

    /// Tabulates every link at `freq_offsets_hz`.
    fn tabulate(&self, freq_offsets_hz: &[f64]) -> ChannelTable {
        ChannelTable {
            offsets_hz: freq_offsets_hz.to_vec(),
            antennas: (self.hr.iter().zip(&self.tr))
                .map(|(hr, tr)| AntennaResponses {
                    hr_amp: hr.amp,
                    hr: hr.mp.response_at(freq_offsets_hz),
                    tr_amp: tr.amp,
                    tr: tr.mp.response_at(freq_offsets_hz),
                })
                .collect(),
            ht_amp: self.ht.amp,
            ht: self.ht.mp.response_at(freq_offsets_hz),
            tx_mw_per_subcarrier: dbm_to_mw(self.cfg.helper_tx_dbm)
                / self.cfg.occupied_subcarriers as f64,
        }
    }

    /// The scene configuration.
    pub fn config(&self) -> &SceneConfig {
        &self.cfg
    }

    /// The serial half of [`Self::snapshot`]: advances both slow-fading
    /// processes to `t_s` and reads the tag's scatter amplitude and the
    /// noise floor, with the interferer's share if it is on at `t_s`.
    ///
    /// Time must be non-decreasing across calls (the slow-fading
    /// processes advance monotonically).
    pub fn step(&mut self, t_s: f64, tag_state: TagState) -> SceneStep {
        let g_direct = self.fading_direct.gain_at(t_s);
        let g_scatter = self.fading_scatter.gain_at(t_s);
        let scatter_amp = self
            .cfg
            .rcs
            .scatter_amplitude(tag_state, self.cfg.pathloss.freq_hz);
        let mut noise_mw = self.cfg.noise.noise_mw(self.cfg.subcarrier_bw_hz);
        if let Some(intf) = &self.cfg.interference {
            if intf.active_at(t_s) {
                noise_mw += intf.per_subcarrier_mw(self.cfg.occupied_subcarriers);
            }
        }
        SceneStep {
            g_direct,
            g_scatter,
            scatter_amp,
            noise_mw_per_subcarrier: noise_mw,
            tag_state,
            time_s: t_s,
        }
    }

    /// The table at `freq_offsets_hz`, the pure half of
    /// [`Self::snapshot`]; built on first use and rebuilt whenever the
    /// offsets change.
    pub fn table(&mut self, freq_offsets_hz: &[f64]) -> &ChannelTable {
        if !self
            .table
            .as_ref()
            .is_some_and(|t| t.tabulates(freq_offsets_hz))
        {
            self.table = Some(self.tabulate(freq_offsets_hz));
        }
        self.table.as_ref().expect("table built above")
    }

    /// The true channel at time `t_s` with the tag in `tag_state`, sampled
    /// at the given subcarrier frequency offsets (Hz from the carrier):
    /// [`Self::step`], then [`ChannelTable::fill`] from [`Self::table`].
    ///
    /// Time must be non-decreasing across calls (the slow-fading processes
    /// advance monotonically).
    pub fn snapshot(
        &mut self,
        t_s: f64,
        tag_state: TagState,
        freq_offsets_hz: &[f64],
    ) -> ChannelSnapshot {
        let step = self.step(t_s, tag_state);
        self.table(freq_offsets_hz).snapshot(&step)
    }

    /// The complex backscatter *differential* `H(Reflect) − H(Absorb)`,
    /// laid out like [`ChannelSnapshot::h`]: one row per reader antenna,
    /// antenna by antenna. Useful for analysis and tests; the fading state
    /// is not advanced.
    pub fn differential(&self, freq_offsets_hz: &[f64]) -> Vec<Complex> {
        let d_amp = self
            .cfg
            .rcs
            .differential_amplitude(self.cfg.pathloss.freq_hz);
        let m = self.tabulate(freq_offsets_hz);
        let mut d = Vec::with_capacity(m.width());
        for a in &m.antennas {
            let gain = m.ht_amp * a.tr_amp * d_amp;
            d.extend(
                m.ht.iter()
                    .zip(&a.tr)
                    .map(|(&m_ht, &m_tr)| m_ht * m_tr * gain),
            );
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 30 sub-channel offsets reported by the Intel CSI tool, spaced
    /// across ±10 MHz (approximation used only by these tests).
    fn offsets() -> Vec<f64> {
        (0..30).map(|i| (i as f64 - 14.5) * 625_000.0).collect()
    }

    fn scene(d_tag_reader: f64, seed: u64) -> Scene {
        let mut cfg = SceneConfig::uplink(d_tag_reader);
        cfg.fading = FadingConfig::static_channel();
        Scene::new(cfg, &SimRng::new(seed))
    }

    /// The module-doc formula evaluated straight from the multipath taps,
    /// advancing `s`'s fading processes as a snapshot would.
    fn formula(s: &mut Scene, t_s: f64, state: TagState, f: &[f64]) -> Vec<Complex> {
        let g_direct = s.fading_direct.gain_at(t_s);
        let g_scatter = s.fading_scatter.gain_at(t_s);
        let amp = s.cfg.rcs.scatter_amplitude(state, s.cfg.pathloss.freq_hz);
        (0..s.cfg.reader_antennas)
            .flat_map(|ant| {
                let (hr, ht, tr) = (&s.hr[ant], &s.ht, &s.tr[ant]);
                f.iter().map(move |&f| {
                    g_direct * hr.mp.response(f) * hr.amp
                        + g_scatter
                            * ht.mp.response(f)
                            * tr.mp.response(f)
                            * (ht.amp * tr.amp * amp)
                })
            })
            .collect()
    }

    fn bits(h: &[Complex]) -> Vec<(u64, u64)> {
        h.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    }

    fn snapshot_of(h: Vec<Complex>, antennas: usize) -> ChannelSnapshot {
        ChannelSnapshot {
            h,
            antennas,
            tx_mw_per_subcarrier: 1.0,
            noise_mw_per_subcarrier: 1.0,
            tag_state: TagState::Absorb,
            time_s: 0.0,
        }
    }

    #[test]
    fn rows_tile_h_in_antenna_order() {
        let h: Vec<Complex> = (0..12).map(|i| Complex::new(i as f64, 0.0)).collect();
        for antennas in [1, 2, 3, 4, 6, 12] {
            let snap = snapshot_of(h.clone(), antennas);
            let rows: Vec<&[Complex]> = snap.rows().collect();
            assert!(rows.iter().all(|r| r.len() == 12 / antennas), "{antennas}");
            assert_eq!((rows.len(), rows.concat()), (antennas, h.clone()));
        }
        let widths = |antennas| -> Vec<usize> {
            let snap = snapshot_of(Vec::new(), antennas);
            snap.rows().map(<[_]>::len).collect()
        };
        assert_eq!((widths(3), widths(0)), (vec![0; 3], vec![]));
    }

    #[test]
    #[should_panic(expected = "ragged rows")]
    fn rows_refuse_a_ragged_h() {
        snapshot_of(vec![Complex::new(1.0, 0.0); 7], 2)
            .rows()
            .count();
    }

    #[test]
    fn tabulated_snapshot_is_bit_identical_to_the_formula() {
        // Default (time-varying) fading, so the per-packet gains move.
        let cfg = SceneConfig::uplink(0.4);
        let mut tabulated = Scene::new(cfg.clone(), &SimRng::new(31));
        let mut twin = Scene::new(cfg, &SimRng::new(31));
        let a = offsets();
        let b: Vec<f64> = a.iter().map(|f| f + 156_250.0).collect();
        let plan = [
            (&a, TagState::Reflect),
            (&a, TagState::Absorb),
            (&b, TagState::Absorb),
            (&b, TagState::Reflect),
            (&a, TagState::Reflect),
            (&a, TagState::Absorb),
        ];
        let mut seen = Vec::new();
        for (i, (f, state)) in plan.into_iter().enumerate() {
            let t_s = i as f64 * 0.05;
            let snap = tabulated.snapshot(t_s, state, f);
            let table = tabulated.table.as_ref().expect("tabulated");
            assert_eq!(&table.offsets_hz, f, "step {i}: stale table");
            let got = bits(&snap.h);
            assert_eq!(got, bits(&formula(&mut twin, t_s, state, f)), "step {i}");
            seen.push(got);
        }
        // The fading moved between steps: A → B → A is not one repeated
        // snapshot.
        assert_ne!(seen[0], seen[4]);
        assert_ne!(seen[1], seen[5]);

        let d_amp = twin
            .cfg
            .rcs
            .differential_amplitude(twin.cfg.pathloss.freq_hz);
        let direct: Vec<Complex> = (twin.tr.iter())
            .flat_map(|tr| {
                let ht = &twin.ht;
                a.iter().map(move |&f| {
                    ht.mp.response(f) * tr.mp.response(f) * (ht.amp * tr.amp * d_amp)
                })
            })
            .collect();
        assert_eq!(bits(&tabulated.differential(&a)), bits(&direct));
    }

    #[test]
    fn snapshot_shape_matches_config() {
        let mut s = scene(0.5, 1);
        let snap = s.snapshot(0.0, TagState::Reflect, &offsets());
        assert_eq!((snap.antennas, snap.h.len()), (3, 90));
        assert!(snap.rows().all(|a| a.len() == 30));
    }

    #[test]
    fn states_differ_and_differential_matches() {
        let mut s = scene(0.3, 2);
        let f = offsets();
        let a = s.snapshot(0.0, TagState::Reflect, &f);
        let b = s.snapshot(0.0, TagState::Absorb, &f);
        let d = s.differential(&f);
        assert_eq!(d.len(), a.h.len());
        for (k, ((&va, &vb), &vd)) in a.h.iter().zip(&b.h).zip(&d).enumerate() {
            let measured = va - vb;
            assert!((measured - vd).abs() < 1e-12, "value {k}");
            assert!(measured.abs() > 0.0);
        }
    }

    #[test]
    fn differential_decays_with_tag_reader_distance() {
        let f = offsets();
        let mean_diff = |d: f64| -> f64 {
            // Average over several seeds to smooth small-scale fading.
            (0..10)
                .map(|seed| {
                    let s = scene(d, 100 + seed);
                    let diff = s.differential(&f);
                    diff.iter().map(|c| c.abs()).sum::<f64>() / diff.len() as f64
                })
                .sum::<f64>()
                / 10.0
        };
        let d05 = mean_diff(0.05);
        let d50 = mean_diff(0.5);
        let d200 = mean_diff(2.0);
        assert!(d05 > d50 && d50 > d200, "{d05} {d50} {d200}");
        // Beyond the 1 m reference the model is steeper than free space;
        // overall the decay should be at least ~1/d.
        assert!(d05 / d50 > 5.0, "ratio {}", d05 / d50);
    }

    #[test]
    fn rx_power_at_3m_is_plausible() {
        // +16 dBm over ~52 subcarriers at 3 m with exponent 2.6:
        // roughly -75..-55 dBm total received power.
        let mut s = scene(0.5, 3);
        let snap = s.snapshot(0.0, TagState::Absorb, &offsets());
        let rx_dbm = crate::pathloss::mw_to_dbm(snap.rx_power_mw(0));
        assert!((-80.0..=-40.0).contains(&rx_dbm), "rx {rx_dbm} dBm");
        // SNR comfortably positive.
        assert!(snap.mean_snr(0) > 10.0, "snr {}", snap.mean_snr(0));
    }

    #[test]
    fn antennas_have_independent_small_scale_fading() {
        let mut s = scene(0.5, 4);
        let snap = s.snapshot(0.0, TagState::Absorb, &offsets());
        // Different antennas see different channel magnitudes.
        let m: Vec<f64> = snap
            .rows()
            .map(|row| row.iter().map(|h| h.abs()).sum())
            .collect();
        let (m0, m1) = (m[0], m[1]);
        assert!((m0 - m1).abs() / m0 > 0.01, "{m0} vs {m1}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = scene(0.7, 9);
        let mut b = scene(0.7, 9);
        let f = offsets();
        let sa = a.snapshot(0.5, TagState::Reflect, &f);
        let sb = b.snapshot(0.5, TagState::Reflect, &f);
        assert_eq!(sa.h, sb.h);
    }

    #[test]
    fn differential_projection_varies_across_subcarriers() {
        // The *measured CSI amplitude* change is the projection of ΔH onto
        // the direct channel's phase; multipath makes this projection vary
        // across subcarriers — the mechanism behind Fig. 4/5.
        let mut s = scene(0.1, 11);
        let f = offsets();
        let snap = s.snapshot(0.0, TagState::Absorb, &f);
        let d = s.differential(&f);
        // Antenna 0: the first row of each.
        let projections: Vec<f64> = (snap.rows().next().expect("antenna 0").iter())
            .zip(&d)
            .map(|(&h, dk)| (dk.conj() * h).re / h.abs())
            .collect();
        let max = projections.iter().cloned().fold(f64::MIN, f64::max);
        let min = projections.iter().cloned().fold(f64::MAX, f64::min);
        // Some subcarriers see strong positive change, others weak or
        // negative.
        assert!(max > 0.0, "max {max}");
        assert!(min < max * 0.25, "min {min} max {max}");
    }

    #[test]
    fn wall_reduces_received_power() {
        let f = offsets();
        let mut open = SceneConfig::uplink(0.5);
        open.fading = FadingConfig::static_channel();
        let mut walled = open.clone();
        walled.walls = vec![crate::geometry::Wall::new(
            Point::new(1.5, -5.0),
            Point::new(1.5, 5.0),
            10.0,
        )];
        // Average over seeds: NLOS multipath redistributes power randomly,
        // but the 10 dB wall must dominate.
        let mean_rx = |cfg: &SceneConfig| -> f64 {
            (0..8)
                .map(|seed| {
                    let mut s = Scene::new(cfg.clone(), &SimRng::new(500 + seed));
                    s.snapshot(0.0, TagState::Absorb, &f).rx_power_mw(0)
                })
                .sum::<f64>()
                / 8.0
        };
        let p_open = mean_rx(&open);
        let p_wall = mean_rx(&walled);
        let drop_db = crate::pathloss::linear_to_db(p_open / p_wall);
        assert!(drop_db > 6.0, "wall only dropped {drop_db} dB");
    }

    #[test]
    #[should_panic(expected = "at least one reader antenna")]
    fn zero_antennas_panics() {
        let mut cfg = SceneConfig::uplink(0.5);
        cfg.reader_antennas = 0;
        Scene::new(cfg, &SimRng::new(0));
    }

    #[test]
    fn interferer_duty_cycle_timing() {
        let i = InterferenceConfig::microwave_oven();
        assert!(i.active_at(0.001)); // early in the cycle
        assert!(!i.active_at(0.012)); // second half of the 16.7 ms cycle
        assert!(i.active_at(0.0175)); // next cycle's on phase
    }

    #[test]
    fn interferer_raises_noise_floor_while_on() {
        let mut cfg = SceneConfig::uplink(0.3);
        cfg.fading = FadingConfig::static_channel();
        cfg.interference = Some(InterferenceConfig::microwave_oven());
        let mut s = Scene::new(cfg, &SimRng::new(50));
        let f = offsets();
        let on = s.snapshot(0.001, TagState::Absorb, &f);
        let off = s.snapshot(0.012, TagState::Absorb, &f);
        assert!(
            on.noise_mw_per_subcarrier > 10.0 * off.noise_mw_per_subcarrier,
            "on {} off {}",
            on.noise_mw_per_subcarrier,
            off.noise_mw_per_subcarrier
        );
    }

    #[test]
    fn distances_accessors() {
        let cfg = SceneConfig::uplink(0.5);
        assert!((cfg.d_tag_reader() - 0.5).abs() < 1e-12);
        assert!((cfg.d_helper_tag() - 3.0).abs() < 1e-12);
    }
}
