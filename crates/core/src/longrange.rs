//! The long-range coded uplink decoder (§3.4).
//!
//! Past ~65 cm the two CSI levels merge into the noise (Fig. 6) and the
//! per-packet slicer breaks down. The tag then represents each bit with one
//! of two orthogonal L-chip codes; the reader correlates the conditioned
//! channel series with both codes over each bit window and outputs the bit
//! whose code correlates more strongly. Correlation over L chips buys an
//! SNR gain ∝ L, which extends the range to 1.6 m at L = 20 and ~2.1 m at
//! L ≈ 150 (Fig. 20) without the tag doing anything more expensive than
//! toggling its switch L× as often.

use crate::series::{SeriesBundle, SlotIndex};
use crate::uplink::frame_of;
use bs_dsp::codes::OrthogonalPair;
use bs_dsp::filter::condition;
use bs_dsp::obs::{NullRecorder, Recorder};
use bs_tag::frame::UplinkFrame;

/// Conditioning window (µs), the plain decoder's default 400 ms.
const CONDITIONING_WINDOW_US: u64 = 400_000;

/// The conditioning half-window in packets at the bundle's median gap.
fn conditioning_half_window(bundle: &SeriesBundle) -> usize {
    let gap = bundle.median_gap_us().max(1);
    ((CONDITIONING_WINDOW_US / 2) / gap).max(2) as usize
}

/// Long-range decoder configuration.
#[derive(Debug, Clone)]
pub struct LongRangeConfig {
    /// Chip duration (µs) — the original bit duration divided by L.
    pub chip_duration_us: u64,
    /// The code pair in use.
    pub code: OrthogonalPair,
    /// Expected payload length (bits).
    pub payload_bits: usize,
    /// Channels combined per bit ("picks the Wi-Fi sub-channels that
    /// provide the maximum correlation peaks", §3.4).
    pub top_channels: usize,
}

impl LongRangeConfig {
    /// A standard configuration: code length `l`, chip rate chosen so each
    /// chip still spans several Wi-Fi packets at `chip_rate_cps` chips/s.
    pub fn new(l: usize, chip_rate_cps: u64, payload_bits: usize) -> Self {
        LongRangeConfig {
            // Clamped to ≥ 1 µs: above 1 Mchip/s the integer division
            // would yield 0 and trip the constructor assert.
            chip_duration_us: (1_000_000 / chip_rate_cps.max(1)).max(1),
            code: OrthogonalPair::new(l),
            payload_bits,
            top_channels: 10,
        }
    }
}

/// Long-range decode output.
#[derive(Debug, Clone, PartialEq)]
pub struct LongRangeOutput {
    /// Payload bit decisions. `None` is an erasure: the bit's window held
    /// no packets at all, so the correlator had nothing to correlate —
    /// the same erasure semantics as the plain decoder's empty slots.
    pub bits: Vec<Option<bool>>,
    /// The payload as a frame; `None` if any bit was erased.
    pub frame: Option<UplinkFrame>,
    /// Channel indices used, best first.
    pub channels: Vec<usize>,
}

/// The long-range correlation decoder.
#[derive(Debug, Clone)]
pub struct LongRangeDecoder {
    cfg: LongRangeConfig,
}

impl LongRangeDecoder {
    /// Creates a decoder.
    pub fn new(cfg: LongRangeConfig) -> Self {
        assert!(cfg.chip_duration_us > 0, "chip duration must be positive");
        LongRangeDecoder { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &LongRangeConfig {
        &self.cfg
    }

    /// Correlates one channel's conditioned series against one code over
    /// the bit window starting at `bit_start_us`: each packet contributes
    /// `x[p] · code[chip(t_p)]`.
    fn correlate_bit(
        &self,
        bundle: &SeriesBundle,
        channel: &[f64],
        bit_start_us: u64,
        code: &[i8],
    ) -> f64 {
        let l = code.len() as u64;
        let chip = self.cfg.chip_duration_us;
        let end = bit_start_us + l * chip;
        let mut acc = 0.0;
        for (p, &t) in bundle.t_us().iter().enumerate() {
            if t < bit_start_us || t >= end {
                continue;
            }
            let c = ((t - bit_start_us) / chip) as usize;
            acc += channel[p] * f64::from(code[c]);
        }
        acc
    }

    /// Per-bit signed margin `corr(one) − corr(zero)` for one channel.
    fn bit_margin(&self, bundle: &SeriesBundle, channel: &[f64], bit_start_us: u64) -> f64 {
        let c1 = self.correlate_bit(bundle, channel, bit_start_us, &self.cfg.code.one);
        let c0 = self.correlate_bit(bundle, channel, bit_start_us, &self.cfg.code.zero);
        c1 - c0
    }

    /// Decodes one frame starting exactly at `start_us` (the reader timed
    /// the query, and chip-level alignment is maintained by the tag's bit
    /// clock). Live packets are pushed into a [`SeriesBundle`] and
    /// decoded here.
    pub fn decode(&self, bundle: &SeriesBundle, start_us: u64) -> Option<LongRangeOutput> {
        self.decode_indexed(&mut SlotIndex::new(bundle), start_us, &mut NullRecorder)
    }

    /// [`Self::decode`] against a caller-owned [`SlotIndex`], sharing
    /// the conditioned series (and window lookups) with other decode
    /// attempts on the same capture. Each bit window is a contiguous
    /// packet range on the ascending timestamp axis, so the per-chip
    /// correlations iterate exactly the window's packets — in packet
    /// order, keeping the accumulation bit-exact against
    /// [`Self::decode_reference`] — instead of scanning the whole stream
    /// per (channel, bit, code). `None` if the bundle has no packets or
    /// no channels.
    ///
    /// The recorder only observes: a `uplink.correlate` span over the
    /// bundle's simulated-time extent (items = packets visited by the
    /// chip correlations — linear in the frame's packets, not in
    /// channels × bits × packets) and the selector counters
    /// (`uplink.channels-kept`, `uplink.channels-dropped`).
    pub fn decode_indexed(
        &self,
        index: &mut SlotIndex<'_>,
        start_us: u64,
        rec: &mut dyn Recorder,
    ) -> Option<LongRangeOutput> {
        let bundle = index.bundle();
        if bundle.packets() == 0 || bundle.channels() == 0 {
            return None;
        }
        let t_lo = *bundle.t_us().first().unwrap_or(&0);
        let t_hi = *bundle.t_us().last().unwrap_or(&0);
        let half = conditioning_half_window(bundle);
        let conditioned = index.conditioned(half);

        let preamble = bs_tag::frame::uplink_preamble();
        let bit_us = self.cfg.code.len() as u64 * self.cfg.chip_duration_us;
        let mut visited = 0u64;

        // The bit windows are channel-independent: resolve each one to
        // its packet range once, up front.
        let window = |b: u64| {
            let lo = start_us + b * bit_us;
            index.packet_range(lo, lo.saturating_add(bit_us))
        };
        let pre_ranges: Vec<_> = (0..preamble.len() as u64).map(&window).collect();

        // Rank channels by how well the *known preamble* decodes on them,
        // capturing each channel's polarity at the same time.
        let mut ranked: Vec<(usize, f64, f64)> = Vec::new(); // (idx, quality, polarity)
        for (i, ch) in conditioned.iter().enumerate() {
            let mut agree = 0.0;
            for (b, &bit) in preamble.iter().enumerate() {
                let bit_start = start_us + b as u64 * bit_us;
                let m = self.margin_in_range(bundle, ch, pre_ranges[b].clone(), bit_start);
                visited += 2 * pre_ranges[b].len() as u64;
                agree += if bit { m } else { -m };
            }
            // A NaN/∞ quality cannot be ranked meaningfully: skip the
            // channel, as the plain decoder's selector does.
            if !agree.is_finite() {
                continue;
            }
            ranked.push((i, agree.abs(), agree.signum()));
        }
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        ranked.truncate(self.cfg.top_channels);
        if ranked.is_empty() || ranked[0].1 == 0.0 {
            return None;
        }
        rec.add("uplink.channels-kept", ranked.len() as u64);
        rec.add(
            "uplink.channels-dropped",
            (bundle.channels() - ranked.len()) as u64,
        );

        // Decode payload bits with the polarity-corrected combined margin.
        // A window with zero packets is an erasure — correlating nothing
        // must not pass for a confident bit.
        let pre_len = preamble.len();
        let mut bits = Vec::with_capacity(self.cfg.payload_bits);
        for b in 0..self.cfg.payload_bits {
            let bit_start = start_us + (pre_len + b) as u64 * bit_us;
            let range = window((pre_len + b) as u64);
            if range.is_empty() {
                bits.push(None);
                continue;
            }
            visited += 2 * (range.len() * ranked.len()) as u64;
            let combined: f64 = ranked
                .iter()
                .map(|&(i, quality, pol)| {
                    quality
                        * pol
                        * self.margin_in_range(bundle, &conditioned[i], range.clone(), bit_start)
                })
                .sum();
            bits.push(Some(combined > 0.0));
        }
        rec.span("uplink.correlate", t_lo, t_hi, visited);
        let frame = frame_of(&bits);
        Some(LongRangeOutput {
            bits,
            frame,
            channels: ranked.iter().map(|&(i, _, _)| i).collect(),
        })
    }

    /// The straight-line reference decoder: same pipeline and same
    /// outputs as [`Self::decode`], but every chip correlation is a full
    /// pass over the packet stream. Kept as the ground truth the indexed
    /// path must match bit for bit.
    pub fn decode_reference(
        &self,
        bundle: &SeriesBundle,
        start_us: u64,
    ) -> Option<LongRangeOutput> {
        if bundle.packets() == 0 || bundle.channels() == 0 {
            return None;
        }
        let half = conditioning_half_window(bundle);
        let conditioned: Vec<Vec<f64>> = (0..bundle.channels())
            .map(|c| condition(bundle.channel(c), half))
            .collect();

        let preamble = bs_tag::frame::uplink_preamble();
        let bit_us = self.cfg.code.len() as u64 * self.cfg.chip_duration_us;

        let mut ranked: Vec<(usize, f64, f64)> = Vec::new(); // (idx, quality, polarity)
        for (i, ch) in conditioned.iter().enumerate() {
            let mut agree = 0.0;
            for (b, &bit) in preamble.iter().enumerate() {
                let m = self.bit_margin(bundle, ch, start_us + b as u64 * bit_us);
                agree += if bit { m } else { -m };
            }
            if !agree.is_finite() {
                continue;
            }
            ranked.push((i, agree.abs(), agree.signum()));
        }
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        ranked.truncate(self.cfg.top_channels);
        if ranked.is_empty() || ranked[0].1 == 0.0 {
            return None;
        }

        let pre_len = preamble.len();
        let mut bits = Vec::with_capacity(self.cfg.payload_bits);
        for b in 0..self.cfg.payload_bits {
            let bit_start = start_us + (pre_len + b) as u64 * bit_us;
            let end = bit_start.saturating_add(bit_us);
            let occupied = bundle.t_us().iter().any(|&t| t >= bit_start && t < end);
            if !occupied {
                bits.push(None);
                continue;
            }
            let combined: f64 = ranked
                .iter()
                .map(|&(i, quality, pol)| {
                    quality * pol * self.bit_margin(bundle, &conditioned[i], bit_start)
                })
                .sum();
            bits.push(Some(combined > 0.0));
        }
        let frame = frame_of(&bits);
        Some(LongRangeOutput {
            bits,
            frame,
            channels: ranked.iter().map(|&(i, _, _)| i).collect(),
        })
    }

    /// [`Self::bit_margin`] restricted to the window's contiguous packet
    /// range: the two code correlations accumulate over exactly the
    /// packets of `range` in order, making the result bit-exact against
    /// the full-scan version while doing only O(window) work.
    fn margin_in_range(
        &self,
        bundle: &SeriesBundle,
        channel: &[f64],
        range: std::ops::Range<usize>,
        bit_start_us: u64,
    ) -> f64 {
        let chip = self.cfg.chip_duration_us;
        let mut c1 = 0.0;
        for p in range.clone() {
            let c = ((bundle.t_us()[p] - bit_start_us) / chip) as usize;
            c1 += channel[p] * f64::from(self.cfg.code.one[c]);
        }
        let mut c0 = 0.0;
        for p in range {
            let c = ((bundle.t_us()[p] - bit_start_us) / chip) as usize;
            c0 += channel[p] * f64::from(self.cfg.code.zero[c]);
        }
        c1 - c0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bs_dsp::SimRng;

    /// Synthetic long-range bundle: very weak modulation buried in noise.
    fn synth(
        payload: &[bool],
        l: usize,
        amp: f64,
        noise: f64,
        gap_us: u64,
        chip_us: u64,
        seed: u64,
    ) -> SeriesBundle {
        let frame = UplinkFrame::new(payload.to_vec());
        let bits = frame.to_bits();
        let pair = OrthogonalPair::new(l);
        let chips: Vec<bool> = bits
            .iter()
            .flat_map(|&b| pair.code_for(b).iter().map(|&c| c > 0).collect::<Vec<_>>())
            .collect();
        let total_us = chips.len() as u64 * chip_us + 100_000;
        let t_us: Vec<u64> = (0..)
            .map(|i| i * gap_us)
            .take_while(|&t| t < total_us)
            .collect();
        let mut rng = SimRng::new(seed).stream("lr-synth");
        let series: Vec<Vec<f64>> = (0..12)
            .map(|c| {
                let good = c < 6;
                let polarity = if c % 2 == 0 { 1.0 } else { -1.0 };
                t_us.iter()
                    .map(|&t| {
                        let level = if good {
                            let chip = (t / chip_us) as usize;
                            match chips.get(chip) {
                                Some(&true) => amp * polarity,
                                Some(&false) => -amp * polarity,
                                None => 0.0,
                            }
                        } else {
                            0.0
                        };
                        20.0 + level + rng.gaussian(0.0, noise)
                    })
                    .collect()
            })
            .collect();
        SeriesBundle::from_columns(t_us, series).unwrap()
    }

    fn cfg(l: usize, chip_us: u64, payload: usize) -> LongRangeConfig {
        LongRangeConfig {
            chip_duration_us: chip_us,
            code: OrthogonalPair::new(l),
            payload_bits: payload,
            top_channels: 6,
        }
    }

    #[test]
    fn decodes_below_slicer_threshold() {
        // Amplitude 0.15 vs noise 1.0: per-packet SNR ≈ −16 dB — hopeless
        // for the plain slicer, easy for L=100 correlation with ~3 packets
        // per chip.
        let payload: Vec<bool> = (0..16).map(|i| i % 3 == 0).collect();
        let bundle = synth(&payload, 100, 0.15, 1.0, 333, 1_000, 1);
        let dec = LongRangeDecoder::new(cfg(100, 1_000, 16));
        let out = dec.decode(&bundle, 0).expect("no detection");
        assert_eq!(out.frame.unwrap().payload, payload);
    }

    #[test]
    fn longer_codes_tolerate_more_noise() {
        let payload: Vec<bool> = (0..12).map(|i| i % 2 == 0).collect();
        let errors = |l: usize, seed: u64| -> usize {
            let bundle = synth(&payload, l, 0.08, 1.0, 333, 1_000, seed);
            let dec = LongRangeDecoder::new(cfg(l, 1_000, 12));
            match dec.decode(&bundle, 0) {
                Some(out) => out
                    .bits
                    .iter()
                    .zip(&payload)
                    .filter(|(b, &w)| **b != Some(w))
                    .count(),
                None => payload.len(),
            }
        };
        let short: usize = (0..6).map(|s| errors(8, 10 + s)).sum();
        let long: usize = (0..6).map(|s| errors(120, 20 + s)).sum();
        assert!(long < short, "long {long} short {short}");
    }

    #[test]
    fn good_channels_selected() {
        let payload: Vec<bool> = (0..8).map(|i| i % 2 == 1).collect();
        let bundle = synth(&payload, 60, 0.3, 0.5, 333, 1_000, 3);
        let dec = LongRangeDecoder::new(cfg(60, 1_000, 8));
        let out = dec.decode(&bundle, 0).unwrap();
        let good = out.channels.iter().filter(|&&c| c < 6).count();
        assert!(good >= 5, "channels {:?}", out.channels);
    }

    #[test]
    fn empty_bundle_is_none() {
        let dec = LongRangeDecoder::new(cfg(20, 1_000, 8));
        assert!(dec.decode(&SeriesBundle::new(0), 0).is_none());
    }

    #[test]
    fn mixed_polarity_channels_decode() {
        // The synth helper alternates channel polarity; correctness across
        // several seeds shows the polarity correction works.
        let payload: Vec<bool> = (0..10).map(|i| (i * 7) % 4 < 2).collect();
        for seed in 0..5 {
            let bundle = synth(&payload, 80, 0.2, 0.6, 333, 1_000, 50 + seed);
            let dec = LongRangeDecoder::new(cfg(80, 1_000, 10));
            let out = dec.decode(&bundle, 0).expect("no detection");
            assert_eq!(out.frame.unwrap().payload, payload, "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_chip_duration_panics() {
        let mut c = cfg(20, 1_000, 8);
        c.chip_duration_us = 0;
        LongRangeDecoder::new(c);
    }

    #[test]
    fn config_clamps_chip_duration_above_1mcps() {
        // 2 Mchip/s: 1_000_000 / 2_000_000 truncates to 0, which used to
        // trip the constructor assert; the config must clamp to 1 µs.
        let c = LongRangeConfig::new(8, 2_000_000, 4);
        assert_eq!(c.chip_duration_us, 1);
        LongRangeDecoder::new(c); // must not panic
    }

    #[test]
    fn empty_bit_window_is_erasure_not_false() {
        // Knock every packet out of payload bit 1's window: the decoder
        // must emit an erasure there (not a confident `false`) and
        // withhold the frame.
        let payload = vec![true, true, true];
        let bundle = synth(&payload, 4, 0.5, 0.1, 333, 1_000, 9);
        let bit_us = 4 * 1_000u64;
        let pre_len = bs_tag::frame::uplink_preamble().len();
        let lo = (pre_len as u64 + 1) * bit_us;
        let hi = lo + bit_us;
        let keep: Vec<usize> = (0..bundle.packets())
            .filter(|&p| bundle.t_us()[p] < lo || bundle.t_us()[p] >= hi)
            .collect();
        let gapped = SeriesBundle::from_columns(
            keep.iter().map(|&p| bundle.t_us()[p]).collect(),
            (0..bundle.channels())
                .map(|c| keep.iter().map(|&p| bundle.channel(c)[p]).collect())
                .collect(),
        )
        .unwrap();
        let dec = LongRangeDecoder::new(cfg(4, 1_000, 3));
        let out = dec.decode(&gapped, 0).expect("no detection");
        assert_eq!(out.bits[1], None, "empty window must erase");
        assert!(out.bits[0].is_some() && out.bits[2].is_some());
        assert!(out.frame.is_none(), "frame must wait for all bits");
        assert_eq!(dec.decode_reference(&gapped, 0), Some(out));
    }

    #[test]
    fn stream_feed_matches_batch_decode_bit_for_bit() {
        let payload: Vec<bool> = (0..10).map(|i| i % 3 != 0).collect();
        let bundle = synth(&payload, 40, 0.2, 0.6, 333, 1_000, 41);
        let dec = LongRangeDecoder::new(cfg(40, 1_000, 10));
        let batch = dec.decode(&bundle, 0);
        assert!(batch.is_some());
        let mut live = SeriesBundle::new(bundle.channels());
        for (p, &t) in bundle.t_us().iter().enumerate() {
            let row: Vec<f64> = (0..bundle.channels())
                .map(|c| bundle.channel(c)[p])
                .collect();
            assert_eq!(live.push(t, &row), Ok(()));
        }
        assert_eq!(dec.decode(&live, 0), batch);
    }

    #[test]
    fn indexed_decode_matches_reference_bit_for_bit() {
        let payload: Vec<bool> = (0..10).map(|i| i % 3 != 0).collect();
        for (l, gap, seed) in [(20usize, 333u64, 31u64), (60, 1_100, 32), (8, 4_500, 33)] {
            let bundle = synth(&payload, l, 0.2, 0.8, gap, 1_000, seed);
            let dec = LongRangeDecoder::new(cfg(l, 1_000, 10));
            let a = dec.decode_reference(&bundle, 0);
            let b = dec.decode(&bundle, 0);
            assert_eq!(a, b, "l {l} gap {gap} seed {seed}");
        }
    }
}
