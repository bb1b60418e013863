//! Uplink experiments: Figs 3, 4, 5, 6, 10, 11, 12, 14, 20.

use bs_dsp::bits::BerCounter;
use bs_dsp::filter::condition;
use bs_dsp::stats::Histogram;
use wifi_backscatter::link::{capture_uplink, LinkConfig, Measurement};
use wifi_backscatter::phy::run_uplink;
use wifi_backscatter::uplink::{UplinkDecoder, UplinkDecoderConfig};
use wifi_backscatter::SeriesBundle;

/// The 90-bit evaluation payload (§7.1 transmits 90-bit messages).
pub fn eval_payload() -> Vec<bool> {
    (0..90).map(|i| (i * 13) % 7 < 3).collect()
}

/// A raw CSI trace for one sub-channel (Figs 3 and 6).
#[derive(Debug, Clone)]
pub struct RawCsiTrace {
    /// CSI amplitude per packet on the chosen sub-channel.
    pub amplitude: Vec<f64>,
    /// Index of the plotted sub-channel.
    pub subchannel: usize,
    /// Separation quality: |level gap| / pooled std of the two tag states.
    pub separation: f64,
}

/// Figs 3 & 6: raw CSI for a single sub-channel with the tag alternating
/// bits at `tag_reader_m`. The paper plots ~3000 packets with the helper
/// 5 m away (we keep the standard 3 m uplink scene; the helper distance is
/// immaterial per Fig. 14). The plotted sub-channel is the one with the
/// cleanest two-level structure, mirroring the paper's choice of
/// sub-channel 19.
pub fn raw_csi_trace(tag_reader_m: f64, n_packets: usize, seed: u64) -> RawCsiTrace {
    let bit_rate = 100u64;
    let pkts_per_bit = 30u32;
    let n_bits = n_packets / pkts_per_bit as usize + 4;
    let mut cfg = LinkConfig::fig10(tag_reader_m, bit_rate, pkts_per_bit, seed);
    cfg.payload = (0..n_bits).map(|i| i % 2 == 0).collect(); // alternating
    let cap = capture_uplink(&cfg);
    let bundle = &cap.bundle;

    // Score each of antenna 0/1's sub-channels by two-level separation
    // against the known chip schedule.
    let bit_us = cap.chip_us;
    let mut best: Option<(usize, f64)> = None;
    let chips = cap.frame.to_bits();
    for ch in 0..60.min(bundle.channels()) {
        let mut ones = Vec::new();
        let mut zeros = Vec::new();
        for (p, &t) in bundle.t_us().iter().enumerate() {
            if t < cap.start_us {
                continue;
            }
            let slot = ((t - cap.start_us) / bit_us) as usize;
            match chips.get(slot) {
                Some(&true) => ones.push(bundle.channel(ch)[p]),
                Some(&false) => zeros.push(bundle.channel(ch)[p]),
                None => {}
            }
        }
        if ones.len() < 10 || zeros.len() < 10 {
            continue;
        }
        let gap = (bs_dsp::stats::mean(&ones) - bs_dsp::stats::mean(&zeros)).abs();
        let pooled = (bs_dsp::stats::variance(&ones) + bs_dsp::stats::variance(&zeros))
            .sqrt()
            .max(1e-9);
        let sep = gap / pooled;
        if best.is_none_or(|(_, b)| sep > b) {
            best = Some((ch, sep));
        }
    }
    let (subchannel, separation) = best.unwrap_or((0, 0.0));
    // Emit the frame-spanning portion of the trace.
    let amplitude: Vec<f64> = bundle
        .t_us()
        .iter()
        .enumerate()
        .filter(|&(_, &t)| t >= cap.start_us)
        .take(n_packets)
        .map(|(p, _)| bundle.channel(subchannel)[p])
        .collect();
    RawCsiTrace {
        amplitude,
        subchannel,
        separation,
    }
}

/// One sub-channel's empirical PDF of normalised channel values (Fig. 4).
#[derive(Debug, Clone)]
pub struct SubchannelPdf {
    /// Sub-channel index (0..30, antenna 0).
    pub subchannel: usize,
    /// `(bin centre, density)` over the Fig. 4 axis `[-3, 3]`.
    pub pdf: Vec<(f64, f64)>,
    /// True if the PDF shows the two ±1 Gaussians.
    pub bimodal: bool,
}

/// Fig. 4: PDFs of normalised channel values for the 30 sub-channels,
/// computed over `n_packets` (the paper uses 42 000) with the tag at
/// `tag_reader_m`.
///
/// Known deviation: at 5 cm our substrate's bimodal share is strongly
/// seed-dependent (roughly 25–100 % of sub-channels across master seeds,
/// vs the paper's ~30 %) — the hardware's deep per-subcarrier fades
/// (absolute-noise-dominated CSI) are only partially reproduced by our
/// proportional measurement-noise model at that distance. The diversity
/// structure the decoder depends on (good and dead channels side by
/// side) appears from ~15 cm outward, as Fig. 5's reproduction shows.
pub fn normalized_pdfs(tag_reader_m: f64, n_packets: usize, seed: u64) -> Vec<SubchannelPdf> {
    let mut cfg = LinkConfig::fig10(tag_reader_m, 100, 30, seed);
    let n_bits = n_packets / 30 + 4;
    cfg.payload = (0..n_bits).map(|i| i % 2 == 0).collect();
    let cap = capture_uplink(&cfg);
    let gap = cap.bundle.median_gap_us().max(1);
    let half = ((400_000 / 2) / gap).max(2) as usize;
    // Histogram only the modulated span: the capture's idle lead-in/out
    // would both skew the ±1 normalisation and add unimodal mass at zero.
    let frame_end = cap.start_us + cap.frame.to_bits().len() as u64 * cap.chip_us;
    let in_frame: Vec<usize> = cap
        .bundle
        .t_us()
        .iter()
        .enumerate()
        .filter(|&(_, &t)| t >= cap.start_us && t < frame_end)
        .map(|(p, _)| p)
        .collect();

    (0..30.min(cap.bundle.channels()))
        .map(|ch| {
            let cond = condition(cap.bundle.channel(ch), half);
            let frame_vals: Vec<f64> = in_frame.iter().map(|&p| cond[p]).collect();
            // Re-normalise over the frame span so the two states sit at ±1.
            let scale = bs_dsp::stats::mean_abs(&frame_vals).max(1e-12);
            let mut h = Histogram::new(-3.0, 3.0, 60);
            for &v in &frame_vals {
                h.push(v / scale);
            }
            let pdf_vals = h.pdf();
            let pdf: Vec<(f64, f64)> = (0..h.bins())
                .map(|i| (h.bin_center(i), pdf_vals[i]))
                .collect();
            // "Two Gaussians centred at ±1" means a *dip* at zero: the
            // density peaks on each side must clearly exceed the density
            // around zero. A noise-dominated channel is unimodal at zero
            // (note the conditioner normalises mean |x| to 1, so noise
            // still spreads past ±0.5 — mass alone cannot discriminate).
            let peak = |lo: f64, hi: f64| -> f64 {
                (0..h.bins())
                    .filter(|&i| {
                        let c = h.bin_center(i);
                        c >= lo && c < hi
                    })
                    .map(|i| pdf_vals[i])
                    .fold(0.0, f64::max)
            };
            let neg_peak = peak(-2.0, -0.6);
            let pos_peak = peak(0.6, 2.0);
            let center: f64 = {
                let bins: Vec<f64> = (0..h.bins())
                    .filter(|&i| h.bin_center(i).abs() < 0.2)
                    .map(|i| pdf_vals[i])
                    .collect();
                bs_dsp::stats::mean(&bins)
            };
            SubchannelPdf {
                subchannel: ch,
                pdf,
                bimodal: neg_peak > 1.3 * center && pos_peak > 1.3 * center,
            }
        })
        .collect()
}

/// Channel `ch` of `bundle` alone, for the single-sub-channel baselines.
fn single_channel(bundle: &SeriesBundle, ch: usize) -> SeriesBundle {
    SeriesBundle::from_columns(bundle.t_us().to_vec(), vec![bundle.channel(ch).to_vec()])
        .expect("a channel of a bundle is a bundle")
}

/// Fig. 5, one distance: which sub-channels decode with BER < 10⁻² at
/// `d_cm`. Returns `(distance_cm, good sub-channel indices out of
/// 0..30)`; the seed is offset by the distance alone.
pub fn good_subchannels_at(d_cm: u32, seed: u64) -> (u32, Vec<usize>) {
    let mut cfg = LinkConfig::fig10(d_cm as f64 / 100.0, 100, 30, seed + u64::from(d_cm));
    cfg.payload = eval_payload();
    let cap = capture_uplink(&cfg);
    let mut good = Vec::new();
    for ch in 0..30.min(cap.bundle.channels()) {
        let one = single_channel(&cap.bundle, ch);
        let mut dcfg = UplinkDecoderConfig::csi(100, cfg.payload.len());
        dcfg.top_channels = 1;
        dcfg.min_preamble_score = 0.0;
        let dec = UplinkDecoder::new(dcfg);
        if let Some(out) = dec.decode(&one, cap.start_us) {
            let mut ber = BerCounter::new();
            ber.compare_with_erasures(&cfg.payload, &out.bits);
            if ber.raw_ber() < 1e-2 {
                good.push(ch);
            }
        }
    }
    (d_cm, good)
}

/// One row of the Fig. 10 sweep.
#[derive(Debug, Clone, Copy)]
pub struct BerPoint {
    /// Tag↔reader distance (cm).
    pub distance_cm: u32,
    /// Average packets per bit.
    pub pkts_per_bit: u32,
    /// Measured BER (paper floor convention when error-free).
    pub ber: f64,
}

/// Fig. 10, one point: uplink BER at one `(distance, packets-per-bit)`
/// cell, with CSI or RSSI decoding and `runs` repetitions (paper: 20).
/// The per-run seed arithmetic is keyed on `(r, d_cm, ppb)` only, so any
/// scheduling of the points is bit-identical — the contract the parallel
/// harness relies on.
pub fn uplink_ber_point(
    measurement: Measurement,
    d_cm: u32,
    ppb: u32,
    runs: u64,
    seed: u64,
) -> BerPoint {
    let mut ber = BerCounter::new();
    for r in 0..runs {
        let mut cfg = LinkConfig::fig10(
            d_cm as f64 / 100.0,
            100,
            ppb,
            seed + r * 1000 + u64::from(d_cm) * 7 + u64::from(ppb),
        );
        cfg.measurement = measurement;
        cfg.payload = eval_payload();
        ber.merge(&run_uplink(&cfg).ber);
    }
    BerPoint {
        distance_cm: d_cm,
        pkts_per_bit: ppb,
        ber: ber.ber(),
    }
}

/// Fig. 11, one distance: the paper's full algorithm vs decoding a random
/// sub-channel at 30 packets/bit. Returns `(distance_cm, ber_ours,
/// ber_random)`; seeds depend only on `(r, d_cm)`.
pub fn frequency_diversity_at(d_cm: u32, runs: u64, seed: u64) -> (u32, f64, f64) {
    let mut ours = BerCounter::new();
    let mut random = BerCounter::new();
    for r in 0..runs {
        let mut cfg = LinkConfig::fig10(
            d_cm as f64 / 100.0,
            100,
            30,
            seed + r * 31 + u64::from(d_cm),
        );
        cfg.payload = eval_payload();
        ours.merge(&run_uplink(&cfg).ber);

        // Random sub-channel: capture once, decode a single
        // arbitrary channel.
        let cap = capture_uplink(&cfg);
        let pick = ((seed + r * 13 + u64::from(d_cm)) % 30) as usize;
        let one = single_channel(&cap.bundle, pick);
        let mut dcfg = UplinkDecoderConfig::csi(100, cfg.payload.len());
        dcfg.top_channels = 1;
        dcfg.min_preamble_score = 0.0;
        match UplinkDecoder::new(dcfg).decode(&one, cap.start_us) {
            Some(out) => random.compare_with_erasures(&cfg.payload, &out.bits),
            None => random.record(cfg.payload.len() as u64, cfg.payload.len() as u64),
        }
    }
    (d_cm, ours.ber(), random.ber())
}

/// Fig. 12, one helper rate: the achievable uplink bit rate when the
/// helper transmits `pps` packets/s. Returns `(helper_pps,
/// achievable_bps)`; seeds depend only on `(r, pps)`.
pub fn bitrate_at_helper_rate(pps: u32, runs: u64, seed: u64) -> (u32, u64) {
    let rate = super::achievable_rate(&[100, 200, 500, 1000], 1e-2, |bps| {
        let mut ber = BerCounter::new();
        for r in 0..runs {
            let mut cfg = LinkConfig::fig10(0.05, bps, 1, seed + r * 97 + u64::from(pps));
            cfg.helper_pps = f64::from(pps);
            cfg.payload = eval_payload();
            ber.merge(&run_uplink(&cfg).ber);
        }
        ber.raw_ber()
    });
    (pps, rate)
}

/// Fig. 14, one helper location: packet delivery probability with the
/// helper at location `index + 2` of the Fig. 13 testbed. Returns
/// `(location number, delivery probability)`; seeds depend only on
/// `(f, index)`.
pub fn delivery_at_location(index: usize, frames: u64, seed: u64) -> (u32, f64) {
    use bs_channel::geometry::{Testbed, TestbedLocation};
    let tb = Testbed::new();
    let loc = TestbedLocation::HELPER_LOCATIONS[index];
    let mut delivered = 0u64;
    for f in 0..frames {
        let mut cfg = LinkConfig::fig10(0.05, 100, 30, seed + f * 7 + index as u64 * 131);
        cfg.scene.helper = tb.position(loc);
        cfg.scene.reader = tb.position(TestbedLocation::Loc1);
        cfg.scene.tag = bs_channel::Point::new(cfg.scene.reader.x + 0.05, cfg.scene.reader.y);
        cfg.scene.walls = tb.walls().to_vec();
        cfg.payload = (0..20).map(|b| (b + f as usize) % 3 == 0).collect();
        if run_uplink(&cfg).perfect() {
            delivered += 1;
        }
    }
    (index as u32 + 2, delivered as f64 / frames as f64)
}

/// Fig. 20, one distance: the correlation length needed to reach
/// BER < 10⁻² at `d_cm`; `None` when even the longest tested code fails.
/// Seeds depend only on `(r, d_cm)`.
pub fn correlation_length_at(
    d_cm: u32,
    lengths: &[usize],
    runs: u64,
    seed: u64,
) -> (u32, Option<usize>) {
    let mut needed = None;
    for &l in lengths {
        let mut ber = BerCounter::new();
        for r in 0..runs {
            // Seeds exclude L so every code length faces the same
            // multipath placements — the paper likewise measures
            // all lengths at one physical placement per distance.
            let mut cfg = LinkConfig::fig10(
                d_cm as f64 / 100.0,
                100,
                10,
                seed + r * 71 + u64::from(d_cm) * 3,
            );
            // 24-bit payload keeps the run length manageable at
            // large L (the frame spans L × bits × 10 ms).
            cfg.payload = (0..24).map(|i| i % 3 == 0).collect();
            cfg.code_length = l;
            ber.merge(&run_uplink(&cfg).ber);
        }
        if ber.raw_ber() < 1e-2 {
            needed = Some(l);
            break;
        }
    }
    (d_cm, needed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_trace_two_levels_at_5cm() {
        let t = raw_csi_trace(0.05, 600, 11);
        assert!(t.amplitude.len() >= 500);
        assert!(
            t.separation > 2.0,
            "5 cm trace should show clean levels: {}",
            t.separation
        );
    }

    #[test]
    fn raw_trace_no_levels_at_2m() {
        let near = raw_csi_trace(0.05, 600, 12);
        let far = raw_csi_trace(2.0, 600, 12);
        assert!(
            far.separation < near.separation / 2.0,
            "near {} far {}",
            near.separation,
            far.separation
        );
    }

    #[test]
    fn pdfs_have_bimodal_and_unimodal_channels() {
        // Very close: a meaningful share of the channels carries the two
        // Gaussians (the Fig. 4 mixture). The exact share is strongly
        // seed-dependent — 8/30 to 30/30 across master seeds, bracketing
        // the paper's "about 30 percent" — so the test pins the robust
        // invariants: a mixture exists at 5 cm, and it collapses with
        // distance (frequency diversity in action).
        let near = normalized_pdfs(0.05, 6_000, 13);
        assert_eq!(near.len(), 30);
        let near_bimodal = near.iter().filter(|p| p.bimodal).count();
        assert!(
            near_bimodal >= 5,
            "near bimodal {near_bimodal}/30 — expected a visible mixture"
        );

        let mid = normalized_pdfs(0.10, 6_000, 13);
        let mid_bimodal = mid.iter().filter(|p| p.bimodal).count();
        assert!(
            mid_bimodal < near_bimodal,
            "mid {mid_bimodal} vs near {near_bimodal}"
        );
    }

    #[test]
    fn good_subchannels_shrink_with_distance() {
        let rows = [5, 65].map(|d_cm| good_subchannels_at(d_cm, 14));
        let near = rows[0].1.len();
        let far = rows[1].1.len();
        assert!(near > far, "near {near} far {far}");
        assert!(near >= 5, "near {near}");
    }

    #[test]
    fn achievable_bitrate_scales_with_load() {
        let rows = [500, 3000].map(|pps| bitrate_at_helper_rate(pps, 1, 15));
        assert!(rows[0].1 <= rows[1].1, "{rows:?}");
        assert!(rows[1].1 >= 500, "{rows:?}");
    }
}
