//! The reader's uplink decoder (§3.2, §3.3).
//!
//! Pipeline, exactly as the paper describes:
//!
//! 1. **Signal conditioning** — subtract a moving average (400 ms window)
//!    from each per-packet channel series and normalise by the mean
//!    absolute residual, mapping the tag's two states near ±1.
//! 2. **Frequency/spatial diversity** — bin packets into bit slots by MAC
//!    timestamp, correlate each (virtual) sub-channel's slot means with the
//!    known preamble, and keep the top-G sub-channels. The correlation also
//!    yields each channel's *polarity*: a reflection can raise or lower a
//!    given sub-channel's amplitude depending on the multipath phase, so
//!    the preamble tells the decoder which way each good channel swings.
//! 3. **Combining** — maximum-ratio combining: each selected channel is
//!    weighted by `polarity / σ²` where σ² is its per-packet noise variance
//!    (paper's `CSI_weighted = Σ CSIᵢ/σᵢ²`); the RSSI mode instead keeps the
//!    single best channel (§3.3).
//! 4. **Decoding** — hysteresis thresholds `µ ± σ/2` on the combined value
//!    reject the Intel card's spurious jumps; a majority vote across the
//!    packets of each timestamp-binned bit slot yields the bit.

use crate::series::{SeriesBundle, SlotIndex};
use bs_dsp::codes;
use bs_dsp::filter::condition;
use bs_dsp::obs::{NullRecorder, Recorder};
use bs_dsp::slicer::{majority, Decision, HysteresisSlicer};
use bs_tag::frame::UplinkFrame;

/// How the decoder combines channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combining {
    /// Maximum-ratio combining across the top-G channels (CSI, §3.2).
    Mrc,
    /// The single best channel by preamble correlation (RSSI, §3.3).
    BestSingle,
    /// Equal-gain combining: polarity-corrected sum without the 1/σ²
    /// weights — the "naive approach" §3.2 argues against; kept for the
    /// ablation benches.
    EqualGain,
}

/// Decoder configuration.
#[derive(Debug, Clone)]
pub struct UplinkDecoderConfig {
    /// Tag bit duration (µs) — the reader commands the rate in its query.
    pub bit_duration_us: u64,
    /// Expected payload length in bits.
    pub payload_bits: usize,
    /// Conditioning moving-average window (µs); the paper uses 400 ms.
    pub conditioning_window_us: u64,
    /// Number of good channels kept by the selector (paper: 10).
    pub top_channels: usize,
    /// Alignment search span: the true frame start is searched within
    /// ± this many bit durations of the caller's hint.
    pub search_bits: u32,
    /// Minimum normalised preamble correlation for a detection.
    pub min_preamble_score: f64,
    /// Channel combining mode.
    pub combining: Combining,
    /// Use the µ ± σ/2 hysteresis slicer (§3.2 step 3). `false` falls back
    /// to the plain sign slicer — kept for the ablation benches showing
    /// why hysteresis exists (spurious Intel CSI jumps).
    pub use_hysteresis: bool,
}

impl UplinkDecoderConfig {
    /// The paper's CSI decoder configuration for a given bit rate/payload.
    pub fn csi(bit_rate_bps: u64, payload_bits: usize) -> Self {
        UplinkDecoderConfig {
            // Clamped to ≥ 1 µs: above 1 Mbps the integer division would
            // yield 0 and trip the constructor assert.
            bit_duration_us: (1_000_000 / bit_rate_bps.max(1)).max(1),
            payload_bits,
            conditioning_window_us: 400_000,
            top_channels: 10,
            search_bits: 2,
            min_preamble_score: 0.5,
            combining: Combining::Mrc,
            use_hysteresis: true,
        }
    }

    /// The paper's RSSI decoder configuration (§3.3).
    pub fn rssi(bit_rate_bps: u64, payload_bits: usize) -> Self {
        UplinkDecoderConfig {
            combining: Combining::BestSingle,
            top_channels: 1,
            ..UplinkDecoderConfig::csi(bit_rate_bps, payload_bits)
        }
    }

    /// Sets the alignment search span in bit durations (default: 2).
    pub fn with_search_bits(mut self, bits: u32) -> Self {
        self.search_bits = bits;
        self
    }
}

/// One selected channel with its combining weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectedChannel {
    /// Channel index within the bundle.
    pub index: usize,
    /// Normalised preamble correlation (absolute value).
    pub score: f64,
    /// Signed combining weight (`polarity / σ²`).
    pub weight: f64,
}

/// Shannon entropy (nats) of the normalised absolute combining weights —
/// near `ln(G)` when MRC spreads its trust over all G kept channels, near
/// 0 when a single channel dominates. Purely diagnostic (the
/// `uplink.mrc-weight-entropy` gauge).
fn weight_entropy(channels: &[SelectedChannel]) -> f64 {
    let total: f64 = channels.iter().map(|c| c.weight.abs()).sum();
    if total <= 0.0 {
        return 0.0;
    }
    -channels
        .iter()
        .map(|c| c.weight.abs() / total)
        .filter(|&p| p > 0.0)
        .map(|p| p * p.ln())
        .sum::<f64>()
}

/// Decoder output.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeOutput {
    /// Per-payload-bit decisions (`None` = erasure: no packets in the slot
    /// or a tied vote).
    pub bits: Vec<Option<bool>>,
    /// The payload as a frame, if every bit resolved.
    pub frame: Option<UplinkFrame>,
    /// Aligned frame start time (µs).
    pub start_us: u64,
    /// The channels the selector kept, best first.
    pub channels: Vec<SelectedChannel>,
    /// The best candidate's preamble score (mean of the kept channels).
    pub preamble_score: f64,
    /// Normalised correlation of the combined series against the
    /// postamble (§6: the frame's second timing anchor). Near 1 when the
    /// recovered bit clock still lines up at the *end* of the frame;
    /// collapses when it has drifted — the front-anchored preamble score
    /// cannot see that. 0 if any postamble slot held no packets.
    pub postamble_score: f64,
}

/// The uplink decoder; see the module docs for the pipeline.
#[derive(Debug, Clone)]
pub struct UplinkDecoder {
    cfg: UplinkDecoderConfig,
}

impl UplinkDecoder {
    /// Creates a decoder.
    pub fn new(cfg: UplinkDecoderConfig) -> Self {
        assert!(cfg.bit_duration_us > 0, "bit duration must be positive");
        assert!(cfg.top_channels > 0, "need at least one channel");
        UplinkDecoder { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &UplinkDecoderConfig {
        &self.cfg
    }

    /// Decodes one frame from the bundle. `start_hint_us` is the reader's
    /// estimate of when the tag's response begins (it sent the query, so it
    /// knows within a bit or two); the decoder refines the alignment by
    /// preamble correlation within ±`search_bits`. Packets that arrive
    /// live are pushed into a [`SeriesBundle`] and decoded here once the
    /// frame window closes.
    pub fn decode(&self, bundle: &SeriesBundle, start_hint_us: u64) -> Option<DecodeOutput> {
        self.decode_indexed(
            &mut SlotIndex::new(bundle),
            start_hint_us,
            &mut NullRecorder,
        )
    }

    /// [`Self::decode`] against a caller-owned [`SlotIndex`], so
    /// repeated decode attempts over the *same capture* (the drift
    /// re-scan's stretch candidates, retry/fallback re-decodes) share the
    /// conditioned series and every slot-statistics build instead of
    /// re-scanning the packet stream per attempt. Output is bit-identical
    /// to [`Self::decode_reference`]. `None` if the bundle has no packets
    /// or no channels.
    ///
    /// The recorder only observes: stage spans (`uplink.condition`,
    /// `uplink.align`, `uplink.combine`, `uplink.slice` — bounded by the
    /// bundle's simulated-time extent), selector counters
    /// (`uplink.channels-kept`, `uplink.channels-dropped`,
    /// `uplink.packets-binned`, `uplink.hysteresis-holds`,
    /// `uplink.erasures`) and gauges (`uplink.preamble-score`,
    /// `uplink.mrc-weight-entropy`). The `uplink.align` span's items count
    /// the slot-index work the search consumed (packets scanned into
    /// per-slot statistics plus slots read back), which is how the benches
    /// verify the search is O(packets), not O(candidates × packets).
    pub fn decode_indexed(
        &self,
        index: &mut SlotIndex<'_>,
        start_hint_us: u64,
        rec: &mut dyn Recorder,
    ) -> Option<DecodeOutput> {
        let bundle = index.bundle();
        if bundle.packets() == 0 || bundle.channels() == 0 {
            return None;
        }
        let t_lo = *bundle.t_us().first().unwrap_or(&0);
        let t_hi = *bundle.t_us().last().unwrap_or(&0);
        let preamble: Vec<i8> = codes::BARKER13.to_vec();
        let total_bits = UplinkFrame::on_air_len(self.cfg.payload_bits);

        // 1. Signal conditioning (cached in the index across attempts).
        let half = self.conditioning_half_window(bundle);
        let conditioned = index.conditioned(half);
        rec.span("uplink.condition", t_lo, t_hi, bundle.channels() as u64);

        // 2. Alignment search + channel selection, served by the slot
        // index. Candidates are spaced by half a bit, so they fall into
        // (at most two) slot-phase classes; all candidates of a class
        // read the same per-channel statistics, built in one O(packets)
        // pass over the class's coverage.
        let bit = self.cfg.bit_duration_us;
        let step = (bit / 2).max(1);
        let span = self.cfg.search_bits as i64 * 2; // half-bit steps
        let cands: Vec<u64> = (-span..=span)
            .filter_map(|k| {
                let cand = start_hint_us as i64 + k * step as i64;
                (cand >= 0).then_some(cand as u64)
            })
            .collect();
        // Pre-size each phase class to its full query span (every
        // candidate's preamble window plus the winning frame's slicing
        // span) so per-channel statistics are built exactly once.
        let frame_span = total_bits as u64 * bit;
        let mut classes: Vec<(u64, u64, u64)> = Vec::new(); // (phase, lo, hi)
        for &cand in &cands {
            let phase = cand % bit;
            let hi = cand.saturating_add(frame_span);
            match classes.iter_mut().find(|e| e.0 == phase) {
                Some(e) => {
                    e.1 = e.1.min(cand);
                    e.2 = e.2.max(hi);
                }
                None => classes.push((phase, cand, hi)),
            }
        }
        let visits_before = index.visits();
        for &(_, lo, hi) in &classes {
            index.ensure_grid(bit, lo, hi);
        }
        let mut best: Option<(u64, Vec<SelectedChannel>, f64)> = None;
        for &cand in &cands {
            let Some((channels, score)) = self.rank_channels_indexed(index, half, cand, &preamble)
            else {
                continue;
            };
            if best.as_ref().is_none_or(|(_, _, s)| score > *s) {
                best = Some((cand, channels, score));
            }
        }
        rec.span("uplink.align", t_lo, t_hi, index.visits() - visits_before);
        let (start_us, channels, preamble_score) = best?;
        if preamble_score < self.cfg.min_preamble_score {
            return None;
        }
        rec.add("uplink.channels-kept", channels.len() as u64);
        rec.add(
            "uplink.channels-dropped",
            (bundle.channels() - channels.len()) as u64,
        );
        rec.gauge("uplink.preamble-score", preamble_score);
        rec.gauge("uplink.mrc-weight-entropy", weight_entropy(&channels));

        // 3. Combining: fold each selected channel into the accumulator
        // with the chunked axpy kernel. Folding whole channels in
        // selection order performs, per packet, the same
        // `0 + w₀·x₀ + w₁·x₁ + …` chain as the per-packet sum the
        // reference path computes — chunking unrolls across *packets*,
        // never reassociates across channels — so the combined series is
        // bit-identical to `decode_reference`'s.
        let mut combined = vec![0.0f64; bundle.packets()];
        for c in &channels {
            bs_dsp::stream::axpy(&mut combined, c.weight, &conditioned[c.index]);
        }
        rec.span("uplink.combine", t_lo, t_hi, bundle.packets() as u64);

        // 4. Hysteresis + timestamp-binned majority voting. The frame's
        // packets are one contiguous index range on the ascending
        // timestamp axis, as is each bit slot within it.
        let frame_range = index.packet_range(start_us, start_us + total_bits as u64 * bit);
        let frame_values: Vec<f64> = combined[frame_range.clone()].to_vec();
        let slicer = HysteresisSlicer::from_samples(&frame_values);
        rec.add("uplink.packets-binned", frame_range.len() as u64);

        let pre_len = preamble.len();
        let mut bits = Vec::with_capacity(self.cfg.payload_bits);
        let mut holds = 0u64;
        for slot in pre_len..pre_len + self.cfg.payload_bits {
            let lo = start_us + slot as u64 * bit;
            let hi = lo + bit;
            let decisions: Vec<Decision> = index
                .packet_range(lo, hi)
                .map(|p| {
                    if self.cfg.use_hysteresis {
                        slicer.decide(combined[p])
                    } else {
                        bs_dsp::slicer::sign_decision(combined[p])
                    }
                })
                .collect();
            holds += decisions
                .iter()
                .filter(|d| **d == Decision::Indeterminate)
                .count() as u64;
            bits.push(majority(&decisions));
        }
        rec.span(
            "uplink.slice",
            start_us,
            start_us + total_bits as u64 * bit,
            self.cfg.payload_bits as u64,
        );
        rec.add("uplink.hysteresis-holds", holds);
        rec.add(
            "uplink.erasures",
            bits.iter().filter(|b| b.is_none()).count() as u64,
        );

        let frame = frame_of(&bits);

        // Postamble check on the combined series: the anchor sits where
        // clock error has had the whole frame to accumulate, so it
        // discriminates bit-clock candidates the preamble cannot.
        let postamble: Vec<i8> = preamble.iter().rev().copied().collect();
        let post_start = start_us + (pre_len + self.cfg.payload_bits) as u64 * bit;
        let postamble_score = series_slot_means(index, &combined, post_start, bit, postamble.len())
            .map(|means| bs_dsp::correlate::normalized(&means, &postamble))
            .unwrap_or(0.0);

        Some(DecodeOutput {
            bits,
            frame,
            start_us,
            channels,
            preamble_score,
            postamble_score,
        })
    }

    /// The straight-line reference decoder: the same pipeline as
    /// [`Self::decode`], but every slot query is a full pass over the
    /// packet stream — O(candidates × channels × packets) in the
    /// alignment search. Kept (and exercised by the conformance tests and
    /// benches) as the ground truth the indexed path must match bit for
    /// bit.
    pub fn decode_reference(
        &self,
        bundle: &SeriesBundle,
        start_hint_us: u64,
    ) -> Option<DecodeOutput> {
        if bundle.packets() == 0 || bundle.channels() == 0 {
            return None;
        }
        let preamble: Vec<i8> = codes::BARKER13.to_vec();
        let total_bits = UplinkFrame::on_air_len(self.cfg.payload_bits);

        // 1. Signal conditioning.
        let half = self.conditioning_half_window(bundle);
        let conditioned: Vec<Vec<f64>> = (0..bundle.channels())
            .map(|c| condition(bundle.channel(c), half))
            .collect();

        // 2. Alignment search + channel selection.
        let bit = self.cfg.bit_duration_us;
        let step = (bit / 2).max(1);
        let span = self.cfg.search_bits as i64 * 2; // half-bit steps
        let mut best: Option<(u64, Vec<SelectedChannel>, f64)> = None;
        for k in -span..=span {
            let cand = start_hint_us as i64 + k * step as i64;
            if cand < 0 {
                continue;
            }
            let cand = cand as u64;
            let Some((channels, score)) = self.rank_channels(bundle, &conditioned, cand, &preamble)
            else {
                continue;
            };
            if best.as_ref().is_none_or(|(_, _, s)| score > *s) {
                best = Some((cand, channels, score));
            }
        }
        let (start_us, channels, preamble_score) = best?;
        if preamble_score < self.cfg.min_preamble_score {
            return None;
        }

        // 3. Combining.
        let combined: Vec<f64> = (0..bundle.packets())
            .map(|p| {
                channels
                    .iter()
                    .map(|c| c.weight * conditioned[c.index][p])
                    .sum()
            })
            .collect();

        // 4. Hysteresis + timestamp-binned majority voting, over the
        // packets of the whole frame.
        let frame_packets: Vec<usize> = (0..bundle.packets())
            .filter(|&p| {
                let t = bundle.t_us()[p];
                t >= start_us && t < start_us + total_bits as u64 * bit
            })
            .collect();
        let frame_values: Vec<f64> = frame_packets.iter().map(|&p| combined[p]).collect();
        let slicer = HysteresisSlicer::from_samples(&frame_values);

        let pre_len = preamble.len();
        let mut bits = Vec::with_capacity(self.cfg.payload_bits);
        for slot in pre_len..pre_len + self.cfg.payload_bits {
            let lo = start_us + slot as u64 * bit;
            let hi = lo + bit;
            let decisions: Vec<Decision> = frame_packets
                .iter()
                .filter(|&&p| bundle.t_us()[p] >= lo && bundle.t_us()[p] < hi)
                .map(|&p| {
                    if self.cfg.use_hysteresis {
                        slicer.decide(combined[p])
                    } else {
                        bs_dsp::slicer::sign_decision(combined[p])
                    }
                })
                .collect();
            bits.push(majority(&decisions));
        }

        let frame = frame_of(&bits);

        // Postamble check on the combined series.
        let postamble: Vec<i8> = preamble.iter().rev().copied().collect();
        let post_start = start_us + (pre_len + self.cfg.payload_bits) as u64 * bit;
        let postamble_score = self
            .slot_means(bundle, &combined, post_start, postamble.len())
            .map(|means| bs_dsp::correlate::normalized(&means, &postamble))
            .unwrap_or(0.0);

        Some(DecodeOutput {
            bits,
            frame,
            start_us,
            channels,
            preamble_score,
            postamble_score,
        })
    }

    /// [`Self::rank_channels`] served by the slot index: identical
    /// selection, ranking and weighting, with the per-channel slot means
    /// and residual variances read from cached statistics.
    fn rank_channels_indexed(
        &self,
        index: &mut SlotIndex<'_>,
        half: usize,
        start_us: u64,
        preamble: &[i8],
    ) -> Option<(Vec<SelectedChannel>, f64)> {
        let n_slots = preamble.len();
        let bit = self.cfg.bit_duration_us;
        let mut ranked: Vec<(usize, f64, f64)> = Vec::new(); // (index, |corr|, signed)
        for i in 0..index.bundle().channels() {
            let Some(means) = index.slot_means(half, i, start_us, bit, n_slots) else {
                continue;
            };
            let corr = bs_dsp::correlate::normalized(&means, preamble);
            if !corr.is_finite() {
                continue;
            }
            ranked.push((i, corr.abs(), corr));
        }
        self.select(ranked, |i| {
            index.residual_variance(half, i, start_us, bit, n_slots)
        })
    }

    /// The conditioning half-window in packets, derived from the paper's
    /// 400 ms time window and the observed packet rate.
    fn conditioning_half_window(&self, bundle: &SeriesBundle) -> usize {
        let gap = bundle.median_gap_us().max(1);
        ((self.cfg.conditioning_window_us / 2) / gap).max(2) as usize
    }

    /// Per-slot mean of one conditioned channel over the preamble slots at
    /// a candidate start; `None` if any slot is empty.
    fn slot_means(
        &self,
        bundle: &SeriesBundle,
        channel: &[f64],
        start_us: u64,
        n_slots: usize,
    ) -> Option<Vec<f64>> {
        let bit = self.cfg.bit_duration_us;
        let mut sums = vec![0.0; n_slots];
        let mut counts = vec![0u32; n_slots];
        for (p, &t) in bundle.t_us().iter().enumerate() {
            if t < start_us {
                continue;
            }
            let slot = ((t - start_us) / bit) as usize;
            if slot >= n_slots {
                continue;
            }
            sums[slot] += channel[p];
            counts[slot] += 1;
        }
        if counts.contains(&0) {
            return None;
        }
        Some(
            sums.iter()
                .zip(&counts)
                .map(|(s, &c)| s / f64::from(c))
                .collect(),
        )
    }

    /// Ranks channels by preamble correlation at a candidate start.
    /// Returns the kept channels (with weights) and the mean absolute
    /// normalised correlation of the kept set.
    fn rank_channels(
        &self,
        bundle: &SeriesBundle,
        conditioned: &[Vec<f64>],
        start_us: u64,
        preamble: &[i8],
    ) -> Option<(Vec<SelectedChannel>, f64)> {
        let n_slots = preamble.len();
        let mut ranked: Vec<(usize, f64, f64)> = Vec::new(); // (index, |corr|, signed)
        for (i, ch) in conditioned.iter().enumerate() {
            let Some(means) = self.slot_means(bundle, ch, start_us, n_slots) else {
                continue;
            };
            let corr = bs_dsp::correlate::normalized(&means, preamble);
            // Zero-variance or overflowing series can produce a NaN/∞
            // correlation; such a channel carries no rankable signal, so
            // skip it rather than letting it poison the sort.
            if !corr.is_finite() {
                continue;
            }
            ranked.push((i, corr.abs(), corr));
        }
        self.select(ranked, |i| {
            self.residual_variance(bundle, &conditioned[i], start_us, n_slots)
        })
    }

    /// Keeps the best-correlated of the `(index, |corr|, corr)` channels
    /// and weights each by its polarity (over its noise variance, the
    /// residual around the preamble's slot means, under MRC); returns
    /// them with their mean score. `None` if no channel was ranked.
    fn select(
        &self,
        mut ranked: Vec<(usize, f64, f64)>,
        mut variance: impl FnMut(usize) -> f64,
    ) -> Option<(Vec<SelectedChannel>, f64)> {
        if ranked.is_empty() {
            return None;
        }
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        ranked.truncate(self.cfg.top_channels);
        let channels: Vec<SelectedChannel> = ranked
            .iter()
            .map(|&(i, score, signed)| {
                let var = variance(i).max(1e-6);
                let polarity = if signed >= 0.0 { 1.0 } else { -1.0 };
                let weight = match self.cfg.combining {
                    Combining::Mrc => polarity / var,
                    Combining::BestSingle | Combining::EqualGain => polarity,
                };
                SelectedChannel {
                    index: i,
                    score,
                    weight,
                }
            })
            .collect();
        let mean_score = channels.iter().map(|c| c.score).sum::<f64>() / channels.len() as f64;
        Some((channels, mean_score))
    }

    /// Mean within-slot variance of a channel over the preamble slots —
    /// the σ² of the paper's MRC weights.
    fn residual_variance(
        &self,
        bundle: &SeriesBundle,
        channel: &[f64],
        start_us: u64,
        n_slots: usize,
    ) -> f64 {
        let bit = self.cfg.bit_duration_us;
        let mut per_slot: Vec<Vec<f64>> = vec![Vec::new(); n_slots];
        for (p, &t) in bundle.t_us().iter().enumerate() {
            if t < start_us {
                continue;
            }
            let slot = ((t - start_us) / bit) as usize;
            if slot < n_slots {
                per_slot[slot].push(channel[p]);
            }
        }
        let mut var_sum = 0.0;
        let mut n = 0usize;
        for slot in per_slot.iter().filter(|s| s.len() >= 2) {
            var_sum += bs_dsp::stats::variance(slot);
            n += 1;
        }
        if n == 0 {
            1.0
        } else {
            var_sum / n as f64
        }
    }
}

/// The payload as a frame; `None` if any bit was erased.
pub(crate) fn frame_of(bits: &[Option<bool>]) -> Option<UplinkFrame> {
    bits.iter()
        .copied()
        .collect::<Option<Vec<bool>>>()
        .map(UplinkFrame::new)
}

/// Per-slot means of a *derived* series (e.g. the combined MRC series)
/// over contiguous packet ranges; `None` if any slot is empty. The
/// per-slot accumulation runs in packet order from a fresh 0.0, so the
/// result is bit-exact against the reference full-scan binning.
fn series_slot_means(
    index: &SlotIndex<'_>,
    series: &[f64],
    start_us: u64,
    width_us: u64,
    n_slots: usize,
) -> Option<Vec<f64>> {
    let mut means = Vec::with_capacity(n_slots);
    for k in 0..n_slots {
        let lo = start_us + k as u64 * width_us;
        let range = index.packet_range(lo, lo + width_us);
        if range.is_empty() {
            return None;
        }
        let count = range.len() as u32;
        let mut sum = 0.0;
        for p in range {
            sum += series[p];
        }
        means.push(sum / f64::from(count));
    }
    Some(means)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bs_dsp::SimRng;

    /// Builds a synthetic bundle (all knobs spelled out on purpose —
    /// each test names exactly the physics it perturbs): `n_channels` series over the frame's
    /// bits, `good` of them carrying the modulation at `amp` (with random
    /// polarity), the rest pure noise. Packets arrive every `gap_us`.
    #[allow(clippy::too_many_arguments)]
    fn synth_bundle(
        payload: &[bool],
        n_channels: usize,
        good: usize,
        amp: f64,
        noise: f64,
        gap_us: u64,
        bit_us: u64,
        start_us: u64,
        seed: u64,
    ) -> (SeriesBundle, Vec<bool>) {
        let frame = UplinkFrame::new(payload.to_vec());
        let bits = frame.to_bits();
        let mut rng = SimRng::new(seed).stream("uplink-synth");
        let total_us = start_us + bits.len() as u64 * bit_us + 50_000;
        let t_us: Vec<u64> = (0..)
            .map(|i| i * gap_us)
            .take_while(|&t| t < total_us)
            .collect();
        let mut polarities = Vec::new();
        let series: Vec<Vec<f64>> = (0..n_channels)
            .map(|c| {
                let is_good = c < good;
                let polarity = if rng.chance(0.5) { 1.0 } else { -1.0 };
                polarities.push(polarity > 0.0);
                t_us.iter()
                    .map(|&t| {
                        let level = if is_good && t >= start_us {
                            let slot = ((t - start_us) / bit_us) as usize;
                            match bits.get(slot) {
                                Some(&true) => amp * polarity,
                                Some(&false) => -amp * polarity,
                                None => 0.0,
                            }
                        } else {
                            0.0
                        };
                        // A baseline level plus slow drift plus noise.
                        10.0 + (t as f64 / 1e6).sin() * 0.5 + level + rng.gaussian(0.0, noise)
                    })
                    .collect()
            })
            .collect();
        (
            SeriesBundle::from_columns(t_us, series).unwrap(),
            polarities,
        )
    }

    fn payload_90() -> Vec<bool> {
        (0..90).map(|i| (i * 13) % 7 < 3).collect()
    }

    #[test]
    fn decodes_clean_frame() {
        let payload = payload_90();
        // 30 packets/bit: gap 333 µs, bit 10 ms (100 bps).
        let (bundle, _) = synth_bundle(&payload, 20, 8, 0.5, 0.1, 333, 10_000, 100_000, 1);
        let dec = UplinkDecoder::new(UplinkDecoderConfig::csi(100, 90));
        let out = dec.decode(&bundle, 100_000).expect("no detection");
        let frame = out.frame.expect("erasures");
        assert_eq!(frame.payload, payload);
        assert!(out.preamble_score > 0.8, "score {}", out.preamble_score);
    }

    #[test]
    fn alignment_search_recovers_offset_start() {
        let payload = payload_90();
        let (bundle, _) = synth_bundle(&payload, 20, 8, 0.5, 0.1, 333, 10_000, 100_000, 2);
        let dec = UplinkDecoder::new(UplinkDecoderConfig::csi(100, 90));
        // Hint off by 1.5 bits.
        let out = dec.decode(&bundle, 115_000).expect("no detection");
        assert_eq!(out.frame.expect("erasures").payload, payload);
        assert!(
            (out.start_us as i64 - 100_000i64).abs() <= 5_000,
            "start {}",
            out.start_us
        );
    }

    #[test]
    fn selector_finds_the_good_channels() {
        let payload = payload_90();
        let (bundle, _) = synth_bundle(&payload, 30, 6, 0.6, 0.1, 333, 10_000, 50_000, 3);
        let dec = UplinkDecoder::new(UplinkDecoderConfig::csi(100, 90));
        let out = dec.decode(&bundle, 50_000).unwrap();
        // The kept channels should be dominated by the first 6 (good) ones.
        let good_kept = out.channels.iter().filter(|c| c.index < 6).count();
        assert!(good_kept >= 5, "kept {:?}", out.channels);
    }

    #[test]
    fn polarity_inverted_channels_still_decode() {
        // All-good channels but forced mixed polarity (seeded); decoding
        // must agree with the transmitted payload, not the inverse.
        let payload = payload_90();
        for seed in 0..5 {
            let (bundle, _) =
                synth_bundle(&payload, 10, 10, 0.5, 0.15, 500, 10_000, 30_000, 100 + seed);
            let dec = UplinkDecoder::new(UplinkDecoderConfig::csi(100, 90));
            let out = dec.decode(&bundle, 30_000).expect("no detection");
            assert_eq!(out.frame.expect("erasures").payload, payload, "seed {seed}");
        }
    }

    #[test]
    fn mrc_beats_single_random_channel_at_high_noise() {
        let payload = payload_90();
        let mut mrc_errors = 0u64;
        let mut single_errors = 0u64;
        for seed in 0..8 {
            let (bundle, _) = synth_bundle(&payload, 30, 10, 0.45, 0.8, 333, 10_000, 0, 200 + seed);
            let dec = UplinkDecoder::new(UplinkDecoderConfig::csi(100, 90));
            if let Some(out) = dec.decode(&bundle, 0) {
                for (b, &want) in out.bits.iter().zip(&payload) {
                    if *b != Some(want) {
                        mrc_errors += 1;
                    }
                }
            } else {
                mrc_errors += payload.len() as u64;
            }
            // "Random sub-channel" baseline: channel 17 (noise-only here).
            let mut cfg = UplinkDecoderConfig::csi(100, 90);
            cfg.top_channels = 1;
            cfg.min_preamble_score = 0.0;
            let dec1 = UplinkDecoder::new(cfg);
            let one = SeriesBundle::from_columns(
                bundle.t_us().to_vec(),
                vec![bundle.channel(17).to_vec()],
            )
            .unwrap();
            if let Some(out) = dec1.decode(&one, 0) {
                for (b, &want) in out.bits.iter().zip(&payload) {
                    if *b != Some(want) {
                        single_errors += 1;
                    }
                }
            } else {
                single_errors += payload.len() as u64;
            }
        }
        assert!(
            mrc_errors < single_errors / 4,
            "mrc {mrc_errors} vs single {single_errors}"
        );
    }

    #[test]
    fn erasure_when_slot_has_no_packets() {
        let payload = vec![true, false, true, true];
        // Very sparse packets: gap 25 ms, bit 10 ms → many empty slots.
        let (bundle, _) = synth_bundle(&payload, 10, 6, 0.8, 0.05, 25_000, 10_000, 0, 4);
        let mut cfg = UplinkDecoderConfig::csi(100, 4);
        cfg.min_preamble_score = 0.0; // force attempt despite sparse slots
        let dec = UplinkDecoder::new(cfg);
        // With empty preamble slots the alignment may fail entirely (None)
        // or produce erasures; both are acceptable — what must not happen
        // is a confident wrong frame.
        if let Some(out) = dec.decode(&bundle, 0) {
            if let Some(f) = out.frame {
                assert_eq!(f.payload, payload);
            } else {
                assert!(out.bits.iter().any(Option::is_none));
            }
        }
    }

    #[test]
    fn no_detection_in_pure_noise() {
        let t_us: Vec<u64> = (0..3000).map(|i| i * 333).collect();
        let mut rng = SimRng::new(9).stream("noise-only");
        let series: Vec<Vec<f64>> = (0..30)
            .map(|_| t_us.iter().map(|_| 10.0 + rng.gaussian(0.0, 0.3)).collect())
            .collect();
        let bundle = SeriesBundle::from_columns(t_us, series).unwrap();
        let dec = UplinkDecoder::new(UplinkDecoderConfig::csi(100, 90));
        assert!(dec.decode(&bundle, 200_000).is_none());
    }

    #[test]
    fn rssi_mode_uses_single_channel() {
        let payload = payload_90();
        let (bundle, _) = synth_bundle(&payload, 3, 2, 0.6, 0.1, 333, 10_000, 20_000, 5);
        let dec = UplinkDecoder::new(UplinkDecoderConfig::rssi(100, 90));
        let out = dec.decode(&bundle, 20_000).expect("no detection");
        assert_eq!(out.channels.len(), 1);
        assert_eq!(out.frame.expect("erasures").payload, payload);
    }

    #[test]
    fn empty_bundle_is_none() {
        let dec = UplinkDecoder::new(UplinkDecoderConfig::csi(100, 8));
        assert!(dec.decode(&SeriesBundle::new(0), 0).is_none());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bit_duration_panics() {
        let mut cfg = UplinkDecoderConfig::csi(100, 8);
        cfg.bit_duration_us = 0;
        UplinkDecoder::new(cfg);
    }

    #[test]
    fn csi_config_clamps_bit_duration_above_1mbps() {
        // 2 Mbps: 1_000_000 / 2_000_000 truncates to 0, which used to
        // trip the constructor assert; the config must clamp to 1 µs.
        let cfg = UplinkDecoderConfig::csi(2_000_000, 8);
        assert_eq!(cfg.bit_duration_us, 1);
        UplinkDecoder::new(cfg); // must not panic
        let rssi = UplinkDecoderConfig::rssi(2_000_000, 8);
        assert_eq!(rssi.bit_duration_us, 1);
        UplinkDecoder::new(rssi);
    }

    #[test]
    fn nan_correlation_channel_is_skipped_not_fatal() {
        // One channel is pure NaN (a wedged sensor): its normalised
        // preamble correlation is NaN. The ranking must skip it — not
        // panic in the sort, not keep it — and still decode the clean
        // channels.
        let payload = payload_90();
        let (bundle, _) = synth_bundle(&payload, 10, 8, 0.5, 0.1, 333, 10_000, 100_000, 7);
        let mut series: Vec<Vec<f64>> = (0..10).map(|c| bundle.channel(c).to_vec()).collect();
        series[9] = vec![f64::NAN; bundle.packets()];
        let bundle = SeriesBundle::from_columns(bundle.t_us().to_vec(), series).unwrap();
        let dec = UplinkDecoder::new(UplinkDecoderConfig::csi(100, 90));
        let out = dec.decode(&bundle, 100_000).expect("no detection");
        assert!(
            out.channels.iter().all(|c| c.index != 9),
            "kept NaN channel"
        );
        assert!(out.channels.iter().all(|c| c.score.is_finite()));
        assert_eq!(out.frame.as_ref().expect("erasures").payload, payload);
        // The reference path applies the same skip.
        let reference = dec
            .decode_reference(&bundle, 100_000)
            .expect("no detection");
        assert_eq!(reference, out);
    }

    #[test]
    fn indexed_decode_matches_reference_bit_for_bit() {
        let payload = payload_90();
        for (seed, gap, hint) in [
            (11u64, 333u64, 100_000u64),
            (12, 1_100, 104_500),
            (13, 3_300, 95_000),
        ] {
            let (bundle, _) = synth_bundle(&payload, 20, 8, 0.5, 0.4, gap, 10_000, 100_000, seed);
            for cfg in [
                UplinkDecoderConfig::csi(100, 90),
                UplinkDecoderConfig::rssi(100, 90),
                UplinkDecoderConfig {
                    combining: Combining::EqualGain,
                    ..UplinkDecoderConfig::csi(100, 90)
                },
                UplinkDecoderConfig {
                    use_hysteresis: false,
                    ..UplinkDecoderConfig::csi(100, 90)
                },
                UplinkDecoderConfig::csi(100, 90).with_search_bits(5),
            ] {
                let dec = UplinkDecoder::new(cfg);
                let a = dec.decode_reference(&bundle, hint);
                let b = dec.decode(&bundle, hint);
                assert_eq!(a, b, "seed {seed} gap {gap}");
            }
        }
    }

    #[test]
    fn shared_index_reuse_matches_fresh_decodes() {
        // One SlotIndex serving several decoders (the drift re-scan
        // pattern: same capture, different bit durations) must yield the
        // same outputs as fresh per-decode indexes.
        let payload = payload_90();
        let (bundle, _) = synth_bundle(&payload, 20, 8, 0.5, 0.3, 333, 10_000, 100_000, 21);
        let mut shared = crate::series::SlotIndex::new(&bundle);
        for bit_us in [10_000u64, 9_950, 10_050, 10_000] {
            let mut cfg = UplinkDecoderConfig::csi(100, 90);
            cfg.bit_duration_us = bit_us;
            let dec = UplinkDecoder::new(cfg);
            let fresh = dec.decode(&bundle, 100_000);
            let reused = dec.decode_indexed(&mut shared, 100_000, &mut NullRecorder);
            assert_eq!(fresh, reused, "bit_us {bit_us}");
        }
    }

    #[test]
    fn stream_feed_matches_batch_decode_bit_for_bit() {
        // Pushing the packets one at a time as they arrive must produce
        // exactly the batch decode() output.
        let payload = payload_90();
        let (bundle, _) = synth_bundle(&payload, 20, 8, 0.5, 0.3, 333, 10_000, 100_000, 31);
        let dec = UplinkDecoder::new(UplinkDecoderConfig::csi(100, 90));
        let batch = dec.decode(&bundle, 100_000);
        assert!(batch.is_some());

        let mut live = SeriesBundle::new(bundle.channels());
        for (p, &t) in bundle.t_us().iter().enumerate() {
            let row: Vec<f64> = (0..bundle.channels())
                .map(|c| bundle.channel(c)[p])
                .collect();
            assert_eq!(live.push(t, &row), Ok(()));
        }
        assert_eq!(dec.decode(&live, 100_000), batch);
    }

    #[test]
    fn more_packets_per_bit_decodes_at_higher_noise() {
        // The Fig. 10 mechanism: at a noise level where 3 packets/bit
        // fails, 30 packets/bit still decodes.
        let payload = payload_90();
        let errors_at = |gap_us: u64, seed: u64| -> u64 {
            let (bundle, _) = synth_bundle(&payload, 30, 10, 0.35, 1.0, gap_us, 10_000, 0, seed);
            let mut cfg = UplinkDecoderConfig::csi(100, 90);
            cfg.min_preamble_score = 0.0;
            let dec = UplinkDecoder::new(cfg);
            match dec.decode(&bundle, 0) {
                Some(out) => out
                    .bits
                    .iter()
                    .zip(&payload)
                    .filter(|(b, &w)| **b != Some(w))
                    .count() as u64,
                None => payload.len() as u64,
            }
        };
        let dense: u64 = (0..4).map(|s| errors_at(333, 300 + s)).sum(); // ~30 pkts/bit
        let sparse: u64 = (0..4).map(|s| errors_at(3_300, 400 + s)).sum(); // ~3 pkts/bit
        assert!(dense < sparse, "dense {dense} sparse {sparse}");
    }
}
