//! Per-packet channel time series.
//!
//! The uplink decoder is agnostic to whether its input is CSI or RSSI: both
//! are "one value per packet per channel, with a MAC timestamp". A
//! [`SeriesBundle`] holds that shape; constructors adapt the two
//! measurement types. CSI yields 90 *virtual sub-channels* (30 sub-channels
//! × 3 antennas — the paper treats antennas as extra sub-channels, §3.2),
//! RSSI yields one series per antenna (§3.3).

use bs_dsp::filter::condition;
use bs_dsp::slotstats::{SlotPartition, SlotStats};
use bs_dsp::stream::Consumed;
use bs_wifi::{CsiMeasurement, RssiMeasurement};
use std::ops::Range;
use std::rc::Rc;

/// A bundle of synchronized per-packet series.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesBundle {
    /// MAC timestamp (µs) of each packet, ascending.
    pub t_us: Vec<u64>,
    /// `series[channel][packet]`.
    pub series: Vec<Vec<f64>>,
}

impl SeriesBundle {
    /// Builds the bundle from per-packet CSI measurements.
    ///
    /// # Panics
    /// Panics if measurements have inconsistent shapes.
    pub fn from_csi(measurements: &[CsiMeasurement]) -> Self {
        if measurements.is_empty() {
            return SeriesBundle {
                t_us: Vec::new(),
                series: Vec::new(),
            };
        }
        let channels = measurements[0].antennas() * measurements[0].subchannels();
        let mut series = vec![Vec::with_capacity(measurements.len()); channels];
        let mut t_us = Vec::with_capacity(measurements.len());
        for m in measurements {
            let len: usize = m.amplitude.iter().map(Vec::len).sum();
            assert_eq!(len, channels, "inconsistent CSI shape");
            for (c, &v) in m.amplitude.iter().flatten().enumerate() {
                series[c].push(v);
            }
            t_us.push(m.timestamp_us);
        }
        SeriesBundle { t_us, series }
    }

    /// Builds the bundle from per-packet RSSI measurements (values in dBm;
    /// the decoder's conditioning normalises scale away).
    pub fn from_rssi(measurements: &[RssiMeasurement]) -> Self {
        if measurements.is_empty() {
            return SeriesBundle {
                t_us: Vec::new(),
                series: Vec::new(),
            };
        }
        let channels = measurements[0].antennas();
        let mut series = vec![Vec::with_capacity(measurements.len()); channels];
        let mut t_us = Vec::with_capacity(measurements.len());
        for m in measurements {
            assert_eq!(m.rssi_dbm.len(), channels, "inconsistent RSSI shape");
            for (c, &v) in m.rssi_dbm.iter().enumerate() {
                series[c].push(v);
            }
            t_us.push(m.timestamp_us);
        }
        SeriesBundle { t_us, series }
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.series.len()
    }

    /// Number of packets.
    pub fn packets(&self) -> usize {
        self.t_us.len()
    }

    /// Median inter-packet gap (µs); 0 if fewer than two packets. Used to
    /// convert the paper's 400 ms conditioning window into a packet count.
    /// A backwards step counts as a zero gap.
    pub fn median_gap_us(&self) -> u64 {
        if self.t_us.len() < 2 {
            return 0;
        }
        let mut gaps: Vec<u64> = self
            .t_us
            .windows(2)
            .map(|w| w[1].saturating_sub(w[0]))
            .collect();
        gaps.sort_unstable();
        gaps[gaps.len() / 2]
    }

    /// Whether the bundle has the shape the decoders index: timestamps
    /// non-decreasing and one value per packet in every channel. The
    /// fields are public, so a hand-built bundle may have neither.
    pub(crate) fn is_well_formed(&self) -> bool {
        self.t_us.windows(2).all(|w| w[0] <= w[1])
            && self.series.iter().all(|s| s.len() == self.t_us.len())
    }
}

/// Streaming builder for a [`SeriesBundle`]: packets are fed one at a
/// time (or in bundle-sized bursts) as they arrive on the air, with
/// explicit backpressure when a capacity bound is set.
///
/// This is the one live-packet door into the decoders: feed, then
/// [`Self::into_bundle`], then the decoder's `decode`. A tag session is
/// one bounded frame, so the accumulator retains the session's packets —
/// O(1) memory *per tag session* — and never evicts. Decoding the
/// completed bundle is what makes streaming bit-identical to batch by
/// construction: the decoder's normalisation scale and conditioning
/// window are functions of the whole session (DESIGN.md §5 "Streaming
/// decode").
///
/// ```
/// use wifi_backscatter::series::SeriesAccumulator;
/// use wifi_backscatter::uplink::{UplinkDecoder, UplinkDecoderConfig};
///
/// let dec = UplinkDecoder::new(UplinkDecoderConfig::csi(100, 8));
/// let mut acc = SeriesAccumulator::with_capacity(2, 2);
/// assert_eq!(acc.feed_packet(100, &[1.0, 2.0]).accepted, 1);
/// assert!(!acc.feed_packet(50, &[1.0, 2.0]).any()); // runs backwards
/// assert_eq!(acc.feed_packet(200, &[1.5, 2.5]).accepted, 1);
/// assert!(!acc.feed_packet(300, &[1.0, 2.0]).any()); // full: backpressure
/// let bundle = acc.into_bundle();
/// assert_eq!(bundle.t_us, vec![100, 200]);
/// assert!(dec.decode(&bundle, 100).is_none()); // two packets: no frame
/// ```
#[derive(Debug, Clone)]
pub struct SeriesAccumulator {
    t_us: Vec<u64>,
    series: Vec<Vec<f64>>,
    capacity: Option<usize>,
}

impl SeriesAccumulator {
    /// An unbounded accumulator for `channels` synchronized series.
    pub fn new(channels: usize) -> Self {
        SeriesAccumulator {
            t_us: Vec::new(),
            series: vec![Vec::new(); channels],
            capacity: None,
        }
    }

    /// An accumulator that accepts at most `max_packets` packets; further
    /// feeds report zero accepted (explicit backpressure) until the
    /// session is finished.
    pub fn with_capacity(channels: usize, max_packets: usize) -> Self {
        SeriesAccumulator {
            capacity: Some(max_packets),
            ..Self::new(channels)
        }
    }

    /// Number of channels the accumulator was created for.
    pub fn channels(&self) -> usize {
        self.series.len()
    }

    /// Packets accepted so far — also the resident set, since the
    /// accumulator never evicts.
    pub fn packets(&self) -> usize {
        self.t_us.len()
    }

    /// The capacity bound, if one was set.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Offers one packet (its timestamp and one value per channel).
    /// Returns [`Consumed::none`] — the packet is **not** buffered — if
    /// the accumulator is at capacity or the timestamp would break the
    /// ascending axis the decoders rely on.
    ///
    /// # Panics
    /// Panics if `values` does not have one entry per channel.
    pub fn feed_packet(&mut self, t_us: u64, values: &[f64]) -> Consumed {
        assert_eq!(
            values.len(),
            self.channels(),
            "packet shape does not match accumulator channels"
        );
        if self.capacity.is_some_and(|c| self.t_us.len() >= c) {
            return Consumed::none();
        }
        if self.t_us.last().is_some_and(|&last| t_us < last) {
            return Consumed::none();
        }
        self.t_us.push(t_us);
        for (s, &v) in self.series.iter_mut().zip(values) {
            s.push(v);
        }
        Consumed::all(1)
    }

    /// Offers every packet of `bundle` in order; returns how many were
    /// accepted (a prefix — feeding stops at the first rejection, as if
    /// each packet went through [`Self::feed_packet`]). The bulk path
    /// appends whole column slices.
    ///
    /// # Panics
    /// Panics if a non-empty bundle's channel count differs.
    pub fn feed(&mut self, bundle: &SeriesBundle) -> Consumed {
        if bundle.packets() == 0 {
            return Consumed::all(0);
        }
        assert_eq!(
            bundle.channels(),
            self.channels(),
            "bundle shape does not match accumulator channels"
        );
        let free = self
            .capacity
            .map_or(usize::MAX, |c| c.saturating_sub(self.t_us.len()));
        let seam_ok = self.t_us.last().is_none_or(|&last| bundle.t_us[0] >= last);
        let ordered = if seam_ok {
            1 + bundle.t_us.windows(2).take_while(|w| w[0] <= w[1]).count()
        } else {
            0
        };
        let take = ordered.min(free);
        self.t_us.extend_from_slice(&bundle.t_us[..take]);
        for (s, col) in self.series.iter_mut().zip(&bundle.series) {
            s.extend_from_slice(&col[..take]);
        }
        Consumed::all(take)
    }

    /// Completes the session, yielding the batch bundle.
    pub fn into_bundle(self) -> SeriesBundle {
        SeriesBundle {
            t_us: self.t_us,
            series: self.series,
        }
    }
}

/// A per-bundle slot-statistics index: caches the conditioned channel
/// series and per-(bit-duration, phase) slot partitions with per-channel
/// binned statistics, so that the decoders' repeated window queries —
/// slot means for preamble/postamble correlation, within-slot variances
/// for MRC weights, majority-vote packet ranges — cost O(slots) after a
/// single O(packets) pass instead of one full scan each.
///
/// One index serves *all* decode attempts over the same capture: the
/// alignment search's candidates (which share at most two slot phases per
/// bit duration), the drift re-scan's stretched re-decodes (which share
/// the conditioned series — conditioning depends only on the window and
/// packet cadence, not the bit clock), and the long-range fallback.
///
/// Everything served from the index is **bit-exact** against the naive
/// full-scan formulations (see [`bs_dsp::slotstats`] for the contract):
/// the decoders' `decode_reference` paths exist to keep that honest.
#[derive(Debug)]
pub struct SlotIndex<'a> {
    bundle: &'a SeriesBundle,
    /// Conditioned series keyed by the conditioning half-window (packets).
    cond: Vec<(usize, Rc<Vec<Vec<f64>>>)>,
    grids: Vec<Grid>,
    visits: u64,
}

/// One slot grid: a fixed bit duration and slot phase (`base % width`)
/// over the bundle's timestamp axis, with lazily built per-channel stats.
#[derive(Debug)]
struct Grid {
    width_us: u64,
    residue_us: u64,
    partition: SlotPartition,
    stats: Vec<StatsEntry>,
}

/// Per-channel statistics for one conditioning half-window over a grid.
#[derive(Debug)]
struct StatsEntry {
    half: usize,
    per_channel: Vec<Option<SlotStats>>,
}

impl<'a> SlotIndex<'a> {
    /// Creates an (empty) index over a bundle; everything is built lazily
    /// on first use and cached for the bundle's lifetime.
    pub fn new(bundle: &'a SeriesBundle) -> Self {
        SlotIndex {
            bundle,
            cond: Vec::new(),
            grids: Vec::new(),
            visits: 0,
        }
    }

    /// The underlying bundle.
    pub fn bundle(&self) -> &'a SeriesBundle {
        self.bundle
    }

    /// Work meter: packets scanned building caches plus slots read
    /// answering queries. The decoders report the per-stage delta as obs
    /// span items, which is how the benches verify the alignment search
    /// stays O(packets + candidates·slots) instead of O(candidates·packets).
    pub fn visits(&self) -> u64 {
        self.visits
    }

    /// The conditioned series for a given conditioning half-window
    /// (packets), built once per distinct half-window and shared by every
    /// decode attempt on this capture.
    pub fn conditioned(&mut self, half: usize) -> Rc<Vec<Vec<f64>>> {
        if let Some((_, c)) = self.cond.iter().find(|(h, _)| *h == half) {
            return Rc::clone(c);
        }
        let cond: Vec<Vec<f64>> = self
            .bundle
            .series
            .iter()
            .map(|s| condition(s, half))
            .collect();
        self.visits += (self.bundle.channels() * self.bundle.packets()) as u64;
        let rc = Rc::new(cond);
        self.cond.push((half, Rc::clone(&rc)));
        rc
    }

    /// The contiguous packet-index range with `start_us ≤ t < end_us`
    /// (binary search on the ascending timestamp axis).
    pub fn packet_range(&self, start_us: u64, end_us: u64) -> Range<usize> {
        let lo = self.bundle.t_us.partition_point(|&t| t < start_us);
        let hi = self.bundle.t_us.partition_point(|&t| t < end_us);
        lo..hi.max(lo)
    }

    /// Pre-sizes the grid for slot width `width_us` and the phase of
    /// `start_us` to cover `[start_us, end_us)`. Callers that know their
    /// full query span up front (e.g. the alignment search, which asks
    /// about every candidate of a phase class) should call this once so
    /// the per-channel statistics are built over the union coverage
    /// instead of being rebuilt as the coverage grows.
    pub fn ensure_grid(&mut self, width_us: u64, start_us: u64, end_us: u64) {
        self.grid_idx(width_us, start_us, end_us);
    }

    /// Per-slot means of one conditioned channel over
    /// `[start_us, start_us + n_slots·width_us)`; `None` if any slot is
    /// empty — the same contract as the reference decoder's full-scan
    /// binning, and bit-exact against it.
    pub fn slot_means(
        &mut self,
        half: usize,
        channel: usize,
        start_us: u64,
        width_us: u64,
        n_slots: usize,
    ) -> Option<Vec<f64>> {
        let (gi, k0) = self.stats_at(half, channel, start_us, width_us, n_slots);
        let stats = self.grids[gi].stats_for(half, channel);
        self.visits += n_slots as u64;
        let mut means = Vec::with_capacity(n_slots);
        for k in k0..k0 + n_slots {
            means.push(stats.mean(k)?);
        }
        Some(means)
    }

    /// Mean within-slot variance of one conditioned channel over the
    /// window — the σ² of the paper's MRC weights; slots with < 2 packets
    /// are excluded, 1.0 if none qualify (matching the reference path).
    pub fn residual_variance(
        &mut self,
        half: usize,
        channel: usize,
        start_us: u64,
        width_us: u64,
        n_slots: usize,
    ) -> f64 {
        let (gi, k0) = self.stats_at(half, channel, start_us, width_us, n_slots);
        let stats = self.grids[gi].stats_for(half, channel);
        self.visits += n_slots as u64;
        let mut var_sum = 0.0;
        let mut n = 0usize;
        for k in k0..k0 + n_slots {
            if stats.count(k) >= 2 {
                var_sum += stats.variance(k);
                n += 1;
            }
        }
        if n == 0 {
            1.0
        } else {
            var_sum / n as f64
        }
    }

    /// Ensures grid + per-channel stats exist for the query window and
    /// returns `(grid index, first slot index of start_us)`.
    fn stats_at(
        &mut self,
        half: usize,
        channel: usize,
        start_us: u64,
        width_us: u64,
        n_slots: usize,
    ) -> (usize, usize) {
        // Materialise the conditioned series first (separate Rc, so the
        // grid borrow below cannot alias it).
        let cond = self.conditioned(half);
        let end = start_us.saturating_add((n_slots as u64).saturating_mul(width_us));
        let gi = self.grid_idx(width_us, start_us, end);
        let channels = self.bundle.channels();
        let grid = &mut self.grids[gi];
        let coverage = grid.partition.coverage_len() as u64;
        let ei = match grid.stats.iter().position(|e| e.half == half) {
            Some(i) => i,
            None => {
                grid.stats.push(StatsEntry {
                    half,
                    per_channel: vec![None; channels],
                });
                grid.stats.len() - 1
            }
        };
        if grid.stats[ei].per_channel[channel].is_none() {
            let built = SlotStats::build(&grid.partition, &cond[channel]);
            grid.stats[ei].per_channel[channel] = Some(built);
            self.visits += coverage;
        }
        let k0 = ((start_us - grid.partition.base_us()) / width_us) as usize;
        (gi, k0)
    }

    /// Finds (or builds / extends) the grid for `width_us` and the phase
    /// of `start_us`, covering at least `[start_us, end_us)`.
    fn grid_idx(&mut self, width_us: u64, start_us: u64, end_us: u64) -> usize {
        let residue = start_us % width_us;
        let idx = self
            .grids
            .iter()
            .position(|g| g.width_us == width_us && g.residue_us == residue);
        match idx {
            Some(i) => {
                // Cheap Rc clones so built stats can be re-derived below
                // without re-borrowing self.
                let cond_cache = self.cond.clone();
                let g = &mut self.grids[i];
                let base = g.partition.base_us().min(start_us);
                let cur_end = g
                    .partition
                    .base_us()
                    .saturating_add((g.partition.n_slots() as u64).saturating_mul(width_us));
                if base < g.partition.base_us() {
                    // Coverage grew on the low side: the slot anchor
                    // moved, so every slot re-bins — rebuild the
                    // partition over the union and invalidate the
                    // per-channel stats.
                    let end = cur_end.max(end_us);
                    let n_slots = (end - base).div_ceil(width_us) as usize;
                    g.partition = SlotPartition::build(&self.bundle.t_us, base, width_us, n_slots);
                    g.stats.clear();
                    self.visits += g.partition.coverage_len() as u64;
                } else if end_us > cur_end {
                    // Coverage grew on the high side only: the anchor is
                    // unchanged, so extend the partition incrementally
                    // and re-derive just the changed tail of every built
                    // per-channel statistic (bitwise identical to a full
                    // rebuild — see SlotStats::extend).
                    let n_slots = (end_us - base).div_ceil(width_us) as usize;
                    let from = g.partition.extend(&self.bundle.t_us, n_slots);
                    let tail_cov = if from < n_slots {
                        (g.partition.slot_range(n_slots - 1).end
                            - g.partition.slot_range(from).start) as u64
                    } else {
                        0
                    };
                    self.visits += tail_cov;
                    for e in &mut g.stats {
                        let cond = cond_cache
                            .iter()
                            .find(|(h, _)| *h == e.half)
                            .map(|(_, c)| Rc::clone(c))
                            .expect("stats were built from a cached conditioning");
                        for (ch, slot) in e.per_channel.iter_mut().enumerate() {
                            if let Some(stats) = slot {
                                stats.extend(&g.partition, &cond[ch], from);
                                self.visits += tail_cov;
                            }
                        }
                    }
                }
                i
            }
            None => {
                let n_slots = (end_us.max(start_us) - start_us).div_ceil(width_us) as usize;
                let partition =
                    SlotPartition::build(&self.bundle.t_us, start_us, width_us, n_slots);
                self.visits += partition.coverage_len() as u64;
                self.grids.push(Grid {
                    width_us,
                    residue_us: residue,
                    partition,
                    stats: Vec::new(),
                });
                self.grids.len() - 1
            }
        }
    }
}

impl Grid {
    /// The built stats for (half, channel); callers must have gone
    /// through [`SlotIndex::stats_at`] first.
    fn stats_for(&self, half: usize, channel: usize) -> &SlotStats {
        self.stats
            .iter()
            .find(|e| e.half == half)
            .and_then(|e| e.per_channel[channel].as_ref())
            .expect("stats_at builds before reads")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn csi(t: u64, val: f64) -> CsiMeasurement {
        CsiMeasurement {
            timestamp_us: t,
            amplitude: vec![vec![val; 4]; 2],
        }
    }

    #[test]
    fn from_csi_shapes() {
        let ms = vec![csi(0, 1.0), csi(100, 2.0), csi(250, 3.0)];
        let b = SeriesBundle::from_csi(&ms);
        assert_eq!(b.channels(), 8);
        assert_eq!(b.packets(), 3);
        assert_eq!(b.series[0], vec![1.0, 2.0, 3.0]);
        assert_eq!(b.t_us, vec![0, 100, 250]);
    }

    #[test]
    fn from_rssi_shapes() {
        let ms = vec![
            RssiMeasurement {
                timestamp_us: 5,
                rssi_dbm: vec![-40.0, -42.0],
            },
            RssiMeasurement {
                timestamp_us: 15,
                rssi_dbm: vec![-41.0, -43.0],
            },
        ];
        let b = SeriesBundle::from_rssi(&ms);
        assert_eq!(b.channels(), 2);
        assert_eq!(b.series[1], vec![-42.0, -43.0]);
    }

    #[test]
    fn empty_inputs() {
        let b = SeriesBundle::from_csi(&[]);
        assert_eq!(b.channels(), 0);
        assert_eq!(b.packets(), 0);
        assert_eq!(b.median_gap_us(), 0);
        let r = SeriesBundle::from_rssi(&[]);
        assert_eq!(r.channels(), 0);
    }

    #[test]
    fn median_gap() {
        let ms = vec![csi(0, 0.0), csi(10, 0.0), csi(30, 0.0), csi(35, 0.0), csi(100, 0.0)];
        let mut b = SeriesBundle::from_csi(&ms);
        // gaps: 10, 20, 5, 65 → sorted 5,10,20,65 → median idx 2 = 20.
        assert_eq!(b.median_gap_us(), 20);
        assert!(b.is_well_formed());
        // A backwards step is a zero gap, not an overflow: gaps 10, 0,
        // 30, 65 → median idx 2 = 30.
        b.t_us[2] = 5;
        assert_eq!(b.median_gap_us(), 30);
        assert!(!b.is_well_formed());
    }

    #[test]
    fn accumulator_feed_packet_matches_batch_bundle() {
        let ms = vec![csi(0, 1.0), csi(10, 2.0), csi(30, 3.0), csi(35, 4.0), csi(100, 5.0)];
        let batch = SeriesBundle::from_csi(&ms);
        let mut acc = SeriesAccumulator::new(batch.channels());
        for p in 0..batch.packets() {
            let values: Vec<f64> = batch.series.iter().map(|s| s[p]).collect();
            assert_eq!(acc.feed_packet(batch.t_us[p], &values).accepted, 1);
            assert_eq!(acc.packets(), p + 1);
        }
        assert_eq!(acc.into_bundle(), batch);
    }

    #[test]
    fn accumulator_rejects_out_of_order_and_respects_capacity() {
        let mut acc = SeriesAccumulator::with_capacity(1, 2);
        assert_eq!(acc.capacity(), Some(2));
        assert_eq!(acc.feed_packet(100, &[1.0]).accepted, 1);
        // Out of order: rejected, not buffered.
        assert_eq!(acc.feed_packet(50, &[9.0]).accepted, 0);
        assert_eq!(acc.feed_packet(200, &[2.0]).accepted, 1);
        // At capacity: backpressure.
        assert!(!acc.feed_packet(300, &[3.0]).any());
        let b = acc.into_bundle();
        assert_eq!(b.t_us, vec![100, 200]);
        assert_eq!(b.series[0], vec![1.0, 2.0]);
    }

    #[test]
    fn accumulator_bulk_feed_takes_prefix_up_to_capacity() {
        let ms = vec![csi(0, 1.0), csi(10, 2.0), csi(20, 3.0), csi(30, 4.0)];
        let bundle = SeriesBundle::from_csi(&ms);
        let mut acc = SeriesAccumulator::with_capacity(bundle.channels(), 3);
        let c = acc.feed(&bundle);
        assert_eq!(c.accepted, 3);
        assert_eq!(acc.packets(), 3);
        // Further feeds are refused outright.
        assert!(!acc.feed(&bundle).any());
        let got = acc.into_bundle();
        assert_eq!(got.t_us, vec![0, 10, 20]);
        assert_eq!(got.median_gap_us(), 10);

        // A backwards step inside a burst ends the accepted prefix, as
        // feeding the burst packet by packet would.
        let ragged = [csi(0, 1.0), csi(20, 2.0), csi(10, 3.0), csi(30, 4.0)];
        let ragged = SeriesBundle::from_csi(&ragged);
        let mut acc = SeriesAccumulator::new(ragged.channels());
        assert_eq!(acc.feed(&ragged).accepted, 2);
        assert_eq!(acc.into_bundle().t_us, vec![0, 20]);
    }

    #[test]
    fn accumulator_bulk_feed_matches_batch_and_tracks_seam_gap() {
        let ms = vec![csi(0, 1.0), csi(10, 2.0), csi(30, 3.0), csi(35, 4.0), csi(100, 5.0)];
        let batch = SeriesBundle::from_csi(&ms);
        let first = SeriesBundle {
            t_us: batch.t_us[..2].to_vec(),
            series: batch.series.iter().map(|s| s[..2].to_vec()).collect(),
        };
        let rest = SeriesBundle {
            t_us: batch.t_us[2..].to_vec(),
            series: batch.series.iter().map(|s| s[2..].to_vec()).collect(),
        };
        let mut acc = SeriesAccumulator::new(batch.channels());
        assert_eq!(acc.feed(&first).accepted, 2);
        assert_eq!(acc.feed(&rest).accepted, 3);
        assert_eq!(acc.into_bundle(), batch);
    }

    #[test]
    #[should_panic(expected = "shape does not match")]
    fn accumulator_wrong_shape_panics() {
        let mut acc = SeriesAccumulator::new(3);
        acc.feed_packet(0, &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "inconsistent")]
    fn inconsistent_shape_panics() {
        let a = csi(0, 1.0);
        let b = CsiMeasurement {
            timestamp_us: 1,
            amplitude: vec![vec![0.0; 3]; 2],
        };
        SeriesBundle::from_csi(&[a, b]);
    }
}
