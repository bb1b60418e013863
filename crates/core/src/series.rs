//! Per-packet channel time series.
//!
//! The uplink decoder is agnostic to whether its input is CSI or RSSI: both
//! are "one value per packet per channel, with a MAC timestamp". A
//! [`SeriesBundle`] holds that shape; constructors adapt the two
//! measurement types. CSI yields 90 *virtual sub-channels* (30 sub-channels
//! × 3 antennas — the paper treats antennas as extra sub-channels, §3.2),
//! RSSI yields one series per antenna (§3.3).

use crate::error::SeriesError;
use bs_dsp::filter::condition_in_place;
use bs_dsp::slotstats::{SlotPartition, SlotStats};
use bs_wifi::{CsiMeasurement, RssiMeasurement};
use std::ops::Range;

/// A bundle of synchronized per-packet series: an ascending MAC-timestamp
/// axis and one value per packet in every channel.
///
/// The fields are private and every door checks the invariant before it
/// stores anything, so a backwards or ragged bundle cannot exist. Live
/// packets arrive through [`Self::push`]; a tag session is one bounded
/// frame, so the bundle retains the session's packets and the decoder's
/// `decode` runs once the frame window closes. Decoding the completed
/// bundle is what makes live packets decode bit-identically to a batch
/// capture by construction: the decoder's normalisation scale and
/// conditioning window are functions of the whole session (DESIGN.md §5
/// "Live packets").
///
/// ```
/// use wifi_backscatter::error::SeriesError;
/// use wifi_backscatter::series::SeriesBundle;
/// use wifi_backscatter::uplink::{UplinkDecoder, UplinkDecoderConfig};
///
/// let dec = UplinkDecoder::new(UplinkDecoderConfig::csi(100, 8));
/// let mut bundle = SeriesBundle::new(2);
/// assert_eq!(bundle.push(100, &[1.0, 2.0]), Ok(()));
/// assert_eq!(bundle.push(50, &[1.0, 2.0]), Err(SeriesError::Backwards { packet: 1 }));
/// assert_eq!(bundle.push(200, &[1.5]), Err(SeriesError::Width { packet: 1 }));
/// assert_eq!(bundle.push(200, &[1.5, 2.5]), Ok(()));
/// assert_eq!(bundle.t_us(), &[100, 200]);
/// assert_eq!(bundle.channel(1), &[2.0, 2.5]);
/// assert!(dec.decode(&bundle, 100).is_none()); // two packets: no frame
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesBundle {
    /// MAC timestamp (µs) of each packet, ascending.
    t_us: Vec<u64>,
    /// `series[channel][packet]`.
    series: Vec<Vec<f64>>,
}

/// The one invariant check every door runs before it stores packet
/// `packet`: its timestamp is no earlier than the previous packet's
/// (`last`; ties allowed), and it carries `width == channels` values.
fn check(
    packet: usize,
    last: Option<u64>,
    t_us: u64,
    width: usize,
    channels: usize,
) -> Result<(), SeriesError> {
    if last.is_some_and(|last| t_us < last) {
        Err(SeriesError::Backwards { packet })
    } else if width != channels {
        Err(SeriesError::Width { packet })
    } else {
        Ok(())
    }
}

impl SeriesBundle {
    /// An empty bundle of `channels` synchronized series.
    pub fn new(channels: usize) -> Self {
        Self::with_capacity(channels, 0)
    }

    /// An empty bundle with room for `packets` packets.
    pub(crate) fn with_capacity(channels: usize, packets: usize) -> Self {
        SeriesBundle {
            t_us: Vec::with_capacity(packets),
            series: (0..channels).map(|_| Vec::with_capacity(packets)).collect(),
        }
    }

    /// Appends one packet: its MAC timestamp and one value per channel.
    /// A packet whose timestamp runs backwards or whose row is not as
    /// wide as the channel count is refused, and nothing is stored.
    pub fn push(&mut self, t_us: u64, values: &[f64]) -> Result<(), SeriesError> {
        check(
            self.packets(),
            self.t_us.last().copied(),
            t_us,
            values.len(),
            self.channels(),
        )?;
        self.t_us.push(t_us);
        for (s, &v) in self.series.iter_mut().zip(values) {
            s.push(v);
        }
        Ok(())
    }

    /// Builds a bundle from whole columns (`series[channel][packet]`),
    /// for synthetic and sliced bundles. Rejects exactly what pushing the
    /// rows one at a time would, with the same error at the first bad
    /// packet; a column longer than the time axis is a
    /// [`SeriesError::Width`] at packet `t_us.len()`.
    pub fn from_columns(t_us: Vec<u64>, series: Vec<Vec<f64>>) -> Result<Self, SeriesError> {
        let channels = series.len();
        let full = series.iter().map(Vec::len).min().unwrap_or(usize::MAX);
        let mut last = None;
        for (p, &t) in t_us.iter().enumerate() {
            let width = if p < full {
                channels
            } else {
                series.iter().filter(|s| p < s.len()).count()
            };
            check(p, last, t, width, channels)?;
            last = Some(t);
        }
        if series.iter().any(|s| s.len() > t_us.len()) {
            return Err(SeriesError::Width { packet: t_us.len() });
        }
        Ok(SeriesBundle { t_us, series })
    }

    /// Builds the bundle from per-packet CSI measurements: one channel
    /// per value of a measurement's flat `amplitude` row, in its order.
    ///
    /// # Panics
    /// Panics if the measurements have inconsistent shapes or their
    /// timestamps run backwards.
    pub fn from_csi(measurements: &[CsiMeasurement]) -> Self {
        let channels = measurements.first().map_or(0, |m| m.amplitude.len());
        let mut bundle = Self::with_capacity(channels, measurements.len());
        for m in measurements {
            bundle
                .push(m.timestamp_us, &m.amplitude)
                .expect("inconsistent CSI measurements");
        }
        bundle
    }

    /// Builds the bundle from per-packet RSSI measurements (values in dBm;
    /// the decoder's conditioning normalises scale away).
    ///
    /// # Panics
    /// Panics if the measurements have inconsistent shapes or their
    /// timestamps run backwards.
    pub fn from_rssi(measurements: &[RssiMeasurement]) -> Self {
        let channels = measurements.first().map_or(0, RssiMeasurement::antennas);
        let mut bundle = Self::with_capacity(channels, measurements.len());
        for m in measurements {
            bundle
                .push(m.timestamp_us, &m.rssi_dbm)
                .expect("inconsistent RSSI measurements");
        }
        bundle
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.series.len()
    }

    /// Number of packets.
    pub fn packets(&self) -> usize {
        self.t_us.len()
    }

    /// MAC timestamp (µs) of each packet, ascending.
    pub fn t_us(&self) -> &[u64] {
        &self.t_us
    }

    /// Channel `c`'s value for each packet.
    ///
    /// # Panics
    /// Panics if `c >= self.channels()`.
    pub fn channel(&self, c: usize) -> &[f64] {
        &self.series[c]
    }

    /// Median inter-packet gap (µs); 0 if fewer than two packets. Used to
    /// convert the paper's 400 ms conditioning window into a packet count.
    pub fn median_gap_us(&self) -> u64 {
        if self.t_us.len() < 2 {
            return 0;
        }
        let mut gaps: Vec<u64> = self.t_us.windows(2).map(|w| w[1] - w[0]).collect();
        gaps.sort_unstable();
        gaps[gaps.len() / 2]
    }

    /// The conditioning half-window, in packets, of a moving-average
    /// window of `window_us`: half the window over the median packet gap,
    /// at least 2. This is how the decoders turn the paper's 400 ms
    /// window into a packet count.
    pub fn half_window(&self, window_us: u64) -> usize {
        half_window_of(self.median_gap_us(), window_us)
    }
}

/// [`SeriesBundle::half_window`] of a bundle whose median packet gap is
/// `gap_us`.
fn half_window_of(gap_us: u64, window_us: u64) -> usize {
    ((window_us / 2) / gap_us.max(1)).max(2) as usize
}

/// The paper's conditioning window (§3.2 step 1): 400 ms, in µs.
pub const CONDITIONING_WINDOW_US: u64 = 400_000;

/// A per-capture slot-statistics index over the capture's conditioned
/// series: per-(bit-duration, phase) slot partitions with per-channel
/// binned statistics, so that the decoders' repeated window queries —
/// slot means for preamble/postamble correlation, within-slot variances
/// for MRC weights, majority-vote packet ranges — cost O(slots) after a
/// single O(packets) pass instead of one full scan each.
///
/// The index takes the bundle by value and conditions every column in
/// place, once, with one half-window ([`bs_dsp::filter::condition_in_place`],
/// one prefix-sum scratch reused across the channels). The raw series
/// are gone after that: every decode stage reads only the conditioned
/// ones (§3.2), so decoding a capture costs no second copy of it. A
/// caller that needs the raw bundle afterwards clones it first.
///
/// One index serves *all* decode attempts over the same capture: the
/// alignment search's candidates (which share at most two slot phases per
/// bit duration), the drift re-scan's stretched re-decodes (which share
/// the conditioned series — conditioning depends only on the window and
/// packet cadence, not the bit clock), and the long-range fallback. A
/// decoder whose window yields another half-window refuses the index
/// ([`crate::error::DecodeError::HalfWindow`]) rather than decode the
/// wrong series.
///
/// Everything served from the index is **bit-exact** against the naive
/// full-scan formulations (see [`bs_dsp::slotstats`] for the contract):
/// the decoders' `decode_reference` paths exist to keep that honest.
///
/// ```
/// use wifi_backscatter::series::SlotIndex;
/// use wifi_backscatter::SeriesBundle;
///
/// let t_us = vec![0, 100, 200, 300, 400, 500];
/// let raw = vec![1.0, 3.0, 1.0, 3.0, 1.0, 3.0];
/// let bundle = SeriesBundle::from_columns(t_us, vec![raw.clone()]).unwrap();
/// let mut index = SlotIndex::new(bundle, 2);
/// assert_eq!(index.conditioned().channel(0), bs_dsp::filter::condition(&raw, 2));
/// let mut means = Vec::new();
/// // Two 300 µs slots: packets 0-2 and 3-5.
/// let got = index.slot_means(0, 0, 300, 2, &mut means).unwrap();
/// assert_eq!(got.len(), 2);
/// ```
#[derive(Debug)]
pub struct SlotIndex {
    /// The capture, every column conditioned in place with `half`.
    bundle: SeriesBundle,
    /// The conditioning half-window (packets).
    half: usize,
    /// The capture's median packet gap (µs), taken once when the index
    /// is built: conditioning leaves the time axis as it is.
    median_gap_us: u64,
    grids: Vec<Grid>,
    visits: u64,
}

/// One slot grid: a fixed bit duration and slot phase (`base % width`)
/// over the bundle's timestamp axis, with per-channel statistics of the
/// conditioned series built on first use.
#[derive(Debug)]
struct Grid {
    width_us: u64,
    residue_us: u64,
    partition: SlotPartition,
    stats: Vec<Option<SlotStats>>,
}

impl SlotIndex {
    /// Takes the capture and conditions every channel in place with
    /// half-window `half` (packets); the slot grids and their statistics
    /// are built lazily on first use and cached for the index's lifetime.
    pub fn new(bundle: SeriesBundle, half: usize) -> Self {
        let gap = bundle.median_gap_us();
        Self::build(bundle, half, gap)
    }

    /// Takes the capture and conditions it with the half-window of a
    /// `window_us` moving average on it ([`SeriesBundle::half_window`]),
    /// finding the median packet gap once for both.
    pub(crate) fn for_window(bundle: SeriesBundle, window_us: u64) -> Self {
        let gap = bundle.median_gap_us();
        Self::build(bundle, half_window_of(gap, window_us), gap)
    }

    fn build(mut bundle: SeriesBundle, half: usize, median_gap_us: u64) -> Self {
        let mut prefix = Vec::new();
        for s in &mut bundle.series {
            condition_in_place(s, half, &mut prefix);
        }
        let visits = (bundle.channels() * bundle.packets()) as u64;
        SlotIndex {
            bundle,
            half,
            median_gap_us,
            grids: Vec::new(),
            visits,
        }
    }

    /// The capture with every channel conditioned: the MAC timestamps
    /// as captured, each column as [`bs_dsp::filter::condition`] returns
    /// it for the raw column and the index's half-window.
    pub fn conditioned(&self) -> &SeriesBundle {
        &self.bundle
    }

    /// The conditioning half-window (packets) the index was built with.
    pub(crate) fn half(&self) -> usize {
        self.half
    }

    /// What [`SeriesBundle::half_window`] returns for the capture, from
    /// the median gap the index was built with: a decoder checks its
    /// window against the index without sorting the gaps again.
    pub(crate) fn half_window(&self, window_us: u64) -> usize {
        half_window_of(self.median_gap_us, window_us)
    }

    /// Work meter: packets scanned conditioning and building caches plus
    /// slots read answering queries. The decoders report the per-stage
    /// delta as obs span items, which is how the benches verify the
    /// alignment search stays O(packets + candidates·slots) instead of
    /// O(candidates·packets).
    pub fn visits(&self) -> u64 {
        self.visits
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
    /// the grid and its per-channel statistics are built once over the
    /// whole span, not rebuilt when a later query reaches past it.
    pub fn ensure_grid(&mut self, width_us: u64, start_us: u64, end_us: u64) {
        self.grid_idx(width_us, start_us, end_us);
    }

    /// Per-slot means of one conditioned channel over
    /// `[start_us, start_us + n_slots·width_us)`, written into `means`
    /// (cleared first; reuse it across queries so none allocates) and
    /// returned as a slice of it; `None` if any slot is empty — the same
    /// contract as the reference decoder's full-scan binning, and
    /// bit-exact against it.
    pub fn slot_means<'m>(
        &mut self,
        channel: usize,
        start_us: u64,
        width_us: u64,
        n_slots: usize,
        means: &'m mut Vec<f64>,
    ) -> Option<&'m [f64]> {
        let (stats, k0) = self.stats_at(channel, start_us, width_us, n_slots);
        means.clear();
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
        channel: usize,
        start_us: u64,
        width_us: u64,
        n_slots: usize,
    ) -> f64 {
        let (stats, k0) = self.stats_at(channel, start_us, width_us, n_slots);
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

    /// The statistics of one conditioned channel on the grid covering the
    /// query window, built on first use, and the slot index of `start_us`
    /// in them; counts the window's slots as read.
    fn stats_at(
        &mut self,
        channel: usize,
        start_us: u64,
        width_us: u64,
        n_slots: usize,
    ) -> (&SlotStats, usize) {
        let end = start_us.saturating_add((n_slots as u64).saturating_mul(width_us));
        let gi = self.grid_idx(width_us, start_us, end);
        self.visits += n_slots as u64;
        let Grid {
            partition, stats, ..
        } = &mut self.grids[gi];
        let k0 = ((start_us - partition.base_us()) / width_us) as usize;
        let stats = stats[channel].get_or_insert_with(|| {
            self.visits += partition.coverage_len() as u64;
            SlotStats::build(partition, &self.bundle.series[channel])
        });
        (stats, k0)
    }

    /// The grid for `width_us` and the phase of `start_us`, covering at
    /// least `[start_us, end_us)`: built over that span on first use, and
    /// rebuilt without statistics over the union of both spans when a
    /// query reaches past it.
    fn grid_idx(&mut self, width_us: u64, start_us: u64, end_us: u64) -> usize {
        let residue = start_us % width_us;
        let found = self
            .grids
            .iter()
            .position(|g| g.width_us == width_us && g.residue_us == residue);
        let (mut lo, mut hi) = (start_us, end_us.max(start_us));
        if let Some(i) = found {
            let p = &self.grids[i].partition;
            let p_end = p
                .base_us()
                .saturating_add((p.n_slots() as u64).saturating_mul(width_us));
            if p.base_us() <= lo && hi <= p_end {
                return i;
            }
            lo = lo.min(p.base_us());
            hi = hi.max(p_end);
            self.grids.swap_remove(i);
        }
        let n_slots = (hi - lo).div_ceil(width_us) as usize;
        let partition = SlotPartition::build(&self.bundle.t_us, lo, width_us, n_slots);
        self.visits += partition.coverage_len() as u64;
        self.grids.push(Grid {
            width_us,
            residue_us: residue,
            partition,
            stats: vec![None; self.bundle.channels()],
        });
        self.grids.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn csi(t: u64, val: f64) -> CsiMeasurement {
        CsiMeasurement {
            timestamp_us: t,
            amplitude: vec![val; 8],
        }
    }

    #[test]
    fn from_csi_shapes() {
        let ms = vec![csi(0, 1.0), csi(100, 2.0), csi(250, 3.0)];
        let b = SeriesBundle::from_csi(&ms);
        assert_eq!(b.channels(), 8);
        assert_eq!(b.packets(), 3);
        assert_eq!(b.channel(0), &[1.0, 2.0, 3.0]);
        assert_eq!(b.t_us(), &[0, 100, 250]);
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
        assert_eq!(b.channel(1), &[-42.0, -43.0]);
    }

    #[test]
    fn empty_inputs() {
        let b = SeriesBundle::from_csi(&[]);
        assert_eq!(b, SeriesBundle::new(0));
        assert_eq!(b.packets(), 0);
        assert_eq!(b.median_gap_us(), 0);
        let r = SeriesBundle::from_rssi(&[]);
        assert_eq!(r.channels(), 0);
    }

    #[test]
    fn median_gap() {
        let ms = vec![
            csi(0, 0.0),
            csi(10, 0.0),
            csi(30, 0.0),
            csi(35, 0.0),
            csi(100, 0.0),
        ];
        let b = SeriesBundle::from_csi(&ms);
        // gaps: 10, 20, 5, 65 → sorted 5,10,20,65 → median idx 2 = 20.
        assert_eq!(b.median_gap_us(), 20);
    }

    #[test]
    fn push_matches_batch_bundle() {
        let ms = vec![
            csi(0, 1.0),
            csi(10, 2.0),
            csi(30, 3.0),
            csi(30, 4.0),
            csi(100, 5.0),
        ];
        let batch = SeriesBundle::from_csi(&ms);
        let mut pushed = SeriesBundle::new(batch.channels());
        for p in 0..batch.packets() {
            let row: Vec<f64> = (0..batch.channels()).map(|c| batch.channel(c)[p]).collect();
            assert_eq!(pushed.push(batch.t_us()[p], &row), Ok(()));
            assert_eq!(pushed.packets(), p + 1);
        }
        assert_eq!(pushed, batch);
    }

    #[test]
    fn push_rejects_backwards_rows_and_stores_nothing() {
        let mut b = SeriesBundle::new(1);
        assert_eq!(b.push(100, &[1.0]), Ok(()));
        let before = b.clone();
        assert_eq!(
            b.push(50, &[9.0]),
            Err(SeriesError::Backwards { packet: 1 })
        );
        assert_eq!(b, before);
        assert_eq!(b.push(100, &[2.0]), Ok(()), "a tie is not backwards");
        assert_eq!(b.t_us(), &[100, 100]);
        assert_eq!(b.channel(0), &[1.0, 2.0]);
    }

    #[test]
    fn push_rejects_wrong_width_rows_and_stores_nothing() {
        let mut b = SeriesBundle::new(1);
        assert_eq!(b.push(100, &[1.0]), Ok(()));
        let before = b.clone();
        assert_eq!(b.push(200, &[]), Err(SeriesError::Width { packet: 1 }));
        assert_eq!(
            b.push(200, &[1.0, 2.0]),
            Err(SeriesError::Width { packet: 1 })
        );
        assert_eq!(b, before);
        assert_eq!(b.push(200, &[2.0]), Ok(()));
        assert_eq!(b.channel(0), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "inconsistent")]
    fn inconsistent_shape_panics() {
        let a = csi(0, 1.0);
        let b = CsiMeasurement {
            timestamp_us: 1,
            amplitude: vec![0.0; 6],
        };
        SeriesBundle::from_csi(&[a, b]);
    }
}
