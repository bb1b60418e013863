//! Binned slot statistics over a timestamped packet stream.
//!
//! The uplink decoders (§3.2 steps 2–4, §3.4) repeatedly need per-slot
//! aggregates — packet counts, means, within-slot variances, chip
//! correlations — over windows `[start_us, start_us + n·width_us)` of a
//! time-sorted capture. Computed naively, every alignment candidate ×
//! channel × window costs a full pass over the packet stream. The types
//! here exploit the one structural fact that makes this cheap: the
//! timestamp axis is **ascending**, so every time window is a contiguous
//! packet-index range.
//!
//! * [`SlotPartition`] cuts the timestamp axis into fixed-width slots
//!   anchored at a base time, in one O(packets + slots) pass. Every slot
//!   becomes a `Range<usize>` of packet indices.
//! * [`SlotStats`] layers per-slot `(count, Σx, variance)` for one
//!   channel over a partition.
//!
//! # Bit-exactness contract
//!
//! The decoders that consume this index are required to be
//! *output-preserving* against their straight-line reference
//! implementations, down to the last ulp. Floating-point addition is not
//! associative, so the per-slot quantities follow the exact accumulation
//! order of the naive code:
//!
//! * [`SlotStats::sum`]/[`SlotStats::mean`] accumulate each slot from a
//!   fresh `0.0` in packet order — identical to a naive
//!   "`sums[slot] += x[p]`" scan.
//! * [`SlotStats::variance`] runs the same Welford recurrence as
//!   [`crate::stats::variance`] over the slot's packets in order.

use crate::stats::Running;
use std::ops::Range;

/// A partition of an ascending timestamp axis into `n_slots` fixed-width
/// slots: slot `k` covers `[base_us + k·width_us, base_us + (k+1)·width_us)`.
///
/// Built in one merge pass; afterwards every slot is a contiguous
/// packet-index [`Range`], shared by all channels of the bundle. A
/// partition can also grow incrementally — see [`SlotPartition::extend`]
/// — when packets arrive on the stream or a decoder widens its window.
///
/// ```
/// use bs_dsp::slotstats::SlotPartition;
///
/// let t_us = [100, 250, 400, 550];
/// let part = SlotPartition::build(&t_us, 100, 300, 2);
/// assert_eq!(part.slot_range(0), 0..2); // 100, 250
/// assert_eq!(part.slot_range(1), 2..4); // 400, 550
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotPartition {
    base_us: u64,
    width_us: u64,
    /// `edges[k]` = first packet index with `t ≥ base_us + k·width_us`;
    /// length `n_slots + 1`.
    edges: Vec<usize>,
    /// Packets of the timestamp axis seen at the last build/extend;
    /// edges equal to this value point past all known data and may move
    /// when the axis grows.
    seen: usize,
}

impl SlotPartition {
    /// Builds the partition over `t_us` (which must be ascending).
    ///
    /// # Panics
    /// Panics if `width_us == 0`.
    pub fn build(t_us: &[u64], base_us: u64, width_us: u64, n_slots: usize) -> Self {
        assert!(width_us > 0, "slot width must be positive");
        let mut edges = Vec::with_capacity(n_slots + 1);
        let mut i = t_us.partition_point(|&t| t < base_us);
        edges.push(i);
        for k in 1..=n_slots as u64 {
            let boundary = base_us.saturating_add(k.saturating_mul(width_us));
            while i < t_us.len() && t_us[i] < boundary {
                i += 1;
            }
            edges.push(i);
        }
        SlotPartition {
            base_us,
            width_us,
            edges,
            seen: t_us.len(),
        }
    }

    /// Extends the partition incrementally: `t_us` is the same axis the
    /// partition was built over with zero or more packets **appended**
    /// (still ascending), and `n_slots` the same or larger slot count.
    /// Only edges that could have moved — those pointing past the data
    /// seen at the last build — are recomputed; the result is equal to a
    /// fresh [`SlotPartition::build`] over the new inputs.
    ///
    /// Returns the index of the first slot whose packet range is new or
    /// may have changed (`n_slots` if nothing changed), so per-channel
    /// [`SlotStats`] layered on top can resume from there via
    /// [`SlotStats::extend`].
    ///
    /// ```
    /// use bs_dsp::slotstats::SlotPartition;
    ///
    /// let mut live = SlotPartition::build(&[100, 250], 100, 300, 1);
    /// let grown = [100, 250, 400, 550];
    /// let from = live.extend(&grown, 2);
    /// assert_eq!(live, SlotPartition::build(&grown, 100, 300, 2));
    /// assert!(from <= 1);
    /// ```
    ///
    /// # Panics
    /// Panics if the axis shrank or `n_slots` decreased.
    pub fn extend(&mut self, t_us: &[u64], n_slots: usize) -> usize {
        assert!(t_us.len() >= self.seen, "timestamp axis shrank");
        let old_n = self.n_slots();
        assert!(n_slots >= old_n, "slot count shrank");
        let prev_seen = self.seen;
        // An edge equal to `prev_seen` pointed past every packet the
        // partition had seen; appended packets may fall before its
        // boundary, so it (and everything after it) must be recomputed.
        // Edges below `prev_seen` are pinned by an existing packet at or
        // beyond their boundary and cannot move.
        let first_movable = self
            .edges
            .iter()
            .position(|&e| e == prev_seen)
            .unwrap_or(self.edges.len());
        self.edges.truncate(first_movable);
        let mut i = self.edges.last().copied().unwrap_or(0);
        for k in first_movable as u64..=n_slots as u64 {
            let boundary = self.base_us.saturating_add(k.saturating_mul(self.width_us));
            if k == 0 {
                i = t_us.partition_point(|&t| t < boundary);
            } else {
                while i < t_us.len() && t_us[i] < boundary {
                    i += 1;
                }
            }
            self.edges.push(i);
        }
        self.seen = t_us.len();
        first_movable.saturating_sub(1).min(old_n)
    }

    /// The anchor time of slot 0.
    pub fn base_us(&self) -> u64 {
        self.base_us
    }

    /// The slot width in µs.
    pub fn width_us(&self) -> u64 {
        self.width_us
    }

    /// Number of slots.
    pub fn n_slots(&self) -> usize {
        self.edges.len() - 1
    }

    /// Packet-index range of slot `k`.
    ///
    /// # Panics
    /// Panics if `k ≥ n_slots`.
    pub fn slot_range(&self, k: usize) -> Range<usize> {
        self.edges[k]..self.edges[k + 1]
    }

    /// The slot containing time `t_us`, if it falls inside the coverage.
    pub fn slot_of(&self, t_us: u64) -> Option<usize> {
        if t_us < self.base_us {
            return None;
        }
        let k = ((t_us - self.base_us) / self.width_us) as usize;
        (k < self.n_slots()).then_some(k)
    }

    /// Total packets covered by the partition (one pass's worth of work
    /// for any per-channel statistics built over it).
    pub fn coverage_len(&self) -> usize {
        self.edges[self.n_slots()] - self.edges[0]
    }
}

/// Per-slot statistics of one channel over a [`SlotPartition`]:
/// `(count, Σx)` and the within-slot population variance.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotStats {
    count: Vec<u32>,
    sum: Vec<f64>,
    var: Vec<f64>,
}

impl SlotStats {
    /// Builds the per-slot statistics for `values` (one sample per
    /// packet, same indexing as the partition's timestamp axis) in one
    /// O(coverage + slots) pass.
    ///
    /// ```
    /// use bs_dsp::slotstats::{SlotPartition, SlotStats};
    ///
    /// let part = SlotPartition::build(&[100, 250, 400], 100, 300, 2);
    /// let stats = SlotStats::build(&part, &[1.0, 3.0, 5.0]);
    /// assert_eq!(stats.mean(0), Some(2.0)); // slot 0 holds 1.0 and 3.0
    /// assert_eq!(stats.mean(1), Some(5.0));
    /// ```
    pub fn build(partition: &SlotPartition, values: &[f64]) -> Self {
        let mut stats = SlotStats {
            count: Vec::new(),
            sum: Vec::new(),
            var: Vec::new(),
        };
        stats.extend(partition, values, 0);
        stats
    }

    /// Incrementally re-derives the statistics for slots `from_slot..`
    /// after the partition grew (see [`SlotPartition::extend`]); slots
    /// below `from_slot` are untouched. Because every per-slot quantity
    /// is a fresh left fold over its own contiguous slice, the result is
    /// **bitwise identical** to a fresh [`SlotStats::build`] over the
    /// grown inputs.
    ///
    /// ```
    /// use bs_dsp::slotstats::{SlotPartition, SlotStats};
    ///
    /// let t_us = [100u64, 250, 400, 550];
    /// let xs = [1.0, 3.0, 5.0, 7.0];
    /// let mut part = SlotPartition::build(&t_us[..2], 100, 300, 1);
    /// let mut stats = SlotStats::build(&part, &xs[..2]);
    /// let from = part.extend(&t_us, 2);
    /// stats.extend(&part, &xs, from);
    /// assert_eq!(stats, SlotStats::build(&part, &xs));
    /// ```
    pub fn extend(&mut self, partition: &SlotPartition, values: &[f64], from_slot: usize) {
        let n = partition.n_slots();
        let from = from_slot.min(n).min(self.count.len());
        self.count.truncate(from);
        self.sum.truncate(from);
        self.var.truncate(from);
        self.count.reserve(n - from);
        self.sum.reserve(n - from);
        self.var.reserve(n - from);
        for k in from..n {
            let slice = &values[partition.slot_range(k)];
            // Fresh accumulators per slot, packet order: bit-exact with a
            // naive "sums[slot] += x" scan.
            let mut s = 0.0;
            let mut w = Running::new();
            for &x in slice {
                s += x;
                w.push(x);
            }
            self.count.push(slice.len() as u32);
            self.sum.push(s);
            self.var.push(w.population_variance());
        }
    }

    /// Packet count of slot `k`.
    pub fn count(&self, k: usize) -> u32 {
        self.count[k]
    }

    /// Σx of slot `k` (accumulated in packet order from 0.0).
    pub fn sum(&self, k: usize) -> f64 {
        self.sum[k]
    }

    /// Mean of slot `k`: `Σx / count` — `None` for an empty slot.
    pub fn mean(&self, k: usize) -> Option<f64> {
        let c = self.count[k];
        (c > 0).then(|| self.sum[k] / f64::from(c))
    }

    /// Within-slot population variance of slot `k` (Welford, matching
    /// [`crate::stats::variance`] exactly). 0 for slots with < 2 packets.
    pub fn variance(&self, k: usize) -> f64 {
        self.var[k]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    fn synth(n: usize, gap: u64, seed: u64) -> (Vec<u64>, Vec<f64>) {
        let mut rng = SimRng::new(seed).stream("slotstats");
        let mut t = 0u64;
        let mut t_us = Vec::with_capacity(n);
        let mut xs = Vec::with_capacity(n);
        for _ in 0..n {
            t_us.push(t);
            t += 1 + (rng.gaussian(gap as f64, gap as f64 / 4.0).abs() as u64);
            xs.push(rng.gaussian(0.0, 1.0));
        }
        (t_us, xs)
    }

    /// The naive binning the decoder reference path uses: full scan,
    /// `sums[slot] += x` in packet order.
    fn naive_bins(
        t_us: &[u64],
        xs: &[f64],
        start: u64,
        width: u64,
        n_slots: usize,
    ) -> (Vec<u32>, Vec<f64>, Vec<f64>) {
        let mut counts = vec![0u32; n_slots];
        let mut sums = vec![0.0; n_slots];
        let mut per_slot: Vec<Vec<f64>> = vec![Vec::new(); n_slots];
        for (p, &t) in t_us.iter().enumerate() {
            if t < start {
                continue;
            }
            let slot = ((t - start) / width) as usize;
            if slot >= n_slots {
                continue;
            }
            counts[slot] += 1;
            sums[slot] += xs[p];
            per_slot[slot].push(xs[p]);
        }
        let vars = per_slot.iter().map(|s| crate::stats::variance(s)).collect();
        (counts, sums, vars)
    }

    #[test]
    fn partition_ranges_match_time_windows() {
        let (t_us, _) = synth(500, 300, 1);
        let part = SlotPartition::build(&t_us, 10_000, 1_000, 40);
        assert_eq!(part.n_slots(), 40);
        for k in 0..40 {
            let lo = 10_000 + k as u64 * 1_000;
            let hi = lo + 1_000;
            let want: Vec<usize> = (0..t_us.len())
                .filter(|&p| t_us[p] >= lo && t_us[p] < hi)
                .collect();
            let got: Vec<usize> = part.slot_range(k).collect();
            assert_eq!(got, want, "slot {k}");
            for &p in &want {
                assert_eq!(part.slot_of(t_us[p]), Some(k));
            }
        }
    }

    #[test]
    fn stats_bitwise_match_naive_binning() {
        let (t_us, xs) = synth(800, 250, 2);
        let start = 5_000u64;
        let width = 777u64;
        let n_slots = 60;
        let part = SlotPartition::build(&t_us, start, width, n_slots);
        let stats = SlotStats::build(&part, &xs);
        let (counts, sums, vars) = naive_bins(&t_us, &xs, start, width, n_slots);
        for k in 0..n_slots {
            assert_eq!(stats.count(k), counts[k], "count slot {k}");
            assert_eq!(stats.sum(k).to_bits(), sums[k].to_bits(), "sum slot {k}");
            assert_eq!(
                stats.variance(k).to_bits(),
                vars[k].to_bits(),
                "var slot {k}"
            );
            let want_mean = (counts[k] > 0).then(|| sums[k] / f64::from(counts[k]));
            assert_eq!(
                stats.mean(k).map(f64::to_bits),
                want_mean.map(f64::to_bits),
                "mean slot {k}"
            );
        }
    }

    #[test]
    fn empty_and_out_of_range_slots() {
        let t_us = vec![100, 200, 300];
        let xs = vec![1.0, 2.0, 3.0];
        // Slots entirely after the data.
        let part = SlotPartition::build(&t_us, 1_000, 50, 4);
        let stats = SlotStats::build(&part, &xs);
        for k in 0..4 {
            assert_eq!(stats.count(k), 0);
            assert_eq!(stats.mean(k), None);
            assert_eq!(stats.variance(k), 0.0);
            assert!(part.slot_range(k).is_empty());
        }
        assert_eq!(part.coverage_len(), 0);
        assert_eq!(part.slot_of(50), None);
        assert_eq!(part.slot_of(1_000), Some(0));
        assert_eq!(part.slot_of(1_200), None);
    }

    #[test]
    fn empty_stream() {
        let part = SlotPartition::build(&[], 0, 10, 3);
        assert_eq!(part.n_slots(), 3);
        assert_eq!(part.coverage_len(), 0);
        let stats = SlotStats::build(&part, &[]);
        for k in 0..3 {
            assert_eq!(stats.count(k), 0);
            assert_eq!(stats.mean(k), None);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_panics() {
        SlotPartition::build(&[0, 1], 0, 0, 1);
    }

    #[test]
    fn extend_matches_fresh_build_bitwise() {
        let (t_us, xs) = synth(600, 280, 4);
        // Grow the stream and the slot count together in uneven steps,
        // as a live session would.
        let steps = [(50usize, 4usize), (51, 4), (200, 11), (400, 30), (600, 47)];
        let (n0, s0) = steps[0];
        let mut part = SlotPartition::build(&t_us[..n0], 7_000, 913, s0);
        let mut stats = SlotStats::build(&part, &xs[..n0]);
        for &(n, slots) in &steps[1..] {
            let from = part.extend(&t_us[..n], slots);
            stats.extend(&part, &xs[..n], from);
            let fresh_part = SlotPartition::build(&t_us[..n], 7_000, 913, slots);
            assert_eq!(part, fresh_part, "partition at n={n} slots={slots}");
            let fresh = SlotStats::build(&fresh_part, &xs[..n]);
            assert_eq!(stats, fresh, "stats PartialEq at n={n}");
            for k in 0..slots {
                assert_eq!(stats.sum(k).to_bits(), fresh.sum(k).to_bits());
                assert_eq!(stats.variance(k).to_bits(), fresh.variance(k).to_bits());
            }
        }
    }

    #[test]
    fn extend_with_no_new_data_is_identity() {
        let (t_us, xs) = synth(100, 300, 5);
        let mut part = SlotPartition::build(&t_us, 0, 1_000, 10);
        let before = part.clone();
        let from = part.extend(&t_us, 10);
        assert_eq!(part, before);
        assert_eq!(from, 10, "nothing changed → first changed slot == n_slots");
        let mut stats = SlotStats::build(&part, &xs);
        let fresh = stats.clone();
        stats.extend(&part, &xs, from);
        assert_eq!(stats, fresh);
    }

    #[test]
    fn extend_from_empty_partition() {
        let (t_us, xs) = synth(120, 200, 6);
        let mut part = SlotPartition::build(&[], 3_000, 500, 0);
        let mut stats = SlotStats::build(&part, &[]);
        let from = part.extend(&t_us, 25);
        assert_eq!(from, 0);
        assert_eq!(part, SlotPartition::build(&t_us, 3_000, 500, 25));
        // A zero-slot build saw no slots; rebuild everything from 0.
        stats.extend(&part, &xs, from);
        assert_eq!(stats, SlotStats::build(&part, &xs));
    }
}
