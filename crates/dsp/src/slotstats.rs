//! Binned slot statistics over a timestamped packet stream.
//!
//! The uplink decoders (§3.2 steps 2–4) need per-slot counts, means and
//! within-slot variances over windows `[start_us, start_us + n·width_us)`
//! of a time-sorted capture. The timestamp axis is **ascending**, so every
//! window is a contiguous packet-index range:
//!
//! * [`SlotPartition`] cuts the axis into fixed-width slots anchored at a
//!   base time, in one O(packets + slots) pass.
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
/// packet-index [`Range`], shared by all channels of the bundle.
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
    /// `edges[k]` = first packet index with `t ≥ base_us + k·width_us`;
    /// length `n_slots + 1`.
    edges: Vec<usize>,
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
        SlotPartition { base_us, edges }
    }

    /// The anchor time of slot 0.
    pub fn base_us(&self) -> u64 {
        self.base_us
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
        let n = partition.n_slots();
        let mut stats = SlotStats {
            count: Vec::with_capacity(n),
            sum: Vec::with_capacity(n),
            var: Vec::with_capacity(n),
        };
        for k in 0..n {
            let slice = &values[partition.slot_range(k)];
            // Fresh accumulators per slot, packet order: bit-exact with a
            // naive "sums[slot] += x" scan.
            let mut s = 0.0;
            let mut w = Running::new();
            for &x in slice {
                s += x;
                w.push(x);
            }
            stats.count.push(slice.len() as u32);
            stats.sum.push(s);
            stats.var.push(w.population_variance());
        }
        stats
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
}
