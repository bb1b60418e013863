//! Statistics utilities: running moments, histograms and percentiles.
//!
//! The uplink decoder needs per-sub-channel noise variances (for
//! maximum-ratio combining, §3.2) and the mean/σ of the combined signal (for
//! the hysteresis thresholds). Fig. 4 of the paper is an empirical PDF of
//! normalised channel values, which [`Histogram`] reproduces.

/// Numerically-stable running mean/variance (Welford's algorithm).
///
/// ```
/// use bs_dsp::stats::Running;
/// let mut r = Running::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     r.push(x);
/// }
/// assert_eq!(r.mean(), 5.0);
/// assert_eq!(r.population_variance(), 4.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Running {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Running {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Running::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of the observations (0 if empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (divides by `n`; 0 if empty).
    pub fn population_variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Running) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
    }
}

/// Mean of a slice (0 for an empty slice).
///
/// ```
/// use bs_dsp::stats::mean;
///
/// assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
/// assert_eq!(mean(&[]), 0.0);
/// ```
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population variance of a slice (the same Welford recurrence as
/// [`Running`], so slice and streaming paths agree bitwise).
///
/// ```
/// use bs_dsp::stats::variance;
///
/// assert_eq!(variance(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]), 4.0);
/// ```
pub fn variance(xs: &[f64]) -> f64 {
    let mut r = Running::new();
    for &x in xs {
        r.push(x);
    }
    r.population_variance()
}

/// Mean of the absolute values of a slice — the normalisation constant used
/// by the paper's signal-conditioning step (§3.2 step 1).
///
/// ```
/// use bs_dsp::stats::mean_abs;
///
/// assert_eq!(mean_abs(&[3.0, -1.0, -2.0]), 2.0);
/// ```
pub fn mean_abs(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().map(|x| x.abs()).sum::<f64>() / xs.len() as f64
    }
}

/// Linear-interpolated percentile (`p` in `[0, 100]`) of *unsorted* data.
/// Returns 0 for an empty slice.
///
/// Non-finite handling (the fleet-report policy, matching the decoder's
/// PR-4 `total_cmp` sweep): NaN observations are *skipped* — under
/// `total_cmp` they would rank above `+∞` and poison the interpolation —
/// and `±∞` participate with their natural ordering. When a rank falls
/// between a finite value and an infinity, the nearer rank wins instead
/// of interpolating (interpolating across `-∞‥+∞` would manufacture a
/// NaN). All-NaN input degrades to the empty-slice result, 0.
///
/// ```
/// use bs_dsp::stats::percentile;
///
/// let xs = [4.0, 1.0, 3.0, 2.0];
/// assert_eq!(percentile(&xs, 0.0), 1.0);
/// assert_eq!(percentile(&xs, 50.0), 2.5);
/// assert_eq!(percentile(&xs, 100.0), 4.0);
/// // A stray NaN (an idle tag with no latency sample) is ignored:
/// assert_eq!(percentile(&[2.0, f64::NAN, 4.0], 50.0), 3.0);
/// ```
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    percentile_many(xs, &[p])[0]
}

/// Several percentiles of the same data — what the fleet report uses for
/// its p50/p90/p99 latency columns over 10⁵-tag inputs. Returns one
/// value per entry of `ps`, with the same non-finite policy as
/// [`percentile`].
///
/// Nothing is sorted: each requested rank is found by selection
/// (`select_nth_unstable_by` under `total_cmp`, lowest rank first, each
/// selection confined to the values above the previous one), and an
/// interpolated rank's upper neighbour is the least value above it.
/// Values equal under `total_cmp` have identical bits, so every result
/// is bit-identical to indexing the fully sorted data.
///
/// ```
/// use bs_dsp::stats::percentile_many;
///
/// let xs = [4.0, 1.0, 3.0, 2.0];
/// assert_eq!(percentile_many(&xs, &[0.0, 50.0, 100.0]), vec![1.0, 2.5, 4.0]);
/// ```
pub fn percentile_many(xs: &[f64], ps: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| !x.is_nan()).collect();
    let Some(last) = v.len().checked_sub(1) else {
        return vec![0.0; ps.len()];
    };
    // Fractional rank of each `p` in the sorted order (a NaN `p` lands
    // on rank 0, as `floor`/`ceil` of NaN cast to 0).
    let ranks: Vec<f64> = ps
        .iter()
        .map(|&p| (p.clamp(0.0, 100.0) / 100.0) * last as f64)
        .collect();
    let mut order: Vec<usize> = (0..ps.len()).collect();
    order.sort_by_key(|&i| ranks[i].floor() as usize);
    let mut out = vec![0.0; ps.len()];
    // `v[..start]` holds no value above `v[start]`, which is in its
    // sorted place.
    let mut start = 0;
    for i in order {
        let (lo, hi) = (ranks[i].floor() as usize, ranks[i].ceil() as usize);
        v[start..].select_nth_unstable_by(lo - start, f64::total_cmp);
        start = lo;
        out[i] = if lo == hi {
            v[lo]
        } else {
            let above = v[lo + 1..]
                .iter()
                .copied()
                .min_by(f64::total_cmp)
                .expect("hi <= last");
            interpolate(v[lo], above, ranks[i] - lo as f64)
        };
    }
    out
}

/// The value a fraction `frac` of the way from sorted neighbours `lo` to
/// `hi`.
fn interpolate(lo: f64, hi: f64, frac: f64) -> f64 {
    if lo.is_infinite() || hi.is_infinite() {
        // Nearest rank, ties toward the lower: interpolating with an
        // infinity either saturates or (for -∞‥+∞) yields NaN.
        return if frac <= 0.5 { lo } else { hi };
    }
    lo * (1.0 - frac) + hi * frac
}

/// Median of unsorted data (the 50th [`percentile`], interpolated).
///
/// ```
/// use bs_dsp::stats::median;
///
/// assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
/// assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
/// ```
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// A fixed-range histogram whose normalised counts form an empirical PDF.
///
/// Fig. 4 of the paper plots PDFs of normalised channel values over
/// `[-3, 3]`; `Histogram::new(-3.0, 3.0, 60)` reproduces that axis.
///
/// ```
/// use bs_dsp::stats::Histogram;
///
/// let mut h = Histogram::new(0.0, 4.0, 4);
/// for x in [0.5, 1.5, 1.6, 9.0] {
///     h.push(x);
/// }
/// assert_eq!(h.count(1), 2);
/// assert_eq!(h.out_of_range(), (0, 1)); // the 9.0
/// assert_eq!(h.total(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` equal-width bins.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
            underflow: 0,
            overflow: 0,
        }
    }

    /// Adds one observation. Out-of-range values are tallied separately and
    /// excluded from the PDF.
    pub fn push(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
            return;
        }
        if x >= self.hi {
            self.overflow += 1;
            return;
        }
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        let idx = ((x - self.lo) / width) as usize;
        let idx = idx.min(self.counts.len() - 1);
        self.counts[idx] += 1;
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Width of one bin.
    fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Centre of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        self.lo + (i as f64 + 0.5) * self.bin_width()
    }

    /// Raw count of bin `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Total observations pushed (including out-of-range).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Observations that fell below / above the range.
    pub fn out_of_range(&self) -> (u64, u64) {
        (self.underflow, self.overflow)
    }

    /// The empirical PDF: bin densities that integrate to ≤ 1 (exactly 1 if
    /// no observation fell out of range).
    pub fn pdf(&self) -> Vec<f64> {
        let in_range: u64 = self.counts.iter().sum();
        if in_range == 0 {
            return vec![0.0; self.counts.len()];
        }
        let norm = self.total as f64 * self.bin_width();
        self.counts.iter().map(|&c| c as f64 / norm).collect()
    }

    /// Probability mass per bin (sums to ≤ 1).
    fn pmf(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// Indices of local maxima of the PMF that exceed `min_mass` — used in
    /// tests to verify the bimodal (±1) structure of Fig. 4.
    pub fn modes(&self, min_mass: f64) -> Vec<usize> {
        let pmf = self.pmf();
        let mut modes = Vec::new();
        for i in 0..pmf.len() {
            let left = if i == 0 { 0.0 } else { pmf[i - 1] };
            let right = if i + 1 == pmf.len() { 0.0 } else { pmf[i + 1] };
            if pmf[i] >= min_mass && pmf[i] >= left && pmf[i] > right {
                modes.push(i);
            }
        }
        modes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_empty_is_zero() {
        let r = Running::new();
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.population_variance(), 0.0);
        assert_eq!(r.count(), 0);
    }

    #[test]
    fn running_single_sample() {
        let mut r = Running::new();
        r.push(42.0);
        assert_eq!(r.mean(), 42.0);
        assert_eq!(r.population_variance(), 0.0);
    }

    #[test]
    fn running_matches_slice_functions() {
        let xs = [1.0, -2.0, 3.5, 0.25, 9.0, -1.5];
        let mut r = Running::new();
        for &x in &xs {
            r.push(x);
        }
        assert!((r.mean() - mean(&xs)).abs() < 1e-12);
        assert!((r.population_variance() - variance(&xs)).abs() < 1e-12);
    }

    #[test]
    fn running_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 3.0).collect();
        let mut whole = Running::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = Running::new();
        let mut b = Running::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-10);
        assert!((a.population_variance() - whole.population_variance()).abs() < 1e-10);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Running::new();
        a.push(1.0);
        a.push(3.0);
        let before = (a.count(), a.mean(), a.m2);
        a.merge(&Running::new());
        assert_eq!((a.count(), a.mean(), a.m2), before);

        let mut e = Running::new();
        e.merge(&a);
        assert_eq!(e.count(), 2);
        assert_eq!(e.mean(), 2.0);
    }

    #[test]
    fn mean_abs_of_symmetric_signal() {
        let xs = [1.0, -1.0, 1.0, -1.0];
        assert_eq!(mean(&xs), 0.0);
        assert_eq!(mean_abs(&xs), 1.0);
    }

    #[test]
    fn percentile_basics() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(median(&xs), 3.0);
        assert_eq!(percentile(&xs, 25.0), 2.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [0.0, 10.0];
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 75.0), 7.5);
    }

    #[test]
    fn percentile_empty_is_zero() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_skips_nan_instead_of_panicking() {
        // Regression: the old partial_cmp().expect sort panicked on the
        // first NaN; fleet-sized latency vectors legitimately carry
        // NaN placeholders for tags that never completed.
        assert_eq!(percentile(&[1.0, f64::NAN, 3.0], 50.0), 2.0);
        assert_eq!(percentile(&[f64::NAN, 5.0], 0.0), 5.0);
        assert_eq!(percentile(&[f64::NAN, 5.0], 100.0), 5.0);
        // All-NaN degrades to the empty-slice result.
        assert_eq!(percentile(&[f64::NAN, f64::NAN], 50.0), 0.0);
        assert_eq!(median(&[f64::NAN]), 0.0);
    }

    #[test]
    fn percentile_orders_infinities_without_nan() {
        let xs = [f64::NEG_INFINITY, 0.0, f64::INFINITY];
        assert_eq!(percentile(&xs, 0.0), f64::NEG_INFINITY);
        assert_eq!(percentile(&xs, 50.0), 0.0);
        assert_eq!(percentile(&xs, 100.0), f64::INFINITY);
        // Interpolating between -inf and +inf must not manufacture NaN:
        // nearest rank wins, ties toward the lower rank.
        let two = [f64::NEG_INFINITY, f64::INFINITY];
        assert_eq!(percentile(&two, 50.0), f64::NEG_INFINITY);
        assert_eq!(percentile(&two, 75.0), f64::INFINITY);
        // Finite-to-infinite ranks saturate instead of interpolating.
        let mix = [1.0, f64::INFINITY];
        assert_eq!(percentile(&mix, 25.0), 1.0);
        assert_eq!(percentile(&mix, 75.0), f64::INFINITY);
    }

    /// The sort-based percentiles the selection replaced: sort the
    /// NaN-free values, then interpolate at each rank.
    fn sorted_percentiles(xs: &[f64], ps: &[f64]) -> Vec<f64> {
        let mut v: Vec<f64> = xs.iter().copied().filter(|x| !x.is_nan()).collect();
        v.sort_by(f64::total_cmp);
        ps.iter()
            .map(|&p| {
                if v.is_empty() {
                    return 0.0;
                }
                let rank = (p.clamp(0.0, 100.0) / 100.0) * (v.len() - 1) as f64;
                let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
                if lo == hi {
                    v[lo]
                } else {
                    interpolate(v[lo], v[hi], rank - lo as f64)
                }
            })
            .collect()
    }

    #[test]
    fn selected_percentiles_equal_the_sorted_ones_bit_for_bit() {
        crate::testkit::check("percentile-selection", 500, |g| {
            // Few distinct values, so duplicates are common, plus NaN,
            // both infinities and both zeros; sometimes nothing at all.
            let pool = [
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                0.0,
                -0.0,
                1.5,
                -2.25,
                g.f64_in(-1e6, 1e6),
                g.f64_in(0.0, 1.0),
            ];
            let n = if g.bool() {
                g.usize_in(0, 12)
            } else {
                g.usize_in(0, 400)
            };
            let xs: Vec<f64> = (0..n)
                .map(|_| {
                    if g.bool() {
                        pool[g.usize_in(0, pool.len())]
                    } else {
                        g.f64_in(-1e3, 1e3)
                    }
                })
                .collect();
            let ps: Vec<f64> = (0..g.usize_in(0, 6))
                .map(|_| match g.usize_in(0, 6) {
                    0 => 0.0,
                    1 => 100.0,
                    2 => f64::NAN,
                    3 => g.f64_in(-20.0, 120.0),
                    _ => g.f64_in(0.0, 100.0),
                })
                .collect();
            let got: Vec<u64> = percentile_many(&xs, &ps)
                .iter()
                .map(|x| x.to_bits())
                .collect();
            let want: Vec<u64> = sorted_percentiles(&xs, &ps)
                .iter()
                .map(|x| x.to_bits())
                .collect();
            assert_eq!(got, want, "xs {xs:?} ps {ps:?}");
        });
    }

    #[test]
    fn percentile_many_matches_single_calls() {
        let xs = [9.0, -2.0, 4.5, 0.0, 7.25, f64::NAN, 3.0];
        let ps = [0.0, 10.0, 50.0, 90.0, 99.0, 100.0];
        let many = percentile_many(&xs, &ps);
        for (i, &p) in ps.iter().enumerate() {
            assert_eq!(many[i], percentile(&xs, p), "p{p}");
        }
        assert!(percentile_many(&[], &[50.0]) == vec![0.0]);
        assert!(percentile_many(&xs, &[]).is_empty());
    }

    #[test]
    fn histogram_pdf_integrates_to_one() {
        let mut h = Histogram::new(-3.0, 3.0, 60);
        for i in 0..1000 {
            h.push(-2.9 + 5.8 * (i as f64 / 1000.0));
        }
        let integral: f64 = h.pdf().iter().sum::<f64>() * h.bin_width();
        assert!((integral - 1.0).abs() < 1e-9, "integral {integral}");
    }

    #[test]
    fn histogram_out_of_range_tracked() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        h.push(-1.0);
        h.push(0.5);
        h.push(2.0);
        assert_eq!(h.out_of_range(), (1, 1));
        assert_eq!(h.total(), 3);
        // PDF mass accounts only for in-range, normalised by total:
        let mass: f64 = h.pmf().iter().sum();
        assert!((mass - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_bimodal_modes_found() {
        let mut h = Histogram::new(-3.0, 3.0, 30);
        // Two clusters near -1 and +1.
        for i in 0..500 {
            let jitter = (i % 10) as f64 * 0.01;
            h.push(-1.0 + jitter);
            h.push(1.0 + jitter);
        }
        let modes = h.modes(0.05);
        assert_eq!(modes.len(), 2, "modes {modes:?}");
        let centers: Vec<f64> = modes.iter().map(|&i| h.bin_center(i)).collect();
        assert!(centers[0] < 0.0 && centers[1] > 0.0, "{centers:?}");
    }

    #[test]
    fn histogram_boundary_values() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.push(0.0); // first bin
        h.push(0.999999); // last bin
        h.push(1.0); // overflow (half-open range)
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(3), 1);
        assert_eq!(h.out_of_range(), (0, 1));
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_zero_bins_panics() {
        Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn histogram_bad_range_panics() {
        Histogram::new(1.0, 1.0, 4);
    }
}
