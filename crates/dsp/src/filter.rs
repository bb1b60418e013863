//! Signal conditioning: moving-average detrending and ±1 normalisation.
//!
//! §3.2 step 1 of the paper removes slow temporal channel variation (people
//! moving, furniture, drift) by subtracting a moving average computed over a
//! 400 ms window, then normalises the zero-mean residual by the mean of its
//! absolute values so that the two tag states land near −1 and +1.
//!
//! [`condition_in_place`] is the whole-record version used when decoding a
//! captured trace, matching the paper's evaluation methodology; the
//! decoders condition each channel of a capture in its own memory with
//! it, and [`condition`] is its copying wrapper.

/// Centred moving average with window `2·half + 1`, truncated at the edges.
///
/// Edge samples average over whatever part of the window is in range, so the
/// output has the same length as the input and no startup transient is
/// discarded (the paper decodes full captures).
///
/// The interior — every sample with a full window — is a flat
/// `(prefix[i+half+1] - prefix[i-half]) / (2·half+1)` map, computed through
/// the chunked kernels in [`crate::kernels`] so the compiler can lane it;
/// only the `2·half` edge samples take the scalar truncated-window path.
/// Per element the arithmetic is identical either way, so the split is
/// bit-invisible.
pub fn moving_average(xs: &[f64], half: usize) -> Vec<f64> {
    let len = xs.len();
    if len == 0 {
        return Vec::new();
    }
    // Prefix sums for O(n) averaging (a sequential left fold — kept
    // scalar; reassociating it would change the rounding).
    let mut prefix = Vec::with_capacity(len + 1);
    prefix.push(0.0);
    for &x in xs {
        prefix.push(prefix.last().unwrap() + x);
    }
    let edge = |out: &mut Vec<f64>, i: usize| {
        let lo = i.saturating_sub(half);
        let hi = (i + half + 1).min(len);
        out.push((prefix[hi] - prefix[lo]) / (hi - lo) as f64);
    };
    let (int_lo, int_hi) = if len > 2 * half {
        (half, len - half)
    } else {
        (0, 0)
    };
    let mut out = Vec::with_capacity(len);
    for i in 0..int_lo {
        edge(&mut out, i);
    }
    if int_hi > int_lo {
        let n = int_hi - int_lo;
        let diffs = crate::kernels::subtract(&prefix[2 * half + 1..2 * half + 1 + n], &prefix[..n]);
        out.extend(crate::kernels::scale_div(&diffs, (2 * half + 1) as f64));
    }
    for i in int_hi.max(int_lo)..len {
        edge(&mut out, i);
    }
    out
}

/// The paper's signal-conditioning transform (§3.2 step 1):
/// subtract a centred moving average (window `2·half + 1` samples), then
/// divide by the mean absolute residual so the two backscatter states map to
/// approximately ±1.
///
/// Returns all zeros if the residual is identically zero (e.g. constant
/// input), rather than dividing by zero.
///
/// The copying wrapper of [`condition_in_place`], the one conditioning
/// kernel: it conditions a copy of `xs`, bit for bit what the kernel
/// leaves in place.
///
/// ```
/// use bs_dsp::filter::condition;
///
/// let y = condition(&[1.0, 3.0, 1.0, 3.0, 1.0], 1);
/// assert_eq!(y.len(), 5);
/// assert!(y[1] > 0.0 && y[2] < 0.0); // the square wave, near ±1
/// assert_eq!(condition(&[7.5; 4], 1), vec![0.0; 4]); // no residual
/// ```
pub fn condition(xs: &[f64], half: usize) -> Vec<f64> {
    let mut out = xs.to_vec();
    condition_in_place(&mut out, half, &mut Vec::new());
    out
}

/// [`condition`] in place: `xs` becomes its conditioned series.
///
/// `prefix` is caller-owned scratch for the moving average's prefix sums
/// (`xs.len() + 1` values). Reused across the channels of a bundle it
/// grows once, so conditioning a whole capture allocates once, not per
/// channel. Nothing else is allocated: the prefix sums hold everything
/// the moving average needs, so each sample's residual overwrites the
/// sample itself.
///
/// Per sample this performs exactly the operations of the copying
/// formulation — the moving average `(prefix[hi] − prefix[lo]) /
/// (hi − lo)` of [`moving_average`], the residual `x − ma`, the
/// sequential [`crate::stats::mean_abs`] fold and the division by it —
/// in the same order, so its output is bit-identical to it.
///
/// ```
/// use bs_dsp::filter::{condition, condition_in_place};
///
/// let xs = [2.0, 5.0, 1.0, 4.0, 3.0, 6.0];
/// let mut ys = xs;
/// let mut prefix = Vec::new();
/// condition_in_place(&mut ys, 1, &mut prefix);
/// assert_eq!(ys.to_vec(), condition(&xs, 1));
/// ```
pub fn condition_in_place(xs: &mut [f64], half: usize, prefix: &mut Vec<f64>) {
    let len = xs.len();
    if len == 0 {
        return;
    }
    // Prefix sums, a sequential left fold (reassociating it would change
    // the rounding).
    prefix.clear();
    prefix.reserve(len + 1);
    let mut acc = 0.0;
    prefix.push(acc);
    for &x in xs.iter() {
        acc += x;
        prefix.push(acc);
    }
    // Detrend. Samples with a full window divide by `2·half + 1`; the
    // `2·half` edge samples average over the part of the window in range.
    let (int_lo, int_hi) = if len > 2 * half {
        (half, len - half)
    } else {
        (0, 0)
    };
    for i in (0..int_lo).chain(int_hi..len) {
        let lo = i.saturating_sub(half);
        let hi = (i + half + 1).min(len);
        xs[i] -= (prefix[hi] - prefix[lo]) / (hi - lo) as f64;
    }
    if int_hi > int_lo {
        let n = int_hi - int_lo;
        let w = (2 * half + 1) as f64;
        let ahead = &prefix[2 * half + 1..2 * half + 1 + n];
        for ((x, &a), &b) in xs[int_lo..int_hi].iter_mut().zip(ahead).zip(&prefix[..n]) {
            *x -= (a - b) / w;
        }
    }
    // Normalise.
    let scale = crate::stats::mean_abs(xs);
    if scale == 0.0 {
        xs.fill(0.0);
    } else {
        for x in xs.iter_mut() {
            *x /= scale;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moving_average_of_constant_is_constant() {
        let xs = vec![3.0; 20];
        let ma = moving_average(&xs, 4);
        assert!(ma.iter().all(|&m| (m - 3.0).abs() < 1e-12));
    }

    #[test]
    fn moving_average_empty() {
        assert!(moving_average(&[], 5).is_empty());
    }

    #[test]
    fn moving_average_window_zero_is_identity() {
        let xs = [1.0, 2.0, -4.0];
        assert_eq!(moving_average(&xs, 0), xs.to_vec());
    }

    #[test]
    fn moving_average_matches_naive() {
        let xs: Vec<f64> = (0..50).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let half = 3;
        let fast = moving_average(&xs, half);
        for (i, &f) in fast.iter().enumerate() {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(xs.len());
            let naive: f64 = xs[lo..hi].iter().sum::<f64>() / (hi - lo) as f64;
            assert!((f - naive).abs() < 1e-12, "at {i}");
        }
    }

    #[test]
    fn moving_average_split_is_bitwise_identical_to_uniform_formula() {
        // The head/interior/tail split plus chunked kernels must compute
        // exactly what the original single per-index formula did.
        use crate::SimRng;
        let mut rng = SimRng::new(5).stream("filter-ma-bitwise");
        for len in [1usize, 2, 5, 8, 9, 40, 127] {
            for half in [0usize, 1, 3, 20, 80] {
                let xs: Vec<f64> = (0..len).map(|_| rng.gaussian(0.0, 5.0)).collect();
                let got = moving_average(&xs, half);
                let mut prefix = Vec::with_capacity(len + 1);
                prefix.push(0.0);
                for &x in &xs {
                    prefix.push(prefix.last().unwrap() + x);
                }
                for (i, g) in got.iter().enumerate() {
                    let lo = i.saturating_sub(half);
                    let hi = (i + half + 1).min(len);
                    let want = (prefix[hi] - prefix[lo]) / (hi - lo) as f64;
                    assert_eq!(g.to_bits(), want.to_bits(), "len={len} half={half} i={i}");
                }
            }
        }
    }

    /// The copying formulation `condition` had before the in-place
    /// kernel: a moving-average series, a residual series, then the
    /// normalised series.
    fn condition_by_copies(xs: &[f64], half: usize) -> Vec<f64> {
        let ma = moving_average(xs, half);
        let resid = crate::kernels::subtract(xs, &ma);
        let scale = crate::stats::mean_abs(&resid);
        if scale == 0.0 {
            return vec![0.0; xs.len()];
        }
        crate::kernels::scale_div(&resid, scale)
    }

    #[test]
    fn condition_in_place_is_bitwise_the_copying_formulation() {
        // Random series, plus the edge shapes: empty, no full window
        // (len ≤ 2·half), constant (scale 0) and NaN-carrying. One
        // scratch serves every case, as it serves a bundle's channels.
        let mut prefix = vec![f64::NAN; 3];
        crate::testkit::check("condition-in-place-bitwise", 256, |g| {
            let half = g.usize_in(0, 40);
            let len = match g.usize_in(0, 4) {
                0 => 0,
                1 => g.usize_in(1, 2 * half + 2),
                _ => g.usize_in(1, 300),
            };
            let level = g.f64_in(-50.0, 50.0);
            let mut xs: Vec<f64> = match g.usize_in(0, 4) {
                0 => vec![level; len],
                _ => (0..len).map(|_| level + g.f64_in(-3.0, 3.0)).collect(),
            };
            if len > 0 && g.usize_in(0, 5) == 0 {
                let at = g.usize_in(0, len);
                xs[at] = f64::NAN;
            }
            let want = condition_by_copies(&xs, half);
            let mut got = xs.clone();
            condition_in_place(&mut got, half, &mut prefix);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&got),
                bits(&want),
                "case {} len {len} half {half}",
                g.case()
            );
            assert_eq!(bits(&condition(&xs, half)), bits(&want));
        });
    }

    #[test]
    fn condition_removes_slow_trend() {
        // Square wave riding on a slow ramp; conditioning should recover ±1.
        let n = 400;
        let xs: Vec<f64> = (0..n)
            .map(|i| {
                let trend = i as f64 * 0.01;
                let sq = if (i / 10) % 2 == 0 { 0.5 } else { -0.5 };
                trend + sq
            })
            .collect();
        let y = condition(&xs, 20);
        // Skip edges; interior values should be near ±1.
        let interior = &y[40..n - 40];
        let near_pm1 = interior
            .iter()
            .filter(|v| (v.abs() - 1.0).abs() < 0.35)
            .count();
        assert!(
            near_pm1 as f64 / interior.len() as f64 > 0.9,
            "only {near_pm1}/{} near ±1",
            interior.len()
        );
    }

    #[test]
    fn condition_constant_input_is_zero() {
        let xs = vec![7.5; 64];
        let y = condition(&xs, 8);
        assert!(y.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn condition_output_mean_abs_is_one() {
        let xs: Vec<f64> = (0..200)
            .map(|i| ((i as f64) * 0.7).sin() * 4.0 + 10.0)
            .collect();
        let y = condition(&xs, 25);
        let ma = crate::stats::mean_abs(&y);
        assert!((ma - 1.0).abs() < 1e-9, "mean abs {ma}");
    }
}
