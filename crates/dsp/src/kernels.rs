//! Chunked vector kernels.
//!
//! The decode hot path ([`axpy`], [`subtract`], [`scale_div`]) is written
//! in terms of these. They restructure per-element loops into flat
//! fixed-width lanes the autovectorizer can pack, while performing
//! **exactly** the same floating-point operation on each element in the
//! same order — so the vectorized decode is bit-identical to the scalar
//! reference (see DESIGN.md §5, "Live packets", for the argument).

/// Lane width of the chunked kernels. 8 × f64 = one cache line; wide
/// enough for any SIMD unit the autovectorizer targets, and the
/// remainder loop is at most 7 scalar iterations.
pub const LANES: usize = 8;

/// `acc[i] += w * xs[i]` for every element — the MRC combining kernel.
///
/// Chunked into fixed [`LANES`]-wide blocks so the compiler can pack the
/// multiply-adds; each element still receives exactly one
/// `acc[i] + w * xs[i]` in index order, so folding channels through
/// repeated `axpy` calls reproduces the scalar per-packet
/// `Σ w_c · x_c[i]` accumulation **bit for bit** (same additions, same
/// order — chunking unrolls the loop, it never reassociates across
/// elements).
///
/// # Panics
/// Panics if the slices differ in length.
///
/// ```
/// use bs_dsp::kernels::axpy;
///
/// let mut acc = vec![0.0; 3];
/// axpy(&mut acc, 2.0, &[1.0, 2.0, 3.0]);
/// axpy(&mut acc, -1.0, &[0.0, 1.0, 2.0]);
/// assert_eq!(acc, vec![2.0, 3.0, 4.0]);
/// ```
pub fn axpy(acc: &mut [f64], w: f64, xs: &[f64]) {
    assert_eq!(acc.len(), xs.len(), "axpy length mismatch");
    let mut a = acc.chunks_exact_mut(LANES);
    let mut x = xs.chunks_exact(LANES);
    for (ac, xc) in a.by_ref().zip(x.by_ref()) {
        for k in 0..LANES {
            ac[k] += w * xc[k];
        }
    }
    for (ac, &xv) in a.into_remainder().iter_mut().zip(x.remainder()) {
        *ac += w * xv;
    }
}

/// Element-wise `xs[i] - ys[i]` — the detrend kernel of the conditioner.
///
/// Same chunking (and the same bit-exactness argument) as [`axpy`].
///
/// # Panics
/// Panics if the slices differ in length.
///
/// ```
/// use bs_dsp::kernels::subtract;
///
/// assert_eq!(subtract(&[3.0, 5.0], &[1.0, 2.0]), vec![2.0, 3.0]);
/// ```
pub fn subtract(xs: &[f64], ys: &[f64]) -> Vec<f64> {
    assert_eq!(xs.len(), ys.len(), "subtract length mismatch");
    let mut out = vec![0.0; xs.len()];
    let mut o = out.chunks_exact_mut(LANES);
    let mut x = xs.chunks_exact(LANES);
    let mut y = ys.chunks_exact(LANES);
    for ((oc, xc), yc) in o.by_ref().zip(x.by_ref()).zip(y.by_ref()) {
        for k in 0..LANES {
            oc[k] = xc[k] - yc[k];
        }
    }
    for ((ov, &xv), &yv) in o
        .into_remainder()
        .iter_mut()
        .zip(x.remainder())
        .zip(y.remainder())
    {
        *ov = xv - yv;
    }
    out
}

/// Element-wise `xs[i] / d` — the normalisation kernel of the
/// conditioner.
///
/// Divides rather than multiplying by a reciprocal: `x / d` and
/// `x * (1.0 / d)` round differently, and the conditioner's output is
/// pinned bitwise against the scalar reference.
///
/// ```
/// use bs_dsp::kernels::scale_div;
///
/// assert_eq!(scale_div(&[2.0, 4.0, 6.0], 2.0), vec![1.0, 2.0, 3.0]);
/// ```
pub fn scale_div(xs: &[f64], d: f64) -> Vec<f64> {
    let mut out = vec![0.0; xs.len()];
    let mut o = out.chunks_exact_mut(LANES);
    let mut x = xs.chunks_exact(LANES);
    for (oc, xc) in o.by_ref().zip(x.by_ref()) {
        for k in 0..LANES {
            oc[k] = xc[k] / d;
        }
    }
    for (ov, &xv) in o.into_remainder().iter_mut().zip(x.remainder()) {
        *ov = xv / d;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    #[test]
    fn axpy_bitwise_matches_scalar_fold() {
        let mut rng = SimRng::new(11).stream("stream-axpy");
        for len in [0usize, 1, 7, 8, 9, 64, 100] {
            let rows: Vec<Vec<f64>> = (0..5)
                .map(|_| (0..len).map(|_| rng.gaussian(0.0, 1e3)).collect())
                .collect();
            let ws: Vec<f64> = (0..5).map(|_| rng.gaussian(0.0, 2.0)).collect();
            let mut acc = vec![0.0; len];
            for (row, &w) in rows.iter().zip(&ws) {
                axpy(&mut acc, w, row);
            }
            for i in 0..len {
                let mut want = 0.0;
                for (row, &w) in rows.iter().zip(&ws) {
                    want += w * row[i];
                }
                assert_eq!(acc[i].to_bits(), want.to_bits(), "len={len} i={i}");
            }
        }
    }

    #[test]
    fn subtract_and_scale_div_bitwise_match_scalar() {
        let mut rng = SimRng::new(12).stream("stream-elemwise");
        for len in [0usize, 1, 7, 8, 9, 33] {
            let xs: Vec<f64> = (0..len).map(|_| rng.gaussian(0.0, 1e3)).collect();
            let ys: Vec<f64> = (0..len).map(|_| rng.gaussian(0.0, 1e3)).collect();
            let d = rng.gaussian(1.0, 0.3).abs() + 0.1;
            let sub = subtract(&xs, &ys);
            let div = scale_div(&xs, d);
            for i in 0..len {
                assert_eq!(sub[i].to_bits(), (xs[i] - ys[i]).to_bits());
                assert_eq!(div[i].to_bits(), (xs[i] / d).to_bits());
            }
        }
    }
}
