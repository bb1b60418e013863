//! Property-based tests for the DSP substrate's core invariants,
//! driven by the deterministic in-repo [`bs_dsp::testkit`] generator.

use bs_dsp::bits::{bits_to_bytes, bytes_to_bits, crc8, BerCounter};
use bs_dsp::codes::OrthogonalPair;
use bs_dsp::complex::Complex;
use bs_dsp::correlate;
use bs_dsp::filter::{condition, moving_average};
use bs_dsp::kernels::axpy;
use bs_dsp::slicer::{majority, Decision};
use bs_dsp::stats::{mean, mean_abs, percentile, Histogram, Running};
use bs_dsp::testkit::check;

// ---- complex arithmetic ----

#[test]
fn complex_mul_is_commutative() {
    check("complex-mul-commutative", 256, |g| {
        let x = Complex::new(g.f64_in(-1e6, 1e6), g.f64_in(-1e6, 1e6));
        let y = Complex::new(g.f64_in(-1e6, 1e6), g.f64_in(-1e6, 1e6));
        let xy = x * y;
        let yx = y * x;
        assert!((xy.re - yx.re).abs() <= 1e-6 * xy.re.abs().max(1.0));
        assert!((xy.im - yx.im).abs() <= 1e-6 * xy.im.abs().max(1.0));
    });
}

#[test]
fn complex_abs_is_multiplicative() {
    check("complex-abs-multiplicative", 256, |g| {
        let x = Complex::new(g.f64_in(-1e3, 1e3), g.f64_in(-1e3, 1e3));
        let y = Complex::new(g.f64_in(-1e3, 1e3), g.f64_in(-1e3, 1e3));
        let lhs = (x * y).abs();
        let rhs = x.abs() * y.abs();
        assert!((lhs - rhs).abs() <= 1e-9 * rhs.max(1.0), "{lhs} vs {rhs}");
    });
}

#[test]
fn complex_conj_preserves_abs() {
    check("complex-conj-abs", 256, |g| {
        let z = Complex::new(g.f64_in(-1e6, 1e6), g.f64_in(-1e6, 1e6));
        assert_eq!(z.abs(), z.conj().abs());
    });
}

// ---- bit packing and CRC ----

#[test]
fn bytes_bits_roundtrip() {
    check("bytes-bits-roundtrip", 256, |g| {
        let data = g.vec_u8(0, 64);
        assert_eq!(bits_to_bytes(&bytes_to_bits(&data)), data);
    });
}

#[test]
fn crc_detects_any_single_bit_flip() {
    check("crc-single-flip", 256, |g| {
        let data = g.vec_u8(1, 32);
        let i = g.usize_in(0, data.len());
        let bit = g.usize_in(0, 8) as u8;
        let good = crc8(&data);
        let mut corrupt = data.clone();
        corrupt[i] ^= 1 << bit;
        assert_ne!(crc8(&corrupt), good);
    });
}

// ---- statistics ----

#[test]
fn running_mean_matches_slice() {
    check("running-mean", 256, |g| {
        let xs = g.vec_f64(-1e6, 1e6, 1, 200);
        let mut r = Running::new();
        for &x in &xs {
            r.push(x);
        }
        let m = mean(&xs);
        assert!((r.mean() - m).abs() <= 1e-6 * m.abs().max(1.0));
        assert!(r.population_variance() >= -1e-9);
    });
}

#[test]
fn running_merge_matches_whole() {
    check("running-merge", 256, |g| {
        let xs = g.vec_f64(-1e3, 1e3, 2, 100);
        let k = g.usize_in(0, xs.len());
        let mut whole = Running::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = Running::new();
        let mut b = Running::new();
        for &x in &xs[..k] {
            a.push(x);
        }
        for &x in &xs[k..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-7);
        assert!((a.population_variance() - whole.population_variance()).abs() < 1e-6);
    });
}

#[test]
fn percentile_is_monotone() {
    check("percentile-monotone", 256, |g| {
        let xs = g.vec_f64(-1e3, 1e3, 1, 100);
        let p1 = g.f64_in(0.0, 100.0);
        let p2 = g.f64_in(0.0, 100.0);
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        assert!(percentile(&xs, lo) <= percentile(&xs, hi) + 1e-12);
    });
}

#[test]
fn histogram_mass_conserved() {
    check("histogram-mass", 256, |g| {
        let xs = g.vec_f64(-5.0, 5.0, 0, 500);
        let mut h = Histogram::new(-3.0, 3.0, 30);
        for &x in &xs {
            h.push(x);
        }
        let in_bins: u64 = (0..h.bins()).map(|i| h.count(i)).sum();
        let (under, over) = h.out_of_range();
        assert_eq!(in_bins + under + over, h.total());
        assert_eq!(h.total(), xs.len() as u64);
    });
}

// ---- filtering ----

#[test]
fn moving_average_bounded_by_extremes() {
    check("moving-average-bounded", 256, |g| {
        let xs = g.vec_f64(-1e3, 1e3, 1, 200);
        let half = g.usize_in(0, 20);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for m in moving_average(&xs, half) {
            assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
        }
    });
}

#[test]
fn condition_is_offset_and_scale_invariant() {
    check("condition-invariance", 256, |g| {
        let xs = g.vec_f64(-100.0, 100.0, 10, 100);
        let offset = g.f64_in(-1e3, 1e3);
        let scale = g.f64_in(0.1, 100.0);
        let shifted: Vec<f64> = xs.iter().map(|x| x * scale + offset).collect();
        let a = condition(&xs, 5);
        let b = condition(&shifted, 5);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6, "{x} vs {y}");
        }
    });
}

#[test]
fn condition_output_mean_abs_is_unit_or_zero() {
    check("condition-unit-mean-abs", 256, |g| {
        let xs = g.vec_f64(-100.0, 100.0, 1, 100);
        let half = g.usize_in(1, 30);
        let y = condition(&xs, half);
        let ma = mean_abs(&y);
        assert!(ma.abs() < 1e-9 || (ma - 1.0).abs() < 1e-9, "mean abs {ma}");
    });
}

// ---- correlation & codes ----

#[test]
fn normalized_correlation_bounded() {
    check("correlation-bounded", 256, |g| {
        let sig = g.vec_f64(-1e3, 1e3, 13, 64);
        let score = correlate::normalized(&sig[..13], &bs_dsp::codes::BARKER13);
        assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&score), "{score}");
    });
}

#[test]
fn orthogonal_pair_always_orthogonal() {
    check("orthogonal-pair", 128, |g| {
        let len_half = g.usize_in(1, 128);
        let p = OrthogonalPair::new(len_half * 2);
        let dot: i32 = p
            .one
            .iter()
            .zip(&p.zero)
            .map(|(&a, &b)| i32::from(a) * i32::from(b))
            .sum();
        assert_eq!(dot, 0);
    });
}

#[test]
fn orthogonal_decode_inverts_encode() {
    check("orthogonal-roundtrip", 128, |g| {
        let bits = g.vec_bool(1, 40);
        let len_half = g.usize_in(1, 32);
        let p = OrthogonalPair::new(len_half * 2);
        let chips = p.encode(&bits);
        assert_eq!(chips.len(), bits.len() * p.len());
        for (i, &bit) in bits.iter().enumerate() {
            let window: Vec<f64> = chips[i * p.len()..(i + 1) * p.len()]
                .iter()
                .map(|&c| f64::from(c))
                .collect();
            assert_eq!(p.decode_bit(&window).0, bit);
        }
    });
}

// ---- slicing ----

#[test]
fn majority_matches_naive_count() {
    check("majority-naive", 256, |g| {
        let n = g.usize_in(0, 50);
        let votes: Vec<u8> = (0..n).map(|_| g.usize_in(0, 3) as u8).collect();
        let decisions: Vec<Decision> = votes
            .iter()
            .map(|&v| match v {
                0 => Decision::Zero,
                1 => Decision::One,
                _ => Decision::Indeterminate,
            })
            .collect();
        let ones = votes.iter().filter(|&&v| v == 1).count();
        let zeros = votes.iter().filter(|&&v| v == 0).count();
        let expect = if ones > zeros {
            Some(true)
        } else if zeros > ones {
            Some(false)
        } else {
            None
        };
        assert_eq!(majority(&decisions), expect);
    });
}

// ---- chunked kernels ----

/// The chunked axpy kernel folds channels into the accumulator with the
/// exact additions of the scalar per-element loop.
#[test]
fn axpy_fold_matches_scalar_per_element() {
    check("axpy-scalar-fold", 128, |g| {
        let len = g.usize_in(0, 70);
        let rows: Vec<Vec<f64>> = (0..g.usize_in(1, 6))
            .map(|_| g.vec_f64(-1e4, 1e4, len, len + 1))
            .collect();
        let ws: Vec<f64> = rows.iter().map(|_| g.f64_in(-3.0, 3.0)).collect();
        let mut acc = vec![0.0; len];
        for (row, &w) in rows.iter().zip(&ws) {
            axpy(&mut acc, w, row);
        }
        for i in 0..len {
            let mut want = 0.0;
            for (row, &w) in rows.iter().zip(&ws) {
                want += w * row[i];
            }
            assert_eq!(acc[i].to_bits(), want.to_bits());
        }
    });
}

// ---- BER accounting ----

#[test]
fn ber_counter_compare_bounds() {
    check("ber-counter-bounds", 256, |g| {
        let tx = g.vec_bool(0, 100);
        let rx = g.vec_bool(0, 100);
        let mut c = BerCounter::new();
        c.compare(&tx, &rx);
        assert_eq!(c.bits(), tx.len() as u64);
        assert!(c.errors() <= c.bits());
        assert!(c.raw_ber() <= 1.0);
    });
}
