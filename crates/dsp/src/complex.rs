//! A minimal complex-number type for baseband channel arithmetic.
//!
//! The channel simulator works with complex per-subcarrier frequency
//! responses (`H(f) ∈ ℂ`). We implement the handful of operations we need
//! rather than pulling in an external crate; this keeps the workspace's
//! dependency set to exactly what DESIGN.md justifies.

use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// ```
/// use bs_dsp::Complex;
/// let a = Complex::new(1.0, 2.0);
/// let b = Complex::from_polar(1.0, std::f64::consts::FRAC_PI_2);
/// assert!((b.re).abs() < 1e-12);
/// assert!(((a * b).abs() - a.abs()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from rectangular components.
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a complex number from polar form `r·e^{jθ}`.
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex::new(r * theta.cos(), r * theta.sin())
    }

    /// Magnitude `|z|`.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|²` (cheaper than [`abs`](Self::abs)).
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Phase angle in radians, in `(-π, π]`.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Complex::new(self.re, -self.im)
    }

    /// Multiplicative inverse. Returns `NaN` components for zero input,
    /// mirroring `f64` division semantics.
    fn recip(self) -> Self {
        let d = self.norm_sq();
        Complex::new(self.re / d, -self.im / d)
    }

    /// Scales by a real factor.
    pub fn scale(self, k: f64) -> Self {
        Complex::new(self.re * k, self.im * k)
    }

    /// Complex exponential `e^z`.
    pub fn exp(self) -> Self {
        Complex::from_polar(self.re.exp(), self.im)
    }

    /// Returns true if either component is NaN.
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        *self = *self + rhs;
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex {
    fn sub_assign(&mut self, rhs: Complex) {
        *self = *self - rhs;
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex {
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Mul<Complex> for f64 {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        rhs.scale(self)
    }
}

impl Div for Complex {
    type Output = Complex;
    // Division via multiplication by the reciprocal is intentional.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.recip()
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::new(re, 0.0)
    }
}

impl std::iter::Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |a, b| a + b)
    }
}

impl std::fmt::Display for Complex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}j", self.re, self.im)
        } else {
            write!(f, "{}{}j", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Complex::new(1.5, -2.5);
        let b = Complex::new(-0.5, 4.0);
        let c = a + b - b;
        assert!(close(c.re, a.re) && close(c.im, a.im));
    }

    #[test]
    fn mul_matches_polar() {
        let a = Complex::from_polar(2.0, 0.3);
        let b = Complex::from_polar(3.0, 0.7);
        let c = a * b;
        assert!(close(c.abs(), 6.0));
        assert!(close(c.arg(), 1.0));
    }

    #[test]
    fn div_inverse_of_mul() {
        let a = Complex::new(3.0, 4.0);
        let b = Complex::new(-1.0, 2.0);
        let c = (a * b) / b;
        assert!(close(c.re, a.re) && close(c.im, a.im));
    }

    #[test]
    fn conj_negates_phase() {
        let a = Complex::from_polar(1.0, 0.4);
        assert!(close(a.conj().arg(), -0.4));
    }

    #[test]
    fn abs_and_norm_sq_consistent() {
        let a = Complex::new(3.0, 4.0);
        assert!(close(a.abs(), 5.0));
        assert!(close(a.norm_sq(), 25.0));
    }

    #[test]
    fn recip_times_self_is_one() {
        let a = Complex::new(0.3, -0.9);
        let p = a * a.recip();
        assert!(close(p.re, 1.0) && close(p.im, 0.0));
    }

    #[test]
    fn exp_of_j_pi_is_minus_one() {
        let e = Complex::new(0.0, PI).exp();
        assert!(close(e.re, -1.0));
        assert!(e.im.abs() < 1e-12);
    }

    #[test]
    fn from_polar_negative_angle() {
        let z = Complex::from_polar(2.0, -PI / 6.0);
        assert!(close(z.abs(), 2.0));
        assert!(close(z.arg(), -PI / 6.0));
    }

    #[test]
    fn sum_over_iterator() {
        let v = vec![Complex::ONE, Complex::I, Complex::new(1.0, 1.0)];
        let s: Complex = v.into_iter().sum();
        assert!(close(s.re, 2.0) && close(s.im, 2.0));
    }

    #[test]
    fn scalar_mul_commutes() {
        let a = Complex::new(1.0, -2.0);
        let l = 3.0 * a;
        let r = a * 3.0;
        assert_eq!(l, r);
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2j");
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+2j");
    }

    #[test]
    fn unit_roots_sum_to_zero() {
        // The N-th roots of unity sum to zero — a good exercise of polar
        // construction and accumulation accuracy.
        let n = 16;
        let s: Complex = (0..n)
            .map(|k| Complex::from_polar(1.0, 2.0 * PI * k as f64 / n as f64))
            .sum();
        assert!(s.abs() < 1e-12);
    }
}
