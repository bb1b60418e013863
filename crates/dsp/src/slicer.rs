//! Bit slicing: hysteresis thresholding and majority voting.
//!
//! §3.2 step 3 of the paper: the combined channel value is sliced against
//! two thresholds `Thresh1 = µ + σ/2` and `Thresh0 = µ − σ/2` (hysteresis,
//! to reject the Intel card's spurious CSI jumps); each transmitted bit
//! spans several Wi-Fi packets, and the per-packet decisions are combined
//! with a simple majority vote.

use crate::stats::Running;

/// Per-sample decision from the hysteresis slicer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Sample was above `Thresh1` → evidence for a `1` bit.
    One,
    /// Sample was below `Thresh0` → evidence for a `0` bit.
    Zero,
    /// Sample fell between the thresholds → no evidence (ignored by the
    /// majority vote).
    Indeterminate,
}

/// A hysteresis slicer with thresholds `µ ± σ/2` computed from a reference
/// population of combined channel values (the paper computes µ and σ of
/// `CSI_weighted` "across packets").
///
/// ```
/// use bs_dsp::slicer::{Decision, HysteresisSlicer};
///
/// let slicer = HysteresisSlicer::from_stats(0.0, 1.0); // thresholds ±0.5
/// assert_eq!(slicer.decide(0.9), Decision::One);
/// assert_eq!(slicer.decide(-0.9), Decision::Zero);
/// assert_eq!(slicer.decide(0.2), Decision::Indeterminate);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct HysteresisSlicer {
    thresh1: f64,
    thresh0: f64,
}

impl HysteresisSlicer {
    /// Builds a slicer from the reference samples. With no samples the
    /// thresholds are both zero, degenerating to a sign slicer.
    ///
    /// ```
    /// use bs_dsp::slicer::HysteresisSlicer;
    ///
    /// // A ±1 population has µ=0, σ=1 → thresholds ±0.5.
    /// let samples = [1.0, -1.0, 1.0, -1.0];
    /// let slicer = HysteresisSlicer::from_samples(&samples);
    /// assert!((slicer.thresh1() - 0.5).abs() < 1e-12);
    /// assert!((slicer.thresh0() + 0.5).abs() < 1e-12);
    /// ```
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut r = Running::new();
        for &s in samples {
            r.push(s);
        }
        Self::from_stats(r.mean(), r.std_dev())
    }

    /// Builds a slicer directly from µ and σ.
    ///
    /// ```
    /// use bs_dsp::slicer::HysteresisSlicer;
    ///
    /// let slicer = HysteresisSlicer::from_stats(2.0, 4.0);
    /// assert_eq!(slicer.thresh1(), 4.0);
    /// assert_eq!(slicer.thresh0(), 0.0);
    /// ```
    pub fn from_stats(mean: f64, std_dev: f64) -> Self {
        HysteresisSlicer {
            thresh1: mean + std_dev / 2.0,
            thresh0: mean - std_dev / 2.0,
        }
    }

    /// The upper (one) threshold.
    pub fn thresh1(&self) -> f64 {
        self.thresh1
    }

    /// The lower (zero) threshold.
    pub fn thresh0(&self) -> f64 {
        self.thresh0
    }

    /// Classifies one combined channel value. Values **on** a threshold
    /// are indeterminate (strict inequalities).
    ///
    /// ```
    /// use bs_dsp::slicer::{Decision, HysteresisSlicer};
    ///
    /// let slicer = HysteresisSlicer::from_stats(0.0, 1.0);
    /// assert_eq!(slicer.decide(0.5), Decision::Indeterminate); // boundary
    /// ```
    pub fn decide(&self, x: f64) -> Decision {
        if x > self.thresh1 {
            Decision::One
        } else if x < self.thresh0 {
            Decision::Zero
        } else {
            Decision::Indeterminate
        }
    }
}

/// A simple sign slicer (threshold at zero) — the non-hysteresis variant
/// mentioned first in §3.2 step 3 ("if CSI_weighted is greater than zero,
/// the receiver outputs a '1'").
///
/// ```
/// use bs_dsp::slicer::{sign_decision, Decision};
///
/// assert_eq!(sign_decision(3.0), Decision::One);
/// assert_eq!(sign_decision(-3.0), Decision::Zero);
/// assert_eq!(sign_decision(0.0), Decision::Indeterminate);
/// ```
pub fn sign_decision(x: f64) -> Decision {
    if x > 0.0 {
        Decision::One
    } else if x < 0.0 {
        Decision::Zero
    } else {
        Decision::Indeterminate
    }
}

/// Majority vote over per-packet decisions for one bit interval.
///
/// Indeterminate decisions abstain. A tie (including the all-abstain case)
/// returns `None` — the caller counts it as an erasure/error; the paper's
/// conservative rate selection (§5) is designed to make this rare.
///
/// ```
/// use bs_dsp::slicer::{majority, Decision::*};
///
/// assert_eq!(majority(&[One, One, Zero]), Some(true));
/// assert_eq!(majority(&[One, Indeterminate, Zero]), None); // tie
/// ```
pub fn majority(decisions: &[Decision]) -> Option<bool> {
    let mut ones = 0usize;
    let mut zeros = 0usize;
    for d in decisions {
        match d {
            Decision::One => ones += 1,
            Decision::Zero => zeros += 1,
            Decision::Indeterminate => {}
        }
    }
    match ones.cmp(&zeros) {
        std::cmp::Ordering::Greater => Some(true),
        std::cmp::Ordering::Less => Some(false),
        std::cmp::Ordering::Equal => None,
    }
}

/// Convenience: slice every sample in a bit interval with the given slicer
/// and majority-vote the result.
///
/// ```
/// use bs_dsp::slicer::{vote_bit, HysteresisSlicer};
///
/// let slicer = HysteresisSlicer::from_stats(0.0, 1.0);
/// // A spurious +8.0 spike in a zero interval cannot flip the vote.
/// assert_eq!(vote_bit(&slicer, &[-1.0, -1.1, 8.0, -0.9]), Some(false));
/// ```
pub fn vote_bit(slicer: &HysteresisSlicer, samples: &[f64]) -> Option<bool> {
    let decisions: Vec<Decision> = samples.iter().map(|&x| slicer.decide(x)).collect();
    majority(&decisions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_are_mu_pm_half_sigma() {
        let s = HysteresisSlicer::from_stats(2.0, 4.0);
        assert_eq!(s.thresh1(), 4.0);
        assert_eq!(s.thresh0(), 0.0);
    }

    #[test]
    fn from_samples_matches_from_stats() {
        // ±1 population: µ=0, σ=1 → thresholds ±0.5.
        let samples: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let s = HysteresisSlicer::from_samples(&samples);
        assert!((s.thresh1() - 0.5).abs() < 1e-12);
        assert!((s.thresh0() + 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_samples_degenerate_to_sign_slicer() {
        let s = HysteresisSlicer::from_samples(&[]);
        assert_eq!(s.decide(0.1), Decision::One);
        assert_eq!(s.decide(-0.1), Decision::Zero);
        assert_eq!(s.decide(0.0), Decision::Indeterminate);
    }

    #[test]
    fn decide_classifies_three_zones() {
        let s = HysteresisSlicer::from_stats(0.0, 1.0);
        assert_eq!(s.decide(0.9), Decision::One);
        assert_eq!(s.decide(-0.9), Decision::Zero);
        assert_eq!(s.decide(0.2), Decision::Indeterminate);
        assert_eq!(s.decide(-0.2), Decision::Indeterminate);
        // Boundary values are indeterminate (strict inequalities).
        assert_eq!(s.decide(0.5), Decision::Indeterminate);
        assert_eq!(s.decide(-0.5), Decision::Indeterminate);
    }

    #[test]
    fn sign_decision_basics() {
        assert_eq!(sign_decision(3.0), Decision::One);
        assert_eq!(sign_decision(-3.0), Decision::Zero);
        assert_eq!(sign_decision(0.0), Decision::Indeterminate);
    }

    #[test]
    fn majority_counts_votes() {
        use Decision::*;
        assert_eq!(majority(&[One, One, Zero]), Some(true));
        assert_eq!(majority(&[Zero, Zero, One]), Some(false));
        assert_eq!(majority(&[One, Zero]), None);
        assert_eq!(majority(&[]), None);
    }

    #[test]
    fn majority_ignores_indeterminate() {
        use Decision::*;
        assert_eq!(majority(&[Indeterminate, Indeterminate, One]), Some(true));
        assert_eq!(majority(&[Indeterminate; 5]), None);
    }

    #[test]
    fn hysteresis_rejects_spurious_jump() {
        // A bit interval of strong "one" samples with a single huge spurious
        // positive spike in a "zero" interval: the hysteresis + majority
        // pipeline must not flip the zero bit.
        let s = HysteresisSlicer::from_stats(0.0, 1.0);
        let zero_interval = [-1.0, -1.1, 8.0, -0.9, -1.0]; // spike at idx 2
        assert_eq!(vote_bit(&s, &zero_interval), Some(false));
    }

    #[test]
    fn vote_bit_on_clean_intervals() {
        let s = HysteresisSlicer::from_stats(0.0, 1.0);
        assert_eq!(vote_bit(&s, &[1.0, 0.9, 1.2]), Some(true));
        assert_eq!(vote_bit(&s, &[-1.0, -0.9, -1.2]), Some(false));
        assert_eq!(vote_bit(&s, &[0.1, -0.1, 0.0]), None);
    }

    #[test]
    fn noisy_majority_beats_single_sample() {
        // With 30 noisy samples per bit, majority voting decodes reliably at
        // an SNR where single samples frequently err — the mechanism behind
        // the packets/bit sweep in Fig. 10.
        use crate::SimRng;
        let mut rng = SimRng::new(9).stream("vote");
        let slicer = HysteresisSlicer::from_stats(0.0, 1.0);
        let trials = 300;
        let mut single_errors = 0;
        let mut voted_errors = 0;
        for t in 0..trials {
            let bit = t % 2 == 0;
            let level = if bit { 1.0 } else { -1.0 };
            let samples: Vec<f64> = (0..30).map(|_| level + rng.gaussian(0.0, 1.5)).collect();
            if matches!(
                (slicer.decide(samples[0]), bit),
                (Decision::One, false) | (Decision::Zero, true)
            ) {
                single_errors += 1;
            }
            match vote_bit(&slicer, &samples) {
                Some(b) if b == bit => {}
                _ => voted_errors += 1,
            }
        }
        assert!(
            voted_errors < single_errors,
            "{voted_errors} vs {single_errors}"
        );
        assert!(voted_errors <= 3, "voted errors {voted_errors}");
    }
}
