//! Correlation against known ±1 sequences.
//!
//! The Wi-Fi reader uses correlation in three places:
//!
//! * detecting the tag's preamble and recovering bit timing (§3.2),
//! * ranking sub-channels by how well they carry the tag's signal
//!   (§3.2 step 2 — "pick the top ten good sub-channels"),
//! * the long-range decoder, which correlates the conditioned channel stream
//!   with two orthogonal L-bit codes and picks the larger (§3.4).

/// Dot product of a real signal window with a ±1 reference sequence.
///
/// # Panics
/// Panics if `window.len() != reference.len()`.
pub fn dot(window: &[f64], reference: &[i8]) -> f64 {
    assert_eq!(
        window.len(),
        reference.len(),
        "correlation window and reference must have equal length"
    );
    window
        .iter()
        .zip(reference)
        .map(|(&x, &r)| x * f64::from(r))
        .sum()
}

/// Normalised correlation in `[-1, 1]`: the cosine similarity between the
/// window and the ±1 reference. Returns 0 for a zero-energy window.
pub fn normalized(window: &[f64], reference: &[i8]) -> f64 {
    let energy: f64 = window.iter().map(|x| x * x).sum();
    if energy == 0.0 {
        return 0.0;
    }
    dot(window, reference) / (energy.sqrt() * (reference.len() as f64).sqrt())
}

/// Sliding (valid-mode) correlation of `signal` against `reference`:
/// output `i` is the dot product of `signal[i .. i+L]` with the reference.
/// Output length is `signal.len() - L + 1`; empty if the signal is shorter
/// than the reference.
pub fn sliding(signal: &[f64], reference: &[i8]) -> Vec<f64> {
    let l = reference.len();
    if signal.len() < l || l == 0 {
        return Vec::new();
    }
    (0..=signal.len() - l)
        .map(|i| dot(&signal[i..i + l], reference))
        .collect()
}

/// Index and value of the maximum of a slice; `None` if empty.
pub fn peak(xs: &[f64]) -> Option<(usize, f64)> {
    xs.iter()
        .enumerate()
        .fold(None, |best, (i, &v)| match best {
            Some((_, bv)) if bv >= v => best,
            _ => Some((i, v)),
        })
}

/// Result of searching a stream for a preamble.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreambleHit {
    /// Sample index where the preamble starts.
    pub start: usize,
    /// Normalised correlation value at the hit, in `[-1, 1]`.
    pub score: f64,
}

/// Finds the best-scoring window over the whole stream (used when the
/// approximate location is known and we want the exact alignment).
pub fn best_alignment(signal: &[f64], preamble: &[i8]) -> Option<PreambleHit> {
    let scores: Vec<f64> = {
        let l = preamble.len();
        if signal.len() < l || l == 0 {
            return None;
        }
        (0..=signal.len() - l)
            .map(|i| normalized(&signal[i..i + l], preamble))
            .collect()
    };
    peak(&scores).map(|(start, score)| PreambleHit { start, score })
}

#[cfg(test)]
mod tests {
    use super::*;

    const BARKER7: [i8; 7] = [1, 1, 1, -1, -1, 1, -1];

    fn as_f64(code: &[i8]) -> Vec<f64> {
        code.iter().map(|&c| f64::from(c)).collect()
    }

    #[test]
    fn dot_of_matching_code_is_length() {
        let sig = as_f64(&BARKER7);
        assert_eq!(dot(&sig, &BARKER7), 7.0);
    }

    #[test]
    fn dot_of_inverted_code_is_negative_length() {
        let sig: Vec<f64> = BARKER7.iter().map(|&c| -f64::from(c)).collect();
        assert_eq!(dot(&sig, &BARKER7), -7.0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0, 2.0], &BARKER7);
    }

    #[test]
    fn normalized_is_one_for_exact_match() {
        let sig = as_f64(&BARKER7);
        assert!((normalized(&sig, &BARKER7) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_is_scale_invariant() {
        let sig: Vec<f64> = BARKER7.iter().map(|&c| 17.0 * f64::from(c)).collect();
        assert!((normalized(&sig, &BARKER7) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_zero_energy_is_zero() {
        assert_eq!(normalized(&[0.0; 7], &BARKER7), 0.0);
    }

    #[test]
    fn sliding_finds_embedded_code() {
        let mut sig = vec![0.0; 20];
        for (i, &c) in BARKER7.iter().enumerate() {
            sig[9 + i] = f64::from(c);
        }
        let corr = sliding(&sig, &BARKER7);
        let (idx, val) = peak(&corr).unwrap();
        assert_eq!(idx, 9);
        assert_eq!(val, 7.0);
    }

    #[test]
    fn sliding_too_short_is_empty() {
        assert!(sliding(&[1.0, 2.0], &BARKER7).is_empty());
        assert!(sliding(&[], &BARKER7).is_empty());
    }

    #[test]
    fn barker_sidelobes_are_small() {
        // Autocorrelation sidelobes of a Barker code are bounded by 1 in
        // magnitude — the property the paper relies on for clean preamble
        // detection (§6).
        let sig = as_f64(&BARKER7);
        let mut padded = vec![0.0; 6];
        padded.extend_from_slice(&sig);
        padded.extend(vec![0.0; 6]);
        let corr = sliding(&padded, &BARKER7);
        for (i, &c) in corr.iter().enumerate() {
            if i == 6 {
                assert_eq!(c, 7.0);
            } else {
                assert!(c.abs() <= 1.0 + 1e-12, "sidelobe {c} at {i}");
            }
        }
    }

    #[test]
    fn peak_empty_is_none() {
        assert_eq!(peak(&[]), None);
    }

    #[test]
    fn peak_first_of_ties() {
        assert_eq!(peak(&[1.0, 3.0, 3.0]), Some((1, 3.0)));
    }

    #[test]
    fn find_preamble_locates_code_in_noise() {
        // Normalised correlation is scale-invariant, so short codes can tie
        // with lucky noise; a 13-chip Barker code makes a noise window that
        // outscores the true location vanishingly unlikely.
        use crate::codes::BARKER13;
        use crate::SimRng;
        let mut rng = SimRng::new(3).stream("corr-test");
        let mut sig: Vec<f64> = (0..200).map(|_| rng.gaussian(0.0, 0.2)).collect();
        for (i, &c) in BARKER13.iter().enumerate() {
            sig[100 + i] += f64::from(c);
        }
        let hit = best_alignment(&sig, &BARKER13).expect("preamble not found");
        assert_eq!(hit.start, 100);
        assert!(hit.score > 0.9);
    }

    #[test]
    fn find_preamble_none_in_pure_noise() {
        use crate::SimRng;
        let mut rng = SimRng::new(4).stream("corr-noise");
        let sig: Vec<f64> = (0..300).map(|_| rng.gaussian(0.0, 1.0)).collect();
        // A score of 0.97 on a length-7 code is nearly impossible to reach
        // by chance in 300 samples, so a detection threshold there finds
        // nothing.
        let best = best_alignment(&sig, &BARKER7).unwrap();
        assert!(best.score < 0.97, "noise scored {}", best.score);
    }

    #[test]
    fn best_alignment_beats_threshold_scan_on_offset() {
        // Normalised correlation is scale-invariant, so the decoy must be a
        // *partial* match (two chips corrupted), not merely a weaker copy.
        let mut sig = vec![0.0; 40];
        for (i, &c) in BARKER7.iter().enumerate() {
            let decoy = if i < 2 { -c } else { c };
            sig[5 + i] = f64::from(decoy);
            sig[20 + i] = f64::from(c); // real
        }
        let hit = best_alignment(&sig, &BARKER7).unwrap();
        assert_eq!(hit.start, 20);
    }

    #[test]
    fn best_alignment_short_signal_is_none() {
        assert!(best_alignment(&[1.0], &BARKER7).is_none());
    }
}
