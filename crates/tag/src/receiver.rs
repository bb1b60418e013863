//! The tag's downlink receiver: analog chain + MCU decode logic (§4.2).
//!
//! The analog chain (Fig. 8) is: envelope detector (modelled in
//! [`crate::envelope`]) → **peak finder** (diode + capacitor holding the
//! peak, slowly discharged by the set-threshold resistor network) →
//! **set-threshold** (half the held peak) → **comparator** (output 1 when
//! the envelope exceeds the threshold).
//!
//! The MCU sleeps almost always (§4.2):
//!
//! * **preamble-detection mode** — it wakes only on comparator output
//!   *transitions*, and matches the intervals between transitions against
//!   the known preamble's run-length signature;
//! * **packet-decoding mode** — after a preamble match it wakes briefly in
//!   the middle of each bit, samples the comparator (we integrate a short
//!   mid-bit window, the RC-limited equivalent), then fully wakes to run
//!   framing + CRC.

use crate::frame::{DownlinkFrame, DOWNLINK_PREAMBLE};
use bs_dsp::obs::Recorder;

/// Configuration of the analog receiver circuit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircuitConfig {
    /// Sample period of the envelope trace being processed (µs).
    pub sample_period_us: f64,
    /// Peak-hold discharge time constant (µs). "The resistor network …
    /// allows the charge on the capacitor to slowly dissipate, effectively
    /// resetting the peak detector over some relatively long time
    /// interval" (§4.2).
    pub decay_tau_us: f64,
    /// Peak-hold *charge* time constant (µs): the diode charges the hold
    /// capacitor through a finite source impedance, so the held value
    /// tracks the sustained envelope rather than latching individual OFDM
    /// PAPR spikes.
    pub attack_tau_us: f64,
    /// Threshold as a fraction of the held peak; the set-threshold circuit
    /// halves the peak (§4.2).
    pub threshold_fraction: f64,
    /// Comparator hysteresis as a fraction of the threshold: the output
    /// only rises above `thr·(1+h)` and only falls below `thr·(1−h)`,
    /// suppressing chatter when the envelope rides near the threshold.
    pub comparator_hysteresis: f64,
    /// Absolute threshold floor (mW): the comparator's input offset. Below
    /// this the chain simply does not respond — the "very low sensitivity"
    /// of a µW-budget receiver (§4.2) that bounds the downlink range.
    pub min_threshold_mw: f64,
}

impl Default for CircuitConfig {
    fn default() -> Self {
        CircuitConfig {
            sample_period_us: 1.0,
            decay_tau_us: 1_500.0,
            attack_tau_us: 30.0,
            threshold_fraction: 0.5,
            comparator_hysteresis: 0.15,
            min_threshold_mw: 3.0
                * bs_channel::pathloss::dbm_to_mw(bs_channel::calib::ENVELOPE_DETECTOR_NOISE_DBM),
        }
    }
}

/// The peak-finder + set-threshold + comparator chain.
#[derive(Debug, Clone)]
pub struct ReceiverCircuit {
    cfg: CircuitConfig,
    peak_mw: f64,
    decay_per_sample: f64,
    attack_alpha: f64,
    level: bool,
}

impl ReceiverCircuit {
    /// Creates the circuit with the held peak at zero and the comparator
    /// output low.
    pub fn new(cfg: CircuitConfig) -> Self {
        assert!(cfg.sample_period_us > 0.0 && cfg.decay_tau_us > 0.0 && cfg.attack_tau_us > 0.0);
        assert!((0.0..1.0).contains(&cfg.threshold_fraction) && cfg.threshold_fraction > 0.0);
        assert!((0.0..1.0).contains(&cfg.comparator_hysteresis));
        ReceiverCircuit {
            decay_per_sample: (-cfg.sample_period_us / cfg.decay_tau_us).exp(),
            attack_alpha: (cfg.sample_period_us / cfg.attack_tau_us).min(1.0),
            cfg,
            peak_mw: 0.0,
            level: false,
        }
    }

    /// Processes one envelope sample (mW); returns the comparator output.
    pub fn step(&mut self, envelope_mw: f64) -> bool {
        if envelope_mw > self.peak_mw {
            // Diode conducting: charge toward the envelope with the attack
            // time constant.
            self.peak_mw += self.attack_alpha * (envelope_mw - self.peak_mw);
        } else {
            // Diode off: the resistor network slowly discharges the hold
            // capacitor.
            self.peak_mw *= self.decay_per_sample;
        }
        let thr = (self.peak_mw * self.cfg.threshold_fraction).max(self.cfg.min_threshold_mw);
        let h = self.cfg.comparator_hysteresis;
        if self.level {
            if envelope_mw < thr * (1.0 - h) {
                self.level = false;
            }
        } else if envelope_mw > thr * (1.0 + h) {
            self.level = true;
        }
        self.level
    }

    /// Processes a whole envelope trace.
    pub fn run(&mut self, envelope_mw: &[f64]) -> Vec<bool> {
        envelope_mw.iter().map(|&p| self.step(p)).collect()
    }

    /// [`Self::run`] plus observability: emits a `tag.comparator` span over
    /// the trace (simulated µs, one item per envelope sample) and counts
    /// output transitions (`tag.comparator-transitions`) — each transition
    /// is an MCU edge wakeup in the §4.2 duty-cycling scheme. The
    /// comparator output is identical to [`Self::run`].
    pub fn run_with(&mut self, envelope_mw: &[f64], rec: &mut dyn Recorder) -> Vec<bool> {
        let out = self.run(envelope_mw);
        let mut transitions = 0u64;
        let mut level = false;
        for &c in &out {
            if c != level {
                transitions += 1;
                level = c;
            }
        }
        let end_us = (envelope_mw.len() as f64 * self.cfg.sample_period_us) as u64;
        rec.span("tag.comparator", 0, end_us, envelope_mw.len() as u64);
        rec.add("tag.comparator-transitions", transitions);
        out
    }

    /// The currently-held peak (mW).
    pub fn peak_mw(&self) -> f64 {
        self.peak_mw
    }

    /// The circuit configuration.
    pub fn config(&self) -> CircuitConfig {
        self.cfg
    }
}

/// The run-length signature of the downlink preamble: lengths (in bits) of
/// its alternating runs, starting with the leading run of ones.
fn preamble_run_lengths() -> Vec<u64> {
    let mut runs = Vec::new();
    let mut current = DOWNLINK_PREAMBLE[0];
    let mut len = 0u64;
    for &b in DOWNLINK_PREAMBLE.iter() {
        if b == current {
            len += 1;
        } else {
            runs.push(len);
            current = b;
            len = 1;
        }
    }
    runs.push(len);
    runs
}

/// A preamble match found in a comparator transition stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreambleMatch {
    /// Time (µs) of the preamble's first rising edge.
    pub start_us: u64,
}

/// Matches comparator transitions against the preamble's run-length
/// signature. Works on *transitions* only — this is what lets the MCU
/// sleep between edges (§4.2).
#[derive(Debug, Clone)]
pub struct PreambleMatcher {
    bit_us: f64,
    /// Relative tolerance on each run's duration.
    tolerance: f64,
    /// Recent transition history: (time µs, new level).
    history: Vec<(u64, bool)>,
    needed: usize,
    /// Number of MCU wakeups caused by transitions (energy accounting).
    pub wakeups: u64,
}

impl PreambleMatcher {
    /// Creates a matcher for the given downlink bit duration.
    ///
    /// The default run tolerance (0.38 bit) absorbs the comparator edge
    /// jitter caused by the peak-hold riding the fluctuating envelope,
    /// while staying below the 0.5-bit limit needed to tell 1-bit and
    /// 2-bit runs apart.
    pub fn new(bit_us: f64) -> Self {
        PreambleMatcher::with_tolerance(bit_us, 0.38)
    }

    /// Creates a matcher with an explicit run-duration tolerance (fraction
    /// of a bit).
    fn with_tolerance(bit_us: f64, tolerance: f64) -> Self {
        assert!(bit_us > 0.0);
        let needed = preamble_run_lengths().len() + 1;
        PreambleMatcher {
            bit_us,
            tolerance,
            history: Vec::with_capacity(needed),
            needed,
            wakeups: 0,
        }
    }

    /// Feeds one comparator transition; returns a match if the preamble's
    /// run signature just completed.
    ///
    /// All runs except the final one are checked against the signature;
    /// the final run's *starting* transition anchors the end of the
    /// preamble, so a match is reported on the transition that begins the
    /// run *after* the preamble's last run.
    fn on_transition(&mut self, t_us: u64, level: bool) -> Option<PreambleMatch> {
        self.wakeups += 1;
        self.history.push((t_us, level));
        if self.history.len() > self.needed {
            let excess = self.history.len() - self.needed;
            self.history.drain(..excess);
        }
        if self.history.len() < self.needed {
            return None;
        }
        let runs = preamble_run_lengths();
        // The first transition in history must be a rising edge (preamble
        // starts with ones).
        if !self.history[0].1 {
            return None;
        }
        for (i, &expect_bits) in runs.iter().enumerate() {
            let run_us = (self.history[i + 1].0 - self.history[i].0) as f64;
            let expect_us = expect_bits as f64 * self.bit_us;
            if (run_us - expect_us).abs() > self.tolerance * self.bit_us * expect_bits as f64 {
                return None;
            }
        }
        Some(PreambleMatch {
            start_us: self.history[0].0,
        })
    }

    /// Resets the transition history (e.g. after entering decode mode).
    pub fn reset(&mut self) {
        self.history.clear();
    }
}

/// Extracts `(time µs, level)` transitions from a comparator output stream
/// sampled at `sample_period_us`, assuming the stream starts low.
pub fn transitions(comparator: &[bool], sample_period_us: f64) -> Vec<(u64, bool)> {
    let mut out = Vec::new();
    let mut level = false;
    for (i, &c) in comparator.iter().enumerate() {
        if c != level {
            out.push(((i as f64 * sample_period_us) as u64, c));
            level = c;
        }
    }
    out
}

/// Debounces a transition list: any run shorter than `min_run_us` is
/// absorbed into its neighbours. The MCU's edge-interrupt handler does the
/// equivalent by ignoring edges that arrive implausibly soon after the
/// previous one — a legitimate run is never shorter than one bit.
pub fn debounce_transitions(trans: &[(u64, bool)], min_run_us: u64) -> Vec<(u64, bool)> {
    let mut current = trans.to_vec();
    loop {
        let mut out: Vec<(u64, bool)> = Vec::with_capacity(current.len());
        let mut changed = false;
        let mut i = 0;
        while i < current.len() {
            let (t, level) = current[i];
            let run_end = current.get(i + 1).map(|&(e, _)| e);
            let is_short = matches!(run_end, Some(e) if e - t < min_run_us);
            if is_short && !out.is_empty() {
                // Absorb this short run: the previous level simply
                // continues through it, so drop this transition and the
                // next (which would have restored the previous level).
                i += 2;
                changed = true;
                continue;
            }
            match out.last() {
                // After an absorption the next transition may repeat the
                // current level; keep only the first.
                Some(&(_, l)) if l == level => {}
                _ => out.push((t, level)),
            }
            i += 1;
        }
        if !changed {
            return out;
        }
        current = out;
    }
}

/// Statistics from a decode attempt (for energy accounting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// MCU wakeups in preamble-detection mode (one per comparator edge).
    pub edge_wakeups: u64,
    /// Mid-bit sample wakeups in packet-decoding mode.
    pub sample_wakeups: u64,
    /// Frames whose CRC verified.
    pub frames_ok: u64,
    /// Frames that failed framing or CRC.
    pub frames_bad: u64,
}

impl DecodeStats {
    /// Emits the stats as counters into `rec` (`tag.edge-wakeups`,
    /// `tag.sample-wakeups`, `tag.frames-ok`, `tag.frames-bad`).
    pub fn record(&self, rec: &mut dyn Recorder) {
        rec.add("tag.edge-wakeups", self.edge_wakeups);
        rec.add("tag.sample-wakeups", self.sample_wakeups);
        rec.add("tag.frames-ok", self.frames_ok);
        rec.add("tag.frames-bad", self.frames_bad);
    }
}

/// The MCU-side downlink decoder: preamble search + mid-bit slicing +
/// framing.
#[derive(Debug, Clone)]
pub struct DownlinkDecoder {
    bit_us: f64,
    sample_period_us: f64,
    matcher: PreambleMatcher,
    /// Decode statistics.
    pub stats: DecodeStats,
}

impl DownlinkDecoder {
    /// Creates a decoder for the given bit duration and envelope sample
    /// period.
    pub fn new(bit_us: f64, sample_period_us: f64) -> Self {
        DownlinkDecoder {
            bit_us,
            sample_period_us,
            matcher: PreambleMatcher::new(bit_us),
            stats: DecodeStats::default(),
        }
    }

    /// Slices `n_bits` bits from the comparator stream starting at
    /// `start_us`, integrating a mid-bit window (the middle half of each
    /// bit) by majority. Used directly by the BER evaluation (Fig. 17) and
    /// by frame decoding.
    pub fn slice_bits(&mut self, comparator: &[bool], start_us: f64, n_bits: usize) -> Vec<bool> {
        let spb = self.bit_us / self.sample_period_us; // samples per bit
        let mut bits = Vec::with_capacity(n_bits);
        for b in 0..n_bits {
            let bit_start = start_us / self.sample_period_us + b as f64 * spb;
            let lo = (bit_start + 0.25 * spb) as usize;
            let hi = ((bit_start + 0.75 * spb) as usize).min(comparator.len());
            let mut ones = 0usize;
            let mut total = 0usize;
            for &c in comparator.get(lo..hi).unwrap_or(&[]) {
                total += 1;
                if c {
                    ones += 1;
                }
            }
            self.stats.sample_wakeups += 1;
            bits.push(total > 0 && ones * 2 > total);
        }
        bits
    }

    /// Runs the full receive pipeline over a comparator stream: searches
    /// for preambles, decodes the frame body after each match, verifies
    /// framing + CRC. Returns the frames that verified.
    ///
    /// `max_payload_hint` bounds how many body bits are sliced per match
    /// (the MCU knows the maximum query size).
    pub fn decode_stream(
        &mut self,
        comparator: &[bool],
        max_payload_hint: usize,
    ) -> Vec<DownlinkFrame> {
        let mut frames = Vec::new();
        let trans = debounce_transitions(
            &transitions(comparator, self.sample_period_us),
            (self.bit_us / 4.0) as u64,
        );
        self.matcher.reset();
        let mut skip_until_us = 0u64;
        for &(t, level) in &trans {
            if t < skip_until_us {
                continue;
            }
            if let Some(m) = self.matcher.on_transition(t, level) {
                let body_start = m.start_us as f64 + DOWNLINK_PREAMBLE.len() as f64 * self.bit_us;
                let body_bits = 8 + max_payload_hint * 8 + 8;
                let bits = self.slice_bits(comparator, body_start, body_bits);
                match DownlinkFrame::from_body_bits(&bits) {
                    Ok(f) => {
                        self.stats.frames_ok += 1;
                        // Skip past this frame before searching again.
                        let frame_bits = DownlinkFrame::on_air_len(f.payload.len()) as f64;
                        skip_until_us = (m.start_us as f64 + frame_bits * self.bit_us) as u64;
                        self.matcher.reset();
                        frames.push(f);
                    }
                    Err(_) => {
                        self.stats.frames_bad += 1;
                    }
                }
            }
        }
        self.stats.edge_wakeups += self.matcher.wakeups;
        frames
    }

    /// Counts preamble matches in a transition list *without* requiring a
    /// valid frame body — Fig. 18's false-positive metric (every match
    /// wakes the MCU), event-driven for hours-long ambient traffic.
    pub fn count_preamble_matches_in_transitions(&mut self, transitions: &[(u64, bool)]) -> u64 {
        self.matcher.reset();
        let mut matches = 0;
        for &(t, level) in transitions {
            if self.matcher.on_transition(t, level).is_some() {
                matches += 1;
                self.matcher.reset();
            }
        }
        self.stats.edge_wakeups += self.matcher.wakeups;
        matches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{bit_schedule, EnvelopeConfig, EnvelopeModel};
    use bs_dsp::SimRng;

    /// Builds a comparator stream carrying the given bits at high SNR.
    fn comparator_for_bits(bits: &[bool], bit_samples: usize, snr: f64, seed: u64) -> Vec<bool> {
        let cfg = EnvelopeConfig::default();
        let mut env = EnvelopeModel::new(cfg, SimRng::new(seed).stream("rx-test"));
        let sig = cfg.noise_mw * snr;
        let schedule = bit_schedule(bits, bit_samples, sig);
        let n = bits.len() * bit_samples + 200;
        let trace = env.trace(n, schedule);
        let mut circuit = ReceiverCircuit::new(CircuitConfig::default());
        circuit.run(&trace)
    }

    #[test]
    fn circuit_tracks_and_decays_peak() {
        let mut c = ReceiverCircuit::new(CircuitConfig::default());
        // Sustained level charges the hold capacitor to the envelope.
        for _ in 0..200 {
            c.step(10.0);
        }
        assert!((c.peak_mw() - 10.0).abs() < 0.1, "peak {}", c.peak_mw());
        let charged = c.peak_mw();
        // After one decay time constant the held peak droops to ~1/e.
        let tau = CircuitConfig::default().decay_tau_us as usize;
        for _ in 0..tau {
            c.step(0.0);
        }
        assert!((c.peak_mw() - charged / std::f64::consts::E).abs() < 0.1);
    }

    #[test]
    fn attack_limit_ignores_single_spike() {
        // One enormous PAPR spike must not poison the threshold.
        let mut c = ReceiverCircuit::new(CircuitConfig::default());
        for _ in 0..100 {
            c.step(1.0);
        }
        c.step(50.0); // spike
        assert!(c.peak_mw() < 5.0, "peak latched the spike: {}", c.peak_mw());
    }

    #[test]
    fn comparator_follows_strong_signal() {
        let bits = [true, false, true, true, false];
        let comp = comparator_for_bits(&bits, 50, 100.0, 1);
        // Mid-bit samples follow the bits.
        for (i, &b) in bits.iter().enumerate() {
            let mid = i * 50 + 25;
            assert_eq!(comp[mid], b, "bit {i}");
        }
    }

    #[test]
    fn preamble_run_lengths_sum_to_16() {
        let runs = preamble_run_lengths();
        assert_eq!(runs.iter().sum::<u64>(), 16);
        assert_eq!(runs[0], 5); // five leading ones
    }

    #[test]
    fn matcher_finds_clean_preamble() {
        // Build transitions for preamble + one trailing 0-run + rising edge.
        let bit_us = 50.0;
        let runs = preamble_run_lengths();
        let mut matcher = PreambleMatcher::new(bit_us);
        let mut t = 1000u64;
        let mut level = true;
        let mut hit = None;
        for &r in &runs {
            if let Some(m) = matcher.on_transition(t, level) {
                hit = Some(m);
            }
            t += (r as f64 * bit_us) as u64;
            level = !level;
        }
        // Transition that begins whatever follows the preamble:
        if let Some(m) = matcher.on_transition(t, level) {
            hit = Some(m);
        }
        let m = hit.expect("preamble not matched");
        assert_eq!(m.start_us, 1000);
    }

    #[test]
    fn matcher_rejects_wrong_run_lengths() {
        let bit_us = 50.0;
        let mut matcher = PreambleMatcher::new(bit_us);
        // Uniform alternation (all runs length 1) never matches the
        // 5-1-2-… signature.
        let mut level = true;
        for i in 0..100 {
            let m = matcher.on_transition(1000 + i * 50, level);
            assert!(m.is_none(), "false match at {i}");
            level = !level;
        }
    }

    #[test]
    fn slice_bits_recovers_pattern() {
        let bits: Vec<bool> = (0..24).map(|i| (i * 7) % 3 == 0).collect();
        let comp = comparator_for_bits(&bits, 50, 100.0, 2);
        let mut dec = DownlinkDecoder::new(50.0, 1.0);
        let out = dec.slice_bits(&comp, 0.0, bits.len());
        assert_eq!(out, bits);
        assert_eq!(dec.stats.sample_wakeups, 24);
    }

    #[test]
    fn decode_stream_recovers_frame() {
        let frame = DownlinkFrame::new(vec![0xAB, 0xCD, 0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC]);
        let mut bits = vec![false; 10]; // leading silence
        bits.extend(frame.to_bits());
        bits.extend(vec![false; 10]);
        let comp = comparator_for_bits(&bits, 50, 100.0, 3);
        let mut dec = DownlinkDecoder::new(50.0, 1.0);
        let frames = dec.decode_stream(&comp, 8);
        assert_eq!(frames, vec![frame]);
        assert_eq!(dec.stats.frames_ok, 1);
    }

    #[test]
    fn decode_stream_rejects_corrupted_crc_at_low_snr() {
        // At very low SNR the body bits get mangled; the decoder must not
        // return garbage frames.
        let frame = DownlinkFrame::new(vec![1, 2, 3, 4, 5, 6, 7, 8]);
        let mut bits = vec![false; 10];
        bits.extend(frame.to_bits());
        bits.extend(vec![false; 10]);
        let comp = comparator_for_bits(&bits, 50, 1.2, 4);
        let mut dec = DownlinkDecoder::new(50.0, 1.0);
        let frames = dec.decode_stream(&comp, 8);
        for f in &frames {
            assert_eq!(f, &frame, "CRC passed but payload differs");
        }
    }

    #[test]
    fn count_matches_on_random_traffic_is_low() {
        // Random packet lengths/gaps rarely line up with the preamble
        // signature.
        let mut rng = SimRng::new(5).stream("fp");
        let mut trans = Vec::new();
        let mut t = 0u64;
        let mut level = false;
        for _ in 0..20_000 {
            t += rng.index(400) as u64 + 20;
            level = !level;
            trans.push((t, level));
        }
        let mut dec = DownlinkDecoder::new(50.0, 1.0);
        let fp = dec.count_preamble_matches_in_transitions(&trans);
        // 20k random transitions: a handful of accidental matches at most.
        assert!(fp < 40, "false positives {fp}");
    }

    #[test]
    fn transitions_extraction() {
        let comp = [false, false, true, true, false, true];
        let t = transitions(&comp, 2.0);
        assert_eq!(t, vec![(4, true), (8, false), (10, true)]);
    }

    #[test]
    fn debounce_removes_chatter_pulse() {
        // A long high run interrupted by two 2 µs low glitches.
        let trans = vec![
            (100, true),
            (150, false),
            (152, true),
            (180, false),
            (182, true),
            (250, false),
        ];
        let out = debounce_transitions(&trans, 10);
        assert_eq!(out, vec![(100, true), (250, false)]);
    }

    #[test]
    fn debounce_keeps_legitimate_runs() {
        let trans = vec![(100, true), (150, false), (200, true), (300, false)];
        assert_eq!(debounce_transitions(&trans, 10), trans);
    }

    #[test]
    fn debounce_cascades() {
        // Chatter burst: several sub-threshold runs in a row collapse into
        // one clean edge pair.
        let trans = vec![
            (0, true),
            (50, false),
            (53, true),
            (55, false),
            (58, true),
            (61, false),
            (64, true),
            (120, false),
        ];
        let out = debounce_transitions(&trans, 10);
        assert_eq!(out, vec![(0, true), (120, false)]);
    }

    #[test]
    fn debounce_empty_and_single() {
        assert!(debounce_transitions(&[], 10).is_empty());
        assert_eq!(debounce_transitions(&[(5, true)], 10), vec![(5, true)]);
    }

    #[test]
    fn longer_bits_decode_at_lower_snr() {
        // The mechanism behind Fig. 17's rate ordering: at an SNR where
        // 50 µs bits start failing, 200 µs bits still decode.
        let bits: Vec<bool> = (0..60).map(|i| (i * 11) % 5 < 2).collect();
        let ber_at = |bit_samples: usize, snr: f64| -> f64 {
            let mut errors = 0usize;
            let trials: usize = 10;
            for s in 0..trials as u64 {
                let comp = comparator_for_bits(&bits, bit_samples, snr, 100 + s);
                let mut dec = DownlinkDecoder::new(bit_samples as f64, 1.0);
                let out = dec.slice_bits(&comp, 0.0, bits.len());
                errors += out.iter().zip(&bits).filter(|(a, b)| a != b).count();
            }
            errors as f64 / (trials * bits.len()) as f64
        };
        let snr = 2.5;
        let short = ber_at(50, snr);
        let long = ber_at(200, snr);
        assert!(
            long < short || (long == 0.0 && short == 0.0),
            "long {long} short {short}"
        );
    }

    #[test]
    #[should_panic]
    fn bad_circuit_config_panics() {
        ReceiverCircuit::new(CircuitConfig {
            threshold_fraction: 0.0,
            ..Default::default()
        });
    }
}
