//! Uplink transmit logic: the bit clock driving the RF switch.
//!
//! A hardware timer generates the bit clock (§6); each bit holds the switch
//! in one state for the whole bit duration, which is deliberately longer
//! than a Wi-Fi packet so the channel is stable within every packet (§3.1).
//! The modulator supports:
//!
//! * **plain mode** — one switch state per frame bit (§3.2's decoder), and
//! * **coded mode** — each frame bit expanded into an L-chip orthogonal
//!   code for the long-range correlation decoder (§3.4). The tag still
//!   only toggles a switch; the decoding burden is entirely on the reader,
//!   so tag power is unchanged.

use crate::frame::UplinkFrame;
use bs_channel::TagState;
use bs_dsp::codes::OrthogonalPair;

/// Uplink modulation mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UplinkMode {
    /// One switch state per bit.
    Plain,
    /// Each bit expanded to an orthogonal code of the given length.
    Coded(OrthogonalPair),
}

/// The tag's uplink modulator: maps time to switch state.
#[derive(Debug, Clone)]
pub struct Modulator {
    /// The on-air chip sequence (after any code expansion).
    chips: Vec<bool>,
    /// Duration of one chip (µs).
    chip_duration_us: u64,
    /// Time the transmission starts (µs).
    start_us: u64,
}

impl Modulator {
    /// Builds a modulator for one frame.
    ///
    /// `bit_rate_bps` is the *frame bit* rate commanded by the reader's
    /// query (§5); in coded mode each frame bit occupies `L` chips of equal
    /// total duration, so the chip clock runs `L×` faster.
    ///
    /// # Panics
    /// Panics if `bit_rate_bps` is zero.
    pub fn new(frame: &UplinkFrame, bit_rate_bps: u64, mode: UplinkMode, start_us: u64) -> Self {
        assert!(bit_rate_bps > 0, "bit rate must be positive");
        let bits = frame.to_bits();
        let bit_duration_us = 1_000_000 / bit_rate_bps;
        let (chips, chip_duration_us) = match mode {
            UplinkMode::Plain => (bits, bit_duration_us),
            UplinkMode::Coded(pair) => {
                let chips: Vec<bool> = bits
                    .iter()
                    .flat_map(|&b| pair.code_for(b).iter().map(|&c| c > 0).collect::<Vec<_>>())
                    .collect();
                let chip_us = (bit_duration_us / pair.len() as u64).max(1);
                (chips, chip_us)
            }
        };
        Modulator {
            chips,
            chip_duration_us,
            start_us,
        }
    }

    /// Builds a modulator from the *chip* (switch-toggle) rate directly.
    /// In plain mode chips are bits; in coded mode each frame bit occupies
    /// `L` chips, so the frame bit rate is `chip_rate_cps / L` — this is
    /// how §3.4 expands the bit duration by L without the switch toggling
    /// any faster than the network can support.
    pub fn from_chip_rate(
        frame: &UplinkFrame,
        chip_rate_cps: u64,
        mode: UplinkMode,
        start_us: u64,
    ) -> Self {
        assert!(chip_rate_cps > 0, "chip rate must be positive");
        let bits = frame.to_bits();
        let chip_duration_us = 1_000_000 / chip_rate_cps;
        let chips: Vec<bool> = match mode {
            UplinkMode::Plain => bits,
            UplinkMode::Coded(pair) => bits
                .iter()
                .flat_map(|&b| pair.code_for(b).iter().map(|&c| c > 0).collect::<Vec<_>>())
                .collect(),
        };
        Modulator {
            chips,
            chip_duration_us,
            start_us,
        }
    }

    /// The switch state at absolute time `t_us`. Outside the transmission
    /// the switch rests in [`TagState::Absorb`] ("the tag modulates the
    /// Wi-Fi channel only when queried by the reader", §3.1).
    pub fn state_at(&self, t_us: u64) -> TagState {
        if t_us < self.start_us {
            return TagState::Absorb;
        }
        let idx = ((t_us - self.start_us) / self.chip_duration_us) as usize;
        match self.chips.get(idx) {
            Some(&bit) => TagState::from_bit(bit),
            None => TagState::Absorb,
        }
    }

    /// The chip (code) sequence on the air.
    pub fn chips(&self) -> &[bool] {
        &self.chips
    }

    /// Duration of one chip, µs.
    pub fn chip_duration_us(&self) -> u64 {
        self.chip_duration_us
    }

    /// Transmission start, µs.
    pub fn start_us(&self) -> u64 {
        self.start_us
    }

    /// Transmission end, µs.
    pub fn end_us(&self) -> u64 {
        self.start_us + self.chips.len() as u64 * self.chip_duration_us
    }

    /// Switch transitions per second — each one costs the switch's ~sub-µW
    /// dynamic power; exposed for the energy model.
    pub fn transitions(&self) -> usize {
        self.chips.windows(2).filter(|w| w[0] != w[1]).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> UplinkFrame {
        UplinkFrame::new((0..16).map(|i| i % 2 == 0).collect())
    }

    #[test]
    fn plain_mode_one_chip_per_bit() {
        let f = frame();
        let m = Modulator::new(&f, 100, UplinkMode::Plain, 0);
        assert_eq!(m.chips().len(), f.to_bits().len());
        assert_eq!(m.chip_duration_us(), 10_000);
    }

    #[test]
    fn state_tracks_bits() {
        let f = frame();
        let m = Modulator::new(&f, 1000, UplinkMode::Plain, 500);
        let bits = f.to_bits();
        for (i, &b) in bits.iter().enumerate() {
            // Sample mid-bit.
            let t = 500 + i as u64 * 1000 + 500;
            assert_eq!(m.state_at(t), TagState::from_bit(b), "bit {i}");
        }
    }

    #[test]
    fn idle_outside_transmission() {
        let m = Modulator::new(&frame(), 1000, UplinkMode::Plain, 1000);
        assert_eq!(m.state_at(0), TagState::Absorb);
        assert_eq!(m.state_at(999), TagState::Absorb);
        assert_eq!(m.state_at(m.end_us() + 1), TagState::Absorb);
    }

    #[test]
    fn coded_mode_expands_by_l() {
        let f = frame();
        let pair = OrthogonalPair::new(20);
        let m = Modulator::new(&f, 10, UplinkMode::Coded(pair), 0);
        assert_eq!(m.chips().len(), f.to_bits().len() * 20);
        // Frame-bit duration preserved: 10 bps → 100 ms per bit → 5 ms chips.
        assert_eq!(m.chip_duration_us(), 5_000);
    }

    #[test]
    fn coded_chips_match_code_for_each_bit() {
        let f = UplinkFrame::new(vec![true, false]);
        let pair = OrthogonalPair::new(4);
        let m = Modulator::new(&f, 10, UplinkMode::Coded(pair.clone()), 0);
        let bits = f.to_bits();
        for (i, &b) in bits.iter().enumerate() {
            let code = pair.code_for(b);
            for (j, &c) in code.iter().enumerate() {
                assert_eq!(m.chips()[i * 4 + j], c > 0, "bit {i} chip {j}");
            }
        }
    }

    #[test]
    fn end_time_consistent() {
        let m = Modulator::new(&frame(), 100, UplinkMode::Plain, 2_000);
        let n = m.chips().len() as u64;
        assert_eq!(m.end_us(), 2_000 + n * 10_000);
    }

    #[test]
    fn transitions_counted() {
        let f = UplinkFrame::new(vec![true, true, false]);
        let m = Modulator::new(&f, 100, UplinkMode::Plain, 0);
        // Count directly from the chip stream.
        let expect = m.chips().windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(m.transitions(), expect);
        assert!(expect > 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        Modulator::new(&frame(), 0, UplinkMode::Plain, 0);
    }

    #[test]
    fn bit_duration_exceeds_wifi_packet() {
        // §3.1: the minimum modulation period exceeds a Wi-Fi packet
        // duration. At the paper's fastest rate (1 kbps) a bit lasts
        // 1000 µs ≫ a 242 µs full-length packet.
        let m = Modulator::new(&frame(), 1000, UplinkMode::Plain, 0);
        assert!(m.chip_duration_us() > 242);
    }
}
