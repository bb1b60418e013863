//! SNR-driven Wi-Fi rate adaptation (§9 / Fig. 19).
//!
//! The paper stress-tests whether the tag's channel modulation hurts a
//! normal Wi-Fi transmitter–receiver pair and finds it does not: "Wi-Fi
//! uses rate adaptation and can easily adapt for the small variations in
//! the channel quality". We reproduce that with a standard SNR-threshold
//! MCS table plus hysteresis, and a saturation-throughput estimate that
//! accounts for MAC overheads.

/// One entry of the 802.11g/n (20 MHz, single stream) rate table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mcs {
    /// PHY rate, Mbps.
    pub rate_mbps: f64,
    /// Minimum SNR (dB) for ~90 % delivery at this rate.
    pub min_snr_db: f64,
}

/// The 802.11g OFDM rate set with standard SNR thresholds.
pub const RATE_TABLE: [Mcs; 8] = [
    Mcs {
        rate_mbps: 6.0,
        min_snr_db: 6.0,
    },
    Mcs {
        rate_mbps: 9.0,
        min_snr_db: 7.8,
    },
    Mcs {
        rate_mbps: 12.0,
        min_snr_db: 9.0,
    },
    Mcs {
        rate_mbps: 18.0,
        min_snr_db: 10.8,
    },
    Mcs {
        rate_mbps: 24.0,
        min_snr_db: 17.0,
    },
    Mcs {
        rate_mbps: 36.0,
        min_snr_db: 18.8,
    },
    Mcs {
        rate_mbps: 48.0,
        min_snr_db: 24.0,
    },
    Mcs {
        rate_mbps: 54.0,
        min_snr_db: 24.6,
    },
];

/// Picks the fastest MCS whose threshold the SNR clears (the slowest rate
/// if none do).
pub fn best_rate(snr_db: f64) -> Mcs {
    RATE_TABLE
        .iter()
        .rev()
        .find(|m| snr_db >= m.min_snr_db)
        .copied()
        .unwrap_or(RATE_TABLE[0])
}

/// MAC-efficiency model: the fraction of airtime that carries payload at a
/// given PHY rate for 1500-byte frames (DIFS + backoff + PHY overhead +
/// ACK amortised). Faster rates waste proportionally more on overhead.
pub fn mac_efficiency(rate_mbps: f64) -> f64 {
    let payload_us = 1500.0 * 8.0 / rate_mbps;
    let overhead_us = 28.0 + 67.5 + 20.0 + 44.0; // DIFS + mean backoff + PHY + ACK(+SIFS)
    payload_us / (payload_us + overhead_us)
}

/// Fraction of the expected packet cadence below which the reader treats
/// the helper as *collapsed* rather than merely bursty. The §5 margin
/// already absorbs ordinary DCF shortfall (delivered ≈ 0.4–1.0 × offered
/// under contention), so the trigger sits well below that band.
pub const CADENCE_COLLAPSE_FRACTION: f64 = 0.35;

/// True if the measured packet cadence has collapsed relative to the
/// cadence the §5 rate selection assumed.
pub fn cadence_collapsed(measured_pps: f64, expected_pps: f64) -> bool {
    expected_pps > 0.0 && measured_pps < CADENCE_COLLAPSE_FRACTION * expected_pps
}

/// The backscatter-side re-adaptation rule: when the measured helper
/// cadence (`measured_pps`) has collapsed below what the commanded chip
/// rate assumed, pick the fastest halving of `current_cps` that restores
/// at least `target_ppb` measurements per chip at the measured cadence.
/// Returns `None` when the cadence is healthy or no slower rate helps;
/// the floor is 25 chips/s (16× below the slowest §7.2 rate — past that
/// the session should fail loudly instead of crawling).
pub fn readapt_chip_rate(current_cps: u64, measured_pps: f64, target_ppb: f64) -> Option<u64> {
    let expected_pps = current_cps as f64 * target_ppb;
    if !cadence_collapsed(measured_pps, expected_pps) {
        return None;
    }
    let mut rate = current_cps;
    while rate > 25 && measured_pps / (rate as f64) < target_ppb {
        rate = (rate / 2).max(25);
    }
    (rate < current_cps).then_some(rate)
}

/// A rate adapter with hysteresis: the rate only moves up when the SNR
/// clears the next threshold by `up_margin_db`, and only moves down when it
/// falls `down_margin_db` below the current threshold. This is what absorbs
/// the tag's small channel perturbation.
#[derive(Debug, Clone, Copy)]
pub struct RateAdapter {
    idx: usize,
    up_margin_db: f64,
    down_margin_db: f64,
}

impl Default for RateAdapter {
    fn default() -> Self {
        RateAdapter {
            idx: 0,
            up_margin_db: 1.0,
            down_margin_db: 1.0,
        }
    }
}

impl RateAdapter {
    /// Creates an adapter starting at the lowest rate.
    pub fn new(up_margin_db: f64, down_margin_db: f64) -> Self {
        RateAdapter {
            idx: 0,
            up_margin_db,
            down_margin_db,
        }
    }

    /// Feeds one SNR observation; returns the rate now in use.
    pub fn observe(&mut self, snr_db: f64) -> Mcs {
        // Move up while the next rate's threshold is cleared with margin.
        while self.idx + 1 < RATE_TABLE.len()
            && snr_db >= RATE_TABLE[self.idx + 1].min_snr_db + self.up_margin_db
        {
            self.idx += 1;
        }
        // Move down while below the current rate's threshold with margin.
        while self.idx > 0 && snr_db < RATE_TABLE[self.idx].min_snr_db - self.down_margin_db {
            self.idx -= 1;
        }
        RATE_TABLE[self.idx]
    }

    /// The current rate without feeding a new observation.
    pub fn current(&self) -> Mcs {
        RATE_TABLE[self.idx]
    }

    /// Goodput (MB/s) at the current rate under saturation.
    pub fn goodput_mbytes(&self) -> f64 {
        let m = self.current();
        m.rate_mbps * mac_efficiency(m.rate_mbps) / 8.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_monotone() {
        for w in RATE_TABLE.windows(2) {
            assert!(w[0].rate_mbps < w[1].rate_mbps);
            assert!(w[0].min_snr_db < w[1].min_snr_db);
        }
    }

    #[test]
    fn best_rate_extremes() {
        assert_eq!(best_rate(-10.0).rate_mbps, 6.0);
        assert_eq!(best_rate(40.0).rate_mbps, 54.0);
        assert_eq!(best_rate(20.0).rate_mbps, 36.0);
    }

    #[test]
    fn mac_efficiency_decreases_with_rate() {
        assert!(mac_efficiency(6.0) > mac_efficiency(54.0));
        assert!(mac_efficiency(54.0) > 0.4 && mac_efficiency(54.0) < 0.8);
    }

    #[test]
    fn adapter_climbs_to_snr_appropriate_rate() {
        let mut a = RateAdapter::default();
        let r = a.observe(30.0);
        assert_eq!(r.rate_mbps, 54.0);
    }

    #[test]
    fn adapter_drops_on_poor_snr() {
        let mut a = RateAdapter::default();
        a.observe(30.0);
        // At 8 dB the adapter settles at 12 Mbps (threshold 9 dB) thanks to
        // the 1 dB down-hysteresis margin.
        let r = a.observe(8.0);
        assert!(r.rate_mbps <= 12.0, "rate {}", r.rate_mbps);
        // Without the hysteresis margin it would drop further.
        let mut strict = RateAdapter::new(0.0, 0.0);
        strict.observe(30.0);
        assert!(strict.observe(8.0).rate_mbps <= 9.0);
    }

    #[test]
    fn hysteresis_absorbs_small_fluctuation() {
        // ±0.6 dB wiggle (tag-scale perturbation) around a rate boundary
        // must not change the selected rate once the adapter has settled
        // (the 1 dB up + 1 dB down margins exceed the 1.2 dB peak-to-peak
        // wiggle).
        let mut a = RateAdapter::default();
        for i in 0..10 {
            let wiggle = if i % 2 == 0 { 0.6 } else { -0.6 };
            a.observe(24.8 + wiggle);
        }
        let settled = a.current().rate_mbps;
        for i in 0..100 {
            let wiggle = if i % 2 == 0 { 0.6 } else { -0.6 };
            let r = a.observe(24.8 + wiggle);
            assert_eq!(r.rate_mbps, settled, "rate flapped at i={i}");
        }
    }

    #[test]
    fn healthy_cadence_never_readapts() {
        // Delivered ≈ offered: nothing to do.
        assert_eq!(readapt_chip_rate(100, 1000.0, 10.0), None);
        // Ordinary DCF shortfall (43 % delivered) stays above the trigger.
        assert_eq!(readapt_chip_rate(1000, 2_600.0, 6.0), None);
    }

    #[test]
    fn collapsed_cadence_steps_down_until_ppb_restored() {
        // keep=0.25 collapse at 100 cps × 10 ppb: 250 pps delivered needs
        // 25 cps to see 10 packets per chip again.
        assert_eq!(readapt_chip_rate(100, 250.0, 10.0), Some(25));
        // A milder collapse stops as soon as the target ppb is restored.
        assert_eq!(readapt_chip_rate(1000, 2_000.0, 6.0), Some(250));
    }

    #[test]
    fn readapt_floors_at_25_cps() {
        let r = readapt_chip_rate(100, 1.0, 10.0);
        assert_eq!(r, Some(25));
    }

    #[test]
    fn without_hysteresis_rate_flaps() {
        let mut a = RateAdapter::new(0.0, 0.0);
        let mut rates = std::collections::HashSet::new();
        for i in 0..20 {
            let wiggle = if i % 2 == 0 { 0.6 } else { -0.6 };
            rates.insert(a.observe(24.3 + wiggle).rate_mbps as u64);
        }
        assert!(rates.len() > 1, "expected flapping without hysteresis");
    }
}
