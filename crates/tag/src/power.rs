//! The prototype's measured power budget (§6) and energy accounting.
//!
//! The paper measures: transmit circuit 0.65 µW, receive circuit 9.0 µW,
//! RF switch < 1 µW, and an MSP430 MCU that needs "several hundred µW" in
//! active mode — which is exactly why the firmware keeps it asleep except
//! on comparator edges and mid-bit samples (§4.2).

/// Transmit (backscatter switch drive) circuit power, µW (§6).
pub const TX_CIRCUIT_UW: f64 = 0.65;

/// Receive (envelope detection) circuit power, µW (§6).
pub const RX_CIRCUIT_UW: f64 = 9.0;

/// MCU active-mode power, µW (MSP430 class at ~1 MHz).
pub const MCU_ACTIVE_UW: f64 = 600.0;

/// MCU sleep-mode power, µW (LPM3 with timer).
pub const MCU_SLEEP_UW: f64 = 1.0;

/// Energy cost of one MCU wakeup (transition service), µJ. MSP430-class
/// parts wake from LPM3 in ~1 µs; servicing an edge interrupt costs a few
/// µs of active time.
pub const WAKEUP_COST_UJ: f64 = 0.002;

/// Time the MCU stays awake to take one mid-bit sample, µs.
pub const SAMPLE_AWAKE_US: f64 = 10.0;

/// Active time implied by one edge wakeup, µs — the span over which
/// [`WAKEUP_COST_UJ`] is dissipated at MCU active power.
pub const WAKEUP_AWAKE_US: f64 = WAKEUP_COST_UJ / MCU_ACTIVE_UW * 1e6;

/// An energy ledger accumulating the tag's consumption, in µJ.
///
/// Time is tracked on two rails — the analog circuits and the MCU — that
/// run *concurrently* over the same wall clock (the rx chain listens
/// while the MCU sleeps between samples). `elapsed_us()` is therefore the
/// **maximum** of the two rails, not their sum: summing would double-count
/// the span and understate mean power, while the old behaviour (only
/// `analog()` advanced time) overstated it for any mixed workload.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyLedger {
    total_uj: f64,
    analog_us: f64,
    mcu_us: f64,
}

impl EnergyLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        EnergyLedger::default()
    }

    /// Accounts for the always-on analog circuits over a wall-clock span.
    pub fn analog(&mut self, duration_us: f64, rx_on: bool, tx_on: bool) {
        let mut uw = 0.0;
        if rx_on {
            uw += RX_CIRCUIT_UW;
        }
        if tx_on {
            uw += TX_CIRCUIT_UW;
        }
        self.total_uj += uw * duration_us / 1e6;
        self.analog_us += duration_us;
    }

    /// Accounts for MCU sleep over a span.
    pub fn mcu_sleep(&mut self, duration_us: f64) {
        self.total_uj += MCU_SLEEP_UW * duration_us / 1e6;
        self.mcu_us += duration_us;
    }

    /// Accounts for MCU active time.
    pub fn mcu_active(&mut self, duration_us: f64) {
        self.total_uj += MCU_ACTIVE_UW * duration_us / 1e6;
        self.mcu_us += duration_us;
    }

    /// Accounts for `n` edge wakeups ([`WAKEUP_AWAKE_US`] of active time
    /// each).
    pub fn wakeups(&mut self, n: u64) {
        self.total_uj += n as f64 * WAKEUP_COST_UJ;
        self.mcu_us += n as f64 * WAKEUP_AWAKE_US;
    }

    /// Accounts for `n` mid-bit samples (wakeup + brief active window).
    pub fn samples(&mut self, n: u64) {
        self.total_uj += n as f64 * (WAKEUP_COST_UJ + MCU_ACTIVE_UW * SAMPLE_AWAKE_US / 1e6);
        self.mcu_us += n as f64 * (WAKEUP_AWAKE_US + SAMPLE_AWAKE_US);
    }

    /// Total consumed energy, µJ.
    pub fn total_uj(&self) -> f64 {
        self.total_uj
    }

    /// Wall-clock span the ledger covers, µs — the longer of the analog
    /// and MCU rails, since the two subsystems run concurrently.
    pub fn elapsed_us(&self) -> f64 {
        self.analog_us.max(self.mcu_us)
    }

    /// Mean power over the accounted elapsed time, µW. Returns 0 if no
    /// time has been accounted.
    fn mean_uw(&self) -> f64 {
        let elapsed = self.elapsed_us();
        if elapsed == 0.0 {
            0.0
        } else {
            self.total_uj / (elapsed / 1e6)
        }
    }

    /// Emits the ledger as gauges into `rec` (`tag.energy-uj`,
    /// `tag.mean-uw`).
    pub fn record(&self, rec: &mut dyn bs_dsp::obs::Recorder) {
        rec.gauge("tag.energy-uj", self.total_uj());
        rec.gauge("tag.mean-uw", self.mean_uw());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)] // pinning paper-derived constants is the point
    fn paper_budget_values() {
        assert_eq!(TX_CIRCUIT_UW, 0.65);
        assert_eq!(RX_CIRCUIT_UW, 9.0);
        assert!(MCU_ACTIVE_UW >= 100.0, "MCU needs 'several hundred µW'");
    }

    #[test]
    fn analog_accounting() {
        let mut l = EnergyLedger::new();
        l.analog(1e6, true, true); // 1 s of rx+tx
        assert!((l.total_uj() - (RX_CIRCUIT_UW + TX_CIRCUIT_UW)).abs() < 1e-9);
        assert!((l.mean_uw() - 9.65).abs() < 1e-9);
    }

    #[test]
    fn sleeping_mcu_is_cheap() {
        let mut asleep = EnergyLedger::new();
        asleep.mcu_sleep(1e6);
        let mut awake = EnergyLedger::new();
        awake.mcu_active(1e6);
        assert!(awake.total_uj() > 100.0 * asleep.total_uj());
    }

    #[test]
    fn duty_cycled_sampling_beats_continuous() {
        // Decoding a 96-bit frame at 50 µs/bit (4.8 ms): sampling mid-bit
        // must cost far less than staying awake the whole frame.
        let mut sampled = EnergyLedger::new();
        sampled.samples(96);
        sampled.mcu_sleep(4800.0);
        let mut continuous = EnergyLedger::new();
        continuous.mcu_active(4800.0);
        assert!(
            sampled.total_uj() < 0.5 * continuous.total_uj(),
            "sampled {} vs continuous {}",
            sampled.total_uj(),
            continuous.total_uj()
        );
    }

    #[test]
    fn empty_ledger_zero() {
        let l = EnergyLedger::new();
        assert_eq!(l.total_uj(), 0.0);
        assert_eq!(l.elapsed_us(), 0.0);
        assert_eq!(l.mean_uw(), 0.0);
    }

    #[test]
    fn mean_power_duty_cycled_frame_decode() {
        // Regression for the mean-power bug: MCU spends (wakeups, samples,
        // sleep) used to contribute µJ without advancing time, so any
        // workload whose MCU rail outlasts the analog rail looked far
        // hotter than it is. Model a duty-cycled poll: the rx chain is on
        // only during a 96-bit frame at 50 µs/bit (4.8 ms), one mid-bit
        // sample per bit, then the MCU sleeps out the rest of a 100 ms
        // poll interval with the radio off.
        let frame_us = 96.0 * 50.0;
        let interval_us = 100_000.0;
        let active_mcu_us = 96.0 * (WAKEUP_AWAKE_US + SAMPLE_AWAKE_US);
        let mut l = EnergyLedger::new();
        l.analog(frame_us, true, false);
        l.samples(96);
        l.mcu_sleep(interval_us - active_mcu_us);

        // The MCU rail spans the whole interval; elapsed follows it.
        assert!((l.elapsed_us() - interval_us).abs() < 1e-9);
        let expected_uj = RX_CIRCUIT_UW * frame_us / 1e6
            + 96.0 * (WAKEUP_COST_UJ + MCU_ACTIVE_UW * SAMPLE_AWAKE_US / 1e6)
            + MCU_SLEEP_UW * (interval_us - active_mcu_us) / 1e6;
        let expected_uw = expected_uj / (interval_us / 1e6);
        assert!(
            (l.mean_uw() - expected_uw).abs() < 1e-9,
            "mean {} vs expected {expected_uw}",
            l.mean_uw()
        );
        // Pin the magnitude: ~9 µW averaged over the poll interval — the
        // time-less accounting divided by the 4.8 ms analog span alone and
        // reported ~190 µW for this same workload.
        assert!(
            (8.0..10.0).contains(&l.mean_uw()),
            "mean {} µW",
            l.mean_uw()
        );
    }

    #[test]
    fn mcu_only_workload_has_finite_mean() {
        // Before the fix, a workload with no analog() call divided by zero
        // time (reported 0). Sleep-only and sample-only ledgers must now
        // report sensible means.
        let mut l = EnergyLedger::new();
        l.mcu_sleep(1e6);
        assert!((l.mean_uw() - MCU_SLEEP_UW).abs() < 1e-9);

        let mut s = EnergyLedger::new();
        s.samples(10);
        assert!(s.elapsed_us() > 0.0);
        assert!(s.mean_uw() > MCU_SLEEP_UW);
        assert!(s.mean_uw() <= MCU_ACTIVE_UW + 1e-9);
    }

    #[test]
    fn concurrent_rails_take_max_not_sum() {
        // 1 s of rx and 1 s of MCU sleep describe the same second, not
        // two; the mean must be rx + sleep power, not half of it.
        let mut l = EnergyLedger::new();
        l.analog(1e6, true, false);
        l.mcu_sleep(1e6);
        assert!((l.elapsed_us() - 1e6).abs() < 1e-9);
        assert!((l.mean_uw() - (RX_CIRCUIT_UW + MCU_SLEEP_UW)).abs() < 1e-9);
    }
}
