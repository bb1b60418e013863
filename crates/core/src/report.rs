//! A single lens over every kind of run result.
//!
//! [`UplinkRun`], [`DownlinkRun`] and [`QueryOutcome`] grew independently
//! and expose their accounting in three shapes. [`RunReport`] is the
//! common denominator the bench harness and downstream tooling read: how
//! many bits, how many errors, and what degraded. A stage profile is not
//! part of the result: pass a [`MemRecorder`](bs_dsp::obs::MemRecorder)
//! to the run's `_with` entry point and keep its `into_report()`.

use crate::link::{DegradationReport, DownlinkRun, UplinkRun};
use crate::session::QueryOutcome;

/// Common read-only view of a completed run.
pub trait RunReport {
    /// Payload bits the run accounted (transmitted and compared).
    fn bits(&self) -> u64;

    /// Bit errors (erasures included where the run counts them).
    fn bit_errors(&self) -> u64;

    /// Faults fired and mitigations engaged during the run.
    fn degradation(&self) -> &DegradationReport;

    /// Bit error rate; 0 when no bits were accounted.
    fn ber(&self) -> f64 {
        let bits = self.bits();
        if bits == 0 {
            0.0
        } else {
            self.bit_errors() as f64 / bits as f64
        }
    }

    /// True if every bit came through clean and nothing degraded.
    fn is_clean(&self) -> bool {
        self.bit_errors() == 0 && self.degradation().is_clean()
    }
}

impl RunReport for UplinkRun {
    fn bits(&self) -> u64 {
        self.ber.bits()
    }

    fn bit_errors(&self) -> u64 {
        self.ber.errors()
    }

    fn degradation(&self) -> &DegradationReport {
        &self.degradation
    }
}

impl RunReport for DownlinkRun {
    fn bits(&self) -> u64 {
        self.ber.bits()
    }

    fn bit_errors(&self) -> u64 {
        self.ber.errors()
    }

    fn degradation(&self) -> &DegradationReport {
        &self.degradation
    }
}

impl RunReport for QueryOutcome {
    fn bits(&self) -> u64 {
        self.payload.len() as u64
    }

    /// A [`QueryOutcome`] only exists for a perfectly-decoded response
    /// (garbled sessions surface [`crate::error::SessionError`] instead),
    /// so its error count is zero by construction.
    fn bit_errors(&self) -> u64 {
        0
    }

    fn degradation(&self) -> &DegradationReport {
        &self.degradation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{DownlinkConfig, LinkConfig};
    use crate::phy::{run_downlink_ber, run_uplink};

    #[test]
    fn uplink_run_reports() {
        let cfg = LinkConfig::fig10(0.05, 100, 30, 42)
            .with_payload((0..20).map(|i| i % 2 == 0).collect());
        let run = run_uplink(&cfg);
        let r: &dyn RunReport = &run;
        assert_eq!(r.bits(), 20);
        assert_eq!(r.bit_errors(), run.ber.errors());
        assert_eq!(r.ber(), run.ber.raw_ber());
    }

    #[test]
    fn downlink_run_reports() {
        let run = run_downlink_ber(&DownlinkConfig::fig17(0.5, 20_000, 7), 500);
        let r: &dyn RunReport = &run;
        assert_eq!(r.bits(), 500);
        assert!(r.ber() < 0.05);
    }

    #[test]
    fn ber_of_empty_run_is_zero() {
        struct Empty(DegradationReport);
        impl RunReport for Empty {
            fn bits(&self) -> u64 {
                0
            }
            fn bit_errors(&self) -> u64 {
                0
            }
            fn degradation(&self) -> &DegradationReport {
                &self.0
            }
        }
        let e = Empty(DegradationReport::default());
        assert_eq!(e.ber(), 0.0);
        assert!(e.is_clean());
    }
}
