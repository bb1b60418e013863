//! RF energy harvesting (§6).
//!
//! The prototype's six patch elements each feed a full-wave SMS7630
//! rectifier; the paper reports that the Wi-Fi harvester can run the
//! transmitter and receiver continuously at one foot from the reader, and
//! that a dual-antenna Wi-Fi + TV harvester sustains the full system at
//! ~50 % duty cycle 10 km from a TV broadcast tower. This module
//! reproduces that arithmetic: an input-power-dependent RF-to-DC
//! efficiency curve, incident-power computation for Wi-Fi and TV sources,
//! and the duty cycle a harvest sustains. Storing that energy and
//! spending it over time is [`crate::energy::Capacitor`]'s job.

use bs_channel::pathloss::{db_to_linear, dbm_to_mw, free_space_db};

/// RF-to-DC conversion efficiency as a function of input power (dBm).
///
/// Schottky rectifiers are strongly nonlinear in input power: negligible
/// efficiency near the diode's sensitivity floor, ~50 % at 0 dBm. The
/// anchor points below follow published SMS7630 rectenna curves.
///
/// Below the −30 dBm floor the curve collapses proportionally to the
/// input *power ratio*: `db_to_linear(input_dbm − (−30))` maps the dB
/// shortfall below the floor to a linear power fraction, so efficiency
/// falls another 10× for every 10 dB under the floor. That is the
/// intended shape — deep sub-threshold Schottky conversion scales with
/// input power (square-law detection), giving a smooth continuous decay
/// rather than a hard cutoff.
///
/// The result is always within `[0, 1]`, and non-finite inputs never
/// propagate: `NaN` and `−∞` yield 0 (no measurable input power), `+∞`
/// saturates at the top-anchor efficiency.
///
/// ```
/// use bs_tag::harvester::rectifier_efficiency;
/// assert!((rectifier_efficiency(0.0) - 0.50).abs() < 1e-9);
/// // 10 dB below the floor: 10x less efficient than the floor's 1 %.
/// assert!((rectifier_efficiency(-40.0) - 0.001).abs() < 1e-9);
/// assert_eq!(rectifier_efficiency(f64::NAN), 0.0);
/// assert_eq!(rectifier_efficiency(f64::NEG_INFINITY), 0.0);
/// assert_eq!(rectifier_efficiency(f64::INFINITY), 0.55);
/// ```
pub fn rectifier_efficiency(input_dbm: f64) -> f64 {
    const ANCHORS: [(f64, f64); 6] = [
        (-30.0, 0.01),
        (-20.0, 0.10),
        (-10.0, 0.28),
        (0.0, 0.50),
        (10.0, 0.55),
        (20.0, 0.55),
    ];
    // Non-finite inputs must not poison downstream energy integration:
    // NaN / −∞ mean "no measurable input", +∞ saturates the diode curve.
    if input_dbm.is_nan() || input_dbm == f64::NEG_INFINITY {
        return 0.0;
    }
    if input_dbm == f64::INFINITY {
        return ANCHORS[ANCHORS.len() - 1].1;
    }
    let eff = if input_dbm <= ANCHORS[0].0 {
        // Sub-floor collapse: efficiency proportional to the input power
        // ratio below the floor (10x per 10 dB), see the docs above.
        ANCHORS[0].1 * db_to_linear(input_dbm - ANCHORS[0].0)
    } else if input_dbm >= ANCHORS[ANCHORS.len() - 1].0 {
        ANCHORS[ANCHORS.len() - 1].1
    } else {
        let mut out = ANCHORS[ANCHORS.len() - 1].1;
        for w in ANCHORS.windows(2) {
            let (p0, e0) = w[0];
            let (p1, e1) = w[1];
            if input_dbm <= p1 {
                let frac = (input_dbm - p0) / (p1 - p0);
                out = e0 + frac * (e1 - e0);
                break;
            }
        }
        out
    };
    eff.clamp(0.0, 1.0)
}

/// Harvested DC power (µW) from an RF input of `input_dbm`. Non-finite
/// or sub-noise inputs harvest nothing.
pub fn harvested_uw(input_dbm: f64) -> f64 {
    if !input_dbm.is_finite() && input_dbm != f64::INFINITY {
        return 0.0;
    }
    let uw = dbm_to_mw(input_dbm) * 1000.0 * rectifier_efficiency(input_dbm);
    if uw.is_finite() {
        uw
    } else if uw > 0.0 {
        f64::MAX
    } else {
        0.0
    }
}

/// Incident RF power (dBm) at the tag, `distance_m` from a Wi-Fi
/// transmitter of `tx_dbm` (free space, the short-range regime of §6's
/// "one foot" measurement), including the patch array's aperture gain.
pub fn wifi_incident_dbm(tx_dbm: f64, distance_m: f64) -> f64 {
    // The 6-element patch array has ~8 dBi of effective receive gain.
    const ARRAY_GAIN_DBI: f64 = 8.0;
    tx_dbm - free_space_db(distance_m, bs_channel::pathloss::WIFI_CH6_HZ) + ARRAY_GAIN_DBI
}

/// A TV broadcast tower as a harvesting source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TvTower {
    /// Effective radiated power, dBm (1 MW ERP = 90 dBm, typical for US
    /// full-power UHF stations).
    pub erp_dbm: f64,
    /// Carrier frequency, Hz (UHF TV ≈ 539 MHz, as in the ambient
    /// backscatter literature the paper builds on).
    pub freq_hz: f64,
}

impl Default for TvTower {
    fn default() -> Self {
        TvTower {
            erp_dbm: 90.0,
            freq_hz: 539e6,
        }
    }
}

impl TvTower {
    /// Incident power (dBm) at `distance_m` from the tower (free space plus
    /// the small tag-integrated TV antenna's ≈3 dBi gain — well below a
    /// full-size UHF dipole, since the tag is credit-card sized).
    fn incident_dbm(&self, distance_m: f64) -> f64 {
        const TV_ANTENNA_GAIN_DBI: f64 = 3.0;
        self.erp_dbm - free_space_db(distance_m, self.freq_hz) + TV_ANTENNA_GAIN_DBI
    }

    /// Harvested DC power (µW) at `distance_m`.
    pub fn harvested_uw(&self, distance_m: f64) -> f64 {
        harvested_uw(self.incident_dbm(distance_m))
    }
}

/// The duty cycle at which a load of `load_uw` can run from a harvest of
/// `harvest_uw`: 1 is continuous operation, and the result is in `[0, 1]`
/// for every input. A non-finite or negative harvest, or a `NaN` load,
/// gives 0; a load of zero or less gives 1.
pub fn duty_cycle(harvest_uw: f64, load_uw: f64) -> f64 {
    if !harvest_uw.is_finite() || harvest_uw < 0.0 || load_uw.is_nan() {
        return 0.0;
    }
    if load_uw <= 0.0 {
        return 1.0;
    }
    (harvest_uw / load_uw).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::{RX_CIRCUIT_UW, TX_CIRCUIT_UW};

    #[test]
    fn efficiency_is_monotone_and_bounded() {
        let mut prev = 0.0;
        for i in 0..120 {
            let dbm = -40.0 + i as f64 * 0.5;
            let e = rectifier_efficiency(dbm);
            assert!((0.0..=0.6).contains(&e), "eff {e} at {dbm}");
            assert!(e >= prev - 1e-12, "non-monotone at {dbm}");
            prev = e;
        }
    }

    #[test]
    fn efficiency_anchor_points() {
        assert!((rectifier_efficiency(-20.0) - 0.10).abs() < 1e-9);
        assert!((rectifier_efficiency(0.0) - 0.50).abs() < 1e-9);
        assert!(rectifier_efficiency(-35.0) < 0.005);
    }

    #[test]
    fn efficiency_subfloor_collapse_shape() {
        // The sub-floor branch maps the dB shortfall to a linear power
        // ratio: 10x less efficiency per 10 dB below −30 dBm.
        assert!((rectifier_efficiency(-40.0) - 1e-3).abs() < 1e-12);
        assert!((rectifier_efficiency(-50.0) - 1e-4).abs() < 1e-12);
        // Continuous at the floor itself.
        assert!((rectifier_efficiency(-30.0) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn efficiency_nonfinite_inputs_do_not_propagate() {
        assert_eq!(rectifier_efficiency(f64::NAN), 0.0);
        assert_eq!(rectifier_efficiency(f64::NEG_INFINITY), 0.0);
        assert_eq!(rectifier_efficiency(f64::INFINITY), 0.55);
        assert_eq!(harvested_uw(f64::NAN), 0.0);
        assert_eq!(harvested_uw(f64::NEG_INFINITY), 0.0);
        assert!(harvested_uw(f64::INFINITY).is_finite());
    }

    #[test]
    fn prop_efficiency_bounded_and_finite() {
        bs_dsp::testkit::check("harvester.eff-bounded", 500, |g| {
            // Mix ordinary dBm draws with occasional pathological values.
            let dbm = match g.usize_in(0, 9) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                _ => g.f64_in(-200.0, 100.0),
            };
            let e = rectifier_efficiency(dbm);
            assert!(e.is_finite(), "eff not finite at {dbm}");
            assert!((0.0..=1.0).contains(&e), "eff {e} out of [0,1] at {dbm}");
        });
    }

    #[test]
    fn prop_efficiency_monotone_nondecreasing() {
        bs_dsp::testkit::check("harvester.eff-monotone", 500, |g| {
            let a = g.f64_in(-120.0, 40.0);
            let b = g.f64_in(-120.0, 40.0);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            assert!(
                rectifier_efficiency(lo) <= rectifier_efficiency(hi) + 1e-12,
                "eff({lo}) > eff({hi})"
            );
        });
    }

    #[test]
    fn paper_claim_continuous_at_one_foot() {
        // §6: "the Wi-Fi power harvester can continuously run both the
        // transmitter and receiver from a distance of one foot from the
        // Wi-Fi reader." One foot = 0.3048 m from a +16 dBm transmitter.
        let incident = wifi_incident_dbm(16.0, 0.3048);
        let harvest = harvested_uw(incident);
        let load = TX_CIRCUIT_UW + RX_CIRCUIT_UW;
        assert!(
            harvest > load,
            "harvest {harvest} µW must exceed load {load} µW"
        );
        assert_eq!(duty_cycle(harvest, load), 1.0);
    }

    #[test]
    fn wifi_harvest_fails_at_long_range() {
        // At 5 m the incident power is far below what the circuits need.
        let harvest = harvested_uw(wifi_incident_dbm(16.0, 5.0));
        assert!(harvest < TX_CIRCUIT_UW + RX_CIRCUIT_UW);
    }

    #[test]
    fn paper_claim_tv_duty_cycle_at_10km() {
        // §6: "the full system could be powered with a duty cycle of
        // around 50 % at a distance of 10 km from a TV broadcast tower."
        // The full system = analog rx+tx circuits + duty-cycled MCU,
        // ~15 µW average.
        let tv = TvTower::default();
        let harvest = tv.harvested_uw(10_000.0);
        let full_system_uw = RX_CIRCUIT_UW + TX_CIRCUIT_UW + 5.0;
        let duty = duty_cycle(harvest, full_system_uw);
        assert!(
            (0.25..=0.85).contains(&duty),
            "duty {duty} (harvest {harvest} µW)"
        );
    }

    #[test]
    fn tv_harvest_decreases_with_distance() {
        let tv = TvTower::default();
        assert!(tv.harvested_uw(1_000.0) > tv.harvested_uw(10_000.0));
        assert!(tv.harvested_uw(10_000.0) > tv.harvested_uw(50_000.0));
    }

    #[test]
    fn incident_power_sane() {
        let tv = TvTower::default();
        let at_10km = tv.incident_dbm(10_000.0);
        assert!((-25.0..=-5.0).contains(&at_10km), "incident {at_10km} dBm");
    }

    #[test]
    fn duty_cycle_edges() {
        assert_eq!(duty_cycle(10.0, 0.0), 1.0);
        assert_eq!(duty_cycle(20.0, 10.0), 1.0);
        assert!((duty_cycle(5.0, 10.0) - 0.5).abs() < 1e-12);
    }
}
