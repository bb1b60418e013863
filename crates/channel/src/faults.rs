//! Deterministic fault injection for the link stack.
//!
//! The paper's coexistence story is exactly what breaks first outside the
//! lab: helpers stall, CSI feeds wedge and only RSSI keeps flowing, bursts
//! starve bit intervals, cheap tag oscillators drift. A [`FaultPlan`]
//! composes seeded impairments as *decorators* over the existing traffic
//! and scene generators, so the well-behaved simulation stays untouched
//! when no plan is attached and every fault stream is reproducible from
//! the plan's seed alone (the harness determinism contract, DESIGN.md
//! §"Determinism under parallelism", extends to faulted runs unchanged).
//!
//! Faults are *graded*: a plan carries a severity in `[0, 1]` that scales
//! each impairment (outage length, drop probability, frozen fraction,
//! drift magnitude, interferer duty), which is what lets the conformance
//! suite (`tests/fault_injection.rs`) assert monotone degradation.
//!
//! What happened is recorded in a [`FaultEvents`] value so the link layer
//! can surface a `DegradationReport` naming every fault that actually
//! fired.

use crate::scene::InterferenceConfig;
use bs_dsp::SimRng;

/// One impairment. Magnitude fields are the *full-severity* values; the
/// owning [`FaultPlan`]'s severity scales them down.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// The helper stops transmitting for `outage_us` out of every
    /// `period_us` (driver resets, queue stalls, roaming scans).
    HelperOutage {
        /// Outage cycle length (µs).
        period_us: u64,
        /// Silent time per cycle at full severity (µs).
        outage_us: u64,
    },
    /// The helper's delivered rate collapses: each packet survives with
    /// probability `keep` at full severity (congestion, rate fallback).
    RateCollapse {
        /// Fraction of packets that still arrive at full severity.
        keep: f64,
    },
    /// Independent per-packet loss with probability `prob` at full
    /// severity (reception, not generation, so it composes with outages).
    PacketLoss {
        /// Drop probability at full severity.
        prob: f64,
    },
    /// Per-packet duplication with probability `prob` at full severity
    /// (MAC retransmissions whose ACK was lost).
    PacketDuplication {
        /// Duplication probability at full severity.
        prob: f64,
    },
    /// The CSI feed wedges and repeats its last report (the Intel tool's
    /// known failure mode under load) for `frozen_fraction` of every
    /// `period_us`; per-antenna RSSI keeps flowing.
    SensorDegradation {
        /// Freeze cycle length (µs).
        period_us: u64,
        /// Fraction of each cycle the feed is frozen at full severity.
        frozen_fraction: f64,
    },
    /// The tag's RC oscillator runs fast by `ppm` parts per million at
    /// full severity, stretching its chip clock relative to the reader's.
    ClockDrift {
        /// Clock error at full severity (parts per million).
        ppm: f64,
    },
    /// A duty-cycled wideband interferer (microwave-oven-like) raising
    /// the in-band noise floor while on.
    InterferenceBurst {
        /// Interference power across the band (dBm).
        power_dbm: f64,
        /// On fraction of each cycle at full severity.
        on_fraction: f64,
        /// Cycle period (µs).
        period_us: u64,
    },
}

impl Fault {
    /// Stable name used in reports and assertions.
    pub fn name(&self) -> &'static str {
        match self {
            Fault::HelperOutage { .. } => "helper-outage",
            Fault::RateCollapse { .. } => "rate-collapse",
            Fault::PacketLoss { .. } => "packet-loss",
            Fault::PacketDuplication { .. } => "packet-duplication",
            Fault::SensorDegradation { .. } => "sensor-degradation",
            Fault::ClockDrift { .. } => "clock-drift",
            Fault::InterferenceBurst { .. } => "interference-burst",
        }
    }
}

/// What a [`FaultPlan`] actually did to one stream of events.
///
/// Accumulated by the decorators and merged upward into the link layer's
/// `DegradationReport`; a fault appears in `fired` only if it had an
/// observable effect (or, for the always-on channel faults — drift,
/// sensor freeze, interference — if it was armed with nonzero severity).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultEvents {
    /// Names of faults that fired ([`Fault::name`]s), in first-fired
    /// order, deduplicated.
    pub fired: Vec<&'static str>,
    /// Packets removed by outage/collapse/loss.
    pub packets_dropped: u64,
    /// Packets injected by duplication.
    pub packets_duplicated: u64,
    /// Total scheduled outage time over the affected span (µs).
    pub outage_us: u64,
    /// Measurements replaced by a stale repeat of the previous one.
    pub frozen_packets: u64,
    /// Applied fractional clock drift (positive = tag clock fast).
    pub drift_fraction: f64,
}

impl FaultEvents {
    /// Records that `name` fired (idempotent).
    pub fn fire(&mut self, name: &'static str) {
        if !self.fired(name) {
            self.fired.push(name);
        }
    }

    /// True if `name` fired.
    pub fn fired(&self, name: &str) -> bool {
        self.fired.contains(&name)
    }

    /// Folds another events record into this one (counters add, names
    /// union, drift keeps the larger magnitude).
    pub fn merge(&mut self, other: &FaultEvents) {
        for &name in &other.fired {
            self.fire(name);
        }
        self.packets_dropped += other.packets_dropped;
        self.packets_duplicated += other.packets_duplicated;
        self.outage_us += other.outage_us;
        self.frozen_packets += other.frozen_packets;
        if other.drift_fraction.abs() > self.drift_fraction.abs() {
            self.drift_fraction = other.drift_fraction;
        }
    }
}

/// A seeded, severity-graded composition of [`Fault`]s.
///
/// The plan is pure data: the same plan applied to the same inputs always
/// produces the same outputs, because every random draw comes from
/// `SimRng::new(plan.seed)` substreams keyed by the decorated stream's
/// name — never from the simulation's own streams, so attaching a plan
/// does not perturb the underlying channel realisation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault streams (independent of the scenario seed).
    pub seed: u64,
    /// Global severity in `[0, 1]`; 0 disables every fault.
    pub severity: f64,
    /// The composed impairments.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan: no faults, severity 0. This is the default every
    /// pre-existing configuration gets, and it is a strict no-op.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// An empty plan at full severity, ready for [`FaultPlan::with`].
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            severity: 1.0,
            faults: Vec::new(),
        }
    }

    /// Adds a fault (builder style).
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Sets the severity, clamped to `[0, 1]` (builder style).
    pub fn with_severity(mut self, severity: f64) -> Self {
        self.severity = severity.clamp(0.0, 1.0);
        self
    }

    /// True if the plan cannot affect anything.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty() || self.severity <= 0.0
    }

    /// Names of the armed faults, in plan order.
    pub fn fault_names(&self) -> Vec<&'static str> {
        self.faults.iter().map(Fault::name).collect()
    }

    /// A named single-fault scenario at calibrated full-severity
    /// magnitudes — the shared vocabulary of the conformance suite and
    /// the bench `faults` figure. `"all"` composes every scenario.
    /// Returns `None` for unknown names.
    pub fn preset(scenario: &str, severity: f64, seed: u64) -> Option<FaultPlan> {
        let base = FaultPlan::new(seed).with_severity(severity);
        let one = |f: Fault| Some(base.clone().with(f));
        match scenario {
            "outage" => one(Fault::HelperOutage {
                period_us: 200_000,
                outage_us: 30_000,
            }),
            "collapse" => one(Fault::RateCollapse { keep: 0.25 }),
            "loss" => one(Fault::PacketLoss { prob: 0.3 }),
            "dup" => one(Fault::PacketDuplication { prob: 0.3 }),
            "sensor" => one(Fault::SensorDegradation {
                period_us: 400_000,
                frozen_fraction: 0.9,
            }),
            "drift" => one(Fault::ClockDrift { ppm: 20_000.0 }),
            "burst" => one(Fault::InterferenceBurst {
                power_dbm: -55.0,
                on_fraction: 0.4,
                period_us: 16_667,
            }),
            "all" => {
                let mut plan = base;
                for s in PRESET_SCENARIOS {
                    plan.faults
                        .extend(FaultPlan::preset(s, severity, seed)?.faults);
                }
                Some(plan)
            }
            _ => None,
        }
    }

    /// Decorates one arrival stream. `stream` names the stream (e.g.
    /// `"helper"`, `"background-0"`) so distinct stations see independent
    /// fault randomness; the result is sorted. Effects are recorded in
    /// `events`.
    pub fn apply_arrivals(
        &self,
        arrivals: &[u64],
        stream: &str,
        events: &mut FaultEvents,
    ) -> Vec<u64> {
        if self.is_empty() {
            return arrivals.to_vec();
        }
        let mut rng = SimRng::new(self.seed)
            .stream("fault-arrivals")
            .stream(stream);
        let mut out = Vec::with_capacity(arrivals.len());
        let mut dup_count = 0u64;
        for &t in arrivals {
            let mut dropped = false;
            for fault in &self.faults {
                match *fault {
                    Fault::HelperOutage { .. } => {
                        if self.outage_at(t) {
                            events.fire("helper-outage");
                            dropped = true;
                        }
                    }
                    Fault::RateCollapse { keep } => {
                        let keep_eff = 1.0 - self.severity * (1.0 - keep.clamp(0.0, 1.0));
                        if !rng.chance(keep_eff) {
                            events.fire("rate-collapse");
                            dropped = true;
                        }
                    }
                    Fault::PacketLoss { prob } => {
                        if rng.chance((prob * self.severity).clamp(0.0, 1.0)) {
                            events.fire("packet-loss");
                            dropped = true;
                        }
                    }
                    Fault::PacketDuplication { prob } => {
                        if !dropped && rng.chance((prob * self.severity).clamp(0.0, 1.0)) {
                            events.fire("packet-duplication");
                            dup_count += 1;
                            // The retransmitted copy lands a SIFS-ish beat
                            // later; it is appended after the loop so a
                            // duplicate is never itself re-faulted.
                            out.push(t + 60);
                        }
                    }
                    // Channel-side faults are applied where the channel is
                    // sampled, not to arrivals.
                    Fault::SensorDegradation { .. }
                    | Fault::ClockDrift { .. }
                    | Fault::InterferenceBurst { .. } => {}
                }
            }
            if dropped {
                events.packets_dropped += 1;
            } else {
                out.push(t);
            }
        }
        events.packets_duplicated += dup_count;
        if let Some(&last) = arrivals.last() {
            if let Some(per_period) = self.outage_window_us() {
                let (period, outage) = per_period;
                events.outage_us += (last / period + 1) * outage;
            }
        }
        out.sort_unstable();
        out
    }

    /// True if an armed [`Fault::HelperOutage`] silences time `t_us`.
    pub fn outage_at(&self, t_us: u64) -> bool {
        match self.outage_window_us() {
            Some((period, outage)) => t_us % period < outage,
            None => false,
        }
    }

    /// True if an armed [`Fault::SensorDegradation`] freezes the CSI feed
    /// at time `t_us`.
    pub fn sensor_frozen_at(&self, t_us: u64) -> bool {
        if self.severity <= 0.0 {
            return false;
        }
        self.faults.iter().any(|f| match *f {
            Fault::SensorDegradation {
                period_us,
                frozen_fraction,
            } => {
                let period = period_us.max(1);
                let frozen = (period as f64 * frozen_fraction * self.severity) as u64;
                t_us % period < frozen
            }
            _ => false,
        })
    }

    /// True if the plan degrades the CSI sensor at all (drives the
    /// CSI→RSSI fallback mitigation).
    pub fn degrades_sensor(&self) -> bool {
        !self.is_empty()
            && self
                .faults
                .iter()
                .any(|f| matches!(f, Fault::SensorDegradation { .. }))
    }

    /// Severity-scaled fractional clock drift (0 when no drift is armed).
    pub fn clock_drift(&self) -> f64 {
        if self.severity <= 0.0 {
            return 0.0;
        }
        self.faults
            .iter()
            .map(|f| match *f {
                Fault::ClockDrift { ppm } => ppm * self.severity * 1e-6,
                _ => 0.0,
            })
            .sum()
    }

    /// The armed interferer as a scene [`InterferenceConfig`], duty
    /// scaled by severity; `None` when no burst fault is armed.
    pub fn interference(&self) -> Option<InterferenceConfig> {
        if self.severity <= 0.0 {
            return None;
        }
        self.faults.iter().find_map(|f| match *f {
            Fault::InterferenceBurst {
                power_dbm,
                on_fraction,
                period_us,
            } => Some(InterferenceConfig {
                power_dbm,
                on_fraction: (on_fraction * self.severity).clamp(0.0, 1.0),
                period_us,
            }),
            _ => None,
        })
    }

    /// Severity-scaled probability that a whole downlink frame is lost —
    /// the frame-level analogue of [`Fault::PacketLoss`] (and of an
    /// outage swallowing the short query burst). Composes multiplicatively
    /// when several loss faults are armed.
    pub fn frame_loss_prob(&self) -> f64 {
        if self.severity <= 0.0 {
            return 0.0;
        }
        let mut keep = 1.0;
        for f in &self.faults {
            if let Fault::PacketLoss { prob } = *f {
                keep *= 1.0 - (prob * self.severity).clamp(0.0, 1.0);
            }
        }
        1.0 - keep
    }

    /// Severity-scaled `(period_us, outage_us)` of an armed outage:
    /// [`Self::outage_at`] is true where `t_us % period_us < outage_us`.
    pub fn outage_window_us(&self) -> Option<(u64, u64)> {
        if self.severity <= 0.0 {
            return None;
        }
        self.faults.iter().find_map(|f| match *f {
            Fault::HelperOutage {
                period_us,
                outage_us,
            } => {
                let scaled = (outage_us as f64 * self.severity) as u64;
                (scaled > 0).then_some((period_us.max(1), scaled))
            }
            _ => None,
        })
    }
}

/// The single-fault preset names [`FaultPlan::preset`] accepts (excluding
/// the composite `"all"`), in canonical order.
pub const PRESET_SCENARIOS: &[&str] = &[
    "outage", "collapse", "loss", "dup", "sensor", "drift", "burst",
];

#[cfg(test)]
mod tests {
    use super::*;

    fn arrivals() -> Vec<u64> {
        (0..2000u64).map(|i| i * 1000).collect()
    }

    #[test]
    fn empty_plan_is_identity() {
        let mut ev = FaultEvents::default();
        let a = arrivals();
        assert_eq!(FaultPlan::none().apply_arrivals(&a, "helper", &mut ev), a);
        assert_eq!(ev, FaultEvents::default());
        // Armed faults at severity 0 are also inert.
        let plan = FaultPlan::preset("all", 0.0, 9).unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan.apply_arrivals(&a, "helper", &mut ev), a);
        assert!(ev.fired.is_empty());
    }

    #[test]
    fn apply_is_deterministic_per_stream() {
        let plan = FaultPlan::preset("loss", 1.0, 7).unwrap();
        let a = arrivals();
        let mut e1 = FaultEvents::default();
        let mut e2 = FaultEvents::default();
        let out1 = plan.apply_arrivals(&a, "helper", &mut e1);
        let out2 = plan.apply_arrivals(&a, "helper", &mut e2);
        assert_eq!(out1, out2);
        assert_eq!(e1, e2);
        // A differently named stream sees independent randomness.
        let other = plan.apply_arrivals(&a, "background-0", &mut FaultEvents::default());
        assert_ne!(out1, other);
    }

    #[test]
    fn outage_silences_windows() {
        let plan = FaultPlan::new(3).with(Fault::HelperOutage {
            period_us: 100_000,
            outage_us: 25_000,
        });
        let mut ev = FaultEvents::default();
        let out = plan.apply_arrivals(&arrivals(), "helper", &mut ev);
        assert!(ev.fired("helper-outage"));
        assert!(out.iter().all(|&t| t % 100_000 >= 25_000));
        assert!(ev.packets_dropped > 0);
        assert!(ev.outage_us > 0);
    }

    #[test]
    fn severity_scales_drop_rate_monotonically() {
        let kept_at = |s: f64| {
            let plan = FaultPlan::preset("loss", s, 11).unwrap();
            plan.apply_arrivals(&arrivals(), "helper", &mut FaultEvents::default())
                .len()
        };
        let full = kept_at(1.0);
        let half = kept_at(0.5);
        let none = kept_at(0.0);
        assert_eq!(none, arrivals().len());
        assert!(full < half, "full {full} half {half}");
        assert!(half < none, "half {half} none {none}");
    }

    #[test]
    fn duplication_adds_sorted_packets() {
        let plan = FaultPlan::preset("dup", 1.0, 5).unwrap();
        let mut ev = FaultEvents::default();
        let out = plan.apply_arrivals(&arrivals(), "helper", &mut ev);
        assert!(out.len() > arrivals().len());
        assert!(ev.packets_duplicated > 0);
        assert_eq!(
            out.len() as u64,
            arrivals().len() as u64 + ev.packets_duplicated
        );
        assert!(out.windows(2).all(|w| w[0] <= w[1]), "unsorted output");
    }

    #[test]
    fn sensor_freeze_and_drift_scale_with_severity() {
        let full = FaultPlan::preset("sensor", 1.0, 1).unwrap();
        let half = FaultPlan::preset("sensor", 0.5, 1).unwrap();
        let frozen = |p: &FaultPlan| {
            (0..400u64)
                .filter(|&i| p.sensor_frozen_at(i * 1000))
                .count()
        };
        assert!(frozen(&full) > frozen(&half));
        assert!(frozen(&half) > 0);
        assert!(full.degrades_sensor());

        let drift = FaultPlan::preset("drift", 1.0, 1).unwrap();
        assert!((drift.clock_drift() - 0.02).abs() < 1e-12);
        assert_eq!(
            FaultPlan::preset("drift", 0.5, 1).unwrap().clock_drift(),
            drift.clock_drift() / 2.0
        );
        assert_eq!(FaultPlan::none().clock_drift(), 0.0);
    }

    #[test]
    fn interference_duty_scales() {
        let full = FaultPlan::preset("burst", 1.0, 1)
            .unwrap()
            .interference()
            .unwrap();
        let half = FaultPlan::preset("burst", 0.5, 1)
            .unwrap()
            .interference()
            .unwrap();
        assert!((full.on_fraction - 0.4).abs() < 1e-12);
        assert!((half.on_fraction - 0.2).abs() < 1e-12);
        assert!(FaultPlan::none().interference().is_none());
    }

    #[test]
    fn preset_all_composes_every_scenario() {
        let plan = FaultPlan::preset("all", 1.0, 2).unwrap();
        let names = plan.fault_names();
        for s in PRESET_SCENARIOS {
            let single = FaultPlan::preset(s, 1.0, 2).unwrap();
            assert!(
                names.contains(&single.faults[0].name()),
                "{s} missing from composite"
            );
        }
        assert!(FaultPlan::preset("bogus", 1.0, 2).is_none());
    }

    #[test]
    fn events_merge_unions_and_adds() {
        let mut a = FaultEvents {
            fired: vec!["packet-loss"],
            packets_dropped: 3,
            ..Default::default()
        };
        let b = FaultEvents {
            fired: vec!["packet-loss", "clock-drift"],
            packets_dropped: 2,
            drift_fraction: 0.01,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.fired, vec!["packet-loss", "clock-drift"]);
        assert_eq!(a.packets_dropped, 5);
        assert_eq!(a.drift_fraction, 0.01);
    }
}
