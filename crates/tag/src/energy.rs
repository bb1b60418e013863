//! Energy co-simulation: harvest-store-spend closed into behaviour.
//!
//! [`crate::harvester`] computes steady-state harvest power and
//! [`crate::power::EnergyLedger`] counts what firmware activity costs —
//! but nothing in the seed repo ever let the balance *change what the tag
//! does*. This module closes the loop (ROADMAP item 5): a [`Capacitor`]
//! integrates harvest minus load minus leakage over time and runs a
//! Dead / Charging / Awake state machine with brownout hysteresis, and an
//! [`EnergyPolicy`] tells the consuming layer (session, gateway, fleet)
//! what the tag may do in each state.
//!
//! # The capacitor state machine
//!
//! ```text
//!              charge ≥ wake threshold
//!        +--------------------------------+
//!        |                                v
//!   [Charging] <---- rising past ----- [Awake]
//!        ^           brownout thr         |
//!        |                                | charge < brownout threshold
//!      [Dead] <---------------------------+
//!              charge < brownout threshold
//! ```
//!
//! The two thresholds are deliberately split (hysteresis): a tag that
//! browns out must climb all the way back to the *wake* threshold before
//! operating again, so it cannot flap between dead and alive on every
//! harvested microjoule. That mirrors real cold-start supervisors
//! (e.g. a BOD + PMU pair), which hold the MCU in reset until the storage
//! capacitor can fund a useful burst of work, not just one instruction.
//!
//! Everything here is deterministic: no RNG is consumed inside the state
//! machine. Randomised initial charge (fleet cold-start diversity) is
//! injected by the caller through [`CapacitorConfig::initial_fraction`],
//! drawn from a tag-keyed [`bs_dsp::SimRng`] stream so results are
//! independent of worker/shard count.
//!
//! ```
//! use bs_tag::energy::{Capacitor, CapacitorConfig, EnergyState};
//!
//! let mut cap = Capacitor::new(CapacitorConfig {
//!     initial_fraction: 0.2, // low: below the 60 % wake threshold
//!     ..CapacitorConfig::default()
//! });
//! assert_eq!(cap.state(), EnergyState::Charging);
//! // Harvest 50 µW against a 10 µW listening load for 4 s: wakes up.
//! cap.advance(4_000_000.0, 50.0, 10.0);
//! assert_eq!(cap.state(), EnergyState::Awake);
//! // Starve it: the load drains the store until brownout.
//! cap.advance(20_000_000.0, 0.0, 10.0);
//! assert_eq!(cap.state(), EnergyState::Dead);
//! assert_eq!(cap.brownouts(), 1);
//! ```

use crate::power::{MCU_SLEEP_UW, RX_CIRCUIT_UW, TX_CIRCUIT_UW};

/// Average load while the tag listens for a query: rx chain plus the
/// sleeping MCU (the duty-cycled sampling cost is charged separately by
/// the layers that model individual frames).
pub const LISTEN_LOAD_UW: f64 = RX_CIRCUIT_UW + MCU_SLEEP_UW;

/// Average load while the tag backscatters a response: tx circuit plus
/// the bit-clock timer (sleep-mode MCU).
pub const RESPOND_LOAD_UW: f64 = TX_CIRCUIT_UW + MCU_SLEEP_UW;

/// Where the tag is in its power lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnergyState {
    /// Below the brownout threshold: logic unpowered, all state lost.
    Dead,
    /// Between the thresholds on the way up: accumulating charge, not yet
    /// allowed to operate (cold-start hysteresis).
    Charging,
    /// At or above the wake threshold (or holding between the thresholds
    /// after waking): fully operational.
    Awake,
}

/// Static parameters of a tag's storage capacitor and its supervisor
/// thresholds.
///
/// The defaults model the prototype's storage path: a 100 µF capacitor at
/// 2 V (200 µJ full), ~1 µW of self-discharge, waking at 60 % charge and
/// browning out below 10 %.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacitorConfig {
    /// Capacitance, µF.
    pub capacitance_uf: f64,
    /// Operating voltage, V — full charge is `½CV²`.
    pub voltage: f64,
    /// Self-discharge (leakage) load, µW, always present.
    pub leakage_uw: f64,
    /// Fraction of full charge at which a Dead/Charging tag wakes.
    pub wake_fraction: f64,
    /// Fraction of full charge below which an Awake tag browns out. Must
    /// be below `wake_fraction` — the gap is the hysteresis band.
    pub brownout_fraction: f64,
    /// Fraction of full charge the capacitor starts with.
    pub initial_fraction: f64,
}

impl Default for CapacitorConfig {
    fn default() -> Self {
        CapacitorConfig {
            capacitance_uf: 100.0,
            voltage: 2.0,
            leakage_uw: 1.0,
            wake_fraction: 0.6,
            brownout_fraction: 0.1,
            initial_fraction: 1.0,
        }
    }
}

/// A storage capacitor with brownout/cold-start hysteresis — the heart of
/// the energy co-simulation.
///
/// Charge is integrated by [`Capacitor::advance`] (continuous loads) and
/// [`Capacitor::spend`] (discrete events); the state machine in the
/// module docs runs after every update. [`Capacitor::brownouts`] and
/// [`Capacitor::recoveries`] count the Awake→Dead and post-brownout
/// →Awake transitions for per-tag reporting.
///
/// ```
/// use bs_tag::energy::{Capacitor, CapacitorConfig, EnergyState};
///
/// let mut cap = Capacitor::new(CapacitorConfig::default()); // starts full
/// assert_eq!(cap.state(), EnergyState::Awake);
/// cap.spend(cap.charge_uj()); // a catastrophic discrete spend
/// assert_eq!(cap.state(), EnergyState::Dead);
/// cap.advance(10_000_000.0, 100.0, 0.0); // 10 s under a strong harvest
/// assert_eq!(cap.state(), EnergyState::Awake);
/// assert_eq!(cap.recoveries(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Capacitor {
    cfg: CapacitorConfig,
    charge_uj: f64,
    state: EnergyState,
    brownouts: u32,
    recoveries: u32,
    pending_recovery: bool,
}

impl Capacitor {
    /// Creates the capacitor at `initial_fraction` of full charge; the
    /// starting state follows the thresholds (cold-start rules — an
    /// initial charge inside the hysteresis band starts Charging, not
    /// Awake).
    pub fn new(cfg: CapacitorConfig) -> Self {
        assert!(
            cfg.capacitance_uf > 0.0 && cfg.voltage > 0.0,
            "capacitor must have positive capacity"
        );
        assert!(
            (0.0..=1.0).contains(&cfg.brownout_fraction)
                && (0.0..=1.0).contains(&cfg.wake_fraction)
                && cfg.brownout_fraction < cfg.wake_fraction,
            "thresholds must satisfy 0 <= brownout < wake <= 1"
        );
        let capacity = 0.5 * cfg.capacitance_uf * cfg.voltage * cfg.voltage;
        let charge = (cfg.initial_fraction * capacity).clamp(0.0, capacity);
        let state = if charge >= cfg.wake_fraction * capacity {
            EnergyState::Awake
        } else if charge >= cfg.brownout_fraction * capacity {
            EnergyState::Charging
        } else {
            EnergyState::Dead
        };
        Capacitor {
            cfg,
            charge_uj: charge,
            state,
            brownouts: 0,
            recoveries: 0,
            pending_recovery: false,
        }
    }

    /// Maximum stored energy, µJ (`½CV²`).
    pub fn capacity_uj(&self) -> f64 {
        0.5 * self.cfg.capacitance_uf * self.cfg.voltage * self.cfg.voltage
    }

    /// Current stored energy, µJ.
    pub fn charge_uj(&self) -> f64 {
        self.charge_uj
    }

    /// Current lifecycle state.
    pub fn state(&self) -> EnergyState {
        self.state
    }

    /// The configuration this capacitor was built from.
    pub fn config(&self) -> CapacitorConfig {
        self.cfg
    }

    /// Number of Awake→Dead transitions so far.
    pub fn brownouts(&self) -> u32 {
        self.brownouts
    }

    /// Number of times the tag climbed back to Awake after a brownout.
    pub fn recoveries(&self) -> u32 {
        self.recoveries
    }

    /// Integrates `duration_us` of `harvest_uw` in and `load_uw` +
    /// leakage out, clamps the charge to `[0, capacity]`, steps the state
    /// machine and returns the new state. Non-finite inputs contribute
    /// nothing (the harvester already guards, but a second fence keeps
    /// the integrator finite).
    pub fn advance(&mut self, duration_us: f64, harvest_uw: f64, load_uw: f64) -> EnergyState {
        let harvest = if harvest_uw.is_finite() { harvest_uw } else { 0.0 };
        let load = if load_uw.is_finite() { load_uw.max(0.0) } else { 0.0 };
        let dt = if duration_us.is_finite() {
            duration_us.max(0.0)
        } else {
            0.0
        };
        let net_uj = (harvest - load - self.cfg.leakage_uw) * dt / 1e6;
        self.charge_uj = (self.charge_uj + net_uj).clamp(0.0, self.capacity_uj());
        self.step_state()
    }

    /// Spends a discrete `uj` (an edge wakeup, a CRC pass), clamping at
    /// empty, and returns the new state.
    pub fn spend(&mut self, uj: f64) -> EnergyState {
        if uj.is_finite() && uj > 0.0 {
            self.charge_uj = (self.charge_uj - uj).max(0.0);
        }
        self.step_state()
    }

    /// Overwrites the stored charge (clamped to capacity) and re-derives
    /// the state — used by the fleet engine to persist a tag's energy
    /// across epochs without replaying the whole history.
    pub fn set_charge_uj(&mut self, uj: f64) -> EnergyState {
        self.charge_uj = if uj.is_finite() {
            uj.clamp(0.0, self.capacity_uj())
        } else {
            0.0
        };
        self.step_state()
    }

    fn step_state(&mut self) -> EnergyState {
        let capacity = self.capacity_uj();
        let wake = self.cfg.wake_fraction * capacity;
        let brownout = self.cfg.brownout_fraction * capacity;
        match self.state {
            EnergyState::Awake => {
                if self.charge_uj < brownout {
                    self.state = EnergyState::Dead;
                    self.brownouts += 1;
                    self.pending_recovery = true;
                }
            }
            EnergyState::Dead | EnergyState::Charging => {
                if self.charge_uj >= wake {
                    self.state = EnergyState::Awake;
                    if self.pending_recovery {
                        self.recoveries += 1;
                        self.pending_recovery = false;
                    }
                } else if self.charge_uj >= brownout {
                    self.state = EnergyState::Charging;
                } else {
                    self.state = EnergyState::Dead;
                }
            }
        }
        self.state
    }
}

/// What the tag is allowed to do in each [`EnergyState`] — the
/// duty-cycling decision the session and gateway schedulers consult.
///
/// ```
/// use bs_tag::energy::{EnergyPolicy, EnergyState};
///
/// // The degraded policy keeps the cheap rx chain alive while charging
/// // but refuses to spend transmit energy until fully awake.
/// let p = EnergyPolicy::ListenOnly;
/// assert!(p.can_listen(EnergyState::Charging));
/// assert!(!p.can_respond(EnergyState::Charging));
/// assert!(p.can_respond(EnergyState::Awake));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EnergyPolicy {
    /// The seed repo's implicit behaviour: the tag is immortal. With this
    /// policy every run is bit-identical to a run with no energy model.
    AlwaysPowered,
    /// Fully duty-cycled: everything (listening included) waits until the
    /// capacitor reaches the wake threshold.
    #[default]
    SleepUntilCharged,
    /// Degrade-to-listen-only: the ~10 µW receive chain stays on while
    /// Charging (queries are heard), but responses wait for Awake.
    ListenOnly,
}

impl EnergyPolicy {
    /// May the tag run its receive chain (hear a query) in `state`?
    pub fn can_listen(self, state: EnergyState) -> bool {
        match self {
            EnergyPolicy::AlwaysPowered => true,
            EnergyPolicy::SleepUntilCharged => state == EnergyState::Awake,
            EnergyPolicy::ListenOnly => {
                matches!(state, EnergyState::Awake | EnergyState::Charging)
            }
        }
    }

    /// May the tag spend transmit energy (backscatter a response) in
    /// `state`?
    pub fn can_respond(self, state: EnergyState) -> bool {
        match self {
            EnergyPolicy::AlwaysPowered => true,
            EnergyPolicy::SleepUntilCharged | EnergyPolicy::ListenOnly => {
                state == EnergyState::Awake
            }
        }
    }
}

/// A tag's complete energy situation: the storage capacitor, the
/// steady-state harvest feeding it, and the duty-cycling policy. This is
/// the value the session/gateway/fleet layers attach to a tag to turn the
/// energy model on.
///
/// ```
/// use bs_tag::energy::EnergyConfig;
///
/// // 30 µW of harvest comfortably funds the ~10 µW listening load.
/// let cfg = EnergyConfig::harvesting(30.0);
/// assert!(cfg.harvest_uw > bs_tag::energy::LISTEN_LOAD_UW);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyConfig {
    /// Storage capacitor and supervisor thresholds.
    pub capacitor: CapacitorConfig,
    /// Steady-state harvested power, µW.
    pub harvest_uw: f64,
    /// What the tag may do in each state.
    pub policy: EnergyPolicy,
}

impl EnergyConfig {
    /// A default-capacitor, [`EnergyPolicy::SleepUntilCharged`] config at
    /// the given harvest power.
    pub fn harvesting(harvest_uw: f64) -> Self {
        EnergyConfig {
            capacitor: CapacitorConfig::default(),
            harvest_uw,
            policy: EnergyPolicy::SleepUntilCharged,
        }
    }

    /// The immortal-tag config: behaviour is bit-identical to running
    /// with no energy model at all (the conformance suite pins this).
    pub fn always_powered() -> Self {
        EnergyConfig {
            capacitor: CapacitorConfig::default(),
            harvest_uw: f64::MAX,
            policy: EnergyPolicy::AlwaysPowered,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_start_state_follows_thresholds() {
        let mk = |f| {
            Capacitor::new(CapacitorConfig {
                initial_fraction: f,
                ..CapacitorConfig::default()
            })
        };
        assert_eq!(mk(0.0).state(), EnergyState::Dead);
        assert_eq!(mk(0.05).state(), EnergyState::Dead);
        assert_eq!(mk(0.3).state(), EnergyState::Charging);
        assert_eq!(mk(0.6).state(), EnergyState::Awake);
        assert_eq!(mk(1.0).state(), EnergyState::Awake);
    }

    #[test]
    fn hysteresis_band_holds_awake_but_blocks_wake() {
        // Inside the band (between 10 % and 60 %): an Awake tag stays
        // Awake, a Charging tag stays Charging.
        let mut awake = Capacitor::new(CapacitorConfig::default());
        awake.set_charge_uj(0.3 * awake.capacity_uj());
        assert_eq!(awake.state(), EnergyState::Awake);

        let mut cold = Capacitor::new(CapacitorConfig {
            initial_fraction: 0.0,
            ..CapacitorConfig::default()
        });
        cold.set_charge_uj(0.3 * cold.capacity_uj());
        assert_eq!(cold.state(), EnergyState::Charging);
    }

    #[test]
    fn brownout_and_recovery_counted_once_per_cycle() {
        let mut cap = Capacitor::new(CapacitorConfig::default());
        for _ in 0..3 {
            // Drain to empty: one brownout.
            cap.advance(60_000_000.0, 0.0, 10.0);
            assert_eq!(cap.state(), EnergyState::Dead);
            // Recharge: one recovery.
            cap.advance(60_000_000.0, 50.0, 0.0);
            assert_eq!(cap.state(), EnergyState::Awake);
        }
        assert_eq!(cap.brownouts(), 3);
        assert_eq!(cap.recoveries(), 3);
    }

    #[test]
    fn cold_start_wake_is_not_a_recovery() {
        let mut cap = Capacitor::new(CapacitorConfig {
            initial_fraction: 0.0,
            ..CapacitorConfig::default()
        });
        cap.advance(60_000_000.0, 50.0, 0.0);
        assert_eq!(cap.state(), EnergyState::Awake);
        assert_eq!(cap.recoveries(), 0);
        assert_eq!(cap.brownouts(), 0);
    }

    #[test]
    fn leakage_drains_an_idle_tag() {
        let mut cap = Capacitor::new(CapacitorConfig::default());
        // 200 µJ at 1 µW leakage: dead within ~200 s with no harvest.
        cap.advance(250_000_000.0, 0.0, 0.0);
        assert_eq!(cap.state(), EnergyState::Dead);
        assert_eq!(cap.charge_uj(), 0.0);
    }

    #[test]
    fn charge_clamps_to_capacity() {
        let mut cap = Capacitor::new(CapacitorConfig::default());
        cap.advance(1e9, 1e6, 0.0);
        assert!((cap.charge_uj() - cap.capacity_uj()).abs() < 1e-9);
    }

    #[test]
    fn nonfinite_inputs_are_inert() {
        let mut cap = Capacitor::new(CapacitorConfig::default());
        let before = cap.charge_uj();
        cap.advance(f64::NAN, 10.0, 0.0);
        cap.advance(1.0, f64::INFINITY, f64::NAN);
        cap.spend(f64::NAN);
        assert!(cap.charge_uj().is_finite());
        // The only finite effect above is 1 µs of leakage.
        assert!((cap.charge_uj() - before).abs() < 1e-3);
    }

    #[test]
    fn discrete_spend_browns_out() {
        let mut cap = Capacitor::new(CapacitorConfig::default());
        assert_eq!(cap.spend(cap.capacity_uj() * 0.95), EnergyState::Dead);
        assert_eq!(cap.brownouts(), 1);
    }

    #[test]
    fn policy_matrix() {
        use EnergyPolicy::*;
        use EnergyState::*;
        for s in [Dead, Charging, Awake] {
            assert!(AlwaysPowered.can_listen(s));
            assert!(AlwaysPowered.can_respond(s));
        }
        assert!(!SleepUntilCharged.can_listen(Charging));
        assert!(SleepUntilCharged.can_listen(Awake));
        assert!(ListenOnly.can_listen(Charging));
        assert!(!ListenOnly.can_listen(Dead));
        assert!(!ListenOnly.can_respond(Charging));
    }

    #[test]
    #[should_panic]
    fn inverted_thresholds_panic() {
        Capacitor::new(CapacitorConfig {
            wake_fraction: 0.1,
            brownout_fraction: 0.6,
            ..CapacitorConfig::default()
        });
    }

    #[test]
    fn loads_match_paper_budget() {
        assert!((LISTEN_LOAD_UW - 10.0).abs() < 1e-9);
        assert!((RESPOND_LOAD_UW - 1.65).abs() < 1e-9);
    }
}
