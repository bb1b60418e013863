//! FEC figure: 1 KiB transfer goodput over wild helper traffic, by
//! traffic regime × coding scheme, plus a severity sweep in the wild
//! regime pairing adaptive FEC against plain ARQ.
//!
//! This backs the harness's `fec` figure (not a paper figure — the
//! paper's tag has no transport; this measures the `bs-net` layer's
//! forward-error-correction story on the paper's energy model). The
//! regime axis replays three helper-traffic processes through a
//! [`SimLink::from_traffic`] link: near-Poisson office load, on/off
//! bursty load, and the heavy-tailed `wild` preset whose Pareto
//! silences starve whole bursts of segments. The coding axis compares
//! plain SACK-ARQ, a fixed-rate pooled code, and the
//! [`FecConfig::for_traffic`] adaptive rule fed by [`RateEstimator`]
//! measurements of the same arrival trace the link replays.
//!
//! Pairing contract: for a given `(regime, severity, run)` cell every
//! coding scheme sees the *identical* link realisation — same arrival
//! trace, same fault stream — so goodput deltas are attributable to the
//! coding choice alone. Per-run seeds derive from the master seed and
//! run index exactly like `net` (golden-ratio increments), so the sweep
//! is byte-deterministic under any `--jobs`.

use bs_channel::faults::FaultPlan;
use bs_dsp::SimRng;
use bs_net::prelude::{
    run_transfer, FecConfig, RateEstimator, SimLink, TransportConfig, WildTraffic,
};
use wifi_backscatter::protocol::RetryPolicy;

/// The 1 KiB message every point transfers (the acceptance workload).
pub const MESSAGE_BYTES: usize = 1024;

/// Helper-traffic horizon each link replays (10 simulated minutes —
/// long enough that the wild preset's diurnal envelope and deepest
/// Pareto silences both show up in the trace).
pub const HORIZON_US: u64 = 600_000_000;

/// ARQ window for every point. Wide on purpose: the RF-powered reader
/// pays a full harvest-recharge cycle per poll round, so the transport
/// amortises it over many segments; FEC's win is eliminating the
/// straggler rounds that a wide window otherwise quantises into whole
/// recharge cycles.
pub const WINDOW: usize = 48;

/// Retry budget per transfer (simulated µs). Four minutes of recharge
/// cycles; plain ARQ can exhaust it under heavy-tailed starvation
/// (`complete_runs` column), FEC finishes well inside it.
pub const BUDGET_US: u64 = 240_000_000;

/// The fixed-rate arm's pooled code: one 64-data-segment group with the
/// deepest parity tier, rate 2/3.
pub const FIXED_GROUP_DATA: usize = 64;
/// Parity of the fixed-rate arm.
pub const FIXED_GROUP_PARITY: usize = 32;

/// Coding scheme axis of the figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coding {
    /// Plain SACK-ARQ, no parity segments.
    ArqOnly,
    /// Pooled Reed–Solomon at a fixed rate 2/3 regardless of traffic.
    Fixed,
    /// [`FecConfig::for_traffic`] on [`RateEstimator`] measurements of
    /// the link's own arrival trace (disables itself on benign traffic).
    Adaptive,
}

impl Coding {
    /// Column label in the rendered table.
    pub fn label(self) -> &'static str {
        match self {
            Coding::ArqOnly => "arq",
            Coding::Fixed => "fixed",
            Coding::Adaptive => "adaptive",
        }
    }
}

/// Every regime name [`fec_point`] accepts, in render order.
pub const REGIMES: &[&str] = &["poisson", "bursty", "wild"];

/// The helper-traffic process behind a named regime.
///
/// * `poisson` — dense office load, light-tailed gaps, no diurnal
///   envelope: the benign regime where the adaptive rule must disable
///   itself and tie plain ARQ bit for bit.
/// * `bursty` — on/off stations with a moderately heavy gap tail
///   (α = 1.6): silences long enough to starve segments but short
///   enough that ARQ usually recovers inside its budget.
/// * `wild` — the [`WildTraffic::wild`] preset (α = 1.2, diurnal):
///   Pareto silences erase whole bursts at once.
fn fec_regime(name: &str) -> WildTraffic {
    match name {
        "poisson" => WildTraffic {
            gap_alpha: 3.5,
            gap_xmin_us: 1_000.0,
            mean_active_us: 400_000.0,
            diurnal: false,
            ..WildTraffic::default()
        },
        "bursty" => WildTraffic {
            stations: 4,
            gap_alpha: 1.6,
            gap_xmin_us: 5_000.0,
            mean_active_us: 50_000.0,
            ..WildTraffic::default()
        },
        "wild" => WildTraffic::wild(),
        other => panic!("unknown fec regime '{other}' (known: {REGIMES:?})"),
    }
}

/// The sweep's fault plan: the `loss` preset scaled by `severity`,
/// composed on top of the traffic-starvation process the link itself
/// models. Severity 0 still starves — it just adds no extra loss.
fn fec_fault_plan(severity: f64, seed: u64) -> FaultPlan {
    FaultPlan::preset("loss", severity, seed ^ 0x0bad_cafe).expect("loss preset exists")
}

/// The deterministic message every run transfers.
fn fec_message() -> Vec<u8> {
    (0..MESSAGE_BYTES)
        .map(|i| ((i * 131 + 17) % 251) as u8)
        .collect()
}

/// One measured `(regime, coding, severity)` point.
#[derive(Debug, Clone, PartialEq)]
pub struct FecPoint {
    /// Regime name (a [`REGIMES`] entry).
    pub regime: &'static str,
    /// Coding scheme of this point.
    pub coding: Coding,
    /// Fault severity in `[0, 1]`.
    pub severity: f64,
    /// Mean goodput across the runs (delivered bits / simulated second;
    /// incomplete transfers contribute 0).
    pub goodput_bps: f64,
    /// Runs whose message arrived completely inside the retry budget.
    pub complete_runs: u64,
    /// Total segments reconstructed from parity across the runs.
    pub fec_repairs: u64,
    /// Total failed group-decode attempts across the runs.
    pub fec_decode_fails: u64,
    /// Per-run goodput, index = run — for paired gates against another
    /// coding's point at the same `(regime, severity, seed)`.
    pub per_run_goodput: Vec<f64>,
}

/// Measures one point of the sweep over `runs` paired link realisations.
pub fn fec_point(
    regime: &'static str,
    coding: Coding,
    severity: f64,
    runs: u64,
    seed: u64,
) -> FecPoint {
    let message = fec_message();
    let mut goodput_sum = 0.0;
    let mut complete_runs = 0;
    let mut fec_repairs = 0;
    let mut fec_decode_fails = 0;
    let mut per_run_goodput = Vec::with_capacity(runs as usize);
    for r in 0..runs {
        // The arrival trace and fault stream derive from `(seed, r)`
        // alone, identically for every coding scheme.
        let run_seed = SimRng::run_seed(seed, r);
        let mut link = SimLink::from_traffic(
            &fec_regime(regime),
            HORIZON_US,
            fec_fault_plan(severity, run_seed),
            run_seed,
        )
        .expect("valid traffic");
        let fec = match coding {
            Coding::ArqOnly => FecConfig::none(),
            Coding::Fixed => FecConfig::fixed(FIXED_GROUP_DATA, FIXED_GROUP_PARITY),
            // The reader measures the very trace the link will replay —
            // the "listen before you code" deployment story.
            Coding::Adaptive => {
                let stats = RateEstimator::new().measure(link.arrivals(), HORIZON_US);
                FecConfig::for_traffic(&stats)
            }
        };
        let retry = RetryPolicy {
            budget_us: BUDGET_US,
        };
        let cfg = TransportConfig::default()
            .with_window(WINDOW)
            .with_seed(run_seed ^ 0x7A11)
            .with_retry(retry)
            .with_fec(fec);
        let t = run_transfer(&message, cfg, &mut link);
        let g = t.goodput_bps();
        goodput_sum += g;
        per_run_goodput.push(g);
        if t.complete {
            complete_runs += 1;
        }
        fec_repairs += t.fec_repairs;
        fec_decode_fails += t.fec_decode_fails;
    }
    FecPoint {
        regime,
        coding,
        severity,
        goodput_bps: goodput_sum / runs.max(1) as f64,
        complete_runs,
        fec_repairs,
        fec_decode_fails,
        per_run_goodput,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fec_point_is_deterministic() {
        let a = fec_point("wild", Coding::Adaptive, 0.5, 2, 9);
        let b = fec_point("wild", Coding::Adaptive, 0.5, 2, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn adaptive_disables_itself_on_poisson_and_ties_arq() {
        // The benign regime: the rate rule must pick no parity, making
        // the adaptive arm bit-identical to plain ARQ.
        let arq = fec_point("poisson", Coding::ArqOnly, 0.25, 2, 11);
        let ad = fec_point("poisson", Coding::Adaptive, 0.25, 2, 11);
        assert_eq!(arq.per_run_goodput, ad.per_run_goodput);
        assert_eq!(ad.fec_repairs, 0);
    }

    #[test]
    fn wild_regime_repairs_are_nontrivial() {
        let ad = fec_point("wild", Coding::Adaptive, 0.5, 2, 9);
        assert!(ad.fec_repairs > 0, "wild regime must exercise repair");
        assert_eq!(ad.complete_runs, 2);
    }

    #[test]
    fn regimes_are_distinct_processes() {
        let mut rng = bs_dsp::SimRng::new(5).stream("fec-regime-test");
        let poisson = fec_regime("poisson").arrivals(10_000_000, &mut rng);
        let mut rng = bs_dsp::SimRng::new(5).stream("fec-regime-test");
        let wild = fec_regime("wild").arrivals(10_000_000, &mut rng);
        // Same RNG stream, different processes — the benign regime is
        // strictly denser over the same window.
        assert!(poisson.len() > wild.len());
    }
}
