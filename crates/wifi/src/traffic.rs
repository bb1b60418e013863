//! Offered-load generators.
//!
//! Every generator returns a sorted list of frame-ready times in µs, which
//! a [`crate::mac::Station`] then contends with. The profiles mirror the
//! paper's workloads:
//!
//! * [`cbr`] — controlled injection with an inter-packet delay, as the
//!   evaluation does to sweep the helper's transmission rate (§7.2,
//!   Fig. 12: 240–3070 packets/s).
//! * [`poisson`] — memoryless background traffic.
//! * [`bursty_onoff`] — heavy-tailed ON/OFF bursts ("Internet traffic in
//!   general is known for its bursty nature", §5).
//! * [`OfficeLoadProfile`] — the diurnal office load behind Fig. 15
//!   (12:00–20:00, load between ~100 and ~1100 packets/s).
//! * [`streaming`] — a Pandora-like audio stream (Fig. 18's background
//!   traffic).
//! * [`beacons`] — the AP's fixed beacon schedule (Fig. 16).
//! * [`WildTraffic`] — uncontrolled real-world traffic: heavy-tailed
//!   Pareto idle gaps, exponential active bursts, a diurnal load
//!   envelope and a channel-capacity cap over competing stations. The
//!   workload GuardRider-style FEC (`bs_net::fec`) is tuned against.
//!
//! [`RateEstimator`] closes the loop: it measures an arrival stream's
//! rate, burstiness and idle-gap tail index ([`TrafficStats`]), which
//! the transport's `FecConfig::for_traffic` rule converts into a code
//! rate.
//!
//! Any generator's output can be wrapped in a `bs_channel::FaultPlan`
//! via [`apply_faults`] to model helper outages, rate collapse, loss and
//! duplication; the decorated stream keeps the generator contract
//! (sorted, within the horizon, seed-reproducible).

use bs_channel::faults::{FaultEvents, FaultPlan};
use bs_dsp::obs::Recorder;
use bs_dsp::SimRng;

/// Constant-bit-rate arrivals: `rate_pps` packets per second with ±10 %
/// uniform jitter, from 0 to `until_us`.
pub fn cbr(rate_pps: f64, until_us: u64, rng: &mut SimRng) -> Vec<u64> {
    assert!(rate_pps > 0.0, "rate must be positive");
    let period = 1e6 / rate_pps;
    let mut out = Vec::new();
    let mut t = 0.0f64;
    while (t as u64) < until_us {
        out.push(t as u64);
        t += period * rng.uniform_range(0.9, 1.1);
    }
    out
}

/// Poisson arrivals at `rate_pps` packets per second.
pub fn poisson(rate_pps: f64, until_us: u64, rng: &mut SimRng) -> Vec<u64> {
    assert!(rate_pps > 0.0, "rate must be positive");
    let mean_gap = 1e6 / rate_pps;
    let mut out = Vec::new();
    let mut t = rng.exponential(mean_gap);
    while (t as u64) < until_us {
        out.push(t as u64);
        t += rng.exponential(mean_gap);
    }
    out
}

/// ON/OFF bursty arrivals: exponential ON periods (mean `mean_on_us`)
/// during which packets arrive at `on_rate_pps`, separated by exponential
/// OFF periods (mean `mean_off_us`).
pub fn bursty_onoff(
    on_rate_pps: f64,
    mean_on_us: f64,
    mean_off_us: f64,
    until_us: u64,
    rng: &mut SimRng,
) -> Vec<u64> {
    assert!(on_rate_pps > 0.0, "rate must be positive");
    let mean_gap = 1e6 / on_rate_pps;
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        let on_end = t + rng.exponential(mean_on_us);
        while t < on_end {
            if (t as u64) >= until_us {
                return out;
            }
            out.push(t as u64);
            t += rng.exponential(mean_gap);
        }
        t = on_end + rng.exponential(mean_off_us);
        if (t as u64) >= until_us {
            return out;
        }
    }
}

/// The diurnal office network-load profile used to reproduce Fig. 15.
///
/// Fig. 15 plots the building AP's packets-per-second between 12:00 and
/// 20:00: moderate at lunch, peaking mid-afternoon (~1000+ packets/s),
/// tailing off into the evening. The profile below is a piecewise-linear
/// envelope with those features.
#[derive(Debug, Clone, Copy, Default)]
pub struct OfficeLoadProfile;

impl OfficeLoadProfile {
    /// Mean offered load (packets/s) at `hour` (fractional, 24 h clock).
    pub fn load_pps(&self, hour: f64) -> f64 {
        // Anchor points (hour, pps) mirroring the Fig. 15 load curve.
        const ANCHORS: [(f64, f64); 7] = [
            (11.0, 250.0),
            (12.0, 400.0),
            (13.0, 550.0),
            (14.0, 750.0),
            (16.0, 1050.0),
            (18.0, 600.0),
            (20.0, 200.0),
        ];
        let h = hour.clamp(ANCHORS[0].0, ANCHORS[ANCHORS.len() - 1].0);
        for w in ANCHORS.windows(2) {
            let (h0, p0) = w[0];
            let (h1, p1) = w[1];
            if h <= h1 {
                let frac = (h - h0) / (h1 - h0);
                return p0 + frac * (p1 - p0);
            }
        }
        ANCHORS[ANCHORS.len() - 1].1
    }

    /// Poisson arrivals over a window of `duration_us` starting at `hour`,
    /// with the rate taken from the profile at the window start (windows in
    /// the Fig. 15 experiment are 10-minute slots, over which the load is
    /// approximately constant).
    pub fn arrivals(&self, hour: f64, duration_us: u64, rng: &mut SimRng) -> Vec<u64> {
        poisson(self.load_pps(hour), duration_us, rng)
    }
}

/// A Pandora-like audio stream: `bitrate_kbps` delivered in `packet_bytes`
/// packets arriving in periodic bursts (one burst per `burst_period_us`,
/// enough packets per burst to sustain the bitrate).
pub fn streaming(
    bitrate_kbps: f64,
    packet_bytes: usize,
    burst_period_us: u64,
    until_us: u64,
    rng: &mut SimRng,
) -> Vec<u64> {
    assert!(bitrate_kbps > 0.0 && packet_bytes > 0);
    let bits_per_burst = bitrate_kbps * 1e3 * (burst_period_us as f64 / 1e6);
    let pkts_per_burst = (bits_per_burst / (packet_bytes * 8) as f64).ceil() as usize;
    let mut out = Vec::new();
    let mut burst_start = 0u64;
    while burst_start < until_us {
        let mut t = burst_start as f64 + rng.uniform_range(0.0, 500.0);
        for _ in 0..pkts_per_burst {
            if (t as u64) >= until_us {
                break;
            }
            out.push(t as u64);
            t += rng.uniform_range(200.0, 500.0); // back-to-backish
        }
        burst_start += burst_period_us;
    }
    out.sort_unstable();
    out
}

/// Decorates a generator's arrival stream with a [`FaultPlan`]: outage
/// windows silence it, collapse/loss thin it, duplication thickens it.
/// `stream` names the stream (distinct stations must use distinct names
/// so their fault randomness is independent); what fired is recorded in
/// `events`. With an empty plan this is the identity.
pub fn apply_faults(
    arrivals: Vec<u64>,
    plan: &FaultPlan,
    stream: &str,
    events: &mut FaultEvents,
) -> Vec<u64> {
    if plan.is_empty() {
        arrivals
    } else {
        plan.apply_arrivals(&arrivals, stream, events)
    }
}

/// [`apply_faults`] plus observability: counts the offered and surviving
/// arrivals and the per-stream drop/duplicate deltas into `rec`
/// (`traffic.arrivals-offered`, `traffic.arrivals-delivered`,
/// `traffic.packets-dropped`, `traffic.packets-duplicated`). The decorated
/// stream is identical to [`apply_faults`]'s for the same inputs.
pub fn apply_faults_with(
    arrivals: Vec<u64>,
    plan: &FaultPlan,
    stream: &str,
    events: &mut FaultEvents,
    rec: &mut dyn Recorder,
) -> Vec<u64> {
    let offered = arrivals.len() as u64;
    let dropped_before = events.packets_dropped;
    let duplicated_before = events.packets_duplicated;
    let out = apply_faults(arrivals, plan, stream, events);
    rec.add("traffic.arrivals-offered", offered);
    rec.add("traffic.arrivals-delivered", out.len() as u64);
    rec.add(
        "traffic.packets-dropped",
        events.packets_dropped - dropped_before,
    );
    rec.add(
        "traffic.packets-duplicated",
        events.packets_duplicated - duplicated_before,
    );
    out
}

/// The highest aggregate arrival rate a [`WildTraffic`] may reach: one
/// arrival per microsecond, the resolution of its clock. Past it, arrivals
/// pile onto the same instant; an infinite rate never moves the clock.
pub const MAX_ARRIVAL_RATE_PPS: f64 = 1e6;

/// The "wild" ambient-traffic model: what the helper network looks like
/// when nobody is injecting packets for the tag's benefit.
///
/// Measured Wi-Fi idle periods are heavy-tailed — most gaps are short,
/// but the distribution's tail is Pareto-like, so multi-second silences
/// arrive regularly rather than exponentially rarely. The model
/// alternates exponential *active* periods (aggregate Poisson arrivals
/// from `stations` competing stations, capped at `capacity_pps`) with
/// Pareto(`gap_alpha`, `gap_xmin_us`) *idle* gaps, under an optional
/// diurnal load envelope. Small `gap_alpha` = heavier tail = nastier
/// traffic: at `gap_alpha ≤ 1` the gap distribution has infinite mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WildTraffic {
    /// Competing stations contributing load.
    pub stations: usize,
    /// Each station's packet rate while active (packets/s).
    pub per_station_pps: f64,
    /// Channel capacity cap on the aggregate rate (packets/s).
    pub capacity_pps: f64,
    /// Pareto tail index of the idle gaps (smaller = heavier tail).
    pub gap_alpha: f64,
    /// Minimum idle gap (µs) — the Pareto scale parameter.
    pub gap_xmin_us: f64,
    /// Mean active-period length (µs), exponentially distributed.
    pub mean_active_us: f64,
    /// Hour of day at t = 0 for the diurnal envelope (24 h clock).
    pub start_hour: f64,
    /// Apply the diurnal load envelope (off = stationary process).
    pub diurnal: bool,
}

impl Default for WildTraffic {
    fn default() -> Self {
        WildTraffic {
            stations: 6,
            per_station_pps: 150.0,
            capacity_pps: 3_000.0,
            gap_alpha: 2.0,
            gap_xmin_us: 3_000.0,
            mean_active_us: 60_000.0,
            start_hour: 14.0,
            diurnal: true,
        }
    }
}

impl WildTraffic {
    /// The bench "wild" preset: tail index 1.2 (deep heavy tail, long
    /// silences common), few stations. This is the regime where
    /// FEC-across-groups beats retransmission by construction — a
    /// single Pareto silence erases a burst of segments at once and
    /// ARQ pays a full poll + backoff round trip per recovery.
    pub fn wild() -> Self {
        WildTraffic {
            stations: 3,
            per_station_pps: 120.0,
            gap_alpha: 1.2,
            gap_xmin_us: 8_000.0,
            mean_active_us: 40_000.0,
            ..WildTraffic::default()
        }
    }

    /// Diurnal load factor in `[0.25, 1.0]` at `hour` — a sinusoid
    /// peaking mid-afternoon (16:00), bottoming out pre-dawn (04:00),
    /// the smooth analogue of [`OfficeLoadProfile`].
    fn load_factor(&self, hour: f64) -> f64 {
        if !self.diurnal {
            return 1.0;
        }
        let phase = (hour - 16.0) / 24.0 * 2.0 * std::f64::consts::PI;
        0.625 + 0.375 * phase.cos()
    }

    /// The aggregate arrival rate (packets/s) at simulated time `t_us`.
    fn rate_at(&self, t_us: u64) -> f64 {
        let hour = self.start_hour + t_us as f64 / 3.6e9;
        (self.stations as f64 * self.per_station_pps * self.load_factor(hour))
            .min(self.capacity_pps)
            .max(1.0)
    }

    /// The model's one validity rule: the first field outside its domain
    /// — a `per_station_pps`, `capacity_pps`, `gap_alpha` or
    /// `gap_xmin_us` that is not finite and positive, a `mean_active_us`
    /// that is not finite and non-negative, or a `capacity_pps` that lets
    /// the aggregate rate exceed [`MAX_ARRIVAL_RATE_PPS`] — or `None`.
    /// [`Self::arrivals`] needs it: a non-positive gap parameter fails the
    /// Pareto draw, a NaN `mean_active_us` stalls its clock for ever, and
    /// an unbounded rate keeps adding arrivals at one instant.
    pub fn invalid_field(&self) -> Option<&'static str> {
        let positive = |x: f64| x.is_finite() && x > 0.0;
        let peak_pps = (self.stations as f64 * self.per_station_pps).min(self.capacity_pps);
        [
            ("per_station_pps", positive(self.per_station_pps)),
            (
                "capacity_pps",
                positive(self.capacity_pps) && peak_pps <= MAX_ARRIVAL_RATE_PPS,
            ),
            ("gap_alpha", positive(self.gap_alpha)),
            ("gap_xmin_us", positive(self.gap_xmin_us)),
            (
                "mean_active_us",
                self.mean_active_us.is_finite() && self.mean_active_us >= 0.0,
            ),
        ]
        .into_iter()
        .find_map(|(field, ok)| (!ok).then_some(field))
    }

    /// Generates sorted arrival times in `[0, until_us)`. Deterministic
    /// in `rng`'s state like every other generator here.
    ///
    /// # Panics
    /// Panics if a field is out of its domain (see
    /// [`Self::invalid_field`]).
    pub fn arrivals(&self, until_us: u64, rng: &mut SimRng) -> Vec<u64> {
        if let Some(field) = self.invalid_field() {
            panic!("WildTraffic::{field} is out of its domain");
        }
        let mut out = Vec::new();
        let mut t = 0.0f64;
        loop {
            // Active period: Poisson arrivals at the (possibly diurnal)
            // aggregate rate.
            let active_end = t + rng.exponential(self.mean_active_us);
            while t < active_end {
                if (t as u64) >= until_us {
                    return out;
                }
                out.push(t as u64);
                let mean_gap = 1e6 / self.rate_at(t as u64);
                t += rng.exponential(mean_gap);
            }
            // Idle gap: the heavy tail.
            t = active_end + rng.pareto(self.gap_alpha, self.gap_xmin_us);
            if (t as u64) >= until_us {
                return out;
            }
        }
    }
}

/// What [`RateEstimator::measure`] reports about an arrival stream —
/// the inputs to the transport's code-rate rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficStats {
    /// Mean arrival rate over the horizon (packets/s).
    pub mean_pps: f64,
    /// Coefficient of variation of the inter-arrival gaps: ≈1 for
    /// Poisson, ≫1 for bursty/heavy-tailed streams.
    pub gap_cv: f64,
    /// Hill estimate of the gap distribution's tail index; small values
    /// (≤ 2) mean Pareto-like silences, large values a light tail.
    pub tail_index: f64,
    /// Longest observed gap (µs) — the worst silence a transfer must
    /// survive.
    pub max_gap_us: u64,
}

/// Measures the helper-packet arrival process the way a reader can:
/// watch the channel for a while, then summarise rate, burstiness and
/// the idle-gap tail. Pure function of the observed arrivals — no
/// model knowledge — so it works identically on synthetic and replayed
/// traces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateEstimator {
    /// Fraction of the largest gaps fed to the Hill tail estimator.
    pub tail_fraction: f64,
}

impl Default for RateEstimator {
    fn default() -> Self {
        RateEstimator {
            tail_fraction: 0.10,
        }
    }
}

impl RateEstimator {
    /// An estimator with the default 10 % Hill tail fraction.
    pub fn new() -> Self {
        RateEstimator::default()
    }

    /// Summarises `arrivals` (sorted, µs) observed over `horizon_us`.
    ///
    /// Fewer than 3 arrivals reports a starved channel: zero-ish rate,
    /// `gap_cv` 0 and a tail index of 1.0 (treat as maximally heavy —
    /// if the observation window saw nothing, assume the worst).
    pub fn measure(&self, arrivals: &[u64], horizon_us: u64) -> TrafficStats {
        let horizon_s = (horizon_us.max(1)) as f64 / 1e6;
        if arrivals.len() < 3 {
            return TrafficStats {
                mean_pps: arrivals.len() as f64 / horizon_s,
                gap_cv: 0.0,
                tail_index: 1.0,
                max_gap_us: horizon_us,
            };
        }
        let gaps: Vec<f64> = arrivals
            .windows(2)
            .map(|w| (w[1].saturating_sub(w[0])) as f64)
            .collect();
        let mean = bs_dsp::stats::mean(&gaps);
        let sd = bs_dsp::stats::variance(&gaps).sqrt();
        let gap_cv = if mean > 0.0 { sd / mean } else { 0.0 };
        let max_gap_us = gaps.iter().fold(0.0f64, |a, &g| a.max(g)) as u64;

        // Hill estimator over the top `tail_fraction` of the gaps:
        // α̂ = m / Σ ln(g_(i) / g_(m)), the maximum-likelihood tail
        // index of a Pareto sample.
        let mut sorted = gaps.clone();
        sorted.sort_by(|a, b| b.total_cmp(a));
        let m = ((sorted.len() as f64 * self.tail_fraction) as usize).clamp(2, sorted.len() - 1);
        let floor = sorted[m].max(1.0);
        let sum_log: f64 = sorted[..m].iter().map(|&g| (g.max(1.0) / floor).ln()).sum();
        let tail_index = if sum_log > 0.0 {
            m as f64 / sum_log
        } else {
            f64::INFINITY
        };

        TrafficStats {
            mean_pps: arrivals.len() as f64 / horizon_s,
            gap_cv,
            tail_index,
            max_gap_us,
        }
    }
}

/// Beacon schedule: one beacon every `interval_us` (the 802.11 default TBTT
/// is 102.4 ms), from 0 to `until_us`.
pub fn beacons(interval_us: u64, until_us: u64) -> Vec<u64> {
    assert!(interval_us > 0, "beacon interval must be positive");
    (0..)
        .map(|i| i * interval_us)
        .take_while(|&t| t < until_us)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bs_dsp::rng::Fnv1a64;

    fn rng() -> SimRng {
        SimRng::new(1337).stream("traffic-test")
    }

    #[test]
    fn cbr_rate_is_accurate() {
        let arr = cbr(1000.0, 1_000_000, &mut rng());
        assert!((950..=1050).contains(&arr.len()), "{}", arr.len());
        assert!(arr.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn poisson_rate_is_accurate() {
        let arr = poisson(500.0, 4_000_000, &mut rng());
        let rate = arr.len() as f64 / 4.0;
        assert!((450.0..=550.0).contains(&rate), "{rate}");
        assert!(arr.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn poisson_interarrival_cv_is_one() {
        // Coefficient of variation of exponential gaps ≈ 1.
        let arr = poisson(1000.0, 10_000_000, &mut rng());
        let gaps: Vec<f64> = arr.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        let mean = bs_dsp::stats::mean(&gaps);
        let cv = bs_dsp::stats::variance(&gaps).sqrt() / mean;
        assert!((0.9..=1.1).contains(&cv), "cv {cv}");
    }

    #[test]
    fn bursty_is_burstier_than_poisson() {
        let mut r = rng();
        let bursty = bursty_onoff(3000.0, 50_000.0, 150_000.0, 10_000_000, &mut r);
        let gaps: Vec<f64> = bursty.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        let mean = bs_dsp::stats::mean(&gaps);
        let cv = bs_dsp::stats::variance(&gaps).sqrt() / mean;
        assert!(cv > 1.5, "bursty cv {cv} should exceed poisson's 1.0");
    }

    #[test]
    fn bursty_respects_horizon() {
        let arr = bursty_onoff(1000.0, 10_000.0, 10_000.0, 100_000, &mut rng());
        assert!(arr.iter().all(|&t| t < 100_000));
    }

    #[test]
    fn office_profile_peaks_midafternoon() {
        let p = OfficeLoadProfile;
        let noon = p.load_pps(12.0);
        let peak = p.load_pps(16.0);
        let evening = p.load_pps(20.0);
        assert!(peak > noon, "peak {peak} noon {noon}");
        assert!(peak > evening);
        assert!((100.0..=1200.0).contains(&noon));
        assert!(peak > 900.0, "peak {peak}");
    }

    #[test]
    fn office_profile_clamps_out_of_range() {
        let p = OfficeLoadProfile;
        assert_eq!(p.load_pps(3.0), p.load_pps(11.0));
        assert_eq!(p.load_pps(23.0), p.load_pps(20.0));
    }

    #[test]
    fn office_arrivals_track_profile() {
        let p = OfficeLoadProfile;
        let mut r = rng();
        let lunch = p.arrivals(12.0, 2_000_000, &mut r).len() as f64 / 2.0;
        let peak = p.arrivals(16.0, 2_000_000, &mut r).len() as f64 / 2.0;
        assert!(peak > lunch * 1.5, "peak {peak} lunch {lunch}");
    }

    #[test]
    fn streaming_sustains_bitrate() {
        // 128 kbps with 500-byte packets = 32 packets/s.
        let arr = streaming(128.0, 500, 100_000, 5_000_000, &mut rng());
        let pps = arr.len() as f64 / 5.0;
        assert!((30.0..=45.0).contains(&pps), "pps {pps}");
    }

    #[test]
    fn beacons_are_exactly_periodic() {
        let b = beacons(102_400, 1_024_000);
        assert_eq!(b.len(), 10);
        assert!(b.windows(2).all(|w| w[1] - w[0] == 102_400));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn beacons_zero_interval_panics() {
        beacons(0, 1000);
    }

    #[test]
    fn generators_are_deterministic() {
        let a = poisson(700.0, 1_000_000, &mut SimRng::new(5));
        let b = poisson(700.0, 1_000_000, &mut SimRng::new(5));
        assert_eq!(a, b);
    }

    /// FNV-1a over the arrival times — the byte-stability fingerprint
    /// for the golden-regression pins below.
    fn fnv(xs: &[u64]) -> u64 {
        let mut h = Fnv1a64::new();
        for &x in xs {
            h.write_u64(x);
        }
        h.finish()
    }

    #[test]
    fn pandora_and_beacon_goldens_are_byte_unchanged() {
        // Adding WildTraffic/RateEstimator must not perturb the existing
        // generators: these fingerprints pin the exact arrival streams
        // (values captured before the wild-traffic code landed).
        let s = streaming(128.0, 500, 100_000, 5_000_000, &mut rng());
        assert_eq!(s.len(), 200);
        assert_eq!(fnv(&s), 0x230288ec57db73ac, "streaming stream drifted");
        let b = beacons(102_400, 10_240_000);
        assert_eq!(b.len(), 100);
        assert_eq!(fnv(&b), 0xd1350f27a3cb077f, "beacon stream drifted");
        let mut rng2 = SimRng::new(2024).stream("pandora");
        let p = streaming(192.0, 1000, 250_000, 8_000_000, &mut rng2);
        assert_eq!(p.len(), 192);
        assert_eq!(fnv(&p), 0xa1af412dd48b6799, "pandora stream drifted");
    }

    #[test]
    fn wild_traffic_is_sorted_bounded_and_deterministic() {
        let w = WildTraffic::wild();
        let a = w.arrivals(5_000_000, &mut SimRng::new(3).stream("wild"));
        let b = w.arrivals(5_000_000, &mut SimRng::new(3).stream("wild"));
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.iter().all(|&t| t < 5_000_000));
        assert!(a.windows(2).all(|g| g[0] <= g[1]));
    }

    #[test]
    fn wild_gap_tail_index_matches_configuration() {
        // Statistical pin: the Hill estimate over the generated idle
        // gaps must recover the configured Pareto tail index within
        // tolerance. The estimator sees active-period exponential gaps
        // too, but the top decile is dominated by the Pareto silences.
        for (alpha, lo, hi) in [(1.2f64, 0.8, 1.7), (2.0, 1.3, 2.8)] {
            let w = WildTraffic {
                gap_alpha: alpha,
                diurnal: false,
                ..WildTraffic::wild()
            };
            let mut r = SimRng::new(11)
                .stream("wild-tail")
                .substream(alpha.to_bits());
            let arr = w.arrivals(600_000_000, &mut r);
            let stats = RateEstimator::new().measure(&arr, 600_000_000);
            assert!(
                (lo..=hi).contains(&stats.tail_index),
                "alpha {alpha}: hill {} outside [{lo}, {hi}]",
                stats.tail_index
            );
            assert!(
                stats.gap_cv > 1.5,
                "wild cv {} should be bursty",
                stats.gap_cv
            );
        }
    }

    #[test]
    fn wild_mean_rate_matches_configuration() {
        // Second statistical pin: the realised mean rate tracks the
        // configured active rate × duty cycle within tolerance.
        let w = WildTraffic {
            diurnal: false,
            gap_alpha: 2.5, // finite-mean tail so duty cycle converges
            ..WildTraffic::wild()
        };
        let mut r = SimRng::new(4).stream("wild-rate");
        let horizon = 400_000_000u64;
        let arr = w.arrivals(horizon, &mut r);
        let stats = RateEstimator::new().measure(&arr, horizon);
        let active_rate = (w.stations as f64 * w.per_station_pps).min(w.capacity_pps);
        // Duty cycle = mean_active / (mean_active + mean_gap), with the
        // Pareto mean gap α·xmin/(α−1).
        let mean_gap = w.gap_alpha * w.gap_xmin_us / (w.gap_alpha - 1.0);
        let duty = w.mean_active_us / (w.mean_active_us + mean_gap);
        let expect = active_rate * duty;
        assert!(
            (stats.mean_pps - expect).abs() / expect < 0.25,
            "mean {} vs expected {expect}",
            stats.mean_pps
        );
    }

    #[test]
    fn poisson_tail_reads_light_and_wild_reads_heavy() {
        // The discrimination the code-rate rule depends on: the
        // estimator must separate Poisson from wild traffic.
        let mut r = rng();
        let horizon = 120_000_000u64;
        let p = poisson(400.0, horizon, &mut r);
        let sp = RateEstimator::new().measure(&p, horizon);
        let w = WildTraffic::wild().arrivals(horizon, &mut r);
        let sw = RateEstimator::new().measure(&w, horizon);
        assert!(
            sp.tail_index > 2.5,
            "poisson hill {} should read light-tailed",
            sp.tail_index
        );
        assert!(
            sw.tail_index < 2.0,
            "wild hill {} should read heavy-tailed",
            sw.tail_index
        );
        assert!((0.9..=1.1).contains(&sp.gap_cv), "poisson cv {}", sp.gap_cv);
        assert!(sw.max_gap_us > sp.max_gap_us);
    }

    #[test]
    fn estimator_handles_starved_streams() {
        let s = RateEstimator::new().measure(&[], 1_000_000);
        assert_eq!(s.mean_pps, 0.0);
        assert_eq!(s.tail_index, 1.0, "empty window must read as worst case");
        assert_eq!(s.max_gap_us, 1_000_000);
        let s2 = RateEstimator::new().measure(&[5, 17], 1_000_000);
        assert!(s2.mean_pps > 0.0);
        assert_eq!(s2.tail_index, 1.0);
    }

    #[test]
    fn diurnal_envelope_shapes_the_rate() {
        let w = WildTraffic::default();
        assert!(w.load_factor(16.0) > w.load_factor(4.0));
        assert!((w.load_factor(16.0) - 1.0).abs() < 1e-9);
        assert!((w.load_factor(4.0) - 0.25).abs() < 1e-9);
        let flat = WildTraffic {
            diurnal: false,
            ..WildTraffic::default()
        };
        assert_eq!(flat.load_factor(16.0), 1.0);
        assert_eq!(flat.load_factor(4.0), 1.0);
        // rate_at caps at capacity.
        let hot = WildTraffic {
            stations: 100,
            per_station_pps: 1_000.0,
            ..WildTraffic::default()
        };
        assert_eq!(hot.rate_at(0), hot.capacity_pps);
    }
}
