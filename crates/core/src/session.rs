//! The high-level reader session: what a downstream application actually
//! calls.
//!
//! The lower modules expose each mechanism separately (encoder, decoder,
//! protocol frames, link simulation). A [`Reader`] composes them into the
//! paper's operational loop:
//!
//! 1. measure the network load and pick the tag's uplink rate (§5's N/M
//!    rule with a conservative margin);
//! 2. transmit the query on the downlink, retrying until the tag responds
//!    ("if the Wi-Fi Backscatter tag does not respond to the Wi-Fi
//!    reader's query, the reader re-transmits its packet until it gets a
//!    response", §4.1);
//! 3. decode the uplink response, falling back to the long-range coded
//!    mode if the plain response fails repeatedly;
//! 4. ACK.
//!
//! The session runs against the same simulated channel as everything
//! else; on real hardware the two `run_*` call sites are the only code
//! that would change.

use crate::error as err;
use crate::link::{DegradationReport, DownlinkConfig, LinkConfig, Measurement, UplinkRun};
use crate::phy::{run_downlink_frame_with, run_uplink_with, PhyConfig};
use crate::protocol::{Ack, Query, RetryPolicy};
use bs_channel::faults::FaultPlan;
use bs_dsp::obs::{NullRecorder, Recorder};
use bs_dsp::SimRng;
use bs_tag::energy::{Capacitor, EnergyConfig, LISTEN_LOAD_UW, RESPOND_LOAD_UW};
use bs_tag::frame::DownlinkFrame;

/// Session configuration.
#[derive(Debug, Clone)]
pub struct ReaderConfig {
    /// Tag↔reader distance in the simulated deployment (m).
    pub tag_distance_m: f64,
    /// Downlink bit rate (bps).
    pub downlink_bps: u64,
    /// Measured/assumed helper load (packets/s) — drives §5 rate selection.
    pub helper_pps: f64,
    /// Channel measurements the reader has access to.
    pub measurement: Measurement,
    /// Packets per bit the decoder wants (M in the §5 rule).
    pub pkts_per_bit: u32,
    /// Conservative margin for rate selection (< 1).
    pub rate_margin: f64,
    /// Maximum downlink query attempts before giving up.
    pub max_query_attempts: u32,
    /// Maximum uplink decode attempts per accepted query.
    pub max_response_attempts: u32,
    /// Code length for the long-range fallback (1 disables the fallback).
    pub fallback_code_length: usize,
    /// Injected faults; [`FaultPlan::none`] leaves the session untouched.
    pub faults: FaultPlan,
    /// Backoff schedule and time budget bounding the retry loops.
    pub retry: RetryPolicy,
    /// Which PHY mode the session's link exchanges run
    /// (default: [`PhyConfig::Presence`]). Rate selection, response
    /// airtime budgeting and the long-range fallback all follow this
    /// mode's [`crate::phy::PhyCapabilities`].
    pub phy: PhyConfig,
    /// The simulated tag's energy supply. `None` (the default) models an
    /// immortal tag and leaves the session bit-identical to the
    /// pre-energy behaviour. With a supply, a browned-out tag simply
    /// misses its poll: the reader observes silence and the existing
    /// [`RetryPolicy`] machinery does the rest.
    pub tag_energy: Option<EnergyConfig>,
}

impl Default for ReaderConfig {
    fn default() -> Self {
        ReaderConfig {
            tag_distance_m: 0.3,
            downlink_bps: 20_000,
            helper_pps: 1_500.0,
            measurement: Measurement::Csi,
            pkts_per_bit: 5,
            rate_margin: 0.8,
            max_query_attempts: 5,
            max_response_attempts: 3,
            fallback_code_length: 20,
            faults: FaultPlan::none(),
            retry: RetryPolicy::default(),
            phy: PhyConfig::Presence,
            tag_energy: None,
        }
    }
}

impl ReaderConfig {
    /// The first field no session can run with, if any: what
    /// [`err::SessionError::InvalidConfig`] names. `rate_margin` and
    /// `tag_energy` take the gateway's domains: a finite, positive
    /// margin, and a supply inside [`EnergyConfig::is_valid`].
    fn invalid_field(&self) -> Option<&'static str> {
        if !(self.helper_pps.is_finite() && self.helper_pps > 0.0) {
            Some("helper_pps")
        } else if !(self.rate_margin.is_finite() && self.rate_margin > 0.0) {
            Some("rate_margin")
        } else if self.tag_energy.is_some_and(|e| !e.is_valid()) {
            Some("tag_energy")
        } else if self.pkts_per_bit == 0 {
            Some("pkts_per_bit")
        } else if self.downlink_bps == 0 {
            Some("downlink_bps")
        } else if !(self.tag_distance_m.is_finite() && self.tag_distance_m >= 0.0) {
            Some("tag_distance_m")
        } else {
            None
        }
    }

    /// Sets the tag↔reader distance (default: 0.3 m).
    pub fn with_distance_m(mut self, m: f64) -> Self {
        self.tag_distance_m = m;
        self
    }

    /// Sets the reader measurement (default: [`Measurement::Csi`]).
    pub fn with_measurement(mut self, measurement: Measurement) -> Self {
        self.measurement = measurement;
        self
    }

    /// Sets the injected fault plan (default: [`FaultPlan::none`]).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the PHY mode (default: [`PhyConfig::Presence`]).
    pub fn with_phy(mut self, phy: PhyConfig) -> Self {
        self.phy = phy;
        self
    }
}

/// Outcome of a successful query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The decoded payload bits.
    pub payload: Vec<bool>,
    /// The uplink rate the session commanded (bps).
    pub bit_rate_bps: u64,
    /// Downlink attempts used.
    pub query_attempts: u32,
    /// Uplink attempts used.
    pub response_attempts: u32,
    /// True if the long-range coded fallback was needed.
    pub used_fallback: bool,
    /// Faults and mitigations aggregated over every attempt.
    pub degradation: DegradationReport,
    /// Estimated time the session spent (airtime + backoff, µs) — what
    /// the [`RetryPolicy`] budget is charged against.
    pub waited_us: u64,
}

/// A reader session.
#[derive(Debug, Clone)]
pub struct Reader {
    cfg: ReaderConfig,
    rng: SimRng,
    /// The simulated tag's storage capacitor, present iff the config
    /// carries a supply; persists across queries so a poll sequence sees
    /// the tag charge and discharge.
    tag_cap: Option<Capacitor>,
}

impl Reader {
    /// Creates a session. A supply outside [`EnergyConfig::is_valid`]
    /// builds no capacitor, so this never panics; [`Self::query`]
    /// refuses the config instead.
    pub fn new(cfg: ReaderConfig, seed: u64) -> Self {
        Reader {
            tag_cap: cfg
                .tag_energy
                .filter(EnergyConfig::is_valid)
                .map(|e| Capacitor::new(e.capacitor)),
            cfg,
            rng: SimRng::new(seed).stream("reader-session"),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ReaderConfig {
        &self.cfg
    }

    /// Lets simulated wall-clock pass between queries: the tag harvests
    /// (at listening load when its policy keeps the rx chain on) and the
    /// capacitor state machine runs. A no-op for energy-less sessions.
    fn idle_us(&mut self, span_us: u64) {
        let listening = self.tag_can_listen();
        self.advance_tag(span_us, if listening { LISTEN_LOAD_UW } else { 0.0 });
    }

    fn advance_tag(&mut self, span_us: u64, load_uw: f64) {
        if let (Some(e), Some(c)) = (self.cfg.tag_energy, self.tag_cap.as_mut()) {
            c.advance(span_us as f64, e.harvest_uw, load_uw);
        }
    }

    fn tag_can_listen(&self) -> bool {
        match (self.cfg.tag_energy, self.tag_cap.as_ref()) {
            (Some(e), Some(c)) => e.policy.can_listen(c.state()),
            _ => true,
        }
    }

    fn tag_can_respond(&self) -> bool {
        match (self.cfg.tag_energy, self.tag_cap.as_ref()) {
            (Some(e), Some(c)) => e.policy.can_respond(c.state()),
            _ => true,
        }
    }

    /// Queries `tag_address` for `payload_bits` bits and returns the
    /// decoded payload. `tag_payload` is what the simulated tag will send
    /// (on hardware this is, of course, unknown).
    pub fn query(
        &mut self,
        tag_address: u8,
        tag_payload: &[bool],
    ) -> Result<QueryOutcome, err::SessionError> {
        self.query_with(tag_address, tag_payload, &mut NullRecorder)
    }

    /// [`Self::query`] plus observability threading through every downlink
    /// and uplink attempt, with session-level counters
    /// `session.query-attempts`, `session.response-attempts` and
    /// `session.fallback-engaged`. The session's decisions and RNG draws
    /// are bit-identical whatever the recorder. A config no session can
    /// run with is refused with [`err::SessionError::InvalidConfig`]
    /// before anything is sent or recorded.
    pub fn query_with(
        &mut self,
        tag_address: u8,
        tag_payload: &[bool],
        rec: &mut dyn Recorder,
    ) -> Result<QueryOutcome, err::SessionError> {
        if let Some(field) = self.cfg.invalid_field() {
            return Err(err::SessionError::InvalidConfig { field });
        }
        // §5: pick the uplink rate from the network conditions — in the
        // configured PHY's own currency (packets per bit for presence,
        // symbols per bit for codeword translation), so no PHY's step
        // table is baked into the session.
        let caps = self.cfg.phy.capabilities();
        let bit_rate = caps.select_rate_bps(
            self.cfg.helper_pps,
            self.cfg.pkts_per_bit,
            self.cfg.rate_margin,
        );

        // §4.1: retransmit the query until the tag decodes it — with
        // exponential backoff between attempts and a hard time budget so
        // a persistent fault degrades the session instead of hanging it.
        let retry = self.cfg.retry;
        let mut report = DegradationReport::default();
        let mut waited_us: u64 = 0;
        let query = Query {
            tag_address,
            payload_bits: tag_payload.len() as u16,
            // The wire format encodes an index into the presence rate
            // table; the capabilities map the selected rate onto an
            // encodable one (identity for presence, pinned for codeword
            // — see `PhyCapabilities::wire_rate_bps`).
            bit_rate_bps: caps.wire_rate_bps(bit_rate),
            code_length: 1,
        };
        // Infallible here: `wire_rate_bps` only returns rates from
        // `SUPPORTED_RATES_BPS`, all of which encode.
        let query_frame = query
            .to_frame()
            .expect("wire_rate_bps returns only supported rates");
        let query_air_us = DownlinkFrame::on_air_len(query_frame.payload.len()) as u64 * 1_000_000
            / self.cfg.downlink_bps.max(1);
        let mut query_attempts = 0;
        let mut delivered = false;
        while query_attempts < self.cfg.max_query_attempts {
            if query_attempts > 0 {
                let backoff = retry.backoff_us(query_attempts);
                waited_us += backoff;
                // The tag keeps harvesting through the reader's backoff.
                self.idle_us(backoff);
                if !retry.within_budget(waited_us) {
                    break;
                }
            }
            query_attempts += 1;
            rec.add("session.query-attempts", 1);
            waited_us += query_air_us;
            // Energy co-simulation: the tag harvests over the query
            // airtime; if its policy keeps the radio off, the reader
            // observes pure silence — no downlink exchange is even
            // simulated, and the retry loop above supplies the reader's
            // reaction (backoff, budget, eventual TagUnresponsive).
            let tag_listening = self.tag_can_listen();
            self.advance_tag(
                query_air_us,
                if tag_listening { LISTEN_LOAD_UW } else { 0.0 },
            );
            if !tag_listening {
                rec.add("session.energy-missed-polls", 1);
                continue;
            }
            let dl = DownlinkConfig::fig17(
                self.cfg.tag_distance_m,
                self.cfg.downlink_bps,
                self.rng.next_u64(),
            )
            .with_faults(self.cfg.faults.clone());
            let (got, dl_report) = run_downlink_frame_with(&dl, &query_frame, rec);
            report.merge(&dl_report);
            if let Some(frame) = got {
                if Query::from_frame(&frame).as_ref() == Some(&query) {
                    delivered = true;
                    break;
                }
            }
        }
        if !delivered {
            return Err(err::SessionError::TagUnresponsive {
                attempts: query_attempts,
            });
        }

        // Decode the response; retry (backed off, budget-gated), then fall
        // back to the coded mode.
        let mut best_errors = u64::MAX;
        let mut response_attempts = 0;
        for attempt in 0..self.cfg.max_response_attempts {
            if attempt > 0 {
                let backoff = retry.backoff_us(attempt);
                waited_us += backoff;
                self.idle_us(backoff);
                if !retry.within_budget(waited_us) {
                    break;
                }
            }
            response_attempts += 1;
            rec.add("session.response-attempts", 1);
            // The capabilities own the per-mode airtime formula: only
            // the presence capture has a 1.2 s conditioning lead.
            let response_air_us = caps.response_air_us(tag_payload.len(), bit_rate, 1);
            waited_us += response_air_us;
            // A tag that cannot fund its transmitter stays silent for
            // this attempt (it may still be listening and charging).
            let tag_responding = self.tag_can_respond();
            self.advance_tag(
                response_air_us,
                if tag_responding {
                    RESPOND_LOAD_UW
                } else if self.tag_can_listen() {
                    LISTEN_LOAD_UW
                } else {
                    0.0
                },
            );
            if !tag_responding {
                rec.add("session.energy-missed-polls", 1);
                continue;
            }
            let run = self.run_response(tag_payload, bit_rate, 1, rec);
            report.merge(&run.degradation);
            if run.perfect() {
                report.merge(&self.ack(tag_address, rec));
                return Ok(QueryOutcome {
                    payload: tag_payload.to_vec(),
                    bit_rate_bps: bit_rate,
                    query_attempts,
                    response_attempts,
                    used_fallback: false,
                    degradation: report,
                    waited_us,
                });
            }
            best_errors = best_errors.min(run.ber.errors());
        }

        // Long-range fallback (§3.4), if this PHY has one, it is enabled,
        // and the budget affords it. Orthogonal chip spreading is a
        // presence-mode mechanism, so `PhyCapabilities::coded_fallback`
        // guards it, not `fallback_code_length` alone.
        if caps.coded_fallback
            && self.cfg.fallback_code_length > 1
            && retry.within_budget(waited_us)
            && self.tag_can_respond()
        {
            response_attempts += 1;
            rec.add("session.response-attempts", 1);
            rec.add("session.fallback-engaged", 1);
            let fallback_air_us =
                caps.response_air_us(tag_payload.len(), bit_rate, self.cfg.fallback_code_length);
            waited_us += fallback_air_us;
            self.advance_tag(fallback_air_us, RESPOND_LOAD_UW);
            let run = self.run_response(tag_payload, bit_rate, self.cfg.fallback_code_length, rec);
            report.merge(&run.degradation);
            if run.perfect() {
                report.merge(&self.ack(tag_address, rec));
                return Ok(QueryOutcome {
                    payload: tag_payload.to_vec(),
                    bit_rate_bps: bit_rate,
                    query_attempts,
                    response_attempts,
                    used_fallback: true,
                    degradation: report,
                    waited_us,
                });
            }
            best_errors = best_errors.min(run.ber.errors());
        }

        Err(err::SessionError::ResponseGarbled {
            best_bit_errors: best_errors,
        })
    }

    /// One uplink exchange at the current deployment geometry.
    ///
    /// Every retry/fallback attempt here is a *fresh* capture (new seed,
    /// new packets), so these attempts share nothing. Inside one
    /// exchange, [`run_uplink_with`] shares what it can: one
    /// [`crate::series::SlotIndex`] per capture serves every
    /// drift-stretch re-decode of it, and a rate step-down re-captures
    /// with the same seed, copying the rows the capture before it kept
    /// wherever the tag's state is the same at both rates.
    fn run_response(
        &mut self,
        payload: &[bool],
        bit_rate: u64,
        code_length: usize,
        rec: &mut dyn Recorder,
    ) -> UplinkRun {
        let mut cfg = LinkConfig::fig10(
            self.cfg.tag_distance_m,
            bit_rate,
            self.cfg.pkts_per_bit,
            self.rng.next_u64(),
        );
        cfg.helper_pps = self.cfg.helper_pps;
        cfg.measurement = self.cfg.measurement;
        cfg.payload = payload.to_vec();
        cfg.code_length = code_length;
        cfg.faults = self.cfg.faults.clone();
        // A session always arms the link's mitigations.
        cfg.mitigations = true;
        cfg.phy = self.cfg.phy;
        run_uplink_with(&cfg, rec)
    }

    /// Sends the ACK (best effort; §4.1 notes it is a single short
    /// message) and reports what faults hit it.
    fn ack(&mut self, tag_address: u8, rec: &mut dyn Recorder) -> DegradationReport {
        let dl = DownlinkConfig::fig17(
            self.cfg.tag_distance_m,
            self.cfg.downlink_bps,
            self.rng.next_u64(),
        )
        .with_faults(self.cfg.faults.clone());
        let (_, report) = run_downlink_frame_with(&dl, &Ack { tag_address }.to_frame(), rec);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::{Reader, ReaderConfig};
    use crate::error::SessionError;

    fn payload(n: usize) -> Vec<bool> {
        (0..n).map(|i| (i * 11) % 4 < 2).collect()
    }

    #[test]
    fn close_range_query_succeeds_first_try() {
        let mut r = Reader::new(ReaderConfig::default(), 1);
        let p = payload(24);
        let out = r.query(0x07, &p).expect("query failed");
        assert_eq!(out.payload, p);
        assert_eq!(out.query_attempts, 1);
        assert!(!out.used_fallback);
        assert!(out.bit_rate_bps >= 100);
    }

    #[test]
    fn rate_selection_follows_load() {
        let mut slow = Reader::new(
            ReaderConfig {
                helper_pps: 600.0,
                ..Default::default()
            },
            2,
        );
        let mut fast = Reader::new(
            ReaderConfig {
                helper_pps: 6_000.0,
                ..Default::default()
            },
            3,
        );
        let p = payload(16);
        let a = slow.query(1, &p).unwrap();
        let b = fast.query(1, &p).unwrap();
        assert!(
            b.bit_rate_bps > a.bit_rate_bps,
            "{} vs {}",
            b.bit_rate_bps,
            a.bit_rate_bps
        );
    }

    #[test]
    fn mid_range_uses_fallback() {
        // 1.3 m: the plain decoder is unreliable, the L=20 fallback works.
        let mut r = Reader::new(
            ReaderConfig {
                tag_distance_m: 1.3,
                pkts_per_bit: 10,
                max_response_attempts: 1,
                fallback_code_length: 24,
                ..Default::default()
            },
            4,
        );
        let p = payload(12);
        match r.query(2, &p) {
            Ok(out) => {
                assert_eq!(out.payload, p);
                // Either the plain attempt got lucky or the fallback fired;
                // both count, but across seeds the fallback dominates.
            }
            Err(e) => panic!("query failed at 1.3 m: {e}"),
        }
    }

    #[test]
    fn out_of_downlink_range_reports_unresponsive() {
        let mut r = Reader::new(
            ReaderConfig {
                tag_distance_m: 6.0, // far past the downlink's ~3 m
                max_query_attempts: 3,
                ..Default::default()
            },
            5,
        );
        match r.query(3, &payload(8)) {
            Err(SessionError::TagUnresponsive { attempts }) => assert_eq!(attempts, 3),
            other => panic!("expected TagUnresponsive, got {other:?}"),
        }
    }

    #[test]
    fn marginal_downlink_retries_then_succeeds() {
        // 2.9 m: some query attempts fail, retries recover.
        let mut r = Reader::new(
            ReaderConfig {
                tag_distance_m: 2.9,
                max_query_attempts: 30,
                // Uplink at 2.9 m needs the coded fallback generously.
                fallback_code_length: 80,
                pkts_per_bit: 10,
                max_response_attempts: 1,
                ..Default::default()
            },
            6,
        );
        match r.query(4, &payload(8)) {
            Ok(out) => assert!(out.query_attempts >= 1),
            // Garbled uplink at 2.9 m is acceptable; unresponsive downlink
            // with 30 attempts would indicate a retry bug.
            Err(SessionError::ResponseGarbled { .. }) => {}
            Err(e) => panic!("downlink retries failed: {e}"),
        }
    }

    #[test]
    fn observed_query_matches_plain_and_profiles() {
        use bs_dsp::obs::{MemRecorder, NullRecorder};
        let p = payload(24);
        let mut plain = Reader::new(ReaderConfig::default(), 1);
        let mut observed = Reader::new(ReaderConfig::default(), 1);
        let a = plain
            .query_with(0x07, &p, &mut NullRecorder)
            .expect("plain query failed");
        let mut rec = MemRecorder::new();
        let b = observed
            .query_with(0x07, &p, &mut rec)
            .expect("observed query failed");
        assert_eq!(a.payload, b.payload);
        assert_eq!(a.query_attempts, b.query_attempts);
        assert_eq!(a.waited_us, b.waited_us);
        assert_eq!(a.degradation, b.degradation);
        let obs = rec.into_report();
        assert!(obs.counter("session.query-attempts") >= 1);
        assert!(obs.counter("session.response-attempts") >= 1);
        assert!(!obs.spans.is_empty(), "expected stage spans");
    }

    #[test]
    fn builders_configure_session() {
        use crate::link::Measurement;
        let cfg = ReaderConfig::default()
            .with_distance_m(1.1)
            .with_measurement(Measurement::Rssi);
        assert_eq!(cfg.tag_distance_m, 1.1);
        assert_eq!(cfg.measurement, Measurement::Rssi);
    }

    #[test]
    fn always_powered_energy_matches_energy_less_session() {
        use bs_tag::energy::EnergyConfig;
        let p = payload(24);
        let mut bare = Reader::new(ReaderConfig::default(), 1);
        let mut powered = Reader::new(
            ReaderConfig {
                tag_energy: Some(EnergyConfig::always_powered()),
                ..ReaderConfig::default()
            },
            1,
        );
        let a = bare.query(0x07, &p).expect("bare query failed");
        let b = powered.query(0x07, &p).expect("powered query failed");
        assert_eq!(a.payload, b.payload);
        assert_eq!(a.query_attempts, b.query_attempts);
        assert_eq!(a.waited_us, b.waited_us);
        assert_eq!(a.degradation, b.degradation);
    }

    #[test]
    fn dead_tag_misses_every_poll() {
        use bs_dsp::obs::MemRecorder;
        use bs_tag::energy::{CapacitorConfig, EnergyConfig, EnergyPolicy};
        let mut r = Reader::new(
            ReaderConfig {
                tag_energy: Some(EnergyConfig {
                    capacitor: CapacitorConfig {
                        initial_fraction: 0.0,
                        ..CapacitorConfig::default()
                    },
                    harvest_uw: 0.0,
                    policy: EnergyPolicy::SleepUntilCharged,
                }),
                ..ReaderConfig::default()
            },
            1,
        );
        let mut rec = MemRecorder::new();
        match r.query_with(0x07, &payload(8), &mut rec) {
            Err(SessionError::TagUnresponsive { attempts }) => {
                assert_eq!(attempts, ReaderConfig::default().max_query_attempts)
            }
            other => panic!("expected TagUnresponsive, got {other:?}"),
        }
        let obs = rec.into_report();
        assert_eq!(
            obs.counter("session.energy-missed-polls"),
            u64::from(ReaderConfig::default().max_query_attempts),
            "every poll against a dead tag must be a recorded miss"
        );
    }

    #[test]
    fn charging_tag_recovers_across_poll_sequence() {
        use bs_tag::energy::{CapacitorConfig, EnergyConfig, EnergyPolicy, EnergyState};
        // Start flat with a strong harvest: early polls miss, and after
        // enough idle time the tag wakes and answers.
        let mut r = Reader::new(
            ReaderConfig {
                tag_energy: Some(EnergyConfig {
                    capacitor: CapacitorConfig {
                        initial_fraction: 0.0,
                        ..CapacitorConfig::default()
                    },
                    harvest_uw: 60.0,
                    policy: EnergyPolicy::SleepUntilCharged,
                }),
                ..ReaderConfig::default()
            },
            1,
        );
        assert!(r.query(0x07, &payload(8)).is_err(), "flat tag must miss");
        // ~3 s at ~59 µW net fills well past the 120 µJ wake threshold.
        r.idle_us(3_000_000);
        assert_eq!(r.tag_cap.as_ref().unwrap().state(), EnergyState::Awake);
        let out = r
            .query(0x07, &payload(8))
            .expect("recovered tag must answer");
        assert_eq!(out.payload, payload(8));
    }

    #[test]
    fn invalid_configs_are_refused_before_any_capture() {
        use bs_dsp::obs::MemRecorder;
        use bs_tag::energy::EnergyConfig;
        type Break = fn(&mut ReaderConfig);
        let table: [(&str, Break); 18] = [
            ("helper_pps", |c| c.helper_pps = f64::NAN),
            ("helper_pps", |c| c.helper_pps = f64::INFINITY),
            ("helper_pps", |c| c.helper_pps = 0.0),
            ("helper_pps", |c| c.helper_pps = -5.0),
            ("rate_margin", |c| c.rate_margin = f64::NAN),
            ("rate_margin", |c| c.rate_margin = f64::INFINITY),
            ("rate_margin", |c| c.rate_margin = 0.0),
            ("rate_margin", |c| c.rate_margin = -0.5),
            ("tag_energy", |c| {
                let mut e = EnergyConfig::harvesting(60.0);
                e.capacitor.capacitance_uf = 0.0;
                c.tag_energy = Some(e);
            }),
            ("tag_energy", |c| {
                let mut e = EnergyConfig::harvesting(60.0);
                e.capacitor.brownout_fraction = e.capacitor.wake_fraction;
                c.tag_energy = Some(e);
            }),
            ("tag_energy", |c| {
                let mut e = EnergyConfig::harvesting(60.0);
                e.capacitor.voltage = f64::NAN;
                c.tag_energy = Some(e);
            }),
            ("tag_energy", |c| {
                c.tag_energy = Some(EnergyConfig::harvesting(f64::NAN))
            }),
            ("tag_energy", |c| {
                c.tag_energy = Some(EnergyConfig::harvesting(-1.0))
            }),
            ("pkts_per_bit", |c| c.pkts_per_bit = 0),
            ("downlink_bps", |c| c.downlink_bps = 0),
            ("tag_distance_m", |c| c.tag_distance_m = f64::NAN),
            ("tag_distance_m", |c| c.tag_distance_m = f64::INFINITY),
            ("tag_distance_m", |c| c.tag_distance_m = -1.0),
        ];
        for (field, break_it) in table {
            let mut cfg = ReaderConfig::default();
            break_it(&mut cfg);
            let mut rec = MemRecorder::new();
            let got = Reader::new(cfg.clone(), 1).query_with(0x07, &payload(8), &mut rec);
            assert_eq!(
                got.err(),
                Some(SessionError::InvalidConfig { field }),
                "{cfg:?}"
            );
            let obs = rec.into_report();
            assert!(obs.spans.is_empty(), "{field}: something ran: {obs:?}");
            assert!(
                SessionError::InvalidConfig { field }
                    .to_string()
                    .contains(field),
                "{field}"
            );
        }
        // The edges of each range still run.
        let edge = ReaderConfig {
            tag_distance_m: 0.0,
            pkts_per_bit: 1,
            rate_margin: f64::MIN_POSITIVE,
            tag_energy: Some(EnergyConfig::harvesting(0.0)),
            ..ReaderConfig::default()
        };
        assert_eq!(edge.invalid_field(), None);
        let powered = ReaderConfig {
            tag_energy: Some(EnergyConfig::always_powered()),
            ..ReaderConfig::default()
        };
        assert_eq!(powered.invalid_field(), None);
    }

    #[test]
    fn error_display() {
        let e = SessionError::TagUnresponsive { attempts: 4 };
        assert!(e.to_string().contains('4'));
        let g = SessionError::ResponseGarbled { best_bit_errors: 9 };
        assert!(g.to_string().contains('9'));
    }

    #[test]
    fn codeword_session_selects_codeword_rate_and_charges_no_lead() {
        // Audit sites A + C: with a codeword PHY the session must pick
        // from the codeword rate table (not the presence 100..1000 bps
        // steps) and must not charge the presence capture's 1.2 s
        // conditioning lead per response attempt.
        use crate::phy::PhyConfig;
        let mut r = Reader::new(
            ReaderConfig {
                helper_pps: 3_000.0,
                phy: PhyConfig::Codeword,
                ..Default::default()
            },
            11,
        );
        let p = payload(24);
        let out = r.query(0x07, &p).expect("codeword query failed");
        assert_eq!(out.payload, p);
        assert_eq!(
            out.bit_rate_bps, 25_000,
            "3000 pps x 42 sym/frame / 4 sym-per-bit x 0.8 -> 25 kbps step"
        );
        assert!(!out.used_fallback);
        // One query + one response, no conditioning lead: far under the
        // 1.2 s a single presence response attempt alone would charge.
        assert!(
            out.waited_us < 1_200_000,
            "codeword budget charged a presence-style lead: {} us",
            out.waited_us
        );
    }

    #[test]
    fn codeword_session_never_engages_coded_fallback() {
        // Audit site B: orthogonal chip spreading is a presence-mode
        // mechanism; a codeword session must not run it even when the
        // plain response fails. A permanent helper outage starves the
        // codeword uplink of symbols while leaving the (reader-transmitted)
        // downlink alive, so the query is delivered but every response
        // attempt fails.
        use crate::phy::PhyConfig;
        use bs_channel::faults::{Fault, FaultPlan};
        use bs_dsp::obs::MemRecorder;
        let outage = FaultPlan::new(9).with(Fault::HelperOutage {
            period_us: 1_000_000_000,
            outage_us: 1_000_000_000,
        });
        let mut r = Reader::new(
            ReaderConfig {
                phy: PhyConfig::Codeword,
                faults: outage,
                fallback_code_length: 20, // would enable fallback on presence
                ..Default::default()
            },
            12,
        );
        let mut rec = MemRecorder::new();
        let got = r.query_with(0x07, &payload(16), &mut rec);
        assert!(
            matches!(got, Err(SessionError::ResponseGarbled { .. })),
            "expected a garbled response under total outage, got {got:?}"
        );
        let obs = rec.into_report();
        assert_eq!(
            obs.counter("session.fallback-engaged"),
            0,
            "codeword session must never run the presence coded fallback"
        );
    }

    #[test]
    fn presence_session_fallback_still_charges_attempt() {
        // Companion to the codeword gate above: the same outage on a
        // presence session must still engage (and count) the coded
        // fallback, proving the `coded_fallback` capability gate did not
        // disable the presence path.
        use bs_channel::faults::{Fault, FaultPlan};
        use bs_dsp::obs::MemRecorder;
        let outage = FaultPlan::new(9).with(Fault::HelperOutage {
            period_us: 1_000_000_000,
            outage_us: 1_000_000_000,
        });
        let mut r = Reader::new(
            ReaderConfig {
                faults: outage,
                fallback_code_length: 20,
                max_response_attempts: 1,
                ..Default::default()
            },
            13,
        );
        let mut rec = MemRecorder::new();
        let got = r.query_with(0x07, &payload(16), &mut rec);
        assert!(got.is_err(), "total outage should defeat presence too");
        let obs = rec.into_report();
        assert_eq!(
            obs.counter("session.fallback-engaged"),
            1,
            "presence session must still attempt the coded fallback"
        );
    }
}
