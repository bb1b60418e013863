//! A discrete-event CSMA/CA (DCF) simulation of one collision domain.
//!
//! The uplink evaluation depends on *when the helper's packets actually go
//! on the air* under contention — bursty Wi-Fi traffic is why the paper
//! bins channel measurements by packet timestamp (§3.2, §5) and why the
//! achievable bit rate tracks network load (Figs 12, 15). This module
//! simulates the 802.11 distributed coordination function at the level that
//! matters for those figures: DIFS sensing, slotted random backoff with
//! binary exponential doubling on collision, NAV reservations from
//! CTS_to_SELF, and per-frame air times.
//!
//! Collided frames remain in the timeline (their energy is still on the
//! air, which the tag's envelope detector sees) but are flagged so
//! receiver-side processing can discard them.

use crate::frame::{FrameKind, StationId, WifiFrame};
use bs_dsp::SimRng;

/// MAC timing parameters (802.11g OFDM defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacConfig {
    /// Slot time, µs.
    pub slot_us: u64,
    /// DIFS, µs.
    pub difs_us: u64,
    /// Minimum contention window (slots).
    pub cw_min: u32,
    /// Maximum contention window (slots).
    pub cw_max: u32,
    /// Retry limit before a frame is dropped.
    pub retry_limit: u32,
}

impl Default for MacConfig {
    fn default() -> Self {
        MacConfig {
            slot_us: 9,
            difs_us: 28,
            cw_min: 15,
            cw_max: 1023,
            retry_limit: 7,
        }
    }
}

/// A station contending on the medium.
#[derive(Debug, Clone)]
pub struct Station {
    /// Times (µs) at which frames become ready to send, ascending.
    pub arrivals: Vec<u64>,
    /// Payload size of each frame (bytes).
    pub payload_bytes: usize,
    /// PHY rate (Mbps).
    pub rate_mbps: f64,
    /// Kind of frames this station sends.
    pub kind: FrameKind,
}

impl Station {
    /// A station sending fixed-size data frames at the given PHY rate.
    pub fn data(arrivals: Vec<u64>, payload_bytes: usize, rate_mbps: f64) -> Self {
        Station {
            arrivals,
            payload_bytes,
            rate_mbps,
            kind: FrameKind::Data,
        }
    }
}

/// One frame as it appeared on the air.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transmission {
    /// The frame.
    pub frame: WifiFrame,
    /// True if this frame overlapped another (both are corrupted for
    /// receivers, but their energy is still present on the medium).
    pub collided: bool,
}

/// The shared medium; runs the DCF simulation.
#[derive(Debug, Clone)]
pub struct Medium {
    cfg: MacConfig,
    rng: SimRng,
}

/// Simulation outcome statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MacStats {
    /// Frames delivered without collision.
    pub delivered: u64,
    /// Frame transmissions that collided.
    pub collisions: u64,
    /// Frames dropped after exceeding the retry limit.
    pub dropped: u64,
}

impl Medium {
    /// Creates a medium with the given MAC parameters and randomness.
    pub fn new(cfg: MacConfig, rng: SimRng) -> Self {
        Medium { cfg, rng }
    }

    /// Creates a medium with default 802.11g parameters.
    pub fn with_seed(seed: u64) -> Self {
        Medium::new(MacConfig::default(), SimRng::new(seed).stream("mac"))
    }

    /// Runs DCF until `until_us`, returning the transmission timeline in
    /// time order plus aggregate statistics.
    pub fn simulate(
        &mut self,
        stations: &[Station],
        until_us: u64,
    ) -> (Vec<Transmission>, MacStats) {
        let n = stations.len();
        let mut next_idx = vec![0usize; n];
        let mut retries = vec![0u32; n];
        let mut out = Vec::new();
        let mut stats = MacStats::default();
        // When the medium (including any NAV) becomes idle.
        let mut free_at: u64 = 0;
        // Per-round buffers, reused: each station's earliest pending
        // arrival, the contenders' backoff draws, the winners.
        let mut pending: Vec<Option<u64>> = vec![None; n];
        let mut draws: Vec<(usize, u64)> = Vec::with_capacity(n);
        let mut winners: Vec<usize> = Vec::with_capacity(n);

        loop {
            for ((p, st), &k) in pending.iter_mut().zip(stations).zip(&next_idx) {
                *p = st.arrivals.get(k).copied();
            }
            let min_ready = match pending.iter().flatten().min() {
                Some(&m) => m,
                None => break,
            };
            if min_ready >= until_us {
                break;
            }
            // Contention begins after the medium has been idle for DIFS
            // following both the last transmission and the first arrival.
            let contention_start = free_at.max(min_ready) + self.cfg.difs_us;
            // Stations whose frame arrived by the end of DIFS contend,
            // each drawing a backoff slot count in station order.
            draws.clear();
            for (i, p) in pending.iter().enumerate() {
                if matches!(p, Some(t) if *t <= contention_start) {
                    let cw = (self.cfg.cw_min << retries[i].min(10)).min(self.cfg.cw_max);
                    draws.push((i, u64::from(self.rng.index(cw as usize + 1) as u32)));
                }
            }
            let min_slot = (draws.iter().map(|&(_, s)| s).min())
                .expect("the station with the earliest arrival contends");
            winners.clear();
            winners.extend(
                draws
                    .iter()
                    .filter(|&&(_, s)| s == min_slot)
                    .map(|&(i, _)| i),
            );

            let tx_start = contention_start + min_slot * self.cfg.slot_us;
            if tx_start >= until_us {
                break;
            }

            let collided = winners.len() > 1;
            let mut busy_end = tx_start;
            for &w in &winners {
                let st = &stations[w];
                let duration = crate::frame::airtime_us(st.payload_bytes, st.rate_mbps);
                let frame = WifiFrame {
                    kind: st.kind,
                    src: w as StationId,
                    timestamp_us: tx_start,
                    duration_us: duration,
                };
                busy_end = busy_end.max(frame.end_us() + frame.nav_us());
                out.push(Transmission { frame, collided });
                if collided {
                    stats.collisions += 1;
                    retries[w] += 1;
                    if retries[w] > self.cfg.retry_limit {
                        stats.dropped += 1;
                        retries[w] = 0;
                        next_idx[w] += 1; // give up on this frame
                    }
                } else {
                    stats.delivered += 1;
                    retries[w] = 0;
                    next_idx[w] += 1;
                }
            }
            free_at = busy_end;
        }
        (out, stats)
    }

    /// The MAC configuration in use.
    pub fn config(&self) -> MacConfig {
        self.cfg
    }
}

/// Counts delivered (non-collided) frames from a given station.
pub fn delivered_from(timeline: &[Transmission], src: StationId) -> Vec<WifiFrame> {
    timeline
        .iter()
        .filter(|t| !t.collided && t.frame.src == src)
        .map(|t| t.frame)
        .collect()
}

/// Counts all delivered frames regardless of sender.
pub fn all_delivered(timeline: &[Transmission]) -> Vec<WifiFrame> {
    timeline
        .iter()
        .filter(|t| !t.collided)
        .map(|t| t.frame)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic;

    fn medium(seed: u64) -> Medium {
        Medium::with_seed(seed)
    }

    #[test]
    fn single_station_delivers_everything() {
        let arrivals: Vec<u64> = (0..100).map(|i| i * 2_000).collect();
        let st = Station::data(arrivals, 1500, 54.0);
        let (timeline, stats) = medium(1).simulate(&[st], 250_000);
        assert_eq!(stats.collisions, 0);
        assert_eq!(stats.delivered, 100);
        assert_eq!(timeline.len(), 100);
        // Frames must not overlap.
        for w in timeline.windows(2) {
            assert!(w[1].frame.timestamp_us >= w[0].frame.end_us());
        }
    }

    #[test]
    fn timeline_is_time_ordered() {
        let a = Station::data((0..200).map(|i| i * 500).collect(), 500, 54.0);
        let b = Station::data((0..200).map(|i| 100 + i * 500).collect(), 500, 54.0);
        let (timeline, _) = medium(2).simulate(&[a, b], 150_000);
        for w in timeline.windows(2) {
            assert!(w[0].frame.timestamp_us <= w[1].frame.timestamp_us);
        }
    }

    #[test]
    fn two_saturated_stations_share_the_medium() {
        let mk =
            |offset: u64| Station::data((0..1000).map(|i| offset + i * 200).collect(), 1500, 54.0);
        let (timeline, stats) = medium(3).simulate(&[mk(0), mk(50)], 300_000);
        let from0 = delivered_from(&timeline, 0).len();
        let from1 = delivered_from(&timeline, 1).len();
        assert!(from0 > 0 && from1 > 0);
        // Rough fairness: within a factor of 2.
        let ratio = from0 as f64 / from1 as f64;
        assert!((0.5..=2.0).contains(&ratio), "ratio {ratio}");
        assert!(
            stats.collisions > 0,
            "saturated stations should collide sometimes"
        );
    }

    #[test]
    fn collisions_marked_and_kept_in_timeline() {
        let mk = || Station::data((0..500).map(|i| i * 300).collect(), 1500, 54.0);
        let (timeline, stats) = medium(4).simulate(&[mk(), mk(), mk()], 400_000);
        let collided = timeline.iter().filter(|t| t.collided).count() as u64;
        assert_eq!(collided, stats.collisions);
        assert!(collided > 0);
        // all_delivered excludes them.
        assert_eq!(all_delivered(&timeline).len() as u64, stats.delivered);
    }

    #[test]
    fn cts_to_self_nav_blocks_other_stations() {
        // Station 0 sends one CTS_to_SELF with a 10 ms NAV at t=0; station 1
        // has packets queued throughout. No station-1 frame may start inside
        // the NAV window.
        let cts = Station {
            arrivals: vec![0],
            payload_bytes: 14,
            rate_mbps: 24.0,
            kind: FrameKind::CtsToSelf { nav_us: 10_000 },
        };
        let data = Station::data((0..50).map(|i| i * 100).collect(), 500, 54.0);
        let (timeline, _) = medium(5).simulate(&[cts, data], 30_000);
        let cts_frame = timeline
            .iter()
            .find(|t| matches!(t.frame.kind, FrameKind::CtsToSelf { .. }))
            .expect("cts frame");
        let nav_end = cts_frame.frame.end_us() + 10_000;
        for t in &timeline {
            if t.frame.src == 1 {
                assert!(
                    t.frame.timestamp_us >= nav_end
                        || t.frame.end_us() <= cts_frame.frame.timestamp_us,
                    "data frame at {} violates NAV ending {nav_end}",
                    t.frame.timestamp_us
                );
            }
        }
    }

    #[test]
    fn offered_load_controls_throughput() {
        // Higher offered load → more delivered packets per second, up to
        // saturation (the mechanism behind Fig. 12's x-axis).
        let rng = SimRng::new(6);
        let duration = 1_000_000; // 1 s
        let rate_of = |pps: f64| -> usize {
            let arr =
                traffic::poisson(pps, duration, &mut rng.stream("load").substream(pps as u64));
            let st = Station::data(arr, 1500, 54.0);
            let (timeline, _) = medium(7).simulate(&[st], duration);
            timeline.len()
        };
        let slow = rate_of(200.0);
        let fast = rate_of(2000.0);
        assert!((150..=250).contains(&slow), "slow {slow}");
        assert!((1700..=2300).contains(&fast), "fast {fast}");
    }

    #[test]
    fn beacons_go_out_on_schedule() {
        // A beaconing AP: 50-byte beacons at the 6 Mbps base rate.
        let ap = Station {
            arrivals: traffic::beacons(102_400, 1_024_000),
            payload_bytes: 50,
            rate_mbps: 6.0,
            kind: FrameKind::Beacon,
        };
        let (timeline, stats) = medium(8).simulate(&[ap], 1_024_000);
        assert_eq!(stats.delivered, 10);
        for (i, t) in timeline.iter().enumerate() {
            assert_eq!(t.frame.kind, FrameKind::Beacon);
            // Close to the nominal schedule (within DIFS + backoff slack).
            let nominal = i as u64 * 102_400;
            assert!(t.frame.timestamp_us >= nominal);
            assert!(t.frame.timestamp_us < nominal + 1_000);
        }
    }

    #[test]
    fn empty_station_list_is_empty_timeline() {
        let (timeline, stats) = medium(9).simulate(&[], 1_000_000);
        assert!(timeline.is_empty());
        assert_eq!(stats, MacStats::default());
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            vec![
                Station::data((0..100).map(|i| i * 700).collect(), 1000, 54.0),
                Station::data((0..100).map(|i| 350 + i * 700).collect(), 1000, 54.0),
            ]
        };
        let (t1, s1) = medium(10).simulate(&mk(), 100_000);
        let (t2, s2) = medium(10).simulate(&mk(), 100_000);
        assert_eq!(t1, t2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn retry_limit_eventually_drops() {
        // Two stations with identical deterministic arrival storms and a
        // tiny CW force repeated collisions; with retry_limit 0 every
        // collision drops the frame.
        let cfg = MacConfig {
            cw_min: 0,
            cw_max: 0,
            retry_limit: 0,
            ..Default::default()
        };
        let mut m = Medium::new(cfg, SimRng::new(11));
        let mk = || Station::data(vec![0, 10, 20], 100, 54.0);
        let (_, stats) = m.simulate(&[mk(), mk()], 100_000);
        assert!(stats.dropped > 0);
    }
}
