//! Experiment runners, one per figure of the paper's evaluation.
//!
//! | module | figures |
//! |---|---|
//! | [`uplink`] | 3, 4, 5, 6, 10, 11, 12, 14, 20 |
//! | [`ambient`] | 15, 16 |
//! | [`downlink`] | 17, 18 |
//! | [`coexistence`] | 19 |
//! | [`power`] | §6 power/harvesting claims |
//! | [`ablation`] | design-choice ablations (combining, hysteresis, artifacts, conditioning) |
//! | [`faults`] | fault-injection sweep: degradation with mitigations off vs on |
//! | [`net`] | transport sweep: goodput vs loss severity × ARQ window over `bs-net` |
//! | [`fec`] | FEC sweep: goodput vs traffic regime × coding scheme over a traffic-driven `SimLink` |
//! | [`fleet`] | fleet sweep: aggregate goodput, fairness and tail latency vs deployment population over `bs_net::fleet` |
//! | [`phy`] | PHY mode sweep: tag goodput vs helper-traffic rate, presence vs codeword translation |
//! | [`obs`] | stage profiling: per-stage spans/counters from armed-recorder runs |
//! | [`energy`] | energy sweep: goodput, poll waste and brownout rate vs harvest regime × polling policy |

pub mod ablation;
pub mod ambient;
pub mod coexistence;
pub mod downlink;
pub mod energy;
pub mod faults;
pub mod fec;
pub mod fleet;
pub mod net;
pub mod obs;
pub mod phy;
pub mod power;
pub mod uplink;

/// Finds the fastest rate among `candidates` whose measured BER stays
/// below `target_ber`, given a closure that measures BER at a rate.
/// Returns 0 if none qualifies.
pub fn achievable_rate(
    candidates: &[u64],
    target_ber: f64,
    mut ber_at: impl FnMut(u64) -> f64,
) -> u64 {
    let mut sorted: Vec<u64> = candidates.to_vec();
    sorted.sort_unstable();
    let mut best = 0;
    for &rate in &sorted {
        if ber_at(rate) < target_ber {
            best = rate;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn achievable_rate_picks_fastest_passing() {
        // BER grows with rate; threshold passes 100 and 200 only.
        let r = achievable_rate(&[1000, 100, 500, 200], 1e-2, |rate| rate as f64 / 25_000.0);
        assert_eq!(r, 200);
    }

    #[test]
    fn achievable_rate_none_passes() {
        let r = achievable_rate(&[100, 200], 1e-2, |_| 1.0);
        assert_eq!(r, 0);
    }

    #[test]
    fn achievable_rate_all_pass() {
        let r = achievable_rate(&[100, 200, 500], 1e-2, |_| 0.0);
        assert_eq!(r, 500);
    }
}
