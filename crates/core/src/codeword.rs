//! The codeword-translation uplink: decode plumbing for
//! [`crate::phy::PhyConfig::Codeword`].
//!
//! Where the presence uplink ([`crate::uplink`]) treats every helper
//! packet as one CSI/RSSI sample of the tag's slow switch state, the
//! codeword uplink rides *inside* the helper's frames: the tag applies a
//! π phase flip to individual 802.11 symbols
//! ([`bs_tag::codeword::CodewordModulator`]), the flip maps each CCK
//! codeword onto another valid codeword ([`bs_wifi::symbol`]), and the
//! reader — which decodes the helper's frame anyway — recovers the
//! tag's flip sequence from the demodulation residue. Tag bits arrive at
//! a fraction of the helper's *symbol* rate instead of a fraction of its
//! *packet* rate, which is where the orders-of-magnitude goodput gap
//! between the two PHY modes comes from.
//!
//! The simulation runs the presence pipeline's traffic, fault and MAC
//! stages (`link::helper_air`: same generators, same fault decorators,
//! same DCF medium) so both PHYs face the identical air. Downstream of
//! the MAC it diverges: no Scene snapshots, no CSI/RSSI extractor —
//! just per-symbol flip decisions with an error rate set by the
//! deployment geometry ([`bs_wifi::symbol::residue_excess_db`]).
//!
//! Semantics under the shared [`crate::link::LinkConfig`]:
//!
//! * `scene`, `seed`, `helper_pps`, `payload`, `background`,
//!   `use_all_traffic` and `faults` mean exactly what they mean for the
//!   presence PHY. Background frames still *clock* the tag (it
//!   carrier-senses every transmission) but the reader can only read
//!   residue from frames it demodulates, so with `use_all_traffic` off a
//!   background frame's symbols become erasures.
//! * `chip_rate_cps`, `measurement`, `code_length`, `ideal_csi` and
//!   `csi_spurious_boost` are presence-PHY knobs and are ignored.
//! * `mitigations` is ignored: the presence mitigations (CSI fallback,
//!   chip-rate halving, drift re-scan) patch failure modes this PHY does
//!   not have — see `PhyCapabilities` for what replaces them. Clock
//!   drift in particular is moot because the helper's own symbol train
//!   is the tag's clock.

use crate::link::{helper_air, DegradationReport, LinkConfig, UplinkRun};
use bs_channel::faults::FaultEvents;
use bs_dsp::bits::BerCounter;
use bs_dsp::obs::Recorder;
use bs_dsp::SimRng;
use bs_tag::codeword::CodewordModulator;
use bs_tag::frame::{uplink_preamble, UplinkFrame};
use bs_wifi::symbol::{data_frame_symbols, flip_error_prob, residue_excess_db, symbols_in};

/// The helper frame size the link simulations use (bytes).
pub const HELPER_FRAME_BYTES: usize = 1000;

/// The helper PHY rate the link simulations use (Mbit/s).
pub const HELPER_RATE_MBPS: f64 = 54.0;

/// Tag bit rates (bits/s) the codeword mode's rate adaptation steps
/// through, ascending. These are *decode* rates the symbol supply must
/// cover — unlike the presence mode's
/// [`SUPPORTED_RATES_BPS`](crate::protocol::SUPPORTED_RATES_BPS) they
/// never appear on the query wire (the tag's chip clock is the helper's
/// symbol train, not a commanded oscillator rate).
pub const CODEWORD_RATE_STEPS_BPS: [u64; 6] = [1_000, 2_000, 5_000, 10_000, 25_000, 50_000];

/// Symbols one helper data frame carries at the link's standard
/// frame shape (1000 bytes at 54 Mbit/s → 42 symbols).
pub fn helper_frame_symbols() -> u64 {
    data_frame_symbols(HELPER_FRAME_BYTES, HELPER_RATE_MBPS)
}

/// Times each on-air frame bit is repeated as a chip.
const CHIPS_PER_BIT: u32 = 2;

/// Helper symbols each chip is held for (the reader majority-votes the
/// per-symbol flip decisions inside a chip).
const SYM_PER_CHIP: u32 = 2;

/// Barker-13 preamble mismatches the detector tolerates.
const PREAMBLE_MAX_ERRORS: usize = 2;

/// Helper symbols consumed per tag bit.
pub(crate) const SYMS_PER_BIT: u64 = CHIPS_PER_BIT as u64 * SYM_PER_CHIP as u64;

/// Runs one codeword-translation uplink frame exchange. See the module
/// docs for which [`LinkConfig`] fields apply. Every RNG draw is
/// independent of the recorder, so results are bit-identical whatever
/// `rec` is.
pub fn run_codeword_uplink_with(cfg: &LinkConfig, rec: &mut dyn Recorder) -> UplinkRun {
    let root = SimRng::new(cfg.seed);
    let frame = UplinkFrame::new(cfg.payload.clone());
    let modulator = CodewordModulator::new(&frame, CHIPS_PER_BIT, SYM_PER_CHIP);
    let total_chips = modulator.total_chips();
    let needed_syms = modulator.total_symbols();
    let spc = u64::from(modulator.sym_per_chip());

    // Window sizing: the schedule needs `needed_syms` helper symbols;
    // allow 2× headroom over the nominal supply plus a fixed tail so
    // moderate fault-thinning still completes within the window.
    let syms_per_sec = (cfg.helper_pps * helper_frame_symbols() as f64).max(1.0);
    let duration_us = ((needed_syms as f64 / syms_per_sec) * 2e6) as u64 + 100_000;

    // Traffic + MAC through the presence capture's own front end, so a
    // FaultPlan thins/duplicates arrivals identically for both PHYs.
    let mut events = FaultEvents::default();
    let timeline = helper_air(cfg, &root, duration_us, &mut events, rec);
    rec.span("phy.codeword.mac", 0, duration_us, timeline.len() as u64);

    // An interference burst raises the residue floor while it is active;
    // the other sensor faults target the Intel CSI tool and do not touch
    // this decode path. Clock drift is moot (symbol-clocked tag).
    let intf = cfg.faults.interference();
    if intf.is_some() {
        events.fire("interference-burst");
    }
    let p_base = flip_error_prob(residue_excess_db(
        cfg.scene.d_helper_tag(),
        cfg.scene.d_tag_reader(),
    ));

    // Walk the timeline: every non-collided frame clocks the tag's
    // symbol cursor; only frames the reader demodulates contribute flip
    // observations.
    let mut noise = root.stream("codeword-residue");
    let mut ones = vec![0u32; total_chips];
    let mut seen = vec![0u32; total_chips];
    let mut cursor: u64 = 0;
    let mut frames_used = 0usize;
    let mut last_frame_end = 0u64;
    for t in timeline.iter().filter(|t| !t.collided) {
        if cursor >= needed_syms {
            break;
        }
        let usable = cfg.use_all_traffic || t.frame.src == 0;
        let p_err = match &intf {
            Some(ic) if ic.active_at(t.frame.timestamp_us as f64 / 1e6) => (p_base + 0.25).min(0.5),
            _ => p_base,
        };
        let mut consumed = false;
        for _ in 0..symbols_in(t.frame.duration_us) {
            if cursor >= needed_syms {
                break;
            }
            let chip = (cursor / spc) as usize;
            let flip = modulator.flip_at_symbol(cursor).unwrap_or(false);
            cursor += 1;
            consumed = true;
            if usable {
                // observed = true flip XOR decision error.
                let observed = flip != noise.chance(p_err);
                seen[chip] += 1;
                if observed {
                    ones[chip] += 1;
                }
            }
        }
        if consumed {
            last_frame_end = t.frame.end_us();
            if usable {
                frames_used += 1;
            }
        }
    }
    let elapsed_us = if cursor >= needed_syms && last_frame_end > 0 {
        last_frame_end
    } else {
        duration_us
    };

    // Chip = majority of its per-symbol observations; unseen or tied
    // chips are erasures.
    let chips: Vec<Option<bool>> = (0..total_chips)
        .map(|c| {
            if ones[c] * 2 > seen[c] {
                Some(true)
            } else if seen[c] > 0 && ones[c] * 2 < seen[c] {
                Some(false)
            } else {
                None
            }
        })
        .collect();
    let chip_erasures = chips.iter().filter(|c| c.is_none()).count();
    rec.add("phy.codeword.symbols-consumed", cursor);
    rec.add("phy.codeword.frames-used", frames_used as u64);
    rec.add("phy.codeword.chip-erasures", chip_erasures as u64);

    // Bit = majority over its chips, ignoring erasures.
    let cpb = CHIPS_PER_BIT as usize;
    let n_bits = UplinkFrame::on_air_len(frame.payload.len());
    let bits: Vec<Option<bool>> = (0..n_bits)
        .map(|i| {
            let (mut hi, mut lo) = (0u32, 0u32);
            for c in &chips[i * cpb..(i + 1) * cpb] {
                match c {
                    Some(true) => hi += 1,
                    Some(false) => lo += 1,
                    None => {}
                }
            }
            match hi.cmp(&lo) {
                std::cmp::Ordering::Greater => Some(true),
                std::cmp::Ordering::Less => Some(false),
                std::cmp::Ordering::Equal => None,
            }
        })
        .collect();

    // Detection: the decoded Barker-13 preamble must match within
    // `PREAMBLE_MAX_ERRORS` (erasures count as mismatches).
    let preamble = uplink_preamble();
    let mismatches = preamble
        .iter()
        .enumerate()
        .filter(|&(i, &b)| bits.get(i).copied().flatten() != Some(b))
        .count();
    let detected = mismatches <= PREAMBLE_MAX_ERRORS;
    let decoded: Vec<Option<bool>> = if detected {
        bits[preamble.len()..preamble.len() + cfg.payload.len()].to_vec()
    } else {
        vec![None; cfg.payload.len()]
    };

    let mut report = DegradationReport::default();
    report.absorb(&events);
    let mut ber = BerCounter::new();
    ber.compare_with_erasures(&cfg.payload, &decoded);
    UplinkRun {
        transmitted: cfg.payload.clone(),
        decoded,
        ber,
        detected,
        packets_used: frames_used,
        pkts_per_bit: frames_used as f64 / cfg.payload.len().max(1) as f64,
        degradation: report,
        elapsed_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bs_dsp::obs::NullRecorder;

    fn cfg(seed: u64) -> LinkConfig {
        LinkConfig::fig10(0.8, 100, 5, seed)
            .with_payload((0..64).map(|i| (i * 7) % 5 < 2).collect())
    }

    #[test]
    fn roundtrips_in_the_benign_regime() {
        for seed in [3, 17, 91] {
            let run = run_codeword_uplink_with(&cfg(seed), &mut NullRecorder);
            assert!(run.detected, "no detection at seed {seed}");
            assert_eq!(
                run.ber.errors(),
                0,
                "errors at seed {seed}: {:?}",
                run.decoded
            );
        }
    }

    #[test]
    fn elapsed_is_a_tiny_fraction_of_presence_airtime() {
        // 64 bits at 3 000 pps ride a handful of frames — well under
        // 50 ms, where the presence exchange spends 1.2 s on
        // conditioning lead alone.
        let mut c = cfg(5);
        c.helper_pps = 3_000.0;
        let run = run_codeword_uplink_with(&c, &mut NullRecorder);
        assert!(run.detected);
        assert!(run.elapsed_us < 50_000, "elapsed {}", run.elapsed_us);
    }

    #[test]
    fn far_geometry_breaks_the_residue_decisions() {
        let mut c = cfg(11);
        c.scene = bs_channel::scene::SceneConfig::uplink(12.0);
        let run = run_codeword_uplink_with(&c, &mut NullRecorder);
        assert!(
            !run.detected || run.ber.raw_ber() > 0.1,
            "12 m should be broken: ber {}",
            run.ber.raw_ber()
        );
    }

    #[test]
    fn background_frames_clock_but_do_not_inform() {
        // Helper-only reader with heavy background: the tag's schedule is
        // consumed partly by frames the reader cannot demodulate, so chip
        // erasures must appear; with use_all_traffic the same air decodes
        // cleanly.
        let mut c = cfg(23);
        c.background = vec![(2_000.0, 800)];
        let blind = run_codeword_uplink_with(&c, &mut NullRecorder);
        let mut all = c.clone();
        all.use_all_traffic = true;
        let open = run_codeword_uplink_with(&all, &mut NullRecorder);
        assert!(open.detected);
        assert_eq!(open.ber.errors(), 0);
        let blind_erasures = blind.decoded.iter().filter(|b| b.is_none()).count();
        assert!(
            blind_erasures > 0 || blind.ber.errors() > 0 || !blind.detected,
            "blind run should lose symbols to background frames"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_codeword_uplink_with(&cfg(77), &mut NullRecorder);
        let b = run_codeword_uplink_with(&cfg(77), &mut NullRecorder);
        assert_eq!(a.decoded, b.decoded);
        assert_eq!(a.elapsed_us, b.elapsed_us);
        let c = run_codeword_uplink_with(&cfg(78), &mut NullRecorder);
        assert!(a.decoded != c.decoded || a.elapsed_us != c.elapsed_us);
    }
}
