//! Multi-tag inventory: identifying several tags before querying them.
//!
//! The paper scopes its evaluation to a single tag but notes (§2) that
//! with several tags in range "the interrogator can use protocols similar
//! to EPC Gen-2 to identify these devices and then query each of them
//! individually". This module implements that missing piece as a framed
//! slotted-ALOHA inventory with EPC-style Q adaptation:
//!
//! 1. The reader broadcasts an inventory query carrying a frame size
//!    `2^Q` and a round seed (a downlink frame the tags decode with their
//!    envelope receivers).
//! 2. Every unidentified tag picks a slot by hashing its address with the
//!    round seed, and backscatters a short hello (address + CRC) in that
//!    slot using the normal uplink modulation.
//! 3. Per slot the reader observes *idle* (no preamble), *success* (one
//!    tag — decodes, is ACKed and leaves the round), or *collision* (two
//!    or more tags overlap; superposed switch waveforms garble the
//!    preamble/CRC). An optional capture effect lets a much-closer tag
//!    win a collision, as it does in real deployments.
//! 4. Between rounds the reader nudges Q up when collisions dominate and
//!    down when idles dominate (the EPC Q-algorithm).
//!
//! The slot outcomes here are protocol-level: who collides is decided by
//! hashing each tag's address with the round seed, not by superposing
//! the tags' channels, because inventory only needs to know whether a
//! slot held zero, one or several replies — a channel-level model would
//! cost a full capture per slot and change no outcome the protocol acts
//! on. The capture effect stands in for the one physical nuance (a much
//! stronger tag surviving a collision).
//!
//! Simulating a round costs O(pending + 256), independent of the frame
//! size: each tag's address is hashed once per inventory and that state
//! finished with the round seed once per round, the replies are
//! counting-sorted by slot one byte at a time, and only occupied slots
//! are judged (idle slots are counted arithmetically). Q is capped at
//! 15 — EPC Gen-2's Q field is 4 bits — whatever the config asks for.

use bs_dsp::obs::{NullRecorder, Recorder};
use bs_dsp::rng::Fnv1a64;
use bs_dsp::SimRng;
use std::cmp::Ordering;

/// A tag participating in inventory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InventoryTag {
    /// The tag's address (what inventory discovers).
    pub address: u8,
    /// Uplink signal strength relative to the strongest tag (linear,
    /// 0 < s ≤ 1). Drives the capture effect.
    pub relative_strength: f64,
    /// Whether the tag currently has the energy to reply. A browned-out
    /// tag is simply absent from its slots — the reader observes idles
    /// where it would have answered and cannot tell silence from absence
    /// (the energy co-simulation's information boundary).
    pub powered: bool,
}

impl InventoryTag {
    /// A tag with nominal strength, powered.
    pub fn new(address: u8) -> Self {
        InventoryTag {
            address,
            relative_strength: 1.0,
            powered: true,
        }
    }

    /// Marks the tag browned out: present in the deployment, silent on
    /// the air.
    pub fn unpowered(mut self) -> Self {
        self.powered = false;
        self
    }
}

/// Inventory configuration.
#[derive(Debug, Clone, Copy)]
pub struct InventoryConfig {
    /// Initial Q (frame size `2^Q` slots). EPC defaults to 4.
    pub initial_q: u32,
    /// Maximum Q.
    pub max_q: u32,
    /// Rounds before giving up.
    pub max_rounds: u32,
    /// Capture threshold: in a collision, if one tag's strength exceeds
    /// every other colliding tag's by this linear factor, the reader
    /// captures it anyway. `f64::INFINITY` disables capture.
    pub capture_ratio: f64,
}

impl Default for InventoryConfig {
    fn default() -> Self {
        InventoryConfig {
            initial_q: 4,
            max_q: 10,
            max_rounds: 32,
            capture_ratio: f64::INFINITY,
        }
    }
}

/// What the reader observed in one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotOutcome {
    /// No tag replied.
    Idle,
    /// Exactly one tag decoded (or one captured through a collision).
    Success {
        /// The identified tag.
        address: u8,
    },
    /// Multiple tags garbled each other.
    Collision,
}

/// Result of an inventory run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InventoryResult {
    /// Addresses identified, in discovery order.
    pub identified: Vec<u8>,
    /// Rounds executed.
    pub rounds: u32,
    /// Total slots elapsed (the air-time cost of inventory).
    pub slots: u64,
    /// Total collided slots.
    pub collisions: u64,
    /// Q at the end of the run.
    pub final_q: u32,
}

impl InventoryResult {
    /// True if every given tag was identified.
    pub fn complete(&self, tags: &[InventoryTag]) -> bool {
        tags.iter().all(|t| self.identified.contains(&t.address))
    }

    /// The inventory's airtime cost (µs) at a given slot length.
    ///
    /// Slot-count bookkeeping inside this module is PHY-neutral — a slot
    /// is a slot — but *pricing* those slots is not: a slot must fit one
    /// short reply, so its length follows the PHY's reply rate. Audit
    /// note: the gateway used to hardcode its 2 500 µs presence slot and
    /// multiply inline; callers should now pass
    /// [`PhyCapabilities::inventory_slot_us`] here.
    ///
    /// [`PhyCapabilities::inventory_slot_us`]: crate::phy::PhyCapabilities::inventory_slot_us
    pub fn airtime_us(&self, slot_us: u64) -> u64 {
        self.slots * slot_us
    }
}

/// Deterministic slot choice: FNV-style hash of (address, round seed),
/// avalanched, reduced to the frame size — the tag-side arithmetic is
/// trivial enough for an MSP430. `prefix` is the FNV state after the
/// tag's own bytes ([`slot_prefix`]), the part of the hash no round
/// changes, and the frame size is a power of two, so the reduction is a
/// mask.
///
/// The avalanche finaliser is load-bearing: raw FNV-1a preserves the
/// lowest differing bit of its inputs through every step (xor keeps the
/// xor-difference; multiplying by an odd constant keeps the lowest set
/// bit of the difference), so two addresses differing by 2^k would
/// collide in *every* round whenever the frame size is ≤ 2^k. A property
/// test caught exactly this with addresses 0 and 16.
fn slot_in(prefix: Fnv1a64, round_seed: u64, frame_size: u64) -> u64 {
    debug_assert!(frame_size.is_power_of_two());
    let mut fnv = prefix;
    fnv.write_u64(round_seed);
    let mut h = fnv.finish();
    // MurmurHash3 finaliser: full avalanche before the reduction.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h & (frame_size - 1)
}

/// The FNV state after a tag's address and the `0x5A` tag byte: what
/// [`slot_in`] continues from every round.
fn slot_prefix(address: u8) -> Fnv1a64 {
    let mut fnv = Fnv1a64::new();
    fnv.write(&[address, 0x5A]);
    fnv
}

/// Runs one full inventory.
pub fn run_inventory(
    tags: &[InventoryTag],
    cfg: InventoryConfig,
    rng: &mut SimRng,
) -> InventoryResult {
    run_inventory_with(tags, cfg, rng, &mut NullRecorder)
}

/// Largest Q the reader will use, whatever the config asks for: EPC
/// Gen-2 carries Q in a 4-bit field, so a frame never exceeds 2^15 slots.
const MAX_Q: u32 = 15;

/// [`run_inventory`] plus observability: counters `multitag.slots`,
/// `multitag.collisions` and `multitag.identified`. The inventory (slot
/// choices, Q trajectory, RNG draws) is bit-identical to
/// [`run_inventory`].
///
/// Q is capped at 15, and a round costs O(pending + 256) whatever the
/// frame size (see the module docs).
pub fn run_inventory_with(
    tags: &[InventoryTag],
    cfg: InventoryConfig,
    rng: &mut SimRng,
    rec: &mut dyn Recorder,
) -> InventoryResult {
    let max_q = cfg.max_q.min(MAX_Q);
    // Each pending tag with its hash prefix, computed once per inventory.
    let mut pending: Vec<(InventoryTag, Fnv1a64)> =
        tags.iter().map(|&t| (t, slot_prefix(t.address))).collect();
    let mut identified = Vec::new();
    let mut q = cfg.initial_q.min(max_q);
    let mut slots = 0u64;
    let mut collisions = 0u64;
    let mut rounds = 0u32;
    // Per-round scratch: (slot, pending index) for every powered tag in
    // pending order, the radix sort's second buffer, the tags of one
    // slot, and the addresses identified so far.
    let mut by_slot: Vec<(u16, usize)> = Vec::with_capacity(pending.len());
    let mut spare: Vec<(u16, usize)> = Vec::with_capacity(pending.len());
    let mut in_slot: Vec<InventoryTag> = Vec::new();
    let mut done = [false; 256];

    while !pending.is_empty() && rounds < cfg.max_rounds {
        rounds += 1;
        let frame_size = 1u64 << q;
        let round_seed = rng.next_u64();
        let mut round_collisions = 0u64;
        let mut occupied = 0u64;

        by_slot.clear();
        by_slot.extend(
            pending
                .iter()
                .enumerate()
                .filter(|(_, (t, _))| t.powered)
                .map(|(i, &(_, prefix))| (slot_in(prefix, round_seed, frame_size) as u16, i)),
        );
        // Ascending slot, then pending order within a slot — the order
        // a slot-by-slot scan of the frame would visit them in. A tag
        // identified in one slot sits in no later slot of the round (all
        // tags sharing its address hash alike), so removals can wait
        // until the round ends.
        radix_sort_by_slot(&mut by_slot, &mut spare, frame_size);
        for group in by_slot.chunk_by(|a, b| a.0 == b.0) {
            occupied += 1;
            in_slot.clear();
            in_slot.extend(group.iter().map(|&(_, i)| pending[i].0));
            match judge_slot(&in_slot, cfg.capture_ratio) {
                SlotOutcome::Idle => unreachable!("an occupied slot is never idle"),
                SlotOutcome::Success { address } => {
                    identified.push(address);
                    done[address as usize] = true;
                }
                SlotOutcome::Collision => {
                    collisions += 1;
                    round_collisions += 1;
                }
            }
        }
        pending.retain(|(t, _)| !done[t.address as usize]);
        slots += frame_size;
        let round_idles = frame_size - occupied;

        // EPC-style Q adjustment: grow on collision-heavy rounds, shrink
        // on idle-heavy ones.
        if round_collisions * 4 > frame_size {
            q = (q + 1).min(max_q);
        } else if round_idles * 2 > frame_size && q > 0 {
            q -= 1;
        }
    }

    rec.add("multitag.slots", slots);
    rec.add("multitag.collisions", collisions);
    rec.add("multitag.identified", identified.len() as u64);
    InventoryResult {
        identified,
        rounds,
        slots,
        collisions,
        final_q: q,
    }
}

/// Sorts `(slot, pending index)` pairs by slot, keeping their order
/// within a slot, with one counting pass per slot byte: one pass for a
/// frame of at most 256 slots, two up to the 2^15 cap. Each pass costs
/// O(pairs + 256), so a round's cost does not grow with Q. `spare` is
/// scratch; the result is left in `pairs`.
fn radix_sort_by_slot(
    pairs: &mut Vec<(u16, usize)>,
    spare: &mut Vec<(u16, usize)>,
    frame_size: u64,
) {
    let passes: &[u32] = if frame_size <= 256 { &[0] } else { &[0, 8] };
    for &shift in passes {
        let digit = |slot: u16| usize::from((slot >> shift) as u8);
        let mut start = [0usize; 256];
        for &(slot, _) in pairs.iter() {
            start[digit(slot)] += 1;
        }
        let mut sum = 0;
        for s in &mut start {
            (*s, sum) = (sum, sum + *s);
        }
        spare.clear();
        spare.resize(pairs.len(), (0, 0));
        for &pair in pairs.iter() {
            let d = digit(pair.0);
            spare[start[d]] = pair;
            start[d] += 1;
        }
        std::mem::swap(pairs, spare);
    }
}

/// Decides a slot's outcome from the tags that replied in it.
fn judge_slot(in_slot: &[InventoryTag], capture_ratio: f64) -> SlotOutcome {
    match in_slot {
        [] => SlotOutcome::Idle,
        [t] => SlotOutcome::Success { address: t.address },
        [first, second, rest @ ..] => {
            // Capture: the strongest tag wins if it dominates all others.
            // One pass keeps the top two under total_cmp, which stays
            // total even if a caller feeds a NaN strength (a ratio
            // against NaN then compares false, so such a slot degrades
            // to a plain collision instead of a panic). Only a strict
            // improvement displaces the leader, so the first maximum in
            // roster order wins, as a stable descending sort would pick.
            let beats = |a: f64, b: f64| a.total_cmp(&b) == Ordering::Greater;
            let (mut strongest, mut runner_up) =
                if beats(second.relative_strength, first.relative_strength) {
                    (second, first.relative_strength)
                } else {
                    (first, second.relative_strength)
                };
            for t in rest {
                if beats(t.relative_strength, strongest.relative_strength) {
                    runner_up = strongest.relative_strength;
                    strongest = t;
                } else if beats(t.relative_strength, runner_up) {
                    runner_up = t.relative_strength;
                }
            }
            if runner_up > 0.0 && strongest.relative_strength / runner_up >= capture_ratio {
                SlotOutcome::Success {
                    address: strongest.address,
                }
            } else {
                SlotOutcome::Collision
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tags(n: usize) -> Vec<InventoryTag> {
        (0..n).map(|i| InventoryTag::new(i as u8)).collect()
    }

    fn rng(seed: u64) -> SimRng {
        SimRng::new(seed).stream("inventory-test")
    }

    /// One tag's slot in one round's frame, hashed from scratch and
    /// reduced with `%`: the oracle's slot choice, independent of
    /// [`slot_in`]'s stored prefix and mask.
    fn slot_of(address: u8, round_seed: u64, frame_size: u64) -> u64 {
        let mut fnv = Fnv1a64::new();
        fnv.write(&[address, 0x5A]);
        fnv.write_u64(round_seed);
        let mut h = fnv.finish();
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^= h >> 33;
        h % frame_size
    }

    /// The per-slot scan `run_inventory_with` replaced, kept verbatim as
    /// the oracle for the bucketed loop: every slot of every frame
    /// re-hashes every pending tag, and each success leaves `pending` at
    /// once.
    fn reference_inventory(
        tags: &[InventoryTag],
        cfg: InventoryConfig,
        rng: &mut SimRng,
        rec: &mut dyn Recorder,
    ) -> InventoryResult {
        let mut pending: Vec<InventoryTag> = tags.to_vec();
        let mut identified = Vec::new();
        let mut q = cfg.initial_q.min(cfg.max_q);
        let mut slots = 0u64;
        let mut collisions = 0u64;
        let mut rounds = 0u32;

        while !pending.is_empty() && rounds < cfg.max_rounds {
            rounds += 1;
            let frame_size = 1u64 << q;
            let round_seed = rng.next_u64();
            let mut round_collisions = 0u64;
            let mut round_idles = 0u64;

            for slot in 0..frame_size {
                slots += 1;
                let in_slot: Vec<InventoryTag> = pending
                    .iter()
                    .copied()
                    .filter(|t| t.powered && slot_of(t.address, round_seed, frame_size) == slot)
                    .collect();
                let outcome = judge_slot(&in_slot, cfg.capture_ratio);
                match outcome {
                    SlotOutcome::Idle => round_idles += 1,
                    SlotOutcome::Success { address } => {
                        identified.push(address);
                        pending.retain(|t| t.address != address);
                    }
                    SlotOutcome::Collision => {
                        collisions += 1;
                        round_collisions += 1;
                    }
                }
            }

            // EPC-style Q adjustment: grow on collision-heavy rounds, shrink
            // on idle-heavy ones.
            if round_collisions * 4 > frame_size {
                q = (q + 1).min(cfg.max_q);
            } else if round_idles * 2 > frame_size && q > 0 {
                q -= 1;
            }
        }

        rec.add("multitag.slots", slots);
        rec.add("multitag.collisions", collisions);
        rec.add("multitag.identified", identified.len() as u64);
        InventoryResult {
            identified,
            rounds,
            slots,
            collisions,
            final_q: q,
        }
    }

    #[test]
    fn bucketed_rounds_match_the_per_slot_scan() {
        use bs_dsp::obs::MemRecorder;
        use bs_dsp::testkit::check;
        check("inventory-bucketed-vs-scan", 200, |g| {
            // A quarter of the cases run at Q 11..=15, up to the EPC cap,
            // where the radix sort's high byte is live; at most 40 tags
            // keep the per-slot oracle's 2^15-slot frames fast.
            let high_q = g.usize_in(0, 4) == 0;
            let n = g.usize_in(0, if high_q { 41 } else { 257 });
            // Unique addresses, or random ones from a space small enough
            // to force duplicates often.
            let unique = g.bool();
            let space = [256, 64, 8][g.usize_in(0, 3)];
            let unpowered_share = [0.0, 0.1, 0.5][g.usize_in(0, 3)];
            let strength_mode = g.usize_in(0, 3);
            let tags: Vec<InventoryTag> = (0..n)
                .map(|i| {
                    let address = if unique {
                        i as u8
                    } else {
                        g.usize_in(0, space) as u8
                    };
                    let mut t = InventoryTag::new(address);
                    t.relative_strength = match strength_mode {
                        0 => 1.0,
                        1 => g.f64_in(0.01, 1.0),
                        _ if g.bool() => f64::NAN,
                        _ => g.f64_in(0.01, 1.0),
                    };
                    if g.f64_in(0.0, 1.0) < unpowered_share {
                        t = t.unpowered();
                    }
                    t
                })
                .collect();
            let qs = if high_q { 11..16 } else { 0..11 };
            let cfg = InventoryConfig {
                initial_q: g.usize_in(qs.start, qs.end) as u32,
                max_q: g.usize_in(qs.start, qs.end) as u32,
                max_rounds: g.usize_in(1, 33) as u32,
                capture_ratio: [1.0, 4.0, f64::INFINITY][g.usize_in(0, 3)],
            };
            let seed = u64::from(g.u8());

            let mut fast_rng = rng(seed);
            let mut fast_rec = MemRecorder::new();
            let fast = run_inventory_with(&tags, cfg, &mut fast_rng, &mut fast_rec);
            let mut ref_rng = rng(seed);
            let mut ref_rec = MemRecorder::new();
            let oracle = reference_inventory(&tags, cfg, &mut ref_rng, &mut ref_rec);

            let case = g.case();
            assert_eq!(fast, oracle, "case {case}: {cfg:?}");
            assert_eq!(
                fast_rng.next_u64(),
                ref_rng.next_u64(),
                "case {case}: RNG draws diverged"
            );
            assert_eq!(fast_rec, ref_rec, "case {case}: counters diverged");
        });
    }

    #[test]
    fn oversize_q_is_capped_not_a_shift_overflow() {
        // Regression: q = 64 overflowed `1 << q` (a panic in debug, a
        // silently masked 1-slot frame in release). Q is now capped at
        // the 4-bit EPC field's 15.
        let t = tags(20);
        let cfg = InventoryConfig {
            initial_q: 64,
            max_q: 64,
            ..Default::default()
        };
        let r = run_inventory(&t, cfg, &mut rng(13));
        assert!(r.complete(&t), "identified {:?}", r.identified);
        assert_eq!(r.slots, u64::from(r.rounds) << MAX_Q);
        assert!(r.final_q <= MAX_Q);
    }

    #[test]
    fn large_q_returns_promptly() {
        // Regression: max_q in 20..63 used to visit 2^q slots per round
        // and never finish. A silent tag keeps the run going to
        // max_rounds, starting from the capped 2^15-slot frame.
        let t = vec![InventoryTag::new(1), InventoryTag::new(2).unpowered()];
        let cfg = InventoryConfig {
            initial_q: 40,
            max_q: 40,
            ..Default::default()
        };
        let start = std::time::Instant::now();
        let r = run_inventory(&t, cfg, &mut rng(14));
        assert_eq!(r.rounds, cfg.max_rounds);
        assert_eq!(r.identified, vec![1]);
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn single_tag_identified_in_one_round() {
        let t = tags(1);
        let r = run_inventory(&t, InventoryConfig::default(), &mut rng(1));
        assert!(r.complete(&t));
        assert_eq!(r.rounds, 1);
        assert_eq!(r.collisions, 0);
    }

    #[test]
    fn empty_population_is_trivial() {
        let r = run_inventory(&[], InventoryConfig::default(), &mut rng(2));
        assert!(r.identified.is_empty());
        assert_eq!(r.rounds, 0);
        assert_eq!(r.slots, 0);
        assert_eq!(r.airtime_us(2_500), 0);
    }

    #[test]
    fn airtime_scales_with_phy_slot_length() {
        // Audit site: inventory clock time used to hard-code the presence
        // slot length at the caller; the per-PHY slot duration now comes
        // from `PhyCapabilities::inventory_slot_us`.
        use crate::phy::PhyConfig;
        let t = tags(4);
        let r = run_inventory(&t, InventoryConfig::default(), &mut rng(5));
        let presence = PhyConfig::Presence.capabilities();
        let codeword = PhyConfig::Codeword.capabilities();
        assert_eq!(r.airtime_us(presence.inventory_slot_us), r.slots * 2_500);
        assert_eq!(r.airtime_us(codeword.inventory_slot_us), r.slots * 400);
        assert!(
            r.airtime_us(codeword.inventory_slot_us) < r.airtime_us(presence.inventory_slot_us),
            "codeword slots are shorter than presence slots"
        );
    }

    #[test]
    fn ten_tags_all_identified() {
        let t = tags(10);
        let r = run_inventory(&t, InventoryConfig::default(), &mut rng(3));
        assert!(r.complete(&t), "identified {:?}", r.identified);
        // No duplicates.
        let mut sorted = r.identified.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
    }

    #[test]
    fn hundred_tags_identified_with_q_growth() {
        let t = tags(100);
        let cfg = InventoryConfig {
            initial_q: 3, // deliberately too small
            ..Default::default()
        };
        let r = run_inventory(&t, cfg, &mut rng(4));
        assert!(r.complete(&t), "missing {} tags", 100 - r.identified.len());
        assert!(r.final_q > 3, "Q never grew despite collisions");
        assert!(r.collisions > 0);
    }

    #[test]
    fn q_shrinks_for_tiny_population() {
        let t = tags(2);
        let cfg = InventoryConfig {
            initial_q: 8, // 256 slots for 2 tags
            ..Default::default()
        };
        let r = run_inventory(&t, cfg, &mut rng(5));
        assert!(r.complete(&t));
        assert!(r.final_q < 8, "Q never shrank despite idles");
    }

    #[test]
    fn slot_efficiency_is_reasonable() {
        // Slotted ALOHA peaks at ~1/e ≈ 0.37 tags per slot; with Q
        // adaptation a 50-tag inventory should finish well under 50/0.1
        // slots.
        let t = tags(50);
        let r = run_inventory(&t, InventoryConfig::default(), &mut rng(6));
        assert!(r.complete(&t));
        let efficiency = 50.0 / r.slots as f64;
        assert!(
            efficiency > 0.1,
            "only {:.3} tags/slot over {} slots",
            efficiency,
            r.slots
        );
    }

    #[test]
    fn capture_effect_resolves_unequal_tags() {
        // Two tags always colliding (tiny frame), one 10× stronger:
        // with capture enabled the strong one gets through; the weak one
        // is then alone and succeeds too.
        let t = vec![
            InventoryTag {
                address: 1,
                relative_strength: 1.0,
                powered: true,
            },
            InventoryTag {
                address: 2,
                relative_strength: 0.05,
                powered: true,
            },
        ];
        let cfg = InventoryConfig {
            initial_q: 0, // one slot per round: guaranteed collision
            max_q: 0,
            capture_ratio: 4.0,
            ..Default::default()
        };
        let r = run_inventory(&t, cfg, &mut rng(7));
        assert!(r.complete(&t));
        assert_eq!(r.identified[0], 1, "strong tag should be captured first");
    }

    #[test]
    fn no_capture_means_equal_tags_need_separate_slots() {
        let t = tags(2);
        let cfg = InventoryConfig {
            initial_q: 0,
            max_q: 0, // forever one slot: permanent collision
            max_rounds: 10,
            capture_ratio: f64::INFINITY,
        };
        let r = run_inventory(&t, cfg, &mut rng(8));
        assert!(!r.complete(&t), "two equal tags cannot share one slot");
        assert_eq!(r.rounds, 10);
    }

    #[test]
    fn slot_hash_is_uniformish() {
        let frame = 16u64;
        let mut counts = [0u32; 16];
        for addr in 0..=255u8 {
            counts[slot_of(addr, 12345, frame) as usize] += 1;
        }
        // 256 addresses over 16 slots: expect 16 each; allow wide slack.
        for (i, &c) in counts.iter().enumerate() {
            assert!((4..=40).contains(&c), "slot {i}: {c}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let t = tags(20);
        let a = run_inventory(&t, InventoryConfig::default(), &mut rng(9));
        let b = run_inventory(&t, InventoryConfig::default(), &mut rng(9));
        assert_eq!(a.identified, b.identified);
        assert_eq!(a.slots, b.slots);
    }

    #[test]
    fn judge_slot_cases() {
        assert_eq!(judge_slot(&[], 2.0), SlotOutcome::Idle);
        assert_eq!(
            judge_slot(&[InventoryTag::new(5)], 2.0),
            SlotOutcome::Success { address: 5 }
        );
        assert_eq!(
            judge_slot(&[InventoryTag::new(1), InventoryTag::new(2)], 2.0),
            SlotOutcome::Collision
        );
    }

    #[test]
    fn unpowered_tag_is_silent_and_unidentified() {
        // Three tags, one browned out: the powered two are identified,
        // the dead one never replies and the run exhausts its rounds
        // looking for it (the reader cannot tell silence from absence).
        let t = vec![
            InventoryTag::new(1),
            InventoryTag::new(2).unpowered(),
            InventoryTag::new(3),
        ];
        let cfg = InventoryConfig {
            max_rounds: 6,
            ..Default::default()
        };
        let r = run_inventory(&t, cfg, &mut rng(11));
        assert!(r.identified.contains(&1) && r.identified.contains(&3));
        assert!(!r.identified.contains(&2), "dead tag replied");
        assert!(!r.complete(&t));
        assert_eq!(r.rounds, 6, "reader must keep trying until max_rounds");
    }

    #[test]
    fn all_powered_matches_default_construction() {
        // `powered: true` is the constructor default, so energy-less
        // callers are bit-identical to the pre-energy inventory.
        let t = tags(12);
        assert!(t.iter().all(|x| x.powered));
        let a = run_inventory(&t, InventoryConfig::default(), &mut rng(12));
        let b = run_inventory(&t, InventoryConfig::default(), &mut rng(12));
        assert_eq!(a, b);
    }

    /// FNV-1a over every field of each result, in run order.
    fn digest(results: &[InventoryResult]) -> u64 {
        let mut h = Fnv1a64::new();
        for r in results {
            h.write_u64(r.identified.len() as u64);
            h.write(&r.identified);
            h.write(&r.rounds.to_le_bytes());
            h.write_u64(r.slots);
            h.write_u64(r.collisions);
            h.write(&r.final_q.to_le_bytes());
        }
        h.finish()
    }

    #[test]
    fn inventory_digest_is_pinned() {
        // Pinned on the per-slot scan that preceded slot bucketing: 200
        // tags (addresses 1..=200), default config, seeds 1..=8.
        let t: Vec<InventoryTag> = (1..=200u8).map(InventoryTag::new).collect();
        let results: Vec<InventoryResult> = (1..=8)
            .map(|s| run_inventory(&t, InventoryConfig::default(), &mut rng(s)))
            .collect();
        assert!(results.iter().all(|r| r.complete(&t)));
        assert_eq!(format!("{:016x}", digest(&results)), "12c2a85fc858dc63");
    }

    /// The capture rule `judge_slot` replaced, kept verbatim as the
    /// oracle for its top-two scan: a stable descending sort under
    /// total_cmp, strongest first.
    fn judge_slot_by_sort(in_slot: &[InventoryTag], capture_ratio: f64) -> SlotOutcome {
        match in_slot {
            [] => SlotOutcome::Idle,
            [t] => SlotOutcome::Success { address: t.address },
            many => {
                let mut sorted: Vec<&InventoryTag> = many.iter().collect();
                sorted.sort_by(|a, b| b.relative_strength.total_cmp(&a.relative_strength));
                let strongest = sorted[0];
                let runner_up = sorted[1];
                if runner_up.relative_strength > 0.0
                    && strongest.relative_strength / runner_up.relative_strength >= capture_ratio
                {
                    SlotOutcome::Success {
                        address: strongest.address,
                    }
                } else {
                    SlotOutcome::Collision
                }
            }
        }
    }

    #[test]
    fn judge_slot_matches_the_sort_based_rule() {
        // Strengths from a small palette, so ties (including between
        // signed zeros and NaNs of either sign) are common.
        let palette = [
            0.0,
            -0.0,
            0.25,
            0.5,
            1.0,
            4.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        bs_dsp::testkit::check("judge-slot-oracle", 400, |g| {
            let n = g.usize_in(0, 9);
            let slot: Vec<InventoryTag> = (0..n)
                .map(|i| InventoryTag {
                    relative_strength: if g.bool() {
                        palette[g.usize_in(0, palette.len())]
                    } else {
                        g.f64_in(0.0, 2.0)
                    },
                    ..InventoryTag::new(i as u8 + 1)
                })
                .collect();
            let ratio = [0.5, 1.0, 2.0, 4.0][g.usize_in(0, 4)];
            assert_eq!(
                judge_slot(&slot, ratio),
                judge_slot_by_sort(&slot, ratio),
                "ratio {ratio}, slot {slot:?}"
            );
        });
    }

    #[test]
    fn nan_strength_degrades_to_collision_without_panic() {
        // A NaN relative strength used to crash the capture sort's
        // partial_cmp().unwrap(); with a total order it must simply never
        // win a capture.
        let mut a = InventoryTag::new(1);
        a.relative_strength = f64::NAN;
        let mut b = InventoryTag::new(2);
        b.relative_strength = 0.5;
        assert_eq!(judge_slot(&[a, b], 2.0), SlotOutcome::Collision);
        assert_eq!(judge_slot(&[b, a], 2.0), SlotOutcome::Collision);
        // And a whole inventory run over NaN-strength tags still resolves
        // by retry alone.
        let mut ts = tags(3);
        for t in &mut ts {
            t.relative_strength = f64::NAN;
        }
        let cfg = InventoryConfig {
            capture_ratio: 2.0,
            ..Default::default()
        };
        let r = run_inventory(&ts, cfg, &mut rng(7));
        assert!(r.complete(&ts), "identified {:?}", r.identified);
    }
}
