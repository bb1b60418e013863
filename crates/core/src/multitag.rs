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

use bs_dsp::obs::{NullRecorder, Recorder};
use bs_dsp::SimRng;

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
/// trivial enough for an MSP430.
///
/// The avalanche finaliser is load-bearing: raw FNV-1a preserves the
/// lowest differing bit of its inputs through every step (xor keeps the
/// xor-difference; multiplying by an odd constant keeps the lowest set
/// bit of the difference), so two addresses differing by 2^k would
/// collide in *every* round whenever the frame size is ≤ 2^k. A property
/// test caught exactly this with addresses 0 and 16.
fn slot_of(address: u8, round_seed: u64, frame_size: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in [address, 0x5A]
        .iter()
        .copied()
        .chain(round_seed.to_le_bytes())
    {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // MurmurHash3 finaliser: full avalanche before the modulo.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h % frame_size
}

/// Runs one full inventory.
pub fn run_inventory(
    tags: &[InventoryTag],
    cfg: InventoryConfig,
    rng: &mut SimRng,
) -> InventoryResult {
    run_inventory_with(tags, cfg, rng, &mut NullRecorder)
}

/// [`run_inventory`] plus observability: counters `multitag.slots`,
/// `multitag.collisions` and `multitag.identified`. The inventory (slot
/// choices, Q trajectory, RNG draws) is bit-identical to
/// [`run_inventory`].
pub fn run_inventory_with(
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

/// Decides a slot's outcome from the tags that replied in it.
fn judge_slot(in_slot: &[InventoryTag], capture_ratio: f64) -> SlotOutcome {
    match in_slot {
        [] => SlotOutcome::Idle,
        [t] => SlotOutcome::Success { address: t.address },
        many => {
            // Capture: the strongest tag wins if it dominates all others.
            // total_cmp keeps the sort total even if a caller feeds a
            // NaN strength (a ratio against NaN then compares false, so
            // such a slot degrades to a plain collision instead of a
            // panic).
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

#[cfg(test)]
mod tests {
    use super::*;

    fn tags(n: usize) -> Vec<InventoryTag> {
        (0..n).map(|i| InventoryTag::new(i as u8)).collect()
    }

    fn rng(seed: u64) -> SimRng {
        SimRng::new(seed).stream("inventory-test")
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
        let codeword = PhyConfig::codeword().capabilities();
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
