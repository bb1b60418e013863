//! The gateway: N tags, one reader, fair service on simulated time.
//!
//! This is the "internet connectivity" topology of the paper's Figure 1:
//! many RF-powered tags share one reader, which relays their messages.
//! The gateway composes three existing mechanisms and one new one:
//!
//! 1. **Singulation** — a framed-slotted-ALOHA inventory
//!    ([`wifi_backscatter::multitag`]) discovers which tags are present
//!    and fixes the service order;
//! 2. **Per-tag transport** — each discovered tag gets its own
//!    [`TransportSession`](crate::arq::TransportSession) + [`SimLink`], so loss on one tag's channel
//!    never corrupts another's message;
//! 3. **Deficit round-robin** — each scheduler cycle tops up every
//!    incomplete tag's deficit by a 64-byte quantum and serves ARQ rounds
//!    while the deficit covers the round's payload bytes. A tag stuck
//!    retransmitting drains its quantum like any other traffic, so it
//!    cannot starve its neighbours (the scheduler invariant the
//!    conformance suite pins);
//! 4. **Per-tag rate adaptation** — after each served round the gateway
//!    re-estimates the tag's delivered cadence and steps the chip rate
//!    down via [`bs_wifi::rate_adapt::readapt_chip_rate`] when it has
//!    collapsed, mirroring the reactive mitigation the single-link
//!    session uses.
//!
//! All of it runs on one shared simulated clock: rounds are serialised
//! (one reader, one medium), every per-tag link is advanced to the
//! global clock before its round, and every random draw descends from
//! the run seed — so a gateway run is a pure function of
//! `(tags, config)`.

use crate::arq::{SessionState, Transfer, TransportConfig, TransportError};
use crate::linkmodel::{
    clear_report, control_air_us, segment_air_us, FaultRates, SegmentLink, SimLink,
};
use bs_channel::faults::FaultPlan;
use bs_dsp::obs::{NullRecorder, Recorder};
use bs_dsp::SimRng;
use bs_tag::energy::{Capacitor, EnergyConfig, LISTEN_LOAD_UW, RESPOND_LOAD_UW};
use wifi_backscatter::link::DegradationReport;
use wifi_backscatter::multitag::{
    run_inventory_with, InventoryConfig, InventoryResult, InventoryTag,
};
use wifi_backscatter::phy::PhyConfig;
use wifi_backscatter::protocol::Query;

/// One tag the gateway serves.
#[derive(Debug, Clone)]
pub struct TagProfile {
    /// Link-layer address (must be unique across the deployment).
    pub address: u8,
    /// The message this tag wants delivered.
    pub message: Vec<u8>,
    /// Helper packet cadence this tag's channel sees (packets/s) — the
    /// §5 input to its initial rate selection.
    pub helper_pps: f64,
    /// The tag's energy supply. `None` (the default) models an immortal
    /// tag: the run is bit-identical to the pre-energy gateway. With a
    /// supply, the simulator tracks the tag's capacitor — a tag that
    /// cannot fund a response misses its poll and the reader observes
    /// silence.
    pub energy: Option<EnergyConfig>,
}

impl TagProfile {
    /// A tag at the paper's nominal cadence.
    pub fn new(address: u8, message: Vec<u8>) -> Self {
        TagProfile {
            address,
            message,
            helper_pps: 3_000.0,
            energy: None,
        }
    }

    /// Overrides the helper cadence (builder style).
    pub fn with_helper_pps(mut self, pps: f64) -> Self {
        self.helper_pps = pps;
        self
    }

    /// Arms the tag energy co-simulation (builder style).
    pub fn with_energy(mut self, energy: EnergyConfig) -> Self {
        self.energy = Some(energy);
        self
    }
}

/// How the scheduler treats tags that miss their polls.
///
/// The gateway never reads a tag's simulator-internal charge — that
/// information boundary is the point of the energy-aware design. All it
/// observes is silence, and [`PollingPolicy::EnergyAware`] turns the
/// *pattern* of silences into a backoff estimate of when the tag will
/// have harvested enough to answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PollingPolicy {
    /// Poll every incomplete tag every cycle, paying the control-exchange
    /// airtime for each silent one.
    #[default]
    Naive,
    /// After `k` consecutive silent polls, skip the tag for `2^k`
    /// scheduler cycles (capped) before probing again — wasted poll
    /// slots become charging time.
    EnergyAware,
}

/// Deficit round-robin quantum: payload bytes added to each incomplete
/// tag's deficit per scheduler cycle.
const QUANTUM_BYTES: u64 = 64;

/// Gateway configuration.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Template transport knobs; `tag_address` and `msg_id` are
    /// overridden per tag.
    pub transport: TransportConfig,
    /// Singulation parameters.
    pub inventory: InventoryConfig,
    /// Air-time charged per inventory slot (µs). [`Self::with_phy`]
    /// re-derives it from the mode's
    /// [`inventory_slot_us`](wifi_backscatter::phy::PhyCapabilities::inventory_slot_us).
    pub slot_us: u64,
    /// Fault plan applied to every tag's link.
    pub faults: FaultPlan,
    /// Measurements-per-bit target used for rate selection/adaptation.
    pub pkts_per_bit: u32,
    /// Margin for the §5 rate selection.
    pub rate_margin: f64,
    /// Cap on scheduler cycles (backstop under pathological loss).
    pub max_cycles: u32,
    /// Master seed: inventory, per-tag links and transports all derive
    /// from it.
    pub seed: u64,
    /// PHY mode every tag's link runs (default:
    /// [`PhyConfig::Presence`]). Rate selection, re-adaptation and the
    /// inventory slot length all follow this mode's
    /// [`wifi_backscatter::phy::PhyCapabilities`].
    pub phy: PhyConfig,
    /// How the scheduler reacts to silent polls (default:
    /// [`PollingPolicy::Naive`]). Irrelevant when no tag carries an
    /// energy supply — an immortal tag never misses a poll.
    pub polling: PollingPolicy,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            transport: TransportConfig::default(),
            inventory: InventoryConfig::default(),
            slot_us: PhyConfig::Presence.capabilities().inventory_slot_us,
            faults: FaultPlan::none(),
            pkts_per_bit: 5,
            rate_margin: 0.9,
            max_cycles: 10_000,
            seed: 1,
            phy: PhyConfig::Presence,
            polling: PollingPolicy::Naive,
        }
    }
}

impl GatewayConfig {
    /// Sets the fault plan (builder style).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the master seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Arms forward error correction on every tag's transport (builder
    /// style): the template's segment payload is capped and the group
    /// code applied exactly as in
    /// [`TransportConfig::with_fec`](crate::arq::TransportConfig::with_fec).
    pub fn with_fec(mut self, fec: crate::fec::FecConfig) -> Self {
        self.transport = self.transport.with_fec(fec);
        self
    }

    /// Sets the PHY mode (builder style) and re-derives the inventory
    /// slot length from the mode's capabilities — codeword singulation
    /// replies ride short residue bursts instead of multi-packet
    /// presence captures, so its slots are much shorter.
    pub fn with_phy(mut self, phy: PhyConfig) -> Self {
        self.slot_us = phy.capabilities().inventory_slot_us;
        self.phy = phy;
        self
    }

    /// Sets the polling policy (builder style).
    pub fn with_polling(mut self, polling: PollingPolicy) -> Self {
        self.polling = polling;
        self
    }
}

/// Largest inventory Q a gateway accepts: EPC Gen-2 carries Q in a 4-bit
/// field (the inventory itself caps Q there too).
const MAX_INVENTORY_Q: u32 = 15;

/// Why a gateway run could not start.
///
/// The doc contract on [`TagProfile::address`] ("must be unique across
/// the deployment") used to be unenforced: a duplicate address made the
/// profile lookup after singulation silently pair *both* inventory
/// identifications with the first matching profile, so one tag's
/// message was reported delivered twice and the other's never sent.
/// The gateway now rejects the roster up front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum GatewayError {
    /// Two [`TagProfile`]s share a link-layer address.
    DuplicateAddress {
        /// The address that appears more than once.
        address: u8,
    },
    /// [`GatewayConfig::inventory`] asks for a Q beyond the 4-bit EPC
    /// Gen-2 field (`initial_q` or `max_q` above 15).
    InvalidInventory {
        /// The larger of the config's `initial_q` and `max_q`.
        max_q: u32,
    },
    /// A [`TagProfile::energy`] supply is invalid: its capacitor is
    /// outside the domain of [`bs_tag::energy::CapacitorConfig::is_valid`]
    /// (no positive, finite capacity, or thresholds not
    /// `0 <= brownout < wake <= 1`), or its `harvest_uw` is not finite
    /// and non-negative.
    InvalidEnergy {
        /// The address of the tag whose supply is invalid.
        address: u8,
    },
    /// [`GatewayConfig::transport`] asks for a segment payload outside
    /// the wire format's `1..=255` bytes.
    InvalidTransport {
        /// The config's `seg_payload_bytes`.
        seg_payload_bytes: usize,
    },
    /// A scheduler knob has no meaning at its value: a zero
    /// `transport.window`, a
    /// [`GatewayConfig::rate_margin`] that is not finite and positive, or
    /// a `transport.fec` with parity whose group is outside
    /// [`crate::fec::FecConfig::fixed`]'s `1..=64` data and `0..=64` parity.
    InvalidConfig {
        /// The offending field.
        field: &'static str,
    },
    /// A [`TagProfile::message`] needs more wire segments (FEC parity
    /// included) than the 16-bit sequence space numbers.
    MessageTooLong {
        /// The address of the tag whose message is too long.
        address: u8,
    },
}

impl std::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatewayError::DuplicateAddress { address } => write!(
                f,
                "duplicate tag address {address}: TagProfile.address must be \
                 unique across the deployment"
            ),
            GatewayError::InvalidInventory { max_q } => write!(
                f,
                "inventory Q {max_q} exceeds {MAX_INVENTORY_Q}, the largest \
                 the 4-bit EPC Gen-2 Q field carries"
            ),
            GatewayError::InvalidEnergy { address } => write!(
                f,
                "tag {address}: the capacitor needs a positive, finite capacity \
                 and 0 <= brownout < wake <= 1, and the harvest a finite power >= 0"
            ),
            GatewayError::InvalidTransport { seg_payload_bytes } => write!(
                f,
                "segment payload of {seg_payload_bytes} bytes is outside the \
                 wire format's 1..=255"
            ),
            GatewayError::InvalidConfig { field } => {
                write!(f, "gateway config field `{field}` is out of its domain")
            }
            GatewayError::MessageTooLong { address } => write!(
                f,
                "tag {address}: the message needs more than {} wire segments",
                u16::MAX
            ),
        }
    }
}

impl std::error::Error for GatewayError {}

/// Per-tag energy outcome, present iff the profile carried a supply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TagEnergyOutcome {
    /// Stored charge at the end of the run, µJ.
    pub final_charge_uj: f64,
    /// Awake→Dead transitions over the run.
    pub brownouts: u32,
    /// Post-brownout climbs back to Awake.
    pub recoveries: u32,
    /// Polls the reader transmitted that this tag could not answer.
    pub missed_polls: u32,
}

/// Per-tag outcome of a gateway run.
#[derive(Debug, Clone, PartialEq)]
pub struct TagOutcome {
    /// The tag's address.
    pub address: u8,
    /// Chip rate the tag ended on (bps; lower than it started if rate
    /// adaptation stepped it down).
    pub final_chip_rate_bps: u64,
    /// Scheduler rounds this tag was served.
    pub rounds_served: u32,
    /// The tag's transfer report.
    pub transfer: Transfer,
    /// Energy outcome, `None` for an immortal (supply-less) tag.
    pub energy: Option<TagEnergyOutcome>,
}

/// The whole gateway run: inventory, per-tag transfers, fairness.
#[derive(Debug, Clone, PartialEq)]
pub struct GatewayRun {
    /// The singulation result that fixed the service order.
    pub inventory: InventoryResult,
    /// Per-tag outcomes, in discovery order.
    pub tags: Vec<TagOutcome>,
    /// Scheduler cycles executed.
    pub cycles: u32,
    /// Total simulated time, inventory included (µs).
    pub airtime_us: u64,
    /// Jain's fairness index over per-tag delivered bytes (1 = perfectly
    /// fair; 0 when nothing was delivered).
    pub fairness: f64,
    /// True when every discovered tag's message arrived completely.
    pub all_complete: bool,
    /// True when the [`GatewayConfig::max_cycles`] backstop cut the
    /// scheduler off while at least one session could still have run
    /// another round. A truncated run's incomplete transfers say nothing
    /// about the link — the simulation ran out of cycles, not the tags
    /// out of budget — which used to be inferable only by guessing from
    /// `all_complete`. The fleet report mirrors this per shard.
    pub truncated: bool,
    /// Poll slots the scheduler spent: served rounds plus wasted
    /// (silent) polls.
    pub polls: u64,
    /// Polls wasted on tags that had no energy to answer — each one
    /// costs a full control exchange of airtime.
    pub missed_polls: u64,
    /// Merged degradation accounting across every tag's link.
    pub degradation: DegradationReport,
}

impl GatewayRun {
    /// Total delivered-message bits per second of simulated time.
    pub fn aggregate_goodput_bps(&self) -> f64 {
        if self.airtime_us == 0 {
            return 0.0;
        }
        let bits: u64 = self
            .tags
            .iter()
            .filter(|t| t.transfer.complete)
            .map(|t| t.transfer.message_bytes * 8)
            .sum();
        bits as f64 / (self.airtime_us as f64 / 1e6)
    }
}

/// Jain's fairness index: `(Σx)² / (n·Σx²)`, 1.0 for equal shares.
pub(crate) fn jain_index(shares: &[u64]) -> f64 {
    if shares.is_empty() {
        return 0.0;
    }
    let sum: f64 = shares.iter().map(|&x| x as f64).sum();
    let sq: f64 = shares.iter().map(|&x| (x as f64) * (x as f64)).sum();
    if sq == 0.0 {
        return 0.0;
    }
    sum * sum / (shares.len() as f64 * sq)
}

/// One served tag's state. A [`GatewayScratch`] keeps these from one
/// gateway to the next, and [`ServedTag::arm`] re-arms one for each new
/// tag: its session's buffers and its link are reset, not rebuilt.
#[derive(Debug)]
struct ServedTag {
    /// The tag's index in the roster being served.
    slot: usize,
    /// The profile's helper cadence and supply.
    helper_pps: f64,
    energy: Option<EnergyConfig>,
    session: SessionState,
    link: SimLink,
    deficit: u64,
    rounds_served: u32,
    // Cadence estimate for rate re-adaptation: payload sent vs acked.
    sent_bytes: u64,
    acked_bytes: u64,
    // --- energy co-simulation (simulator-internal truth) ---
    capacitor: Option<Capacitor>,
    /// Simulated time up to which the capacitor has been integrated.
    energy_at_us: u64,
    missed_polls: u32,
    // --- scheduler-side estimator (observed silence only) ---
    consecutive_misses: u32,
    skip_until_cycle: u32,
}

impl ServedTag {
    /// A tag slot with no buffers, for [`Self::arm`] to fill.
    fn idle() -> Self {
        ServedTag {
            slot: 0,
            helper_pps: 0.0,
            energy: None,
            session: SessionState::idle(),
            link: SimLink::new(FaultPlan::none(), 0),
            deficit: 0,
            rounds_served: 0,
            sent_bytes: 0,
            acked_bytes: 0,
            capacitor: None,
            energy_at_us: 0,
            missed_polls: 0,
            consecutive_misses: 0,
            skip_until_cycle: 0,
        }
    }

    /// Arms the slot for roster tag `slot` (`profile`): its session for
    /// `tcfg`, and every scheduler and energy field as new. The caller
    /// re-arms the link.
    fn arm(&mut self, slot: usize, profile: &TagProfile, tcfg: TransportConfig) {
        // Naming every field keeps a new one from escaping the re-arm.
        let ServedTag {
            slot: tag_slot,
            helper_pps,
            energy,
            session,
            link: _,
            deficit,
            rounds_served,
            sent_bytes,
            acked_bytes,
            capacitor,
            energy_at_us,
            missed_polls,
            consecutive_misses,
            skip_until_cycle,
        } = self;
        *tag_slot = slot;
        *helper_pps = profile.helper_pps;
        *energy = profile.energy;
        session.arm(&profile.message, tcfg);
        *capacitor = profile.energy.map(|e| Capacitor::new(e.capacitor));
        *deficit = 0;
        *rounds_served = 0;
        *sent_bytes = 0;
        *acked_bytes = 0;
        *energy_at_us = 0;
        *missed_polls = 0;
        *consecutive_misses = 0;
        *skip_until_cycle = 0;
    }

    /// Integrates the tag's supply forward to `up_to_us` at `load_uw`.
    fn integrate_energy(&mut self, up_to_us: u64, load_uw: f64) {
        let span = up_to_us.saturating_sub(self.energy_at_us);
        self.energy_at_us = self.energy_at_us.max(up_to_us);
        if let (Some(e), Some(c)) = (self.energy, self.capacitor.as_mut()) {
            c.advance(span as f64, e.harvest_uw, load_uw);
        }
    }

    /// The idle load: the rx chain listening for a poll, when the policy
    /// allows it in the current state.
    fn idle_load_uw(&self) -> f64 {
        match (self.energy, self.capacitor.as_ref()) {
            (Some(e), Some(c)) if e.policy.can_listen(c.state()) => LISTEN_LOAD_UW,
            _ => 0.0,
        }
    }

    /// Simulator-internal truth: can this tag answer a poll right now?
    /// The *scheduler* never calls this — it only sees the resulting
    /// silence.
    fn can_respond_now(&self) -> bool {
        match (self.energy, self.capacitor.as_ref()) {
            (Some(e), Some(c)) => e.policy.can_respond(c.state()),
            _ => true,
        }
    }

    /// The tag's energy outcome, `None` for an immortal tag.
    fn energy_outcome(&self) -> Option<TagEnergyOutcome> {
        self.capacitor.as_ref().map(|c| TagEnergyOutcome {
            final_charge_uj: c.charge_uj(),
            brownouts: c.brownouts(),
            recoveries: c.recoveries(),
            missed_polls: self.missed_polls,
        })
    }
}

/// What serving one gateway needs beyond its roster and config, kept
/// across every gateway one worker serves: a new gateway re-arms these
/// buffers instead of building its own, so once the scratch has grown
/// to the largest roster, serving a tag allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct GatewayScratch {
    /// The singulation roster.
    inv_tags: Vec<InventoryTag>,
    /// Tag slots; the last gateway served the first `served` of them,
    /// in discovery order.
    tags: Vec<ServedTag>,
    served: usize,
    /// The last gateway's links' degradation reports, merged.
    degradation: DegradationReport,
}

/// What the fleet reads of one served tag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ServedOutcome {
    /// The tag's index in the roster it was served from.
    pub(crate) slot: u32,
    /// Unique payload bytes that reached the reader.
    pub(crate) delivered_bytes: u64,
    /// Singulation plus the tag's own transfer airtime (µs).
    pub(crate) latency_us: u64,
    /// True when the whole message arrived.
    pub(crate) complete: bool,
    /// Energy outcome, `None` for an immortal tag.
    pub(crate) energy: Option<TagEnergyOutcome>,
}

/// One served gateway's totals: a [`GatewayRun`] without its per-tag
/// outcomes, fairness and merged report.
#[derive(Debug)]
pub(crate) struct Served {
    pub(crate) inventory: InventoryResult,
    pub(crate) cycles: u32,
    pub(crate) airtime_us: u64,
    pub(crate) truncated: bool,
    pub(crate) polls: u64,
    pub(crate) missed_polls: u64,
}

/// Runs the gateway over `tags`, recording scheduler spans and counters
/// on `rec`. Observe-enabled twin of [`run_gateway`].
///
/// # Errors
/// [`GatewayError::DuplicateAddress`] if two profiles share an address,
/// [`GatewayError::InvalidInventory`] if the inventory config's Q exceeds
/// 15, [`GatewayError::InvalidTransport`] if the transport's segment
/// payload is outside `1..=255` bytes, [`GatewayError::InvalidConfig`] if
/// the window is zero, the rate margin is not finite and
/// positive or the FEC group is out of its domain,
/// [`GatewayError::InvalidEnergy`] if
/// a profile's capacitor config or harvest power is invalid,
/// [`GatewayError::MessageTooLong`] if a profile's message needs more
/// than `u16::MAX` wire segments — any way the run is rejected before
/// any simulated time passes.
pub fn run_gateway_with(
    tags: &[TagProfile],
    cfg: &GatewayConfig,
    rec: &mut dyn Recorder,
) -> Result<GatewayRun, GatewayError> {
    let mut scratch = GatewayScratch::default();
    let served = serve(tags, cfg, rec, &mut scratch, &mut Vec::new())?;
    let outcomes: Vec<TagOutcome> = scratch.tags[..scratch.served]
        .iter_mut()
        .map(|tag| TagOutcome {
            address: tags[tag.slot].address,
            final_chip_rate_bps: tag.link.chip_rate_bps(),
            rounds_served: tag.rounds_served,
            transfer: tag.session.finish(&mut tag.link),
            energy: tag.energy_outcome(),
        })
        .collect();
    let delivered: Vec<u64> = outcomes
        .iter()
        .map(|t| t.transfer.delivered_bytes)
        .collect();
    Ok(GatewayRun {
        all_complete: !outcomes.is_empty() && outcomes.iter().all(|t| t.transfer.complete),
        fairness: jain_index(&delivered),
        tags: outcomes,
        cycles: served.cycles,
        airtime_us: served.airtime_us,
        truncated: served.truncated,
        polls: served.polls,
        missed_polls: served.missed_polls,
        inventory: served.inventory,
        degradation: scratch.degradation,
    })
}

/// Serves `tags` in `scratch`'s reused state: the one gateway path
/// under [`run_gateway_with`] and the fleet. Appends each served tag's
/// [`ServedOutcome`] to `outcomes`, in discovery order, leaves the
/// served tags' sessions and links in `scratch` until the next call,
/// and returns the gateway's totals. Every draw and output is
/// [`run_gateway_with`]'s.
///
/// # Errors
/// As [`run_gateway_with`], before `scratch` is touched.
pub(crate) fn serve(
    tags: &[TagProfile],
    cfg: &GatewayConfig,
    rec: &mut dyn Recorder,
    scratch: &mut GatewayScratch,
    outcomes: &mut Vec<ServedOutcome>,
) -> Result<Served, GatewayError> {
    let max_q = cfg.inventory.initial_q.max(cfg.inventory.max_q);
    if max_q > MAX_INVENTORY_Q {
        return Err(GatewayError::InvalidInventory { max_q });
    }
    // The transport's own check, on the shortest message: the segment
    // payload and the FEC group. Message lengths are checked per tag.
    let transport = cfg.transport.check(0);
    if let Err(TransportError::SegPayload { seg_payload_bytes }) = transport {
        return Err(GatewayError::InvalidTransport { seg_payload_bytes });
    }
    // A zero window grants no segment per poll, a margin that is not
    // finite and positive scales no rate, and an FEC group outside
    // `FecConfig::fixed`'s domain divides by zero or overruns the window.
    let margin = cfg.rate_margin;
    for (field, ok) in [
        ("transport.window", cfg.transport.window > 0),
        ("rate_margin", margin.is_finite() && margin > 0.0),
        ("transport.fec", transport.is_ok()),
    ] {
        if !ok {
            return Err(GatewayError::InvalidConfig { field });
        }
    }
    // Reject ambiguous rosters up front: with a duplicate address the
    // post-inventory profile lookup would silently serve the first
    // matching profile for every identification of that address. The
    // same pass builds that lookup: address -> roster index, and rejects
    // a supply outside `EnergyConfig::is_valid` (a capacitor that
    // `Capacitor::new` would panic on, or a harvest that is not a finite,
    // non-negative power), or a message the transport's check rejects.
    let mut index_of: [Option<usize>; 256] = [None; 256];
    for (i, t) in tags.iter().enumerate() {
        if index_of[t.address as usize].replace(i).is_some() {
            return Err(GatewayError::DuplicateAddress { address: t.address });
        }
        if t.energy.is_some_and(|e| !e.is_valid()) {
            return Err(GatewayError::InvalidEnergy { address: t.address });
        }
        if cfg.transport.check(t.message.len()).is_err() {
            return Err(GatewayError::MessageTooLong { address: t.address });
        }
    }

    let GatewayScratch {
        inv_tags,
        tags: pool,
        served: served_len,
        degradation,
    } = scratch;
    let root = SimRng::new(cfg.seed);
    let caps = cfg.phy.capabilities();

    // Phase 1 — singulation: discover who is out there and in what
    // order they will be served. The inventory clock goes through
    // `InventoryResult::airtime_us` so the slot length can follow the
    // PHY (see `GatewayConfig::with_phy`). A tag whose supply cannot
    // fund a reply at cold start is silent through singulation: the
    // reader never learns it exists.
    inv_tags.clear();
    inv_tags.extend(tags.iter().map(|t| {
        let powered = t
            .energy
            .is_none_or(|e| e.policy.can_respond(Capacitor::new(e.capacitor).state()));
        let it = InventoryTag::new(t.address);
        if powered {
            it
        } else {
            it.unpowered()
        }
    }));
    let mut inv_rng = root.stream("gateway-inventory");
    let inventory = run_inventory_with(inv_tags, cfg.inventory, &mut inv_rng, rec);
    let inv_air_us = inventory.airtime_us(cfg.slot_us);
    let mut clock_us = inv_air_us;

    // Phase 2 — arm one tag slot (transport session + link) per
    // discovered tag, each seeded from its discovery index under the two
    // per-gateway streams. The fault plan is read once for every link.
    let link_streams = root.stream("gateway-link");
    let transport_streams = root.stream("gateway-transport");
    let rates = FaultRates::of(&cfg.faults);
    let discovered = inventory
        .identified
        .iter()
        .filter_map(|&addr| index_of[addr as usize]);
    pool.reserve(inventory.identified.len().saturating_sub(pool.len()));
    let mut n = 0;
    for (i, slot) in discovered.enumerate() {
        if i == pool.len() {
            pool.push(ServedTag::idle());
        }
        let profile = &tags[slot];
        let tag = &mut pool[i];
        tag.arm(
            slot,
            profile,
            TransportConfig {
                tag_address: profile.address,
                msg_id: profile.address,
                seed: transport_streams.substream(i as u64).seed(),
                ..cfg.transport.clone()
            },
        );
        tag.link.rearm(
            rates,
            cfg.faults.seed,
            link_streams.substream(i as u64).seed(),
        );
        // The capabilities pick from the configured PHY's own rate
        // table.
        tag.link.set_chip_rate_bps(caps.select_rate_bps(
            profile.helper_pps,
            cfg.pkts_per_bit,
            cfg.rate_margin,
        ));
        tag.link.advance_us(clock_us);
        n = i + 1;
    }
    *served_len = n;
    let served = &mut pool[..n];
    // Tags listened through singulation; charge their supplies over it.
    for tag in served.iter_mut() {
        let load = tag.idle_load_uw();
        tag.integrate_energy(clock_us, load);
    }

    // Phase 3 — deficit round-robin on the shared clock.
    let mut cycles = 0u32;
    let mut polls = 0u64;
    let mut missed_polls = 0u64;
    while cycles < cfg.max_cycles && served.iter().any(|t| t.session.can_continue()) {
        cycles += 1;
        let cycle_start = clock_us;
        let mut serves = 0u64;
        for tag in served.iter_mut() {
            if !tag.session.can_continue() {
                tag.deficit = 0; // done: a finished flow banks nothing
                continue;
            }
            tag.deficit += QUANTUM_BYTES;
            // Energy-aware backoff: a tag the scheduler has marked as
            // (probably) charging keeps banking quantum but is not
            // polled, so its silence costs no airtime.
            if cfg.polling == PollingPolicy::EnergyAware && cycles < tag.skip_until_cycle {
                rec.add("net.energy-skips", 1);
                continue;
            }
            // Bring the supply forward to the poll instant: the tag was
            // idle-listening (or dead) since we last looked at it.
            let idle_load = tag.idle_load_uw();
            tag.integrate_energy(clock_us, idle_load);
            if !tag.can_respond_now() {
                // Wasted poll: the reader transmits the query, then holds
                // the medium for one segment's worth of response window
                // before concluding silence. That airtime burns either
                // way — this is the cost the energy-aware policy avoids.
                let window_bits = cfg.transport.seg_payload_bytes * 8;
                clock_us += control_air_us(Query::PAYLOAD_BYTES)
                    + segment_air_us(window_bits, tag.link.chip_rate_bps());
                polls += 1;
                missed_polls += 1;
                tag.missed_polls += 1;
                tag.consecutive_misses += 1;
                let idle_load = tag.idle_load_uw();
                tag.integrate_energy(clock_us, idle_load);
                if cfg.polling == PollingPolicy::EnergyAware {
                    let backoff = 1u32 << tag.consecutive_misses.min(3);
                    tag.skip_until_cycle = cycles.saturating_add(backoff);
                }
                rec.add("net.energy-missed-polls", 1);
                continue;
            }
            tag.consecutive_misses = 0;
            while tag.session.can_continue() && tag.deficit >= tag.session.next_round_bytes() {
                // One reader, one medium: bring this tag's link forward
                // to the global clock, serve a round, take the time.
                let link_now = tag.link.now_us();
                tag.link.advance_us(clock_us.saturating_sub(link_now));
                let message = &tags[tag.slot].message;
                let outcome = tag.session.step_round(message, &mut tag.link, rec);
                clock_us = tag.link.now_us();
                polls += 1;
                // The round's span was spent receiving the burst grant
                // and transmitting the reply — charge the tx-heavy rate.
                tag.integrate_energy(clock_us, RESPOND_LOAD_UW);
                tag.deficit = tag.deficit.saturating_sub(outcome.sent_bytes);
                tag.rounds_served += 1;
                tag.sent_bytes += outcome.sent_bytes;
                tag.acked_bytes += outcome.acked_bytes;
                serves += 1;
                rec.add("net.sched-serves", 1);

                // Reactive per-tag rate adaptation: the delivery ratio
                // scales the §5 cadence estimate; a collapse steps the
                // chip rate down (never up — the adapter is one-way,
                // like the session's reactive mitigation). The
                // capabilities step down the configured mode's own rate
                // table, so no PHY halves against the presence floor.
                if tag.sent_bytes >= 4 * QUANTUM_BYTES {
                    let delivery = tag.acked_bytes as f64 / tag.sent_bytes as f64;
                    let measured_pps = tag.helper_pps * delivery;
                    if let Some(slower) = caps.readapt_rate(
                        tag.link.chip_rate_bps(),
                        measured_pps,
                        f64::from(cfg.pkts_per_bit),
                    ) {
                        tag.link.set_chip_rate_bps(slower);
                        rec.add("net.rate-readapts", 1);
                    }
                }
            }
        }
        rec.add("net.sched-cycles", 1);
        rec.span("net.sched", cycle_start, clock_us, serves);
    }

    // The loop above exits either because every session ran itself to
    // completion/budget-exhaustion, or because the cycle backstop fired
    // with work still pending — only the latter is a truncation.
    let truncated = served.iter().any(|t| t.session.can_continue());

    // Phase 4 — close every session into the flat outcomes, and merge
    // its link's report into the gateway's; the report itself is
    // cleared when the link is next re-armed.
    clear_report(degradation);
    outcomes.extend(served.iter().map(|tag| {
        let transfer = tag.session.close(&tag.link);
        degradation.merge(tag.link.degradation());
        ServedOutcome {
            slot: tag.slot as u32,
            delivered_bytes: transfer.delivered_bytes,
            latency_us: inv_air_us + transfer.airtime_us,
            complete: transfer.complete,
            energy: tag.energy_outcome(),
        }
    }));
    Ok(Served {
        inventory,
        cycles,
        airtime_us: clock_us,
        truncated,
        polls,
        missed_polls,
    })
}

/// Runs the gateway with no observability overhead.
///
/// # Errors
/// As [`run_gateway_with`].
pub fn run_gateway(tags: &[TagProfile], cfg: &GatewayConfig) -> Result<GatewayRun, GatewayError> {
    run_gateway_with(tags, cfg, &mut NullRecorder)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bs_dsp::obs::{MemRecorder, ObsReport};

    /// [`run_gateway_with`] under an armed recorder, returning its report.
    fn observed(
        tags: &[TagProfile],
        cfg: &GatewayConfig,
    ) -> Result<(GatewayRun, ObsReport), GatewayError> {
        let mut rec = MemRecorder::new();
        let run = run_gateway_with(tags, cfg, &mut rec)?;
        Ok((run, rec.into_report()))
    }

    fn fleet(n: usize, bytes: usize) -> Vec<TagProfile> {
        (0..n)
            .map(|i| {
                TagProfile::new(
                    i as u8 + 1,
                    (0..bytes).map(|b| ((b + i * 7) % 251) as u8).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn clean_gateway_delivers_everything_fairly() {
        let run = run_gateway(&fleet(4, 128), &GatewayConfig::default()).unwrap();
        assert!(run.all_complete);
        assert_eq!(run.tags.len(), 4);
        for t in &run.tags {
            assert!(t.transfer.complete, "tag {} incomplete", t.address);
            assert_eq!(t.transfer.delivered_bytes, 128);
        }
        assert!(run.fairness > 0.99, "fairness {}", run.fairness);
        assert!(run.degradation.is_clean());
    }

    #[test]
    fn gateway_is_deterministic() {
        let cfg = GatewayConfig::default()
            .with_faults(FaultPlan::preset("loss", 0.8, 3).unwrap())
            .with_seed(42);
        let a = run_gateway(&fleet(3, 200), &cfg).unwrap();
        let b = run_gateway(&fleet(3, 200), &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn lossy_gateway_still_delivers_exact_bytes() {
        let cfg = GatewayConfig::default()
            .with_faults(FaultPlan::preset("loss", 1.0, 9).unwrap())
            .with_seed(7);
        let tags = fleet(3, 160);
        let run = run_gateway(&tags, &cfg).unwrap();
        assert!(run.all_complete, "ARQ must push through 30% loss");
        // `run.tags` is in discovery order — match by address.
        for t in &run.tags {
            let p = tags.iter().find(|p| p.address == t.address).unwrap();
            assert_eq!(t.transfer.delivered.as_ref(), Some(&p.message));
        }
    }

    #[test]
    fn starved_tag_rate_readapts_downward() {
        // A tag whose helper cadence is near the commanded rate's floor
        // plus heavy loss → the delivery-scaled cadence collapses and
        // the gateway steps the chip rate down.
        let mut tags = fleet(2, 256);
        tags[0].helper_pps = 600.0; // selects 100 bps at ppb 5, margin 0.9
        let cfg = GatewayConfig {
            faults: FaultPlan::preset("loss", 1.0, 5)
                .unwrap()
                .with(bs_channel::faults::Fault::RateCollapse { keep: 0.2 }),
            seed: 11,
            ..GatewayConfig::default()
        };
        let (run, obs) = observed(&tags, &cfg).unwrap();
        assert!(
            obs.counter("net.rate-readapts") > 0,
            "collapsed cadence should trigger re-adaptation"
        );
        assert!(run.tags.iter().any(|t| t.final_chip_rate_bps < 100));
    }

    #[test]
    fn scheduler_spans_and_counters_recorded() {
        let (_, obs) = observed(&fleet(3, 96), &GatewayConfig::default()).unwrap();
        assert!(obs.spans_for("net.sched").count() >= 1);
        assert!(obs.counter("net.sched-cycles") >= 1);
        assert!(obs.counter("net.sched-serves") >= 3);
        // The per-tag transports also recorded through the same recorder.
        assert!(obs.counter("net.polls") >= 3);
    }

    #[test]
    fn fec_gateway_delivers_exactly_and_repairs() {
        let cfg = GatewayConfig::default()
            .with_faults(FaultPlan::preset("loss", 1.0, 13).unwrap())
            .with_seed(3)
            .with_fec(crate::fec::FecConfig::fixed(8, 2));
        let tags = fleet(3, 160);
        let (run, obs) = observed(&tags, &cfg).unwrap();
        assert!(run.all_complete, "FEC gateway must deliver under loss");
        for t in &run.tags {
            let p = tags.iter().find(|p| p.address == t.address).unwrap();
            assert_eq!(t.transfer.delivered.as_ref(), Some(&p.message));
        }
        let repairs: u64 = run.tags.iter().map(|t| t.transfer.fec_repairs).sum();
        assert!(
            repairs > 0,
            "30% loss across 3 tags should repair something"
        );
        assert_eq!(
            obs.counter("net.fec.repair"),
            repairs,
            "per-tag counters and the shared recorder must agree"
        );
    }

    #[test]
    fn codeword_gateway_selects_codeword_rates_and_short_slots() {
        // Audit sites D/E/F: a codeword gateway must pick from the
        // codeword rate table (25 kbps at the nominal 3000 pps cadence,
        // not the presence table's 1 kbps cap), charge the codeword's
        // short singulation slots, and still deliver everything.
        let cw = GatewayConfig::default().with_phy(PhyConfig::Codeword);
        assert_eq!(
            cw.slot_us,
            PhyConfig::Codeword.capabilities().inventory_slot_us,
            "with_phy must re-derive the inventory slot length"
        );
        let tags = fleet(3, 128);
        let run = run_gateway(&tags, &cw).unwrap();
        assert!(run.all_complete);
        for t in &run.tags {
            assert_eq!(
                t.final_chip_rate_bps, 25_000,
                "tag {} not on the codeword rate table",
                t.address
            );
        }
        // Same seed, same inventory outcome, but every phase is faster:
        // shorter slots and a ~25x uplink rate.
        let presence = run_gateway(&tags, &GatewayConfig::default()).unwrap();
        assert_eq!(run.inventory.slots, presence.inventory.slots);
        assert!(
            run.airtime_us < presence.airtime_us,
            "codeword {} us vs presence {} us",
            run.airtime_us,
            presence.airtime_us
        );
    }

    #[test]
    fn empty_fleet_is_a_clean_noop() {
        let run = run_gateway(&[], &GatewayConfig::default()).unwrap();
        assert!(!run.all_complete);
        assert!(run.tags.is_empty());
        assert_eq!(run.fairness, 0.0);
    }

    #[test]
    fn duplicate_addresses_are_rejected_not_mispaired() {
        // Regression: two tags at the same address used to both pair
        // with the first matching profile, double-reporting one message
        // and dropping the other. Now the roster is rejected up front.
        let mut tags = fleet(3, 64);
        tags[2].address = tags[0].address;
        let err = run_gateway(&tags, &GatewayConfig::default()).unwrap_err();
        assert_eq!(err, GatewayError::DuplicateAddress { address: 1 });
        assert!(err.to_string().contains("duplicate tag address 1"));
        // An armed recorder takes the same gate.
        assert!(observed(&tags, &GatewayConfig::default()).is_err());
    }

    #[test]
    fn oversize_inventory_q_is_rejected() {
        // Regression: q = 64 used to overflow the inventory's frame-size
        // shift (a panic in debug, a silent 1-slot frame in release).
        for (initial_q, max_q) in [(4, 16), (64, 10), (64, 64)] {
            let cfg = GatewayConfig {
                inventory: InventoryConfig {
                    initial_q,
                    max_q,
                    ..InventoryConfig::default()
                },
                ..GatewayConfig::default()
            };
            let want = GatewayError::InvalidInventory {
                max_q: initial_q.max(max_q),
            };
            assert_eq!(run_gateway(&fleet(3, 64), &cfg).unwrap_err(), want);
            assert!(observed(&fleet(3, 64), &cfg).is_err());
        }
        let edge = GatewayConfig {
            inventory: InventoryConfig {
                initial_q: 15,
                max_q: 15,
                ..InventoryConfig::default()
            },
            ..GatewayConfig::default()
        };
        assert!(run_gateway(&fleet(3, 64), &edge).unwrap().all_complete);
    }

    #[test]
    fn invalid_capacitor_config_is_rejected() {
        // Regression: each (capacitance µF, voltage V, wake fraction)
        // reached `Capacitor::new`'s assert and panicked the run. Against
        // the default 0.1 brownout fraction, a 0.05 wake is inverted.
        for (capacitance_uf, voltage, wake_fraction) in [
            (0.0, 2.0, 0.6),
            (f64::NAN, 2.0, 0.6),
            (100.0, -2.0, 0.6),
            (100.0, 2.0, 0.05),
        ] {
            let bad = bs_tag::energy::CapacitorConfig {
                capacitance_uf,
                voltage,
                wake_fraction,
                ..Default::default()
            };
            let mut tags = fleet(3, 64);
            tags[1].energy = Some(EnergyConfig {
                capacitor: bad,
                ..EnergyConfig::harvesting(30.0)
            });
            let err = run_gateway(&tags, &GatewayConfig::default()).unwrap_err();
            assert_eq!(err, GatewayError::InvalidEnergy { address: 2 }, "{bad:?}");
            assert!(err.to_string().contains("tag 2"), "{err}");
            assert!(observed(&tags, &GatewayConfig::default()).is_err());
        }
    }

    #[test]
    fn non_finite_or_negative_harvest_is_rejected() {
        // Regression: a NaN, infinite or negative harvest ran and returned
        // a result that only looked valid. A zero harvest is a real tag.
        for harvest_uw in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, 0.0] {
            let mut tags = fleet(3, 64);
            tags[1].energy = Some(EnergyConfig::harvesting(harvest_uw));
            let want = (harvest_uw != 0.0).then_some(GatewayError::InvalidEnergy { address: 2 });
            let got = run_gateway(&tags, &GatewayConfig::default()).err();
            assert_eq!(got, want, "{harvest_uw}");
        }
    }

    #[test]
    fn out_of_range_segment_payload_is_rejected() {
        // Regression: 0 or 256 reached `segment_message`'s assert and
        // panicked the run.
        for seg_payload_bytes in [0, 256, usize::MAX] {
            let mut cfg = GatewayConfig::default();
            cfg.transport.seg_payload_bytes = seg_payload_bytes;
            let want = GatewayError::InvalidTransport { seg_payload_bytes };
            assert_eq!(run_gateway(&fleet(3, 64), &cfg).unwrap_err(), want);
            assert!(observed(&fleet(3, 64), &cfg).is_err());
        }
        let mut edge = GatewayConfig::default();
        for seg_payload_bytes in [1, 255] {
            edge.transport.seg_payload_bytes = seg_payload_bytes;
            assert!(run_gateway(&fleet(2, 8), &edge).is_ok());
        }
    }

    #[test]
    fn message_past_the_sequence_space_is_rejected() {
        // Regression: 70,000 B in 1 B segments reached
        // `segment_message`'s "too many segments" assert and panicked
        // the run. Parity counts too: 60,000 B fits plain ARQ's 65,535
        // sequence numbers, but not with 2 parity per 8 data segments.
        let mut cfg = GatewayConfig::default();
        cfg.transport.seg_payload_bytes = 1;
        let mut tags = fleet(3, 8);
        tags[1].message = vec![0; 70_000];
        let want = GatewayError::MessageTooLong { address: 2 };
        assert_eq!(run_gateway(&tags, &cfg).unwrap_err(), want);
        assert!(want.to_string().contains("tag 2"), "{want}");
        assert!(observed(&tags, &cfg).is_err());
        tags[1].message = vec![0; 60_000];
        assert_eq!(cfg.transport.wire_segments(60_000), 60_000);
        let fec = cfg.clone().with_fec(crate::fec::FecConfig::fixed(8, 2));
        assert_eq!(run_gateway(&tags, &fec).unwrap_err(), want);
        // The count is exact at the boundary.
        assert_eq!(cfg.transport.wire_segments(usize::from(u16::MAX)), 65_535);
        assert_eq!(
            cfg.transport.wire_segments(usize::from(u16::MAX) + 1),
            65_536
        );
    }

    #[test]
    fn degenerate_scheduler_knobs_are_rejected() {
        // Regression: each of these returned an `Ok` run that only
        // looked valid — 10,000 truncated cycles with nothing delivered,
        // a silent stop-and-wait, or every tag at the slowest rate.
        // A hand-built FEC group with no data segments panicked with a
        // division by zero.
        use crate::fec::FecConfig;
        type Set = fn(&mut GatewayConfig);
        let cases: [(&str, Set); 8] = [
            ("transport.window", |c| c.transport.window = 0),
            ("rate_margin", |c| c.rate_margin = f64::NAN),
            ("rate_margin", |c| c.rate_margin = f64::INFINITY),
            ("rate_margin", |c| c.rate_margin = 0.0),
            ("rate_margin", |c| c.rate_margin = -0.5),
            ("transport.fec", |c| {
                c.transport.fec = FecConfig {
                    group_data: 0,
                    group_parity: 2,
                }
            }),
            ("transport.fec", |c| {
                c.transport.fec = FecConfig {
                    group_data: 65,
                    group_parity: 2,
                }
            }),
            ("transport.fec", |c| {
                c.transport.fec = FecConfig {
                    group_data: 8,
                    group_parity: 65,
                }
            }),
        ];
        for (field, set) in cases {
            let mut cfg = GatewayConfig::default();
            set(&mut cfg);
            let err = run_gateway(&fleet(3, 64), &cfg).unwrap_err();
            assert_eq!(err, GatewayError::InvalidConfig { field });
            assert!(err.to_string().contains(field), "{err}");
            assert!(observed(&fleet(3, 64), &cfg).is_err());
        }
    }

    #[test]
    fn max_cycles_exhaustion_is_reported_as_truncated() {
        // Regression: a backstop-truncated run used to be
        // indistinguishable from a finished one except by inferring
        // from `all_complete`.
        let cfg = GatewayConfig {
            max_cycles: 2,
            faults: FaultPlan::preset("loss", 1.0, 3).unwrap(),
            ..GatewayConfig::default()
        };
        let run = run_gateway(&fleet(3, 400), &cfg).unwrap();
        assert!(run.truncated, "2 cycles cannot move 400 B under loss");
        assert!(!run.all_complete);

        let clean = run_gateway(&fleet(3, 64), &GatewayConfig::default()).unwrap();
        assert!(
            !clean.truncated,
            "a naturally finished run is not truncated"
        );
        assert!(clean.all_complete);
    }

    fn starving_energy() -> EnergyConfig {
        // 10 µF at 2 V is a 20 µJ reservoir; harvesting 5 µW against an
        // 11 µW listen draw, the tag browns out while idling and crawls
        // back while dead.
        EnergyConfig {
            capacitor: bs_tag::energy::CapacitorConfig {
                capacitance_uf: 10.0,
                ..bs_tag::energy::CapacitorConfig::default()
            },
            harvest_uw: 5.0,
            policy: bs_tag::energy::EnergyPolicy::SleepUntilCharged,
        }
    }

    #[test]
    fn always_powered_energy_matches_energy_none() {
        let cfg = GatewayConfig::default()
            .with_faults(FaultPlan::preset("loss", 0.8, 3).unwrap())
            .with_seed(42);
        let plain = run_gateway(&fleet(4, 128), &cfg).unwrap();
        let powered_tags: Vec<TagProfile> = fleet(4, 128)
            .into_iter()
            .map(|t| t.with_energy(EnergyConfig::always_powered()))
            .collect();
        let powered = run_gateway(&powered_tags, &cfg).unwrap();
        assert_eq!(plain.airtime_us, powered.airtime_us);
        assert_eq!(plain.cycles, powered.cycles);
        assert_eq!(plain.polls, powered.polls);
        assert_eq!(powered.missed_polls, 0);
        assert_eq!(plain.fairness, powered.fairness);
        for (a, b) in plain.tags.iter().zip(powered.tags.iter()) {
            assert_eq!(a.transfer, b.transfer, "tag {} diverged", a.address);
            let e = b.energy.expect("supply armed");
            assert_eq!(e.brownouts, 0);
            assert_eq!(e.missed_polls, 0);
        }
    }

    #[test]
    fn starving_tag_browns_out_and_misses_polls() {
        let mut tags = fleet(4, 256);
        tags[0] = tags[0].clone().with_energy(starving_energy());
        let cfg = GatewayConfig::default()
            .with_faults(FaultPlan::preset("loss", 0.6, 7).unwrap())
            .with_seed(9);
        let (run, obs) = observed(&tags, &cfg).unwrap();
        assert!(run.missed_polls > 0, "starving tag should miss polls");
        let e = run
            .tags
            .iter()
            .find(|t| t.address == 1)
            .and_then(|t| t.energy)
            .expect("tag 1 discovered with a supply");
        assert!(e.brownouts >= 1, "brownouts: {}", e.brownouts);
        assert_eq!(u64::from(e.missed_polls), run.missed_polls);
        assert_eq!(obs.counter("net.energy-missed-polls"), run.missed_polls);
        // The immortal tags are unaffected.
        for t in run.tags.iter().filter(|t| t.address != 1) {
            assert!(t.transfer.complete, "tag {} incomplete", t.address);
            assert!(t.energy.is_none());
        }
    }

    #[test]
    fn energy_aware_polling_beats_naive_on_paired_seed() {
        let mut tags = fleet(4, 256);
        tags[0] = tags[0].clone().with_energy(starving_energy());
        let base = GatewayConfig::default()
            .with_faults(FaultPlan::preset("loss", 0.6, 7).unwrap())
            .with_seed(9);
        let naive = run_gateway(&tags, &base).unwrap();
        let (aware, obs) = observed(
            &tags,
            &base.clone().with_polling(PollingPolicy::EnergyAware),
        )
        .unwrap();
        assert!(
            obs.counter("net.energy-skips") > 0,
            "the estimator should engage"
        );
        assert!(
            aware.missed_polls <= naive.missed_polls,
            "aware {} vs naive {} missed polls",
            aware.missed_polls,
            naive.missed_polls
        );
        assert!(
            aware.aggregate_goodput_bps() >= naive.aggregate_goodput_bps(),
            "aware {} vs naive {} bps",
            aware.aggregate_goodput_bps(),
            naive.aggregate_goodput_bps()
        );
    }

    #[test]
    fn dead_at_cold_start_tag_is_never_discovered() {
        let mut tags = fleet(3, 64);
        let mut supply = starving_energy();
        supply.capacitor.initial_fraction = 0.0;
        supply.harvest_uw = 0.0;
        tags[1] = tags[1].clone().with_energy(supply);
        let run = run_gateway(&tags, &GatewayConfig::default()).unwrap();
        assert_eq!(run.tags.len(), 2, "dead tag must stay invisible");
        assert!(run.tags.iter().all(|t| t.address != 2));
        assert_eq!(run.missed_polls, 0, "an unknown tag is never polled");
    }

    /// What the fleet reads of each served tag — `(address, delivered
    /// bytes, latency µs, complete, energy)`, latency being singulation
    /// plus the tag's own transfer airtime — and the run's totals.
    #[derive(Debug, PartialEq)]
    struct FleetView {
        tags: Vec<(u8, u64, u64, bool, Option<TagEnergyOutcome>)>,
        airtime_us: u64,
        polls: u64,
        missed_polls: u64,
        truncated: bool,
    }

    /// The [`FleetView`] of a whole [`GatewayRun`].
    fn view_of_run(run: &GatewayRun, cfg: &GatewayConfig) -> FleetView {
        let inv_air = run.inventory.airtime_us(cfg.slot_us);
        FleetView {
            tags: run
                .tags
                .iter()
                .map(|o| {
                    let t = &o.transfer;
                    let latency = inv_air + t.airtime_us;
                    (o.address, t.delivered_bytes, latency, t.complete, o.energy)
                })
                .collect(),
            airtime_us: run.airtime_us,
            polls: run.polls,
            missed_polls: run.missed_polls,
            truncated: run.truncated,
        }
    }

    /// The [`FleetView`] of `tags` served in `scratch`'s reused state,
    /// read from the outcomes this call appends to `outcomes`.
    fn served_view(
        tags: &[TagProfile],
        cfg: &GatewayConfig,
        scratch: &mut GatewayScratch,
        outcomes: &mut Vec<ServedOutcome>,
    ) -> FleetView {
        let start = outcomes.len();
        let served = serve(tags, cfg, &mut NullRecorder, scratch, outcomes).unwrap();
        FleetView {
            tags: outcomes[start..]
                .iter()
                .map(|o| {
                    let address = tags[o.slot as usize].address;
                    (
                        address,
                        o.delivered_bytes,
                        o.latency_us,
                        o.complete,
                        o.energy,
                    )
                })
                .collect(),
            airtime_us: served.airtime_us,
            polls: served.polls,
            missed_polls: served.missed_polls,
            truncated: served.truncated,
        }
    }

    /// `n` tags whose messages run from `base` to `base + 40` bytes, so
    /// neighbouring tags need different slot tables and buffers.
    fn mixed_roster(n: usize, base: usize) -> Vec<TagProfile> {
        (0..n)
            .map(|i| {
                let len = base + (i * 13) % 41;
                TagProfile::new(i as u8 + 1, (0..len).map(|b| (b * 3 + i) as u8).collect())
            })
            .collect()
    }

    /// Gives every `every`-th tag the starving supply; with `dead` set,
    /// every other one of those starts empty with no harvest and is
    /// never discovered.
    fn starve(mut tags: Vec<TagProfile>, every: usize, dead: bool) -> Vec<TagProfile> {
        for (i, t) in tags.iter_mut().enumerate().filter(|(i, _)| i % every == 0) {
            let mut supply = starving_energy();
            if dead && i % (2 * every) == 0 {
                supply.capacitor.initial_fraction = 0.0;
                supply.harvest_uw = 0.0;
            }
            t.energy = Some(supply);
        }
        tags
    }

    #[test]
    fn a_reused_scratch_serves_like_a_fresh_gateway() {
        // One worker's gateways back to back: sizes large, small,
        // large; FEC on and off; browning-out, dead and immortal tags,
        // two energy-aware runs; the loss and outage presets; a
        // truncated run. Each must read exactly as a gateway served with
        // fresh state, merged degradation report included.
        use crate::fec::FecConfig;
        let preset = |name, sev, seed| FaultPlan::preset(name, sev, seed).unwrap();
        let plain = GatewayConfig::default;
        let sequence = [
            (
                mixed_roster(200, 48),
                plain().with_faults(preset("loss", 1.0, 3)).with_seed(3),
            ),
            (
                mixed_roster(9, 20),
                plain()
                    .with_faults(preset("outage", 1.0, 4))
                    .with_seed(4)
                    .with_fec(FecConfig::fixed(8, 2)),
            ),
            (
                starve(mixed_roster(180, 30), 3, true),
                plain()
                    .with_faults(preset("loss", 0.6, 5))
                    .with_seed(5)
                    .with_polling(PollingPolicy::EnergyAware),
            ),
            (
                mixed_roster(240, 100),
                plain().with_faults(preset("outage", 0.8, 6)).with_seed(6),
            ),
            (
                starve(mixed_roster(4, 300), 2, false),
                plain()
                    .with_faults(preset("loss", 1.0, 7))
                    .with_seed(7)
                    .with_fec(FecConfig::fixed(4, 2)),
            ),
            (
                mixed_roster(230, 60),
                GatewayConfig {
                    max_cycles: 3,
                    ..plain().with_faults(preset("loss", 1.0, 8)).with_seed(8)
                },
            ),
            (
                starve(mixed_roster(220, 16), 4, false),
                plain()
                    .with_faults(preset("loss", 0.5, 9))
                    .with_seed(9)
                    .with_fec(FecConfig::fixed(8, 2))
                    .with_polling(PollingPolicy::EnergyAware),
            ),
            (mixed_roster(150, 48), plain().with_seed(10)),
        ];
        // One scratch and one flat outcome buffer across the sequence,
        // as a fleet shard serves its gateways.
        let (mut scratch, mut outcomes) = (GatewayScratch::default(), Vec::new());
        let (mut truncated, mut missed, mut unseen) = (false, false, false);
        for (i, (tags, cfg)) in sequence.iter().enumerate() {
            let run = run_gateway(tags, cfg).unwrap();
            let fresh = view_of_run(&run, cfg);
            assert!(!fresh.tags.is_empty(), "roster {i} served nobody");
            truncated |= fresh.truncated;
            missed |= fresh.missed_polls > 0;
            unseen |= fresh.tags.len() < tags.len();
            let reused = served_view(tags, cfg, &mut scratch, &mut outcomes);
            assert_eq!(reused, fresh, "roster {i}");
            assert_eq!(scratch.degradation, run.degradation, "roster {i}");
        }
        assert!(truncated && missed && unseen, "the sequence lost a case");
    }

    #[test]
    fn jain_index_math() {
        assert_eq!(jain_index(&[]), 0.0);
        assert_eq!(jain_index(&[0, 0]), 0.0);
        assert!((jain_index(&[5, 5, 5]) - 1.0).abs() < 1e-12);
        // One hog, three starved: 16/(4·100)… = (10)²/(4·(64+4+4+4)).
        let skewed = jain_index(&[8, 2, 0, 0]);
        assert!(skewed < 0.5, "{skewed}");
    }
}
