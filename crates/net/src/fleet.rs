//! Fleet-scale simulation: many gateways, 10⁵–10⁶ tags, one seed.
//!
//! The paper's Figure-1 deployment is not one reader — it is a building
//! full of them, each relaying its tag population to the internet. This
//! module scales the single-reader [`gateway`](crate::gateway) to that
//! regime: gateways are laid out on a jittered grid, every tag lives
//! near a home gateway and associates with the nearest one in range,
//! and the simulation advances in *epochs*. Each epoch:
//!
//! 1. **Movement** — a seeded fraction of tags take a Gaussian step;
//! 2. **Handoff** — every tag re-evaluates its nearest gateway; moves
//!    are proposed per shard, then merged and applied in global tag-id
//!    order under a per-gateway address-space cap, so the outcome never
//!    depends on how the work was partitioned;
//! 3. **Interference** — each gateway's fault severity is raised by the
//!    coverage overlap with its loaded neighbours
//!    ([`bs_channel::geometry::coverage_overlap`]): two readers whose
//!    cells overlap steal each other's helper transmissions;
//! 4. **Service** — every gateway runs a full
//!    [`run_gateway`](crate::gateway::run_gateway) pass over its
//!    current roster (singulation, per-tag ARQ, deficit round-robin,
//!    rate adaptation), uploading one fresh message per tag. A worker
//!    serves gateway after gateway in one reused state, so a tag's
//!    session, link and outcome are re-armed buffers, not new ones.
//!
//! # Sharding and determinism
//!
//! The flat per-entity control blocks (tag positions, associations,
//! per-gateway rosters) are partitioned into contiguous **shards**, one
//! per gateway up to 16 — a count set by the population, never by the
//! worker count — spread over workers by [`bs_dsp::par::map_indexed`]:
//! one atomic cursor, results back in shard order, no mutexes or rwlocks
//! on the hot path, and a panicking shard surfaces as
//! [`FleetError::ShardPanicked`] rather than tearing down the caller.
//! Every random draw descends from a stream keyed by the *entity's*
//! coordinates (tag id, gateway id, epoch), never by the worker or shard
//! that happened to compute it, and every cross-shard merge is applied in
//! global id order. Consequently a fleet run is a pure function of
//! the [`FleetConfig`] alone: byte-identical for any `jobs` count (the
//! conformance suite pins it).
//!
//! ```
//! use bs_net::fleet::{run_fleet, FleetConfig};
//!
//! let cfg = FleetConfig::default().with_population(9, 6).with_seed(7);
//! let a = run_fleet(&cfg, 1).unwrap();
//! let b = run_fleet(&cfg, 4).unwrap();
//! assert_eq!(a.to_json(), b.to_json()); // worker count never shows
//! assert_eq!(a.tags, 54);
//! ```

use crate::gateway::{
    jain_index, serve, GatewayConfig, GatewayError, GatewayScratch, ServedOutcome, TagProfile,
};
use bs_channel::geometry::coverage_overlap;
use bs_dsp::obs::NullRecorder;
use bs_dsp::par::{map_indexed, ChunkPanic};
use bs_dsp::rng::Fnv1a64;
use bs_dsp::stats::percentile_many;
use bs_dsp::SimRng;
use bs_tag::energy::{Capacitor, CapacitorConfig, EnergyConfig, EnergyPolicy, LISTEN_LOAD_UW};
use bs_tag::harvester::{harvested_uw, wifi_incident_dbm};
use std::sync::{Mutex, PoisonError};

/// Hard per-gateway roster cap: the link-layer address is a `u8` and a
/// handful of values are reserved, so one reader can serve at most this
/// many tags per epoch. Handoffs that would overflow a gateway are
/// denied and retried in a later epoch.
pub const MAX_TAGS_PER_GATEWAY: usize = 250;

/// Why a fleet run could not start (or finish).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FleetError {
    /// The config asked for zero gateways.
    NoGateways,
    /// The config asked for zero tags per gateway.
    NoTags,
    /// A geometry, mobility or energy field is out of its domain: a
    /// spacing or coverage radius that is not finite and positive, a
    /// movement step, interference gain or `energy.ambient_uw` that is
    /// not finite and non-negative, a mobility outside `[0, 1]`, or an
    /// `energy.tx_power_dbm` that is not finite.
    InvalidConfig {
        /// The [`FleetConfig`] field that was rejected.
        field: &'static str,
    },
    /// The nominal population per gateway exceeds the link-layer
    /// address space ([`MAX_TAGS_PER_GATEWAY`]).
    TooManyTagsPerGateway {
        /// What the config asked for.
        requested: usize,
    },
    /// A per-gateway run was rejected (mirrors the single-gateway
    /// contract). The fleet assigns addresses itself, so in practice
    /// this is an invalid [`GatewayConfig::inventory`] template.
    Gateway(GatewayError),
    /// A worker panicked while processing this shard; the run was
    /// abandoned (the panic message went to the panic hook).
    ShardPanicked {
        /// Index of the lowest shard that panicked.
        shard: usize,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::NoGateways => write!(f, "fleet config has zero gateways"),
            FleetError::NoTags => write!(f, "fleet config has zero tags per gateway"),
            FleetError::InvalidConfig { field } => {
                write!(f, "fleet config field {field} is out of its domain")
            }
            FleetError::TooManyTagsPerGateway { requested } => write!(
                f,
                "{requested} tags per gateway exceeds the {MAX_TAGS_PER_GATEWAY}-address link-layer space"
            ),
            FleetError::Gateway(e) => write!(f, "gateway run rejected: {e}"),
            FleetError::ShardPanicked { shard } => write!(f, "fleet shard {shard} panicked"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<GatewayError> for FleetError {
    fn from(e: GatewayError) -> Self {
        FleetError::Gateway(e)
    }
}

impl From<ChunkPanic> for FleetError {
    fn from(p: ChunkPanic) -> Self {
        FleetError::ShardPanicked { shard: p.chunk }
    }
}

/// Fleet-wide energy model: how every tag in the population harvests,
/// stores and spends energy.
///
/// Each tag's harvest is a pure function of its grid position — the
/// incident power from its serving gateway's transmitter
/// ([`bs_tag::harvester::wifi_incident_dbm`] at the tag–gateway
/// distance, through the rectifier curve) plus a flat ambient floor
/// (TV-tower background, §6 of the paper). Tags re-derive their harvest
/// every epoch, so a tag that wanders away from its gateway starves and
/// one that wanders closer recovers. Initial charge is drawn per tag
/// from a tag-keyed stream (cold-start diversity), and charge persists
/// across epochs through the per-tag control blocks.
///
/// ```
/// use bs_net::fleet::FleetEnergyConfig;
///
/// let e = FleetEnergyConfig::default();
/// assert!(e.tx_power_dbm > 0.0 && e.ambient_uw >= 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetEnergyConfig {
    /// Gateway transmit power feeding each tag's harvester, dBm.
    pub tx_power_dbm: f64,
    /// Ambient harvest floor added on top of the Wi-Fi harvest, µW
    /// (TV-tower background; keeps distant tags crawling instead of
    /// flat-lining).
    pub ambient_uw: f64,
    /// Capacitor template every tag instantiates;
    /// [`CapacitorConfig::initial_fraction`] is overridden per tag by a
    /// seeded draw and thereafter by the persisted charge.
    pub capacitor: CapacitorConfig,
    /// Duty-cycling policy every tag runs.
    pub policy: EnergyPolicy,
}

impl Default for FleetEnergyConfig {
    fn default() -> Self {
        FleetEnergyConfig {
            tx_power_dbm: 36.0,
            ambient_uw: 2.0,
            capacitor: CapacitorConfig::default(),
            policy: EnergyPolicy::SleepUntilCharged,
        }
    }
}

impl FleetEnergyConfig {
    /// Steady-state harvest (µW) for a tag `distance_m` from its
    /// serving gateway: the Wi-Fi harvest at that range plus the
    /// ambient floor.
    pub fn harvest_uw_at(&self, distance_m: f64) -> f64 {
        harvested_uw(wifi_incident_dbm(self.tx_power_dbm, distance_m)) + self.ambient_uw
    }

    /// The immortal-tag fleet: capacitors are tracked but an enormous
    /// ambient harvest keeps them full and the policy never gates
    /// behaviour, so per-tag outcomes are bit-identical to running with
    /// [`FleetConfig::energy`]` = None` (the conformance suite pins
    /// this).
    pub fn always_powered() -> Self {
        FleetEnergyConfig {
            ambient_uw: 1e6,
            policy: EnergyPolicy::AlwaysPowered,
            ..FleetEnergyConfig::default()
        }
    }
}

/// Fleet configuration: topology, population, epochs, impairments.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of gateways (laid out on a jittered square grid).
    pub gateways: usize,
    /// Nominal tags per gateway (each tag starts near its home
    /// gateway); must stay within [`MAX_TAGS_PER_GATEWAY`].
    pub tags_per_gateway: usize,
    /// Grid pitch between adjacent gateways (m).
    pub gateway_spacing_m: f64,
    /// Each gateway's coverage radius (m) — drives both association
    /// range and inter-gateway interference overlap.
    pub coverage_radius_m: f64,
    /// Epochs to simulate; movement/handoff happen from epoch 1 on.
    pub epochs: u32,
    /// Fresh upload per tag per epoch (bytes).
    pub message_bytes: usize,
    /// Fraction of tags that move each epoch.
    pub mobility: f64,
    /// Standard deviation of one movement step (m, per axis).
    pub move_sigma_m: f64,
    /// Fault template every gateway's links inherit; its severity is
    /// the *noise floor* that interference raises per gateway. With an
    /// empty plan ([`bs_channel::faults::FaultPlan::none`]) interference
    /// has no fault to express and the fleet runs clean.
    pub faults: bs_channel::faults::FaultPlan,
    /// How strongly neighbour coverage overlap raises severity:
    /// `severity_g = base + gain · Σ_n overlap(d_gn) · load_n`.
    pub interference_gain: f64,
    /// Per-gateway template (transport, inventory, PHY, `max_cycles`,
    /// polling policy); seed and faults are overridden per gateway per
    /// epoch.
    pub gateway: GatewayConfig,
    /// Energy co-simulation. `None` (the default) runs the immortal-tag
    /// fleet, bit-identical to the pre-energy engine. `Some` gives every
    /// tag a capacitor fed by distance-dependent harvest; browned-out
    /// tags miss polls (or whole inventories) and the per-tag
    /// [`TagRecord`] reports brownout/recovery counts.
    pub energy: Option<FleetEnergyConfig>,
    /// Master seed; every stream in the fleet descends from it.
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            gateways: 16,
            tags_per_gateway: 8,
            gateway_spacing_m: 50.0,
            coverage_radius_m: 40.0,
            epochs: 2,
            message_bytes: 48,
            mobility: 0.2,
            move_sigma_m: 15.0,
            faults: bs_channel::faults::FaultPlan::none(),
            interference_gain: 0.15,
            gateway: GatewayConfig::default(),
            energy: None,
            seed: 1,
        }
    }
}

impl FleetConfig {
    /// Sets gateway count and nominal tags per gateway (builder style).
    pub fn with_population(mut self, gateways: usize, tags_per_gateway: usize) -> Self {
        self.gateways = gateways;
        self.tags_per_gateway = tags_per_gateway;
        self
    }

    /// Sets the master seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the fault template (builder style).
    pub fn with_faults(mut self, faults: bs_channel::faults::FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the epoch count (builder style).
    pub fn with_epochs(mut self, epochs: u32) -> Self {
        self.epochs = epochs;
        self
    }

    /// Arms the energy co-simulation (builder style).
    pub fn with_energy(mut self, energy: FleetEnergyConfig) -> Self {
        self.energy = Some(energy);
        self
    }

    fn total_tags(&self) -> usize {
        self.gateways * self.tags_per_gateway
    }
}

/// Flat per-tag outcome block, in global tag-id order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TagRecord {
    /// Global tag id.
    pub tag: u32,
    /// Gateway the tag ended associated with.
    pub gateway: u32,
    /// Handoffs the tag performed across the run.
    pub handoffs: u32,
    /// Bytes delivered across all epochs.
    pub delivered_bytes: u64,
    /// Epochs in which the tag's upload completed.
    pub complete_epochs: u32,
    /// Epochs in which the tag's gateway hit its cycle backstop.
    pub truncated_epochs: u32,
    /// Last epoch's service latency (singulation + own transfer
    /// airtime, µs).
    pub last_latency_us: u64,
    /// Awake→Dead transitions across the run (0 when the energy model
    /// is off).
    pub brownouts: u32,
    /// Post-brownout climbs back to Awake across the run.
    pub recoveries: u32,
}

/// The fleet run report: flat per-tag records and the headline metrics
/// (goodput, Jain fairness, latency tail).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRun {
    /// Gateways simulated.
    pub gateways: u32,
    /// Total tags simulated.
    pub tags: u32,
    /// Epochs simulated.
    pub epochs: u32,
    /// Per-tag outcomes, in global tag-id order.
    pub tag_records: Vec<TagRecord>,
    /// Handoffs applied across the run.
    pub handoffs: u64,
    /// Handoffs denied by the per-gateway address-space cap.
    pub handoffs_denied: u64,
    /// Bytes delivered fleet-wide.
    pub delivered_bytes: u64,
    /// Every tag completed its upload in every epoch.
    pub all_complete: bool,
    /// Gateway-epochs that hit the cycle backstop.
    pub truncated_gateway_epochs: u32,
    /// Poll slots scheduled fleet-wide (served rounds + wasted polls).
    pub polls: u64,
    /// Poll slots wasted on tags that had no energy to answer.
    pub missed_polls: u64,
    /// Brownouts fleet-wide (sum over [`TagRecord::brownouts`]).
    pub brownouts: u64,
    /// Recoveries fleet-wide (sum over [`TagRecord::recoveries`]).
    pub recoveries: u64,
    /// Wall-clock airtime (µs): gateways run concurrently, so each
    /// epoch costs the *maximum* gateway airtime, summed over epochs.
    pub airtime_us: u64,
    /// Fleet goodput: delivered bits over wall-clock airtime.
    pub aggregate_goodput_bps: f64,
    /// Jain fairness over per-tag delivered bytes.
    pub fairness: f64,
    /// Median per-tag service latency (µs) over all tag-epochs.
    pub latency_us_p50: f64,
    /// 90th-percentile latency (µs).
    pub latency_us_p90: f64,
    /// 99th-percentile latency (µs).
    pub latency_us_p99: f64,
    /// FNV-1a digest over every [`TagRecord`] — two runs agree on every
    /// per-tag outcome iff their digests agree.
    pub digest: u64,
}

impl FleetRun {
    /// Renders the run as deterministic JSON: fixed field order, fixed
    /// float formatting, per-tag records included — byte-identical
    /// across `jobs` counts by construction (the conformance gate
    /// compares these strings).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256 + self.tag_records.len() * 64);
        s.push_str("{\n");
        s.push_str(&format!("  \"gateways\": {},\n", self.gateways));
        s.push_str(&format!("  \"tags\": {},\n", self.tags));
        s.push_str(&format!("  \"epochs\": {},\n", self.epochs));
        s.push_str(&format!("  \"handoffs\": {},\n", self.handoffs));
        s.push_str(&format!(
            "  \"handoffs_denied\": {},\n",
            self.handoffs_denied
        ));
        s.push_str(&format!(
            "  \"delivered_bytes\": {},\n",
            self.delivered_bytes
        ));
        s.push_str(&format!("  \"all_complete\": {},\n", self.all_complete));
        s.push_str(&format!(
            "  \"truncated_gateway_epochs\": {},\n",
            self.truncated_gateway_epochs
        ));
        s.push_str(&format!("  \"polls\": {},\n", self.polls));
        s.push_str(&format!("  \"missed_polls\": {},\n", self.missed_polls));
        s.push_str(&format!("  \"brownouts\": {},\n", self.brownouts));
        s.push_str(&format!("  \"recoveries\": {},\n", self.recoveries));
        s.push_str(&format!("  \"airtime_us\": {},\n", self.airtime_us));
        s.push_str(&format!(
            "  \"aggregate_goodput_bps\": {:.3},\n",
            self.aggregate_goodput_bps
        ));
        s.push_str(&format!("  \"fairness\": {:.6},\n", self.fairness));
        s.push_str(&format!(
            "  \"latency_us_p50\": {:.1},\n",
            self.latency_us_p50
        ));
        s.push_str(&format!(
            "  \"latency_us_p90\": {:.1},\n",
            self.latency_us_p90
        ));
        s.push_str(&format!(
            "  \"latency_us_p99\": {:.1},\n",
            self.latency_us_p99
        ));
        s.push_str(&format!("  \"digest\": \"{:016x}\",\n", self.digest));
        s.push_str("  \"tag_records\": [\n");
        for (i, t) in self.tag_records.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"tag\": {}, \"gateway\": {}, \"handoffs\": {}, \"delivered_bytes\": {}, \
                 \"complete_epochs\": {}, \"truncated_epochs\": {}, \"last_latency_us\": {}, \
                 \"brownouts\": {}, \"recoveries\": {}}}{}\n",
                t.tag,
                t.gateway,
                t.handoffs,
                t.delivered_bytes,
                t.complete_epochs,
                t.truncated_epochs,
                t.last_latency_us,
                t.brownouts,
                t.recoveries,
                if i + 1 < self.tag_records.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

// ---------------------------------------------------------------------
// Sharding
// ---------------------------------------------------------------------

/// Most shards a run partitions its control blocks into: one per
/// gateway up to this many. Deliberately *not* derived from the worker
/// count, so the report is byte-identical for any `jobs`.
const MAX_SHARDS: usize = 16;

/// Splits `0..n` into `shards` contiguous ranges (first remainder
/// shards are one longer).
fn shard_ranges(n: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
    let shards = shards.max(1).min(n.max(1));
    let base = n / shards;
    let extra = n % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for s in 0..shards {
        let len = base + usize::from(s < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

// ---------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------

struct Topology {
    gw_pos: Vec<(f64, f64)>,
    /// Lowest grid cell (cell edge = gateway spacing) any gateway sits
    /// in; with `cols × rows` it bounds the dense cell grid. A cell
    /// outside those bounds holds no gateway.
    min_cell: (i64, i64),
    cols: i64,
    rows: i64,
    /// CSR cell buckets: cell `k`'s gateways (ascending id) are
    /// `cell_gw[cell_start[k]..cell_start[k + 1]]`, with `k` row-major
    /// from `min_cell`.
    cell_start: Vec<u32>,
    cell_gw: Vec<u32>,
    cell_m: f64,
    side_m: f64,
}

impl Topology {
    fn build(cfg: &FleetConfig, root: &SimRng) -> Topology {
        let side = (cfg.gateways as f64).sqrt().ceil() as usize;
        let pitch = cfg.gateway_spacing_m;
        let pos_stream = root.stream("fleet.gw-pos");
        let gw_pos: Vec<(f64, f64)> = (0..cfg.gateways)
            .map(|g| {
                let mut rng = pos_stream.substream(g as u64);
                let jitter = 0.2 * pitch;
                let x = ((g % side) as f64 + 0.5) * pitch + rng.uniform_range(-jitter, jitter);
                let y = ((g / side) as f64 + 0.5) * pitch + rng.uniform_range(-jitter, jitter);
                (x, y)
            })
            .collect();
        Self::from_positions(gw_pos, pitch, side as f64 * pitch)
    }

    /// Buckets gateways at `gw_pos` (id = index) into cells of edge
    /// `cell_m`; tags live in `[0, side_m]²`.
    fn from_positions(gw_pos: Vec<(f64, f64)>, cell_m: f64, side_m: f64) -> Topology {
        let cells: Vec<(i64, i64)> = gw_pos
            .iter()
            .map(|&(x, y)| Self::cell_of(x, y, cell_m))
            .collect();
        let min_cell = cells
            .iter()
            .fold((i64::MAX, i64::MAX), |(a, b), &(x, y)| (a.min(x), b.min(y)));
        let max_cell = cells
            .iter()
            .fold((i64::MIN, i64::MIN), |(a, b), &(x, y)| (a.max(x), b.max(y)));
        let cols = max_cell.0 - min_cell.0 + 1;
        let rows = max_cell.1 - min_cell.1 + 1;
        // Counting sort by cell; filling in gateway-id order keeps each
        // bucket ascending.
        let index = |(x, y): (i64, i64)| ((y - min_cell.1) * cols + (x - min_cell.0)) as usize;
        let mut cell_start = vec![0u32; (cols * rows) as usize + 1];
        for &c in &cells {
            cell_start[index(c) + 1] += 1;
        }
        for k in 1..cell_start.len() {
            cell_start[k] += cell_start[k - 1];
        }
        let mut fill = cell_start.clone();
        let mut cell_gw = vec![0u32; gw_pos.len()];
        for (g, &c) in cells.iter().enumerate() {
            let k = index(c);
            cell_gw[fill[k] as usize] = g as u32;
            fill[k] += 1;
        }
        Topology {
            gw_pos,
            min_cell,
            cols,
            rows,
            cell_start,
            cell_gw,
            cell_m,
            side_m,
        }
    }

    fn cell_of(x: f64, y: f64, cell_m: f64) -> (i64, i64) {
        ((x / cell_m).floor() as i64, (y / cell_m).floor() as i64)
    }

    /// The gateways in cells `x0..=x1` of row `y`, ascending by cell
    /// then id: one contiguous slice of the CSR buckets, clamped to the
    /// grid.
    fn row_span(&self, x0: i64, x1: i64, y: i64) -> &[u32] {
        let (min_x, min_y) = self.min_cell;
        let (x0, x1) = (x0.max(min_x), x1.min(min_x + self.cols - 1));
        if x0 > x1 || !(0..self.rows).contains(&(y - min_y)) {
            return &[];
        }
        let k0 = ((y - min_y) * self.cols + (x0 - min_x)) as usize;
        let k1 = k0 + (x1 - x0) as usize;
        &self.cell_gw[self.cell_start[k0] as usize..self.cell_start[k1 + 1] as usize]
    }

    /// Nearest gateway to `(x, y)`; ties break on the lower gateway id,
    /// so the answer is a pure function of the positions. The search
    /// covers the square of cells within `reach` of the tag's cell,
    /// where `reach` is one ring past the first ring of cells around it
    /// that holds a gateway, so a closer gateway in the next ring cannot
    /// be missed. Each row of the square is one slice of the buckets.
    /// Rows are scanned from the tag's outward, and a row whose nearest
    /// point lies farther than the best gateway so far is skipped: none
    /// of its gateways could win or tie. (The row's gap is shaved by
    /// 10⁻⁹ of a cell, far above rounding error, so a row that could
    /// hold a tie is always scanned.)
    fn nearest_gateway(&self, x: f64, y: f64) -> u32 {
        let (cx, cy) = Self::cell_of(x, y, self.cell_m);
        let max_ring = (self.side_m / self.cell_m) as i64 + 2;
        let mut first = 0;
        while first < max_ring
            && (cy - first..=cy + first)
                .all(|row| self.row_span(cx - first, cx + first, row).is_empty())
        {
            first += 1;
        }
        let reach = (first + 1).min(max_ring);
        let fy = y / self.cell_m;
        let mut best: Option<(f64, u32)> = None;
        for i in 0..=2 * reach {
            // Rows 0, −1, +1, −2, +2, … from the tag's.
            let row = cy + if i % 2 == 0 { i / 2 } else { -(i + 1) / 2 };
            if let Some((bd, _)) = best {
                let gap = ((row as f64 - fy).max(fy - (row + 1) as f64) - 1e-9).max(0.0);
                if gap * self.cell_m > bd {
                    continue;
                }
            }
            for &g in self.row_span(cx - reach, cx + reach, row) {
                let (gx, gy) = self.gw_pos[g as usize];
                let d = ((x - gx).powi(2) + (y - gy).powi(2)).sqrt();
                let better = match best {
                    None => true,
                    Some((bd, bg)) => d < bd || (d == bd && g < bg),
                };
                if better {
                    best = Some((d, g));
                }
            }
        }
        best.expect("at least one gateway exists").1
    }

    fn distance(&self, a: u32, b: u32) -> f64 {
        let (ax, ay) = self.gw_pos[a as usize];
        let (bx, by) = self.gw_pos[b as usize];
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
    }

    /// Gateways whose coverage disc can overlap `g`'s (distance
    /// < 2·radius), via the 3×3-plus cell neighbourhood.
    fn interference_neighbours(&self, g: u32, radius: f64) -> Vec<u32> {
        let (x, y) = self.gw_pos[g as usize];
        let (cx, cy) = Self::cell_of(x, y, self.cell_m);
        let reach = (2.0 * radius / self.cell_m).ceil() as i64;
        // Rows past the grid's bounds are empty: clamp the scan to them
        // (`row_span` clamps the columns).
        let y0 = self.min_cell.1;
        let ys =
            cy.saturating_sub(reach).max(y0)..=cy.saturating_add(reach).min(y0 + self.rows - 1);
        let mut out = Vec::new();
        for row in ys {
            for &n in self.row_span(cx.saturating_sub(reach), cx.saturating_add(reach), row) {
                if n != g && self.distance(g, n) < 2.0 * radius {
                    out.push(n);
                }
            }
        }
        out.sort_unstable();
        out
    }
}

// ---------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------

/// Flat per-tag control block (one per tag, owned by its shard during
/// parallel phases, mutated only between them on the coordinator).
#[derive(Debug, Clone, Default)]
struct TagBlock {
    x: f64,
    y: f64,
    gateway: u32,
    helper_pps: f64,
    handoffs: u32,
    delivered_bytes: u64,
    complete_epochs: u32,
    truncated_epochs: u32,
    last_latency_us: u64,
    /// Stored energy persisted across epochs (µJ; unused when the
    /// energy model is off).
    charge_uj: f64,
    brownouts: u32,
    recoveries: u32,
}

/// One gateway's serviced epoch, reported back by its shard's worker
/// (gateway identity is implicit: a shard's gateways are recorded in
/// gateway-id order).
struct GwEpochResult {
    truncated: bool,
    airtime_us: u64,
    polls: u64,
    missed_polls: u64,
    /// End of this gateway's [`ServedOutcome`]s in its shard's flat
    /// buffer; they start where the previous gateway's end. Tags that
    /// were dead through singulation never appear there — the fleet
    /// advances their capacitors locally.
    outcomes_end: usize,
}

/// One gateway shard's served epoch: its gateways' totals in id order
/// and every served tag's outcome in one flat buffer sized to its
/// rosters.
type ShardEpoch = (Vec<GwEpochResult>, Vec<ServedOutcome>);

/// A service worker's reused state: the gateway scratch its gateways
/// are served in and the profile buffers rewritten in place for each
/// gateway. A run pools these, so it keeps at most one per worker
/// however many shards there are.
#[derive(Default)]
struct ServiceWorker {
    scratch: GatewayScratch,
    profiles: Vec<TagProfile>,
}

/// Writes the deterministic per-tag upload payload for one epoch into
/// `out`, reusing its buffer.
fn tag_message(tag: u32, epoch: u32, bytes: usize, out: &mut Vec<u8>) {
    out.clear();
    out.extend((0..bytes).map(|i| {
        (i as u64)
            .wrapping_mul(131)
            .wrapping_add((tag as u64).wrapping_mul(31))
            .wrapping_add((epoch as u64).wrapping_mul(17)) as u8
    }));
}

/// Runs the fleet on `jobs` worker threads. The result is byte-identical
/// for any `jobs`; see the module docs for the discipline that makes it
/// so.
///
/// # Errors
/// [`FleetError`] on an impossible population (zero gateways/tags, or a
/// nominal roster beyond the link-layer address space), on geometry,
/// mobility or energy out of its domain ([`FleetError::InvalidConfig`]), or
/// [`FleetError::ShardPanicked`] if a shard's work panicked.
pub fn run_fleet(cfg: &FleetConfig, jobs: usize) -> Result<FleetRun, FleetError> {
    if cfg.gateways == 0 {
        return Err(FleetError::NoGateways);
    }
    if cfg.tags_per_gateway == 0 {
        return Err(FleetError::NoTags);
    }
    if cfg.tags_per_gateway > MAX_TAGS_PER_GATEWAY {
        return Err(FleetError::TooManyTagsPerGateway {
            requested: cfg.tags_per_gateway,
        });
    }
    // A zero spacing would make the interference-neighbour reach
    // unbounded (an endless scan); the rest would yield a digest that
    // only looks valid.
    let positive = |x: f64| x.is_finite() && x > 0.0;
    let non_negative = |x: f64| x.is_finite() && x >= 0.0;
    for (field, ok) in [
        ("gateway_spacing_m", positive(cfg.gateway_spacing_m)),
        ("coverage_radius_m", positive(cfg.coverage_radius_m)),
        ("mobility", (0.0..=1.0).contains(&cfg.mobility)),
        ("move_sigma_m", non_negative(cfg.move_sigma_m)),
        ("interference_gain", non_negative(cfg.interference_gain)),
        (
            "energy.tx_power_dbm",
            cfg.energy.is_none_or(|e| e.tx_power_dbm.is_finite()),
        ),
        (
            "energy.ambient_uw",
            cfg.energy.is_none_or(|e| non_negative(e.ambient_uw)),
        ),
    ] {
        if !ok {
            return Err(FleetError::InvalidConfig { field });
        }
    }

    let jobs = jobs.max(1);
    let shards = cfg.gateways.min(MAX_SHARDS);
    let root = SimRng::new(cfg.seed);
    let topo = Topology::build(cfg, &root);
    let n_tags = cfg.total_tags();
    let tag_shards = shard_ranges(n_tags, shards);
    let gw_shards = shard_ranges(cfg.gateways, shards);

    // Seed the flat tag blocks: home placement + initial association,
    // sharded over tag ranges (every draw is tag-keyed, so the blocks do
    // not depend on the partition). Cold-start charge diversity comes
    // from a tag-keyed stream — drawn only when the energy model is on,
    // so an energy-less fleet consumes exactly the pre-energy RNG
    // sequence.
    let place = root.stream("fleet.tag-pos");
    let helper = root.stream("fleet.helper");
    let charge_stream = root.stream("fleet.energy");
    let cap_capacity_uj = cfg
        .energy
        .map(|e| 0.5 * e.capacitor.capacitance_uf * e.capacitor.voltage * e.capacitor.voltage);
    let mut blocks = vec![TagBlock::default(); n_tags];
    let shard_loads: Vec<Vec<u32>> = {
        // Each shard fills its own disjoint chunk of `blocks` in place
        // (its lock is taken once, by the one worker that runs the shard)
        // and counts the loads its tags put on each gateway.
        let mut rest = blocks.as_mut_slice();
        let chunks: Vec<Mutex<&mut [TagBlock]>> = tag_shards
            .iter()
            .map(|r| {
                let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(r.len());
                rest = tail;
                Mutex::new(chunk)
            })
            .collect();
        map_indexed(jobs, tag_shards.len(), |s| {
            let mut chunk = chunks[s].lock().unwrap_or_else(PoisonError::into_inner);
            let mut loads = vec![0u32; cfg.gateways];
            for (t, b) in tag_shards[s].clone().zip(chunk.iter_mut()) {
                let home = (t % cfg.gateways) as u32;
                let (hx, hy) = topo.gw_pos[home as usize];
                let mut rng = place.substream(t as u64);
                let sigma = 0.5 * cfg.coverage_radius_m;
                let x = (hx + rng.gaussian(0.0, sigma)).clamp(0.0, topo.side_m);
                let y = (hy + rng.gaussian(0.0, sigma)).clamp(0.0, topo.side_m);
                let charge_uj = match cap_capacity_uj {
                    Some(cap) => charge_stream.substream(t as u64).uniform_range(0.0, cap),
                    None => 0.0,
                };
                let gateway = topo.nearest_gateway(x, y);
                loads[gateway as usize] += 1;
                *b = TagBlock {
                    x,
                    y,
                    gateway,
                    helper_pps: helper.substream(t as u64).uniform_range(1_200.0, 3_600.0),
                    charge_uj,
                    ..TagBlock::default()
                };
            }
            loads
        })?
    };
    let mut loads = vec![0usize; cfg.gateways];
    for shard in &shard_loads {
        for (l, &n) in loads.iter_mut().zip(shard) {
            *l += n as usize;
        }
    }
    // The initial association may overflow a gateway's address space;
    // in tag-id order, a tag whose nearest gateway is full spills to its
    // home gateway or, if that is full too, to the first gateway after
    // its home in cyclic id order with room. One always has room:
    // `tags_per_gateway ≤ MAX_TAGS_PER_GATEWAY`. Without an overflow the
    // pass would change nothing, so it runs only when one exists.
    if loads.iter().any(|&l| l > MAX_TAGS_PER_GATEWAY) {
        loads.fill(0);
        for (t, b) in blocks.iter_mut().enumerate() {
            let g = b.gateway as usize;
            if loads[g] < MAX_TAGS_PER_GATEWAY {
                loads[g] += 1;
            } else {
                let home = t % cfg.gateways;
                let open = (0..cfg.gateways)
                    .map(|k| (home + k) % cfg.gateways)
                    .find(|&g| loads[g] < MAX_TAGS_PER_GATEWAY)
                    .expect("the fleet has room for every tag");
                b.gateway = open as u32;
                loads[open] += 1;
            }
        }
    }

    let move_stream = root.stream("fleet.move");
    let run_stream = root.stream("fleet.gw-run");

    let mut total_handoffs = 0u64;
    let mut handoffs_denied = 0u64;
    let mut total_polls = 0u64;
    let mut total_missed_polls = 0u64;
    let mut airtime_us = 0u64;
    let mut latencies: Vec<f64> = Vec::with_capacity(n_tags * cfg.epochs as usize);
    let mut truncated_gateway_epochs = 0u32;
    // Per-gateway rosters as one CSR, rebuilt each epoch: gateway `g`'s
    // tags are `roster_tags[roster_start[g]..roster_start[g + 1]]`.
    let mut roster_start = vec![0usize; cfg.gateways + 1];
    let mut roster_fill = vec![0usize; cfg.gateways];
    let mut roster_tags = vec![0u32; n_tags];
    // The pool of worker states the shards are served in, and one
    // served-slot mask reused by every gateway's apply — both for the
    // whole run.
    let workers: Mutex<Vec<ServiceWorker>> = Mutex::default();
    let mut served_mask: Vec<bool> = Vec::new();

    for epoch in 0..cfg.epochs {
        // Phase 1+2: movement (from epoch 1) and handoff proposals,
        // sharded over tag ranges. Each worker reads the shared blocks
        // and reports `(tag, new_x, new_y, proposed_gateway)` per shard.
        if epoch > 0 {
            let epoch_stream = move_stream.substream(epoch as u64);
            let proposals: Vec<Vec<(usize, f64, f64, u32)>> =
                map_indexed(jobs, tag_shards.len(), |s| {
                    let mut out = Vec::new();
                    for t in tag_shards[s].clone() {
                        let b = &blocks[t];
                        let mut rng = epoch_stream.substream(t as u64);
                        let (mut x, mut y) = (b.x, b.y);
                        if rng.chance(cfg.mobility) {
                            x = (x + rng.gaussian(0.0, cfg.move_sigma_m)).clamp(0.0, topo.side_m);
                            y = (y + rng.gaussian(0.0, cfg.move_sigma_m)).clamp(0.0, topo.side_m);
                        }
                        let best = topo.nearest_gateway(x, y);
                        if (x, y) != (b.x, b.y) || best != b.gateway {
                            out.push((t, x, y, best));
                        }
                    }
                    out
                })?;
            // Merge in shard order = global tag-id order; apply the
            // address-space cap deterministically.
            for shard in proposals {
                for (t, x, y, best) in shard {
                    blocks[t].x = x;
                    blocks[t].y = y;
                    let cur = blocks[t].gateway;
                    if best != cur {
                        // Only hand off if the new gateway is in reach
                        // or strictly closer than the old one.
                        if loads[best as usize] < MAX_TAGS_PER_GATEWAY {
                            loads[cur as usize] -= 1;
                            loads[best as usize] += 1;
                            blocks[t].gateway = best;
                            blocks[t].handoffs += 1;
                            total_handoffs += 1;
                        } else {
                            handoffs_denied += 1;
                        }
                    }
                }
            }
        }

        // Phase 3: interference — neighbour coverage overlap scales the
        // fault severity each gateway's links see this epoch. Pure
        // function of positions + loads, computed once on the
        // coordinator (it is O(gateways · neighbours), not O(tags)).
        let severity: Vec<f64> = (0..cfg.gateways)
            .map(|g| {
                let overlap: f64 = topo
                    .interference_neighbours(g as u32, cfg.coverage_radius_m)
                    .iter()
                    .map(|&n| {
                        let load = loads[n as usize] as f64 / cfg.tags_per_gateway as f64;
                        coverage_overlap(topo.distance(g as u32, n), cfg.coverage_radius_m) * load
                    })
                    .sum();
                (cfg.faults.severity + cfg.interference_gain * overlap).clamp(0.0, 1.0)
            })
            .collect();

        // Per-gateway rosters, counting-sorted in global tag-id order so
        // the address assignment (1..=n in roster order) is
        // deterministic. `loads` already counts each gateway's tags.
        for g in 0..cfg.gateways {
            roster_start[g + 1] = roster_start[g] + loads[g];
        }
        roster_fill.copy_from_slice(&roster_start[..cfg.gateways]);
        for (t, b) in blocks.iter().enumerate() {
            let slot = &mut roster_fill[b.gateway as usize];
            roster_tags[*slot] = t as u32;
            *slot += 1;
        }
        let rosters = |g: usize| &roster_tags[roster_start[g]..roster_start[g + 1]];

        // Phase 4: service — shards of gateways claimed through the
        // cursor, each gateway running a full single-reader pass in the
        // reused state of a worker taken from the pool.
        let epoch_runs = run_stream.substream(epoch as u64);
        let shard_results: Vec<Result<ShardEpoch, GatewayError>> =
            map_indexed(jobs, gw_shards.len(), |s| {
                let mut worker = workers
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .pop()
                    .unwrap_or_default();
                let ServiceWorker { scratch, profiles } = &mut worker;
                let gws = gw_shards[s].clone();
                let mut gateways = Vec::with_capacity(gws.len());
                let mut outcomes =
                    Vec::with_capacity(roster_start[gws.end] - roster_start[gws.start]);
                for g in gws {
                    let roster = rosters(g);
                    if roster.is_empty() {
                        gateways.push(GwEpochResult {
                            truncated: false,
                            airtime_us: 0,
                            polls: 0,
                            missed_polls: 0,
                            outcomes_end: outcomes.len(),
                        });
                        continue;
                    }
                    let (gx, gy) = topo.gw_pos[g];
                    if profiles.len() < roster.len() {
                        profiles.resize_with(roster.len(), || TagProfile::new(0, Vec::new()));
                    }
                    for (i, (&t, p)) in roster.iter().zip(profiles.iter_mut()).enumerate() {
                        let b = &blocks[t as usize];
                        // Energy is a pure function of the tag's block:
                        // persisted charge in, harvest from its current
                        // distance to this gateway.
                        p.energy = cfg.energy.map(|e| {
                            let d = ((b.x - gx).powi(2) + (b.y - gy).powi(2)).sqrt();
                            EnergyConfig {
                                capacitor: CapacitorConfig {
                                    initial_fraction: (b.charge_uj
                                        / cap_capacity_uj.expect("energy is on"))
                                    .clamp(0.0, 1.0),
                                    ..e.capacitor
                                },
                                harvest_uw: e.harvest_uw_at(d),
                                policy: e.policy,
                            }
                        });
                        p.address = (i + 1) as u8;
                        p.helper_pps = b.helper_pps;
                        tag_message(t, epoch, cfg.message_bytes, &mut p.message);
                    }
                    let mut gcfg = cfg.gateway.clone();
                    gcfg.seed = epoch_runs.substream(g as u64).seed();
                    let mut faults = cfg.faults.clone().with_severity(severity[g]);
                    faults.seed = epoch_runs.substream(g as u64).stream("faults").seed();
                    gcfg.faults = faults;
                    let tags = &profiles[..roster.len()];
                    let run = serve(tags, &gcfg, &mut NullRecorder, scratch, &mut outcomes)?;
                    gateways.push(GwEpochResult {
                        truncated: run.truncated,
                        airtime_us: run.airtime_us,
                        polls: run.polls,
                        missed_polls: run.missed_polls,
                        outcomes_end: outcomes.len(),
                    });
                }
                workers
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(worker);
                Ok((gateways, outcomes))
            })?;

        // Apply in shard order (= gateway-id order), each gateway's
        // outcomes read straight from its shard's flat buffer.
        let mut epoch_wall_us = 0u64;
        for (s, result) in shard_results.into_iter().enumerate() {
            let (gateways, shard_outcomes) = result?;
            let mut start = 0;
            for (g, r) in gw_shards[s].clone().zip(&gateways) {
                let outcomes = &shard_outcomes[start..r.outcomes_end];
                start = r.outcomes_end;
                let roster = rosters(g);
                epoch_wall_us = epoch_wall_us.max(r.airtime_us);
                total_polls += r.polls;
                total_missed_polls += r.missed_polls;
                if r.truncated {
                    truncated_gateway_epochs += 1;
                    for o in outcomes {
                        blocks[roster[o.slot as usize] as usize].truncated_epochs += 1;
                    }
                }
                // Roster tags that were dead through singulation never
                // reached the gateway — advance their capacitors here,
                // over the same service span, so a browned-out tag
                // keeps charging toward the next epoch's inventory.
                if let Some(e) = cfg.energy {
                    let capacity = cap_capacity_uj.expect("energy is on");
                    served_mask.clear();
                    served_mask.resize(roster.len(), false);
                    for o in outcomes {
                        served_mask[o.slot as usize] = true;
                    }
                    let (gx, gy) = topo.gw_pos[g];
                    for (&t, _) in roster.iter().zip(&served_mask).filter(|(_, &done)| !done) {
                        let b = &mut blocks[t as usize];
                        let mut cap = Capacitor::new(CapacitorConfig {
                            initial_fraction: (b.charge_uj / capacity).clamp(0.0, 1.0),
                            ..e.capacitor
                        });
                        let load = if e.policy.can_listen(cap.state()) {
                            LISTEN_LOAD_UW
                        } else {
                            0.0
                        };
                        let d = ((b.x - gx).powi(2) + (b.y - gy).powi(2)).sqrt();
                        cap.advance(r.airtime_us as f64, e.harvest_uw_at(d), load);
                        b.charge_uj = cap.charge_uj();
                        b.brownouts += cap.brownouts();
                        b.recoveries += cap.recoveries();
                    }
                }
                for o in outcomes {
                    let b = &mut blocks[roster[o.slot as usize] as usize];
                    b.delivered_bytes += o.delivered_bytes;
                    b.last_latency_us = o.latency_us;
                    if o.complete {
                        b.complete_epochs += 1;
                    }
                    if let Some(e) = o.energy {
                        b.charge_uj = e.final_charge_uj;
                        b.brownouts += e.brownouts;
                        b.recoveries += e.recoveries;
                    }
                    latencies.push(o.latency_us as f64);
                }
            }
        }
        airtime_us += epoch_wall_us;
    }

    // Fold the flat blocks into the report. The pinned digest is one
    // byte-serial FNV pass over every tag, so it runs beside the rest.
    let tail = map_indexed(jobs, 2, |part| match part {
        0 => Tail::Digest(digest_blocks(&blocks)),
        _ => Tail::Report(ReportTail::of(&blocks, &latencies, cfg.epochs)),
    })?;
    let (digest, report) = match <[Tail; 2]>::try_from(tail) {
        Ok([Tail::Digest(d), Tail::Report(r)]) => (d, r),
        _ => unreachable!("part 0 is the digest, part 1 the report"),
    };
    let ReportTail {
        tag_records,
        delivered_bytes,
        brownouts,
        recoveries,
        all_complete,
        fairness,
        latency_us,
    } = report;
    Ok(FleetRun {
        gateways: cfg.gateways as u32,
        tags: n_tags as u32,
        epochs: cfg.epochs,
        all_complete,
        truncated_gateway_epochs,
        handoffs: total_handoffs,
        handoffs_denied,
        polls: total_polls,
        missed_polls: total_missed_polls,
        brownouts,
        recoveries,
        delivered_bytes,
        airtime_us,
        aggregate_goodput_bps: if airtime_us > 0 {
            delivered_bytes as f64 * 8.0 / (airtime_us as f64 / 1e6)
        } else {
            0.0
        },
        fairness,
        latency_us_p50: latency_us[0],
        latency_us_p90: latency_us[1],
        latency_us_p99: latency_us[2],
        digest,
        tag_records,
    })
}

/// The two halves of a run's report tail, computed side by side.
enum Tail {
    Digest(u64),
    Report(ReportTail),
}

/// FNV-1a over every tag's record fields, in tag-id order, each as eight
/// little-endian bytes: [`FleetRun::digest`].
fn digest_blocks(blocks: &[TagBlock]) -> u64 {
    let mut digest = Fnv1a64::new();
    for (t, b) in blocks.iter().enumerate() {
        for v in [
            t as u64,
            b.gateway as u64,
            b.handoffs as u64,
            b.delivered_bytes,
            b.complete_epochs as u64,
            b.truncated_epochs as u64,
            b.last_latency_us,
            b.brownouts as u64,
            b.recoveries as u64,
        ] {
            digest.write_u64(v);
        }
    }
    digest.finish()
}

/// Everything in the report besides the digest.
struct ReportTail {
    tag_records: Vec<TagRecord>,
    delivered_bytes: u64,
    brownouts: u64,
    recoveries: u64,
    all_complete: bool,
    fairness: f64,
    /// p50, p90 and p99 over every tag-epoch's latency.
    latency_us: Vec<f64>,
}

impl ReportTail {
    fn of(blocks: &[TagBlock], latencies: &[f64], epochs: u32) -> ReportTail {
        let tag_records: Vec<TagRecord> = blocks
            .iter()
            .enumerate()
            .map(|(t, b)| TagRecord {
                tag: t as u32,
                gateway: b.gateway,
                handoffs: b.handoffs,
                delivered_bytes: b.delivered_bytes,
                complete_epochs: b.complete_epochs,
                truncated_epochs: b.truncated_epochs,
                last_latency_us: b.last_latency_us,
                brownouts: b.brownouts,
                recoveries: b.recoveries,
            })
            .collect();
        let shares: Vec<u64> = tag_records.iter().map(|t| t.delivered_bytes).collect();
        ReportTail {
            delivered_bytes: shares.iter().sum(),
            brownouts: tag_records.iter().map(|t| t.brownouts as u64).sum(),
            recoveries: tag_records.iter().map(|t| t.recoveries as u64).sum(),
            all_complete: tag_records.iter().all(|t| t.complete_epochs == epochs),
            fairness: jain_index(&shares),
            latency_us: percentile_many(latencies, &[50.0, 90.0, 99.0]),
            tag_records,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bs_channel::faults::FaultPlan;

    fn small() -> FleetConfig {
        FleetConfig::default()
            .with_population(9, 5)
            .with_epochs(2)
            .with_seed(11)
    }

    #[test]
    fn clean_fleet_delivers_every_message() {
        let run = run_fleet(&small(), 1).unwrap();
        assert_eq!(run.tags, 45);
        assert!(run.all_complete, "clean fleet must deliver everything");
        assert_eq!(run.truncated_gateway_epochs, 0);
        assert_eq!(
            run.delivered_bytes,
            45 * 2 * FleetConfig::default().message_bytes as u64
        );
        assert!(
            run.fairness > 0.99,
            "equal uploads → fairness {}",
            run.fairness
        );
        assert!(run.latency_us_p50 > 0.0 && run.latency_us_p99 >= run.latency_us_p50);
    }

    #[test]
    fn jobs_count_never_changes_the_bytes() {
        let cfg = small().with_faults(FaultPlan::preset("loss", 0.4, 5).unwrap());
        let a = run_fleet(&cfg, 1).unwrap();
        let b = run_fleet(&cfg, 4).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn a_full_initial_association_spills_home() {
        // Four gateways, 240 tags each, scattered wide: five tags find
        // their nearest gateway full at seeding, so the spill pass runs
        // and sends them home. The loads and digest were taken before
        // the pass became conditional; they hold at any jobs.
        let cfg = FleetConfig {
            coverage_radius_m: 120.0,
            epochs: 1,
            ..FleetConfig::default().with_population(4, 240)
        };
        let run = run_fleet(&cfg, 1).unwrap();
        let mut loads = vec![0usize; cfg.gateways];
        for t in &run.tag_records {
            loads[t.gateway as usize] += 1;
        }
        assert_eq!(loads, [230, 249, 231, 250]);
        assert_eq!(run.digest, 0xac53_9d7e_4488_64b4);
        assert_eq!(run, run_fleet(&cfg, 3).unwrap());
    }

    #[test]
    fn a_full_home_spills_to_the_next_gateway_with_room() {
        // Four gateways, 240 tags each, at a 60 m radius: on these seeds
        // a tag whose nearest gateway is full also finds its home full.
        // It goes to the next gateway with room, so no gateway passes the
        // address cap and every run serves its roster at any jobs.
        for seed in [1, 5, 6] {
            let cfg = FleetConfig {
                coverage_radius_m: 60.0,
                epochs: 1,
                seed,
                ..FleetConfig::default().with_population(4, 240)
            };
            let run = run_fleet(&cfg, 1).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
            let mut loads = vec![0usize; cfg.gateways];
            for t in &run.tag_records {
                loads[t.gateway as usize] += 1;
            }
            assert!(
                loads.iter().all(|&l| l <= MAX_TAGS_PER_GATEWAY),
                "seed {seed}: loads {loads:?}"
            );
            assert_eq!(loads.iter().sum::<usize>(), 960, "seed {seed}");
            let at_3 = run_fleet(&cfg, 3).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
            assert_eq!(run.to_json(), at_3.to_json(), "seed {seed}");
        }
    }

    #[test]
    fn mobility_produces_handoffs_and_caps_hold() {
        let cfg = FleetConfig {
            mobility: 0.9,
            move_sigma_m: 60.0,
            epochs: 3,
            ..small()
        };
        let run = run_fleet(&cfg, 2).unwrap();
        assert!(run.handoffs > 0, "hot mobility must hand tags off");
        let mut loads = vec![0usize; cfg.gateways];
        for t in &run.tag_records {
            loads[t.gateway as usize] += 1;
        }
        assert!(loads.iter().all(|&l| l <= MAX_TAGS_PER_GATEWAY));
    }

    #[test]
    fn interference_degrades_crowded_fleets() {
        // Same population, gateways packed 4x closer: overlap severity
        // rises, so the crowded fleet pays more airtime per byte.
        let loose = FleetConfig {
            interference_gain: 0.6,
            faults: FaultPlan::preset("loss", 0.05, 3).unwrap(),
            ..small()
        };
        let crowded = FleetConfig {
            gateway_spacing_m: loose.gateway_spacing_m / 4.0,
            ..loose.clone()
        };
        let a = run_fleet(&loose, 1).unwrap();
        let b = run_fleet(&crowded, 1).unwrap();
        assert!(
            b.aggregate_goodput_bps < a.aggregate_goodput_bps,
            "crowded {} bps vs loose {} bps",
            b.aggregate_goodput_bps,
            a.aggregate_goodput_bps
        );
    }

    #[test]
    fn truncation_is_reported_per_tag_and_per_run() {
        let cfg = FleetConfig {
            gateway: GatewayConfig {
                max_cycles: 1,
                ..GatewayConfig::default()
            },
            faults: FaultPlan::preset("loss", 1.0, 7).unwrap(),
            message_bytes: 400,
            epochs: 1,
            ..small()
        };
        let run = run_fleet(&cfg, 2).unwrap();
        assert!(run.truncated_gateway_epochs > 0);
        assert!(run.truncated_gateway_epochs <= cfg.gateways as u32);
        assert!(run.tag_records.iter().any(|t| t.truncated_epochs > 0));
        assert!(!run.all_complete);
    }

    #[test]
    fn config_validation_rejects_impossible_populations() {
        assert_eq!(
            run_fleet(&FleetConfig::default().with_population(0, 5), 1).unwrap_err(),
            FleetError::NoGateways
        );
        assert_eq!(
            run_fleet(&FleetConfig::default().with_population(4, 0), 1).unwrap_err(),
            FleetError::NoTags
        );
        assert_eq!(
            run_fleet(&FleetConfig::default().with_population(4, 251), 1).unwrap_err(),
            FleetError::TooManyTagsPerGateway { requested: 251 }
        );
        assert!(
            FleetError::from(GatewayError::DuplicateAddress { address: 9 })
                .to_string()
                .contains("duplicate tag address 9")
        );
    }

    /// A harvest regime scaled so a meaningful slice of the population
    /// browns out: low reader power, thin ambient floor, small caps.
    fn starving_fleet_energy() -> FleetEnergyConfig {
        FleetEnergyConfig {
            tx_power_dbm: 24.0,
            ambient_uw: 0.5,
            capacitor: bs_tag::energy::CapacitorConfig {
                capacitance_uf: 10.0,
                ..bs_tag::energy::CapacitorConfig::default()
            },
            policy: EnergyPolicy::SleepUntilCharged,
        }
    }

    #[test]
    fn always_powered_fleet_matches_energy_off() {
        let cfg = small().with_faults(FaultPlan::preset("loss", 0.4, 5).unwrap());
        let off = run_fleet(&cfg, 1).unwrap();
        let on = run_fleet(
            &cfg.clone().with_energy(FleetEnergyConfig::always_powered()),
            1,
        )
        .unwrap();
        assert_eq!(off.digest, on.digest, "immortal energy must be invisible");
        assert_eq!(off.tag_records, on.tag_records);
        assert_eq!(on.missed_polls, 0);
        assert_eq!(on.brownouts, 0);
    }

    #[test]
    fn intermittent_fleet_counts_brownouts_deterministically() {
        let cfg = small().with_energy(starving_fleet_energy());
        let a = run_fleet(&cfg, 1).unwrap();
        let b = run_fleet(&cfg, 4).unwrap();
        assert_eq!(a.to_json(), b.to_json(), "jobs must not show through");
        assert!(a.brownouts > 0, "starving regime must brown tags out");
        assert_eq!(
            a.brownouts,
            a.tag_records
                .iter()
                .map(|t| t.brownouts as u64)
                .sum::<u64>()
        );
        assert_eq!(
            a.recoveries,
            a.tag_records
                .iter()
                .map(|t| t.recoveries as u64)
                .sum::<u64>()
        );
        assert!(a.missed_polls <= a.polls);
        assert!(
            !a.all_complete,
            "a browned-out population cannot deliver everything"
        );
    }

    /// The nearest gateway by exhaustive scan: least distance, then
    /// lower id — the oracle for the grid's ring search.
    fn brute_force_nearest(topo: &Topology, x: f64, y: f64) -> u32 {
        let mut best: Option<(f64, u32)> = None;
        for (g, &(gx, gy)) in topo.gw_pos.iter().enumerate() {
            let d = ((x - gx).powi(2) + (y - gy).powi(2)).sqrt();
            if best.is_none_or(|(bd, bg)| d < bd || (d == bd && (g as u32) < bg)) {
                best = Some((d, g as u32));
            }
        }
        best.expect("at least one gateway").1
    }

    #[test]
    fn grid_nearest_gateway_matches_brute_force() {
        bs_dsp::testkit::check("fleet-nearest-gateway", 24, |g| {
            for gateways in [1, 7, 500] {
                let cfg = FleetConfig {
                    gateway_spacing_m: g.f64_in(5.0, 80.0),
                    ..FleetConfig::default().with_population(gateways, 1)
                };
                let topo = Topology::build(&cfg, &SimRng::new(g.case()));
                let side = topo.side_m;
                let mut points = vec![(0.0, 0.0), (side, side), (0.0, side), (side, 0.0)];
                points.extend((0..60).map(|_| (g.f64_in(0.0, side), g.f64_in(0.0, side))));
                for (x, y) in points {
                    assert_eq!(
                        topo.nearest_gateway(x, y),
                        brute_force_nearest(&topo, x, y),
                        "{gateways} gateways, point ({x}, {y})"
                    );
                }
            }
        });
    }

    #[test]
    fn grid_nearest_gateway_ties_go_to_the_lower_id() {
        // Four gateways on the corners of a square around (50, 50), one
        // per cell, ids in reverse of the scan order, plus a fifth
        // sharing gateway 3's position: every query at the centre is a
        // four-way tie, and the lowest id must win.
        let pos = vec![
            (70.0, 70.0),
            (30.0, 70.0),
            (70.0, 30.0),
            (30.0, 30.0),
            (30.0, 30.0),
        ];
        let topo = Topology::from_positions(pos, 25.0, 100.0);
        assert_eq!(topo.nearest_gateway(50.0, 50.0), 0);
        assert_eq!(brute_force_nearest(&topo, 50.0, 50.0), 0);
        // Co-located gateways 3 and 4 tie everywhere; 3 wins.
        assert_eq!(topo.nearest_gateway(31.0, 29.0), 3);
        assert_eq!(topo.nearest_gateway(50.0, 0.0), 2);
        assert_eq!(topo.nearest_gateway(0.0, 50.0), 1);
        bs_dsp::testkit::check("fleet-nearest-ties", 16, |g| {
            for _ in 0..50 {
                let (x, y) = (g.f64_in(0.0, 100.0), g.f64_in(0.0, 100.0));
                assert_eq!(topo.nearest_gateway(x, y), brute_force_nearest(&topo, x, y));
            }
        });
    }

    #[test]
    fn a_worker_panic_names_its_shard() {
        let p = ChunkPanic {
            chunk: 3,
            message: "boom".into(),
        };
        let err = FleetError::from(p);
        assert_eq!(err, FleetError::ShardPanicked { shard: 3 });
        assert!(err.to_string().contains("shard 3"), "{err}");
    }

    #[test]
    fn json_is_stable_and_self_consistent() {
        let run = run_fleet(&small(), 2).unwrap();
        let j = run.to_json();
        assert!(j.contains(&format!("\"digest\": \"{:016x}\"", run.digest)));
        assert!(j.contains("\"tag_records\": ["));
        assert_eq!(j, run_fleet(&small(), 3).unwrap().to_json());
    }
}
