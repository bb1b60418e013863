//! End-to-end link simulation: scene + MAC + tag + reader.
//!
//! This is the API every example and experiment harness uses. An uplink
//! run wires together:
//!
//! 1. traffic generation and the DCF medium (`bs-wifi::mac`) — *when do
//!    helper packets actually reach the reader?*,
//! 2. the tag's modulator (`bs-tag::modulator`) — *what state is the
//!    switch in when each packet flies?*,
//! 3. the propagation scene (`bs-channel::scene`) — *what channel does the
//!    reader see for that packet?*,
//! 4. the measurement model (`bs-wifi::csi` / `bs-wifi::rssi`), and
//! 5. the paper's decoder ([`crate::uplink`] / [`crate::longrange`]).
//!
//! A downlink run wires the encoder ([`crate::downlink`]) through the
//! tag-side envelope model and receiver circuit (`bs-tag`).

use crate::downlink::DownlinkEncoder;
use crate::longrange::{LongRangeConfig, LongRangeDecoder};
use crate::phy::PhyConfig;
use crate::series::{SeriesBundle, SlotIndex};
use crate::uplink::{UplinkDecoder, UplinkDecoderConfig};
use bs_channel::faults::{FaultEvents, FaultPlan};
use bs_channel::scene::{ChannelSnapshot, Scene, SceneConfig, SceneStep};
use bs_channel::TagState;
use bs_dsp::bits::BerCounter;
use bs_dsp::codes::OrthogonalPair;
use bs_dsp::obs::{NullRecorder, Recorder};
use bs_dsp::par::pipeline;
use bs_dsp::SimRng;
use bs_tag::envelope::{EnvelopeConfig, EnvelopeModel};
use bs_tag::frame::{DownlinkFrame, UplinkFrame};
use bs_tag::modulator::{Modulator, UplinkMode};
use bs_tag::receiver::{CircuitConfig, DownlinkDecoder, ReceiverCircuit};
use bs_wifi::mac::{Medium, Station, Transmission};
use bs_wifi::ofdm::csi_subchannel_offsets;
use bs_wifi::{CsiExtractor, RssiExtractor};

/// Which channel measurement the reader uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measurement {
    /// Per-sub-channel CSI from the Intel tool (§3.2).
    Csi,
    /// Per-antenna RSSI only (§3.3).
    Rssi,
}

/// What went wrong during a run and what the link layer did about it.
///
/// Attached to every [`UplinkRun`] and [`DownlinkRun`]; the bench harness
/// serialises it into each `RunRecord` JSON line. Fault names come from
/// `bs_channel::faults::Fault::name`; mitigation names are
/// `"csi-fallback"`, `"rate-readapt"` and `"drift-rescan"`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DegradationReport {
    /// Faults that observably fired, in first-fired order.
    pub faults_fired: Vec<&'static str>,
    /// Mitigations that engaged, in first-engaged order.
    pub mitigations_engaged: Vec<&'static str>,
    /// Packets removed by outage/collapse/loss, across all captures.
    pub packets_dropped: u64,
    /// Packets injected by duplication, across all captures.
    pub packets_duplicated: u64,
    /// Scheduled helper-outage time over the affected span (µs).
    pub outage_us: u64,
    /// CSI measurements replaced by stale repeats.
    pub frozen_packets: u64,
    /// Fractional tag clock drift the channel applied.
    pub drift_applied: f64,
    /// Stretch factor the drift re-scan settled on (0 = none needed).
    pub drift_compensation: f64,
    /// The re-adapted chip rate, if rate re-adaptation engaged (bps).
    pub readapted_rate_bps: Option<u64>,
    /// Rate step-down retries the reactive mitigation spent.
    pub retries_used: u32,
}

impl DegradationReport {
    /// True if `name` appears in [`DegradationReport::faults_fired`].
    pub fn fired(&self, name: &str) -> bool {
        self.faults_fired.contains(&name)
    }

    /// True if `name` appears in [`DegradationReport::mitigations_engaged`].
    pub fn engaged(&self, name: &str) -> bool {
        self.mitigations_engaged.contains(&name)
    }

    /// Records a mitigation engagement (idempotent).
    pub fn engage(&mut self, name: &'static str) {
        if !self.engaged(name) {
            self.mitigations_engaged.push(name);
        }
    }

    /// Records that fault `name` fired (idempotent).
    pub fn fire(&mut self, name: &'static str) {
        if !self.fired(name) {
            self.faults_fired.push(name);
        }
    }

    /// Folds one capture's fault events into the report.
    pub fn absorb(&mut self, events: &FaultEvents) {
        for &name in &events.fired {
            self.fire(name);
        }
        self.packets_dropped += events.packets_dropped;
        self.packets_duplicated += events.packets_duplicated;
        self.outage_us += events.outage_us;
        self.frozen_packets += events.frozen_packets;
        if events.drift_fraction.abs() > self.drift_applied.abs() {
            self.drift_applied = events.drift_fraction;
        }
    }

    /// Folds another report into this one (names union, counters add) —
    /// used by the session to aggregate over its attempts.
    pub fn merge(&mut self, other: &DegradationReport) {
        for &name in &other.faults_fired {
            self.fire(name);
        }
        for &name in &other.mitigations_engaged {
            self.engage(name);
        }
        self.packets_dropped += other.packets_dropped;
        self.packets_duplicated += other.packets_duplicated;
        self.outage_us += other.outage_us;
        self.frozen_packets += other.frozen_packets;
        if other.drift_applied.abs() > self.drift_applied.abs() {
            self.drift_applied = other.drift_applied;
        }
        if other.drift_compensation.abs() > self.drift_compensation.abs() {
            self.drift_compensation = other.drift_compensation;
        }
        if other.readapted_rate_bps.is_some() {
            self.readapted_rate_bps = other.readapted_rate_bps;
        }
        self.retries_used += other.retries_used;
    }

    /// True if nothing fired and nothing engaged.
    pub fn is_clean(&self) -> bool {
        self.faults_fired.is_empty() && self.mitigations_engaged.is_empty()
    }

    /// Serialises the report as a JSON object (one line, no trailing
    /// newline) for the bench `RunRecord` stream. Names are fixed
    /// kebab-case identifiers, so no string escaping is needed.
    pub fn to_json(&self) -> String {
        let names = |v: &[&str]| {
            let quoted: Vec<String> = v.iter().map(|n| format!("\"{n}\"")).collect();
            format!("[{}]", quoted.join(","))
        };
        format!(
            "{{\"faults_fired\":{},\"mitigations_engaged\":{},\"packets_dropped\":{},\
             \"packets_duplicated\":{},\"outage_us\":{},\"frozen_packets\":{},\
             \"drift_applied\":{:?},\"drift_compensation\":{:?},\
             \"readapted_rate_bps\":{},\"retries_used\":{}}}",
            names(&self.faults_fired),
            names(&self.mitigations_engaged),
            self.packets_dropped,
            self.packets_duplicated,
            self.outage_us,
            self.frozen_packets,
            self.drift_applied,
            self.drift_compensation,
            self.readapted_rate_bps
                .map_or("null".to_string(), |r| r.to_string()),
            self.retries_used,
        )
    }
}

/// Configuration of an end-to-end uplink run.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// The propagation scene (positions, path loss, tag RCS…).
    pub scene: SceneConfig,
    /// Master seed for the whole run.
    pub seed: u64,
    /// Offered load at the helper (packets/s).
    pub helper_pps: f64,
    /// Tag chip (switch-toggle) rate; equals the bit rate in plain mode.
    pub chip_rate_cps: u64,
    /// Uplink payload the tag sends.
    pub payload: Vec<bool>,
    /// CSI or RSSI at the reader.
    pub measurement: Measurement,
    /// Orthogonal code length; 1 = plain mode.
    pub code_length: usize,
    /// Extra contending stations `(offered_pps, payload_bytes)` to model a
    /// busy network.
    pub background: Vec<(f64, usize)>,
    /// If true, the reader uses every delivered packet regardless of
    /// sender (§5 "leveraging traffic from all Wi-Fi devices"); otherwise
    /// only the helper's.
    pub use_all_traffic: bool,
    /// Replace the Intel 5300 artifact model with an ideal CSI extractor
    /// (thermal estimation noise only) — for the ablation benches.
    pub ideal_csi: bool,
    /// Multiplier on the Intel spurious-jump probability (1.0 = the
    /// calibrated rate) — the hysteresis ablation raises this to make the
    /// glitch-rejection benefit measurable in short runs.
    pub csi_spurious_boost: f64,
    /// Injected faults; [`FaultPlan::none`] leaves the run untouched.
    pub faults: FaultPlan,
    /// Arms the reader's fault mitigations — CSI→RSSI fallback, rate
    /// re-adaptation, drift re-scan — each engaging only when its trigger
    /// is observed and named in the [`DegradationReport`] (default: off,
    /// the pre-fault-injection behaviour).
    pub mitigations: bool,
    /// Which PHY mode runs the exchange (default:
    /// [`PhyConfig::Presence`], the paper's PHY).
    pub phy: PhyConfig,
}

impl LinkConfig {
    /// The canonical Fig. 10 configuration: the standard uplink scene at
    /// `tag_reader_m`, 90-bit payload, helper injecting enough traffic for
    /// `pkts_per_bit` measurements per bit at `bit_rate_bps`.
    pub fn fig10(tag_reader_m: f64, bit_rate_bps: u64, pkts_per_bit: u32, seed: u64) -> Self {
        LinkConfig {
            scene: SceneConfig::uplink(tag_reader_m),
            seed,
            helper_pps: (bit_rate_bps * u64::from(pkts_per_bit)) as f64,
            chip_rate_cps: bit_rate_bps,
            payload: (0..90).map(|i| (i * 13) % 7 < 3).collect(),
            measurement: Measurement::Csi,
            code_length: 1,
            background: Vec::new(),
            use_all_traffic: false,
            ideal_csi: false,
            csi_spurious_boost: 1.0,
            faults: FaultPlan::none(),
            mitigations: false,
            phy: PhyConfig::Presence,
        }
    }

    /// Sets the uplink payload (default: the canonical 90-bit Fig. 10
    /// pattern).
    pub fn with_payload(mut self, payload: Vec<bool>) -> Self {
        self.payload = payload;
        self
    }

    /// Sets the reader measurement (default: [`Measurement::Csi`]).
    pub fn with_measurement(mut self, measurement: Measurement) -> Self {
        self.measurement = measurement;
        self
    }

    /// Sets the orthogonal code length (default: 1 = plain mode).
    pub fn with_code_length(mut self, code_length: usize) -> Self {
        self.code_length = code_length;
        self
    }

    /// Sets the injected fault plan (default: [`FaultPlan::none`]).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the PHY mode (default: [`PhyConfig::Presence`]). The
    /// `crate::phy::run_*` entry points dispatch on this.
    pub fn with_phy(mut self, phy: PhyConfig) -> Self {
        self.phy = phy;
        self
    }
}

/// Result of an uplink run.
#[derive(Debug, Clone)]
pub struct UplinkRun {
    /// The payload the tag transmitted.
    pub transmitted: Vec<bool>,
    /// The reader's per-bit decisions (`None` = erasure or no detection).
    pub decoded: Vec<Option<bool>>,
    /// Bit-error accounting (erasures count as errors).
    pub ber: BerCounter,
    /// True if the decoder detected the preamble at all.
    pub detected: bool,
    /// Packets the reader measured.
    pub packets_used: usize,
    /// Mean packets per bit actually observed.
    pub pkts_per_bit: f64,
    /// Which faults fired and which mitigations engaged.
    pub degradation: DegradationReport,
    /// Simulated airtime of the (final) exchange (µs) — what goodput
    /// figures divide delivered bits by. For the presence PHY this is
    /// the capture window (conditioning lead + frame span + lead); for
    /// codeword translation it ends with the helper frame carrying the
    /// schedule's last symbol.
    pub elapsed_us: u64,
}

impl UplinkRun {
    /// Whether the frame decoded without a single bit error.
    pub fn perfect(&self) -> bool {
        self.ber.errors() == 0 && self.detected
    }
}

/// The raw material of an uplink exchange *before* decoding: what the
/// reader measured and when the tag transmitted. Exposed so experiments
/// can inspect raw CSI traces (Figs 3, 4, 6) or decode per-sub-channel
/// (Fig. 5) without duplicating the simulation plumbing.
#[derive(Debug, Clone)]
pub struct UplinkCapture {
    /// The measured per-packet series.
    pub bundle: SeriesBundle,
    /// The frame the tag transmitted.
    pub frame: UplinkFrame,
    /// When the tag's transmission started (µs).
    pub start_us: u64,
    /// Chip duration (µs).
    pub chip_us: u64,
    /// Mean packets per chip actually delivered during the frame.
    pub pkts_per_chip: f64,
    /// What the configured [`FaultPlan`] did during this capture.
    pub fault_events: FaultEvents,
}

/// Runs the simulation pipeline up to (but not including) decoding.
pub fn capture_uplink(cfg: &LinkConfig) -> UplinkCapture {
    capture_uplink_with(cfg, &mut NullRecorder)
}

/// [`capture_uplink`] plus observability: spans `uplink.mac` (the DCF
/// simulation over the run's simulated span, items = transmissions) and
/// `uplink.capture` (the measurement sweep, items = packets measured),
/// the traffic/fault counters from
/// [`bs_wifi::traffic::apply_faults_with`], the per-measurement counters
/// from the CSI/RSSI extractors, and `uplink.packets-delivered`. The
/// capture itself — every RNG draw included — is bit-identical to
/// [`capture_uplink`].
pub fn capture_uplink_with(cfg: &LinkConfig, rec: &mut dyn Recorder) -> UplinkCapture {
    let jobs = bs_dsp::par::available_jobs();
    capture(cfg, rec, |sweep, events, rec| sweep.run(jobs, events, rec))
}

/// [`capture_uplink_with`] with the CSI sweep left to `measure_csi`, so
/// tests can put the serial reference beside the batched sweep.
fn capture(
    cfg: &LinkConfig,
    rec: &mut dyn Recorder,
    measure_csi: impl FnOnce(CsiSweep<'_>, &mut FaultEvents, &mut dyn Recorder) -> SeriesBundle,
) -> UplinkCapture {
    assert!(cfg.code_length >= 1, "code length must be >= 1");
    let root = SimRng::new(cfg.seed);
    let frame = UplinkFrame::new(cfg.payload.clone());
    let chip_us = 1_000_000 / cfg.chip_rate_cps.max(1);
    let total_chips = UplinkFrame::on_air_len(frame.payload.len()) * cfg.code_length;

    // Lead-in/out so the conditioning moving average has context.
    let lead_us: u64 = 600_000;
    let frame_span_us = total_chips as u64 * chip_us;
    let duration_us = lead_us + frame_span_us + lead_us;

    let plan = &cfg.faults;
    let mut events = FaultEvents::default();

    // 1. Traffic + MAC. Fault decorators thin (or thicken) the offered
    // arrival streams before DCF contention, exactly as a stalled or
    // congested sender would.
    let mut traffic_rng = root.stream("helper-traffic");
    let mut stations = vec![Station::data(
        bs_wifi::traffic::apply_faults_with(
            bs_wifi::traffic::cbr(cfg.helper_pps, duration_us, &mut traffic_rng),
            plan,
            "helper",
            &mut events,
            rec,
        ),
        1000,
        54.0,
    )];
    for (i, &(pps, bytes)) in cfg.background.iter().enumerate() {
        let mut rng = root.stream("background").substream(i as u64);
        stations.push(Station::data(
            bs_wifi::traffic::apply_faults_with(
                bs_wifi::traffic::poisson(pps, duration_us, &mut rng),
                plan,
                &format!("background-{i}"),
                &mut events,
                rec,
            ),
            bytes,
            54.0,
        ));
    }
    let mut medium = Medium::new(Default::default(), root.stream("mac"));
    let (timeline, _) = medium.simulate(&stations, duration_us);
    rec.span("uplink.mac", 0, duration_us, timeline.len() as u64);
    let packets: Vec<u64> = timeline
        .iter()
        .filter(|t| !t.collided && (cfg.use_all_traffic || t.frame.src == 0))
        .map(|t| t.frame.timestamp_us)
        .collect();
    rec.add("uplink.packets-delivered", packets.len() as u64);

    // 2-4. Tag modulation, channel, measurement.
    let mode = if cfg.code_length == 1 {
        UplinkMode::Plain
    } else {
        UplinkMode::Coded(OrthogonalPair::new(cfg.code_length))
    };
    let modulator = Modulator::from_chip_rate(&frame, cfg.chip_rate_cps, mode, lead_us);

    // The tag's chip clock runs fast by the drift fraction: sampling its
    // state at a *stretched* time makes its whole frame run short relative
    // to the reader's clock.
    let drift = plan.clock_drift();
    if drift != 0.0 {
        events.fire("clock-drift");
        events.drift_fraction = drift;
    }
    let tag_clock = move |t_us: u64| -> u64 {
        if drift == 0.0 {
            t_us
        } else {
            ((t_us as f64) * (1.0 + drift)).round().max(0.0) as u64
        }
    };

    let mut scene_cfg = cfg.scene.clone();
    if let Some(intf) = plan.interference() {
        if scene_cfg.interference.is_none() {
            scene_cfg.interference = Some(intf);
        }
        events.fire("interference-burst");
    }
    let mut scene = Scene::new(scene_cfg, &root.stream("scene"));
    let offsets = csi_subchannel_offsets();
    // The tag's state at a packet's MAC time, read on the tag's clock.
    let state_at = |t_us: u64| modulator.state_at(tag_clock(t_us));
    let bundle = match cfg.measurement {
        Measurement::Csi => {
            let csi_cfg = if cfg.ideal_csi {
                bs_wifi::csi::CsiConfig::ideal()
            } else {
                let mut c = bs_wifi::csi::CsiConfig::default();
                c.spurious_jump_prob *= cfg.csi_spurious_boost;
                c
            };
            let degrade = plan.degrades_sensor();
            let sweep = CsiSweep {
                ex: CsiExtractor::new(csi_cfg, root.stream("csi")),
                packets: &packets,
                scene: &mut scene,
                offsets: &offsets,
                state_at: &state_at,
                frozen: &|t_us| degrade && plan.sensor_frozen_at(t_us),
            };
            measure_csi(sweep, &mut events, rec)
        }
        Measurement::Rssi => {
            // The wedge hits the CSI tool; RSSI keeps flowing. Still
            // record that the fault is active so a fallback run's report
            // names the fault it side-stepped.
            if plan.degrades_sensor() {
                events.fire("sensor-degradation");
            }
            let mut ex = RssiExtractor::new(root.stream("rssi"));
            // One step per packet, in packet order (the scene's fading
            // advances with time), filled into one reused snapshot: the
            // same channel `Scene::snapshot` returns, bit for bit.
            let mut snap: Option<ChannelSnapshot> = None;
            let ms: Vec<_> = packets
                .iter()
                .map(|&t_us| {
                    let step = scene.step(t_us as f64 / 1e6, state_at(t_us));
                    let table = scene.table(&offsets);
                    match snap.as_mut() {
                        Some(s) => table.fill(&step, s),
                        None => snap = Some(table.snapshot(&step)),
                    }
                    ex.measure_with(snap.as_ref().expect("filled above"), t_us, rec)
                })
                .collect();
            SeriesBundle::from_rssi(&ms)
        }
    };

    rec.span("uplink.capture", 0, duration_us, packets.len() as u64);
    let frame_packets = packets
        .iter()
        .filter(|&&t_us| t_us >= lead_us && t_us < lead_us + frame_span_us)
        .count();
    UplinkCapture {
        bundle,
        frame,
        start_us: lead_us,
        chip_us,
        pkts_per_chip: frame_packets as f64 / total_chips as f64,
        fault_events: events,
    }
}

/// The CSI half of a capture: the extractor at the first packet, each
/// packet's MAC timestamp, the scene with the subcarrier offsets and the
/// tag's state at a packet's time, and whether a sensor fault freezes
/// the report at that time.
struct CsiSweep<'a> {
    ex: CsiExtractor,
    packets: &'a [u64],
    scene: &'a mut Scene,
    offsets: &'a [f64],
    state_at: &'a dyn Fn(u64) -> TagState,
    frozen: &'a dyn Fn(u64) -> bool,
}

/// One packet between the sweep's serial and parallel stage: its time,
/// its [`SceneStep`] and the extractor's position, with no heap.
struct Pending {
    t_us: u64,
    step: SceneStep,
    /// The extractor positioned at this packet; `None` for a frozen
    /// packet, whose report repeats the last fresh one.
    fresh: Option<CsiExtractor>,
}

impl CsiSweep<'_> {
    /// Measures every packet and builds the bundle on up to `jobs`
    /// threads, bit for bit what [`Scene::snapshot`] and
    /// [`CsiExtractor::measure_with`] per packet and
    /// [`SeriesBundle::from_csi`] build (DESIGN.md §5 "A capture on every
    /// core").
    ///
    /// A [`pipeline`] streams the packets. On the calling thread, in
    /// packet order, each packet's [`Scene::step`] advances the fading,
    /// the sensor freeze is decided, and the extractor's position is kept
    /// and moved past the packet with [`CsiExtractor::skip_with`], which
    /// draws every uniform and records every counter but computes
    /// nothing. On any thread, a fresh packet's channel is filled from a
    /// copy of the scene's [`bs_channel::scene::ChannelTable`] into that
    /// thread's snapshot, and [`CsiExtractor::measure_into`] resumes the
    /// packet's stream and writes its row in place. Back on the calling
    /// thread the rows go into the bundle in order, a frozen packet
    /// repeating the last fresh row.
    fn run(self, jobs: usize, events: &mut FaultEvents, rec: &mut dyn Recorder) -> SeriesBundle {
        let CsiSweep {
            mut ex,
            packets,
            scene,
            offsets,
            state_at,
            frozen,
        } = self;
        let step = |scene: &mut Scene, t_us: u64| scene.step(t_us as f64 / 1e6, state_at(t_us));
        let Some(&t0) = packets.first() else {
            return SeriesBundle::new(0);
        };
        // The first packet's snapshot sizes the rows; `skip_with` reads
        // only its shape, which every packet shares.
        let mut first = Some(step(scene, t0));
        let table = scene.table(offsets).clone();
        let shape = table.snapshot(first.as_ref().expect("stepped above"));
        let width = shape.h.len();
        let mut bundle = SeriesBundle::with_capacity(width, packets.len());
        let mut last_fresh = vec![0.0; width];
        let measured = pipeline(
            jobs,
            packets.len(),
            width,
            |i| {
                let t_us = packets[i];
                let step = first.take().unwrap_or_else(|| step(scene, t_us));
                // A frozen report repeats the last fresh one, so the
                // first packet is always fresh.
                let stale = i > 0 && frozen(t_us);
                if stale {
                    events.fire("sensor-degradation");
                    events.frozen_packets += 1;
                }
                let fresh = (!stale).then(|| ex.clone());
                ex.skip_with(&shape, rec);
                Pending { t_us, step, fresh }
            },
            || shape.clone(),
            |snap, p, row| {
                if let Some(ex) = &mut p.fresh {
                    table.fill(&p.step, snap);
                    ex.measure_into(snap, row);
                }
            },
            |p, row| {
                if p.fresh.is_some() {
                    last_fresh.copy_from_slice(row);
                }
                bundle
                    .push(p.t_us, &last_fresh)
                    .expect("inconsistent CSI measurements");
            },
        );
        if let Err(p) = measured {
            panic!("{}", p.message);
        }
        bundle
    }
}

/// One decode of a capture, compared against alternatives purely by
/// receiver-observable criteria (detection, erasure count, preamble
/// score) — the mitigations must never peek at the true payload.
struct DecodeAttempt {
    decoded: Vec<Option<bool>>,
    detected: bool,
    erasures: usize,
    score: f64,
    stretch: f64,
}

impl DecodeAttempt {
    fn better_than(&self, other: &DecodeAttempt) -> bool {
        if self.detected != other.detected {
            return self.detected;
        }
        if self.erasures != other.erasures {
            return self.erasures < other.erasures;
        }
        self.score > other.score + 1e-12
    }
}

/// Decodes `capture` once against a shared per-capture [`SlotIndex`],
/// optionally compensating a candidate clock stretch: a tag running fast
/// by fraction `stretch` produces bits shorter by the same fraction on
/// the reader's clock. All stretch candidates (and the long-range
/// fallback) re-decode the *same* capture, so they share the index's
/// conditioned series and slot statistics instead of re-scanning the
/// packet stream per attempt.
fn decode_capture(
    cfg: &LinkConfig,
    capture: &UplinkCapture,
    index: &mut SlotIndex<'_>,
    stretch: f64,
    rec: &mut dyn Recorder,
) -> DecodeAttempt {
    rec.add("uplink.decode-attempts", 1);
    let (decoded, detected, score) = if cfg.code_length == 1 {
        let mut dcfg = match cfg.measurement {
            Measurement::Csi => UplinkDecoderConfig::csi(cfg.chip_rate_cps, cfg.payload.len()),
            Measurement::Rssi => UplinkDecoderConfig::rssi(cfg.chip_rate_cps, cfg.payload.len()),
        };
        if stretch != 0.0 {
            let stretched = (dcfg.bit_duration_us as f64 / (1.0 + stretch)).round();
            dcfg.bit_duration_us = stretched.max(1.0) as u64;
        }
        match UplinkDecoder::new(dcfg).decode_indexed(index, capture.start_us, rec) {
            // Both timing anchors count: the preamble alone cannot tell a
            // right bit clock from a wrong one (error accumulates over
            // the frame; the front anchor sees none of it), so a stretch
            // candidate must also keep the postamble aligned to win.
            Some(out) => (out.bits, true, out.preamble_score + out.postamble_score),
            None => (vec![None; cfg.payload.len()], false, 0.0),
        }
    } else {
        let lcfg = LongRangeConfig {
            chip_duration_us: capture.chip_us,
            code: OrthogonalPair::new(cfg.code_length),
            payload_bits: cfg.payload.len(),
            top_channels: 10,
        };
        match LongRangeDecoder::new(lcfg).decode_indexed(index, capture.start_us, rec) {
            Some(out) => (out.bits, true, 1.0),
            None => (vec![None; cfg.payload.len()], false, 0.0),
        }
    };
    let erasures = decoded.iter().filter(|b| b.is_none()).count();
    DecodeAttempt {
        decoded,
        detected,
        erasures,
        score,
        stretch,
    }
}

/// Candidate clock-stretch factors the drift re-scan tries, nominal first
/// so an undrifted capture keeps its baseline decode on ties.
const DRIFT_CANDIDATES: [f64; 7] = [0.0, 0.005, -0.005, 0.01, -0.01, 0.02, -0.02];

/// The presence/CSI uplink exchange — what [`crate::phy::run_uplink_with`]
/// runs for [`PhyConfig::Presence`]: all capture and decode instrumentation,
/// plus the link-level counters `link.retries` and
/// `link.mitigations-engaged`. With [`LinkConfig::mitigations`] on, it
/// engages whatever mitigations the observed degradation calls for.
/// Every RNG draw is identical whatever the recorder.
pub(crate) fn presence_uplink_with(cfg: &LinkConfig, rec: &mut dyn Recorder) -> UplinkRun {
    let mut report = DegradationReport::default();
    let mut eff = cfg.clone();

    // CSI→RSSI fallback: the reader knows its CSI tool is wedging (the
    // feed repeats stale reports), so it switches to the §3.3 RSSI
    // pipeline before capturing.
    if eff.mitigations && eff.measurement == Measurement::Csi && eff.faults.degrades_sensor() {
        eff.measurement = Measurement::Rssi;
        report.engage("csi-fallback");
    }

    let mut capture = capture_uplink_with(&eff, rec);
    report.absorb(&capture.fault_events);

    // Proactive re-adaptation: the delivered cadence is observable before
    // decoding; if it collapsed below what §5 rate selection assumed,
    // re-run the exchange at a chip rate the surviving cadence supports.
    if eff.mitigations && eff.code_length == 1 && eff.chip_rate_cps > 0 {
        let target_ppb = eff.helper_pps / eff.chip_rate_cps as f64;
        let measured_pps = capture.pkts_per_chip * eff.chip_rate_cps as f64;
        if let Some(new_rate) =
            bs_wifi::rate_adapt::readapt_chip_rate(eff.chip_rate_cps, measured_pps, target_ppb)
        {
            eff.chip_rate_cps = new_rate;
            report.engage("rate-readapt");
            report.readapted_rate_bps = Some(new_rate);
            capture = capture_uplink_with(&eff, rec);
            report.absorb(&capture.fault_events);
        }
    }

    // Drift re-scan: with a drift fault armed, decode under candidate
    // stretch factors and keep the best by observable criteria.
    let stretches: &[f64] =
        if eff.mitigations && eff.code_length == 1 && eff.faults.clock_drift() != 0.0 {
            report.engage("drift-rescan");
            &DRIFT_CANDIDATES
        } else {
            &DRIFT_CANDIDATES[..1]
        };
    let decode_best =
        |cfg_eff: &LinkConfig, capture: &UplinkCapture, rec: &mut dyn Recorder| -> DecodeAttempt {
            // One slot index per capture: the stretch candidates all
            // re-decode the same bundle, so conditioning (which does not
            // depend on the bit clock) and any shared slot statistics
            // are computed once.
            let mut index = SlotIndex::new(&capture.bundle);
            let mut best: Option<DecodeAttempt> = None;
            for &s in stretches {
                let attempt = decode_capture(cfg_eff, capture, &mut index, s, rec);
                best = match best {
                    Some(b) if !attempt.better_than(&b) => Some(b),
                    _ => Some(attempt),
                };
            }
            best.expect("at least one stretch candidate")
        };

    let mut best = decode_best(&eff, &capture, rec);

    // Reactive rate step-down: undetected or erasure-ridden decodes mean
    // the bits were starved of measurements; retry at half rate (bounded
    // attempts, floored) and keep the retry only if observably better.
    if eff.mitigations && eff.code_length == 1 {
        let mut retries = 0u32;
        while retries < 2 && (!best.detected || best.erasures > 0) && eff.chip_rate_cps > 25 {
            retries += 1;
            eff.chip_rate_cps = (eff.chip_rate_cps / 2).max(25);
            report.engage("rate-readapt");
            report.retries_used += 1;
            capture = capture_uplink_with(&eff, rec);
            report.absorb(&capture.fault_events);
            let attempt = decode_best(&eff, &capture, rec);
            if attempt.better_than(&best) {
                report.readapted_rate_bps = Some(eff.chip_rate_cps);
                best = attempt;
            }
        }
    }
    report.drift_compensation = best.stretch;
    rec.add("link.retries", u64::from(report.retries_used));
    rec.add(
        "link.mitigations-engaged",
        report.mitigations_engaged.len() as u64,
    );

    let mut ber = BerCounter::new();
    ber.compare_with_erasures(&cfg.payload, &best.decoded);
    // The final capture's simulated window: lead + frame span + lead.
    let frame_span_us = UplinkFrame::on_air_len(capture.frame.payload.len()) as u64
        * eff.code_length as u64
        * capture.chip_us;
    UplinkRun {
        transmitted: cfg.payload.clone(),
        decoded: best.decoded,
        ber,
        detected: best.detected,
        packets_used: capture.bundle.packets(),
        pkts_per_bit: capture.pkts_per_chip * cfg.code_length as f64,
        degradation: report,
        elapsed_us: 2 * capture.start_us + frame_span_us,
    }
}

/// Configuration of a downlink run.
#[derive(Debug, Clone)]
pub struct DownlinkConfig {
    /// Reader→tag distance (m).
    pub distance_m: f64,
    /// Downlink bit rate (bits/s): 20 000, 10 000 or 5 000 in the paper.
    pub bit_rate_bps: u64,
    /// Master seed.
    pub seed: u64,
    /// Injected faults; [`FaultPlan::none`] leaves the run untouched.
    pub faults: FaultPlan,
}

impl DownlinkConfig {
    /// The Fig. 17 configuration at a given distance and rate.
    pub fn fig17(distance_m: f64, bit_rate_bps: u64, seed: u64) -> Self {
        DownlinkConfig {
            distance_m,
            bit_rate_bps,
            seed,
            faults: FaultPlan::none(),
        }
    }

    /// Sets the injected fault plan (default: [`FaultPlan::none`]).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Received signal power at the tag (mW): the reader's transmit power
    /// ([`bs_channel::calib::READER_TX_DBM`], the paper's +16 dBm) through the
    /// standard path-loss model times this run's small-scale fading
    /// realisation (Rician, as every placement in a real room sits in a
    /// different multipath fade — this is what spreads the Fig. 17 BER
    /// curves over tens of centimetres instead of a hard cliff).
    fn rx_mw(&self) -> f64 {
        let pl = bs_channel::pathloss::LogDistance {
            exponent: bs_channel::calib::PATHLOSS_EXPONENT,
            freq_hz: bs_channel::pathloss::WIFI_CH6_HZ,
        };
        let mut mp_rng = SimRng::new(self.seed).stream("dl-multipath");
        // Strong-LOS Rician: reader and tag face each other a couple of
        // metres apart, so the fade spread is mild (±1–2 dB).
        let mp = bs_channel::multipath::Multipath::generate(
            &bs_channel::multipath::MultipathConfig {
                k_factor: 10.0,
                ..Default::default()
            },
            &mut mp_rng,
        );
        let fade = mp.response(0.0).norm_sq();
        bs_channel::pathloss::dbm_to_mw(bs_channel::calib::READER_TX_DBM)
            * pl.power_gain(self.distance_m)
            * fade
    }
}

/// Result of a raw-BER downlink run.
#[derive(Debug, Clone)]
pub struct DownlinkRun {
    /// Bit-error accounting.
    pub ber: BerCounter,
    /// Bits transmitted.
    pub bits_sent: usize,
    /// Which faults fired during the run.
    pub degradation: DegradationReport,
}

/// The envelope raw-BER downlink both PHY modes share — the body behind
/// [`crate::phy::run_downlink_ber_with`]: a `downlink.envelope` span over
/// the simulated trace, the tag comparator span and transition counter from
/// [`ReceiverCircuit::run_with`], counters `downlink.bits-sent` /
/// `downlink.bit-errors`, and the tag's energy ledger gauges
/// (`tag.energy-uj`, `tag.mean-uw`) for the receive window. Every RNG
/// draw is identical whatever the recorder.
pub(crate) fn presence_downlink_ber_with(
    cfg: &DownlinkConfig,
    n_bits: usize,
    rec: &mut dyn Recorder,
) -> DownlinkRun {
    let root = SimRng::new(cfg.seed);
    let mut bit_rng = root.stream("dl-bits");
    let bits: Vec<bool> = (0..n_bits).map(|_| bit_rng.chance(0.5)).collect();
    let bit_us = 1_000_000 / cfg.bit_rate_bps.max(1);

    let mut report = DegradationReport::default();
    let intf = cfg.faults.interference();
    let intf_mw = intf.map_or(0.0, |i| bs_channel::pathloss::dbm_to_mw(i.power_dbm));
    if intf.is_some() {
        report.faults_fired.push("interference-burst");
    }

    let env_cfg = EnvelopeConfig::default();
    let mut env = EnvelopeModel::new(env_cfg, root.stream("dl-envelope"));
    let signal_mw = cfg.rx_mw();
    let bit_samples = bit_us as usize; // 1 µs samples
    let schedule = bs_tag::envelope::bit_schedule(&bits, bit_samples, signal_mw);
    let n_samples = bits.len() * bit_samples + 100;
    let trace = env.trace(n_samples, |i| {
        let base = schedule(i);
        match &intf {
            Some(ic) if ic.active_at(i as f64 / 1e6) => base + intf_mw,
            _ => base,
        }
    });

    rec.span("downlink.envelope", 0, n_samples as u64, n_samples as u64);

    let mut circuit = ReceiverCircuit::new(CircuitConfig::default());
    let comparator = circuit.run_with(&trace, rec);
    let mut dec = DownlinkDecoder::new(bit_us as f64, 1.0);
    let decoded = dec.slice_bits(&comparator, 0.0, bits.len());

    let mut ber = BerCounter::new();
    ber.compare(&bits, &decoded);
    rec.add("downlink.bits-sent", bits.len() as u64);
    rec.add("downlink.bit-errors", ber.errors());

    // The tag-side energy story of this receive window: analog rx front
    // end on for the whole trace, one mid-bit sample per sliced bit, MCU
    // otherwise asleep (§4.2's duty-cycled firmware).
    let mut ledger = bs_tag::power::EnergyLedger::new();
    ledger.analog(n_samples as f64, true, false);
    ledger.samples(bits.len() as u64);
    ledger.mcu_sleep(n_samples as f64);
    ledger.record(rec);

    DownlinkRun {
        ber,
        bits_sent: bits.len(),
        degradation: report,
    }
}

/// The presence/envelope framed-downlink exchange — the body behind
/// both shipped PHY modes (the wake/command channel is shared). An
/// armed [`Fault::PacketLoss`] can swallow the whole short query burst
/// (the frame-level loss the session layer retries around); an armed
/// interference burst raises the envelope floor under the frame.
/// Observability: a `downlink.encode` span over the transmission's
/// on-air extent, the tag comparator instrumentation from
/// [`ReceiverCircuit::run_with`], and counters
/// `downlink.frames-attempted` / `downlink.frames-recovered` /
/// `downlink.frames-lost`. The exchange is bit-identical whatever the
/// recorder.
///
/// [`Fault::PacketLoss`]: bs_channel::faults::Fault::PacketLoss
pub(crate) fn presence_downlink_frame_with(
    cfg: &DownlinkConfig,
    frame: &DownlinkFrame,
    rec: &mut dyn Recorder,
) -> (Option<DownlinkFrame>, DegradationReport) {
    let mut report = DegradationReport::default();
    rec.add("downlink.frames-attempted", 1);
    let loss = cfg.faults.frame_loss_prob();
    if loss > 0.0 {
        let mut rng = SimRng::new(cfg.seed ^ cfg.faults.seed).stream("dl-frame-loss");
        if rng.chance(loss) {
            report.faults_fired.push("packet-loss");
            report.packets_dropped += 1;
            rec.add("downlink.frames-lost", 1);
            return (None, report);
        }
    }
    let intf = cfg.faults.interference();
    let intf_mw = intf.map_or(0.0, |i| bs_channel::pathloss::dbm_to_mw(i.power_dbm));
    if intf.is_some() {
        report.faults_fired.push("interference-burst");
    }

    let root = SimRng::new(cfg.seed);
    let encoder = DownlinkEncoder::new(cfg.bit_rate_bps);
    let tx = match encoder.encode(frame, 2_000) {
        Ok(tx) => tx,
        Err(_) => return (None, report),
    };
    rec.span(
        "downlink.encode",
        2_000,
        tx.end_us,
        frame.payload.len() as u64,
    );

    let env_cfg = EnvelopeConfig::default();
    let mut env = EnvelopeModel::new(env_cfg, root.stream("dl-frame-env"));
    let signal_mw = cfg.rx_mw();
    let n_samples = (tx.end_us + 2_000) as usize;
    let trace = env.trace(n_samples, |i| {
        let base = if tx.on_air(i as u64) { signal_mw } else { 0.0 };
        match &intf {
            Some(ic) if ic.active_at(i as f64 / 1e6) => base + intf_mw,
            _ => base,
        }
    });
    let mut circuit = ReceiverCircuit::new(CircuitConfig::default());
    let comparator = circuit.run_with(&trace, rec);
    let bit_us = 1_000_000 / cfg.bit_rate_bps.max(1);
    let mut dec = DownlinkDecoder::new(bit_us as f64, 1.0);
    let got = dec
        .decode_stream(&comparator, frame.payload.len())
        .into_iter()
        .next();
    dec.stats.record(rec);
    if got.is_some() {
        rec.add("downlink.frames-recovered", 1);
    }
    (got, report)
}

/// Merges a MAC timeline into on-air energy intervals and returns the
/// comparator transition list a tag near the AP would see — the
/// event-driven path used for the hours-long Fig. 18 false-positive
/// experiment (a sample-level trace would be needlessly slow at strong
/// signal).
pub fn timeline_to_transitions(timeline: &[Transmission], merge_gap_us: u64) -> Vec<(u64, bool)> {
    let mut intervals: Vec<(u64, u64)> = timeline
        .iter()
        .map(|t| (t.frame.timestamp_us, t.frame.end_us()))
        .collect();
    intervals.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::new();
    for (s, e) in intervals {
        match merged.last_mut() {
            Some(last) if s <= last.1 + merge_gap_us => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    let mut transitions = Vec::with_capacity(merged.len() * 2);
    for (s, e) in merged {
        transitions.push((s, true));
        transitions.push((e, false));
    }
    transitions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phy::{run_downlink_ber, run_downlink_frame, run_uplink};
    use bs_channel::fading::FadingConfig;
    use bs_channel::TagState;
    use bs_dsp::obs::MemRecorder;
    use bs_wifi::CsiMeasurement;

    /// 256 packets: a whole number of the runtime's chunks, so the batch
    /// boundaries these tests cross are chunk boundaries as well.
    const CSI_BATCH: usize = 256;

    /// What a sweep yields, bit for bit: the timestamps, every channel's
    /// values as bits, the fault events and the recorder's JSON.
    type Outcome = (Vec<u64>, Vec<Vec<u64>>, FaultEvents, String);

    fn outcome(bundle: &SeriesBundle, events: FaultEvents, rec: &MemRecorder) -> Outcome {
        let bits = (0..bundle.channels())
            .map(|c| bundle.channel(c).iter().map(|v| v.to_bits()).collect())
            .collect();
        (bundle.t_us().to_vec(), bits, events, rec.report().to_json())
    }

    /// The serial reference: one `measure_with` per packet, a frozen
    /// packet repeating the last fresh measurement, and `from_csi` —
    /// the capture as perfbench's replay builds it.
    fn reference_sweep(
        sweep: CsiSweep<'_>,
        events: &mut FaultEvents,
        rec: &mut dyn Recorder,
    ) -> SeriesBundle {
        let CsiSweep {
            mut ex,
            packets,
            scene,
            offsets,
            state_at,
            frozen,
        } = sweep;
        let mut last: Option<CsiMeasurement> = None;
        let ms: Vec<_> = packets
            .iter()
            .map(|&t| {
                let snap = scene.snapshot(t as f64 / 1e6, state_at(t), offsets);
                let fresh = ex.measure_with(&snap, t, rec);
                if frozen(t) {
                    if let Some(prev) = &last {
                        events.fire("sensor-degradation");
                        events.frozen_packets += 1;
                        let mut stale = prev.clone();
                        stale.timestamp_us = t;
                        return stale;
                    }
                }
                last = Some(fresh.clone());
                fresh
            })
            .collect();
        SeriesBundle::from_csi(&ms)
    }

    /// The capture of `cfg` with the serial reference sweep (`None`) or
    /// the batched sweep on `jobs` workers.
    fn capture_at(cfg: &LinkConfig, jobs: Option<usize>) -> Outcome {
        let mut rec = MemRecorder::new();
        let c = match jobs {
            None => capture(cfg, &mut rec, reference_sweep),
            Some(jobs) => capture(cfg, &mut rec, |s, e, r| s.run(jobs, e, r)),
        };
        outcome(&c.bundle, c.fault_events, &rec)
    }

    /// Asserts every worker count, and `capture_uplink_with` itself,
    /// reproduce the serial reference; returns the reference.
    fn assert_jobs_invariant(what: &str, cfg: &LinkConfig) -> Outcome {
        let want = capture_at(cfg, None);
        for jobs in [1, 2, 3, 8] {
            assert!(capture_at(cfg, Some(jobs)) == want, "{what}: jobs {jobs}");
        }
        let mut rec = MemRecorder::new();
        let c = capture_uplink_with(cfg, &mut rec);
        assert!(
            outcome(&c.bundle, c.fault_events, &rec) == want,
            "{what}: capture_uplink_with"
        );
        want
    }

    fn short(cfg: LinkConfig) -> LinkConfig {
        cfg.with_payload((0..12).map(|i| i % 3 == 0).collect())
    }

    #[test]
    fn fault_free_capture_is_bit_identical_at_any_worker_count() {
        for ppb in [5, 10, 30] {
            let (t, ..) = assert_jobs_invariant(
                &format!("{ppb} pkts/bit"),
                &short(LinkConfig::fig10(0.3, 100, ppb, 60 + u64::from(ppb))),
            );
            assert!(
                t.len() > 2 * CSI_BATCH,
                "{ppb} pkts/bit: {} packets",
                t.len()
            );
        }
        // Fewer antennas: narrower rows, the same order.
        for antennas in [1, 2] {
            let mut cfg = short(LinkConfig::fig10(0.3, 100, 10, 90 + antennas as u64));
            cfg.scene.reader_antennas = antennas;
            let (_, bits, ..) = assert_jobs_invariant(&format!("{antennas} antennas"), &cfg);
            assert_eq!(bits.len(), antennas * bs_wifi::ofdm::CSI_SUBCHANNELS);
        }
    }

    #[test]
    fn faulted_capture_is_bit_identical_at_any_worker_count() {
        let sensor = FaultPlan::preset("sensor", 1.0, 3).unwrap();
        let cfg = short(LinkConfig::fig10(0.3, 100, 10, 71)).with_faults(sensor.clone());
        let (t, _, events, _) = assert_jobs_invariant("sensor", &cfg);
        // A frozen run crosses the first batch boundary, so the rows
        // after it repeat a row of the batch before.
        let crossing = t[CSI_BATCH - 1..=CSI_BATCH]
            .iter()
            .all(|&t| sensor.sensor_frozen_at(t));
        assert!(crossing && events.frozen_packets > 0, "{events:?}");
        for preset in ["drift", "all"] {
            let plan = FaultPlan::preset(preset, 1.0, 5).unwrap();
            assert_jobs_invariant(
                preset,
                &short(LinkConfig::fig10(0.3, 100, 10, 72)).with_faults(plan),
            );
        }
    }

    #[test]
    fn coded_ideal_and_glitchy_captures_are_bit_identical_at_any_worker_count() {
        let coded = LinkConfig::fig10(0.5, 500, 2, 81)
            .with_code_length(20)
            .with_payload(vec![true, false, false, true]);
        assert_jobs_invariant("coded L=20", &coded);
        let mut ideal = short(LinkConfig::fig10(0.3, 100, 5, 82));
        ideal.ideal_csi = true;
        assert_jobs_invariant("ideal CSI", &ideal);
        let mut glitchy = short(LinkConfig::fig10(0.3, 100, 5, 83));
        glitchy.csi_spurious_boost = 100.0;
        let (.., report) = assert_jobs_invariant("glitchy CSI", &glitchy);
        assert!(report.contains("\"wifi.csi-spurious-jumps\""), "{report}");
    }

    /// A sweep of `n` packets 1 ms apart, every fifth pair frozen, with
    /// the serial reference (`None`) or on `jobs` workers.
    fn sweep_at(n: u64, jobs: Option<usize>) -> Outcome {
        let offsets = csi_subchannel_offsets();
        let mut scene = Scene::new(SceneConfig::uplink(0.3), &SimRng::new(7));
        let packets: Vec<u64> = (0..n).map(|i| i * 1000).collect();
        let sweep = CsiSweep {
            ex: CsiExtractor::intel5300(SimRng::new(8)),
            packets: &packets,
            scene: &mut scene,
            offsets: &offsets,
            state_at: &|t| {
                if (t / 4000) % 2 == 0 {
                    TagState::Absorb
                } else {
                    TagState::Reflect
                }
            },
            frozen: &|t| t % 5000 < 2000,
        };
        let (mut events, mut rec) = (FaultEvents::default(), MemRecorder::new());
        let bundle = match jobs {
            None => reference_sweep(sweep, &mut events, &mut rec),
            Some(jobs) => sweep.run(jobs, &mut events, &mut rec),
        };
        outcome(&bundle, events, &rec)
    }

    #[test]
    fn sweeps_of_any_length_are_bit_identical_at_any_worker_count() {
        let batch = CSI_BATCH as u64;
        for n in [0, 1, 17, batch - 1, batch, 2 * batch, 2 * batch + 3] {
            let want = sweep_at(n, None);
            assert_eq!(want.0.len() as u64, n);
            for jobs in [1, 2, 3, 8] {
                assert!(sweep_at(n, Some(jobs)) == want, "{n} packets, jobs {jobs}");
            }
        }
    }

    #[test]
    fn uplink_decodes_at_5cm() {
        // Fig. 3's regime: tag at 5 cm, 30 packets/bit — must decode
        // cleanly.
        let mut cfg = LinkConfig::fig10(0.05, 100, 30, 42);
        cfg.payload = (0..30).map(|i| i % 2 == 0).collect();
        let run = run_uplink(&cfg);
        assert!(run.detected, "no preamble detection at 5 cm");
        assert_eq!(run.ber.errors(), 0, "decoded {:?}", run.decoded);
        assert!(run.pkts_per_bit > 20.0, "pkts/bit {}", run.pkts_per_bit);
    }

    #[test]
    fn uplink_fails_far_without_coding() {
        // At 2 m the plain decoder must be essentially broken (Fig. 6).
        let mut cfg = LinkConfig::fig10(2.0, 100, 30, 43);
        cfg.payload = (0..30).map(|i| i % 2 == 0).collect();
        let run = run_uplink(&cfg);
        let ber = run.ber.raw_ber();
        assert!(
            !run.detected || ber > 0.05,
            "plain decode unexpectedly good at 2 m: ber {ber}"
        );
    }

    #[test]
    fn rssi_works_close() {
        let mut cfg = LinkConfig::fig10(0.05, 100, 30, 44);
        cfg.measurement = Measurement::Rssi;
        cfg.payload = (0..30).map(|i| (i * 3) % 5 < 2).collect();
        let run = run_uplink(&cfg);
        assert!(run.detected);
        assert!(
            run.ber.raw_ber() < 0.05,
            "rssi ber {} at 5 cm",
            run.ber.raw_ber()
        );
    }

    #[test]
    fn coded_mode_extends_range() {
        // At 1.2 m: plain decoding degraded, L=24 coding much better.
        let payload: Vec<bool> = (0..10).map(|i| i % 3 == 0).collect();
        let mut plain_err = 0u64;
        let mut coded_err = 0u64;
        for seed in 0..3 {
            let mut p = LinkConfig::fig10(1.2, 100, 10, 100 + seed);
            p.payload = payload.clone();
            plain_err += run_uplink(&p).ber.errors();

            let mut c = LinkConfig::fig10(1.2, 100, 10, 100 + seed);
            c.payload = payload.clone();
            c.code_length = 24;
            coded_err += run_uplink(&c).ber.errors();
        }
        assert!(
            coded_err <= plain_err,
            "coded {coded_err} vs plain {plain_err}"
        );
        assert!(coded_err <= 2, "coded errors {coded_err}");
    }

    #[test]
    fn downlink_clean_at_half_meter() {
        // "Clean" allows a single noise-tail bit flip in 2 000: seeds
        // routinely produce 0 or 1 errors here (BER ≤ 5e-4), well below
        // the Fig. 17 floor.
        let cfg = DownlinkConfig::fig17(0.5, 20_000, 7);
        let run = run_downlink_ber(&cfg, 2_000);
        assert!(run.ber.errors() <= 1, "ber {}", run.ber.raw_ber());
    }

    #[test]
    fn downlink_degrades_with_distance() {
        let near = run_downlink_ber(&DownlinkConfig::fig17(1.0, 20_000, 8), 2_000);
        let far = run_downlink_ber(&DownlinkConfig::fig17(4.0, 20_000, 8), 2_000);
        assert!(
            far.ber.raw_ber() > near.ber.raw_ber(),
            "near {} far {}",
            near.ber.raw_ber(),
            far.ber.raw_ber()
        );
        assert!(far.ber.raw_ber() > 0.05, "4 m should be broken");
    }

    #[test]
    fn downlink_frame_roundtrip_at_1m() {
        let frame = DownlinkFrame::new(vec![0x11, 0x22, 0x33, 0x44]);
        let got = run_downlink_frame(&DownlinkConfig::fig17(1.0, 20_000, 9), &frame);
        assert_eq!(got, Some(frame));
    }

    #[test]
    fn downlink_frame_fails_out_of_range() {
        let frame = DownlinkFrame::new(vec![0x11, 0x22]);
        let got = run_downlink_frame(&DownlinkConfig::fig17(6.0, 20_000, 10), &frame);
        assert_eq!(got, None);
    }

    #[test]
    fn timeline_transitions_merge_back_to_back() {
        use bs_wifi::frame::{FrameKind, WifiFrame};
        let mk = |t: u64, d: u64| Transmission {
            frame: WifiFrame {
                kind: FrameKind::Data,
                src: 0,
                timestamp_us: t,
                duration_us: d,
            },
            collided: false,
        };
        let tl = vec![mk(0, 100), mk(102, 100), mk(500, 50)];
        let tr = timeline_to_transitions(&tl, 4);
        assert_eq!(tr, vec![(0, true), (202, false), (500, true), (550, false)]);
    }

    #[test]
    fn static_fading_uplink_still_decodes() {
        // Conditioning exists to remove fading; without fading decoding
        // must also work.
        let mut cfg = LinkConfig::fig10(0.1, 100, 30, 45);
        cfg.scene.fading = FadingConfig::static_channel();
        cfg.payload = (0..20).map(|i| i % 4 < 2).collect();
        let run = run_uplink(&cfg);
        assert!(run.detected);
        assert_eq!(run.ber.errors(), 0);
    }
}
