//! Heap-allocation budgets of one gateway run, one uplink capture and
//! one whole exchange.
//!
//! Serving a tag for one epoch (one tag-epoch) allocates a fixed handful
//! of buffers — DESIGN.md §"What a tag-epoch allocates" lists them —
//! and nothing per ARQ round. A capture allocates per run and per batch
//! of packets in flight, never per packet — DESIGN.md §"What a capture
//! allocates". This test counts every allocation a call makes, on every
//! thread, with this binary's own counting allocator, and holds a
//! gateway run to [`PER_TAG`] per identified tag plus [`PER_GATEWAY`]
//! (plus [`PER_REPAIR`] per segment FEC repairs), each further gateway
//! a fleet shard serves through its reused scratch to
//! [`PER_REUSED_GATEWAY`] whatever its roster, and a capture to
//! [`PER_CAPTURE`] plus [`PER_THREAD`] per thread plus one per
//! [`PACKETS_PER_ALLOC`] packets, an RSSI capture to
//! [`RSSI_PER_CAPTURE`] plus the same. A whole `run_uplink` exchange or `Reader::query` adds
//! one decode, [`PER_DECODE`]. The allocator also tracks live bytes, and
//! an exchange's heap peak may pass its capture's by an eighth of the
//! bundle only ([`DECODE_BUNDLE_FRACTION`]): decode runs in the
//! capture's own memory. An armed gateway run may exceed the plain one
//! by [`ARMED_GROWTH`] only, so recording never allocates per event. So `cargo test` catches allocations
//! creeping back into a per-tag, per-packet, per-row or per-event path,
//! not only the `fleet_micro` smoke bench.
//!
//! The binary runs without libtest (`harness = false`): [`main`] runs
//! the cases one after another on its own thread, so no harness thread
//! allocates while a count runs. It prints libtest's report shapes and
//! takes name filters, `--exact`, `--list` and `--format json`.

use bs_channel::faults::FaultPlan;
use bs_dsp::obs::MemRecorder;
use bs_net::fec::FecConfig;
use bs_net::fleet::{run_fleet, FleetConfig};
use bs_net::gateway::{
    run_gateway, run_gateway_with, GatewayConfig, GatewayRun, PollingPolicy, TagProfile,
};
use bs_tag::energy::{CapacitorConfig, EnergyConfig, EnergyPolicy};
use bs_tag::frame::UplinkFrame;
use bs_tag::modulator::{Modulator, UplinkMode};
use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use wifi_backscatter::link::{capture_uplink, LinkConfig, Measurement, UplinkCapture};
use wifi_backscatter::phy::run_uplink;
use wifi_backscatter::session::{Reader, ReaderConfig};

/// Heap allocations (alloc, alloc_zeroed, realloc) made by any thread
/// of this binary. The count publishes no other data, so `Relaxed`
/// suffices; a reading after the counted call has joined its threads
/// sees theirs.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Bytes live on the heap, requested sizes, over every thread.
static LIVE: AtomicU64 = AtomicU64::new(0);

/// The highest [`LIVE`] reached since [`peak_of`] last reset it.
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Counts `bytes` more live and raises the peak to match.
fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// Counts `bytes` fewer live.
fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

/// The system allocator, counting each allocation and the live bytes.
struct CountingAlloc;

// SAFETY: every method forwards to `System` unchanged; counting touches
// only static atomics, which never allocate. A failed (null) allocation
// changes no byte count.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on every thread, and its result.
fn counted<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

/// The most heap bytes `f` held live at once on top of what was live
/// when it began, over every thread, and its result.
fn peak_of<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (PEAK.load(Ordering::Relaxed) - base, out)
}

/// Allocations per identified tag on plain ARQ: the segment table, the
/// receiver's span table and buffer, the control frame and the
/// delivered message.
const PER_TAG: u64 = 5;

/// What a tag whose link saw a fault adds: its list of fault names.
const FAULTED_PER_TAG: u64 = 1;

/// What FEC adds per tag: the parity buffer and the code's generator
/// polynomial.
const FEC_PER_TAG: u64 = 2;

/// Allocations per gateway run whatever its size: the inventory, the
/// served-tag and outcome tables, the merged degradation report.
const PER_GATEWAY: u64 = 64;

/// `n` tags with the fleet's 48-byte messages.
fn roster(n: usize) -> Vec<TagProfile> {
    (0..n)
        .map(|i| TagProfile::new(i as u8 + 1, (0..48).map(|b| (b * 7 + i) as u8).collect()))
        .collect()
}

/// Allocations `run_gateway(tags, cfg)` makes, and its run.
fn counted_gateway(tags: &[TagProfile], cfg: &GatewayConfig) -> (u64, GatewayRun) {
    counted(|| run_gateway(tags, cfg).expect("a valid roster"))
}

/// A gateway under the `loss` preset: ARQ retransmits for many tags.
fn loss_gateway() -> GatewayConfig {
    GatewayConfig::default()
        .with_faults(FaultPlan::preset("loss", 1.0, 17).expect("known preset"))
        .with_seed(5)
}

fn a_lossy_gateway_allocates_a_handful_per_tag() {
    let tags = roster(200);
    let cfg = loss_gateway();
    let (allocs, run) = counted_gateway(&tags, &cfg);
    let identified = run.tags.len() as u64;
    assert!(identified > 150, "only {identified} of 200 tags identified");
    assert!(run.tags.iter().any(|t| t.transfer.retransmissions > 0));
    let per_tag = PER_TAG + FAULTED_PER_TAG;
    let budget = per_tag * identified + PER_GATEWAY;
    eprintln!("loss roster: {allocs} allocations, {identified} tags, budget {budget}");
    assert!(
        allocs <= budget,
        "{allocs} allocations for {identified} tags, over {per_tag}/tag + {PER_GATEWAY}"
    );
}

/// What arming a `MemRecorder` may add to a gateway run: the growth of
/// the report's span list and of its counter and gauge maps. Names are
/// stored as given, so nothing is allocated per event. Measured +13 on
/// the 200-tag loss roster (+9 on a clean one): the span list's
/// doublings and a few B-tree nodes. 16 leaves room for a few more
/// doublings; copying one name per event would add thousands.
const ARMED_GROWTH: u64 = 16;

fn an_armed_gateway_allocates_only_to_grow_its_report() {
    let tags = roster(200);
    let cfg = loss_gateway();
    let (plain_allocs, plain) = counted_gateway(&tags, &cfg);
    let mut rec = MemRecorder::new();
    let (armed_allocs, armed) =
        counted(|| run_gateway_with(&tags, &cfg, &mut rec).expect("a valid roster"));
    assert_eq!(armed, plain, "arming a recorder changed the run");
    assert!(rec.report().spans.len() > 100, "too few spans to count");
    let budget = plain_allocs + ARMED_GROWTH;
    eprintln!(
        "armed loss roster: {armed_allocs} allocations, plain {plain_allocs}, {} spans, \
         budget {budget}",
        rec.report().spans.len()
    );
    assert!(
        armed_allocs <= budget,
        "{armed_allocs} allocations armed, over {plain_allocs} plain + {ARMED_GROWTH}"
    );
}

fn an_fec_gateway_allocates_a_handful_per_tag() {
    let tags = roster(200);
    let cfg = GatewayConfig::default()
        .with_seed(5)
        .with_fec(FecConfig::fixed(8, 2));
    let (allocs, run) = counted_gateway(&tags, &cfg);
    let identified = run.tags.len() as u64;
    assert!(identified > 150, "only {identified} of 200 tags identified");
    assert!(run.all_complete);
    let per_tag = PER_TAG + FEC_PER_TAG;
    let budget = per_tag * identified + PER_GATEWAY;
    eprintln!("fec roster: {allocs} allocations, {identified} tags, budget {budget}");
    assert!(
        allocs <= budget,
        "{allocs} allocations for {identified} tags, over {per_tag}/tag + {PER_GATEWAY}"
    );
}

/// What one group repair adds: the buffer its columns are gathered
/// into, whatever the segment size. A repair fills at least one
/// segment, so this is charged per repaired segment. Measured 1,761 on
/// the 200-tag (8, 2) loss roster with 224 segments repaired, against
/// a budget of 1,888; an allocation per codeword row would add 17 per
/// repair at the default 16-byte segments (≈46,800 when every
/// polynomial of the decode allocated).
const PER_REPAIR: u64 = 1;

fn an_fec_gateway_under_loss_allocates_per_repair_not_per_row() {
    let tags = roster(200);
    let cfg = loss_gateway().with_fec(FecConfig::fixed(8, 2));
    let (allocs, run) = counted_gateway(&tags, &cfg);
    let identified = run.tags.len() as u64;
    assert!(identified > 150, "only {identified} of 200 tags identified");
    let repairs: u64 = run.tags.iter().map(|t| t.transfer.fec_repairs).sum();
    assert!(repairs > 100, "only {repairs} segments repaired");
    let per_tag = PER_TAG + FAULTED_PER_TAG + FEC_PER_TAG;
    let budget = per_tag * identified + PER_REPAIR * repairs + PER_GATEWAY;
    eprintln!(
        "fec loss roster: {allocs} allocations, {identified} tags, {repairs} repairs, \
         budget {budget}"
    );
    assert!(
        allocs <= budget,
        "{allocs} allocations for {identified} tags and {repairs} repairs, over \
         {per_tag}/tag + {PER_REPAIR}/repair + {PER_GATEWAY}"
    );
}

/// Gateway-epochs of [`reused_loss_fleet`] beyond its first.
const REUSED_GATEWAYS: u32 = 5;

/// What one more gateway served through a shard's reused scratch may
/// allocate: the inventory, the gateway's copy of the fault plan, and
/// the epoch's own few vectors (measured 116 over 5 gateway-epochs of
/// the 200-tag `loss` fleet below, 23.2 each). 32 leaves room for a few
/// more; one buffer per served tag would add about 200, and building
/// each tag's session, link and report afresh added about 1,200.
const PER_REUSED_GATEWAY: u64 = 32;

/// A fleet-shaped run: one gateway serving 200 tags with 48-byte
/// uploads under the `loss` preset, for `epochs` epochs. Every epoch
/// is another gateway served through the shard's one scratch.
fn reused_loss_fleet(epochs: u32) -> FleetConfig {
    FleetConfig::default()
        .with_population(1, 200)
        .with_epochs(epochs)
        .with_faults(FaultPlan::preset("loss", 1.0, 17).expect("known preset"))
        .with_seed(5)
}

fn a_fleet_shard_allocates_per_gateway_not_per_tag() {
    let (first, _) = counted(|| run_fleet(&reused_loss_fleet(1), 1).expect("a valid fleet"));
    let epochs = 1 + REUSED_GATEWAYS;
    let (all, run) = counted(|| run_fleet(&reused_loss_fleet(epochs), 1).expect("a valid fleet"));
    let tag_epochs = u64::from(run.tags * epochs);
    assert!(
        run.delivered_bytes > 48 * tag_epochs / 2,
        "the fleet delivered too little to count"
    );
    let reused = all - first;
    let budget = PER_REUSED_GATEWAY * u64::from(REUSED_GATEWAYS);
    eprintln!(
        "reused fleet: {all} allocations over {epochs} gateway-epochs, {first} for the first, \
         {reused} for the {REUSED_GATEWAYS} served in reused state, budget {budget}"
    );
    assert!(
        reused <= budget,
        "{reused} allocations for {REUSED_GATEWAYS} more 200-tag gateways, over \
         {PER_REUSED_GATEWAY} each"
    );
}

fn a_browning_out_gateway_allocates_nothing_per_missed_poll() {
    // A 10 µF reservoir harvesting 5 µW against an 11 µW listen draw:
    // every tag browns out while it waits its turn, and naive polling
    // keeps polling it. A missed poll charges airtime and builds nothing.
    let supply = EnergyConfig {
        capacitor: CapacitorConfig {
            capacitance_uf: 10.0,
            ..CapacitorConfig::default()
        },
        harvest_uw: 5.0,
        policy: EnergyPolicy::SleepUntilCharged,
    };
    let tags: Vec<TagProfile> = roster(200)
        .into_iter()
        .map(|t| t.with_energy(supply))
        .collect();
    let cfg = GatewayConfig::default()
        .with_seed(5)
        .with_polling(PollingPolicy::Naive);
    let (allocs, run) = counted_gateway(&tags, &cfg);
    let identified = run.tags.len() as u64;
    assert!(identified > 150, "only {identified} of 200 tags identified");
    assert!(run.missed_polls > 0, "no tag browned out during service");
    let budget = PER_TAG * identified + PER_GATEWAY;
    eprintln!(
        "energy roster: {allocs} allocations, {identified} tags, {} missed polls, budget {budget}",
        run.missed_polls
    );
    assert!(
        allocs <= budget,
        "{allocs} allocations for {identified} tags, over {PER_TAG}/tag + {PER_GATEWAY}"
    );
}

/// Allocations per capture whatever its length and the host: the
/// traffic and MAC buffers, the scene and its table, the bundle's
/// columns (≈175 measured).
const PER_CAPTURE: u64 = 240;

/// Allocations per thread of the capture's pipeline: its spawn, its
/// scratch snapshot and two chunk buffers in flight (≈8.5 measured).
const PER_THREAD: u64 = 9;

/// Packets per allocation a capture may add as it grows: the arrival
/// streams and the MAC timeline double as they fill, and the bundle's
/// columns are sized once, so this bounds growth, not a cost per packet.
const PACKETS_PER_ALLOC: u64 = 256;

/// Allocations per RSSI capture whatever its length and the host: as
/// for [`PER_CAPTURE`], but its bundle has one column per antenna, not
/// per sub-channel. Measured 106–108 on 2 threads, so ≈89 beside the
/// pipeline's [`PER_THREAD`]; 112 leaves a quarter over that and keeps
/// the 2-thread budget at 130, under the 136 the serial RSSI loop had.
/// Nothing is allocated per packet: the sweep is the CSI capture's.
const RSSI_PER_CAPTURE: u64 = 112;

fn an_rssi_capture_allocates_nothing_per_packet() {
    for ppb in [5, 10, 30] {
        let cfg = LinkConfig::fig10(0.3, 100, ppb, 3).with_measurement(Measurement::Rssi);
        let (allocs, capture) = counted(|| capture_uplink(&cfg));
        let packets = capture.bundle.packets() as u64;
        let threads = bs_dsp::par::available_jobs() as u64;
        let budget = RSSI_PER_CAPTURE + PER_THREAD * threads + packets / PACKETS_PER_ALLOC;
        eprintln!(
            "rssi capture at {ppb} pkts/bit: {allocs} allocations, {packets} packets, \
             budget {budget}"
        );
        assert!(
            allocs <= budget,
            "{allocs} allocations for {packets} packets on {threads} threads, over budget"
        );
    }
}

fn a_capture_allocates_per_batch_not_per_packet() {
    for ppb in [5, 10, 30] {
        let cfg = LinkConfig::fig10(0.3, 100, ppb, 3);
        let (allocs, capture) = counted(|| capture_uplink(&cfg));
        let packets = capture.bundle.packets() as u64;
        let threads = bs_dsp::par::available_jobs() as u64;
        let budget = PER_CAPTURE + PER_THREAD * threads + packets / PACKETS_PER_ALLOC;
        eprintln!(
            "capture at {ppb} pkts/bit: {allocs} allocations, {packets} packets, budget {budget}"
        );
        assert!(
            allocs <= budget,
            "{allocs} allocations for {packets} packets on {threads} threads, over budget"
        );
    }
}

/// Allocations per decode of a 90-channel CSI bundle, whatever its
/// length (358 measured): one `(count, Σx, variance)` array of slot
/// statistics per channel and bit-phase class (≈180), the combined
/// series, per-candidate rankings and per-bit decision lists (≈180).
/// Conditioning allocates one prefix-sum scratch for all 90 channels,
/// the median packet gap is found once per capture, and every
/// candidate's slot means go into one reused buffer. The margin of 22
/// covers a few more candidates or grid rebuilds, not a buffer per
/// channel (90), three per channel and class (the old layout, +360) or
/// one per candidate and channel (810). DESIGN.md §"What a whole
/// exchange allocates" has the table.
const PER_DECODE: u64 = 380;

/// What a query adds to its uplink exchange: the downlink frame's
/// envelope and comparator, the session's bookkeeping and outcome.
const PER_QUERY_LEG: u64 = 64;

fn an_uplink_exchange_allocates_per_run_not_per_packet() {
    let cfg = LinkConfig::fig10(0.3, 100, 10, 3);
    let (capture_allocs, _) = counted(|| capture_uplink(&cfg));
    let (allocs, run) = counted(|| run_uplink(&cfg));
    assert!(run.detected, "the exchange found no frame");
    let packets = run.packets_used as u64;
    let threads = bs_dsp::par::available_jobs() as u64;
    let budget = PER_CAPTURE + PER_DECODE + PER_THREAD * threads + packets / PACKETS_PER_ALLOC;
    eprintln!(
        "uplink exchange: {allocs} allocations ({} beyond its capture's {capture_allocs}), \
         {packets} packets, budget {budget}",
        allocs.saturating_sub(capture_allocs)
    );
    assert!(
        allocs <= budget,
        "{allocs} allocations for {packets} packets on {threads} threads, over budget"
    );
}

fn a_query_allocates_per_exchange_not_per_packet() {
    let payload: Vec<bool> = (0..24).map(|i| (i * 11) % 4 < 2).collect();
    let mut reader = Reader::new(ReaderConfig::default(), 1);
    let (allocs, out) = counted(|| reader.query(0x07, &payload));
    let out = out.expect("a close-range query succeeds");
    assert_eq!(out.payload, payload);
    assert_eq!((out.query_attempts, out.response_attempts), (1, 1));
    let threads = bs_dsp::par::available_jobs() as u64;
    let budget = PER_CAPTURE + PER_DECODE + PER_QUERY_LEG + PER_THREAD * threads;
    eprintln!("query: {allocs} allocations, budget {budget}");
    assert!(
        allocs <= budget,
        "{allocs} allocations for one query on {threads} threads, over budget"
    );
}

/// What a capture that keeps its rows for a rate step-down adds: the
/// keep mask, the kept rows, and the tag's modulator at the step-down's
/// rate with the frame bits it is built from. Measured 6 (12 over the
/// two keeping captures below, 6 on a default query); 2 to spare, not
/// a buffer per kept row.
const PER_KEEP: u64 = 8;

/// A mitigated CSI exchange whose first decode fails, so the reader
/// re-captures it at half the chip rate (pinned in
/// `tests/exchange_pins.rs`).
fn stepped_down() -> LinkConfig {
    let mut cfg =
        LinkConfig::fig10(0.5, 200, 5, 3).with_payload((0..24).map(|b| (b * 7) % 5 < 2).collect());
    cfg.mitigations = true;
    cfg
}

/// Bytes a capture of `cfg` keeps for a re-capture at `next_cps`: one
/// row per packet whose tag state is the same at both rates, plus every
/// packet's time and keep flag. Exact for a fault-free plain capture.
fn kept_bytes(cfg: &LinkConfig, capture: &UplinkCapture, next_cps: u64) -> u64 {
    let frame = UplinkFrame::new(cfg.payload.clone());
    let at = |cps| Modulator::from_chip_rate(&frame, cps, UplinkMode::Plain, capture.start_us);
    let (now, next) = (at(cfg.chip_rate_cps), at(next_cps));
    let b = &capture.bundle;
    let kept = b
        .t_us()
        .iter()
        .filter(|&&t| now.state_at(t) == next.state_at(t));
    (kept.count() * b.channels() * 8 + b.packets() * 9) as u64
}

/// A step-down exchange allocates per capture as any exchange does,
/// plus [`PER_KEEP`] per capture that keeps rows; its heap peaks in the
/// half-rate capture, which holds the rows the first capture kept and
/// keeps its own for a quarter-rate step, so its peak may pass that
/// capture's by those rows' bytes and an eighth of its bundle only.
fn a_stepped_down_exchange_allocates_per_capture_and_peaks_within_its_kept_rows() {
    let cfg = stepped_down();
    let (allocs, run) = counted(|| run_uplink(&cfg));
    let retries = run.degradation.retries_used;
    assert!(retries >= 1, "the exchange did not step down");
    assert!(
        !run.degradation.engaged("drift-rescan"),
        "{:?}",
        run.degradation
    );
    let captures = 1 + u64::from(retries);
    let threads = bs_dsp::par::available_jobs() as u64;
    let packets = run.packets_used as u64;
    let per_capture = PER_CAPTURE + PER_DECODE + PER_KEEP + PER_THREAD * threads;
    let budget = captures * per_capture + captures * packets / PACKETS_PER_ALLOC;
    eprintln!("stepped-down exchange: {allocs} allocations, {captures} captures, budget {budget}");
    assert!(
        allocs <= budget,
        "{allocs} allocations for {captures} captures on {threads} threads, over budget"
    );

    let first = capture_uplink(&cfg);
    let mut half = cfg.clone();
    half.chip_rate_cps = cfg.chip_rate_cps / 2;
    let (capture_peak, capture) = peak_of(|| capture_uplink(&half));
    let b = &capture.bundle;
    let bundle_bytes = (b.packets() * (b.channels() + 1) * 8) as u64;
    let kept = kept_bytes(&cfg, &first, half.chip_rate_cps)
        + kept_bytes(&half, &capture, half.chip_rate_cps / 2);
    drop((first, capture));
    let (run_peak, _) = peak_of(|| run_uplink(&cfg));
    let budget = capture_peak + kept + bundle_bytes / DECODE_BUNDLE_FRACTION;
    let mb = |x: u64| x as f64 / 1e6;
    eprintln!(
        "stepped-down exchange: peak {:.2} MB, half-rate capture_uplink peak {:.2} MB, \
         kept rows {:.2} MB, bundle {:.2} MB, budget {:.2} MB",
        mb(run_peak),
        mb(capture_peak),
        mb(kept),
        mb(bundle_bytes),
        mb(budget)
    );
    assert!(
        run_peak <= budget,
        "the step-down exchange peaks at {run_peak} bytes, over its half-rate capture's \
         {capture_peak} plus {kept} bytes of kept rows and 1/{DECODE_BUNDLE_FRACTION} of \
         the {bundle_bytes}-byte bundle"
    );
}

/// The share of a capture's bundle its decode may add to the heap peak
/// of the capture: one over this. Decode conditions the bundle in place
/// and holds a few packet-length series beside it (the combined series,
/// its frame slice, the gaps behind the median) — 3 of 91 columns on a
/// CSI capture — where a conditioned copy would add the whole bundle.
const DECODE_BUNDLE_FRACTION: u64 = 8;

/// A code-20 exchange shaped like a default reader's long-range
/// fallback: 1,500 helper packets/s at the 200 bps the session selects,
/// a 24-bit payload, mitigations armed.
fn fallback_shaped() -> LinkConfig {
    let mut cfg = LinkConfig::fig10(1.3, 200, 5, 11)
        .with_code_length(20)
        .with_payload((0..24).map(|i| (i * 11) % 4 < 2).collect());
    cfg.helper_pps = 1_500.0;
    cfg.mitigations = true;
    cfg
}

fn an_uplink_exchange_peaks_within_an_eighth_bundle_of_its_capture() {
    let mut over = Vec::new();
    for (name, cfg) in [
        ("fig10 30 pkts/bit", LinkConfig::fig10(0.3, 100, 30, 3)),
        ("code-20 fallback", fallback_shaped()),
    ] {
        let (capture_peak, capture) = peak_of(|| capture_uplink(&cfg));
        let b = &capture.bundle;
        let bundle_bytes = (b.packets() * (b.channels() + 1) * 8) as u64;
        drop(capture);
        let (run_peak, run) = peak_of(|| run_uplink(&cfg));
        assert!(run.packets_used > 0, "{name}: no packets");
        let budget = capture_peak + bundle_bytes / DECODE_BUNDLE_FRACTION;
        let mb = |x: u64| x as f64 / 1e6;
        eprintln!(
            "{name}: run_uplink peak {:.2} MB, capture_uplink peak {:.2} MB, bundle {:.2} MB, \
             decode adds {:.2}x the bundle, budget {:.2} MB",
            mb(run_peak),
            mb(capture_peak),
            mb(bundle_bytes),
            run_peak.saturating_sub(capture_peak) as f64 / bundle_bytes as f64,
            mb(budget)
        );
        if run_peak > budget {
            over.push(format!(
                "{name}: run_uplink peaks at {run_peak} bytes, over its capture's \
                 {capture_peak} plus 1/{DECODE_BUNDLE_FRACTION} of the {bundle_bytes}-byte bundle"
            ));
        }
    }
    assert!(over.is_empty(), "{}", over.join("; "));
}

/// Each case paired with its name.
macro_rules! cases {
    ($($case:ident),* $(,)?) => { &[$((stringify!($case), $case as fn())),*] };
}

/// Every case, in the order [`main`] runs them.
const CASES: &[(&str, fn())] = cases![
    a_lossy_gateway_allocates_a_handful_per_tag,
    an_armed_gateway_allocates_only_to_grow_its_report,
    an_fec_gateway_allocates_a_handful_per_tag,
    an_fec_gateway_under_loss_allocates_per_repair_not_per_row,
    a_browning_out_gateway_allocates_nothing_per_missed_poll,
    a_fleet_shard_allocates_per_gateway_not_per_tag,
    an_rssi_capture_allocates_nothing_per_packet,
    a_capture_allocates_per_batch_not_per_packet,
    an_uplink_exchange_allocates_per_run_not_per_packet,
    an_uplink_exchange_peaks_within_an_eighth_bundle_of_its_capture,
    a_stepped_down_exchange_allocates_per_capture_and_peaks_within_its_kept_rows,
    a_query_allocates_per_exchange_not_per_packet,
];

/// Runs the selected cases in turn and reports them as libtest would;
/// fails if any case panicked.
fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (mut filters, mut exact, mut list, mut json) = (Vec::new(), false, false, false);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--exact" => exact = true,
            "--list" => list = true,
            "--format=json" => json = true,
            "--format" => json = args.next().as_deref() == Some("json"),
            "--test-threads" | "--color" | "-Z" | "--skip" => drop(args.next()),
            _ if arg.starts_with('-') => {}
            _ => filters.push(arg),
        }
    }
    let wanted = |name: &str| {
        let hit = |f: &String| name == f || !exact && name.contains(f.as_str());
        filters.is_empty() || filters.iter().any(hit)
    };
    let selected: Vec<_> = CASES.iter().filter(|(name, _)| wanted(name)).collect();
    if list {
        for (name, _) in &selected {
            println!("{name}: test");
        }
        return ExitCode::SUCCESS;
    }
    let n = selected.len();
    if json {
        println!(r#"{{ "type": "suite", "event": "started", "test_count": {n} }}"#);
    } else {
        println!("\nrunning {n} tests");
    }
    let began = Instant::now();
    let mut failed = 0;
    for &&(name, case) in &selected {
        let ok = catch_unwind(AssertUnwindSafe(case)).is_ok();
        failed += usize::from(!ok);
        if json {
            let event = if ok { "ok" } else { "failed" };
            println!(r#"{{ "type": "test", "name": "{name}", "event": "{event}" }}"#);
        } else {
            println!("test {name} ... {}", if ok { "ok" } else { "FAILED" });
        }
    }
    let secs = began.elapsed().as_secs_f64();
    let (passed, filtered) = (n - failed, CASES.len() - n);
    if json {
        let event = if failed == 0 { "ok" } else { "failed" };
        println!(
            r#"{{ "type": "suite", "event": "{event}", "passed": {passed}, "failed": {failed}, "ignored": 0, "measured": 0, "filtered_out": {filtered}, "exec_time": {secs} }}"#
        );
    } else {
        println!(
            "\ntest result: {}. {passed} passed; {failed} failed; 0 ignored; 0 measured; \
             {filtered} filtered out; finished in {secs:.2}s\n",
            if failed == 0 { "ok" } else { "FAILED" }
        );
    }
    ExitCode::from(u8::from(failed > 0))
}
