//! Heap-allocation budgets of one gateway run and one uplink capture.
//!
//! Serving a tag for one epoch (one tag-epoch) allocates a fixed handful
//! of buffers — DESIGN.md §"What a tag-epoch allocates" lists them —
//! and nothing per ARQ round. A capture allocates per run and per batch
//! of packets in flight, never per packet — DESIGN.md §"What a capture
//! allocates". This test counts every allocation a call makes, on every
//! thread, with this binary's own counting allocator, and holds a
//! gateway run to [`PER_TAG`] per identified tag plus [`PER_GATEWAY`],
//! and a capture to [`PER_CAPTURE`] plus [`PER_THREAD`] per thread plus
//! one per [`PACKETS_PER_ALLOC`] packets; an RSSI capture makes one
//! report per packet and nothing else per packet. So `cargo test` catches allocations creeping back into a
//! per-tag or per-packet path, not only the `fleet_micro` smoke bench.

use bs_channel::faults::FaultPlan;
use bs_net::fec::FecConfig;
use bs_net::gateway::{run_gateway, GatewayConfig, GatewayRun, PollingPolicy, TagProfile};
use bs_tag::energy::{CapacitorConfig, EnergyConfig, EnergyPolicy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use wifi_backscatter::link::{capture_uplink, LinkConfig, Measurement};

/// Heap allocations (alloc, alloc_zeroed, realloc) made by any thread
/// of this binary. The count publishes no other data, so `Relaxed`
/// suffices; a reading after the counted call has joined its threads
/// sees theirs.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Held by each test from its first line to its last, so no other test
/// of this binary allocates while one counts. The harness's own thread
/// can still add a few (it reports a finished test and starts the next);
/// the budgets leave room for that, ≈12 at most in repeated runs.
static ALONE: Mutex<()> = Mutex::new(());

/// Takes [`ALONE`]; a test that failed while holding it leaves nothing
/// the others rely on.
fn alone() -> MutexGuard<'static, ()> {
    ALONE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The system allocator, counting each allocation.
struct CountingAlloc;

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a static atomic, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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

#[test]
fn a_lossy_gateway_allocates_a_handful_per_tag() {
    let _alone = alone();
    let tags = roster(200);
    let cfg = GatewayConfig::default()
        .with_faults(FaultPlan::preset("loss", 1.0, 17).expect("known preset"))
        .with_seed(5);
    let (allocs, run) = counted_gateway(&tags, &cfg);
    let identified = run.tags.len() as u64;
    assert!(identified > 150, "only {identified} of 200 tags identified");
    assert!(run.tags.iter().any(|t| t.transfer.retransmissions > 0));
    let per_tag = PER_TAG + FAULTED_PER_TAG;
    let budget = per_tag * identified + PER_GATEWAY;
    println!("loss roster: {allocs} allocations, {identified} tags, budget {budget}");
    assert!(
        allocs <= budget,
        "{allocs} allocations for {identified} tags, over {per_tag}/tag + {PER_GATEWAY}"
    );
}

#[test]
fn an_fec_gateway_allocates_a_handful_per_tag() {
    let _alone = alone();
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
    println!("fec roster: {allocs} allocations, {identified} tags, budget {budget}");
    assert!(
        allocs <= budget,
        "{allocs} allocations for {identified} tags, over {per_tag}/tag + {PER_GATEWAY}"
    );
}

#[test]
fn a_browning_out_gateway_allocates_nothing_per_missed_poll() {
    let _alone = alone();
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
    println!(
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

/// Allocations per RSSI capture whatever its length: as for
/// [`PER_CAPTURE`] but with no pipeline, so no thread or chunk buffers
/// (≈72 measured), with the same headroom.
const RSSI_PER_CAPTURE: u64 = 136;

/// Allocations per packet of an RSSI capture: each measurement's own
/// per-antenna buffer (the channel is filled into one reused snapshot).
const RSSI_PER_PACKET: u64 = 1;

#[test]
fn an_rssi_capture_allocates_one_report_per_packet() {
    let _alone = alone();
    for ppb in [5, 10, 30] {
        let cfg = LinkConfig::fig10(0.3, 100, ppb, 3).with_measurement(Measurement::Rssi);
        let (allocs, capture) = counted(|| capture_uplink(&cfg));
        let packets = capture.bundle.packets() as u64;
        let budget = RSSI_PER_CAPTURE + RSSI_PER_PACKET * packets + packets / PACKETS_PER_ALLOC;
        println!(
            "rssi capture at {ppb} pkts/bit: {allocs} allocations, {packets} packets, \
             budget {budget}"
        );
        assert!(
            allocs <= budget,
            "{allocs} allocations for {packets} packets, over budget"
        );
    }
}

#[test]
fn a_capture_allocates_per_batch_not_per_packet() {
    let _alone = alone();
    for ppb in [5, 10, 30] {
        let cfg = LinkConfig::fig10(0.3, 100, ppb, 3);
        let (allocs, capture) = counted(|| capture_uplink(&cfg));
        let packets = capture.bundle.packets() as u64;
        let threads = bs_dsp::par::available_jobs() as u64;
        let budget = PER_CAPTURE + PER_THREAD * threads + packets / PACKETS_PER_ALLOC;
        println!(
            "capture at {ppb} pkts/bit: {allocs} allocations, {packets} packets, budget {budget}"
        );
        assert!(
            allocs <= budget,
            "{allocs} allocations for {packets} packets on {threads} threads, over budget"
        );
    }
}
