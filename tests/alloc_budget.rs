//! Heap-allocation budget of one gateway run.
//!
//! Serving a tag for one epoch (one tag-epoch) allocates a fixed handful
//! of buffers — DESIGN.md §"What a tag-epoch allocates" lists them —
//! and nothing per ARQ round. This test counts every allocation one
//! `run_gateway` makes, with this binary's own counting allocator, and
//! holds it to [`PER_TAG`] per identified tag plus [`PER_GATEWAY`]. So
//! `cargo test` catches allocations creeping back into the per-tag
//! path, not only the `fleet_micro` smoke bench.

use bs_channel::faults::FaultPlan;
use bs_net::fec::FecConfig;
use bs_net::gateway::{run_gateway, GatewayConfig, GatewayRun, PollingPolicy, TagProfile};
use bs_tag::energy::{CapacitorConfig, EnergyConfig, EnergyPolicy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap allocations (alloc, alloc_zeroed, realloc) made by this
    /// thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation on the calling thread.
struct CountingAlloc;

fn count() {
    // `try_with`: the thread-local is gone while a thread exits; such
    // allocations go uncounted rather than abort.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialised thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

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

/// Allocations `run_gateway(tags, cfg)` makes on this thread, and its run.
fn counted(tags: &[TagProfile], cfg: &GatewayConfig) -> (u64, GatewayRun) {
    let before = ALLOCS.with(Cell::get);
    let run = run_gateway(tags, cfg).expect("a valid roster");
    (ALLOCS.with(Cell::get) - before, run)
}

#[test]
fn a_lossy_gateway_allocates_a_handful_per_tag() {
    let tags = roster(200);
    let cfg = GatewayConfig::default()
        .with_faults(FaultPlan::preset("loss", 1.0, 17).expect("known preset"))
        .with_seed(5);
    let (allocs, run) = counted(&tags, &cfg);
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
    let tags = roster(200);
    let cfg = GatewayConfig::default()
        .with_seed(5)
        .with_fec(FecConfig::fixed(8, 2));
    let (allocs, run) = counted(&tags, &cfg);
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
    let (allocs, run) = counted(&tags, &cfg);
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
