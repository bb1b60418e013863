//! `fleet` workload: the 10⁵-tag point (500 gateways × 200 tags, two
//! epochs) through `bs_net::fleet::run_fleet`, and a replay of the
//! gateway layer on fleet-shaped rosters.

use crate::pinned;
use crate::report::{
    closed_loop, host_cores, quantile, secs, Calibration, Check, Digests, OpOutput, Report,
    SETUP_REPS,
};
use bs_bench::experiments::fleet::fleet_config;
use bs_channel::faults::FaultPlan;
use bs_dsp::obs::{MemRecorder, NullRecorder};
use bs_dsp::SimRng;
use bs_net::arq::{run_transfer, TransportConfig, TransportSession};
use bs_net::fleet::{run_fleet, FleetConfig};
use bs_net::gateway::{run_gateway_with, GatewayConfig, TagProfile};
use bs_net::linkmodel::{SegmentLink, SimLink};
use std::time::Instant;
use wifi_backscatter::multitag::{run_inventory, InventoryTag};

const GATEWAYS: usize = 500;
const TAGS_PER_GATEWAY: usize = 200;
/// The fleet's per-tag upload per epoch (bytes).
const MESSAGE_BYTES: usize = 48;

fn config(seed: u64) -> FleetConfig {
    fleet_config(GATEWAYS, TAGS_PER_GATEWAY, seed)
}

/// Untraced closed loop of fleet points at jobs = host cores. Set-up
/// builds the config and runs a 10⁴-tag warm-up point, five times over.
pub fn measure(seed: u64, seconds: f64) -> Report {
    let jobs = host_cores();
    let mut setup_s = Vec::new();
    let mut cfg = config(seed);
    let mut cal = Calibration::off();
    for _ in 0..SETUP_REPS {
        cal.sample();
        let t = Instant::now();
        cfg = config(seed);
        let warm = fleet_config(GATEWAYS / 10, TAGS_PER_GATEWAY, seed);
        std::hint::black_box(run_fleet(&warm, jobs).expect("the warm-up point is valid"));
        setup_s.push(secs(t));
    }
    let mut digests = Digests::new(seed, pinned::FLEET, 1);
    let log = closed_loop(seconds, 1, 1, &mut digests, &mut cal, |_| {
        let run = run_fleet(&cfg, jobs).expect("the 10^5-tag point is valid");
        OpOutput {
            digest: run.digest,
            sim_us: run.airtime_us,
        }
    });
    let mut r = Report::new();
    r.end_to_end(&setup_s, &log, &digests, &cal);
    r.info("jobs", jobs.to_string());
    r.info("epochs", cfg.epochs.to_string());
    r
}

/// A roster shaped like one fleet gateway's: 200 tags, 48 B uploads,
/// helper 1200–3600 pps, the fleet's loss floor raised by a seed-drawn
/// interference share.
fn roster(rng: &mut SimRng) -> (Vec<TagProfile>, GatewayConfig) {
    let profiles = (0..TAGS_PER_GATEWAY)
        .map(|i| {
            let mut msg = vec![0u8; MESSAGE_BYTES];
            rng.fill_bytes(&mut msg);
            TagProfile::new((i + 1) as u8, msg).with_helper_pps(rng.uniform_range(1_200.0, 3_600.0))
        })
        .collect();
    let severity = rng.uniform_range(0.2, 0.5);
    let faults = FaultPlan::preset("loss", severity, rng.next_u64()).expect("known preset");
    let gcfg = GatewayConfig::default()
        .with_faults(faults)
        .with_seed(rng.next_u64());
    (profiles, gcfg)
}

/// Host time of one replayed gateway, split by the calls it is made of.
#[derive(Default)]
struct GatewayTrace {
    run_ns: u128,
    recorded_ns: u128,
    inventory_ns: u128,
    slots: u64,
    collisions: u64,
    identified: u64,
    setup_ns: u128,
    transfer_ns: u128,
    segments_sent: u64,
    segments_delivered: u64,
}

/// Runs the gateway whole (plain and with a `MemRecorder`), then
/// replays its phases through their public calls with the gateway's own
/// seed derivation. The replayed inventory must equal the gateway's.
fn trace_gateway(profiles: &[TagProfile], gcfg: &GatewayConfig, tr: &mut GatewayTrace) -> Check {
    let t = Instant::now();
    let run = run_gateway_with(profiles, gcfg, &mut NullRecorder).expect("addresses are unique");
    tr.run_ns += t.elapsed().as_nanos();
    let mut rec = MemRecorder::new();
    let t = Instant::now();
    std::hint::black_box(run_gateway_with(profiles, gcfg, &mut rec).expect("addresses are unique"));
    tr.recorded_ns += t.elapsed().as_nanos();

    let root = SimRng::new(gcfg.seed);
    let inv_tags: Vec<InventoryTag> = profiles
        .iter()
        .map(|p| InventoryTag::new(p.address))
        .collect();
    let mut inv_rng = root.stream("gateway-inventory");
    let t = Instant::now();
    let inventory = run_inventory(&inv_tags, gcfg.inventory, &mut inv_rng);
    tr.inventory_ns += t.elapsed().as_nanos();
    tr.slots += inventory.slots;
    tr.collisions += inventory.collisions;
    tr.identified += inventory.identified.len() as u64;

    let caps = gcfg.phy.capabilities();
    let clock_us = inventory.airtime_us(gcfg.slot_us);
    for (i, &addr) in inventory.identified.iter().enumerate() {
        let profile = profiles
            .iter()
            .find(|p| p.address == addr)
            .expect("inventory identifies roster tags");
        let tcfg = TransportConfig {
            tag_address: addr,
            msg_id: addr,
            seed: root.stream("gateway-transport").substream(i as u64).seed(),
            ..gcfg.transport.clone()
        };
        let t = Instant::now();
        std::hint::black_box(TransportSession::new(&profile.message, tcfg.clone()));
        tr.setup_ns += t.elapsed().as_nanos();
        let mut link = SimLink::new(
            gcfg.faults.clone(),
            root.stream("gateway-link").substream(i as u64).seed(),
        );
        link.set_chip_rate_bps(caps.select_rate_bps(
            profile.helper_pps,
            gcfg.pkts_per_bit,
            gcfg.rate_margin,
        ));
        link.advance_us(clock_us);
        let t = Instant::now();
        let transfer = run_transfer(&profile.message, tcfg, &mut link);
        tr.transfer_ns += t.elapsed().as_nanos();
        tr.segments_sent += transfer.segments_sent;
        if transfer.complete {
            tr.segments_delivered += u64::from(transfer.segments_total);
        }
    }
    if inventory == run.inventory {
        Check::Pass
    } else {
        Check::Fail("replayed inventory differs from run_gateway's".into())
    }
}

/// Traced fleet: `run_fleet` at jobs = 1 and jobs = host cores in
/// alternating order (for `seconds` when `primary`, else one pair),
/// then the gateway replay on 16 rosters (4 when not `primary`). Every
/// run's `to_json()` must be byte-identical.
pub fn trace(seed: u64, seconds: f64, primary: bool, r: &mut Report) {
    let jobs = host_cores();
    let cfg = config(seed);
    let mut digests = Digests::new(seed, pinned::FLEET, 1);
    let (mut j1_ms, mut jn_ms) = (Vec::new(), Vec::new());
    let mut json: Option<String> = None;
    let mut jobs_identity = Check::Skipped("one fleet run".into());
    let (mut handoffs, mut denied) = (0u64, 0u64);
    let mut failed = 0u64;
    let mut fleet_runs = 0u64;
    let start = Instant::now();
    let mut pair = 0;
    while pair == 0 || (primary && secs(start) < seconds) {
        let order = match (jobs, pair % 2) {
            (1, _) => vec![1],
            (_, 0) => vec![1, jobs],
            _ => vec![jobs, 1],
        };
        for j in order {
            let t = Instant::now();
            let run = run_fleet(&cfg, j).expect("the 10^5-tag point is valid");
            fleet_runs += 1;
            let ms = secs(t) * 1e3;
            if j == 1 {
                j1_ms.push(ms);
            }
            if j == jobs {
                jn_ms.push(ms);
            }
            let ok = digests.record(0, run.digest);
            let js = run.to_json();
            let c = match &json {
                None => {
                    json = Some(js);
                    Check::Skipped("one fleet run".into())
                }
                Some(first) if *first == js => Check::Pass,
                Some(_) => Check::Fail(format!("to_json at jobs={j} differs")),
            };
            failed += u64::from(!ok || matches!(c, Check::Fail(_)));
            jobs_identity = std::mem::replace(&mut jobs_identity, Check::Pass).and(c);
            handoffs = run.handoffs;
            denied = run.handoffs_denied;
        }
        pair += 1;
    }
    if jobs == 1 && !matches!(jobs_identity, Check::Fail(_)) {
        jobs_identity = Check::Skipped("one core: no run at jobs > 1 to compare".into());
    }

    let mut rng = SimRng::new(seed).stream("perfbench.fleet-rosters");
    let mut tr = GatewayTrace::default();
    let mut inv_identity = Check::Skipped("no roster replayed".into());
    let rosters = if primary { 16 } else { 4 };
    for _ in 0..rosters {
        let (profiles, gcfg) = roster(&mut rng);
        let c = trace_gateway(&profiles, &gcfg, &mut tr);
        failed += u64::from(c != Check::Pass);
        inv_identity = std::mem::replace(&mut inv_identity, Check::Pass).and(c);
    }

    let g = rosters as f64;
    let run_ms = tr.run_ns as f64 / g / 1e6;
    let children_ms = (tr.inventory_ns + tr.setup_ns + tr.transfer_ns) as f64 / g / 1e6;
    let j1 = quantile(&j1_ms, 0.5);
    let jn = quantile(&jn_ms, 0.5);
    r.attempted += fleet_runs + rosters;
    r.failed += failed;
    r.metric("fleet.run_ms_j1", j1, "ms");
    r.metric("fleet.run_ms_jn", jn, "ms");
    r.metric(
        "fleet.parallel_efficiency",
        j1 / (jn * jobs as f64),
        "ratio",
    );
    r.metric("fleet.handoffs", handoffs as f64, "count");
    r.metric("fleet.handoffs_denied", denied as f64, "count");
    r.metric(
        "core.multitag.inventory_ms",
        tr.inventory_ns as f64 / g / 1e6,
        "ms",
    );
    r.metric("core.multitag.slots", tr.slots as f64 / g, "count");
    r.metric(
        "core.multitag.collisions",
        tr.collisions as f64 / g,
        "count",
    );
    r.metric(
        "core.multitag.identified_per_slot",
        tr.identified as f64 / tr.slots as f64,
        "ratio",
    );
    r.metric("net.arq.setup_us", tr.setup_ns as f64 / g / 1e3, "us");
    r.metric("net.arq.transfer_ms", tr.transfer_ns as f64 / g / 1e6, "ms");
    r.metric(
        "net.arq.segments_sent",
        tr.segments_sent as f64 / g,
        "count",
    );
    r.metric(
        "net.arq.delivered_per_sent",
        tr.segments_delivered as f64 / tr.segments_sent as f64,
        "ratio",
    );
    r.metric("net.gateway.run_ms", run_ms, "ms");
    r.metric("net.gateway.self_ms", run_ms - children_ms, "ms");
    r.metric(
        "fleet.gateway_replay_share",
        run_ms * GATEWAYS as f64 * f64::from(cfg.epochs) / j1,
        "ratio",
    );
    if primary {
        r.metric(
            "trace.overhead_frac",
            tr.recorded_ns as f64 / tr.run_ns as f64 - 1.0,
            "ratio",
        );
        r.info("op_digests", digests.seen_json());
    }
    r.check("pinned_digests", digests.pinned_check.clone());
    r.check("repeat_identity", digests.repeat_check.clone());
    r.check("fleet_jobs_identity", jobs_identity);
    r.check("gateway_inventory_identity", inv_identity);
    r.info("fleet_runs_j1", j1_ms.len().to_string());
    r.info("fleet_runs_jn", jn_ms.len().to_string());
    r.info("gateway_rosters_traced", rosters.to_string());
}
