//! `uplink` workload: fault-free Fig. 10 exchanges through
//! `wifi_backscatter::phy::run_uplink`, and their outside-in replay.

use crate::pinned;
use crate::report::{
    closed_loop, secs, shuffle, Calibration, Check, Digests, Fnv, OpOutput, Report, SETUP_REPS,
};
use bs_channel::faults::FaultEvents;
use bs_channel::scene::Scene;
use bs_dsp::obs::NullRecorder;
use bs_dsp::SimRng;
use bs_tag::frame::UplinkFrame;
use bs_tag::modulator::{Modulator, UplinkMode};
use bs_wifi::csi::CsiConfig;
use bs_wifi::mac::{Medium, Station};
use bs_wifi::ofdm::csi_subchannel_offsets;
use bs_wifi::{CsiExtractor, RssiExtractor};
use std::time::Instant;
use wifi_backscatter::link::{capture_uplink, Measurement, UplinkRun};
use wifi_backscatter::uplink::{UplinkDecoder, UplinkDecoderConfig};
use wifi_backscatter::{phy, LinkConfig, SeriesBundle};

/// Bit rate of every exchange (bps).
const BIT_RATE_BPS: u64 = 100;

/// One block's composition per packets-per-bit class: (pkts/bit, CSI
/// exchanges, RSSI exchanges). Every block holds these counts, so any
/// run, however many blocks it reaches, keeps the median inside the
/// 10-pkts/bit CSI group and the p90 inside the 30-pkts/bit CSI group.
const CLASSES: [(u32, usize, usize); 3] = [(5, 4, 2), (10, 6, 2), (30, 5, 1)];

/// Blocks per schedule: about as many exchanges as one 30 s run makes.
const BLOCKS: usize = 8;

/// The capture's conditioning lead, where the tag's frame starts (µs).
const LEAD_US: u64 = 600_000;

/// The seed's exchange schedule: blocks of the class composition, each
/// class entry at a stratified distance in 0.1–0.65 m with a seed-drawn
/// payload and channel seed, each block in seed-shuffled order.
pub fn schedule(seed: u64) -> Vec<LinkConfig> {
    let mut rng = SimRng::new(seed).stream("perfbench.uplink");
    let mut out = Vec::new();
    for _ in 0..BLOCKS {
        let mut block = Vec::new();
        for &(ppb, csi, rssi) in &CLASSES {
            let n = csi + rssi;
            let mut kinds: Vec<Measurement> = (0..n)
                .map(|i| {
                    if i < csi {
                        Measurement::Csi
                    } else {
                        Measurement::Rssi
                    }
                })
                .collect();
            shuffle(&mut kinds, &mut rng);
            for (i, kind) in kinds.into_iter().enumerate() {
                let distance_m = 0.1 + 0.55 * (i as f64 + rng.uniform()) / n as f64;
                let payload: Vec<bool> = (0..90).map(|_| rng.chance(0.5)).collect();
                block.push(
                    LinkConfig::fig10(distance_m, BIT_RATE_BPS, ppb, rng.next_u64())
                        .with_payload(payload)
                        .with_measurement(kind),
                );
            }
        }
        shuffle(&mut block, &mut rng);
        out.extend(block);
    }
    out
}

fn digest(run: &UplinkRun) -> u64 {
    let bits: Vec<u8> = run
        .decoded
        .iter()
        .map(|b| match b {
            None => 2,
            Some(false) => 0,
            Some(true) => 1,
        })
        .collect();
    Fnv::new()
        .bytes(&bits)
        .u64(run.ber.errors())
        .u64(run.ber.bits())
        .u64(u64::from(run.detected))
        .u64(run.packets_used as u64)
        .u64(run.elapsed_us)
        .finish()
}

/// Index of the first 10-pkts/bit CSI entry: the fixed-shape warm-up op.
fn warm_up_entry(sched: &[LinkConfig]) -> usize {
    sched
        .iter()
        .position(|c| {
            c.helper_pps == (10 * BIT_RATE_BPS) as f64 && c.measurement == Measurement::Csi
        })
        .expect("the schedule holds 10-pkts/bit CSI entries")
}

/// Untraced closed loop of exchanges. Set-up builds the schedule and
/// runs the warm-up exchange, five times over.
pub fn measure(seed: u64, seconds: f64) -> Report {
    let mut setup_s = Vec::new();
    let mut sched = schedule(seed);
    let mut digests = Digests::new(seed, pinned::UPLINK, sched.len());
    let mut cal = Calibration::new();
    for _ in 0..SETUP_REPS {
        cal.sample();
        let t = Instant::now();
        sched = schedule(seed);
        let w = warm_up_entry(&sched);
        let d = digest(&phy::run_uplink(&sched[w]));
        setup_s.push(secs(t));
        digests.record(w, d);
    }
    let log = closed_loop(
        seconds,
        sched.len() / BLOCKS,
        sched.len(),
        &mut digests,
        &mut cal,
        |i| {
            let run = phy::run_uplink(&sched[i % sched.len()]);
            OpOutput {
                digest: digest(&run),
                sim_us: run.elapsed_us,
            }
        },
    );
    let mut r = Report::new();
    r.end_to_end(&setup_s, &log, &digests, &cal);
    r.info("schedule_len", sched.len().to_string());
    r
}

/// Host time per layer of one replayed exchange (ns) plus its counts.
#[derive(Default)]
struct ExchangeTrace {
    plain_ns: u64,
    capture_ns: u64,
    replay_ns: u64,
    mac_ns: u64,
    transmissions: u64,
    scene_new_ns: u64,
    snapshot_ns: u64,
    snapshot_calls: u64,
    csi_ns: u64,
    csi_calls: u64,
    rssi_ns: u64,
    rssi_calls: u64,
    series_ns: u64,
    decode_ns: u64,
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Rebuilds `capture_uplink(cfg).bundle` from the public calls it is
/// made of, timing each call. Valid for the fault-free plain-mode
/// configs this workload draws.
fn replay_capture(cfg: &LinkConfig, tr: &mut ExchangeTrace) -> SeriesBundle {
    let root = SimRng::new(cfg.seed);
    let frame = UplinkFrame::new(cfg.payload.clone());
    let chip_us = 1_000_000 / cfg.chip_rate_cps.max(1);
    let frame_span_us = frame.to_bits().len() as u64 * chip_us;
    let duration_us = LEAD_US + frame_span_us + LEAD_US;

    let t = Instant::now();
    let mut traffic_rng = root.stream("helper-traffic");
    let mut events = FaultEvents::default();
    let arrivals = bs_wifi::traffic::apply_faults_with(
        bs_wifi::traffic::cbr(cfg.helper_pps, duration_us, &mut traffic_rng),
        &cfg.faults,
        "helper",
        &mut events,
        &mut NullRecorder,
    );
    let stations = vec![Station::data(arrivals, 1000, 54.0)];
    let mut medium = Medium::new(Default::default(), root.stream("mac"));
    let (timeline, _) = medium.simulate(&stations, duration_us);
    tr.mac_ns += ns(t);
    tr.transmissions += timeline.len() as u64;
    let packets: Vec<_> = timeline
        .iter()
        .filter(|t| !t.collided && t.frame.src == 0)
        .map(|t| t.frame)
        .collect();

    let modulator =
        Modulator::from_chip_rate(&frame, cfg.chip_rate_cps, UplinkMode::Plain, LEAD_US);
    let t = Instant::now();
    let mut scene = Scene::new(cfg.scene.clone(), &root.stream("scene"));
    tr.scene_new_ns += ns(t);
    let offsets = csi_subchannel_offsets();
    match cfg.measurement {
        Measurement::Csi => {
            let mut csi_cfg = CsiConfig::default();
            csi_cfg.spurious_jump_prob *= cfg.csi_spurious_boost;
            let mut ex = CsiExtractor::new(csi_cfg, root.stream("csi"));
            let mut ms = Vec::with_capacity(packets.len());
            for p in &packets {
                let state = modulator.state_at(p.timestamp_us);
                let t = Instant::now();
                let snap = scene.snapshot(p.timestamp_us as f64 / 1e6, state, &offsets);
                tr.snapshot_ns += ns(t);
                let t = Instant::now();
                ms.push(ex.measure(&snap, p.timestamp_us));
                tr.csi_ns += ns(t);
            }
            tr.snapshot_calls += packets.len() as u64;
            tr.csi_calls += packets.len() as u64;
            let t = Instant::now();
            let bundle = SeriesBundle::from_csi(&ms);
            tr.series_ns += ns(t);
            bundle
        }
        Measurement::Rssi => {
            let mut ex = RssiExtractor::new(root.stream("rssi"));
            let mut ms = Vec::with_capacity(packets.len());
            for p in &packets {
                let state = modulator.state_at(p.timestamp_us);
                let t = Instant::now();
                let snap = scene.snapshot(p.timestamp_us as f64 / 1e6, state, &offsets);
                tr.snapshot_ns += ns(t);
                let t = Instant::now();
                ms.push(ex.measure(&snap, p.timestamp_us));
                tr.rssi_ns += ns(t);
            }
            tr.snapshot_calls += packets.len() as u64;
            tr.rssi_calls += packets.len() as u64;
            let t = Instant::now();
            let bundle = SeriesBundle::from_rssi(&ms);
            tr.series_ns += ns(t);
            bundle
        }
    }
}

fn decode(cfg: &LinkConfig, bundle: &SeriesBundle) -> Vec<Option<bool>> {
    let dcfg = match cfg.measurement {
        Measurement::Csi => UplinkDecoderConfig::csi(cfg.chip_rate_cps, cfg.payload.len()),
        Measurement::Rssi => UplinkDecoderConfig::rssi(cfg.chip_rate_cps, cfg.payload.len()),
    };
    match UplinkDecoder::new(dcfg).decode(bundle, LEAD_US) {
        Some(out) => out.bits,
        None => vec![None; cfg.payload.len()],
    }
}

/// One exchange, three ways: `run_uplink` untraced, `capture_uplink`
/// timed whole, and the replay timed per call. The replay must rebuild
/// the capture's bundle bit for bit and decode `run_uplink`'s bits.
fn trace_exchange(cfg: &LinkConfig, tr: &mut ExchangeTrace) -> (u64, Check) {
    let t = Instant::now();
    let plain = phy::run_uplink(cfg);
    tr.plain_ns += ns(t);
    let t = Instant::now();
    let capture = capture_uplink(cfg);
    tr.capture_ns += ns(t);
    let t = Instant::now();
    let bundle = replay_capture(cfg, tr);
    tr.replay_ns += ns(t);
    let t = Instant::now();
    let bits = decode(cfg, &bundle);
    tr.decode_ns += ns(t);
    let check = if bundle != capture.bundle {
        Check::Fail("replayed bundle differs from capture_uplink".into())
    } else if bits != plain.decoded {
        Check::Fail("replayed decode differs from run_uplink".into())
    } else {
        Check::Pass
    };
    (digest(&plain), check)
}

/// Traced replay of the seed's exchanges: whole blocks in schedule order
/// for `seconds` when `primary`, else one CSI and one RSSI exchange.
pub fn trace(seed: u64, seconds: f64, primary: bool, r: &mut Report) {
    let sched = schedule(seed);
    let mut digests = Digests::new(seed, pinned::UPLINK, sched.len());
    let first_rssi = sched
        .iter()
        .position(|c| c.measurement == Measurement::Rssi)
        .expect("the schedule holds RSSI entries");
    let first_csi = sched
        .iter()
        .position(|c| c.measurement == Measurement::Csi)
        .expect("the schedule holds CSI entries");
    let mut tr = ExchangeTrace::default();
    let mut identity = Check::Skipped("no exchange replayed".into());
    let mut exchanges = 0u64;
    let mut failed = 0u64;
    let mut run_one = |i: usize, tr: &mut ExchangeTrace| {
        let (d, c) = trace_exchange(&sched[i], tr);
        let ok = digests.record(i, d) && c == Check::Pass;
        identity = std::mem::replace(&mut identity, Check::Pass).and(c);
        exchanges += 1;
        failed += u64::from(!ok);
    };
    if primary {
        let block = sched.len() / BLOCKS;
        let start = Instant::now();
        let mut i = 0usize;
        while i == 0 || !i.is_multiple_of(block) || secs(start) < seconds {
            run_one(i % sched.len(), &mut tr);
            i += 1;
        }
    } else {
        run_one(first_csi, &mut tr);
        run_one(first_rssi, &mut tr);
    }
    let n = exchanges as f64;
    let children =
        tr.mac_ns + tr.scene_new_ns + tr.snapshot_ns + tr.csi_ns + tr.rssi_ns + tr.series_ns;
    r.attempted += exchanges;
    r.failed += failed;
    r.metric("wifi.mac.ms", tr.mac_ns as f64 / n / 1e6, "ms");
    r.metric(
        "wifi.mac.transmissions",
        tr.transmissions as f64 / n,
        "count",
    );
    r.metric(
        "channel.scene_new.us",
        tr.scene_new_ns as f64 / n / 1e3,
        "us",
    );
    r.metric(
        "channel.snapshot.ns",
        tr.snapshot_ns as f64 / tr.snapshot_calls as f64,
        "ns",
    );
    r.metric(
        "channel.snapshot.calls",
        tr.snapshot_calls as f64 / n,
        "count",
    );
    r.metric(
        "channel.snapshot.share",
        tr.snapshot_ns as f64 / tr.capture_ns as f64,
        "ratio",
    );
    r.metric("wifi.csi.ns", tr.csi_ns as f64 / tr.csi_calls as f64, "ns");
    r.metric(
        "wifi.rssi.ns",
        tr.rssi_ns as f64 / tr.rssi_calls as f64,
        "ns",
    );
    r.metric(
        "wifi.csi.share",
        tr.csi_ns as f64 / tr.capture_ns as f64,
        "ratio",
    );
    r.metric("core.series.ms", tr.series_ns as f64 / n / 1e6, "ms");
    r.metric("core.link.capture_ms", tr.capture_ns as f64 / n / 1e6, "ms");
    r.metric(
        "core.link.self_ms",
        (tr.capture_ns as f64 - children as f64) / n / 1e6,
        "ms",
    );
    r.metric("core.uplink.decode_ms", tr.decode_ns as f64 / n / 1e6, "ms");
    r.metric(
        "core.uplink.decode_share",
        tr.decode_ns as f64 / (tr.capture_ns + tr.decode_ns) as f64,
        "ratio",
    );
    if primary {
        r.metric(
            "trace.overhead_frac",
            (tr.replay_ns + tr.decode_ns) as f64 / tr.plain_ns as f64 - 1.0,
            "ratio",
        );
        r.info("op_digests", digests.seen_json());
    }
    r.check("pinned_digests", digests.pinned_check.clone());
    r.check("repeat_identity", digests.repeat_check.clone());
    r.check("uplink_replay_identity", identity);
    r.info("uplink_exchanges_traced", exchanges.to_string());
}
