//! `query` workload: one fresh `wifi_backscatter::Reader` per
//! `Reader::query` session, under seed-drawn fault presets.

use crate::pinned;
use crate::report::{
    closed_loop, secs, shuffle, Calibration, Check, Digests, Fnv, OpOutput, Report, SETUP_REPS,
};
use bs_channel::faults::FaultPlan;
use bs_dsp::obs::MemRecorder;
use bs_dsp::SimRng;
use std::time::Instant;
use wifi_backscatter::error::SessionError;
use wifi_backscatter::link::DownlinkConfig;
use wifi_backscatter::phy::{self, PhyConfig};
use wifi_backscatter::protocol::Query;
use wifi_backscatter::session::QueryOutcome;
use wifi_backscatter::{LinkConfig, Reader, ReaderConfig};

/// Fault presets. Every block holds one session of each, so the preset
/// mix, which sets most of a session's cost, is the same in any run.
const PRESETS: [&str; 6] = ["none", "drift", "sensor", "loss", "burst", "all"];

/// Blocks per schedule: about as many sessions as one 30 s run makes.
/// Each preset's sessions cover as many distance strata.
const BLOCKS: usize = 16;

/// Seed of the session set every schedule shares.
const SESSIONS_SEED: u64 = 0x5e55_10de;

/// Payload bits each tag returns.
const PAYLOAD_BITS: usize = 32;

/// One scheduled session.
pub struct Session {
    cfg: ReaderConfig,
    reader_seed: u64,
    address: u8,
    payload: Vec<bool>,
    dl_seed: u64,
}

/// The seed's sessions. Per preset, one session per distance stratum
/// of 0.1–0.65 m, each paired with a severity stratum of 0.25–1.0. The
/// seed draws which block each session lands in, the order inside a
/// block and the tag addresses. The sessions themselves (the point in
/// each stratum, the payload, and the reader, fault and downlink seeds)
/// are the same for every seed. A session's cost is set mostly by
/// chance outcomes of the retry logic (re-captures, rate step-downs,
/// re-scans, the fallback), and a run holds only about 90 sessions:
/// with seed-drawn sessions the seed, not the program, moved a run's
/// `ops_per_s` by a quarter.
pub fn schedule(seed: u64) -> Vec<Session> {
    let mut rng = SimRng::new(seed).stream("perfbench.query");
    let mut blocks: Vec<Vec<Session>> = (0..BLOCKS).map(|_| Vec::new()).collect();
    for preset in PRESETS {
        let mut set = SimRng::new(SESSIONS_SEED).stream(preset);
        let mut sev_rank: Vec<usize> = (0..BLOCKS).collect();
        shuffle(&mut sev_rank, &mut set);
        let mut block_of: Vec<usize> = (0..BLOCKS).collect();
        shuffle(&mut block_of, &mut rng);
        for k in 0..BLOCKS {
            let distance_m = 0.1 + 0.55 * (k as f64 + set.uniform()) / BLOCKS as f64;
            let severity = 0.25 + 0.75 * (sev_rank[k] as f64 + set.uniform()) / BLOCKS as f64;
            let fault_seed = set.next_u64();
            let faults = if preset == "none" {
                FaultPlan::none()
            } else {
                FaultPlan::preset(preset, severity, fault_seed).expect("known preset")
            };
            blocks[block_of[k]].push(Session {
                cfg: ReaderConfig::default()
                    .with_distance_m(distance_m)
                    .with_faults(faults),
                reader_seed: set.next_u64(),
                address: 1 + rng.index(254) as u8,
                payload: (0..PAYLOAD_BITS).map(|_| set.chance(0.5)).collect(),
                dl_seed: set.next_u64(),
            });
        }
    }
    for block in &mut blocks {
        shuffle(block, &mut rng);
    }
    blocks.into_iter().flatten().collect()
}

fn digest(out: &Result<QueryOutcome, SessionError>) -> u64 {
    match out {
        Ok(o) => {
            let bits: Vec<u8> = o.payload.iter().map(|&b| u8::from(b)).collect();
            Fnv::new()
                .bytes(b"ok")
                .bytes(&bits)
                .u64(o.bit_rate_bps)
                .u64(u64::from(o.query_attempts))
                .u64(u64::from(o.response_attempts))
                .u64(u64::from(o.used_fallback))
                .u64(o.waited_us)
                .finish()
        }
        Err(e) => Fnv::new()
            .bytes(b"err")
            .bytes(e.to_string().as_bytes())
            .finish(),
    }
}

fn run(s: &Session) -> Result<QueryOutcome, SessionError> {
    Reader::new(s.cfg.clone(), s.reader_seed).query(s.address, &s.payload)
}

/// Untraced closed loop of sessions. Set-up builds the schedule, runs
/// the nearest fault-free session and one long-range exchange shaped
/// like the sessions' fallback, five times over. The fallback is the
/// largest allocation a session can make, and only some runs would
/// otherwise reach it, so without it `peak_rss_mb` would flip between
/// two levels from seed to seed.
pub fn measure(seed: u64, seconds: f64) -> Report {
    let mut setup_s = Vec::new();
    let mut sched = schedule(seed);
    let mut digests = Digests::new(seed, pinned::QUERY, sched.len());
    let mut cal = Calibration::new();
    for _ in 0..SETUP_REPS {
        cal.sample();
        let t = Instant::now();
        sched = schedule(seed);
        let (w, warm) = sched
            .iter()
            .enumerate()
            .filter(|(_, s)| s.cfg.faults.is_empty())
            .min_by(|a, b| a.1.cfg.tag_distance_m.total_cmp(&b.1.cfg.tag_distance_m))
            .expect("the schedule holds fault-free sessions");
        let d = digest(&run(warm));
        std::hint::black_box(phy::run_uplink(&fallback_shaped(warm)));
        setup_s.push(secs(t));
        digests.record(w, d);
    }
    let mut errors = 0u64;
    let log = closed_loop(
        seconds,
        PRESETS.len(),
        sched.len(),
        &mut digests,
        &mut cal,
        |i| {
            let out = run(&sched[i % sched.len()]);
            errors += u64::from(out.is_err());
            OpOutput {
                digest: digest(&out),
                sim_us: out.as_ref().map_or(0, |o| o.waited_us),
            }
        },
    );
    let mut r = Report::new();
    r.end_to_end(&setup_s, &log, &digests, &cal);
    r.info("schedule_len", sched.len().to_string());
    r.info("session_errors", errors.to_string());
    r
}

/// The session's uplink rate (bps), by the §5 rule its reader applies.
fn uplink_rate_bps(s: &Session) -> u64 {
    PhyConfig::Presence.capabilities().select_rate_bps(
        s.cfg.helper_pps,
        s.cfg.pkts_per_bit,
        s.cfg.rate_margin,
    )
}

/// A long-range exchange with the session's fallback code length.
fn fallback_shaped(s: &Session) -> LinkConfig {
    let mut cfg = LinkConfig::fig10(
        s.cfg.tag_distance_m,
        uplink_rate_bps(s),
        s.cfg.pkts_per_bit,
        s.reader_seed,
    )
    .with_payload(s.payload.clone())
    .with_code_length(s.cfg.fallback_code_length);
    cfg.helper_pps = s.cfg.helper_pps;
    cfg
}

/// The downlink query frame a session with this config sends.
fn query_frame(s: &Session) -> bs_tag::frame::DownlinkFrame {
    Query {
        tag_address: s.address,
        payload_bits: s.payload.len() as u16,
        bit_rate_bps: PhyConfig::Presence
            .capabilities()
            .wire_rate_bps(uplink_rate_bps(s)),
        code_length: 1,
    }
    .to_frame()
    .expect("supported rates encode")
}

/// Traced sessions: whole blocks in schedule order for `seconds` when
/// `primary`, else the first three. Each session runs untraced, then
/// again with a span around `Reader::query_with` and a `MemRecorder`;
/// both must give the same outcome.
pub fn trace(seed: u64, seconds: f64, primary: bool, r: &mut Report) {
    let sched = schedule(seed);
    let mut digests = Digests::new(seed, pinned::QUERY, sched.len());
    let mut identity = Check::Skipped("no session traced".into());
    let (mut plain_ns, mut traced_ns, mut dl_ns) = (0u128, 0u128, 0u128);
    let (mut n, mut failed, mut perfect) = (0u64, 0u64, 0u64);
    let mut counts = [0u64; 5];
    let start = Instant::now();
    let mut i = 0usize;
    while if primary {
        i == 0 || !i.is_multiple_of(PRESETS.len()) || secs(start) < seconds
    } else {
        i < 3
    } {
        let s = &sched[i % sched.len()];
        let t = Instant::now();
        let plain = run(s);
        plain_ns += t.elapsed().as_nanos();
        let mut rec = MemRecorder::new();
        let t = Instant::now();
        let traced =
            Reader::new(s.cfg.clone(), s.reader_seed).query_with(s.address, &s.payload, &mut rec);
        traced_ns += t.elapsed().as_nanos();
        let dl = DownlinkConfig::fig17(s.cfg.tag_distance_m, s.cfg.downlink_bps, s.dl_seed);
        let frame = query_frame(s);
        let t = Instant::now();
        std::hint::black_box(phy::run_downlink_frame(&dl, &frame));
        dl_ns += t.elapsed().as_nanos();

        let (d_plain, d_traced) = (digest(&plain), digest(&traced));
        let c = if d_plain == d_traced {
            Check::Pass
        } else {
            Check::Fail(format!(
                "entry {}: recorder changed the outcome",
                i % sched.len()
            ))
        };
        let ok = digests.record(i % sched.len(), d_plain) && c == Check::Pass;
        identity = std::mem::replace(&mut identity, Check::Pass).and(c);
        failed += u64::from(!ok);
        let rep = rec.report();
        for (slot, name) in [
            "session.query-attempts",
            "session.response-attempts",
            "session.fallback-engaged",
            "uplink.decode-attempts",
        ]
        .iter()
        .enumerate()
        {
            counts[slot] += rep.counter(name);
        }
        counts[4] += rep.counter("wifi.csi-measurements") + rep.counter("wifi.rssi-measurements");
        perfect += u64::from(matches!(&traced, Ok(o) if o.payload == s.payload));
        n += 1;
        i += 1;
    }
    let per = |c: u64| c as f64 / n as f64;
    r.attempted += n;
    r.failed += failed;
    r.metric(
        "core.session.query_ms",
        traced_ns as f64 / n as f64 / 1e6,
        "ms",
    );
    r.metric("core.session.query_attempts", per(counts[0]), "count");
    r.metric("core.session.response_attempts", per(counts[1]), "count");
    r.metric("core.session.fallbacks", per(counts[2]), "count");
    r.metric("core.uplink.decode_attempts", per(counts[3]), "count");
    r.metric("wifi.packets_measured", per(counts[4]), "count");
    r.metric(
        "core.session.perfect_per_decode",
        perfect as f64 / counts[3].max(1) as f64,
        "ratio",
    );
    r.metric(
        "core.phy.downlink_frame_ms",
        dl_ns as f64 / n as f64 / 1e6,
        "ms",
    );
    if primary {
        r.metric(
            "trace.overhead_frac",
            traced_ns as f64 / plain_ns as f64 - 1.0,
            "ratio",
        );
        r.info("op_digests", digests.seen_json());
    }
    r.check("pinned_digests", digests.pinned_check.clone());
    r.check("repeat_identity", digests.repeat_check.clone());
    r.check("query_recorder_identity", identity);
    r.info("query_sessions_traced", n.to_string());
    r.info(
        "query_note",
        "\"host time inside a session is not split by layer here; that needs in-program tracing\""
            .to_string(),
    );
}
