//! What one benchmark run reports: metrics, checks, provenance, and the
//! closed-loop op driver every workload shares.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The seed the pinned digests belong to.
pub const DEFAULT_SEED: u64 = 1;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// FNV-1a over a byte stream: the per-op output digest.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(mut self, data: &[u8]) -> Self {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Outcome of one of the benchmark's own checks.
#[derive(Debug, Clone, PartialEq)]
pub enum Check {
    Pass,
    Fail(String),
    Skipped(String),
}

impl Check {
    fn render(&self) -> String {
        match self {
            Check::Pass => "pass".into(),
            Check::Fail(why) => format!("fail({why})"),
            Check::Skipped(why) => format!("skipped({why})"),
        }
    }

    /// Folds one more observation into a check: any failure sticks, a
    /// pass replaces a skip.
    pub fn and(self, other: Check) -> Check {
        match (self, other) {
            (Check::Fail(a), _) => Check::Fail(a),
            (_, Check::Fail(b)) => Check::Fail(b),
            (Check::Pass, _) | (_, Check::Pass) => Check::Pass,
            (s, _) => s,
        }
    }
}

/// Pinned and within-run digest bookkeeping for one schedule.
pub struct Digests {
    pinned: Option<&'static [u64]>,
    pin_len: usize,
    seen: Vec<Option<u64>>,
    pub pinned_check: Check,
    pub repeat_check: Check,
}

impl Digests {
    /// `pinned` holds the default seed's digests of the schedule's first
    /// entries; it is consulted only when `seed` is the default seed.
    pub fn new(seed: u64, pinned: &'static [u64], schedule_len: usize) -> Self {
        let pinned_check = if seed == DEFAULT_SEED {
            Check::Skipped("no pinned entry ran".into())
        } else {
            Check::Skipped(format!(
                "seed {seed} has no pinned digests; only seed {DEFAULT_SEED} does"
            ))
        };
        Digests {
            pinned: (seed == DEFAULT_SEED).then_some(pinned),
            pin_len: pinned.len(),
            seen: vec![None; schedule_len],
            pinned_check,
            repeat_check: Check::Skipped("no schedule entry ran twice".into()),
        }
    }

    /// Records the digest of schedule entry `i`; false if it disagrees
    /// with the pinned digest or with an earlier run of the same entry.
    pub fn record(&mut self, i: usize, digest: u64) -> bool {
        let mut ok = true;
        if let Some(pinned) = self.pinned {
            if let Some(&p) = pinned.get(i) {
                let c = if p == digest {
                    Check::Pass
                } else {
                    ok = false;
                    Check::Fail(format!("entry {i}: {digest:016x} != pinned {p:016x}"))
                };
                self.pinned_check = std::mem::replace(&mut self.pinned_check, Check::Pass).and(c);
            }
        }
        match self.seen[i] {
            Some(prev) => {
                let c = if prev == digest {
                    Check::Pass
                } else {
                    ok = false;
                    Check::Fail(format!("entry {i}: {digest:016x} != first run {prev:016x}"))
                };
                self.repeat_check = std::mem::replace(&mut self.repeat_check, Check::Pass).and(c);
            }
            None => self.seen[i] = Some(digest),
        }
        ok
    }

    /// Digests seen for the pinned entries, as hex (unseen ones are null):
    /// what to pin after a change that is meant to alter outputs.
    pub fn seen_json(&self) -> String {
        let items: Vec<String> = self.seen[..self.pin_len.min(self.seen.len())]
            .iter()
            .map(|d| d.map_or("null".into(), |d| format!("\"{d:016x}\"")))
            .collect();
        format!("[{}]", items.join(","))
    }
}

/// What one op produced: its output digest and the simulated airtime it
/// advanced (µs).
pub struct OpOutput {
    pub digest: u64,
    pub sim_us: u64,
}

/// Host-speed calibration. This host's speed drifts by ±15 % within a
/// minute (it shares its cores), which swamps a 30 s run's own spread.
/// A fixed libm-bound scalar kernel, timed between ops, tracks that
/// drift for single-threaded ops; their host times are reported scaled
/// to a host on which the kernel takes `NOMINAL_MS`. The kernel's code
/// is the benchmark's and libm's, so a change to the simulator cannot
/// move it.
pub struct Calibration {
    enabled: bool,
    samples_ms: Vec<f64>,
}

impl Calibration {
    /// Kernel time (ms) of the reference host speed.
    pub const NOMINAL_MS: f64 = 5.5;

    pub fn new() -> Self {
        Calibration {
            enabled: true,
            samples_ms: Vec::new(),
        }
    }

    /// No calibration: host times are reported as measured. For ops that
    /// run on every core, where neither a one-thread nor an all-threads
    /// kernel tracked the op's speed (both made the spread worse).
    pub fn off() -> Self {
        Calibration {
            enabled: false,
            samples_ms: Vec::new(),
        }
    }

    /// Times one pass of the kernel.
    pub fn sample(&mut self) {
        if !self.enabled {
            return;
        }
        let t = Instant::now();
        let mut acc = 0.0f64;
        for k in 0..200_000 {
            let x = std::hint::black_box(k as f64 * 1e-3);
            acc += x.sin() * x.cos() + (x * 0.5).exp().ln();
        }
        std::hint::black_box(acc);
        self.samples_ms.push(secs(t) * 1e3);
    }

    /// Multiplier that turns a measured host time into reference-host
    /// time (1 when calibration is off).
    pub fn time_factor(&self) -> f64 {
        if self.enabled {
            Self::NOMINAL_MS / quantile(&self.samples_ms, 0.5)
        } else {
            1.0
        }
    }

    /// The median kernel time as JSON (`null` when off).
    fn median_json(&self) -> String {
        json_num(quantile(&self.samples_ms, 0.5))
    }
}

/// Host-time log of a closed-loop run.
pub struct OpLog {
    pub op_ms: Vec<f64>,
    pub sim_us: u64,
    /// Host time spent in ops (s), calibration passes excluded.
    pub host_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub panics: u64,
}

/// Runs `op(i)` back to back, i = 0, 1, 2, …, with one calibration pass
/// before each, until `seconds` have passed and a whole number of
/// `block`s has run (at least one). Stopping at a block boundary keeps
/// every run's op mix, and so its quantiles, the same. An op that
/// panics, or whose digest `digests` rejects, counts as failed.
pub fn closed_loop(
    seconds: f64,
    block: usize,
    schedule_len: usize,
    digests: &mut Digests,
    cal: &mut Calibration,
    mut op: impl FnMut(usize) -> OpOutput,
) -> OpLog {
    let mut log = OpLog {
        op_ms: Vec::new(),
        sim_us: 0,
        host_s: 0.0,
        attempted: 0,
        failed: 0,
        panics: 0,
    };
    let start = Instant::now();
    let mut i = 0usize;
    while i == 0 || !i.is_multiple_of(block) || secs(start) < seconds {
        cal.sample();
        let t = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| op(i)));
        let s = secs(t);
        log.host_s += s;
        log.attempted += 1;
        match out {
            Ok(out) => {
                log.op_ms.push(s * 1e3);
                log.sim_us += out.sim_us;
                if !digests.record(i % schedule_len, out.digest) {
                    log.failed += 1;
                }
            }
            Err(_) => {
                log.failed += 1;
                log.panics += 1;
            }
        }
        i += 1;
    }
    log
}

/// Linear-interpolated quantile of an unsorted sample (`q` in [0, 1]).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process (MB), from `/proc`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Worker threads for parallel layers: the host's cores.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Everything one run prints.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub checks: Vec<(&'static str, Check)>,
    /// Extra `"key": value` JSON members for the info line.
    pub info: Vec<(&'static str, String)>,
}

impl Report {
    pub fn new() -> Self {
        Report {
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            checks: Vec::new(),
            info: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Records a check; a second report under the same name folds into
    /// the first.
    pub fn check(&mut self, name: &'static str, check: Check) {
        match self.checks.iter_mut().find(|(n, _)| *n == name) {
            Some((_, c)) => *c = std::mem::replace(c, Check::Pass).and(check),
            None => self.checks.push((name, check)),
        }
    }

    pub fn info(&mut self, key: &'static str, json_value: impl Into<String>) {
        self.info.push((key, json_value.into()));
    }

    /// Folds a closed-loop log into the end-to-end metrics, host times
    /// scaled by the run's calibration; the raw values go to the info line.
    pub fn end_to_end(
        &mut self,
        setup_s: &[f64],
        log: &OpLog,
        digests: &Digests,
        cal: &Calibration,
    ) {
        let ops = log.op_ms.len();
        let p90 = quantile(&log.op_ms, 0.9);
        let beyond_p90 = log.op_ms.iter().filter(|&&t| t > p90).count();
        let raw = [
            ("setup_s", quantile(setup_s, 0.5), "s"),
            ("op_ms_p50", quantile(&log.op_ms, 0.5), "ms"),
            ("op_ms_p90", p90, "ms"),
            ("ops_per_s", log.attempted as f64 / log.host_s, "1/s"),
            (
                "sim_s_per_host_s",
                log.sim_us as f64 / 1e6 / log.host_s,
                "s/s",
            ),
        ];
        let f = cal.time_factor();
        for (name, value, unit) in raw {
            let per_time = unit == "1/s" || unit == "s/s";
            self.metric(name, if per_time { value / f } else { value * f }, unit);
        }
        self.metric("peak_rss_mb", peak_rss_mb(), "MB");
        self.attempted = log.attempted;
        self.failed = log.failed;
        self.check("pinned_digests", digests.pinned_check.clone());
        self.check("repeat_identity", digests.repeat_check.clone());
        let raw_json: Vec<String> = raw
            .iter()
            .map(|(n, v, _)| format!("\"{n}\":{}", json_num(*v)))
            .collect();
        self.info("raw", format!("{{{}}}", raw_json.join(",")));
        self.info("calibration_ms", cal.median_json());
        self.info("time_factor", json_num(f));
        self.info("ops", ops.to_string());
        self.info("ops_beyond_p90", beyond_p90.to_string());
        self.info("p90_has_ten_beyond", (beyond_p90 >= 10).to_string());
        self.info("panics", log.panics.to_string());
        self.info(
            "failed_frac",
            format!("{}", log.failed as f64 / log.attempted.max(1) as f64),
        );
        self.info("setup_s_samples", json_list(setup_s));
        self.info("op_digests", digests.seen_json());
    }

    /// Prints the provenance, check and info lines, then the result
    /// object as the last line.
    pub fn print(&self, provenance: &str) {
        println!("{{\"provenance\":{provenance}}}");
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|(k, c)| format!("\"{k}\":\"{}\"", json_escape(&c.render())))
            .collect();
        println!("{{\"checks\":{{{}}}}}", checks.join(","));
        let info: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        println!("{{\"info\":{{{}}}}}", info.join(","));
        let correct = self.failed == 0
            && self
                .checks
                .iter()
                .all(|(_, c)| !matches!(c, Check::Fail(_)))
            && self.metrics.iter().all(|(_, v, _)| v.is_finite());
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push(',');
            }
            let v = json_num(*value);
            let _ = write!(metrics, "\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}");
        }
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.attempted, self.failed
        );
    }
}

/// A number as JSON; `null` for NaN and infinities, which JSON lacks.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".into()
    }
}

pub fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|&v| json_num(v)).collect();
    format!("[{}]", items.join(","))
}

pub fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Seconds since `t`, as f64.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Fisher–Yates shuffle driven by the workload's seeded stream.
pub fn shuffle<T>(items: &mut [T], rng: &mut bs_dsp::SimRng) {
    for i in (1..items.len()).rev() {
        let j = rng.index(i + 1);
        items.swap(i, j);
    }
}
