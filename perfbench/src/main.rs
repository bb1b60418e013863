//! Host-time benchmark of the Wi-Fi Backscatter reproduction.
//!
//! ```text
//! perfbench --workload <uplink|query|fleet> --seed <n> --seconds <s> --trace <0|1> [--commit <id>]
//! ```
//!
//! `--trace 0` runs the workload's closed loop and prints the end-to-end
//! metrics; `--trace 1` prints the per-layer metrics of an outside-in
//! traced replay. The last stdout line is the result object. See
//! README.md for what each workload and metric means.

mod fleet;
mod pinned;
mod query;
mod report;
mod uplink;

use report::{host_cores, json_escape, Report};

const USAGE: &str = "usage: perfbench --workload <uplink|query|fleet> --seed <n> --seconds <s> --trace <0|1> [--commit <id>]";

const WORKLOADS: [&str; 3] = ["uplink", "query", "fleet"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut commit = "unknown".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("seconds must be in (0, 120], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                })
            }
            "--commit" => commit = value,
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        commit,
    })
}

/// The traced run: every layer group is measured; the named workload's
/// group gets the run's time budget and the others one small round.
fn trace(args: &Args) -> Report {
    let mut r = Report::new();
    let w = args.workload.as_str();
    uplink::trace(args.seed, args.seconds, w == "uplink", &mut r);
    query::trace(args.seed, args.seconds, w == "query", &mut r);
    fleet::trace(args.seed, args.seconds, w == "fleet", &mut r);
    r
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = if args.trace {
        trace(&args)
    } else {
        match args.workload.as_str() {
            "uplink" => uplink::measure(args.seed, args.seconds),
            "query" => query::measure(args.seed, args.seconds),
            _ => fleet::measure(args.seed, args.seconds),
        }
    };
    let provenance = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host_cores\":{},\"commit\":\"{}\",\"profile\":\"{}\",\"ops\":{}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_cores(),
        json_escape(&args.commit),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        report.attempted,
    );
    report.print(&provenance);
}
