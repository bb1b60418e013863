//! Reading a stage profile from an observed run.
//!
//! Every `run_*` entry point has a `*_with` variant that threads a
//! recorder through the run. Pass a [`MemRecorder`] and call
//! `into_report()` to get an [`ObsReport`]: span-style timings per
//! pipeline stage (in *simulated* microseconds — never wall clock, so the
//! numbers are deterministic), counters of discrete work, and a few
//! gauges. Recording is observe-only: the run's decoded bits and BER are
//! bit-identical to the plain entry point (`tests/obs_conformance.rs`
//! pins this).
//!
//! Run with: `cargo run --release --example observability`

use wifi_backscatter::prelude::*;

fn print_report(title: &str, r: &ObsReport) {
    println!("--- {title} ---");
    println!(
        "{:<22} {:>6} {:>9} {:>10}",
        "stage", "spans", "items", "sim_us"
    );
    let mut stages: Vec<&str> = r.spans.iter().map(|s| s.stage).collect();
    stages.sort_unstable();
    stages.dedup();
    for stage in stages {
        let (mut n, mut items, mut us) = (0u64, 0u64, 0u64);
        for s in r.spans_for(stage) {
            n += 1;
            items += s.items;
            us += s.duration_us();
        }
        println!("{stage:<22} {n:>6} {items:>9} {us:>10}");
    }
    println!("counters:");
    for (k, v) in &r.counters {
        println!("  {k:<28} {v}");
    }
    for (k, v) in &r.gauges {
        println!("  {k:<28} {v:.4} (gauge)");
    }
    println!();
}

fn main() {
    println!("=== deterministic stage profiling ===\n");

    // An uplink decode at 10 cm: where does the simulated time go?
    let cfg =
        LinkConfig::fig10(0.1, 100, 10, 42).with_payload((0..24).map(|i| i % 3 == 0).collect());
    let mut rec = MemRecorder::new();
    let run = run_uplink_with(&cfg, &mut rec);
    print_report("uplink, 10 cm, CSI", &rec.into_report());
    println!(
        "decode result unchanged by profiling: {} errors / {} bits\n",
        run.ber.errors(),
        run.ber.bits()
    );

    // A full query/response session: counters across all three layers.
    let mut reader = Reader::new(ReaderConfig::default(), 7);
    let payload: Vec<bool> = (0..16).map(|i| i % 2 == 1).collect();
    let mut rec = MemRecorder::new();
    reader
        .query_with(0x17, &payload, &mut rec)
        .expect("close-range query completes");
    let report = rec.into_report();
    print_report("query/response session, 30 cm", &report);

    // The same report travels with archived captures (trace format v2)
    // and into the bench harness's JSON records (the `obs` figure).
    println!("obs JSON (deterministic, byte-stable):");
    let json = report.to_json();
    println!("{}...", &json[..json.len().min(120)]);
}
