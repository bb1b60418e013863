//! Calibration sweep: uplink BER vs distance for CSI and RSSI, and
//! downlink BER vs distance per rate. Each distance is one harness job,
//! so the sweep uses every core; rows print in distance order regardless
//! of worker count (the `bs_bench::harness` determinism guarantee).
use bs_bench::harness::{run_jobs, Job, JobOutput};
use wifi_backscatter::link::{LinkConfig, Measurement};
use wifi_backscatter::phy::run_uplink;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let which = args.get(1).map(String::as_str).unwrap_or("uplink");
    let jobs = match which {
        "uplink" => uplink_jobs(),
        "downlink" => downlink_jobs(),
        _ => {
            eprintln!("unknown: {which}");
            std::process::exit(2);
        }
    };
    let workers = bs_dsp::par::available_jobs();
    match which {
        "uplink" => println!("# d_cm  ber_csi30  ber_rssi30  pkts_per_bit"),
        _ => println!("# d_cm  ber20k  ber10k  ber5k"),
    }
    let records = run_jobs(jobs, workers).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    for record in records {
        for line in &record.lines {
            println!("{line}");
        }
    }
}

fn uplink_jobs() -> Vec<Job> {
    [5u32, 15, 30, 45, 65, 100, 150, 200]
        .into_iter()
        .map(|d_cm| Job {
            fig: "calibrate-uplink".into(),
            section: 0,
            label: format!("uplink d={d_cm}cm"),
            seed: 1000,
            work: Box::new(move || {
                let mut ber_csi = bs_dsp::bits::BerCounter::new();
                let mut ber_rssi = bs_dsp::bits::BerCounter::new();
                let mut ppb = 0.0;
                let runs = 4;
                for seed in 0..runs {
                    let mut cfg = LinkConfig::fig10(d_cm as f64 / 100.0, 100, 30, 1000 + seed);
                    cfg.payload = (0..45).map(|i| (i * 13) % 7 < 3).collect();
                    let r = run_uplink(&cfg);
                    ber_csi.merge(&r.ber);
                    ppb += r.pkts_per_bit / runs as f64;
                    let mut cfg2 = cfg.clone();
                    cfg2.measurement = Measurement::Rssi;
                    cfg2.seed = 2000 + seed;
                    let r2 = run_uplink(&cfg2);
                    ber_rssi.merge(&r2.ber);
                }
                JobOutput {
                    lines: vec![format!(
                        "{d_cm}  {:.4}  {:.4}  {ppb:.1}",
                        ber_csi.raw_ber(),
                        ber_rssi.raw_ber()
                    )],
                    metrics: vec![
                        ("ber_csi".into(), ber_csi.raw_ber()),
                        ("ber_rssi".into(), ber_rssi.raw_ber()),
                    ],
                    work_items: runs * 45 * 30 * 2,
                    ..JobOutput::default()
                }
            }),
        })
        .collect()
}

fn downlink_jobs() -> Vec<Job> {
    use wifi_backscatter::link::DownlinkConfig;
    use wifi_backscatter::phy::run_downlink_ber;
    [50u32, 100, 150, 200, 213, 250, 290, 320, 350]
        .into_iter()
        .map(|d_cm| Job {
            fig: "calibrate-downlink".into(),
            section: 0,
            label: format!("downlink d={d_cm}cm"),
            seed: 3000,
            work: Box::new(move || {
                let mut row = format!("{d_cm}");
                let mut metrics = Vec::new();
                for rate in [20_000u64, 10_000, 5_000] {
                    let mut ber = bs_dsp::bits::BerCounter::new();
                    for seed in 0..10 {
                        let cfg = DownlinkConfig::fig17(d_cm as f64 / 100.0, rate, 3000 + seed);
                        ber.merge(&run_downlink_ber(&cfg, 2000).ber);
                    }
                    row.push_str(&format!("  {:.4}", ber.raw_ber()));
                    metrics.push((format!("ber_{rate}bps"), ber.raw_ber()));
                }
                JobOutput {
                    lines: vec![row],
                    metrics,
                    work_items: 3 * 10 * 2000,
                    ..JobOutput::default()
                }
            }),
        })
        .collect()
}
