//! Figure catalogue: turns a figure selection into a [`Plan`] of
//! independent jobs plus the section headers/footers needed to render the
//! classic gnuplot tables from the collected records.
//!
//! Job granularity is one *point* of each figure's sweep — one
//! `(distance, packets-per-bit)` cell of Fig. 10, one `(distance, rate)`
//! cell of Fig. 17, one transmitter location of Fig. 19, one time slot of
//! Figs 15/18 — because the per-point experiment functions in
//! [`crate::experiments`] derive their seeds from the point coordinates
//! alone. That seed-partitioning contract (documented in DESIGN.md
//! §"Determinism under parallelism") is what lets the scheduler run
//! points in any order on any number of workers and still reproduce the
//! serial sweep bit for bit.

use wifi_backscatter::link::Measurement;
use wifi_backscatter::phy::PhyConfig;

use super::record::{JobOutput, RunRecord};
use super::scheduler::Job;
use crate::experiments::{
    ablation, ambient, coexistence, downlink, energy, faults, fec, fleet, net, obs, phy, power,
    uplink,
};

/// How much work each figure does — the knobs the old `all`/`quick`
/// modes tuned, now a first-class value so tests can shrink it further.
#[derive(Debug, Clone)]
pub struct Effort {
    /// Repetitions per measured point (the paper uses 20).
    pub runs: u64,
    /// Kilobits per Fig. 17 point (the paper transmits 200 kbit).
    pub dl_kbits: usize,
    /// Seconds of simulated traffic per Fig. 19 location/activity.
    pub fig19_s: f64,
    /// Hours of day sampled for Fig. 18's false-positive count.
    pub fp_hours: Vec<f64>,
    /// Sampling step (hours) for Fig. 15's office-day sweep.
    pub office_step_h: f64,
}

impl Effort {
    /// Paper-faithful effort (`experiments all`): tens of minutes serial.
    pub fn full() -> Self {
        Effort {
            runs: 20,
            dl_kbits: 200,
            fig19_s: 120.0,
            fp_hours: vec![10.0, 12.0, 14.0, 16.0, 18.0],
            office_step_h: 0.5,
        }
    }

    /// Reduced effort (`experiments quick`): every figure in a few
    /// minutes serial, seconds parallel.
    pub fn quick() -> Self {
        Effort {
            runs: 4,
            dl_kbits: 24,
            fig19_s: 20.0,
            fp_hours: vec![14.0],
            office_step_h: 2.0,
        }
    }
}

/// Every figure id the harness knows, in canonical output order.
pub const ALL_FIGURES: &[&str] = &[
    "fig3", "fig4", "fig5", "fig6", "fig10", "fig11", "fig12", "fig14", "fig15", "fig16", "fig17",
    "fig18", "fig19", "fig20", "power", "ablation", "faults", "obs", "net", "fec", "phy", "fleet",
    "energy",
];

/// Lines computed from a section's finished records (Fig. 19's impact
/// summary); most sections have none.
pub type SectionFooter = Box<dyn Fn(&[&RunRecord]) -> Vec<String> + Send + Sync>;

/// One output section: a `# === ... ===` block of the rendered report.
/// Most figures are one section; Figs 4, 10 and 19 have two each.
pub struct Section {
    /// Figure id this section belongs to.
    pub fig: String,
    /// Comment lines printed before the section's job lines (title and
    /// column names).
    pub header: Vec<String>,
    /// Optional summary lines computed from the section's records.
    pub footer: Option<SectionFooter>,
}

/// A scheduled experiment campaign: the jobs to run and the section
/// structure to render their results into.
pub struct Plan {
    /// Output sections in render order.
    pub sections: Vec<Section>,
    /// Jobs in serial order (the order that defines the rendered tables).
    pub jobs: Vec<Job>,
}

impl Plan {
    fn new() -> Self {
        Plan {
            sections: Vec::new(),
            jobs: Vec::new(),
        }
    }

    /// Opens a new section and returns its index for the jobs in it.
    fn section(&mut self, fig: &str, header: Vec<String>) -> usize {
        self.sections.push(Section {
            fig: fig.to_string(),
            header,
            footer: None,
        });
        self.sections.len() - 1
    }

    fn job(
        &mut self,
        section: usize,
        label: impl Into<String>,
        seed: u64,
        work: impl Fn() -> JobOutput + Send + Sync + 'static,
    ) {
        self.jobs.push(Job {
            fig: self.sections[section].fig.clone(),
            section,
            label: label.into(),
            seed,
            work: Box::new(work),
        });
    }
}

/// Builds the job plan for `figs` (ids from [`ALL_FIGURES`], rendered in
/// the order given) at the requested effort and master seed. Returns an
/// error naming the first unknown figure id.
pub fn plan(figs: &[String], effort: &Effort, seed: u64) -> Result<Plan, String> {
    let mut p = Plan::new();
    for fig in figs {
        match fig.as_str() {
            "fig3" => fig3(&mut p, seed),
            "fig4" => fig4(&mut p, seed),
            "fig5" => fig5(&mut p, seed),
            "fig6" => fig6(&mut p, seed),
            "fig10" => fig10(&mut p, seed, effort),
            "fig11" => fig11(&mut p, seed, effort),
            "fig12" => fig12(&mut p, seed, effort),
            "fig14" => fig14(&mut p, seed, effort),
            "fig15" => fig15(&mut p, seed, effort),
            "fig16" => fig16(&mut p, seed, effort),
            "fig17" => fig17(&mut p, seed, effort),
            "fig18" => fig18(&mut p, seed, effort),
            "fig19" => fig19(&mut p, seed, effort),
            "fig20" => fig20(&mut p, seed, effort),
            "power" => power_section(&mut p),
            "ablation" => ablation_section(&mut p, seed, effort),
            "faults" => faults_section(&mut p, seed, effort),
            "obs" => obs_section(&mut p, seed, effort),
            "net" => net_section(&mut p, seed, effort),
            "fec" => fec_section(&mut p, seed, effort),
            "phy" => phy_section(&mut p, seed, effort),
            "fleet" => fleet_section(&mut p, seed, effort),
            "energy" => energy_section(&mut p, seed),
            other => {
                return Err(format!(
                    "unknown figure '{other}' (known: {})",
                    ALL_FIGURES.join(", ")
                ))
            }
        }
    }
    Ok(p)
}

/// Renders the classic report from a plan's sections and its finished
/// records. Records must be in job order (as [`super::run_jobs`]
/// returns them); the output is then independent of how many workers
/// produced them, since no scheduling metadata is printed.
pub fn render(sections: &[Section], records: &[RunRecord]) -> String {
    let mut out = String::new();
    for (si, sec) in sections.iter().enumerate() {
        out.push('\n');
        for line in &sec.header {
            out.push_str(line);
            out.push('\n');
        }
        let recs: Vec<&RunRecord> = records.iter().filter(|r| r.section == si).collect();
        for r in &recs {
            for line in &r.lines {
                out.push_str(line);
                out.push('\n');
            }
        }
        if let Some(footer) = &sec.footer {
            for line in footer(&recs) {
                out.push_str(&line);
                out.push('\n');
            }
        }
    }
    out
}

/// Shared Figs 3/6 body: the raw CSI trace for one tag distance.
fn raw_trace_job(p: &mut Plan, section: usize, d_m: f64, seed: u64) {
    p.job(
        section,
        format!("raw-trace d={}cm", (d_m * 100.0) as u32),
        seed,
        move || {
            let t = uplink::raw_csi_trace(d_m, 3000, seed);
            let mut lines = vec![
                format!(
                    "# sub-channel {} | separation (gap/std) = {:.2}",
                    t.subchannel, t.separation
                ),
                "# packet  csi_amplitude".to_string(),
            ];
            for (i, a) in t.amplitude.iter().enumerate().step_by(10) {
                lines.push(format!("{i}  {a:.3}"));
            }
            JobOutput {
                lines,
                metrics: vec![
                    ("separation".into(), t.separation),
                    ("subchannel".into(), t.subchannel as f64),
                ],
                work_items: 3000,
                ..JobOutput::default()
            }
        },
    );
}

fn fig3(p: &mut Plan, seed: u64) {
    let s = p.section(
        "fig3",
        vec!["# === Fig 3: raw CSI, tag at 5 cm (two distinct levels expected) ===".into()],
    );
    raw_trace_job(p, s, 0.05, seed);
}

fn fig6(p: &mut Plan, seed: u64) {
    let s = p.section(
        "fig6",
        vec!["# === Fig 6: raw CSI, tag at 1 m (levels merge into noise) ===".into()],
    );
    raw_trace_job(p, s, 1.0, seed);
}

fn fig4(p: &mut Plan, seed: u64) {
    for (label, d_m) in [("5 cm (paper's setup)", 0.05), ("10 cm", 0.10)] {
        let s = p.section(
            "fig4",
            vec![format!(
                "# === Fig 4 @ {label}: PDFs of normalised channel values, 30 sub-channels ==="
            )],
        );
        p.job(s, format!("pdfs d={}cm", (d_m * 100.0) as u32), seed, move || {
            let pdfs = uplink::normalized_pdfs(d_m, 42_000, seed);
            let bimodal = pdfs.iter().filter(|q| q.bimodal).count();
            let mut lines = vec![
                format!(
                    "# {bimodal}/30 sub-channels bimodal (paper: 'about 30 percent' show two Gaussians at +/-1; \
                     see EXPERIMENTS.md for the close-range deviation)"
                ),
                "# subchannel  bin_center  density".to_string(),
            ];
            for q in &pdfs {
                for &(c, d) in q.pdf.iter().step_by(4) {
                    lines.push(format!("{}  {c:.2}  {d:.4}", q.subchannel));
                }
            }
            JobOutput {
                lines,
                metrics: vec![("bimodal_subchannels".into(), bimodal as f64)],
                work_items: 42_000,
                ..JobOutput::default()
            }
        });
    }
}

fn fig5(p: &mut Plan, seed: u64) {
    let s = p.section(
        "fig5",
        vec![
            "# === Fig 5: sub-channels with BER < 1e-2 vs distance ===".into(),
            "# distance_cm  n_good  good_subchannels".into(),
        ],
    );
    for d_cm in [5u32, 15, 25, 35, 45, 55, 65] {
        p.job(s, format!("good-subchannels d={d_cm}cm"), seed, move || {
            let (d, good) = uplink::good_subchannels_at(d_cm, seed);
            let list: Vec<String> = good.iter().map(|g| g.to_string()).collect();
            JobOutput {
                lines: vec![format!("{d}  {}  {}", good.len(), list.join(","))],
                metrics: vec![("n_good".into(), good.len() as f64)],
                work_items: 2700, // 90-bit payload × 30 packets/bit
                ..JobOutput::default()
            }
        });
    }
}

fn fig10(p: &mut Plan, seed: u64, e: &Effort) {
    let distances = [5u32, 15, 25, 35, 45, 55, 65];
    let runs = e.runs;
    for (label, m) in [("a: CSI", Measurement::Csi), ("b: RSSI", Measurement::Rssi)] {
        let s = p.section(
            "fig10",
            vec![
                format!("# === Fig 10{label}: uplink BER vs distance ==="),
                "# distance_cm  pkts_per_bit  ber".into(),
            ],
        );
        let kind = if m == Measurement::Csi { "csi" } else { "rssi" };
        for ppb in [3u32, 6, 30] {
            for d_cm in distances {
                p.job(s, format!("{kind} d={d_cm}cm ppb={ppb}"), seed, move || {
                    let pt = uplink::uplink_ber_point(m, d_cm, ppb, runs, seed);
                    JobOutput {
                        lines: vec![format!(
                            "{}  {}  {:.2e}",
                            pt.distance_cm, pt.pkts_per_bit, pt.ber
                        )],
                        metrics: vec![("ber".into(), pt.ber)],
                        work_items: runs * 90 * u64::from(ppb),
                        ..JobOutput::default()
                    }
                });
            }
        }
    }
}

fn fig11(p: &mut Plan, seed: u64, e: &Effort) {
    let s = p.section(
        "fig11",
        vec![
            "# === Fig 11: frequency diversity (our algorithm vs random sub-channel) ===".into(),
            "# distance_cm  ber_ours  ber_random".into(),
        ],
    );
    let runs = e.runs;
    for d_cm in [5u32, 15, 25, 35, 45, 55, 65] {
        p.job(s, format!("diversity d={d_cm}cm"), seed, move || {
            let (d, ours, random) = uplink::frequency_diversity_at(d_cm, runs, seed);
            JobOutput {
                lines: vec![format!("{d}  {ours:.2e}  {random:.2e}")],
                metrics: vec![("ber_ours".into(), ours), ("ber_random".into(), random)],
                work_items: runs * 2 * 2700, // full + single-channel capture
                ..JobOutput::default()
            }
        });
    }
}

fn fig12(p: &mut Plan, seed: u64, e: &Effort) {
    let s = p.section(
        "fig12",
        vec![
            "# === Fig 12: achievable bit rate vs helper transmission rate ===".into(),
            "# helper_pps  achievable_bps".into(),
        ],
    );
    let runs = e.runs.min(5);
    for pps in [240u32, 500, 1000, 1500, 2000, 2500, 3070] {
        p.job(s, format!("helper-rate {pps}pps"), seed, move || {
            let (q, bps) = uplink::bitrate_at_helper_rate(pps, runs, seed);
            JobOutput {
                lines: vec![format!("{q}  {bps}")],
                metrics: vec![("achievable_bps".into(), bps as f64)],
                work_items: runs * 4 * 90, // 4 candidate rates × 90-bit payload
                ..JobOutput::default()
            }
        });
    }
}

fn fig14(p: &mut Plan, seed: u64, e: &Effort) {
    let s = p.section(
        "fig14",
        vec![
            "# === Fig 14: packet delivery probability vs helper location ===".into(),
            "# location  delivery_probability".into(),
        ],
    );
    let frames = e.runs;
    for i in 0..4usize {
        p.job(s, format!("helper-location {}", i + 2), seed, move || {
            let (loc, prob) = uplink::delivery_at_location(i, frames, seed);
            JobOutput {
                lines: vec![format!("{loc}  {prob:.2}")],
                metrics: vec![("delivery_probability".into(), prob)],
                work_items: frames * 20 * 30, // 20-bit frames × 30 packets/bit
                ..JobOutput::default()
            }
        });
    }
}

fn fig15(p: &mut Plan, seed: u64, e: &Effort) {
    let s = p.section(
        "fig15",
        vec![
            "# === Fig 15: achievable bit rate from ambient office traffic ===".into(),
            "# hour  load_pps  achievable_bps".into(),
        ],
    );
    let runs = e.runs.min(3);
    for hour in ambient::office_hours(e.office_step_h) {
        p.job(s, format!("office {hour:.1}h"), seed, move || {
            let slot = ambient::office_slot(hour, runs, seed);
            JobOutput {
                lines: vec![format!(
                    "{:.1}  {:.0}  {}",
                    slot.hour, slot.load_pps, slot.achievable_bps
                )],
                metrics: vec![
                    ("load_pps".into(), slot.load_pps),
                    ("achievable_bps".into(), slot.achievable_bps as f64),
                ],
                work_items: runs * 4 * 90,
                ..JobOutput::default()
            }
        });
    }
}

fn fig16(p: &mut Plan, seed: u64, e: &Effort) {
    let s = p.section(
        "fig16",
        vec![
            "# === Fig 16: achievable bit rate from beacons only (RSSI) ===".into(),
            "# beacons_per_s  achievable_bps".into(),
        ],
    );
    let runs = e.runs.min(3);
    for b in [10u32, 20, 30, 40, 50, 60, 70] {
        p.job(s, format!("beacons {b}/s"), seed, move || {
            let (q, bps) = ambient::beacons_only_at(b, runs, seed);
            JobOutput {
                lines: vec![format!("{q}  {bps}")],
                metrics: vec![("achievable_bps".into(), bps as f64)],
                work_items: runs * 5 * 45, // ≤5 candidate rates × 45-bit payload
                ..JobOutput::default()
            }
        });
    }
}

fn fig17(p: &mut Plan, seed: u64, e: &Effort) {
    let s = p.section(
        "fig17",
        vec![
            "# === Fig 17: downlink BER vs distance ===".into(),
            "# distance_cm  rate_bps  ber".into(),
        ],
    );
    let (kbits, runs) = (e.dl_kbits, e.runs);
    for rate in [20_000u64, 10_000, 5_000] {
        for d_cm in [50u32, 100, 150, 200, 213, 250, 290, 320, 350] {
            p.job(
                s,
                format!("downlink d={d_cm}cm rate={rate}bps"),
                seed,
                move || {
                    let pt = downlink::downlink_ber_point(d_cm, rate, kbits, runs, seed);
                    JobOutput {
                        lines: vec![format!(
                            "{}  {}  {:.2e}",
                            pt.distance_cm, pt.bit_rate_bps, pt.ber
                        )],
                        metrics: vec![("ber".into(), pt.ber)],
                        work_items: (kbits as u64) * 1000,
                        ..JobOutput::default()
                    }
                },
            );
        }
    }
}

fn fig18(p: &mut Plan, seed: u64, e: &Effort) {
    let s = p.section(
        "fig18",
        vec![
            "# === Fig 18: downlink false positives per hour ===".into(),
            "# hour  false_positives_per_hour".into(),
        ],
    );
    for hour in e.fp_hours.clone() {
        p.job(s, format!("false-positives {hour:.0}h"), seed, move || {
            let slot = downlink::false_positive_slot(hour, seed);
            JobOutput {
                lines: vec![format!("{:.0}  {:.0}", slot.hour, slot.per_hour)],
                metrics: vec![("false_positives_per_hour".into(), slot.per_hour)],
                work_items: 0, // one simulated hour; burst count is load-dependent
                ..JobOutput::default()
            }
        });
    }
}

fn fig19(p: &mut Plan, seed: u64, e: &Effort) {
    let duration_s = e.fig19_s;
    for d_cm in [5u32, 30] {
        let s = p.section(
            "fig19",
            vec![
                format!("# === Fig 19 ({d_cm} cm): Wi-Fi goodput with/without the tag ==="),
                "# location  activity  goodput_MBps".into(),
            ],
        );
        for i in 0..4usize {
            p.job(
                s,
                format!("coexistence d={d_cm}cm loc={}", i + 2),
                seed,
                move || {
                    let points = coexistence::throughput_at_location(
                        d_cm,
                        i,
                        &coexistence::fig19_activities(),
                        duration_s,
                        seed,
                    );
                    let mut lines = Vec::new();
                    let mut metrics = vec![("location".into(), (i + 2) as f64)];
                    for pt in &points {
                        let label = match pt.activity {
                            coexistence::TagActivity::Absent => "none".to_string(),
                            coexistence::TagActivity::Modulating { bit_rate_bps } => {
                                format!("{bit_rate_bps}bps")
                            }
                        };
                        lines.push(format!(
                            "{}  {}  {:.2}",
                            pt.location, label, pt.goodput_mbytes
                        ));
                        metrics.push((format!("goodput:{label}"), pt.goodput_mbytes));
                    }
                    JobOutput {
                        lines,
                        metrics,
                        work_items: (duration_s * 500.0) as u64 * 3, // SNR snapshots
                        ..JobOutput::default()
                    }
                },
            );
        }
        // The impact summary needs every location of this section, so it
        // is a section footer over the collected records, not job output.
        self::attach_fig19_footer(p, s);
    }
}

/// Recomputes the Fig. 19 relative-impact footer from a section's
/// records, reproducing `coexistence::relative_impact` over the metric
/// values the jobs reported.
fn attach_fig19_footer(p: &mut Plan, section: usize) {
    p.sections[section].footer = Some(Box::new(|recs: &[&RunRecord]| {
        let mut per_loc: Vec<(u32, f64)> = Vec::new();
        for r in recs {
            let get = |name: &str| r.metrics.iter().find(|(k, _)| k == name).map(|&(_, v)| v);
            let (Some(loc), Some(base)) = (get("location"), get("goodput:none")) else {
                continue;
            };
            let mut worst: f64 = 0.0;
            for (k, v) in &r.metrics {
                if k.starts_with("goodput:") && base > 0.0 {
                    worst = worst.max((v - base).abs() / base);
                }
            }
            per_loc.push((loc as u32, worst));
        }
        let mean = if per_loc.is_empty() {
            0.0
        } else {
            per_loc.iter().map(|&(_, v)| v).sum::<f64>() / per_loc.len() as f64
        };
        vec![
            format!("# per-location max impact: {per_loc:?}"),
            format!("# mean relative impact of tag: {:.1}%", mean * 100.0),
        ]
    }));
}

fn fig20(p: &mut Plan, seed: u64, e: &Effort) {
    let s = p.section(
        "fig20",
        vec![
            "# === Fig 20: correlation length needed vs distance ===".into(),
            "# distance_cm  correlation_length".into(),
        ],
    );
    let runs = e.runs.min(3);
    for d_cm in [80u32, 100, 120, 140, 160, 180, 200, 210, 220] {
        p.job(s, format!("correlation d={d_cm}cm"), seed, move || {
            let lengths = [1usize, 2, 4, 10, 20, 40, 80, 150];
            let (d, l) = uplink::correlation_length_at(d_cm, &lengths, runs, seed);
            JobOutput {
                lines: vec![match l {
                    Some(l) => format!("{d}  {l}"),
                    None => format!("{d}  >150"),
                }],
                // -1 encodes "even L=150 failed" (JSON has no None).
                metrics: vec![("correlation_length".into(), l.map_or(-1.0, |l| l as f64))],
                work_items: 0, // early-exits once a length passes
                ..JobOutput::default()
            }
        });
    }
}

fn power_section(p: &mut Plan) {
    let s = p.section(
        "power",
        vec![
            "# === Section 6 power & harvesting ===".into(),
            "# scenario | harvested_uW | load_uW | duty".into(),
        ],
    );
    p.job(s, "power-table", 0, move || {
        let rows = power::power_table();
        let mut lines = Vec::new();
        let mut metrics = Vec::new();
        for r in &rows {
            lines.push(format!(
                "{}  {:.2}  {:.2}  {:.2}",
                r.scenario.replace(' ', "_"),
                r.harvested_uw,
                r.load_uw,
                r.duty
            ));
            metrics.push((format!("duty:{}", r.scenario.replace(' ', "_")), r.duty));
        }
        JobOutput {
            lines,
            metrics,
            work_items: 0, // closed-form link-budget table
            ..JobOutput::default()
        }
    });
}

fn ablation_section(p: &mut Plan, seed: u64, e: &Effort) {
    let s = p.section(
        "ablation",
        vec![
            "# === Ablations: what each design choice buys ===".into(),
            "# variant  ber".into(),
        ],
    );
    let runs = e.runs.min(6);
    type AblationFn = fn(u64, u64) -> Vec<ablation::AblationRow>;
    let parts: [(&str, &str, AblationFn); 4] = [
        ("combining", "# -- combining at 55 cm --", |r, s| {
            ablation::combining_ablation(0.55, r, s)
        }),
        (
            "slicer",
            "# -- slicer at 45 cm --",
            ablation::hysteresis_ablation,
        ),
        (
            "artifacts",
            "# -- measurement artifacts at 65 cm --",
            |r, s| ablation::artifact_ablation(0.65, r, s),
        ),
        (
            "conditioning",
            "# -- conditioning window under strong fading, 35 cm --",
            ablation::conditioning_ablation,
        ),
    ];
    for (name, sub_header, run_fn) in parts {
        p.job(s, format!("ablation {name}"), seed, move || {
            let rows = run_fn(runs, seed);
            let mut lines = vec![sub_header.to_string()];
            let mut metrics = Vec::new();
            for r in &rows {
                let variant = r.variant.replace(' ', "_");
                lines.push(format!("{variant}  {:.2e}", r.ber));
                metrics.push((format!("ber:{variant}"), r.ber));
            }
            JobOutput {
                lines,
                metrics,
                work_items: 0, // mixed workloads per variant
                ..JobOutput::default()
            }
        });
    }
}

fn faults_section(p: &mut Plan, seed: u64, e: &Effort) {
    let s = p.section(
        "faults",
        vec![
            "# === Fault injection: uplink BER per scenario, mitigations off vs on ===".into(),
            "# scenario  severity  mitigations  ber  detected_runs".into(),
        ],
    );
    let runs = e.runs.min(2);
    for scenario in bs_channel::faults::PRESET_SCENARIOS {
        for severity in [0.5f64, 1.0] {
            for mitigated in [false, true] {
                let mit = if mitigated { "on" } else { "off" };
                p.job(
                    s,
                    format!("{scenario} s={severity:.2} {mit}"),
                    seed,
                    move || {
                        let pt = faults::fault_point(scenario, severity, mitigated, runs, seed);
                        JobOutput {
                            lines: vec![format!(
                                "{scenario}  {severity:.2}  {mit}  {:.2e}  {}",
                                pt.ber, pt.detected_runs
                            )],
                            metrics: vec![
                                ("ber".into(), pt.ber),
                                ("detected_runs".into(), pt.detected_runs as f64),
                            ],
                            work_items: runs * 30 * 10, // 30-bit payload × 10 packets/bit
                            degradation: Some(pt.report.to_json()),
                            ..JobOutput::default()
                        }
                    },
                );
            }
        }
    }
}

fn obs_section(p: &mut Plan, seed: u64, e: &Effort) {
    let s = p.section(
        "obs",
        vec![
            "# === Stage profiles: simulated time and work per pipeline stage ===".into(),
            "# profile: stage  spans  items  sim_us".into(),
        ],
    );
    let runs = e.runs.min(3);
    type ProfileFn = Box<dyn Fn() -> obs::ObsPoint + Send + Sync>;
    let profiles: Vec<(&str, ProfileFn)> = vec![
        (
            "uplink d=10cm",
            Box::new(move || obs::uplink_profile(0.1, runs, seed)),
        ),
        (
            "downlink d=50cm 20kbps",
            Box::new(move || obs::downlink_profile(0.5, 20_000, 2_000, runs, seed)),
        ),
        (
            "session close-range",
            Box::new(move || obs::session_profile(runs, seed)),
        ),
    ];
    for (name, profile) in profiles {
        p.job(s, format!("profile {name}"), seed, move || {
            let pt = profile();
            let mut lines = vec![format!("# -- {name} ({} runs) --", pt.runs)];
            for l in pt.stage_lines() {
                lines.push(format!("{name}: {l}"));
            }
            let work_items: u64 = pt.report.spans.iter().map(|s| s.items).sum();
            JobOutput {
                lines,
                metrics: vec![
                    ("distinct_stages".into(), pt.report.distinct_stages() as f64),
                    ("counters".into(), pt.report.counters.len() as f64),
                    ("ber".into(), pt.ber),
                ],
                work_items,
                obs: Some(pt.report.to_json()),
                ..JobOutput::default()
            }
        });
    }
}

fn net_section(p: &mut Plan, seed: u64, e: &Effort) {
    let s = p.section(
        "net",
        vec![
            "# === net: 1 KiB transfer goodput vs loss severity × ARQ window ===".into(),
            "# severity  window  goodput_bps  complete_runs  retx  dup_segments".into(),
        ],
    );
    let runs = e.runs.min(3);
    for severity in [0.0f64, 0.25, 0.5, 0.75, 1.0] {
        for window in [1usize, 4, 8, 16] {
            p.job(s, format!("s={severity:.2} w={window}"), seed, move || {
                let pt = net::net_point(severity, window, runs, seed);
                JobOutput {
                    lines: vec![format!(
                        "{severity:.2}  {window:>2}  {:9.1}  {}  {}  {}",
                        pt.goodput_bps, pt.complete_runs, pt.retransmissions, pt.duplicate_segments
                    )],
                    metrics: vec![
                        ("goodput_bps".into(), pt.goodput_bps),
                        ("complete_runs".into(), pt.complete_runs as f64),
                        ("retransmissions".into(), pt.retransmissions as f64),
                    ],
                    work_items: runs * net::MESSAGE_BYTES as u64,
                    degradation: Some(pt.report.to_json()),
                    ..JobOutput::default()
                }
            });
        }
    }
}

fn fec_section(p: &mut Plan, seed: u64, e: &Effort) {
    let s = p.section(
        "fec",
        vec![
            "# === fec: 1 KiB transfer goodput vs traffic regime × coding scheme ===".into(),
            "# regime  coding  severity  goodput_bps  complete_runs  repairs  decode_fails".into(),
        ],
    );
    let runs = e.runs.min(3);
    let codings = [
        fec::Coding::ArqOnly,
        fec::Coding::Fixed,
        fec::Coding::Adaptive,
    ];
    // Regime × coding grid at the acceptance severity.
    for regime in fec::REGIMES {
        for coding in codings {
            p.job(s, format!("{regime} {}", coding.label()), seed, move || {
                fec_job(fec::fec_point(regime, coding, 0.5, runs, seed))
            });
        }
    }
    // Severity sweep in the wild regime: the paired ARQ-vs-adaptive
    // comparison the conformance suite and the fec bench gate on.
    for severity in [0.0f64, 0.25, 0.75, 1.0] {
        for coding in [fec::Coding::ArqOnly, fec::Coding::Adaptive] {
            p.job(
                s,
                format!("wild {} s={severity:.2}", coding.label()),
                seed,
                move || fec_job(fec::fec_point("wild", coding, severity, runs, seed)),
            );
        }
    }
}

/// Renders one [`fec::FecPoint`] as a job line + metrics.
fn fec_job(pt: fec::FecPoint) -> JobOutput {
    JobOutput {
        lines: vec![format!(
            "{}  {}  {:.2}  {:9.1}  {}  {}  {}",
            pt.regime,
            pt.coding.label(),
            pt.severity,
            pt.goodput_bps,
            pt.complete_runs,
            pt.fec_repairs,
            pt.fec_decode_fails
        )],
        metrics: vec![
            ("goodput_bps".into(), pt.goodput_bps),
            ("complete_runs".into(), pt.complete_runs as f64),
            ("fec_repairs".into(), pt.fec_repairs as f64),
            ("fec_decode_fails".into(), pt.fec_decode_fails as f64),
        ],
        work_items: pt.per_run_goodput.len() as u64 * fec::MESSAGE_BYTES as u64,
        ..JobOutput::default()
    }
}

fn phy_section(p: &mut Plan, seed: u64, e: &Effort) {
    let s = p.section(
        "phy",
        vec![
            "# === phy: tag goodput vs helper-traffic rate, presence vs codeword translation ==="
                .into(),
            "# mode  helper_pps  bit_rate_bps  goodput_bps  detected_runs  bit_errors".into(),
        ],
    );
    let runs = e.runs.min(3);
    for &pps in phy::HELPER_PPS {
        for mode in [PhyConfig::Presence, PhyConfig::Codeword] {
            p.job(
                s,
                format!("{} pps={pps:.0}", mode.capabilities().name),
                seed,
                move || phy_job(phy::phy_point(&mode, pps, runs, seed)),
            );
        }
    }
}

/// Renders one [`phy::PhyPoint`] as a job line + metrics.
fn phy_job(pt: phy::PhyPoint) -> JobOutput {
    JobOutput {
        lines: vec![format!(
            "{}  {:.0}  {}  {:9.1}  {}  {}",
            pt.mode,
            pt.helper_pps,
            pt.bit_rate_bps,
            pt.goodput_bps,
            pt.detected_runs,
            pt.bit_errors
        )],
        metrics: vec![
            ("goodput_bps".into(), pt.goodput_bps),
            ("bit_rate_bps".into(), pt.bit_rate_bps as f64),
            ("detected_runs".into(), pt.detected_runs as f64),
            ("bit_errors".into(), pt.bit_errors as f64),
        ],
        work_items: pt.per_run_goodput.len() as u64 * phy::PAYLOAD_BITS as u64,
        ..JobOutput::default()
    }
}

fn fleet_section(p: &mut Plan, seed: u64, e: &Effort) {
    let s = p.section(
        "fleet",
        vec![
            "# === fleet: aggregate goodput, fairness and tail latency vs population ===".into(),
            "# gateways  tags  goodput_bps  fairness  p50_us  p99_us  handoffs  truncated  digest"
                .into(),
        ],
    );
    // Full effort adds the 10⁵-tag acceptance point; quick/tiny efforts
    // stop at the debug-budget populations.
    let mut pops: Vec<(usize, usize)> = fleet::POPULATIONS.to_vec();
    if e.runs >= 20 {
        pops.push((500, 200));
    }
    for (gateways, tpg) in pops {
        p.job(s, format!("fleet {gateways}x{tpg}"), seed, move || {
            let pt = fleet::fleet_point(gateways, tpg, 1, seed);
            JobOutput {
                lines: vec![format!(
                    "{:>4}  {:>6}  {:10.1}  {:.4}  {:10.1}  {:10.1}  {:>5}  {:>3}  {:016x}",
                    pt.gateways,
                    pt.tags,
                    pt.goodput_bps,
                    pt.fairness,
                    pt.p50_us,
                    pt.p99_us,
                    pt.handoffs,
                    pt.truncated_gateway_epochs,
                    pt.digest
                )],
                metrics: vec![
                    ("goodput_bps".into(), pt.goodput_bps),
                    ("fairness".into(), pt.fairness),
                    ("p99_us".into(), pt.p99_us),
                    ("handoffs".into(), pt.handoffs as f64),
                    (
                        "truncated_gateway_epochs".into(),
                        pt.truncated_gateway_epochs as f64,
                    ),
                ],
                work_items: pt.tags as u64 * fleet::EPOCHS as u64,
                ..JobOutput::default()
            }
        });
    }
}

fn energy_section(p: &mut Plan, seed: u64) {
    let s = p.section(
        "energy",
        vec![
            "# === energy: goodput, poll waste and brownouts vs harvest regime × polling ==="
                .into(),
            "# regime  policy  tags  goodput_bps  poll_waste  brownouts_per_tag  recoveries  digest"
                .into(),
        ],
    );
    for &(regime, tx_dbm, ambient_uw) in energy::REGIMES {
        for policy in [
            bs_net::gateway::PollingPolicy::Naive,
            bs_net::gateway::PollingPolicy::EnergyAware,
        ] {
            let label = match policy {
                bs_net::gateway::PollingPolicy::Naive => "naive",
                bs_net::gateway::PollingPolicy::EnergyAware => "aware",
            };
            p.job(s, format!("energy {regime} {label}"), seed, move || {
                let pt = energy::energy_point(regime, tx_dbm, ambient_uw, policy, seed);
                JobOutput {
                    lines: vec![format!(
                        "{:>7}  {:>5}  {:>4}  {:10.1}  {:.4}  {:8.3}  {:>5}  {:016x}",
                        pt.regime,
                        label,
                        pt.tags,
                        pt.goodput_bps,
                        pt.poll_waste,
                        pt.brownout_rate,
                        pt.recoveries,
                        pt.digest
                    )],
                    metrics: vec![
                        ("goodput_bps".into(), pt.goodput_bps),
                        ("poll_waste".into(), pt.poll_waste),
                        ("brownouts_per_tag".into(), pt.brownout_rate),
                        ("missed_polls".into(), pt.missed_polls as f64),
                    ],
                    work_items: pt.tags as u64 * energy::EPOCHS as u64,
                    ..JobOutput::default()
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_effort() -> Effort {
        Effort {
            runs: 1,
            dl_kbits: 1,
            fig19_s: 0.1,
            fp_hours: vec![14.0],
            office_step_h: 8.0,
        }
    }

    #[test]
    fn plan_covers_all_figures() {
        let figs: Vec<String> = ALL_FIGURES.iter().map(|f| f.to_string()).collect();
        let p = plan(&figs, &tiny_effort(), 1).unwrap();
        // One section per fig, except figs 4/10/19 which have two each.
        assert_eq!(p.sections.len(), ALL_FIGURES.len() + 3);
        for fig in ALL_FIGURES {
            assert!(
                p.jobs.iter().any(|j| j.fig == *fig),
                "no jobs planned for {fig}"
            );
        }
        // Fig. 10 decomposes into 2 measurements × 3 ppb × 7 distances.
        assert_eq!(p.jobs.iter().filter(|j| j.fig == "fig10").count(), 42);
        // Fig. 17 into 3 rates × 9 distances.
        assert_eq!(p.jobs.iter().filter(|j| j.fig == "fig17").count(), 27);
    }

    #[test]
    fn plan_rejects_unknown_figure() {
        match plan(&["fig99".to_string()], &tiny_effort(), 1) {
            Err(err) => assert!(err.contains("fig99"), "{err}"),
            Ok(_) => panic!("fig99 should be rejected"),
        }
    }

    #[test]
    fn render_groups_lines_by_section_in_job_order() {
        let sections = vec![
            Section {
                fig: "a".into(),
                header: vec!["# === A ===".into()],
                footer: None,
            },
            Section {
                fig: "b".into(),
                header: vec!["# === B ===".into()],
                footer: Some(Box::new(|recs| vec![format!("# {} rows", recs.len())])),
            },
        ];
        let rec = |section: usize, job_index: usize, line: &str| RunRecord {
            fig: String::new(),
            section,
            label: String::new(),
            seed: 0,
            job_index,
            wall_s: 0.0,
            work_items: 0,
            degradation: None,
            obs: None,
            metrics: Vec::new(),
            lines: vec![line.to_string()],
        };
        let records = vec![rec(0, 0, "a0"), rec(1, 1, "b0"), rec(0, 2, "a1")];
        assert_eq!(
            render(&sections, &records),
            "\n# === A ===\na0\na1\n\n# === B ===\nb0\n# 1 rows\n"
        );
    }
}
