//! Regenerates every figure of the paper's evaluation, in parallel.
//!
//! ```text
//! experiments all                    # every figure, paper-faithful effort
//! experiments quick                  # every figure at reduced run counts
//! experiments fig10 [seed]           # one figure (positional, back-compat)
//! experiments --figs fig10,fig17     # a subset
//! experiments --jobs 8               # worker count (default: all cores)
//! experiments --seed 42              # master seed (default 20140817)
//! experiments --json out/            # also write out/records.jsonl
//! ```
//!
//! Output is gnuplot-style whitespace-separated tables on stdout, one
//! section per figure, with `#` comment headers — byte-identical for any
//! `--jobs` value (the harness guarantee; see `bs_bench::harness`).
//! EXPERIMENTS.md records a captured run against the paper's numbers and
//! documents the JSON-lines schema behind `--json`.

use bs_bench::harness::{plan, render, run_jobs, Effort, ALL_FIGURES};

/// Parsed command line.
struct Cli {
    figs: Vec<String>,
    effort: Effort,
    seed: u64,
    jobs: usize,
    json_dir: Option<String>,
}

fn main() {
    let cli = match parse(std::env::args().skip(1).collect()) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: experiments [all|quick|<fig>] [seed] \
                       [--figs a,b] [--jobs N] [--seed S] [--json DIR]"
            );
            std::process::exit(2);
        }
    };

    let plan = match plan(&cli.figs, &cli.effort, cli.seed) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };
    let sections = plan.sections;
    let records = run_jobs(plan.jobs, cli.jobs).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    print!("{}", render(&sections, &records));

    if let Some(dir) = cli.json_dir {
        let path = std::path::Path::new(&dir).join("records.jsonl");
        let mut body = String::new();
        for r in &records {
            body.push_str(&r.to_json_line());
            body.push('\n');
        }
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
            eprintln!("error: writing {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("# wrote {} records to {}", records.len(), path.display());
    }
}

/// Parses flags plus the legacy positional `[mode] [seed]` form.
fn parse(args: Vec<String>) -> Result<Cli, String> {
    let mut figs: Option<Vec<String>> = None;
    let mut effort: Option<Effort> = None;
    let mut seed: Option<u64> = None;
    let mut jobs: Option<usize> = None;
    let mut json_dir = None;
    let mut positional = Vec::new();

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut flag_value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--figs" => {
                figs = Some(
                    flag_value("--figs")?
                        .split(',')
                        .map(str::to_string)
                        .collect(),
                );
            }
            "--jobs" => {
                let v = flag_value("--jobs")?;
                jobs = Some(v.parse().map_err(|_| format!("bad --jobs value '{v}'"))?);
            }
            "--seed" => {
                let v = flag_value("--seed")?;
                seed = Some(v.parse().map_err(|_| format!("bad --seed value '{v}'"))?);
            }
            "--json" => json_dir = Some(flag_value("--json")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => positional.push(arg),
        }
    }

    // Legacy positional form: `experiments [all|quick|<fig>] [seed]`.
    match positional.first().map(String::as_str) {
        None => {}
        Some("all") => effort = Some(Effort::full()),
        Some("quick") => effort = Some(Effort::quick()),
        Some(fig) => {
            if figs.is_some() {
                return Err("give either a positional figure or --figs, not both".into());
            }
            figs = Some(vec![fig.to_string()]);
        }
    }
    if let Some(s) = positional.get(1) {
        if seed.is_some() {
            return Err("give either a positional seed or --seed, not both".into());
        }
        seed = Some(s.parse().map_err(|_| format!("bad seed '{s}'"))?);
    }
    if positional.len() > 2 {
        return Err(format!("unexpected argument '{}'", positional[2]));
    }

    Ok(Cli {
        figs: figs.unwrap_or_else(|| ALL_FIGURES.iter().map(|f| f.to_string()).collect()),
        effort: effort.unwrap_or_else(Effort::quick),
        seed: seed.unwrap_or(20140817), // SIGCOMM'14 began August 17, 2014
        jobs: jobs.unwrap_or_else(bs_dsp::par::available_jobs),
        json_dir,
    })
}
