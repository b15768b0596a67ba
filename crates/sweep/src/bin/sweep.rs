//! The `bitwave-sweep` binary: coordinator and worker modes of the sharded
//! whole-accelerator hardware sweep.
//!
//! ```bash
//! # Coordinator: run the tiny space with 2 in-process workers, print the
//! # final front report as JSON.
//! bitwave-sweep --store-root /tmp/sweep --space tiny --workers 2
//!
//! # Extra worker processes against the same root (any number, any time —
//! # they cooperate through claim files and re-steal crashed peers' work):
//! bitwave-sweep --store-root /tmp/sweep --space tiny --worker
//! ```
//!
//! The coordinator drives the sweep to completion itself (`--workers N`
//! spawns N−1 extra in-process workers alongside it), streams partial-front
//! lines to stderr with `--watch`, writes the final [`FrontReport`] JSON to
//! stdout (or `--out FILE`), and `--menus FILE` exports the
//! instruction-memory menu of every front member.

use bitwave_sweep::run::{run_with_progress_opts, run_worker, EvalOptions, FrontReport};
use bitwave_sweep::{MenuRow, SweepConfig};
use serde::Serialize;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: bitwave-sweep --store-root DIR [--space tiny|small|full] \
                     [--config FILE] [--portfolio a,b,...] [--seed N] [--sample-cap N] \
                     [--ttl-ms N] [--worker] [--workers N] [--threads N] \
                     [--watch] [--out FILE] [--menus FILE]\n\
                     \n\
                     Whole-accelerator hardware design-space sweep, sharded across \
                     any number of worker processes coordinating through one shared \
                     --store-root.  Default mode is the coordinator: it works the \
                     sweep to completion (spawning N-1 extra in-process workers with \
                     --workers N), then prints the final Pareto-front report as JSON. \
                     --worker runs one worker pass and exits (start any number \
                     against the same root; crashed workers' claims expire after \
                     --ttl-ms and are re-stolen).  --config FILE loads a full \
                     SweepConfig JSON instead of a preset; --portfolio/--seed/\
                     --sample-cap/--ttl-ms override either.  --threads N fans \
                     candidate evaluations across N scoped threads per worker \
                     (byte-neutral: any thread count reproduces the sequential \
                     report exactly).  --watch streams one partial-front JSON line to \
                     stderr per landed result.";

/// One front member's instruction-memory menu (`--menus` export row).
#[derive(Serialize)]
struct MenuExport {
    index: usize,
    label: String,
    menu: Vec<MenuRow>,
}

struct Cli {
    config: SweepConfig,
    store_root: Option<PathBuf>,
    worker: bool,
    workers: usize,
    eval: EvalOptions,
    watch: bool,
    out: Option<PathBuf>,
    menus: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        config: SweepConfig::tiny(),
        store_root: None,
        worker: false,
        workers: 1,
        eval: EvalOptions::default(),
        watch: false,
        out: None,
        menus: None,
    };
    let mut i = 0usize;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--help" | "-h" => return Err(USAGE.to_string()),
            "--worker" => {
                cli.worker = true;
                i += 1;
                continue;
            }
            "--watch" => {
                cli.watch = true;
                i += 1;
                continue;
            }
            _ => {}
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("missing value for {flag}\n{USAGE}"))?;
        let parse_u64 = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a non-negative integer, got `{value}`"))
        };
        match flag {
            "--store-root" => cli.store_root = Some(PathBuf::from(value)),
            "--space" => {
                cli.config = SweepConfig::preset(value)
                    .ok_or_else(|| format!("unknown --space `{value}` (tiny|small|full)"))?;
            }
            "--config" => {
                let text = std::fs::read_to_string(value)
                    .map_err(|e| format!("reading --config {value}: {e}"))?;
                cli.config = serde_json::from_str(&text)
                    .map_err(|e| format!("parsing --config {value}: {e}"))?;
            }
            "--portfolio" => {
                cli.config.portfolio = value.split(',').map(str::to_string).collect();
            }
            "--seed" => cli.config.seed = parse_u64()?,
            "--sample-cap" => cli.config.sample_cap = parse_u64()? as usize,
            "--ttl-ms" => cli.config.claim_ttl_ms = parse_u64()?.max(1),
            "--workers" => cli.workers = (parse_u64()? as usize).max(1),
            "--threads" => cli.eval.threads = (parse_u64()? as usize).max(1),
            "--out" => cli.out = Some(PathBuf::from(value)),
            "--menus" => cli.menus = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
        i += 2;
    }
    if cli.store_root.is_none() && (cli.worker || cli.workers > 1) {
        return Err(format!(
            "--worker/--workers need a shared --store-root\n{USAGE}"
        ));
    }
    Ok(cli)
}

fn render_report(report: &FrontReport) -> String {
    let mut json = serde_json::to_string_pretty(report).unwrap_or_else(|_| "{}".to_string());
    json.push('\n');
    json
}

fn run(cli: Cli) -> Result<(), String> {
    let total = cli.config.total_points();
    let sweep = cli.config.digest().to_hex();
    if cli.worker {
        let root = cli.store_root.as_deref().expect("checked in parse_args");
        let stats =
            run_worker(&cli.config, root, cli.eval).map_err(|e| format!("worker failed: {e}"))?;
        println!(
            "worker done: sweep {sweep} evaluated {} reused {} stolen {} of {total}",
            stats.evaluated, stats.reused, stats.stolen
        );
        return Ok(());
    }
    eprintln!("sweep {sweep}: {total} points, {} workers", cli.workers);
    // Extra in-process workers alongside the coordinator's own loop.
    let extra: Vec<_> = (1..cli.workers)
        .map(|_| {
            let config = cli.config.clone();
            let root = cli.store_root.clone().expect("checked in parse_args");
            let eval = cli.eval;
            std::thread::spawn(move || run_worker(&config, &root, eval))
        })
        .collect();
    let watch = cli.watch;
    let (report, stats) =
        run_with_progress_opts(&cli.config, cli.store_root.as_deref(), cli.eval, |frame| {
            if watch {
                if let Ok(line) = serde_json::to_string(frame) {
                    eprintln!("{line}");
                }
            }
        })
        .map_err(|e| format!("sweep failed: {e}"))?;
    for handle in extra {
        handle
            .join()
            .map_err(|_| "worker thread panicked".to_string())?
            .map_err(|e| format!("worker failed: {e}"))?;
    }
    eprintln!(
        "coordinator: evaluated {} reused {} stolen {}; front {} of {} feasible",
        stats.evaluated,
        stats.reused,
        stats.stolen,
        report.front.len(),
        report.feasible_points
    );
    let rendered = render_report(&report);
    match &cli.out {
        Some(path) => std::fs::write(path, &rendered)
            .map_err(|e| format!("writing --out {}: {e}", path.display()))?,
        None => {
            let mut stdout = std::io::stdout();
            stdout
                .write_all(rendered.as_bytes())
                .map_err(|e| format!("writing report: {e}"))?;
        }
    }
    if let Some(path) = &cli.menus {
        let menus: Vec<MenuExport> = report
            .front
            .iter()
            .map(|r| MenuExport {
                index: r.index,
                label: r.label.clone(),
                menu: r.menu.clone(),
            })
            .collect();
        let mut text =
            serde_json::to_string_pretty(&menus).map_err(|e| format!("rendering --menus: {e}"))?;
        text.push('\n');
        std::fs::write(path, text)
            .map_err(|e| format!("writing --menus {}: {e}", path.display()))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
