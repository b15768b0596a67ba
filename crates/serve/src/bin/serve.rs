//! The `serve` binary: runs the BitWave evaluation service.
//!
//! ```bash
//! cargo run --release --bin serve -- --addr 127.0.0.1:8787 --workers 4
//! ```
//!
//! The first stdout line is always `listening on http://<addr>` (with the
//! resolved port when `--addr` used port 0), so scripts can scrape the
//! address of an ephemeral-port instance.

use bitwave_serve::server::{start, ServeConfig};
use std::process::ExitCode;

const USAGE: &str = "usage: serve [--addr HOST:PORT] [--workers N] \
                     [--queue-capacity N] [--cache-capacity N] [--store-capacity N] \
                     [--store-root DIR] [--max-inflight N] [--rate-limit N]\n\
                     \n\
                     Serves the BitWave evaluation API (see crates/serve).  \
                     --addr defaults to 127.0.0.1:0 (ephemeral port; the bound \
                     address is printed on the first stdout line).  --store-root \
                     (or the BITWAVE_STORE_ROOT environment variable) enables the \
                     persistent tiered cache: evaluate/search responses and \
                     completed design sweeps survive restarts under DIR and \
                     replay byte-identically (evaluate/search replays answer \
                     X-Bitwave-Cache: disk).  \
                     --workers sets the compute threads, which run evaluations, \
                     searches and design sweeps alike.  \
                     --queue-capacity caps open connections (overflow → 503), \
                     --max-inflight caps dispatched computations (excess → 503 + \
                     Retry-After), and --rate-limit sets a per-client \
                     token-bucket budget in compute requests/second, design \
                     requests included (over-budget → 429 + Retry-After; off by \
                     default).";

fn parse_args(args: &[String]) -> Result<ServeConfig, String> {
    let mut config = ServeConfig::default();
    // The flag (below) overrides the environment.
    if let Ok(root) = std::env::var("BITWAVE_STORE_ROOT") {
        if !root.trim().is_empty() {
            config.store_root = Some(root);
        }
    }
    let mut i = 0usize;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--help" || flag == "-h" {
            return Err(USAGE.to_string());
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("missing value for {flag}\n{USAGE}"))?;
        let parse_usize = || {
            value
                .parse::<usize>()
                .map_err(|_| format!("{flag} expects a positive integer, got `{value}`"))
        };
        match flag {
            "--addr" => config.addr = value.clone(),
            "--workers" => config.workers = parse_usize()?.max(1),
            "--queue-capacity" => config.queue_capacity = parse_usize()?.max(1),
            "--cache-capacity" => config.cache_capacity = parse_usize()?.max(1),
            "--store-capacity" => config.store_capacity = parse_usize()?.max(1),
            "--store-root" => config.store_root = Some(value.clone()),
            "--max-inflight" => config.max_inflight = parse_usize()?.max(1),
            "--rate-limit" => {
                let rate = value
                    .parse::<u32>()
                    .map_err(|_| format!("{flag} expects a positive integer, got `{value}`"))?;
                config.rate_limit = Some(rate.max(1));
            }
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
        i += 2;
    }
    Ok(config)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let workers = config.workers;
    let store_root = config.store_root.clone();
    let handle = match start(config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on http://{}", handle.local_addr());
    println!(
        "workers: {workers}   store: {}   endpoints: POST /v1/evaluate, POST /v1/search, \
         POST /v1/design, GET /v1/reports/{{digest}}, GET /v1/models, GET /v1/accelerators, GET /healthz, \
         GET /metrics",
        store_root.as_deref().unwrap_or("memory-only")
    );
    // Serve until killed; the event-loop and compute-worker threads do all
    // the work.
    loop {
        std::thread::park();
    }
}
