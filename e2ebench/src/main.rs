//! End-to-end and per-layer benchmark of `bitwave-serve`; see README.md.
//!
//! `e2ebench --serve-bin <serve> --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>` sets the server up several times, drives one closed loop
//! (one client, one keep-alive connection) for `--seconds`, checks every
//! answer, and prints each metric with its unit and, as the last stdout
//! line, the JSON result.  `--trace 1` adds the in-process replays that
//! time each layer and prints the per-layer metrics instead.

mod client;
mod inproc;
mod server;
mod trace;
mod workload;

use client::{Conn, Reply};
use inproc::{front_digest, report_digest, Mode};
use server::Server;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{ReplayStream, Workload, REPLAY_CACHE_CAPACITY, REPLAY_KEYS, WARMUP_BASE};

/// Seed whose reference checks are committed in `reference.tsv`.
const DEFAULT_SEED: u64 = 1;
/// Committed reference checks: `workload seed op check` per line.
const REFERENCE: &str = include_str!("../reference.tsv");
/// Set-ups per run; `setup_s` is the median of the least-stolen half.
const SETUPS: usize = 9;
/// Set-ups timed before the measured loop (the last one serves it); the
/// rest are timed after it, so that `setup_s` samples the host over the
/// whole run, as the loop's metrics do.
const SETUPS_BEFORE: usize = 5;
/// Length of a measurement window: the loop's end-to-end metrics are taken
/// over its least-stolen windows (see [`quietest`]).
const WINDOW: Duration = Duration::from_millis(500);
/// A run keeps measuring past `--seconds` until it has this many ops, so
/// that ten samples lie beyond p90.
const MIN_OPS: usize = 100;
/// Hard stop of the measured loop, well inside the 180 s run limit.
const MAX_LOOP: Duration = Duration::from_secs(60);
/// Output directory (spans, run records, temporary store roots).
const OUT_DIR: &str = ".bench_out";
/// `/metrics` families reported as per-run deltas.
const METRIC_FAMILIES: [&str; 4] = [
    "bitwave_store_",
    "bitwave_dse_memo_",
    "bitwave_sweep_",
    "bitwave_tensor_deep_copies_total",
];

struct Args {
    serve_bin: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut serve_bin = None;
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 10u64, false);
    for pair in argv.chunks(2) {
        let value = pair
            .get(1)
            .ok_or_else(|| format!("missing value for {}", pair[0]))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{}: {e}", pair[0]))
        };
        match pair[0].as_str() {
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        serve_bin: serve_bin.ok_or("missing --serve-bin")?,
        workload: workload.ok_or("missing --workload")?,
        seed,
        seconds,
        trace,
    })
}

/// Which tier answered, from `X-Bitwave-Cache`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Miss,
    Hit,
    Disk,
    Other,
}

/// One measured op.
struct Op {
    /// The op index, or for replay the key index.
    key: u64,
    latency_ns: u64,
    status: u16,
    tier: Tier,
    /// Evaluate `report_digest` / design front digest, compared with the
    /// reference after the loop.
    check: Option<String>,
    /// NDJSON lines of a design stream.
    frames: u32,
    ok: bool,
}

/// The in-process replay's name for a tier.
fn tier_name(tier: Tier) -> &'static str {
    match tier {
        Tier::Hit => "hit",
        Tier::Disk => "disk",
        Tier::Miss | Tier::Other => "other",
    }
}

fn tier_of(reply: &Reply) -> Tier {
    match reply.cache.as_deref() {
        Some("miss") => Tier::Miss,
        Some("hit") => Tier::Hit,
        Some("disk") => Tier::Disk,
        _ => Tier::Other,
    }
}

/// Checks one reply as far as it can be checked in the loop.
fn inspect(
    workload: Workload,
    reply: &Reply,
    cold_body: Option<&[u8]>,
) -> (bool, Option<String>, u32) {
    let tier = tier_of(reply);
    if reply.status != 200 {
        return (false, None, 0);
    }
    match workload {
        Workload::EvaluateBitflip | Workload::EvaluateLossless => {
            let check = report_digest(&reply.body).map(str::to_string);
            (tier == Tier::Miss && check.is_some(), check, 0)
        }
        Workload::Design => {
            let lines: Vec<&[u8]> = reply
                .body
                .split(|&b| b == b'\n')
                .filter(|l| !l.is_empty())
                .collect();
            let last = lines.last().copied().unwrap_or_default();
            let ok = last.starts_with(br#"{"schema":"#);
            (ok, Some(front_digest(last)), lines.len() as u32)
        }
        Workload::Replay => {
            let ok = matches!(tier, Tier::Hit | Tier::Disk) && cold_body == Some(&reply.body[..]);
            (ok, None, 0)
        }
    }
}

/// A set-up server with its connection, and for replay the cold bodies.
struct Ready {
    server: Server,
    conn: Conn,
    replay_requests: Vec<String>,
    cold_bodies: Vec<Vec<u8>>,
}

/// Starts a fresh server (with a fresh store root for replay), connects,
/// and runs the fixed warm-up on seeds outside the measured sequence; for
/// replay, populates the store with the cold responses of every key.
fn set_up(args: &Args, attempt: usize) -> Result<Ready, String> {
    let replay = args.workload == Workload::Replay;
    let root =
        replay.then(|| PathBuf::from(format!("{OUT_DIR}/store-{}-{attempt}", std::process::id())));
    let server = Server::start(
        &args.serve_bin,
        root,
        replay.then_some(REPLAY_CACHE_CAPACITY),
    )
    .map_err(|e| format!("starting the server: {e}"))?;
    let mut conn = Conn::connect(server.addr()).map_err(|e| format!("connecting: {e}"))?;
    let path = args.workload.path();
    for j in 0..args.workload.warmup_ops() {
        let body = args.workload.body(args.seed, WARMUP_BASE + j);
        let reply = conn
            .request("POST", path, body.as_bytes())
            .map_err(|e| format!("warm-up: {e}"))?;
        if !inspect(args.workload, &reply, None).0 {
            return Err(format!("warm-up op failed with status {}", reply.status));
        }
    }
    let mut replay_requests = Vec::new();
    let mut cold_bodies = Vec::new();
    if replay {
        for key in 0..REPLAY_KEYS {
            let body = Workload::Replay.body(args.seed, key);
            let reply = conn
                .request("POST", path, body.as_bytes())
                .map_err(|e| format!("populating: {e}"))?;
            if reply.status != 200 || tier_of(&reply) != Tier::Miss {
                return Err(format!("populating key {key}: status {}", reply.status));
            }
            replay_requests.push(body);
            cold_bodies.push(reply.body);
        }
    }
    Ok(Ready {
        server,
        conn,
        replay_requests,
        cold_bodies,
    })
}

/// A stretch of the measured loop of about [`WINDOW`]: the ops that
/// completed in it, and the host's CPU steal and the server's CPU time
/// over it.
struct Window {
    /// Ops `first..end` completed in this window.
    first: usize,
    end: usize,
    secs: f64,
    /// Host-wide steal share of all CPU ticks.
    steal: f64,
    cpu_s: f64,
}

/// What the measured loop returns.
struct Loop {
    ops: Vec<Op>,
    windows: Vec<Window>,
    /// The server's peak RSS once the first [`MIN_OPS`] ops are done: a
    /// fixed amount of work, so that a faster server, which fills more of
    /// its report cache in `--seconds`, does not read as a bigger one.
    rss_mb: f64,
}

/// The closed loop: one request at a time until `--seconds` have passed
/// and at least [`MIN_OPS`] ops completed, cut into [`WINDOW`]s.
fn measure(args: &Args, ready: &mut Ready) -> Result<Loop, String> {
    let deadline = Duration::from_secs(args.seconds);
    let path = args.workload.path();
    let mut stream = ReplayStream::new(args.seed);
    let mut ops = Vec::new();
    let mut windows: Vec<Window> = Vec::new();
    let cpu = |server: &Server| server.cpu_seconds().map_err(|e| e.to_string());
    let start = Instant::now();
    // Start time, host ticks and server CPU seconds of the open window.
    let mut mark = (start, cpu_ticks(), cpu(&ready.server)?);
    let mut window_start = start;
    let peak_rss = |server: &Server| server.peak_rss_mb().map_err(|e| e.to_string());
    let mut rss_mb = None;
    let mut close = |windows: &mut Vec<Window>, end: usize| -> Result<(), String> {
        let (now, ticks, cpu_s) = (Instant::now(), cpu_ticks(), cpu(&ready.server)?);
        windows.push(Window {
            first: windows.last().map_or(0, |w| w.end),
            end,
            secs: now.duration_since(mark.0).as_secs_f64(),
            steal: steal_share(mark.1, ticks),
            cpu_s: cpu_s - mark.2,
        });
        mark = (now, ticks, cpu_s);
        Ok(())
    };
    while (start.elapsed() < deadline || ops.len() < MIN_OPS) && start.elapsed() < MAX_LOOP {
        let index = ops.len() as u64;
        let (key, body, cold) = if args.workload == Workload::Replay {
            let key = stream.next_key();
            (
                key,
                ready.replay_requests[key as usize].clone(),
                Some(&ready.cold_bodies[key as usize][..]),
            )
        } else {
            (index, args.workload.body(args.seed, index), None)
        };
        let sent = Instant::now();
        let reply = ready.conn.request("POST", path, body.as_bytes());
        let latency_ns = sent.elapsed().as_nanos() as u64;
        let op = match reply {
            Ok(reply) => {
                let (ok, check, frames) = inspect(args.workload, &reply, cold);
                Op {
                    key,
                    latency_ns,
                    status: reply.status,
                    tier: tier_of(&reply),
                    check,
                    frames,
                    ok,
                }
            }
            Err(e) => {
                eprintln!("op {index}: {e}");
                Op {
                    key,
                    latency_ns,
                    status: 0,
                    tier: Tier::Other,
                    check: None,
                    frames: 0,
                    ok: false,
                }
            }
        };
        ops.push(op);
        if ops.len() == MIN_OPS {
            rss_mb = Some(peak_rss(&ready.server)?);
        }
        if window_start.elapsed() >= WINDOW {
            close(&mut windows, ops.len())?;
            window_start = Instant::now();
        }
    }
    if windows.last().map_or(0, |w| w.end) < ops.len() {
        close(&mut windows, ops.len())?;
    }
    let rss_mb = match rss_mb {
        Some(rss_mb) => rss_mb,
        None => peak_rss(&ready.server)?,
    };
    Ok(Loop {
        ops,
        windows,
        rss_mb,
    })
}

/// The windows the end-to-end metrics are taken over, in time order: the
/// least-stolen ones, until they hold at least a third of the run's ops
/// and at least [`MIN_OPS`], plus every window no more stolen than the
/// last one taken (so a quiet run uses all of its windows).  Other guests
/// on a shared host take CPU from this one in bursts of seconds to minutes
/// (see README.md); ranking windows by the host's own steal counter, not
/// by their latency, keeps the metrics on the program's time without
/// picking its fast ops.
fn quietest(windows: &[Window]) -> Vec<&Window> {
    let ops = windows.last().map_or(0, |w| w.end);
    let need = ops.div_ceil(3).max(MIN_OPS);
    let mut order: Vec<&Window> = windows.iter().collect();
    order.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    let mut taken = 0;
    let threshold = order
        .iter()
        .find(|w| {
            taken += w.end - w.first;
            taken >= need
        })
        .map_or(f64::INFINITY, |w| w.steal);
    windows.iter().filter(|w| w.steal <= threshold).collect()
}

/// Parsed `op` line of an in-process replay.
struct InprocOp {
    index: u64,
    wall_ns: u64,
    check: String,
    layers: Vec<(String, u64)>,
    counts: Vec<(String, u64)>,
}

#[derive(Default)]
struct InprocRun {
    ops: Vec<InprocOp>,
    /// Replay: key index → digest of the in-process cold body.
    keys: Vec<(u64, String)>,
    /// Replay: ns per populated store entry.
    writes_ns: Vec<u64>,
}

impl InprocRun {
    fn append(&mut self, other: InprocRun) {
        self.ops.extend(other.ops);
        self.keys.extend(other.keys);
        self.writes_ns.extend(other.writes_ns);
    }
}

fn parse_pairs(field: &str) -> Vec<(String, u64)> {
    field
        .split(';')
        .filter_map(|kv| kv.split_once('='))
        .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
        .collect()
}

/// Runs in-process replays of ops `from..to` in child processes of this
/// binary; `jobs` children split the ops between them and run at once.
fn run_inproc(
    args: &Args,
    mode: Mode,
    from: u64,
    to: u64,
    jobs: u64,
    spans: Option<&Path>,
) -> Result<InprocRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let children: Vec<_> = (0..jobs.max(1))
        .filter(|j| from + j < to)
        .map(|j| {
            let mut command = Command::new(&exe);
            command.args([
                "inproc",
                "--workload",
                args.workload.name(),
                "--seed",
                &args.seed.to_string(),
                "--mode",
                mode.name(),
                "--from",
                &(from + j).to_string(),
                "--to",
                &to.to_string(),
                "--step",
                &jobs.max(1).to_string(),
            ]);
            if let Some(spans) = spans {
                command.arg("--spans").arg(spans);
            }
            command
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("spawning the in-process replay: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let mut run = InprocRun::default();
    let mut failure = None;
    for child in children {
        let output = child.wait_with_output().map_err(|e| e.to_string())?;
        if !output.status.success() {
            failure = Some(format!("in-process {} replay failed", mode.name()));
            continue;
        }
        for line in String::from_utf8_lossy(&output.stdout).lines() {
            let f: Vec<&str> = line.split('\t').collect();
            let num = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
            match f.first().copied() {
                Some("op") if f.len() == 6 => run.ops.push(InprocOp {
                    index: num(1),
                    wall_ns: num(2),
                    check: f[3].to_string(),
                    layers: parse_pairs(f[4]),
                    counts: parse_pairs(f[5]),
                }),
                Some("key") if f.len() == 3 => run.keys.push((num(1), f[2].to_string())),
                Some("write") if f.len() == 3 => run.writes_ns.push(num(2)),
                _ => {}
            }
        }
    }
    if let Some(failure) = failure {
        return Err(failure);
    }
    run.ops.sort_by_key(|op| op.index);
    Ok(run)
}

/// The committed reference checks of `workload` at the default seed.
fn committed_reference(workload: Workload) -> Vec<String> {
    REFERENCE
        .lines()
        .filter_map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            (f.len() == 4 && f[0] == workload.name() && f[1] == DEFAULT_SEED.to_string())
                .then(|| f[3].to_string())
        })
        .collect()
}

/// Compares every evaluate/design op with its reference check: committed
/// for the default seed, recomputed in-process otherwise.  `known` holds
/// checks an earlier in-process replay of this run already produced.
fn verify(args: &Args, ops: &mut [Op], known: &HashMap<u64, String>) -> Result<(), String> {
    if args.workload == Workload::Replay {
        return Ok(());
    }
    let mut reference: Vec<Option<String>> = vec![None; ops.len()];
    if args.seed == DEFAULT_SEED {
        for (slot, check) in reference.iter_mut().zip(committed_reference(args.workload)) {
            *slot = Some(check);
        }
    }
    for (&index, check) in known {
        if let Some(slot) = reference.get_mut(index as usize) {
            slot.get_or_insert_with(|| check.clone());
        }
    }
    let first_missing = reference.iter().position(Option::is_none);
    if let Some(from) = first_missing {
        let run = run_inproc(
            args,
            Mode::Reference,
            from as u64,
            ops.len() as u64,
            2,
            None,
        )?;
        for op in run.ops {
            if let Some(slot) = reference.get_mut(op.index as usize) {
                slot.get_or_insert(op.check);
            }
        }
    }
    for (op, reference) in ops.iter_mut().zip(reference) {
        if op.check.is_none() || op.check != reference {
            op.ok = false;
        }
    }
    Ok(())
}

fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// `/metrics` samples of the reported families, by full series name.
fn scrape(conn: &mut Conn) -> HashMap<String, f64> {
    let Ok(reply) = conn.request("GET", "/metrics", b"") else {
        return HashMap::new();
    };
    String::from_utf8_lossy(&reply.body)
        .lines()
        .filter(|line| !line.starts_with('#'))
        .filter(|line| METRIC_FAMILIES.iter().any(|f| line.starts_with(f)))
        .filter_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

/// Host-wide CPU ticks from `/proc/stat`: (steal, total).  Time the
/// hypervisor gave this machine's CPUs to other guests shows up as steal.
fn cpu_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// The steal share of all CPU ticks between two [`cpu_ticks`] readings.
fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    after.0.saturating_sub(before.0) as f64 / after.1.saturating_sub(before.1).max(1) as f64
}

/// Pins this process and its future children (the server) to CPU 0.
fn pin_to_cpu0() -> bool {
    Command::new("taskset")
        .args(["-a", "-c", "-p", "0", &std::process::id().to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

fn json_string(s: &str) -> String {
    serde_json::to_string(s).unwrap_or_else(|_| "\"\"".to_string())
}

/// The host facts recorded with every result.
fn host_facts(nproc: usize, pinned: bool, ops: usize, steal: (f64, f64)) -> String {
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string());
    let commit = command_line("git", &["rev-parse", "HEAD"])
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    format!(
        r#"{{"nproc":{nproc},"cpu_model":{},"rustc":{},"commit":{},"pinned":{pinned},"ops_per_run":{ops},"steal_pct_during_loop":{},"steal_pct_in_quietest":{}}}"#,
        json_string(&cpu),
        json_string(&rustc),
        json_string(&commit),
        100.0 * steal.0,
        100.0 * steal.1,
    )
}

/// Metric name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// Throughput, latency and CPU metrics over the ops of `windows`.
fn timing(ops: &[Op], windows: &[&Window]) -> Vec<Metric> {
    let latencies: Vec<f64> = windows
        .iter()
        .flat_map(|w| &ops[w.first..w.end])
        .map(|op| op.latency_ns as f64 / 1e6)
        .collect();
    let n = latencies.len().max(1) as f64;
    let secs: f64 = windows.iter().map(|w| w.secs).sum();
    let cpu_s: f64 = windows.iter().map(|w| w.cpu_s).sum();
    vec![
        ("throughput_rps", n / secs.max(1e-9), "1/s"),
        ("latency_p50_ms", quantile(&latencies, 0.5), "ms"),
        ("latency_p90_ms", quantile(&latencies, 0.9), "ms"),
        ("cpu_ms_per_op", cpu_s * 1e3 / n, "ms"),
    ]
}

fn end_to_end(ops: &[Op], windows: &[&Window], rss_mb: f64, setup_s: f64) -> Vec<Metric> {
    let good = ops.iter().filter(|op| op.ok).count() as f64;
    let mut metrics = timing(ops, windows);
    metrics.extend([
        ("peak_rss_mb", rss_mb, "MiB"),
        ("success_rate", good / ops.len().max(1) as f64, "ratio"),
        ("setup_s", setup_s, "s"),
    ]);
    metrics
}

/// The per-layer metrics from the traced and untraced in-process replays
/// (each of ops `0..n`, twice) and the measured loop.
fn per_layer(
    workload: Workload,
    ops: &[Op],
    traced: &InprocRun,
    untraced: &InprocRun,
    deltas: &HashMap<String, f64>,
) -> Vec<Metric> {
    let n = traced.ops.len().max(1) as f64;
    let layer_ms = |name: &str| {
        let ns: u64 = traced
            .ops
            .iter()
            .flat_map(|op| &op.layers)
            .filter(|(k, _)| k == name)
            .map(|(_, v)| v)
            .sum();
        ns as f64 / n / 1e6
    };
    let count = |name: &str| {
        let total: u64 = traced
            .ops
            .iter()
            .flat_map(|op| &op.counts)
            .filter(|(k, _)| k == name)
            .map(|(_, v)| v)
            .sum();
        total as f64 / n
    };
    let paired = |f: &dyn Fn(&InprocOp, &Op) -> f64| -> f64 {
        let values: Vec<f64> = traced
            .ops
            .iter()
            .filter_map(|t| ops.get(t.index as usize).map(|op| f(t, op)))
            .collect();
        quantile(&values, 0.5)
    };
    let family = |name: &str| deltas.get(name).copied().unwrap_or(0.0);
    let (memo_hits, memo_misses) = (
        family("bitwave_dse_memo_hits_total"),
        family("bitwave_dse_memo_misses_total"),
    );
    let total = ops.len().max(1) as f64;
    let share = |tier: Tier| ops.iter().filter(|op| op.tier == tier).count() as f64 / total;
    let tier_p50_us = |tier: Tier| {
        let v: Vec<f64> = ops
            .iter()
            .filter(|op| op.tier == tier)
            .map(|op| op.latency_ns as f64 / 1e3)
            .collect();
        quantile(&v, 0.5)
    };
    let walls = |run: &InprocRun| run.ops.iter().map(|op| op.wall_ns as f64).sum::<f64>();
    let overhead_pct = if untraced.ops.is_empty() {
        0.0
    } else {
        100.0 * (walls(traced) - walls(untraced)) / walls(untraced)
    };
    let writes = &traced.writes_ns;
    let frames: Vec<f64> = ops.iter().map(|op| f64::from(op.frames)).collect();
    vec![
        ("dnn.generate_ms", layer_ms("dnn.generate"), "ms"),
        (
            "dnn.weights_generated",
            count("dnn.weights_generated"),
            "count",
        ),
        ("core.compress_ms", layer_ms("core.compress"), "ms"),
        ("core.groups", count("core.groups"), "count"),
        ("core.bitflip_ms", layer_ms("core.bitflip"), "ms"),
        (
            "core.bitflip_layers_flipped",
            count("core.bitflip_layers_flipped"),
            "count",
        ),
        ("dataflow.map_ms", layer_ms("dataflow.map"), "ms"),
        ("accel.simulate_ms", layer_ms("accel.simulate"), "ms"),
        ("bitwave.plan_ms", layer_ms("bitwave.plan"), "ms"),
        ("bitwave.report_ms", layer_ms("bitwave.report"), "ms"),
        (
            "bitwave.response_bytes",
            count("bitwave.response_bytes"),
            "bytes",
        ),
        ("sweep.portfolio_ms", layer_ms("sweep.portfolio"), "ms"),
        ("dse.factor_ms", layer_ms("dse.factor"), "ms"),
        ("dse.reprice_ms", layer_ms("dse.reprice"), "ms"),
        ("sweep.assemble_ms", layer_ms("sweep.assemble"), "ms"),
        (
            "sweep.points_evaluated",
            count("sweep.points_evaluated"),
            "count",
        ),
        ("dse.groups_factored", count("dse.groups_factored"), "count"),
        (
            "dse.memo_hit_ratio",
            if memo_hits + memo_misses > 0.0 {
                memo_hits / (memo_hits + memo_misses)
            } else {
                0.0
            },
            "ratio",
        ),
        ("store.memory_hit_ratio", share(Tier::Hit), "ratio"),
        ("store.disk_hit_ratio", share(Tier::Disk), "ratio"),
        ("store.memory_hit_p50_us", tier_p50_us(Tier::Hit), "us"),
        ("store.disk_hit_p50_us", tier_p50_us(Tier::Disk), "us"),
        (
            "store.disk_write_ms",
            writes.iter().sum::<u64>() as f64 / writes.len().max(1) as f64 / 1e6,
            "ms",
        ),
        (
            "serve.overhead_ms",
            paired(&|t, op| (op.latency_ns as f64 - t.wall_ns as f64) / 1e6),
            "ms",
        ),
        (
            "serve.stream_frames",
            if workload == Workload::Design {
                quantile(&frames, 0.5)
            } else {
                0.0
            },
            "count",
        ),
        (
            "serve.non_2xx",
            ops.iter()
                .filter(|op| !(200..300).contains(&op.status))
                .count() as f64,
            "count",
        ),
        (
            "trace.coverage",
            paired(&|t, op| {
                t.layers.iter().map(|(_, v)| *v as f64).sum::<f64>() / op.latency_ns.max(1) as f64
            }),
            "ratio",
        ),
        ("trace.overhead_pct", overhead_pct, "%"),
    ]
}

fn render_metrics(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            r#"{}"{name}": {{"value": {value}, "unit": "{unit}"}}"#,
            if i == 0 { "" } else { ", " }
        );
    }
    out.push('}');
    out
}

fn bench_main(argv: &[String]) -> Result<(), String> {
    let args = parse_args(argv)?;
    fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    // Read before pinning: pinning narrows what the process can see.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned = args.workload == Workload::Replay && pin_to_cpu0();

    // (host steal share, seconds) per set-up.
    let mut setups: Vec<(f64, f64)> = Vec::with_capacity(SETUPS);
    let mut timed_set_up = |attempt: usize| -> Result<Ready, String> {
        let (ticks, start) = (cpu_ticks(), Instant::now());
        let ready = set_up(&args, attempt)?;
        setups.push((
            steal_share(ticks, cpu_ticks()),
            start.elapsed().as_secs_f64(),
        ));
        Ok(ready)
    };
    let mut ready = None;
    for attempt in 0..SETUPS_BEFORE {
        // Stop the previous set-up's server before timing the next one.
        drop(ready.take());
        ready = Some(timed_set_up(attempt)?);
    }
    let mut ready = ready.expect("SETUPS_BEFORE > 0");

    let before = scrape(&mut ready.conn);
    let ticks_before = cpu_ticks();
    let Loop {
        mut ops,
        windows,
        rss_mb,
    } = measure(&args, &mut ready)?;
    let loop_steal = steal_share(ticks_before, cpu_ticks());
    let quiet = quietest(&windows);
    let quiet_secs: f64 = quiet.iter().map(|w| w.secs).sum();
    let quiet_steal = quiet.iter().map(|w| w.steal * w.secs).sum::<f64>() / quiet_secs.max(1e-9);
    let after = scrape(&mut ready.conn);
    let cold_bodies = std::mem::take(&mut ready.cold_bodies);
    drop(ready);
    for attempt in SETUPS_BEFORE..SETUPS {
        drop(timed_set_up(attempt)?);
    }
    // The median of the least-stolen half, for the reason `quietest` gives.
    let mut by_steal = setups.clone();
    by_steal.sort_by(|a, b| a.0.total_cmp(&b.0));
    let quiet_setups: Vec<f64> = by_steal[..SETUPS.div_ceil(2)].iter().map(|s| s.1).collect();
    let setup_s = quantile(&quiet_setups, 0.5);

    let deltas: HashMap<String, f64> = after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0.0)))
        .collect();

    let mut known = HashMap::new();
    let mut layer_metrics = None;
    if args.trace {
        let n = (args.workload.traced_ops() as u64).min(ops.len() as u64);
        let spans = PathBuf::from(format!(
            "{OUT_DIR}/spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        // ABBA order, so that a drift in machine speed during the four
        // replays cancels out of `trace.overhead_pct`.
        let mut untraced = run_inproc(&args, Mode::Untraced, 0, n, 1, None)?;
        let mut traced = run_inproc(&args, Mode::Traced, 0, n, 1, Some(&spans))?;
        traced.append(run_inproc(&args, Mode::Traced, 0, n, 1, None)?);
        untraced.append(run_inproc(&args, Mode::Untraced, 0, n, 1, None)?);
        // Both in-process replays must agree with what the server answered
        // for the same op: the same report or front digest, or for replay
        // the same tier and the same cold bodies.
        for (u, t) in untraced.ops.iter().zip(&traced.ops) {
            let op = &mut ops[t.index as usize];
            let served = match args.workload {
                Workload::Replay => Some(tier_name(op.tier).to_string()),
                _ => op.check.clone(),
            };
            if u.check != t.check || served.as_deref() != Some(t.check.as_str()) {
                op.ok = false;
            }
            // The evaluate reference is this same path; design's is
            // `run_with_progress`, which `verify` still runs.
            if matches!(
                args.workload,
                Workload::EvaluateBitflip | Workload::EvaluateLossless
            ) {
                known.insert(t.index, t.check.clone());
            }
        }
        for (key, digest) in &traced.keys {
            if cold_bodies
                .get(*key as usize)
                .map(|b| front_digest(b))
                .as_ref()
                != Some(digest)
            {
                ops.iter_mut()
                    .filter(|op| op.key == *key)
                    .for_each(|op| op.ok = false);
            }
        }
        layer_metrics = Some(per_layer(args.workload, &ops, &traced, &untraced, &deltas));
        eprintln!("spans written to {}", spans.display());
    }
    verify(&args, &mut ops, &known)?;

    let failed = ops.iter().filter(|op| !op.ok).count();
    let metrics = match layer_metrics {
        Some(metrics) => metrics,
        None => end_to_end(&ops, &quiet, rss_mb, setup_s),
    };
    let host = host_facts(nproc, pinned, ops.len(), (loop_steal, quiet_steal));
    let all_windows = timing(&ops, &windows.iter().collect::<Vec<_>>());
    let mut families = String::new();
    for family in METRIC_FAMILIES {
        let mut series: Vec<(&String, &f64)> = deltas
            .iter()
            .filter(|(k, _)| k.starts_with(family))
            .collect();
        series.sort_by(|a, b| a.0.cmp(b.0));
        let body = if series.is_empty() {
            "\"absent\"".to_string()
        } else {
            let items: Vec<String> = series
                .iter()
                .map(|(k, v)| format!("{}: {v}", json_string(k)))
                .collect();
            format!("{{{}}}", items.join(", "))
        };
        let _ = write!(
            families,
            "{}{}: {body}",
            if families.is_empty() { "" } else { ", " },
            json_string(family)
        );
    }
    let result = format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {failed}, "metrics": {}}}"#,
        failed == 0,
        ops.len(),
        render_metrics(&metrics)
    );
    let record = format!(
        r#"{{"workload": "{}", "seed": {}, "seconds": {}, "trace": {}, "host": {host}, "setup_s_samples": {:?}, "setup_steal_pct": {:?}, "window_steal_pct": {:?}, "quietest_windows": {}, "all_windows": {}, "metrics_deltas": {{{families}}}, "result": {result}}}"#,
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        setups.iter().map(|s| s.1).collect::<Vec<_>>(),
        setups.iter().map(|s| 100.0 * s.0).collect::<Vec<_>>(),
        windows.iter().map(|w| 100.0 * w.steal).collect::<Vec<_>>(),
        quiet.len(),
        render_metrics(&all_windows),
    );
    let record_path = format!(
        "{OUT_DIR}/{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    fs::write(&record_path, format!("{record}\n")).map_err(|e| format!("{record_path}: {e}"))?;

    println!(
        "workload {}  seed {}  ops {}  host {host}",
        args.workload.name(),
        args.seed,
        ops.len()
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<28} {value:>14.4} {unit}");
    }
    println!("record written to {record_path}");
    println!("{result}");
    Ok(())
}

/// `reference --workload W --ops N`: prints the committed-reference lines
/// for the default seed.
fn reference_main(argv: &[String]) -> Result<(), String> {
    let mut workload = None;
    let mut n = 0u64;
    for pair in argv.chunks(2) {
        let value = pair.get(1).ok_or("missing value")?;
        match pair[0].as_str() {
            "--workload" => workload = Workload::parse(value),
            "--ops" => n = value.parse().map_err(|e| format!("--ops: {e}"))?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let args = Args {
        serve_bin: PathBuf::new(),
        workload: workload.ok_or("missing or unknown --workload")?,
        seed: DEFAULT_SEED,
        seconds: 0,
        trace: false,
    };
    let run = run_inproc(&args, Mode::Reference, 0, n, 2, None)?;
    for op in run.ops {
        println!(
            "{}\t{DEFAULT_SEED}\t{}\t{}",
            args.workload.name(),
            op.index,
            op.check
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("inproc") => inproc::main(&argv[1..]),
        Some("reference") => reference_main(&argv[1..]),
        _ => bench_main(&argv),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
