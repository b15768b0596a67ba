//! Sweep execution: the worker loop, sharding, progress streaming and the
//! final front report.
//!
//! Every worker runs the same loop over the full candidate enumeration:
//! *look up, else claim, else wait*.  A point already in the shared store
//! is taken as-is (warm restarts and other workers' results are
//! indistinguishable); an unclaimed point is claimed, looked up once more
//! (a peer may publish it between the lookup and the claim), evaluated
//! and published; a point held by a live peer is left alone and re-checked on
//! the next pass — unless the claim has expired, in which case it is
//! stolen.  The loop ends when every point has a result, so any number of
//! workers over one store root converge on one complete result set, and
//! the assembled [`FrontReport`] is byte-identical no matter how the work
//! was split.

use crate::config::{SweepConfig, SWEEP_SCHEMA_VERSION};
use crate::eval::{build_portfolio, evaluate_point_factored, PointResult, PortfolioModel};
use crate::ledger::{PointClaim, SweepLedger};
use crate::space::{enumerate, CandidatePoint};
use bitwave_core::pareto::{Direction, FrontAccumulator};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// The sweep's objective directions: `[EDP, energy, cycles, area]`, all
/// minimised.
pub const OBJECTIVES: [Direction; 4] = [Direction::Minimize; 4];

/// First delay between polling passes while waiting on points other
/// workers hold: about the cost of pricing one point, so a peer's result is
/// picked up soon after it lands.
const FIRST_PASS_DELAY: Duration = Duration::from_micros(250);
/// Cap of the doubling poll backoff.
const MAX_PASS_DELAY: Duration = Duration::from_millis(20);

/// In-process evaluation options.  Deliberately **not** part of
/// [`SweepConfig`] (and therefore never part of the sweep digest): the knob
/// cannot change a single result byte, only how fast results land.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalOptions {
    /// Candidate evaluations run concurrently inside this process.  Claimed
    /// points are batched up to this size and fanned out across scoped
    /// threads, order-preserving; `1` keeps the historical strictly
    /// sequential loop.  Composes with multi-process sharding — claims are
    /// still taken per point through the shared [`SweepLedger`].
    pub threads: usize,
}

impl Default for EvalOptions {
    fn default() -> Self {
        Self { threads: 1 }
    }
}

/// What one worker did during a sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct WorkerStats {
    /// Points this worker evaluated itself.
    pub evaluated: usize,
    /// Points answered by the shared store (warm entries or peers' work).
    pub reused: usize,
    /// Claims won by stealing from an expired (crashed) holder.
    pub stolen: usize,
}

/// One front member in a streamed partial-front frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontPoint {
    /// Enumeration index.
    pub index: usize,
    /// Candidate label.
    pub label: String,
    /// Portfolio EDP.
    pub edp: f64,
    /// Portfolio energy (pJ).
    pub energy_pj: f64,
    /// Portfolio cycles.
    pub cycles: f64,
    /// Area (mm²).
    pub area_mm2: f64,
}

impl FrontPoint {
    fn of(result: &PointResult) -> Self {
        Self {
            index: result.index,
            label: result.label.clone(),
            edp: result.edp,
            energy_pj: result.total_energy_pj,
            cycles: result.total_cycles,
            area_mm2: result.area_mm2,
        }
    }
}

/// A streamed snapshot of the front while results are still landing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartialFront {
    /// Results landed so far.
    pub completed: usize,
    /// Total candidate points.
    pub total: usize,
    /// Current non-dominated set, ascending by index.
    pub front: Vec<FrontPoint>,
}

/// The assembled sweep outcome.  Contains nothing volatile (no timings, no
/// per-worker attribution), so one completed sweep serializes to identical
/// bytes regardless of worker count, steal order or restarts.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FrontReport {
    /// Result schema version.
    pub schema: u32,
    /// Sweep digest hex.
    pub sweep: String,
    /// The configuration that produced this report.
    pub config: SweepConfig,
    /// Total candidate points enumerated.
    pub total_points: usize,
    /// Points whose portfolio mapped successfully.
    pub feasible_points: usize,
    /// The Pareto-optimal candidates, ascending by index, with full
    /// per-model outcomes and instruction-memory menus.
    pub front: Vec<PointResult>,
}

impl FrontReport {
    /// The summary view of the front (what the partial frames stream).
    pub fn front_points(&self) -> Vec<FrontPoint> {
        self.front.iter().map(FrontPoint::of).collect()
    }
}

/// Lazily built portfolio: a fully warm sweep never pays for weight
/// generation and profiling.
struct LazyPortfolio<'a> {
    config: &'a SweepConfig,
    models: Option<Vec<Arc<PortfolioModel>>>,
}

impl<'a> LazyPortfolio<'a> {
    fn get(&mut self) -> io::Result<&[Arc<PortfolioModel>]> {
        if self.models.is_none() {
            self.models = Some(build_portfolio(self.config).map_err(io::Error::other)?);
        }
        Ok(self.models.as_deref().unwrap_or_default())
    }
}

/// Evaluates a batch of owned points, fanning out across scoped threads
/// when `opts.threads > 1`.  Order-preserving: results come back in batch
/// order, so downstream publication and progress streaming are
/// byte-identical to the sequential loop no matter the thread count.
fn evaluate_batch(
    points: &[&CandidatePoint],
    config: &SweepConfig,
    portfolio: &[Arc<PortfolioModel>],
    opts: EvalOptions,
) -> io::Result<Vec<PointResult>> {
    let eval = |point: &CandidatePoint| evaluate_point_factored(point, config, portfolio);
    if opts.threads <= 1 || points.len() <= 1 {
        return Ok(points.iter().map(|p| eval(p)).collect());
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = points
            .iter()
            .map(|point| scope.spawn(move || eval(point)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| io::Error::other("sweep evaluation thread panicked"))
            })
            .collect()
    })
}

/// The shared worker loop: drives `config`'s full enumeration to
/// completion against `ledger`, invoking `on_result` exactly once per
/// point (in arrival order) with each landed result.  Claimed points are
/// batched up to `opts.threads` and evaluated by [`evaluate_batch`];
/// results publish and stream in batch (= enumeration) order.  Between
/// passes over points held by peers the worker waits, doubling the wait
/// from [`FIRST_PASS_DELAY`] up to [`MAX_PASS_DELAY`]; a pass that lands
/// any result resets it.
fn run_loop(
    config: &SweepConfig,
    ledger: &SweepLedger,
    opts: EvalOptions,
    mut on_result: impl FnMut(&Arc<PointResult>),
) -> io::Result<WorkerStats> {
    let points = enumerate(config);
    let mut portfolio = LazyPortfolio {
        config,
        models: None,
    };
    let mut stats = WorkerStats::default();
    let batch_cap = opts.threads.max(1);
    let mut pending: Vec<&CandidatePoint> = points.iter().collect();
    let mut delay = FIRST_PASS_DELAY;
    while !pending.is_empty() {
        let before = pending.len();
        let mut next = Vec::with_capacity(pending.len());
        let mut owned: Vec<&CandidatePoint> = Vec::with_capacity(batch_cap);
        for point in pending {
            let claim = match ledger.result(point.index) {
                Some(result) => PointClaim::Published(result),
                None => ledger.claim_unpublished(point.index)?,
            };
            match claim {
                PointClaim::Published(result) => {
                    stats.reused += 1;
                    on_result(&result);
                }
                PointClaim::Unpublished(outcome) if outcome.owned() => {
                    if outcome == bitwave_store::ClaimOutcome::Stolen {
                        stats.stolen += 1;
                    }
                    owned.push(point);
                    if owned.len() == batch_cap {
                        flush_batch(
                            &owned,
                            config,
                            ledger,
                            &mut portfolio,
                            opts,
                            &mut stats,
                            &mut on_result,
                        )?;
                        owned.clear();
                    }
                }
                PointClaim::Unpublished(_) => next.push(point),
            }
        }
        if !owned.is_empty() {
            flush_batch(
                &owned,
                config,
                ledger,
                &mut portfolio,
                opts,
                &mut stats,
                &mut on_result,
            )?;
        }
        if next.len() < before {
            delay = FIRST_PASS_DELAY;
        }
        pending = next;
        if !pending.is_empty() {
            std::thread::sleep(delay);
            delay = (delay * 2).min(MAX_PASS_DELAY);
        }
    }
    Ok(stats)
}

/// Evaluates and publishes one batch of owned points in order.
fn flush_batch(
    owned: &[&CandidatePoint],
    config: &SweepConfig,
    ledger: &SweepLedger,
    portfolio: &mut LazyPortfolio<'_>,
    opts: EvalOptions,
    stats: &mut WorkerStats,
    on_result: &mut impl FnMut(&Arc<PointResult>),
) -> io::Result<()> {
    let results = evaluate_batch(owned, config, portfolio.get()?, opts)?;
    for (point, result) in owned.iter().zip(results) {
        let result = ledger.publish(point.index, result);
        stats.evaluated += 1;
        on_result(&result);
    }
    Ok(())
}

/// Runs one worker over a shared store root until the sweep is complete.
///
/// # Errors
///
/// Propagates ledger I/O and portfolio construction failures.
pub fn run_worker(config: &SweepConfig, root: &Path, opts: EvalOptions) -> io::Result<WorkerStats> {
    let ledger = SweepLedger::open(config, Some(root))?;
    run_loop(config, &ledger, opts, |_| {})
}

/// Runs `workers` in-process worker threads over one shared root, each
/// with `opts`, and returns their per-worker stats (index order).
///
/// # Errors
///
/// Propagates the first worker failure.
pub fn run_sharded(
    config: &SweepConfig,
    root: &Path,
    workers: usize,
    opts: EvalOptions,
) -> io::Result<Vec<WorkerStats>> {
    let handles: Vec<_> = (0..workers.max(1))
        .map(|_| {
            let config = config.clone();
            let root = PathBuf::from(root);
            std::thread::spawn(move || run_worker(&config, &root, opts))
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().map_err(|_| io::Error::other("worker panicked"))?)
        .collect()
}

/// Drives the sweep to completion (evaluating whatever is unclaimed) while
/// streaming a [`PartialFront`] snapshot after every landed result, then
/// assembles the final report.  With `root = None` the sweep runs entirely
/// in memory — the plain sequential path.
///
/// # Errors
///
/// Propagates ledger I/O and portfolio construction failures.
pub fn run_with_progress(
    config: &SweepConfig,
    root: Option<&Path>,
    progress: impl FnMut(&PartialFront),
) -> io::Result<(FrontReport, WorkerStats)> {
    run_with_progress_opts(config, root, EvalOptions::default(), progress)
}

/// [`run_with_progress`] with explicit [`EvalOptions`].
///
/// # Errors
///
/// Propagates ledger I/O and portfolio construction failures.
pub fn run_with_progress_opts(
    config: &SweepConfig,
    root: Option<&Path>,
    opts: EvalOptions,
    mut progress: impl FnMut(&PartialFront),
) -> io::Result<(FrontReport, WorkerStats)> {
    let ledger = SweepLedger::open(config, root)?;
    let total = config.total_points();
    let mut acc = FrontAccumulator::new(OBJECTIVES);
    let mut live: Vec<Option<Arc<PointResult>>> = vec![None; total];
    let mut completed = 0usize;
    let stats = run_loop(config, &ledger, opts, |result| {
        completed += 1;
        if result.feasible {
            acc.insert(result.objectives(), result.index);
        }
        live[result.index] = Some(Arc::clone(result));
        let front = acc
            .indices()
            .into_iter()
            .filter_map(|i| live[i].as_deref().map(FrontPoint::of))
            .collect();
        progress(&PartialFront {
            completed,
            total,
            front,
        });
    })?;
    let report = assemble_report(config, &ledger)
        .ok_or_else(|| io::Error::other("sweep completed but results are missing"))?;
    Ok((report, stats))
}

/// Assembles the final report from a **complete** result set; `None` while
/// any point is still missing.  Reads results in enumeration order, so the
/// report is identical no matter who computed what.
pub fn assemble_report(config: &SweepConfig, ledger: &SweepLedger) -> Option<FrontReport> {
    let total = config.total_points();
    let mut results = Vec::with_capacity(total);
    for index in 0..total {
        results.push(ledger.result(index)?);
    }
    let mut acc = FrontAccumulator::new(OBJECTIVES);
    let mut feasible = 0usize;
    for result in &results {
        if result.feasible {
            feasible += 1;
            acc.insert(result.objectives(), result.index);
        }
    }
    let front = acc
        .indices()
        .into_iter()
        .map(|i| (*results[i]).clone())
        .collect();
    Some(FrontReport {
        schema: SWEEP_SCHEMA_VERSION,
        sweep: ledger.sweep().to_string(),
        config: config.clone(),
        total_points: total,
        feasible_points: feasible,
        front,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("bitwave-sweep-run-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    fn fast_tiny() -> SweepConfig {
        let mut config = SweepConfig::tiny();
        config.sample_cap = 1_000;
        config
    }

    #[test]
    fn sequential_sweep_streams_monotonic_progress_and_a_final_front() {
        let config = fast_tiny();
        let mut frames: Vec<PartialFront> = Vec::new();
        let (report, stats) =
            run_with_progress(&config, None, |frame| frames.push(frame.clone())).unwrap();
        assert_eq!(stats.evaluated, config.total_points());
        assert_eq!(stats.reused, 0);
        assert_eq!(frames.len(), config.total_points());
        assert!(frames
            .windows(2)
            .all(|w| w[0].completed + 1 == w[1].completed));
        let last = frames.last().unwrap();
        assert_eq!(last.completed, last.total);
        assert_eq!(last.front, report.front_points());
        assert!(!report.front.is_empty());
        assert_eq!(report.total_points, config.total_points());
        assert_eq!(report.feasible_points, config.total_points());
        // The front is ascending by index and mutually non-dominated.
        assert!(report.front.windows(2).all(|w| w[0].index < w[1].index));
    }

    #[test]
    fn parallel_and_factored_runs_reproduce_the_sequential_report_byte_for_byte() {
        let config = fast_tiny();
        let (sequential, _) =
            run_with_progress_opts(&config, None, EvalOptions { threads: 1 }, |_| {}).unwrap();
        let (parallel, _) =
            run_with_progress_opts(&config, None, EvalOptions { threads: 4 }, |_| {}).unwrap();
        assert_eq!(
            serde_json::to_string(&parallel).unwrap(),
            serde_json::to_string(&sequential).unwrap(),
            "in-process parallel fan-out must not change a byte"
        );
    }

    #[test]
    fn warm_rerun_reuses_every_point_and_replays_byte_identically() {
        let config = fast_tiny();
        let root = temp_root("warm");
        let (cold, cold_stats) = run_with_progress(&config, Some(&root), |_| {}).unwrap();
        assert_eq!(cold_stats.evaluated, config.total_points());
        let (warm, warm_stats) = run_with_progress(&config, Some(&root), |_| {}).unwrap();
        assert_eq!(warm_stats.evaluated, 0, "warm re-sweep recomputes nothing");
        assert_eq!(warm_stats.reused, config.total_points());
        assert_eq!(
            serde_json::to_string(&warm).unwrap(),
            serde_json::to_string(&cold).unwrap(),
            "replay must be byte-identical"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
