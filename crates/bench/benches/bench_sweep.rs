//! Harness for the `bitwave-sweep` whole-accelerator design-space sweep.
//!
//! Invariants are **asserted** (not just timed) before the criterion loops,
//! so `cargo bench --bench bench_sweep` doubles as the CI gate:
//!
//! 1. at least one searched spec on the Pareto front **strictly dominates**
//!    the paper's Table I BitWave configuration (4096 lanes, sync 8,
//!    2×256 KiB SRAM, Table-I menu) on portfolio EDP;
//! 2. a warm re-sweep over a populated store root re-evaluates **0**
//!    points (everything replays from the content-addressed result set);
//! 3. amortization: the sweep's factored evaluation (compute groups
//!    factored once, memory re-priced per point) beats the full
//!    per-candidate path of the naive oracle sweep
//!    ([`bitwave_bench::oracle`]) by ≥ 1.5× sequentially on **any**
//!    machine — the win is algorithmic, not parallel — and reproduces its
//!    report byte for byte;
//! 4. in-process parallelism: with ≥ 4 cores, a 4-thread fan-out of the
//!    oracle sweep is ≥ 2.5× faster than its sequential run, and the
//!    combined throughput configuration (factored + 4 threads) is ≥ 5×
//!    faster than the sequential oracle sweep.  Both byte-identical.  On smaller machines
//!    the timing halves are vacuous (there is no parallelism to win), so
//!    they degrade to the byte-identity half and print a skip notice —
//!    `scaling_gate_enforced`/`throughput_gate_enforced` record which
//!    halves actually ran;
//! 5. sharded workers: same ≥ 2.5× gate for a 4-worker sharded sweep
//!    ([`bitwave_sweep::run_sharded`]: worker threads of this process that
//!    coordinate through claim files under one store root and share every
//!    process-wide cache), same core-count guard, same byte-identity
//!    fallback.

use bitwave_accel::{bits_per_mac_class, EnergyModel};
use bitwave_bench::{oracle, print_header, write_bench_json, HostFacts};
use bitwave_dataflow::MemoryHierarchy;
use bitwave_dse::{clear_shape_cache, factor_network, FactoredNetworkSearch};
use bitwave_sweep::{
    build_portfolio, evaluate_point_factored, global_eval_engine, run_sharded,
    run_with_progress_opts, run_worker, EvalOptions, FrontReport, SweepConfig, SweepLedger,
};
use criterion::{criterion_group, criterion_main, Criterion};
use serde::Serialize;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

const SCALING_TARGET: f64 = 2.5;
const SCALING_WORKERS: usize = 4;
/// In-process fan-out width for the parallel gates.
const IN_PROCESS_THREADS: usize = 4;
/// Unconditional floor on the sequential factored-vs-full speedup: the
/// amortization is algorithmic (6 compute groups price 24 points on the
/// small preset), so it must win even on one core.  Typical measured
/// speedup is ~2×; 1.5× leaves headroom for noisy shared runners.
const AMORTIZED_FLOOR: f64 = 1.5;
/// Repetitions for the best-of-N timing runs backing the unconditional
/// floor — the minimum is the least noise-inflated estimate of true cost.
const TIMING_REPS: usize = 3;
/// Combined gate: factored + threads vs the sequential full path.
const THROUGHPUT_TARGET: f64 = 5.0;
/// Sharding-overhead ceiling for the degraded (< 4 cores) gate: claim-file
/// traffic and polling may cost something, but never double the sweep.
const OVERHEAD_CEILING: f64 = 2.0;

#[derive(Serialize)]
struct SweepBenchReport {
    space: &'static str,
    total_points: usize,
    /// Sequential oracle sweep (full per-candidate evaluation) — the
    /// pre-amortization reference cost (also recorded as `sequential_secs`
    /// historically).
    full_eval_secs: f64,
    sequential_secs: f64,
    /// Sequential factored evaluation, cold compute-group cache.
    amortized_secs: f64,
    amortized_speedup: f64,
    amortized_floor: f64,
    /// Oracle sweep fanned out across `in_process_threads` scoped threads.
    parallel_secs: f64,
    in_process_threads: usize,
    in_process_scaling: f64,
    in_process_scaling_target: f64,
    /// Factored + threads vs the sequential oracle — the shipped
    /// configuration.
    throughput_secs: f64,
    throughput_speedup: f64,
    throughput_target: f64,
    /// Whether the ≥ 4-core timing gates were enforced on this machine
    /// (the byte-identity halves always run).
    scaling_gate_enforced: bool,
    throughput_gate_enforced: bool,
    sharded_secs: f64,
    sharded_workers: usize,
    scaling: f64,
    scaling_target: f64,
    available_cores: usize,
    warm_reevaluated: usize,
    warm_reused: usize,
    /// SU parts the factoring of every compute group enumerates, over the
    /// whole portfolio.
    su_parts_enumerated: usize,
    /// Of those, the parts the profile-free shape stage keeps — the ones
    /// priced with `SuCost::of`.
    su_parts_shape_kept: usize,
    /// Of those, the parts no earlier part of their layer covers — the
    /// ones each point's pricing composes.
    su_parts_kept: usize,
    baseline_label: String,
    baseline_edp: f64,
    best_edp: f64,
    best_label: String,
    edp_gain_over_table1: f64,
    host: HostFacts,
}

fn temp_root(tag: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("bitwave-bench-sweep-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// The shipped in-memory sweep with `threads` evaluation threads.
fn sweep(config: &SweepConfig, threads: usize) -> FrontReport {
    let (report, _) =
        run_with_progress_opts(config, None, EvalOptions { threads }, |_| {}).expect("sweep runs");
    report
}

/// Best-of-[`TIMING_REPS`] timing of `run`: `prep` re-establishes the
/// measured state before every repetition (e.g. clears the compute-group
/// cache so a "cold" run stays cold), and the minimum elapsed time is kept
/// — the least noise-inflated estimate of the true cost on a shared runner.
/// Every repetition must produce the same bytes; returns the seconds and
/// the report JSON.
fn timed_best(prep: impl Fn(), run: impl Fn() -> FrontReport) -> (f64, String) {
    let mut best: Option<(f64, String)> = None;
    for _ in 0..TIMING_REPS {
        prep();
        let t = Instant::now();
        let report = run();
        let secs = t.elapsed().as_secs_f64();
        let json = serde_json::to_string(&report).expect("report");
        if let Some((best_secs, best_json)) = &best {
            assert_eq!(
                &json, best_json,
                "timed repetitions must agree byte for byte"
            );
            if secs >= *best_secs {
                continue;
            }
        }
        best = Some((secs, json));
    }
    best.expect("at least one timing repetition")
}

fn bench(c: &mut Criterion) {
    let config = SweepConfig::small();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    print_header(
        "sweep_gates",
        "whole-accelerator DSE sweep: Table-I dominance, warm replay, amortized/factored \
         evaluation, in-process parallel fan-out, sharded scaling",
    );

    // A cold portfolio build (weight generation and core profiling of every
    // model) — what a `design` request with a new seed pays.  Each iteration
    // uses a seed no earlier build used, so the portfolio store misses.
    let cold_seed = std::cell::Cell::new(config.seed);
    c.bench_function("sweep/portfolio_cold_small", |b| {
        b.iter(|| {
            cold_seed.set(cold_seed.get() + 1);
            let cold = SweepConfig {
                seed: cold_seed.get(),
                ..config.clone()
            };
            black_box(build_portfolio(&cold).expect("portfolio"))
        })
    });

    // Untimed warm-up: build the portfolio (shared by every run below) and
    // warm the process-wide enumeration-space cache, so the timed runs
    // compare evaluation strategies rather than one-time setup.
    let portfolio = build_portfolio(&config).expect("portfolio");
    let sequential_report = oracle::sweep(&config, 1);
    let reference = serde_json::to_string(&sequential_report).expect("report");

    // Below the `PointResult` assembly: factoring one compute group of the
    // portfolio (what a group-cache miss pays; cold: the layer shapes are
    // pruned again too, warm shapes: what a new seed pays) and pricing one
    // point against an already factored group (what every other point
    // pays).  None touches the compute-group cache, so the gates below
    // still see the cache states they set up themselves.
    let point = &bitwave_sweep::enumerate(&config)[0];
    let spec = point.spec();
    let energy = EnergyModel::finfet_16nm();
    let memory = MemoryHierarchy {
        weight_sram_bytes: point.weight_sram_kb * 1024,
        activation_sram_bytes: point.activation_sram_kb * 1024,
        ..MemoryHierarchy::bitwave_default()
    };
    let factor_group = || -> Vec<FactoredNetworkSearch> {
        portfolio
            .iter()
            .map(|m| {
                factor_network(&spec, &m.network, &m.profiles, &energy, &config.space)
                    .expect("the small portfolio factors")
            })
            .collect()
    };
    c.bench_function("sweep/factor_group_cold_small", |b| {
        b.iter(|| {
            clear_shape_cache();
            black_box(factor_group())
        })
    });
    c.bench_function("sweep/factor_group_warm_shapes_small", |b| {
        b.iter(|| black_box(factor_group()))
    });
    let group = factor_group();
    c.bench_function("sweep/price_point_warm_small", |b| {
        b.iter(|| {
            for factored in &group {
                black_box(factored.price(black_box(&spec), black_box(&memory), &energy));
            }
        })
    });

    // The SU parts one `small` sweep factors and the shares that survive
    // the shape stage and the covering prune: every compute group (points
    // that differ only in SRAM sizes or DRAM bandwidth share one) over the
    // whole portfolio.
    let mut groups_seen = Vec::new();
    let (mut su_parts_enumerated, mut su_parts_shape_kept, mut su_parts_kept) = (0, 0, 0);
    for point in bitwave_sweep::enumerate(&config) {
        let spec = point.spec();
        let group = (
            point.lanes,
            point.menu,
            point.sram_bandwidth_bits,
            bits_per_mac_class(&spec),
        );
        if groups_seen.contains(&group) {
            continue;
        }
        groups_seen.push(group);
        for m in &portfolio {
            let factored = factor_network(&spec, &m.network, &m.profiles, &energy, &config.space)
                .expect("the small portfolio factors");
            su_parts_enumerated += factored.su_parts_enumerated();
            su_parts_shape_kept += factored.su_parts_shape_kept();
            su_parts_kept += factored.su_parts_kept();
        }
    }
    println!(
        "SU parts per small sweep ({} compute groups): {su_parts_enumerated} enumerated, \
         {su_parts_shape_kept} past the shape stage, {su_parts_kept} kept",
        groups_seen.len()
    );

    // Gate 1: some front member strictly dominates the paper's Table I
    // BitWave configuration on portfolio EDP.  That configuration is a
    // point *inside* the small space, so its exact portfolio EDP comes out
    // of the same report.
    let is_table1 = |pt: &bitwave_sweep::CandidatePoint| {
        pt.lanes == 4096
            && pt.sync_lanes == 8
            && pt.weight_sram_kb == 256
            && pt.activation_sram_kb == 256
            && pt.menu.name() == "table1"
    };
    let baseline = sequential_report
        .front
        .iter()
        .find(|p| is_table1(&p.point))
        .map(|p| (p.label.clone(), p.edp));
    let (baseline_label, baseline_edp) = baseline.unwrap_or_else(|| {
        // The Table I point was dominated clean off the front; recover its
        // EDP by evaluating it directly.
        let point = bitwave_sweep::enumerate(&config)
            .into_iter()
            .find(is_table1)
            .expect("Table I point is inside the small space");
        let result = evaluate_point_factored(&point, &config, &portfolio);
        (result.label, result.edp)
    });
    let best = sequential_report
        .front
        .iter()
        .filter(|p| p.feasible)
        .min_by(|a, b| a.edp.total_cmp(&b.edp))
        .expect("a feasible front member");
    let (best_label, best_edp) = (best.label.clone(), best.edp);
    println!(
        "Table I baseline {baseline_label}: EDP {baseline_edp:.4e}   best searched {best_label}: \
         EDP {best_edp:.4e}   gain {:.3}x",
        baseline_edp / best_edp
    );
    assert!(
        best_edp < baseline_edp,
        "no searched spec dominates Table I on EDP ({best_edp:.4e} vs {baseline_edp:.4e})"
    );

    // Timed sequential oracle sweep — the pre-amortization reference.
    let (full_eval_secs, full_json) = timed_best(|| {}, || oracle::sweep(&config, 1));
    assert_eq!(
        full_json, reference,
        "the oracle sweep must be deterministic"
    );

    // Gate 3: sequential factored path, cold compute-group and shape caches
    // (cleared before every repetition).  The floor is unconditional — the
    // amortization is algorithmic, not a parallelism artifact.
    let cold = || {
        global_eval_engine().clear();
        clear_shape_cache();
    };
    let (amortized_secs, amortized_json) = timed_best(cold, || sweep(&config, 1));
    assert_eq!(
        amortized_json, reference,
        "factored evaluation must reproduce the full report byte for byte"
    );
    let amortized_speedup = full_eval_secs / amortized_secs.max(f64::MIN_POSITIVE);
    println!(
        "sequential oracle: {full_eval_secs:.3}s   sequential factored (cold): \
         {amortized_secs:.3}s   amortized speedup: {amortized_speedup:.2}x   \
         (floor: >={AMORTIZED_FLOOR}x, unconditional)"
    );
    assert!(
        amortized_speedup >= AMORTIZED_FLOOR,
        "factored evaluation speedup {amortized_speedup:.2}x is below the \
         unconditional {AMORTIZED_FLOOR}x floor"
    );

    // Gate 4a: in-process fan-out of the oracle sweep.
    let (parallel_secs, parallel_json) =
        timed_best(|| {}, || oracle::sweep(&config, IN_PROCESS_THREADS));
    assert_eq!(
        parallel_json, reference,
        "in-process parallel fan-out must reproduce the report byte for byte"
    );
    let in_process_scaling = full_eval_secs / parallel_secs.max(f64::MIN_POSITIVE);
    let scaling_gate_enforced = cores >= IN_PROCESS_THREADS;

    // Gate 4b: the shipped throughput configuration — factored + threads —
    // against the sequential oracle sweep, compute-group and shape caches
    // cold again before every repetition.
    let (throughput_secs, throughput_json) =
        timed_best(cold, || sweep(&config, IN_PROCESS_THREADS));
    assert_eq!(
        throughput_json, reference,
        "factored + parallel evaluation must reproduce the report byte for byte"
    );
    let throughput_speedup = full_eval_secs / throughput_secs.max(f64::MIN_POSITIVE);
    let throughput_gate_enforced = cores >= IN_PROCESS_THREADS;
    println!(
        "{IN_PROCESS_THREADS}-thread oracle: {parallel_secs:.3}s ({in_process_scaling:.2}x)   \
         {IN_PROCESS_THREADS}-thread factored: {throughput_secs:.3}s \
         ({throughput_speedup:.2}x vs sequential oracle)   (cores: {cores})"
    );
    if scaling_gate_enforced {
        assert!(
            in_process_scaling >= SCALING_TARGET,
            "{IN_PROCESS_THREADS}-thread in-process scaling {in_process_scaling:.2}x is below \
             the {SCALING_TARGET}x gate"
        );
        assert!(
            throughput_speedup >= THROUGHPUT_TARGET,
            "factored + {IN_PROCESS_THREADS}-thread throughput {throughput_speedup:.2}x is \
             below the {THROUGHPUT_TARGET}x gate"
        );
    } else {
        println!(
            "SKIP: in-process timing gates need >= {IN_PROCESS_THREADS} cores (have {cores}); \
             byte-identity halves enforced above"
        );
    }

    // Gate 5: sharded cold run, 4 in-process worker threads over a shared
    // store root (compute-group and shape caches cold again, like the
    // sequential factored run it is compared against; the workers share
    // them as they fill).
    cold();
    let root = temp_root("cold");
    let t1 = Instant::now();
    let stats = run_sharded(&config, &root, SCALING_WORKERS, EvalOptions::default())
        .expect("sharded sweep");
    let sharded_secs = t1.elapsed().as_secs_f64();
    let evaluated: usize = stats.iter().map(|s| s.evaluated).sum();
    assert_eq!(
        evaluated,
        config.total_points(),
        "the sharded workers together evaluate every point exactly once"
    );
    let ledger = SweepLedger::open(&config, Some(&root)).expect("ledger");
    let sharded_report =
        bitwave_sweep::assemble_report(&config, &ledger).expect("complete sharded result set");
    assert_eq!(
        serde_json::to_string(&sharded_report).expect("report"),
        reference,
        "sharded and sequential sweeps must produce byte-identical reports"
    );

    // Gate 2: a warm re-sweep over the populated root re-evaluates nothing.
    let warm = run_worker(&config, &root, EvalOptions::default()).expect("warm re-sweep");
    println!(
        "warm re-sweep: evaluated {} reused {} (gate: evaluated == 0)",
        warm.evaluated, warm.reused
    );
    assert_eq!(warm.evaluated, 0, "warm re-sweep must replay every point");
    assert_eq!(warm.reused, config.total_points());

    // Sharded scaling, enforced only where there are cores to scale onto.
    // The sharded run uses the default (factored) path, so it is compared
    // against the sequential factored time.
    let scaling = amortized_secs / sharded_secs.max(f64::MIN_POSITIVE);
    println!(
        "sequential factored: {amortized_secs:.2}s   {SCALING_WORKERS}-worker sharded: \
         {sharded_secs:.2}s   scaling: {scaling:.2}x   (cores: {cores})"
    );
    if scaling_gate_enforced {
        assert!(
            scaling >= SCALING_TARGET,
            "{SCALING_WORKERS}-worker scaling {scaling:.2}x is below the {SCALING_TARGET}x gate"
        );
    } else {
        println!(
            "SKIP: sharded-worker scaling gate needs >= {SCALING_WORKERS} cores (have {cores}); \
             enforcing the overhead ceiling instead"
        );
        assert!(
            sharded_secs <= amortized_secs * OVERHEAD_CEILING,
            "sharding overhead {sharded_secs:.2}s exceeds {OVERHEAD_CEILING}x \
             the sequential {amortized_secs:.2}s on a serial machine"
        );
    }

    write_bench_json(
        "BENCH_sweep.json",
        &SweepBenchReport {
            space: "small",
            total_points: config.total_points(),
            full_eval_secs,
            sequential_secs: full_eval_secs,
            amortized_secs,
            amortized_speedup,
            amortized_floor: AMORTIZED_FLOOR,
            parallel_secs,
            in_process_threads: IN_PROCESS_THREADS,
            in_process_scaling,
            in_process_scaling_target: SCALING_TARGET,
            throughput_secs,
            throughput_speedup,
            throughput_target: THROUGHPUT_TARGET,
            scaling_gate_enforced,
            throughput_gate_enforced,
            sharded_secs,
            sharded_workers: SCALING_WORKERS,
            scaling,
            scaling_target: SCALING_TARGET,
            available_cores: cores,
            warm_reevaluated: warm.evaluated,
            warm_reused: warm.reused,
            su_parts_enumerated,
            su_parts_shape_kept,
            su_parts_kept,
            baseline_label,
            baseline_edp,
            best_edp,
            best_label,
            edp_gain_over_table1: baseline_edp / best_edp,
            host: HostFacts::of_this_host(),
        },
    );
    let _ = std::fs::remove_dir_all(&root);

    // Steady-state criterion loops.
    let points = bitwave_sweep::enumerate(&config);
    c.bench_function("sweep/evaluate_one_point_full", |b| {
        b.iter(|| {
            black_box(oracle::evaluate_point(
                black_box(&points[0]),
                black_box(&config),
                black_box(&portfolio),
            ))
        })
    });
    c.bench_function("sweep/evaluate_one_point_factored", |b| {
        b.iter(|| {
            black_box(evaluate_point_factored(
                black_box(&points[0]),
                black_box(&config),
                black_box(&portfolio),
            ))
        })
    });

    let warm_root = temp_root("warm");
    run_worker(&config, &warm_root, EvalOptions::default()).expect("populate warm root");
    c.bench_function("sweep/warm_resweep_small", |b| {
        b.iter(|| {
            black_box(
                run_worker(
                    black_box(&config),
                    black_box(&warm_root),
                    EvalOptions::default(),
                )
                .expect("warm"),
            )
        })
    });
    let _ = std::fs::remove_dir_all(&warm_root);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
