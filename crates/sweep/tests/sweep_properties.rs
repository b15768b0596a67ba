//! Sweep-level correctness properties: sharded execution is semantically
//! invisible (same front, byte for byte, for any worker count and steal
//! order), and crashed workers' claims are re-stolen without corrupting
//! the result set.

mod oracle;

use bitwave_sweep::ledger::SweepLedger;
use bitwave_sweep::run::{assemble_report, run_sharded, run_with_progress, EvalOptions};
use bitwave_sweep::SweepConfig;
use proptest::prelude::*;
use std::path::PathBuf;

fn temp_root(tag: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("bitwave-sweep-props-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// A fast tiny configuration; `seed` perturbs the synthetic weights so the
/// property is not an artifact of one input.
fn fast_tiny(seed: u64) -> SweepConfig {
    let mut config = SweepConfig::tiny();
    config.sample_cap = 1_000;
    config.seed = seed;
    config
}

fn report_json(config: &SweepConfig, root: Option<&PathBuf>) -> String {
    let (report, _) =
        run_with_progress(config, root.map(PathBuf::as_path), |_| {}).expect("sweep runs");
    serde_json::to_string(&report).expect("report serializes")
}

/// A worker that claims a point and dies without publishing must not wedge
/// the sweep: after the claim TTL the point is stolen, every point lands,
/// and the final front is identical to an undisturbed single-process sweep.
#[test]
fn crashed_worker_claims_are_stolen_and_the_front_is_unchanged() {
    let mut config = fast_tiny(42);
    config.claim_ttl_ms = 120; // steal quickly; waiting passes poll at most every 20ms
    let root = temp_root("crash");

    // Simulate the crash: a doomed worker wins claims on two points and
    // exits without computing or releasing them.
    let doomed = SweepLedger::open(&config, Some(&root)).unwrap();
    assert!(doomed.abandon_claim_for_test(0).unwrap().owned());
    assert!(doomed.abandon_claim_for_test(5).unwrap().owned());
    drop(doomed);

    let (report, stats) = run_with_progress(&config, Some(&root), |_| {}).unwrap();
    assert_eq!(
        stats.evaluated,
        config.total_points(),
        "every point is evaluated, including the crashed worker's"
    );
    assert!(
        stats.stolen >= 2,
        "both abandoned claims must be stolen, got {}",
        stats.stolen
    );

    let reference = report_json(&config, None);
    assert_eq!(
        serde_json::to_string(&report).unwrap(),
        reference,
        "crash recovery must not change the front"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// A sweep interrupted mid-flight (some results published, some claims
/// abandoned) restarts warm: only the missing points are evaluated and the
/// assembled report matches a clean run byte-for-byte.
#[test]
fn interrupted_sweep_restarts_warm_and_completes_identically() {
    let mut config = fast_tiny(7);
    config.claim_ttl_ms = 120;
    let root = temp_root("restart");

    // First "process": completes three points, abandons a claim, crashes.
    {
        let ledger = SweepLedger::open(&config, Some(&root)).unwrap();
        let portfolio = bitwave_sweep::build_portfolio(&config).unwrap();
        let points = bitwave_sweep::enumerate(&config);
        for point in &points[0..3] {
            assert!(ledger.claim(point.index).unwrap().owned());
            let result = oracle::evaluate_point(point, &config, &portfolio);
            ledger.publish(point.index, result);
        }
        assert!(ledger.abandon_claim_for_test(3).unwrap().owned());
    }

    let (report, stats) = run_with_progress(&config, Some(&root), |_| {}).unwrap();
    assert_eq!(stats.reused, 3, "published points are reused, not re-run");
    assert_eq!(stats.evaluated, config.total_points() - 3);
    assert_eq!(
        serde_json::to_string(&report).unwrap(),
        report_json(&config, None)
    );
    let _ = std::fs::remove_dir_all(&root);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Sharded sweep ≡ sequential sweep: the same Pareto-front report,
    /// byte for byte, regardless of worker count and claim/steal
    /// interleaving.
    #[test]
    fn sharded_sweep_equals_sequential_sweep(seed in 1u64..500, workers in 2usize..=4) {
        let config = fast_tiny(seed);
        let sequential = report_json(&config, None);

        let root = temp_root(&format!("shard-{seed}-{workers}"));
        let stats = run_sharded(&config, &root, workers, EvalOptions::default()).expect("sharded sweep runs");
        let total_evaluated: usize = stats.iter().map(|s| s.evaluated).sum();
        prop_assert!(
            total_evaluated >= config.total_points(),
            "workers must cover the space (double-computes after steals allowed)"
        );
        let ledger = SweepLedger::open(&config, Some(&root)).unwrap();
        let sharded = assemble_report(&config, &ledger).expect("sweep is complete");
        prop_assert_eq!(serde_json::to_string(&sharded).unwrap(), sequential);
        let _ = std::fs::remove_dir_all(&root);
    }
}
