//! Golden snapshot of the `small` sweep: the in-memory sequential
//! [`FrontReport`] of `SweepConfig::small()` is compared **byte for byte**
//! against `tests/golden/sweep_small.json` at the workspace root.
//!
//! The snapshot pins the whole evaluation stack (portfolio profiling, the
//! per-layer mapping search, Eq. 1–5 pricing, the DRAM roofline and the
//! sweep-level Pareto front) to one independent reference, so a pricing
//! rewrite cannot silently move a result byte.
//!
//! Regenerate only after an intentional model change:
//!
//! ```bash
//! UPDATE_GOLDEN=1 cargo test -q -p bitwave-sweep --test small_golden
//! ```

use bitwave_sweep::{run_with_progress, SweepConfig};
use std::fs;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/sweep_small.json")
}

#[test]
fn small_sweep_front_report_matches_golden_snapshot() {
    let (report, _) = run_with_progress(&SweepConfig::small(), None, |_| {}).expect("sweep runs");
    let json = serde_json::to_string_pretty(&report).expect("report serializes") + "\n";
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(&path, &json).expect("write golden snapshot");
        return;
    }
    let golden = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden snapshot {} ({e})", path.display()));
    assert_eq!(
        json, golden,
        "the `small` sweep FrontReport diverged from its golden snapshot"
    );
}
