//! The shape stage of the sweep's covering prune reads no profile, so its
//! survivors are cached per layer shape across sweeps: a `small` sweep at a
//! new seed (what each `/v1/design` request runs) re-prunes no layer shape.
//!
//! This file holds one test so that the process-wide shape cache's
//! counters see only its lookups.

use bitwave_dse::shape_cache_stats;
use bitwave_sweep::{run_with_progress, SweepConfig};

#[test]
fn a_second_small_sweep_at_a_new_seed_fills_no_shape_entry() {
    let mut config = SweepConfig::small();
    let sweep = |config: &SweepConfig| run_with_progress(config, None, |_| {}).unwrap();
    sweep(&config);
    let stats = shape_cache_stats();
    let (filled, hits) = (stats.misses(), stats.hits());
    assert!(filled > 0, "the first sweep prunes every layer shape");
    config.seed += 1;
    sweep(&config);
    assert_eq!(stats.misses(), filled, "a new seed fills no shape entry");
    assert!(stats.hits() > hits);
}
