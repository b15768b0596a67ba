//! Racing `build_portfolio` callers of one cold `(model, seed, sample_cap)`
//! share a single weight generation and profile.
//!
//! This file holds one test so that the process-wide portfolio cache's
//! counters see only its lookups.

use bitwave_sweep::{build_portfolio, portfolio_cache_stats, SweepConfig};
use std::sync::{Arc, Barrier};

#[test]
fn racing_builds_of_a_cold_portfolio_generate_once() {
    const THREADS: usize = 4;
    let mut config = SweepConfig::tiny();
    config.portfolio = vec!["resnet18".to_string()];
    config.sample_cap = 20_000;
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let (config, barrier) = (config.clone(), Arc::clone(&barrier));
            std::thread::spawn(move || {
                barrier.wait();
                build_portfolio(&config).unwrap()
            })
        })
        .collect();
    let portfolios: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let stats = portfolio_cache_stats();
    assert_eq!(stats.misses(), 1, "weight generation must run once");
    assert_eq!(stats.hits() + stats.coalesced(), THREADS as u64 - 1);
    for portfolio in &portfolios[1..] {
        assert!(Arc::ptr_eq(&portfolio[0], &portfolios[0][0]));
    }
}
