//! Service counters and the `GET /metrics` text rendering.
//!
//! The format follows the Prometheus exposition conventions (`# TYPE` lines,
//! `name value` samples) so standard scrapers can read it, including the
//! process-wide tensor deep-copy counter from
//! [`bitwave_tensor::copy_metrics`] — the observable half of the zero-copy
//! invariant `bench_serve` gates on.
//!
//! Each series is one `(name, help, kind, value)` row of a table, rendered
//! in table order.  Scalar rows come first; the per-op store families from
//! the `bitwave-store` substrate —
//! `bitwave_store_{hits,disk_hits,misses,coalesced,evictions,quarantined,
//! disk_write_errors}_total{op="…"}` counters plus
//! `bitwave_store_{mem,disk}_{entries,bytes}{op="…"}` gauges — then render
//! one sample each for the `evaluate`, `search`, `design` and `weights` ops.
//!
//! The dispatch series count design sweeps like evaluations and searches:
//! `bitwave_serve_batch_{dispatches,coalesced,requests}_total` include
//! design dispatches, riders and fan-outs, and `bitwave_serve_inflight_depth`
//! includes running sweeps.
//!
//! Amortized-evaluation counters expose the sweep's reuse machinery:
//! `bitwave_sweep_{profile_reuse,space_reuse}_total` read the hits plus
//! coalesced lookups of the portfolio and mapping-space `MemoryTier`s, and
//! `bitwave_sweep_factored_repriced_total` counts factored re-pricings.

use crate::cache::{CacheOp, ReportCache};
use crate::store::ModelStore;
use bitwave_store::StoreStats;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic service-level counters.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    /// HTTP requests parsed (any endpoint, any status).
    pub http_requests: AtomicU64,
    /// Responses with a non-2xx status.
    pub http_errors: AtomicU64,
    /// Cold pipeline evaluations executed.
    pub evaluations: AtomicU64,
    /// Layers judged memory-bound by the DRAM-tier roofline, summed over
    /// cold evaluations (always 0 unless requests throttle the tier).
    pub memory_bound_layers: AtomicU64,
    /// Connections answered `503` at accept because the open-connection cap
    /// (`ServeConfig::queue_capacity`) was reached.
    pub queue_rejections: AtomicU64,
    /// Report replays served from `GET /v1/reports/{digest}`.
    pub report_replays: AtomicU64,
    /// Cold dataflow searches executed (`POST /v1/search` misses).
    pub searches: AtomicU64,
    /// Compute requests shed with 503 because `max_inflight` digests were
    /// already dispatched.
    pub sheds: AtomicU64,
    /// Requests answered 429 by the per-client token-bucket rate limiter.
    pub rate_limited: AtomicU64,
    /// Jobs pushed to the compute queue (one per distinct in-flight
    /// digest).
    pub batch_dispatches: AtomicU64,
    /// Requests that rode an in-flight identical dispatch instead of paying
    /// for their own (the cross-request batching win).
    pub batch_coalesced: AtomicU64,
    /// Requests answered through a dispatch fan-out (triggers + riders).
    pub batch_requests: AtomicU64,
    /// Keep-alive connections closed by the idle deadline.
    pub idle_closed: AtomicU64,
    /// Connections answered 408 because a partial request outlived the read
    /// deadline.
    pub request_timeout_408: AtomicU64,
    /// Connections dropped because the client stopped draining a pending
    /// response past the write deadline.
    pub stalled_writer_dropped: AtomicU64,
    /// Currently open client connections (event-loop gauge).
    pub connections_open: AtomicU64,
    /// Distinct digests currently in flight (event-loop gauge).
    pub inflight_depth: AtomicU64,
}

/// Per-tier gauges and per-op counters of one store op, snapshotted for
/// rendering.
struct OpSample<'a> {
    op: &'a str,
    stats: &'a StoreStats,
    mem_entries: u64,
    mem_bytes: u64,
    disk_entries: u64,
    disk_bytes: u64,
}

const COUNTER: &str = "counter";
const GAUGE: &str = "gauge";

/// A per-op store family's `(name, help, kind, value)` row.
type Family = (
    &'static str,
    &'static str,
    &'static str,
    fn(&OpSample) -> u64,
);

/// The per-op store families in exposition order; each renders one sample
/// per op.
#[rustfmt::skip]
const FAMILIES: [Family; 11] = [
    ("bitwave_store_hits_total", "Memory-tier hits per store op.", COUNTER, |s| s.stats.hits()),
    ("bitwave_store_disk_hits_total", "Disk-tier hits (verified, promoted to memory) per store op.", COUNTER, |s| s.stats.disk_hits()),
    ("bitwave_store_misses_total", "Full misses (computations) per store op.", COUNTER, |s| s.stats.misses()),
    ("bitwave_store_coalesced_total", "Calls coalesced onto an in-flight computation per store op.", COUNTER, |s| s.stats.coalesced()),
    ("bitwave_store_evictions_total", "Memory-tier LRU evictions per store op.", COUNTER, |s| s.stats.evictions()),
    ("bitwave_store_quarantined_total", "Disk entries quarantined (corrupt/truncated/version-mismatched) per store op.", COUNTER, |s| s.stats.quarantined()),
    ("bitwave_store_disk_write_errors_total", "Failed best-effort disk writes per store op (persistence silently degraded).", COUNTER, |s| s.stats.disk_write_errors()),
    ("bitwave_store_mem_entries", "Ready memory-tier entries per store op.", GAUGE, |s| s.mem_entries),
    ("bitwave_store_mem_bytes", "Accounted memory-tier bytes per store op.", GAUGE, |s| s.mem_bytes),
    ("bitwave_store_disk_entries", "Disk-tier entries per store op.", GAUGE, |s| s.disk_entries),
    ("bitwave_store_disk_bytes", "Disk-tier bytes (headers included) per store op.", GAUGE, |s| s.disk_bytes),
];

impl ServiceMetrics {
    /// Increments a counter by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Renders all counters (service, store, tensor) as Prometheus text.
    pub fn render(&self, cache: &ReportCache, store: &ModelStore) -> String {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        // The amortized-evaluation caches count a reuse on every hit and
        // every lookup coalesced onto an in-flight fill.
        let reuse = |stats: &StoreStats| stats.hits() + stats.coalesced();
        // Every scalar series as a `(name, help, kind, value)` row, in
        // exposition order.
        #[rustfmt::skip]
        let scalars = [
            ("bitwave_serve_http_requests_total", "HTTP requests parsed.", COUNTER, load(&self.http_requests)),
            ("bitwave_serve_http_errors_total", "Non-2xx responses.", COUNTER, load(&self.http_errors)),
            ("bitwave_serve_evaluations_total", "Cold pipeline evaluations executed.", COUNTER, load(&self.evaluations)),
            ("bitwave_memory_bound_layers_total", "Layers judged memory-bound by the DRAM-tier roofline in cold evaluations.", COUNTER, load(&self.memory_bound_layers)),
            ("bitwave_serve_queue_rejections_total", "Connections answered 503 at accept at the open-connection cap.", COUNTER, load(&self.queue_rejections)),
            ("bitwave_serve_report_replays_total", "Reports replayed from GET /v1/reports/{digest}.", COUNTER, load(&self.report_replays)),
            ("bitwave_serve_searches_total", "Cold dataflow design-space searches executed.", COUNTER, load(&self.searches)),
            ("bitwave_serve_sheds_total", "Compute requests shed with 503 at the max-inflight cap.", COUNTER, load(&self.sheds)),
            ("bitwave_serve_rate_limited_total", "Requests answered 429 by the per-client rate limiter.", COUNTER, load(&self.rate_limited)),
            ("bitwave_serve_batch_dispatches_total", "Jobs dispatched to the compute queue.", COUNTER, load(&self.batch_dispatches)),
            ("bitwave_serve_batch_coalesced_total", "Requests that rode an in-flight identical dispatch.", COUNTER, load(&self.batch_coalesced)),
            ("bitwave_serve_batch_requests_total", "Requests answered through dispatch fan-outs.", COUNTER, load(&self.batch_requests)),
            ("bitwave_serve_idle_closed_total", "Keep-alive connections closed by the idle deadline.", COUNTER, load(&self.idle_closed)),
            ("bitwave_serve_request_timeout_408_total", "Partial requests answered 408 at the read deadline.", COUNTER, load(&self.request_timeout_408)),
            ("bitwave_serve_stalled_writer_dropped_total", "Connections dropped for not draining a response by the write deadline.", COUNTER, load(&self.stalled_writer_dropped)),
            ("bitwave_serve_weight_generations_total", "Synthetic weight-set generations (model-store misses).", COUNTER, store.generations()),
            ("bitwave_tensor_deep_copies_total", "Process-wide QuantTensor deep copies (the zero-copy invariant).", COUNTER, bitwave_tensor::copy_metrics::deep_copies()),
            ("bitwave_sweep_profile_reuse_total", "Sweep portfolio models served from the shared profile cache.", COUNTER, reuse(bitwave_sweep::portfolio_cache_stats())),
            ("bitwave_sweep_space_reuse_total", "DSE mapping-space enumerations served from the shared space cache.", COUNTER, reuse(bitwave::dse::space_cache_stats())),
            ("bitwave_sweep_factored_repriced_total", "Factored layer searches re-priced instead of fully re-searched.", COUNTER, bitwave::dse::factored_repriced_total()),
            ("bitwave_serve_connections_open", "Currently open client connections.", GAUGE, load(&self.connections_open)),
            ("bitwave_serve_inflight_depth", "Distinct digests in flight.", GAUGE, load(&self.inflight_depth)),
        ];
        let mut out = String::with_capacity(4096);
        for (name, help, kind, value) in scalars {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
            ));
        }

        let tiered = |op: CacheOp| {
            let tier = cache.store(op);
            OpSample {
                op: op.as_str(),
                stats: tier.stats(),
                mem_entries: tier.mem_entries() as u64,
                mem_bytes: tier.mem_bytes(),
                disk_entries: tier.disk_entries(),
                disk_bytes: tier.disk_bytes(),
            }
        };
        let samples = [
            tiered(CacheOp::Evaluate),
            tiered(CacheOp::Search),
            tiered(CacheOp::Design),
            OpSample {
                op: "weights",
                stats: store.stats(),
                mem_entries: store.len() as u64,
                mem_bytes: store.bytes(),
                disk_entries: 0,
                disk_bytes: 0,
            },
        ];
        for (name, help, kind, value) in FAMILIES {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
            for sample in &samples {
                out.push_str(&format!(
                    "{name}{{op=\"{}\"}} {}\n",
                    sample.op,
                    value(sample)
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_emits_every_counter_family() {
        let metrics = ServiceMetrics::default();
        ServiceMetrics::bump(&metrics.http_requests);
        ServiceMetrics::bump(&metrics.evaluations);
        let cache = ReportCache::new(4);
        cache
            .get_or_compute(
                crate::cache::CacheOp::Evaluate,
                bitwave::digest::Digest::of_bytes(b"m"),
                || Ok("{}".to_string()),
            )
            .unwrap();
        let store = ModelStore::new(2);
        let text = metrics.render(&cache, &store);
        for family in [
            "bitwave_serve_http_requests_total 1",
            "bitwave_serve_http_errors_total 0",
            "bitwave_serve_evaluations_total 1",
            "bitwave_memory_bound_layers_total 0",
            "bitwave_serve_queue_rejections_total 0",
            "bitwave_serve_report_replays_total 0",
            "bitwave_serve_searches_total 0",
            "bitwave_serve_sheds_total 0",
            "bitwave_serve_rate_limited_total 0",
            "bitwave_serve_batch_dispatches_total 0",
            "bitwave_serve_batch_coalesced_total 0",
            "bitwave_serve_batch_requests_total 0",
            "bitwave_serve_idle_closed_total 0",
            "bitwave_serve_request_timeout_408_total 0",
            "bitwave_serve_stalled_writer_dropped_total 0",
            "bitwave_serve_connections_open 0",
            "bitwave_serve_inflight_depth 0",
            "bitwave_serve_weight_generations_total 0",
            "bitwave_tensor_deep_copies_total",
            "bitwave_sweep_profile_reuse_total",
            "bitwave_sweep_space_reuse_total",
            "bitwave_sweep_factored_repriced_total",
            "bitwave_store_hits_total{op=\"evaluate\"} 0",
            "bitwave_store_disk_hits_total{op=\"search\"} 0",
            "bitwave_store_misses_total{op=\"evaluate\"} 1",
            "bitwave_store_coalesced_total{op=\"weights\"} 0",
            "bitwave_store_quarantined_total{op=\"search\"} 0",
            "bitwave_store_disk_write_errors_total{op=\"evaluate\"} 0",
            "bitwave_store_mem_entries{op=\"evaluate\"} 1",
            "bitwave_store_mem_bytes{op=\"evaluate\"} 2",
            "bitwave_store_disk_entries{op=\"evaluate\"} 0",
            "bitwave_store_disk_bytes{op=\"search\"} 0",
            "bitwave_store_mem_entries{op=\"weights\"} 0",
            "bitwave_store_misses_total{op=\"design\"} 0",
        ] {
            assert!(text.contains(family), "missing `{family}` in:\n{text}");
        }
        assert!(!text.contains("bitwave_serve_cache_"));
        assert!(!text.contains("bitwave_dse_memo_"));
        assert!(!text.contains("op=\"dse\""));
        assert!(text.contains("# TYPE bitwave_serve_connections_open gauge"));
        assert!(text.contains("# TYPE bitwave_serve_inflight_depth gauge"));
        assert!(text.contains("# TYPE bitwave_store_mem_bytes gauge"));
        assert!(text.contains("# TYPE bitwave_store_hits_total counter"));
    }

    #[test]
    fn families_keep_their_names_types_and_order() {
        let text = ServiceMetrics::default().render(&ReportCache::new(1), &ModelStore::new(1));
        let families: Vec<&str> = text
            .lines()
            .filter_map(|line| line.strip_prefix("# TYPE "))
            .collect();
        let expected = [
            "bitwave_serve_http_requests_total counter",
            "bitwave_serve_http_errors_total counter",
            "bitwave_serve_evaluations_total counter",
            "bitwave_memory_bound_layers_total counter",
            "bitwave_serve_queue_rejections_total counter",
            "bitwave_serve_report_replays_total counter",
            "bitwave_serve_searches_total counter",
            "bitwave_serve_sheds_total counter",
            "bitwave_serve_rate_limited_total counter",
            "bitwave_serve_batch_dispatches_total counter",
            "bitwave_serve_batch_coalesced_total counter",
            "bitwave_serve_batch_requests_total counter",
            "bitwave_serve_idle_closed_total counter",
            "bitwave_serve_request_timeout_408_total counter",
            "bitwave_serve_stalled_writer_dropped_total counter",
            "bitwave_serve_weight_generations_total counter",
            "bitwave_tensor_deep_copies_total counter",
            "bitwave_sweep_profile_reuse_total counter",
            "bitwave_sweep_space_reuse_total counter",
            "bitwave_sweep_factored_repriced_total counter",
            "bitwave_serve_connections_open gauge",
            "bitwave_serve_inflight_depth gauge",
            "bitwave_store_hits_total counter",
            "bitwave_store_disk_hits_total counter",
            "bitwave_store_misses_total counter",
            "bitwave_store_coalesced_total counter",
            "bitwave_store_evictions_total counter",
            "bitwave_store_quarantined_total counter",
            "bitwave_store_disk_write_errors_total counter",
            "bitwave_store_mem_entries gauge",
            "bitwave_store_mem_bytes gauge",
            "bitwave_store_disk_entries gauge",
            "bitwave_store_disk_bytes gauge",
        ];
        assert_eq!(families, expected);
        // Each family's HELP line directly precedes its TYPE line.
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if let Some(family) = line.strip_prefix("# TYPE ") {
                let name = family.split(' ').next().unwrap();
                assert!(lines[i - 1].starts_with(&format!("# HELP {name} ")));
            }
        }
    }
}
