//! End-to-end API tests over a real socket: endpoint coverage, cache
//! semantics (digest-stable, byte-identical replay), error mapping and
//! metrics.

use bitwave_serve::client::Client;
use bitwave_serve::server::{start, ServeConfig, ServerHandle};
use bitwave_serve::EvaluateResponse;
use std::path::PathBuf;

fn test_server() -> ServerHandle {
    start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("server starts")
}

const RESNET_SMALL: &str = r#"{"model":"resnet18","sample_cap":2000}"#;

#[test]
fn health_models_accelerators_and_metrics_respond() {
    let handle = test_server();
    let mut client = Client::new(handle.local_addr());

    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(health.text().unwrap(), r#"{"status":"ok"}"#);

    let models = client.get("/v1/models").unwrap();
    assert_eq!(models.status, 200);
    let listed: Vec<bitwave_serve::api::ModelListing> =
        serde_json::from_str(models.text().unwrap()).unwrap();
    assert_eq!(listed.len(), 4);
    assert!(listed.iter().any(|m| m.name == "bert-base"));

    let accels = client.get("/v1/accelerators").unwrap();
    assert_eq!(accels.status, 200);
    let listed: Vec<bitwave_serve::api::AcceleratorListing> =
        serde_json::from_str(accels.text().unwrap()).unwrap();
    assert_eq!(listed.len(), 9);

    let metrics = client.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let text = metrics.text().unwrap();
    assert!(text.contains("bitwave_serve_http_requests_total"));
    assert!(text.contains("bitwave_tensor_deep_copies_total"));

    drop(client);
    handle.shutdown();
}

#[test]
fn evaluate_twice_is_digest_stable_and_byte_identical() {
    let handle = test_server();
    let mut client = Client::new(handle.local_addr());

    let cold = client.post_json("/v1/evaluate", RESNET_SMALL).unwrap();
    assert_eq!(cold.status, 200, "cold: {:?}", cold.text());
    assert_eq!(cold.header("x-bitwave-cache"), Some("miss"));
    let warm = client.post_json("/v1/evaluate", RESNET_SMALL).unwrap();
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("x-bitwave-cache"), Some("hit"));
    assert_eq!(cold.body, warm.body, "hit must replay byte-identical JSON");
    assert_eq!(
        cold.header("x-bitwave-digest"),
        warm.header("x-bitwave-digest")
    );

    // A logically identical request with explicit defaults and a different
    // name spelling lands on the same cache entry.
    let spelled = client
        .post_json(
            "/v1/evaluate",
            r#"{"model":"ResNet18","accelerator":"bitwave","bitflip":false,"sample_cap":2000,"seed":42,"group_size":16}"#,
        )
        .unwrap();
    assert_eq!(spelled.header("x-bitwave-cache"), Some("hit"));
    assert_eq!(spelled.body, cold.body);

    let parsed: EvaluateResponse = serde_json::from_str(cold.text().unwrap()).unwrap();
    assert_eq!(parsed.key.model, "ResNet18");
    assert_eq!(parsed.report.layers.len(), 21);
    assert_eq!(
        Some(parsed.digest.as_str()),
        cold.header("x-bitwave-digest")
    );

    drop(client);
    handle.shutdown();
}

#[test]
fn reports_endpoint_replays_without_recomputation() {
    let handle = test_server();
    let mut client = Client::new(handle.local_addr());

    let cold = client.post_json("/v1/evaluate", RESNET_SMALL).unwrap();
    let digest = cold.header("x-bitwave-digest").unwrap().to_string();
    let evaluations_before = handle.state().store.generations();

    let replay = client.get(&format!("/v1/reports/{digest}")).unwrap();
    assert_eq!(replay.status, 200);
    assert_eq!(replay.body, cold.body);
    assert_eq!(
        handle.state().store.generations(),
        evaluations_before,
        "replay must not regenerate weights"
    );

    // Digest lookup is case-insensitive (keys are canonical lowercase).
    let upper = client
        .get(&format!("/v1/reports/{}", digest.to_uppercase()))
        .unwrap();
    assert_eq!(upper.status, 200);
    assert_eq!(upper.body, cold.body);

    let missing = client
        .get("/v1/reports/00000000000000000000000000000000")
        .unwrap();
    assert_eq!(missing.status, 404);
    let malformed = client.get("/v1/reports/not-a-digest").unwrap();
    assert_eq!(malformed.status, 400);

    drop(client);
    handle.shutdown();
}

fn temp_store_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("bitwave-serve-api-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn persistent_server(root: &std::path::Path) -> ServerHandle {
    start(ServeConfig {
        workers: 2,
        store_root: Some(root.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    })
    .expect("persistent server starts")
}

#[test]
fn persistent_store_replays_across_restarts_byte_identically() {
    let root = temp_store_root("restart");

    // First process lifetime: a cold evaluation lands on disk.
    let first = persistent_server(&root);
    let mut client = Client::new(first.local_addr());
    let cold = client.post_json("/v1/evaluate", RESNET_SMALL).unwrap();
    assert_eq!(cold.status, 200, "cold: {:?}", cold.text());
    assert_eq!(cold.header("x-bitwave-cache"), Some("miss"));
    let cold_body = cold.body.clone();
    drop(client);
    first.shutdown();

    // Second lifetime over the same root: the evaluation replays from the
    // disk tier — no recomputation, byte-identical bytes, `disk` source.
    let second = persistent_server(&root);
    let mut client = Client::new(second.local_addr());
    let warm = client.post_json("/v1/evaluate", RESNET_SMALL).unwrap();
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("x-bitwave-cache"), Some("disk"));
    assert_eq!(warm.body, cold_body, "disk hits replay byte-identical JSON");
    assert_eq!(
        second.state().store.generations(),
        0,
        "a disk replay must not regenerate weights"
    );

    // Once promoted, the next lookup is a plain memory hit.
    let warmest = client.post_json("/v1/evaluate", RESNET_SMALL).unwrap();
    assert_eq!(warmest.header("x-bitwave-cache"), Some("hit"));
    assert_eq!(warmest.body, cold_body);

    // The metrics surface the per-op disk activity.
    let metrics = client.get("/metrics").unwrap();
    let text = metrics.text().unwrap();
    assert!(
        text.contains("bitwave_store_disk_hits_total{op=\"evaluate\"} 1"),
        "disk hit must be counted:\n{text}"
    );
    assert!(text.contains("bitwave_store_disk_entries{op=\"evaluate\"} 1"));

    drop(client);
    second.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn reports_endpoint_hits_the_disk_tier_after_a_restart() {
    let root = temp_store_root("reports");

    let first = persistent_server(&root);
    let mut client = Client::new(first.local_addr());
    let cold = client.post_json("/v1/evaluate", RESNET_SMALL).unwrap();
    assert_eq!(cold.status, 200);
    let digest = cold.header("x-bitwave-digest").unwrap().to_string();
    let cold_body = cold.body.clone();
    drop(client);
    first.shutdown();

    // GET /v1/reports/{digest} on a fresh process must reach the disk tier
    // directly — no POST has warmed the memory tier.
    let second = persistent_server(&root);
    let mut client = Client::new(second.local_addr());
    let replay = client.get(&format!("/v1/reports/{digest}")).unwrap();
    assert_eq!(replay.status, 200, "replay: {:?}", replay.text());
    assert_eq!(replay.body, cold_body, "replay must be byte-identical");
    assert_eq!(
        second.state().store.generations(),
        0,
        "replay must not evaluate anything"
    );

    drop(client);
    second.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn error_statuses_are_mapped() {
    let handle = test_server();
    let mut client = Client::new(handle.local_addr());

    let bad_json = client.post_json("/v1/evaluate", "not json").unwrap();
    assert_eq!(bad_json.status, 400);
    assert!(bad_json.text().unwrap().contains("error"));

    let unknown_model = client
        .post_json("/v1/evaluate", r#"{"model":"alexnet"}"#)
        .unwrap();
    assert_eq!(unknown_model.status, 400);
    assert!(unknown_model.text().unwrap().contains("resnet18"));

    let unknown_path = client.get("/v2/evaluate").unwrap();
    assert_eq!(unknown_path.status, 404);

    let wrong_method = client.get("/v1/evaluate").unwrap();
    assert_eq!(wrong_method.status, 405);

    drop(client);
    handle.shutdown();
}

#[test]
fn metrics_track_cache_and_evaluation_counters() {
    let handle = test_server();
    let mut client = Client::new(handle.local_addr());

    client.post_json("/v1/evaluate", RESNET_SMALL).unwrap();
    client.post_json("/v1/evaluate", RESNET_SMALL).unwrap();
    let metrics = client.get("/metrics").unwrap();
    let text = metrics.text().unwrap().to_string();
    assert!(
        text.contains("bitwave_serve_evaluations_total 1"),
        "exactly one cold evaluation:\n{text}"
    );
    assert!(
        text.contains("bitwave_store_hits_total{op=\"evaluate\"} 1"),
        "one hit:\n{text}"
    );
    assert!(
        text.contains("bitwave_store_misses_total{op=\"evaluate\"} 1"),
        "one miss:\n{text}"
    );
    assert!(
        text.contains("bitwave_serve_weight_generations_total 1"),
        "one weight generation:\n{text}"
    );

    drop(client);
    handle.shutdown();
}

#[test]
fn search_endpoint_misses_then_replays_byte_identical() {
    let handle = test_server();
    let mut client = Client::new(handle.local_addr());
    let body = r#"{"model":"resnet18","sample_cap":1500}"#;

    let cold = client.post_json("/v1/search", body).unwrap();
    assert_eq!(cold.status, 200, "cold: {:?}", cold.text());
    assert_eq!(cold.header("x-bitwave-cache"), Some("miss"));
    let cold_digest = cold.header("x-bitwave-digest").unwrap().to_string();
    let cold_body = cold.text().unwrap().to_string();

    let warm = client.post_json("/v1/search", body).unwrap();
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("x-bitwave-cache"), Some("hit"));
    assert_eq!(warm.header("x-bitwave-digest"), Some(cold_digest.as_str()));
    assert_eq!(
        warm.text().unwrap(),
        cold_body,
        "cache hits must replay byte-identical search responses"
    );

    // The response carries per-layer winners, fronts and the comparison.
    let value: serde_json::Value = serde_json::from_str(&cold_body).unwrap();
    assert_eq!(
        value.get("digest").and_then(serde_json::Value::as_str),
        Some(cold_digest.as_str())
    );
    let search = value.get("search").expect("search payload");
    let layers = search
        .get("layers")
        .and_then(serde_json::Value::as_array)
        .unwrap();
    assert_eq!(layers.len(), 21, "one row per ResNet18 layer");
    for layer in layers {
        assert!(layer.get("heuristic").is_some());
        let winner = layer.get("search").and_then(|s| s.get("winner")).unwrap();
        assert!(winner.get("cost").and_then(|c| c.get("edp")).is_some());
        assert!(layer
            .get("search")
            .and_then(|s| s.get("front"))
            .and_then(serde_json::Value::as_array)
            .is_some_and(|front| !front.is_empty()));
    }
    let heuristic_edp = search
        .get("heuristic_edp")
        .and_then(serde_json::Value::as_f64)
        .unwrap();
    let searched_edp = search
        .get("searched_edp")
        .and_then(serde_json::Value::as_f64)
        .unwrap();
    assert!(searched_edp <= heuristic_edp);

    // Search digests live in the same replay namespace as reports.
    let replay = client.get(&format!("/v1/reports/{cold_digest}")).unwrap();
    assert_eq!(replay.status, 200);
    assert_eq!(replay.text().unwrap(), cold_body);

    // Searches count their own metric, not evaluations.
    let metrics = client.get("/metrics").unwrap();
    let text = metrics.text().unwrap().to_string();
    assert!(text.contains("bitwave_serve_searches_total 1"), "{text}");
    assert!(text.contains("bitwave_serve_evaluations_total 0"), "{text}");

    // Method and knob errors are mapped.
    let wrong_method = client.get("/v1/search").unwrap();
    assert_eq!(wrong_method.status, 405);
    let bad_knob = client
        .post_json("/v1/search", r#"{"model":"resnet18","mapping":"searched"}"#)
        .unwrap();
    assert_eq!(bad_knob.status, 400);

    drop(client);
    handle.shutdown();
}

#[test]
fn searched_evaluations_are_cached_separately_from_heuristic_ones() {
    let handle = test_server();
    let mut client = Client::new(handle.local_addr());
    let heuristic = client.post_json("/v1/evaluate", RESNET_SMALL).unwrap();
    assert_eq!(heuristic.status, 200);
    let searched = client
        .post_json(
            "/v1/evaluate",
            r#"{"model":"resnet18","sample_cap":2000,"mapping":"searched"}"#,
        )
        .unwrap();
    assert_eq!(searched.status, 200, "searched: {:?}", searched.text());
    assert_eq!(searched.header("x-bitwave-cache"), Some("miss"));
    assert_ne!(
        heuristic.header("x-bitwave-digest"),
        searched.header("x-bitwave-digest"),
        "the mapping policy must be part of the cache address"
    );
    let h: EvaluateResponse = serde_json::from_str(heuristic.text().unwrap()).unwrap();
    let s: EvaluateResponse = serde_json::from_str(searched.text().unwrap()).unwrap();
    let edp = |r: &EvaluateResponse| r.report.total_cycles * r.report.energy.total_pj();
    assert!(edp(&s) <= edp(&h), "searched EDP must not exceed heuristic");

    drop(client);
    handle.shutdown();
}
