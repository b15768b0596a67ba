//! Golden-report snapshot tests.
//!
//! One fixed synthetic network is run through the full pipeline for every
//! codec/accelerator combination the evaluation exercises (no compression,
//! BCS with Bit-Flip, ZRE, and both bit-serial baselines), and the resulting
//! [`ModelReport`] JSON is compared **byte for byte** against the snapshots
//! under `tests/golden/`.  These snapshots were captured before the
//! zero-copy/single-pass pipeline refactor, so they pin the refactor to
//! bit-identical numerical output.
//!
//! # Updating the snapshots
//!
//! When an *intentional* model change alters the reports, regenerate the
//! snapshots and commit the diff:
//!
//! ```bash
//! UPDATE_GOLDEN=1 cargo test -q --test golden_reports
//! ```
//!
//! Never set `UPDATE_GOLDEN` to make an unexplained mismatch go away: a
//! mismatch means the pipeline's numerical behaviour changed.

use bitwave::accel::spec::{AcceleratorSpec, BitwaveOptimizations};
use bitwave::context::ExperimentContext;
use bitwave::dnn::layer::{LayerKind, LayerSpec};
use bitwave::dnn::models::{NetworkSpec, TaskKind};
use bitwave::pipeline::{ModelReport, Pipeline};
use std::fs;
use std::path::PathBuf;

/// A small fixed network covering all weight-tensor ranks the grouping
/// supports (4-D conv, 1×1 conv, 2-D linear) with both sensitive and
/// insensitive layers, so the default Bit-Flip strategy targets a strict
/// subset of the layers.
fn golden_network() -> NetworkSpec {
    NetworkSpec {
        name: "GoldenNet".to_string(),
        task: TaskKind::Classification,
        baseline_quality: 71.0,
        layers: vec![
            LayerSpec::conv2d("stem", 3, 16, 3, 1, 1, 16, 0.9),
            LayerSpec::conv2d("mid", 16, 32, 3, 2, 1, 16, 0.3),
            LayerSpec::pointwise("proj", 32, 64, 8, 0.2),
            LayerSpec::linear("head", 1024, 10, 1, 0.5),
        ],
    }
}

fn golden_context() -> ExperimentContext {
    ExperimentContext::default()
        .with_sample_cap(4_000)
        .with_seed(7)
}

/// `(file slug, accelerator, apply the default Bit-Flip strategy)` — one case
/// per codec/accelerator combination.
fn golden_cases() -> Vec<(&'static str, AcceleratorSpec, bool)> {
    vec![
        ("dense", AcceleratorSpec::dense(), false),
        (
            "bitwave_bcs_lossless",
            AcceleratorSpec::bitwave(BitwaveOptimizations::all()),
            false,
        ),
        (
            "bitwave_bcs_bitflip",
            AcceleratorSpec::bitwave(BitwaveOptimizations::all()),
            true,
        ),
        ("scnn_zre", AcceleratorSpec::scnn(), false),
        ("pragmatic", AcceleratorSpec::pragmatic(), false),
        ("bitlet", AcceleratorSpec::bitlet(), false),
    ]
}

/// A small fixed network with a **non-CNN layer mix** — attention
/// projections, feed-forward blocks, an LSTM gate bundle and a linear head —
/// so the snapshots also pin the matmul/LSTM code paths (dense weight
/// profiles, low column sparsity) that `golden_network` cannot reach.  The
/// layer-1 projections are marked sensitive like BERT's (Fig. 6d), so the
/// default Bit-Flip strategy differentiates targets.
fn golden_bert_network() -> NetworkSpec {
    let mut layers = Vec::new();
    for (layer_no, sensitivity) in [(0usize, 0.35f64), (1, 1.0)] {
        for proj in ["q", "output"] {
            layers.push(LayerSpec::transformer(
                format!("encoder.{layer_no}.attention.{proj}"),
                LayerKind::AttentionProjection,
                192,
                192,
                4,
                sensitivity,
            ));
        }
        layers.push(LayerSpec::transformer(
            format!("encoder.{layer_no}.intermediate"),
            LayerKind::FeedForward,
            192,
            768,
            4,
            sensitivity * 0.8,
        ));
        layers.push(LayerSpec::transformer(
            format!("encoder.{layer_no}.ffn_output"),
            LayerKind::FeedForward,
            768,
            192,
            4,
            sensitivity * 0.8,
        ));
    }
    layers.push(LayerSpec::lstm_gates("lstm.0", 192, 96, 16, 0.45));
    layers.push(LayerSpec::transformer(
        "qa_outputs",
        LayerKind::Linear,
        192,
        2,
        4,
        0.3,
    ));
    NetworkSpec {
        name: "GoldenBert".to_string(),
        task: TaskKind::QuestionAnswering,
        baseline_quality: 88.0,
        layers,
    }
}

fn golden_path(slug: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{slug}.json"))
}

/// Byte-compares `report` against `tests/golden/{slug}.json`, or rewrites
/// the snapshot when `UPDATE_GOLDEN` is set.
fn assert_matches_golden(slug: &str, report: &ModelReport) {
    let json = serde_json::to_string_pretty(report).expect("report serializes") + "\n";
    assert_json_matches_golden(slug, &json);
}

/// Byte-compares pretty `json` against `tests/golden/{slug}.json`, or
/// rewrites the snapshot when `UPDATE_GOLDEN` is set.
fn assert_json_matches_golden(slug: &str, json: &str) {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let path = golden_path(slug);
    if update {
        fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        fs::write(&path, json).expect("write golden snapshot");
        return;
    }
    let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run `UPDATE_GOLDEN=1 cargo test -q --test \
             golden_reports` to create it",
            path.display()
        )
    });
    assert_eq!(
        json, golden,
        "`{slug}` diverged from its golden snapshot; if the change is \
         intentional, regenerate with `UPDATE_GOLDEN=1 cargo test -q --test golden_reports`"
    );
}

#[test]
fn model_reports_match_golden_snapshots() {
    let net = golden_network();
    for (slug, accelerator, bitflip) in golden_cases() {
        let mut pipeline = Pipeline::new(golden_context()).with_accelerator(accelerator);
        if bitflip {
            pipeline = pipeline.with_default_bitflip(&net);
        }
        let report = pipeline
            .run(&net, &golden_context().weights(&net))
            .expect("golden run succeeds");
        assert_matches_golden(slug, &report);
    }
}

#[test]
fn bert_style_model_report_matches_golden_snapshot() {
    // The non-CNN mix runs the full BitWave configuration with the default
    // Bit-Flip strategy, which must target only the insensitive encoder-0
    // blocks (BERT-style sensitivity split).
    let net = golden_bert_network();
    let report = Pipeline::new(golden_context())
        .with_accelerator(AcceleratorSpec::bitwave(BitwaveOptimizations::all()))
        .with_default_bitflip(&net)
        .run(&net, &golden_context().weights(&net))
        .expect("golden bert run succeeds");
    assert!(
        report.layers.iter().any(|l| l.bitflip.is_some()),
        "the default strategy must flip some weight-heavy layer"
    );
    assert_matches_golden("bert_style", &report);
}

/// `golden_network` with a depthwise layer spliced in, so the search
/// snapshot also pins the `G×OX` candidates only depthwise layers enumerate.
fn golden_search_network() -> NetworkSpec {
    let mut net = golden_network();
    net.name = "GoldenSearchNet".to_string();
    net.layers
        .insert(2, LayerSpec::depthwise("dw", 32, 3, 1, 1, 8, 0.3));
    net
}

/// The `POST /v1/search` payload (per-layer heuristic vs searched winner,
/// Pareto fronts and network totals) of one small network, pinned byte for
/// byte at the unconstrained DRAM default and under a throttled DRAM tier
/// (which adds the roofline's `memory_bound_layers`).
#[test]
fn search_results_match_golden_snapshots() {
    use bitwave::dataflow::DramSpec;
    let net = golden_search_network();
    let weights = golden_context().weights(&net);
    let mut throttled = AcceleratorSpec::bitwave(BitwaveOptimizations::all());
    throttled.dram = DramSpec::constrained(64);
    for (slug, accelerator) in [
        (
            "search_goldennet",
            AcceleratorSpec::bitwave(BitwaveOptimizations::all()),
        ),
        ("search_goldennet_throttled", throttled),
    ] {
        let search = Pipeline::new(golden_context())
            .with_accelerator(accelerator)
            .search_model_weights(&net, &weights)
            .expect("golden search succeeds");
        let json = serde_json::to_string_pretty(&search).expect("search serializes") + "\n";
        assert_json_matches_golden(slug, &json);
    }
}

#[test]
fn golden_cases_cover_every_codec_and_pe_style() {
    use bitwave::accel::spec::{PeStyle, WeightCompression};
    let cases = golden_cases();
    for compression in [
        WeightCompression::None,
        WeightCompression::Zre,
        WeightCompression::Bcs,
    ] {
        assert!(
            cases.iter().any(|(_, a, _)| a.compression == compression),
            "no golden case covers {compression:?}"
        );
    }
    for style in [
        PeStyle::BitParallel,
        PeStyle::BitSerial,
        PeStyle::BitColumnSerial,
    ] {
        assert!(
            cases.iter().any(|(_, a, _)| a.pe_style == style),
            "no golden case covers {style:?}"
        );
    }
}
