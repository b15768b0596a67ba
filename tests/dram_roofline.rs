//! Integration tests for the DRAM roofline: the unconstrained default tier
//! must preserve the legacy additive Eq. 5 reports *byte for byte* (no
//! boundedness keys, identical totals), while a constrained tier switches
//! the per-layer total to `max(compute, dram)` and surfaces the
//! memory-bound verdict through [`ModelReport`].

use bitwave::accel::spec::{AcceleratorSpec, BitwaveOptimizations};
use bitwave::context::ExperimentContext;
use bitwave::dataflow::DramSpec;
use bitwave::dnn::layer::LayerSpec;
use bitwave::dnn::models::{NetworkSpec, TaskKind};
use bitwave::pipeline::{ModelReport, Pipeline};

fn network() -> NetworkSpec {
    NetworkSpec {
        name: "RooflineNet".to_string(),
        task: TaskKind::Classification,
        baseline_quality: 70.0,
        layers: vec![
            LayerSpec::conv2d("stem", 3, 16, 3, 1, 1, 16, 0.9),
            LayerSpec::conv2d("mid", 16, 32, 3, 2, 1, 16, 0.3),
            LayerSpec::linear("head", 2048, 10, 1, 0.5),
        ],
    }
}

fn run(dram: DramSpec) -> ModelReport {
    let mut spec = AcceleratorSpec::bitwave(BitwaveOptimizations::all());
    spec.dram = dram;
    let ctx = ExperimentContext::default()
        .with_sample_cap(2_000)
        .with_seed(7);
    let net = network();
    let weights = ctx.weights(&net);
    Pipeline::new(ctx)
        .with_accelerator(spec)
        .run(&net, &weights)
        .expect("pipeline run succeeds")
}

#[test]
fn unconstrained_default_reports_no_boundedness_keys() {
    let report = run(DramSpec::unconstrained());
    let json = serde_json::to_string_pretty(&report).unwrap();
    assert!(
        !json.contains("boundedness") && !json.contains("memory_bound"),
        "the unconstrained default must keep report JSON byte-identical to \
         the pre-DRAM schema"
    );
    assert_eq!(report.memory_bound_layers, 0);
    for layer in &report.layers {
        assert!(layer.simulation.boundedness.is_none());
        // Legacy additive Eq. 5: total = dram + everything else, so the
        // DRAM term is strictly inside the total whenever it is non-zero.
        assert!(layer.simulation.dram_cycles <= layer.simulation.total_cycles);
    }
    // Legacy JSON (without the new optional keys) still deserializes.
    let back: ModelReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back, report);
}

#[test]
fn generous_bandwidth_collapses_the_roofline_to_compute() {
    let baseline = run(DramSpec::unconstrained());
    let report = run(DramSpec::constrained(1 << 30));
    assert_eq!(report.memory_bound_layers, 0);
    for (layer, legacy) in report.layers.iter().zip(&baseline.layers) {
        let b = layer
            .simulation
            .boundedness
            .expect("constrained tiers always report boundedness");
        assert!(!b.memory_bound);
        assert_eq!(b.dram_stall_cycles, 0.0);
        // total = max(compute_side, ~0) = compute_side, which is the legacy
        // additive total minus its serialized DRAM term.
        assert!((layer.simulation.total_cycles - b.compute_side_cycles).abs() < 1e-6);
        assert!(layer.simulation.total_cycles <= legacy.simulation.total_cycles + 1e-6);
    }
}

#[test]
fn starved_bandwidth_surfaces_memory_bound_layers() {
    let report = run(DramSpec::constrained(1));
    assert!(
        report.memory_bound_layers > 0,
        "a 1 bit/cycle interface must leave layers memory bound"
    );
    assert!(report.memory_bound_layers <= report.layers.len());
    let bound = report
        .layers
        .iter()
        .find(|l| l.simulation.boundedness.is_some_and(|b| b.memory_bound))
        .expect("at least one memory-bound layer");
    let b = bound.simulation.boundedness.unwrap();
    assert!((bound.simulation.total_cycles - b.dram_cycles).abs() < 1e-6);
    assert!(b.dram_stall_fraction > 0.0 && b.dram_stall_fraction < 1.0);
    assert!(b.weight_fetches >= 1 && b.act_fetches >= 1);
    let json = serde_json::to_string_pretty(&report).unwrap();
    assert!(json.contains("\"memory_bound_layers\""));
    assert!(json.contains("\"dram_stall_fraction\""));
    let back: ModelReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back, report);
}

#[test]
fn throttling_never_reduces_total_cycles() {
    let unconstrained = run(DramSpec::unconstrained());
    let generous = run(DramSpec::constrained(1 << 30));
    let throttled = run(DramSpec::constrained(8));
    let starved = run(DramSpec::constrained(1));
    for ((g, t), s) in generous
        .layers
        .iter()
        .zip(&throttled.layers)
        .zip(&starved.layers)
    {
        assert!(t.simulation.total_cycles >= g.simulation.total_cycles - 1e-6);
        assert!(s.simulation.total_cycles >= t.simulation.total_cycles - 1e-6);
    }
    // Compute-side work (effective MACs) is bandwidth-independent.
    for report in [&generous, &throttled, &starved] {
        for (layer, legacy) in report.layers.iter().zip(&unconstrained.layers) {
            assert_eq!(
                layer.simulation.effective_macs,
                legacy.simulation.effective_macs
            );
        }
    }
}
