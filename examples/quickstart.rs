//! Quickstart: run one ResNet18 model through the unified pipeline
//! (compress → bit-flip → map → simulate) and print one layer's full
//! report as pretty JSON, then compare against the dense reference.
//!
//! Run with: `cargo run --example quickstart`

use bitwave::accel::spec::AcceleratorSpec;
use bitwave::context::ExperimentContext;
use bitwave::dnn::models::resnet18;
use bitwave::error::BitwaveError;
use bitwave::pipeline::Pipeline;

fn main() -> Result<(), BitwaveError> {
    // 1. Configure the experiment: synthetic Int8 ResNet18 weights, sampled
    //    to 100k elements per layer, grouped 16 channels at a time.
    let ctx = ExperimentContext::default().with_sample_cap(100_000);
    let net = resnet18();

    // 2. One pipeline per accelerator configuration.  The BitWave pipeline
    //    also applies the paper's default one-shot Bit-Flip strategy.
    let bitwave = Pipeline::new(ctx.clone()).with_default_bitflip(&net);
    let dense = Pipeline::new(ctx.clone()).with_accelerator(AcceleratorSpec::dense());

    // 3. Generate the weights once and run the whole model on both
    //    pipelines, one layer per core; the result is bit-identical to
    //    running the layers one after another.
    let weights = ctx.weights(&net);
    let report = bitwave.run(&net, &weights)?;
    let dense_report = dense.run(&net, &weights)?;

    // 4. Inspect one weight-heavy layer end to end: serde serialises the
    //    full LayerReport (sparsity, compression, bit-flip, mapping and
    //    simulation sections) straight to JSON.
    let layer = report
        .layers
        .iter()
        .find(|l| l.layer == "layer4.0.conv1")
        .ok_or_else(|| BitwaveError::MissingLayer {
            network: net.name.clone(),
            layer: "layer4.0.conv1".to_string(),
        })?;
    println!("=== LayerReport for {} ===", layer.layer);
    println!("{}", serde_json::to_string_pretty(layer)?);

    // 5. Whole-model summary: BitWave vs the dense reference.
    println!();
    println!("=== Whole-model summary ({}) ===", report.network);
    println!(
        "weight compression : {:.2}x (index included)",
        report.weight_compression_ratio
    );
    println!(
        "dense reference    : {:>14.0} cycles, {:.3} mJ",
        dense_report.total_cycles,
        dense_report.energy.total_mj()
    );
    println!(
        "BitWave (DF+SM+BF) : {:>14.0} cycles, {:.3} mJ  ({:.2}x faster)",
        report.total_cycles,
        report.energy.total_mj(),
        report.speedup_over(&dense_report)
    );
    Ok(())
}
