//! Helpers shared by the root integration tests.

use bitwave::dnn::models::NetworkSpec;
use bitwave::dnn::weights::NetworkWeights;
use bitwave::pipeline::{ModelReport, Pipeline};

/// The sequential reference of [`Pipeline::run`]: every planned job
/// through [`Pipeline::run_job`] in layer order, aggregated with
/// [`ModelReport::from_layers`] — the stage-by-stage path the end-to-end
/// benchmark's reference mode replays.
pub fn run_sequentially(
    pipeline: &Pipeline,
    net: &NetworkSpec,
    weights: &NetworkWeights,
) -> ModelReport {
    let layers = pipeline
        .jobs_with_weights(net, weights)
        .unwrap()
        .into_iter()
        .map(|job| pipeline.run_job(job).unwrap())
        .collect();
    ModelReport::from_layers(
        net.name.clone(),
        pipeline.accelerator().label.clone(),
        layers,
    )
}
