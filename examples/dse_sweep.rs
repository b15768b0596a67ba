//! Per-layer heuristic-vs-searched mapping comparison.
//!
//! Runs the `bitwave-dse` design-space exploration over two registry models
//! on the fully optimised BitWave accelerator — behind a throttled DRAM
//! interface, so the per-layer roofline `max(compute, dram)` is live — and
//! prints, for every layer, the Fig. 9 heuristic's pick next to the searched
//! winner with their EDPs, the winner's compute-vs-DRAM cycle split and a
//! `MEM`/`cmp` boundedness marker — the per-layer view behind `bench_dse`'s
//! end-to-end gate and the `POST /v1/search` endpoint.
//!
//! Run with: `cargo run --release --example dse_sweep`

use bitwave::accel::spec::{AcceleratorSpec, BitwaveOptimizations};
use bitwave::context::ExperimentContext;
use bitwave::dataflow::DramSpec;
use bitwave::dnn::models::by_name;
use bitwave::pipeline::Pipeline;
use bitwave::BitwaveError;

/// DRAM interface width of the sweep in bits per compute cycle — narrow
/// enough that the big weight-heavy layers pin to the DRAM side.
const DRAM_BANDWIDTH_BITS: usize = 64;

fn main() -> Result<(), BitwaveError> {
    let ctx = ExperimentContext::default().with_sample_cap(8_000);
    let mut accelerator = AcceleratorSpec::bitwave(BitwaveOptimizations::all());
    accelerator.dram = DramSpec::constrained(DRAM_BANDWIDTH_BITS);
    for model in ["resnet18", "mobilenet-v2"] {
        let spec = by_name(model)?;
        let weights = ctx.weights(&spec);
        let pipeline = Pipeline::new(ctx.clone()).with_accelerator(accelerator.clone());
        let search = pipeline.search_model_weights(&spec, &weights)?;

        println!(
            "== {model} on {} @ {DRAM_BANDWIDTH_BITS} DRAM bits/cycle ==",
            search.accelerator
        );
        println!(
            "{:<34} {:>14} {:>12} {:>14} {:>12} {:>7} {:>11} {:>11} {:>5}",
            "layer",
            "heuristic SU",
            "EDP",
            "searched SU",
            "EDP",
            "gain",
            "cyc compute",
            "cyc DRAM",
            "bound"
        );
        for layer in &search.layers {
            let h = &layer.heuristic;
            let s = &layer.search.winner;
            let memory_bound = s.cost.total_cycles > 0.0
                && s.cost.dram_cycles >= s.cost.total_cycles
                && s.cost.dram_cycles > s.cost.compute_cycles;
            println!(
                "{:<34} {:>14} {:>12.4e} {:>14} {:>12.4e} {:>6.2}x {:>11.4e} {:>11.4e} {:>5}",
                layer.layer,
                h.label,
                h.cost.edp,
                s.label,
                s.cost.edp,
                h.cost.edp / s.cost.edp,
                s.cost.compute_cycles,
                s.cost.dram_cycles,
                if memory_bound { "MEM" } else { "cmp" },
            );
        }
        println!(
            "{:<34} {:>14} {:>12.4e} {:>14} {:>12.4e} {:>6.2}x   \
             ({} candidate evaluations, {} layer searches, \
             {} memory-bound winners)\n",
            "TOTAL (network)",
            "",
            search.heuristic_edp,
            "",
            search.searched_edp,
            search.edp_gain(),
            search
                .layers
                .iter()
                .map(|l| l.search.candidates)
                .sum::<usize>(),
            search.layers.len(),
            search.memory_bound_layers,
        );
    }
    Ok(())
}
