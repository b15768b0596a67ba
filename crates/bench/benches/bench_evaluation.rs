//! Regenerates the end-to-end evaluation figures: Fig. 13 (speedup
//! breakdown), Fig. 14 (speedup vs SotA), Fig. 15 (energy), Fig. 16 (energy
//! breakdown) and Fig. 17 (energy efficiency), then benchmarks the
//! sparsity-aware network performance model.

use bitwave::context::ExperimentContext;
use bitwave::experiments::evaluation::{
    fig13_speedup_breakdown, fig14_15_17_sota_comparison, fig16_energy_breakdown,
};
use bitwave::pipeline::Pipeline;
use bitwave_bench::{bench_context, print_header};
use bitwave_dnn::models::resnet18;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn print_figures(ctx: &ExperimentContext) {
    print_header(
        "fig13_speedup_breakdown",
        "Fig. 13 (Dense -> +DF -> +SM -> +BF)",
    );
    for row in fig13_speedup_breakdown(ctx).expect("fig13 runs") {
        println!(
            "{:<12} {:<10} {:>6.2}x",
            row.network, row.step, row.speedup_vs_dense
        );
    }

    print_header(
        "fig14_speedup_sota / fig15_energy / fig17_efficiency",
        "Figs. 14, 15 and 17 (SotA comparison, normalised as in the paper)",
    );
    println!(
        "{:<12} {:<18} {:>13} {:>15} {:>17}",
        "network", "accelerator", "speedup/SCNN", "energy/BitWave", "efficiency/SCNN"
    );
    for row in fig14_15_17_sota_comparison(ctx).expect("fig14-17 run") {
        println!(
            "{:<12} {:<18} {:>12.2}x {:>14.2}x {:>16.2}x",
            row.network,
            row.accelerator,
            row.speedup_vs_scnn,
            row.energy_vs_bitwave,
            row.efficiency_vs_scnn
        );
    }

    print_header(
        "fig16_energy_breakdown",
        "Fig. 16 (BitWave energy incl. DRAM)",
    );
    for row in fig16_energy_breakdown(ctx).expect("fig16 runs") {
        println!(
            "{:<12} compute {:>5.1}%  sram {:>5.1}%  reg {:>5.1}%  dram {:>5.1}%  total {:.3} mJ",
            row.network,
            100.0 * row.compute_fraction,
            100.0 * row.sram_fraction,
            100.0 * row.register_fraction,
            100.0 * row.dram_fraction,
            row.total_mj
        );
    }
}

fn bench(c: &mut Criterion) {
    let ctx = bench_context();
    print_figures(&ctx);

    // Benchmark the analytical model itself on one network: the compress
    // and Bit-Flip prefix (the sparsity profiles) runs outside the timed
    // region, the map + simulate suffix inside it.
    let net = resnet18();
    let weights = ctx.weights(&net);
    let pipeline = Pipeline::new(ctx.clone());
    let prepared = pipeline
        .prepare_with_weights(&net, &weights)
        .expect("layers prepared");
    c.bench_function("kernel/evaluate_resnet18_on_bitwave_model", |b| {
        b.iter(|| {
            black_box(
                pipeline
                    .simulate_prepared(black_box(&net), black_box(&prepared))
                    .expect("evaluation"),
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
