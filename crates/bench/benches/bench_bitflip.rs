//! Regenerates Fig. 6: the layer-wise Bit-Flip sensitivity curves (a–d) and
//! the compression-ratio vs quality trade-offs with Pareto fronts (e–h),
//! then benchmarks the Bit-Flip kernel itself.

use bitwave::context::ExperimentContext;
use bitwave::experiments::bitflip::{fig06_layer_sensitivity, fig06_pareto, fig06_tradeoff};
use bitwave_bench::{bench_context, print_header};
use bitwave_core::bitflip::{flip_groups, flip_slice, flip_tensor};
use bitwave_core::group::{extract_groups, reassemble_tensor, GroupSize};
use bitwave_core::stats::PackedAnalysis;
use bitwave_dnn::models::all_networks;
use bitwave_dnn::weights::generate_layer_sample;
use bitwave_tensor::bits::Encoding;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn print_figures() {
    let ctx = bench_context();

    print_header(
        "fig06_bitflip_sensitivity",
        "Fig. 6(a-d) layer-wise flipping sensitivity",
    );
    for net in all_networks() {
        // A representative probe set: the most sensitive early layer, a middle
        // layer and the heaviest layer of each network.
        let mut probes: Vec<String> = vec![net.layers.first().unwrap().name.clone()];
        probes.push(net.layers[net.layers.len() / 2].name.clone());
        probes.push(net.weight_heavy_layers(0.2)[0].name.clone());
        probes.dedup();
        for row in fig06_layer_sensitivity(&ctx, &net, &probes, 7).expect("fig06 runs") {
            if row.zero_columns % 2 == 0 {
                println!(
                    "{:<12} {:<34} z={}  quality {:>7.2}  (drop {:>5.2})",
                    row.network, row.layer, row.zero_columns, row.quality, row.quality_drop
                );
            }
        }
    }

    print_header(
        "fig06_pareto",
        "Fig. 6(e-h) CR vs accuracy: PTQ vs SM vs SM+Bit-Flip",
    );
    for net in all_networks() {
        let rows = fig06_tradeoff(&ctx, &net).expect("fig06 tradeoff runs");
        for row in &rows {
            println!(
                "{:<12} {:<16} {:<26} CR {:>5.2}x  quality {:>7.2}",
                row.network, row.method, row.configuration, row.compression_ratio, row.quality
            );
        }
        let front = fig06_pareto(&rows);
        println!("{:<12} Pareto-optimal points: {}", net.name, front.len());
    }
}

fn bench(c: &mut Criterion) {
    print_figures();

    let net = bitwave_dnn::models::resnet18();
    let layer = net.layer("layer4.1.conv1").unwrap();
    let weights = generate_layer_sample(layer, 7, 40_000);

    c.bench_function("kernel/bitflip_40k_weights_z5_g16", |b| {
        b.iter(|| {
            black_box(flip_slice(
                black_box(weights.data()),
                GroupSize::G16,
                5,
                Encoding::SignMagnitude,
            ))
        })
    });

    // The Bit-Flip work of one cold `/v1/evaluate {"bitflip":true}` at
    // sample cap 15 000: every layer the default strategy flips, with its
    // (group size, zero columns) setting.
    let ctx = ExperimentContext::default().with_sample_cap(15_000);
    let weights = ctx.weights(&net);
    let strategy = ctx.default_bitflip_strategy(&net);
    let flipped_layers: Vec<_> = weights
        .iter()
        .filter_map(|(name, tensor)| {
            let (group_size, zero_columns) = strategy.best_for_layer(name)?;
            (zero_columns > 0).then_some((tensor, group_size, zero_columns))
        })
        .collect();
    assert!(
        !flipped_layers.is_empty(),
        "the default strategy flips layers"
    );
    c.bench_function("kernel/bitflip_resnet18_default_strategy", |b| {
        b.iter(|| {
            for &(tensor, group_size, zero_columns) in &flipped_layers {
                black_box(flip_tensor(
                    black_box(tensor),
                    group_size,
                    zero_columns,
                    Encoding::SignMagnitude,
                ))
                .expect("flip succeeds");
            }
        })
    });
    // The same layers through the Bit-Flip stage's flipped-layer pass:
    // extract the groups once, flip them in place, pack the flipped groups
    // with their statistics and BCS sizes, reassemble the tensor.
    c.bench_function("kernel/bitflip_stage_resnet18_default_strategy", |b| {
        b.iter(|| {
            for &(tensor, group_size, zero_columns) in &flipped_layers {
                let mut groups = extract_groups(black_box(tensor), group_size).expect("groupable");
                let stats = flip_groups(&mut groups, zero_columns, Encoding::SignMagnitude)
                    .expect("flip succeeds");
                let packed = PackedAnalysis::from_groups(&groups, Encoding::SignMagnitude);
                let flipped = reassemble_tensor(tensor, &groups).expect("same shape");
                black_box((stats, packed, flipped));
            }
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
