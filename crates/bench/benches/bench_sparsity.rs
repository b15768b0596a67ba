//! Regenerates Fig. 1 (sparsity survey), Fig. 4 (representation study) and
//! Fig. 5 (compression-ratio sweep), then benchmarks the underlying sparsity
//! analysis and BCS compression kernels.
//!
//! Additionally **gates** the bitplane refactor: the word-parallel analysis
//! path must be at least [`SPEEDUP_GATE`]× faster than the retained scalar
//! reference on a ResNet18-sized layer set (single-threaded), and the
//! result — along with machine-portable kernel ratios for the
//! `bench_kernels` regression guard — is written to `BENCH_sparsity.json`
//! in the workspace root.

use bitwave::experiments::sparsity::{
    fig01_sparsity_survey, fig04_bcs_representation, fig05_compression_ratio,
};
use bitwave_bench::{
    bench_context, measure_sparsity_kernel_ratios, min_sample_seconds, print_header,
    sparsity_layer_set, write_bench_json, HostFacts, SparsityKernelRatios,
};
use bitwave_core::compress::{BcsCodec, WeightCodec};
use bitwave_core::group::{extract_groups, GroupSize};
use bitwave_core::stats::LayerSparsityStats;
use bitwave_dnn::models::resnet18;
use bitwave_dnn::weights::generate_layer_sample;
use bitwave_tensor::bits::Encoding;
use criterion::{criterion_group, criterion_main, Criterion};
use serde::Serialize;
use std::hint::black_box;

/// Minimum accepted packed-over-scalar analysis speedup.
const SPEEDUP_GATE: f64 = 4.0;

/// Samples per timing point (min-of-samples).
const SAMPLES: usize = 10;

/// The machine-readable record `bench_sparsity` commits to the workspace
/// root for the `bench_kernels` guard and for tracking across PRs.
#[derive(Debug, Serialize)]
struct SparsityBenchReport {
    /// The host the numbers were measured on.
    host: HostFacts,
    /// Layers in the gated ResNet18-sized set.
    layers: usize,
    /// Total weights analysed per pass.
    total_weights: usize,
    /// Scalar full-set analysis wall time (min of samples), milliseconds.
    scalar_analysis_ms: f64,
    /// Bitplane full-set analysis wall time (min of samples), milliseconds;
    /// includes the packing itself.
    packed_analysis_ms: f64,
    /// `scalar_analysis_ms / packed_analysis_ms`.
    speedup: f64,
    /// The gate this run passed.
    speedup_gate: f64,
    /// Machine-portable kernel ratios (see
    /// [`bitwave_bench::SparsityKernelRatios`]).
    kernel_ratios: SparsityKernelRatios,
}

/// Gate: scalar vs bitplane single-thread analysis of a ResNet18-sized
/// layer set.  Group extraction is shared prep for both paths and is done
/// outside the timed region; each side then produces the full per-layer
/// statistics *and* BCS size accounting (the packed side includes the
/// bitplane packing itself).
fn assert_bitplane_speedup_gate() -> SparsityBenchReport {
    print_header(
        "sparsity_speedup",
        "scalar vs bitplane layer analysis (>=4x gate, single thread)",
    );
    let layers = sparsity_layer_set();
    let total_weights: usize = layers.iter().map(|w| w.data().len()).sum();
    let group_size = GroupSize::G16;
    let codec = BcsCodec::new(group_size, Encoding::SignMagnitude);
    let grouped: Vec<_> = layers
        .iter()
        .map(|weights| extract_groups(weights, group_size).unwrap())
        .collect();

    let scalar_s = min_sample_seconds(SAMPLES, || {
        for (weights, groups) in layers.iter().zip(&grouped) {
            black_box(LayerSparsityStats::from_tensor_and_groups_scalar(
                black_box(weights),
                groups,
            ));
            black_box(codec.compress_groups_scalar(groups.iter(), weights.data().len()));
        }
    });
    let packed_s = min_sample_seconds(SAMPLES, || {
        for (weights, groups) in layers.iter().zip(&grouped) {
            let planes = black_box(groups).to_bitplanes();
            black_box(LayerSparsityStats::from_planes(
                black_box(weights.data().len()),
                &planes,
            ));
            black_box(codec.measure_packed(&planes, weights.data().len()));
        }
    });

    let speedup = scalar_s / packed_s.max(f64::MIN_POSITIVE);
    println!(
        "{} layers / {} weights: scalar {:.2} ms   bitplane {:.2} ms   speedup {:.1}x   (target: >={SPEEDUP_GATE}x)",
        layers.len(),
        total_weights,
        scalar_s * 1e3,
        packed_s * 1e3,
        speedup
    );
    assert!(
        speedup >= SPEEDUP_GATE,
        "bitplane analysis speedup {speedup:.2}x is below the {SPEEDUP_GATE}x gate"
    );
    SparsityBenchReport {
        host: HostFacts::of_this_host(),
        layers: layers.len(),
        total_weights,
        scalar_analysis_ms: scalar_s * 1e3,
        packed_analysis_ms: packed_s * 1e3,
        speedup,
        speedup_gate: SPEEDUP_GATE,
        kernel_ratios: measure_sparsity_kernel_ratios(),
    }
}

fn print_figures() {
    let ctx = bench_context();

    print_header(
        "fig01_sparsity_survey",
        "Fig. 1 (value vs bit sparsity, SR ratios)",
    );
    for row in fig01_sparsity_survey(&ctx).expect("fig01 runs") {
        println!(
            "{:<12} value {:>5.1}%  bit(2C) {:>5.1}%  bit(SM) {:>5.1}%  SR(2C) {:>5.2}x  SR(SM) {:>5.2}x",
            row.network,
            100.0 * row.value_sparsity,
            100.0 * row.bit_sparsity_twos_complement,
            100.0 * row.bit_sparsity_sign_magnitude,
            row.speedup_ratio_twos_complement,
            row.speedup_ratio_sign_magnitude
        );
    }

    print_header(
        "fig04_bcs_representation",
        "Fig. 4 (2's complement vs sign-magnitude, G=4)",
    );
    let r = fig04_bcs_representation(&ctx).expect("fig04 runs");
    println!(
        "{}: value sparsity {:.1}%, zero columns 2C {:.1}%, SM {:.1}%  ({:.2}x improvement)",
        r.layer,
        100.0 * r.value_sparsity,
        100.0 * r.column_sparsity_twos_complement,
        100.0 * r.column_sparsity_sign_magnitude,
        r.sign_magnitude_improvement
    );

    print_header(
        "fig05_compression_ratio",
        "Fig. 5 (BCS vs ZRE vs CSR on ResNet18 late layers)",
    );
    for row in fig05_compression_ratio(&ctx).expect("fig05 runs") {
        println!(
            "{:<4} {:<6} ideal {:>5.2}x  with index {:>5.2}x",
            row.codec,
            row.group_size.map(|g| format!("G={g}")).unwrap_or_default(),
            row.cr_ideal,
            row.cr_with_index
        );
    }
}

fn bench(c: &mut Criterion) {
    print_figures();
    let report = assert_bitplane_speedup_gate();
    write_bench_json("BENCH_sparsity.json", &report);

    let net = resnet18();
    let layer = net.layer("layer4.0.conv2").unwrap();
    let weights = generate_layer_sample(layer, 42, 60_000);
    let codec = BcsCodec::new(GroupSize::G16, Encoding::SignMagnitude);

    c.bench_function("kernel/bcs_compress_60k_weights", |b| {
        b.iter(|| black_box(codec.compress(black_box(weights.data()))))
    });
    c.bench_function("kernel/layer_sparsity_stats_60k_weights", |b| {
        b.iter(|| {
            black_box(LayerSparsityStats::analyze(
                black_box(&weights),
                GroupSize::G16,
            ))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
