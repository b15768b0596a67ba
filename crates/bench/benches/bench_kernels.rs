//! Micro-benchmarks of the reproduction's hot kernels (not tied to a single
//! figure): sign-magnitude encoding, zero-column index parsing, the BCE
//! bit-column-serial inner loop, ZRE/CSR baselines and the Int8 reference
//! convolution used as the golden model.
//!
//! Before the criterion loops, the target **guards** the bitplane kernels
//! against regressions: it re-measures the machine-portable kernel ratios
//! (kernel min-time over a fixed scalar calibration kernel's min-time, the
//! median of `RATIO_ROUNDS` rounds, as the baseline is) and fails if any
//! ratio is more than 10 % above the committed `BENCH_sparsity.json`
//! baseline.  The guard is skipped — with a notice —
//! when no baseline file has been committed yet.

use bitwave_bench::{measure_sparsity_kernel_ratios, print_header, workspace_file};
use bitwave_core::compress::{CsrCodec, WeightCodec, ZreCodec};
use bitwave_dnn::infer::conv2d_int8;
use bitwave_sim::bce::BitColumnEngine;
use bitwave_sim::zcip::ZeroColumnIndexParser;
use bitwave_tensor::bits::{nonzero_column_mask, pack_column, Encoding};
use bitwave_tensor::prelude::*;
use bitwave_tensor::sm;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// Allowed relative regression of a kernel ratio vs the committed baseline.
const RATIO_TOLERANCE: f64 = 1.10;

/// Fails the bench run if the bitplane kernel ratios regressed by more than
/// 10 % against the committed `BENCH_sparsity.json` baseline.
fn guard_kernel_ratios() {
    print_header(
        "kernel_ratio_guard",
        "bitplane kernels vs committed BENCH_sparsity.json baseline (<=10% drift)",
    );
    let path = workspace_file("BENCH_sparsity.json");
    let Ok(text) = std::fs::read_to_string(&path) else {
        println!(
            "no committed baseline at {} — guard skipped (run bench_sparsity to create one)",
            path.display()
        );
        return;
    };
    let baseline: serde::Value = serde_json::from_str(&text).expect("BENCH_sparsity.json parses");
    let baseline_ratio = |kernel: &str| -> f64 {
        baseline
            .get("kernel_ratios")
            .and_then(|r| r.get(kernel))
            .and_then(serde::Value::as_f64)
            .expect("baseline kernel ratio present")
    };
    let current = measure_sparsity_kernel_ratios();
    for (kernel, measured) in [
        ("packed_analysis", current.packed_analysis),
        ("packed_compress", current.packed_compress),
        ("fused_reduction", current.fused_reduction),
    ] {
        let committed = baseline_ratio(kernel);
        let limit = committed * RATIO_TOLERANCE;
        println!(
            "{kernel}: baseline ratio {committed:.4}   measured {measured:.4}   limit {limit:.4}"
        );
        assert!(
            measured <= limit,
            "{kernel} kernel ratio {measured:.4} regressed more than 10% over the \
             committed baseline {committed:.4}"
        );
    }
}

fn bench(c: &mut Criterion) {
    guard_kernel_ratios();
    print_header(
        "kernel microbenchmarks",
        "hot loops of the reproduction itself",
    );

    let values: Vec<i8> = (0..65_536).map(|i| ((i * 31) % 251) as i8).collect();
    c.bench_function("kernel/sign_magnitude_encode_64k", |b| {
        b.iter(|| black_box(sm::encode_slice(black_box(&values))))
    });

    c.bench_function("kernel/zre_compress_64k", |b| {
        let codec = ZreCodec::default();
        b.iter(|| black_box(codec.compress(black_box(&values))))
    });
    c.bench_function("kernel/csr_compress_64k", |b| {
        let codec = CsrCodec::new(512);
        b.iter(|| black_box(codec.compress(black_box(&values))))
    });

    // One BCE group execution (the innermost hardware loop).
    let group_weights: Vec<i8> = vec![3, -5, 0, 7, -2, 1, 4, -6];
    let activations: Vec<i8> = vec![12, -34, 56, -78, 90, -11, 23, -45];
    let index = nonzero_column_mask(&group_weights, Encoding::SignMagnitude);
    let columns: Vec<u64> = (0..8)
        .filter(|&b| (index >> b) & 1 == 1)
        .map(|b| pack_column(&group_weights, b, Encoding::SignMagnitude))
        .collect();
    let group = bitwave_core::compress::BcsGroup { index, columns };
    let parser = ZeroColumnIndexParser::new();
    let schedule = parser.parse(group.index);
    c.bench_function("kernel/bce_process_group", |b| {
        b.iter(|| {
            let mut bce = BitColumnEngine::new();
            black_box(bce.process_group(
                black_box(&group),
                black_box(&schedule),
                black_box(&activations),
            ))
        })
    });

    // The Int8 reference convolution (golden model).
    let input = quantize_per_tensor(
        &WeightGenerator::new(WeightDistribution::Uniform { range: 1.0 }, 1)
            .generate(Shape::feature_map(1, 16, 16, 16)),
        8,
    )
    .unwrap();
    let weights = quantize_per_tensor(
        &WeightGenerator::new(WeightDistribution::Gaussian { std: 0.05 }, 2)
            .generate(Shape::conv_weight(16, 16, 3, 3)),
        8,
    )
    .unwrap();
    c.bench_function("kernel/reference_conv2d_16x16x16", |b| {
        b.iter(|| black_box(conv2d_int8(black_box(&input), black_box(&weights), 1, 1).unwrap()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
criterion_main!(benches);
