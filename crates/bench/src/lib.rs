//! Shared helpers for the benchmark harness.
//!
//! Every bench target regenerates one or more tables/figures of the paper
//! (printing the rows exactly once, before timing) and then benchmarks the
//! computational kernel behind that experiment so regressions in the
//! reproduction's own performance are visible.
//!
//! Two targets additionally persist machine-readable results into the
//! workspace root:
//!
//! * `bench_sparsity` writes `BENCH_sparsity.json` — the scalar-vs-bitplane
//!   analysis speedup (gated at ≥ 4×) plus **machine-portable kernel
//!   ratios** (each kernel's min-time divided by a fixed calibration
//!   kernel's min-time on the same machine, so the committed baseline is
//!   comparable across hosts);
//! * `bench_serve` writes `BENCH_serve.json` — cold vs cache-hit request
//!   throughput and the cold `/v1/evaluate` latency.
//!
//! `bench_kernels` reads the committed `BENCH_sparsity.json` back and fails
//! if the re-measured kernel ratios regressed by more than 10 %.
//!
//! [`oracle`] is the naive reference sweep the sweep's tests check against
//! (its source lives with those tests); `bench_sweep` times the optimised
//! sweep against it.

#![forbid(unsafe_code)]

#[path = "../../sweep/tests/oracle/mod.rs"]
pub mod oracle;

use bitwave::context::ExperimentContext;
use bitwave_accel::LayerSparsityProfile;
use bitwave_core::compress::BcsCodec;
use bitwave_core::group::{extract_groups, GroupSize};
use bitwave_core::stats::{LayerSparsityStats, PackedAnalysis};
use bitwave_dnn::models::resnet18;
use bitwave_dnn::weights::generate_layer_sample;
use bitwave_tensor::bits::Encoding;
use bitwave_tensor::QuantTensor;
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// The experiment context used by all bench targets: the default
/// configuration with a moderate sampling cap so that a full `cargo bench`
/// pass completes in minutes rather than hours.
pub fn bench_context() -> ExperimentContext {
    ExperimentContext::default().with_sample_cap(20_000)
}

/// Prints a figure/table header so the bench output doubles as the
/// regenerated evaluation tables.
pub fn print_header(experiment: &str, paper_reference: &str) {
    println!();
    println!("================================================================");
    println!("{experiment}  —  reproduces {paper_reference}");
    println!("================================================================");
}

/// Absolute path of a file in the workspace root (two levels above the
/// bench crate's manifest), where the committed `BENCH_*.json` files live.
pub fn workspace_file(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name)
}

/// Serializes `value` as pretty JSON into `BENCH_<name>.json` in the
/// workspace root and prints the destination.
pub fn write_bench_json<T: Serialize>(name: &str, value: &T) {
    let path = workspace_file(name);
    let json = serde_json::to_string_pretty(value).expect("bench report serializes");
    std::fs::write(&path, json + "\n").expect("bench report is writable");
    println!("wrote {}", path.display());
}

/// The host facts a recorded number needs to be read: core count, CPU model
/// and compiler.
#[derive(Debug, Clone, Serialize)]
pub struct HostFacts {
    /// Available parallelism (`nproc`).
    pub nproc: usize,
    /// The first `model name` of `/proc/cpuinfo` (`"unknown"` elsewhere).
    pub cpu_model: String,
    /// `rustc --version` (`"unknown"` when it cannot be run).
    pub rustc: String,
}

impl HostFacts {
    /// Reads the facts of this host.
    pub fn of_this_host() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find_map(|line| line.strip_prefix("model name")?.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|version| version.trim().to_string())
            .filter(|version| !version.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc,
        }
    }
}

/// Minimum wall-clock seconds of one call to `f` over `samples` runs — the
/// low-noise point estimate both the speedup gate and the kernel-ratio
/// guard time with.
pub fn min_sample_seconds(samples: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..samples.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// The ResNet18-sized layer set the sparsity kernels are gated on: one
/// sampled weight tensor per conv/fc layer, ~60k weights apiece.
pub fn sparsity_layer_set() -> Vec<QuantTensor> {
    let net = resnet18();
    net.layers
        .iter()
        .filter(|layer| layer.weight_shape().num_elements() > 0)
        .map(|layer| generate_layer_sample(layer, 42, 60_000))
        .collect()
}

/// Machine-portable ratios of the sparsity kernels: each kernel's min-time
/// divided by the same machine's calibration-kernel min-time (scalar
/// sign-magnitude group analysis of one fixed tensor), as the median over
/// seven rounds.  Ratios cancel the host's absolute speed, so a
/// committed baseline is meaningful on other machines; they regress only
/// when the *kernel* gets slower relative to straight-line scalar code.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SparsityKernelRatios {
    /// Packed (bitplane) full-layer analysis over the calibration kernel.
    pub packed_analysis: f64,
    /// Packed (size-only) BCS accounting over the calibration kernel.
    pub packed_compress: f64,
    /// The whole per-layer analysis of the pipeline over the calibration
    /// kernel: one packing pass that reduces every count, then the
    /// statistics, the BCS sizes and the accelerator profile read off it.
    pub fused_reduction: f64,
}

const RATIO_SAMPLES: usize = 15;

/// Rounds of min-of-[`RATIO_SAMPLES`] timings a kernel ratio is the median
/// of: one round's ratio spreads by about ±7 % between runs on a 2-vCPU
/// host, too close to the guard's 10 % limit to compare one round with one.
const RATIO_ROUNDS: usize = 7;

/// Measures [`SparsityKernelRatios`] on this machine: each ratio is the
/// median of `RATIO_ROUNDS` rounds.  Shared by `bench_sparsity` (which
/// writes the baseline) and `bench_kernels` (which guards against
/// regressions), so both sides time exactly the same code.
pub fn measure_sparsity_kernel_ratios() -> SparsityKernelRatios {
    let rounds: Vec<SparsityKernelRatios> =
        (0..RATIO_ROUNDS).map(|_| kernel_ratio_round()).collect();
    let median = |ratio: fn(&SparsityKernelRatios) -> f64| {
        let mut values: Vec<f64> = rounds.iter().map(ratio).collect();
        values.sort_by(f64::total_cmp);
        values[values.len() / 2]
    };
    SparsityKernelRatios {
        packed_analysis: median(|r| r.packed_analysis),
        packed_compress: median(|r| r.packed_compress),
        fused_reduction: median(|r| r.fused_reduction),
    }
}

/// One round of [`measure_sparsity_kernel_ratios`]: min-of-[`RATIO_SAMPLES`]
/// timings of the calibration kernel and of each sparsity kernel.
fn kernel_ratio_round() -> SparsityKernelRatios {
    let net = resnet18();
    let layer = net.layer("layer4.0.conv2").expect("resnet18 layer exists");
    let weights = generate_layer_sample(layer, 42, 60_000);
    let group_size = GroupSize::G16;
    let groups = extract_groups(&weights, group_size).expect("groups extract");
    let codec = BcsCodec::new(group_size, Encoding::SignMagnitude);

    let calibration = min_sample_seconds(RATIO_SAMPLES, || {
        black_box(LayerSparsityStats::from_tensor_and_groups_scalar(
            black_box(&weights),
            black_box(&groups),
        ));
    });
    let packed_analysis = min_sample_seconds(RATIO_SAMPLES, || {
        let planes = black_box(&groups).to_bitplanes();
        black_box(LayerSparsityStats::from_planes(
            black_box(weights.data().len()),
            &planes,
        ));
    });
    let packed_compress = min_sample_seconds(RATIO_SAMPLES, || {
        let planes = black_box(&groups).to_bitplanes();
        black_box(codec.measure_packed(&planes, weights.data().len()));
    });
    let fused_reduction = min_sample_seconds(RATIO_SAMPLES, || {
        let packed = PackedAnalysis::from_groups(black_box(&groups), Encoding::SignMagnitude);
        black_box(LayerSparsityProfile::from_shared_parts(
            0.5,
            &packed.stats,
            &packed.planes,
        ));
    });

    let calibration = calibration.max(f64::MIN_POSITIVE);
    SparsityKernelRatios {
        packed_analysis: packed_analysis / calibration,
        packed_compress: packed_compress / calibration,
        fused_reduction: fused_reduction / calibration,
    }
}
