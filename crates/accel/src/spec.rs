//! Accelerator specifications (Fig. 12 right).
//!
//! All accelerators are normalised to an equivalent compute budget — 512
//! 8b×8b bit-parallel PEs or 4096 1b×8b bit-serial lanes — and the common
//! 256 KB + 256 KB SRAM hierarchy, exactly as the paper's comparison
//! methodology requires ("all systems should be compared with an equivalent
//! number of processing elements, and memory hierarchy").

use bitwave_dataflow::su::{baseline_su, SpatialUnrolling};
use bitwave_dataflow::{DramSpec, SuSet};
use serde::{Serialize, Value};

/// The accelerators modelled in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum AcceleratorKind {
    /// Dense bit-parallel reference with the fixed `[Ku=64, Cu=64]` mapping.
    Dense,
    /// HUAA: bit-parallel, dynamic dataflow, no sparsity handling.
    Huaa,
    /// Stripes: bit-serial, no bit-level sparsity skipping.
    Stripes,
    /// Pragmatic: bit-serial, skips zero weight bits (two's complement).
    Pragmatic,
    /// SCNN: bit-parallel, skips zero weight *and* activation values,
    /// ZRE-compressed weights.
    Scnn,
    /// Bitlet: bit-interleaved weight-bit-sparsity accelerator.
    Bitlet,
    /// BitWave (this paper): bit-column-serial, dynamic dataflow,
    /// sign-magnitude BCS compression, optional Bit-Flip.
    BitWave,
}

impl AcceleratorKind {
    /// Display name used in the figures.
    pub fn name(&self) -> &'static str {
        match self {
            AcceleratorKind::Dense => "Dense",
            AcceleratorKind::Huaa => "HUAA",
            AcceleratorKind::Stripes => "Stripes",
            AcceleratorKind::Pragmatic => "Pragmatic",
            AcceleratorKind::Scnn => "SCNN",
            AcceleratorKind::Bitlet => "Bitlet",
            AcceleratorKind::BitWave => "BitWave",
        }
    }
}

/// How the PE datapath processes operand bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum PeStyle {
    /// Full 8×8 multipliers, one MAC per PE per cycle.
    BitParallel,
    /// 1b×8b multipliers, weights streamed bit-serially (8 cycles per dense
    /// MAC), possibly skipping zero bits.
    BitSerial,
    /// BitWave's bit-column-serial datapath: 1b×8b sign-magnitude multipliers
    /// sharing one shifter per group, skipping zero bit-columns.
    BitColumnSerial,
}

/// Which sparsity an accelerator can exploit to skip compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct SparsitySupport {
    /// Skips zero-valued weights.
    pub weight_value: bool,
    /// Skips zero-valued activations.
    pub activation_value: bool,
    /// Skips zero weight bits (two's complement).
    pub weight_bit: bool,
    /// Skips zero weight bit-columns (sign-magnitude, BitWave).
    pub weight_bit_column: bool,
}

/// Weight compression applied to DRAM/SRAM weight traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum WeightCompression {
    /// Uncompressed Int8 weights.
    None,
    /// Zero run-length encoding (SCNN).
    Zre,
    /// BitWave's bit-column-sparsity compression.
    Bcs,
}

/// Which of BitWave's incremental optimisations are enabled — the Fig. 13
/// breakdown steps (Dense → +DF → +SM → +BF).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct BitwaveOptimizations {
    /// Dynamic dataflow (per-layer SU selection).
    pub dynamic_dataflow: bool,
    /// Sign-magnitude bit-column-serial compute and BCS compression.
    pub sign_magnitude_bcs: bool,
    /// Bit-Flip post-training enhancement.
    pub bit_flip: bool,
}

impl BitwaveOptimizations {
    /// All optimisations on (the full "BitWave+DF+SM+BF" configuration).
    pub fn all() -> Self {
        Self {
            dynamic_dataflow: true,
            sign_magnitude_bcs: true,
            bit_flip: true,
        }
    }

    /// Only dynamic dataflow (Fig. 13 "DF").
    pub fn dataflow_only() -> Self {
        Self {
            dynamic_dataflow: true,
            sign_magnitude_bcs: false,
            bit_flip: false,
        }
    }

    /// Dynamic dataflow + sign-magnitude BCS (Fig. 13 "DF+SM").
    pub fn dataflow_sm() -> Self {
        Self {
            dynamic_dataflow: true,
            sign_magnitude_bcs: true,
            bit_flip: false,
        }
    }
}

/// A complete accelerator configuration for the performance model.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorSpec {
    /// Which accelerator this is.
    pub kind: AcceleratorKind,
    /// Display label (lets several BitWave variants coexist in one figure).
    pub label: String,
    /// Datapath style.
    pub pe_style: PeStyle,
    /// Selectable spatial unrollings (one entry for fixed-dataflow machines).
    pub su_set: SuSet,
    /// Sparsity skipping capabilities.
    pub sparsity: SparsitySupport,
    /// Weight compression scheme for memory traffic.
    pub compression: WeightCompression,
    /// Number of lanes that must stay bit-synchronised when skipping zero
    /// bits (drives the load-imbalance penalty of Pragmatic/Bitlet; 1 means
    /// no synchronisation constraint).
    pub sync_lanes: usize,
    /// On-chip activation SRAM bandwidth in bits per cycle.
    pub act_sram_bandwidth_bits: usize,
    /// On-chip weight SRAM bandwidth in bits per cycle.
    pub weight_sram_bandwidth_bits: usize,
    /// BitWave-only optimisation toggles (ignored by other kinds).
    pub bitwave_opts: BitwaveOptimizations,
    /// The DRAM tier.  [`DramSpec::unconstrained`] (the default everywhere)
    /// adds `bytes × 8 /`
    /// [`MemoryHierarchy::dram_word_bits`](bitwave_dataflow::MemoryHierarchy::dram_word_bits)
    /// DRAM cycles to each layer (the additive Eq. 5); a
    /// [constrained](DramSpec::constrained) tier switches each layer to the
    /// roofline `max(cycle_compute, cycle_dram)` at its own bandwidth, with
    /// boundedness reporting.
    pub dram: DramSpec,
}

/// The `"dram_bandwidth_bits"` value every serialized spec carries.  DRAM is
/// priced at the memory hierarchy's word width (unconstrained tier) or at the
/// tier's own bandwidth (constrained, serialized under `"dram"`); the key
/// keeps the one value registry specs carry so that report digests and DSE
/// search keys, throttled ones included, stay byte-stable.
const SERIALIZED_DRAM_BANDWIDTH_BITS: usize = 64;

/// Hand-written so the `dram` field is **omitted** from the canonical JSON
/// while the tier is unconstrained: every digest that embeds a spec — DSE
/// search keys, sweep identities, report content digests — stays byte-stable
/// for existing configurations, and only genuinely throttled specs address
/// new cache entries.
impl Serialize for AcceleratorSpec {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("kind".to_string(), self.kind.to_value()),
            ("label".to_string(), self.label.to_value()),
            ("pe_style".to_string(), self.pe_style.to_value()),
            ("su_set".to_string(), self.su_set.to_value()),
            ("sparsity".to_string(), self.sparsity.to_value()),
            ("compression".to_string(), self.compression.to_value()),
            ("sync_lanes".to_string(), self.sync_lanes.to_value()),
            (
                "dram_bandwidth_bits".to_string(),
                SERIALIZED_DRAM_BANDWIDTH_BITS.to_value(),
            ),
            (
                "act_sram_bandwidth_bits".to_string(),
                self.act_sram_bandwidth_bits.to_value(),
            ),
            (
                "weight_sram_bandwidth_bits".to_string(),
                self.weight_sram_bandwidth_bits.to_value(),
            ),
            ("bitwave_opts".to_string(), self.bitwave_opts.to_value()),
        ];
        if self.dram.is_constrained() {
            fields.push(("dram".to_string(), self.dram.to_value()));
        }
        Value::Object(fields)
    }
}

/// An accelerator name that [`AcceleratorSpec::by_name`] could not resolve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownAcceleratorError {
    /// The name that failed to resolve.
    pub name: String,
}

impl std::fmt::Display for UnknownAcceleratorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown accelerator `{}` (known accelerators: {})",
            self.name,
            AcceleratorSpec::REGISTRY_NAMES.join(", ")
        )
    }
}

impl std::error::Error for UnknownAcceleratorError {}

/// Peak equivalent 8b×8b MAC throughput shared by every modelled accelerator
/// (512 PEs, Section IV-C).
pub const EQUIVALENT_BIT_PARALLEL_PES: usize = 512;

/// Bit-serial lane count equivalent to [`EQUIVALENT_BIT_PARALLEL_PES`].
pub const BIT_SERIAL_LANES: usize = 4096;

impl AcceleratorSpec {
    /// True when evaluating this machine reads the value-codec (ZRE/CSR)
    /// compression ratios of a layer's sparsity profile.  Only the
    /// ZRE-compressed SotA baseline (SCNN) does, so
    /// [`crate::sparsity::LayerAnalysis`] defers the value-codec passes
    /// until a machine with this flag asks.
    pub fn needs_value_codec_ratios(&self) -> bool {
        self.compression == WeightCompression::Zre
    }

    /// True when evaluating this machine reads the two's-complement bit
    /// counts of a layer's sparsity profile: only bit-serial machines that
    /// skip zero weight bits (Pragmatic, Bitlet) price their cycles with
    /// them, so [`crate::sparsity::LayerAnalysis`] defers that pass too.
    pub fn reads_tc_bit_counts(&self) -> bool {
        self.pe_style == PeStyle::BitSerial && self.sparsity.weight_bit
    }

    fn common(kind: AcceleratorKind, pe_style: PeStyle, su_set: SuSet) -> Self {
        Self {
            label: kind.name().to_string(),
            kind,
            pe_style,
            su_set,
            sparsity: SparsitySupport::default(),
            compression: WeightCompression::None,
            sync_lanes: 1,
            act_sram_bandwidth_bits: 1024,
            weight_sram_bandwidth_bits: 1024,
            bitwave_opts: BitwaveOptimizations {
                dynamic_dataflow: false,
                sign_magnitude_bcs: false,
                bit_flip: false,
            },
            dram: DramSpec::unconstrained(),
        }
    }

    /// The dense reference of Fig. 13: the BitWave array with the fixed
    /// `[Ku=64, Cu=64]` mapping and none of the paper's optimisations
    /// enabled (all 8 bit columns are processed, weights uncompressed).
    pub fn dense() -> Self {
        Self::common(
            AcceleratorKind::Dense,
            PeStyle::BitColumnSerial,
            SuSet::dense(),
        )
    }

    /// HUAA: dense bit-parallel (512 8×8 PEs) with dynamic dataflow.
    pub fn huaa() -> Self {
        let set = SuSet {
            name: "HUAA".to_string(),
            options: vec![
                baseline_su::XY_512,
                baseline_su::CK_512,
                baseline_su::XFX_512,
                SpatialUnrolling::cxk("HUAA-K64", 8, 1, 64),
                SpatialUnrolling {
                    name: "HUAA-DW",
                    c: 1,
                    k: 1,
                    ox: 8,
                    oy: 1,
                    fx: 1,
                    fy: 1,
                    g: 64,
                },
            ],
        };
        Self::common(AcceleratorKind::Huaa, PeStyle::BitParallel, set)
    }

    /// Stripes: bit-serial, sparsity-unaware.
    pub fn stripes() -> Self {
        Self::common(
            AcceleratorKind::Stripes,
            PeStyle::BitSerial,
            SuSet::fixed(baseline_su::CK_4096),
        )
    }

    /// Pragmatic: bit-serial with zero-weight-bit skipping.
    pub fn pragmatic() -> Self {
        let mut spec = Self::common(
            AcceleratorKind::Pragmatic,
            PeStyle::BitSerial,
            SuSet::fixed(baseline_su::CK_4096),
        );
        spec.sparsity.weight_bit = true;
        // 16 serial lanes share one bit scheduler and must sync.
        spec.sync_lanes = 16;
        spec
    }

    /// SCNN: value-sparsity aware with ZRE-compressed weights.
    pub fn scnn() -> Self {
        let mut spec = Self::common(
            AcceleratorKind::Scnn,
            PeStyle::BitParallel,
            SuSet::fixed(SpatialUnrolling {
                // SCNN's cartesian-product dataflow: 4 weights (different K)
                // x 4 activations (different output positions) per PE,
                // 32 PEs tiling the output map.
                name: "SCNN-IxF",
                c: 1,
                k: 4,
                ox: 16,
                oy: 8,
                fx: 1,
                fy: 1,
                g: 1,
            }),
        );
        spec.sparsity.weight_value = true;
        spec.sparsity.activation_value = true;
        spec.compression = WeightCompression::Zre;
        spec
    }

    /// Bitlet: bit-interleaving weight-bit-sparsity accelerator.
    pub fn bitlet() -> Self {
        let mut spec = Self::common(
            AcceleratorKind::Bitlet,
            PeStyle::BitSerial,
            SuSet::fixed(baseline_su::CK_4096),
        );
        spec.sparsity.weight_bit = true;
        // Bitlet interleaves bits across 64 lanes that fill a common pipeline.
        spec.sync_lanes = 64;
        spec
    }

    /// BitWave with a chosen subset of its optimisations (Fig. 13 steps).
    pub fn bitwave(opts: BitwaveOptimizations) -> Self {
        let su_set = if opts.dynamic_dataflow {
            SuSet::bitwave()
        } else {
            SuSet::dense()
        };
        let mut spec = Self::common(AcceleratorKind::BitWave, PeStyle::BitColumnSerial, su_set);
        // Eight groups share one packed 64-bit weight segment and therefore
        // one column schedule (Fig. 10).
        spec.sync_lanes = 8;
        spec.label = match (
            opts.dynamic_dataflow,
            opts.sign_magnitude_bcs,
            opts.bit_flip,
        ) {
            (true, true, true) => "BitWave+DF+SM+BF".to_string(),
            (true, true, false) => "BitWave+DF+SM".to_string(),
            (true, false, false) => "BitWave+DF".to_string(),
            _ => "BitWave".to_string(),
        };
        spec.sparsity.weight_bit_column = opts.sign_magnitude_bcs;
        spec.compression = if opts.sign_magnitude_bcs {
            WeightCompression::Bcs
        } else {
            WeightCompression::None
        };
        spec.bitwave_opts = opts;
        spec
    }

    /// Canonical registry names resolvable by [`AcceleratorSpec::by_name`],
    /// in the order `GET /v1/accelerators` lists them: the six comparison
    /// machines plus the three incremental BitWave ablation steps.
    pub const REGISTRY_NAMES: [&'static str; 9] = [
        "dense",
        "huaa",
        "stripes",
        "pragmatic",
        "scnn",
        "bitlet",
        "bitwave",
        "bitwave-df",
        "bitwave-df-sm",
    ];

    /// Looks an accelerator configuration up by its canonical registry name.
    ///
    /// Matching is case-insensitive and treats `_`, `+` and `-` as
    /// equivalent, so `BitWave+DF+SM`, `bitwave-df-sm` and `bitwave_df_sm`
    /// all resolve.  `bitwave` is the fully optimised configuration
    /// (`BitWave+DF+SM+BF`).
    ///
    /// # Errors
    ///
    /// Returns [`UnknownAcceleratorError`] (listing the known names) when
    /// the name does not resolve.
    pub fn by_name(name: &str) -> Result<AcceleratorSpec, UnknownAcceleratorError> {
        let canonical: String = name
            .trim()
            .chars()
            .map(|c| match c {
                '_' | '+' => '-',
                c => c.to_ascii_lowercase(),
            })
            .collect();
        match canonical.as_str() {
            "dense" => Ok(Self::dense()),
            "huaa" => Ok(Self::huaa()),
            "stripes" => Ok(Self::stripes()),
            "pragmatic" => Ok(Self::pragmatic()),
            "scnn" => Ok(Self::scnn()),
            "bitlet" => Ok(Self::bitlet()),
            "bitwave" | "bitwave-df-sm-bf" => Ok(Self::bitwave(BitwaveOptimizations::all())),
            "bitwave-df" => Ok(Self::bitwave(BitwaveOptimizations::dataflow_only())),
            "bitwave-df-sm" => Ok(Self::bitwave(BitwaveOptimizations::dataflow_sm())),
            _ => Err(UnknownAcceleratorError {
                name: name.to_string(),
            }),
        }
    }

    /// The full comparison set of Fig. 14/15/17, in plotting order.
    pub fn sota_comparison_set() -> Vec<AcceleratorSpec> {
        vec![
            Self::scnn(),
            Self::stripes(),
            Self::pragmatic(),
            Self::bitlet(),
            Self::huaa(),
            Self::bitwave(BitwaveOptimizations::all()),
        ]
    }

    /// Equivalent peak 8b×8b MACs per cycle of the machine (the same for all
    /// modelled accelerators by construction).
    pub fn peak_equivalent_macs_per_cycle(&self) -> usize {
        EQUIVALENT_BIT_PARALLEL_PES
    }

    /// True if the datapath needs multiple cycles per dense 8-bit MAC.
    pub fn is_bit_serial(&self) -> bool {
        matches!(self.pe_style, PeStyle::BitSerial | PeStyle::BitColumnSerial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_kinds() {
        assert_eq!(AcceleratorKind::BitWave.name(), "BitWave");
        assert_eq!(AcceleratorKind::Scnn.name(), "SCNN");
        assert_eq!(AcceleratorSpec::dense().label, "Dense");
        assert_eq!(
            AcceleratorSpec::bitwave(BitwaveOptimizations::all()).label,
            "BitWave+DF+SM+BF"
        );
        assert_eq!(
            AcceleratorSpec::bitwave(BitwaveOptimizations::dataflow_only()).label,
            "BitWave+DF"
        );
    }

    #[test]
    fn sparsity_capabilities_match_the_paper_table() {
        assert!(AcceleratorSpec::scnn().sparsity.weight_value);
        assert!(AcceleratorSpec::scnn().sparsity.activation_value);
        assert!(!AcceleratorSpec::scnn().sparsity.weight_bit);
        assert!(AcceleratorSpec::pragmatic().sparsity.weight_bit);
        assert!(AcceleratorSpec::bitlet().sparsity.weight_bit);
        assert!(!AcceleratorSpec::stripes().sparsity.weight_bit);
        assert!(
            AcceleratorSpec::bitwave(BitwaveOptimizations::all())
                .sparsity
                .weight_bit_column
        );
        assert!(
            !AcceleratorSpec::bitwave(BitwaveOptimizations::dataflow_only())
                .sparsity
                .weight_bit_column
        );
    }

    #[test]
    fn compression_assignment() {
        assert_eq!(AcceleratorSpec::scnn().compression, WeightCompression::Zre);
        assert_eq!(
            AcceleratorSpec::bitwave(BitwaveOptimizations::all()).compression,
            WeightCompression::Bcs
        );
        assert_eq!(
            AcceleratorSpec::stripes().compression,
            WeightCompression::None
        );
    }

    #[test]
    fn dynamic_dataflow_machines_have_multiple_sus() {
        assert!(AcceleratorSpec::huaa().su_set.options.len() > 1);
        assert!(
            AcceleratorSpec::bitwave(BitwaveOptimizations::all())
                .su_set
                .options
                .len()
                == 7
        );
        assert_eq!(AcceleratorSpec::stripes().su_set.options.len(), 1);
        assert_eq!(
            AcceleratorSpec::bitwave(BitwaveOptimizations {
                dynamic_dataflow: false,
                sign_magnitude_bcs: true,
                bit_flip: false
            })
            .su_set
            .options
            .len(),
            1
        );
    }

    #[test]
    fn comparison_set_order() {
        let set = AcceleratorSpec::sota_comparison_set();
        let names: Vec<&str> = set.iter().map(|s| s.kind.name()).collect();
        assert_eq!(
            names,
            vec!["SCNN", "Stripes", "Pragmatic", "Bitlet", "HUAA", "BitWave"]
        );
    }

    #[test]
    fn registry_resolves_every_canonical_name() {
        for name in AcceleratorSpec::REGISTRY_NAMES {
            assert!(
                AcceleratorSpec::by_name(name).is_ok(),
                "registry must resolve `{name}`"
            );
        }
    }

    #[test]
    fn registry_normalises_separators_and_case() {
        assert_eq!(
            AcceleratorSpec::by_name("BitWave+DF+SM").unwrap().label,
            "BitWave+DF+SM"
        );
        assert_eq!(
            AcceleratorSpec::by_name("bitwave_df").unwrap().label,
            "BitWave+DF"
        );
        assert_eq!(
            AcceleratorSpec::by_name("bitwave").unwrap().label,
            "BitWave+DF+SM+BF"
        );
        assert_eq!(AcceleratorSpec::by_name("SCNN").unwrap().label, "SCNN");
    }

    #[test]
    fn registry_rejects_unknown_names_with_the_known_list() {
        let err = AcceleratorSpec::by_name("eyeriss").unwrap_err();
        assert_eq!(err.name, "eyeriss");
        let msg = err.to_string();
        assert!(msg.contains("eyeriss") && msg.contains("bitwave-df-sm"));
    }

    #[test]
    fn unconstrained_spec_serializes_without_a_dram_key() {
        for name in AcceleratorSpec::REGISTRY_NAMES {
            let spec = AcceleratorSpec::by_name(name).unwrap();
            assert!(
                !spec.dram.is_constrained(),
                "`{name}` defaults unconstrained"
            );
            let json = serde_json::to_string(&spec).unwrap();
            assert!(
                !json.contains("\"dram\""),
                "`{name}` must omit the dram field at the unconstrained default: {json}"
            );
        }
    }

    #[test]
    fn constrained_spec_serializes_the_dram_tier_and_changes_the_bytes() {
        let baseline = AcceleratorSpec::bitwave(BitwaveOptimizations::all());
        let mut throttled = baseline.clone();
        throttled.dram = DramSpec::constrained(32);
        let baseline_json = serde_json::to_string(&baseline).unwrap();
        let throttled_json = serde_json::to_string(&throttled).unwrap();
        assert_ne!(baseline_json, throttled_json);
        assert!(throttled_json.contains("\"dram\""));
        assert!(throttled_json.contains("\"bandwidth_bits\":32"));
        // Everything before the tier keeps the unconstrained bytes, including
        // the `dram_bandwidth_bits` key every serialized spec carries.
        assert!(throttled_json.starts_with(&baseline_json[..baseline_json.len() - 1]));
        assert!(throttled_json.contains("\"dram_bandwidth_bits\":64"));
        assert!(
            throttled_json.ends_with("}}"),
            "dram must be the last field"
        );
    }

    #[test]
    fn bit_serial_flags() {
        assert!(AcceleratorSpec::stripes().is_bit_serial());
        assert!(AcceleratorSpec::bitwave(BitwaveOptimizations::all()).is_bit_serial());
        assert!(!AcceleratorSpec::huaa().is_bit_serial());
        assert_eq!(
            AcceleratorSpec::dense().peak_equivalent_macs_per_cycle(),
            512
        );
    }
}
