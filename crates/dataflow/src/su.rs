//! Spatial unrolling (SU) configurations.
//!
//! A spatial unrolling states how many elements of each loop dimension are
//! processed in parallel per clock cycle (Section II-A).  BitWave supports
//! the seven configurations of Table I, selected per layer at runtime; the
//! dense baseline of Fig. 13 uses `[Ku = 64, Cu = 64]`; the comparison
//! accelerators use their published fixed mappings.
//!
//! For bit-serial machines the weight-bit loop `Bw` is unrolled temporally,
//! so the *spatial* product of an SU counts 1-bit multipliers; a bit-parallel
//! machine's SU product counts full 8×8 multipliers.

use bitwave_dnn::layer::{LayerSpec, LoopDims};
use serde::Serialize;

/// One spatial-unrolling configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct SpatialUnrolling {
    /// Short name ("SU1", "Dense64x64", …).
    pub name: &'static str,
    /// Parallel input channels per cycle (`Cu`).
    pub c: usize,
    /// Parallel output channels per cycle (`Ku`).
    pub k: usize,
    /// Parallel output columns per cycle (`OXu`).
    pub ox: usize,
    /// Parallel output rows per cycle (`OYu`).
    pub oy: usize,
    /// Parallel kernel columns per cycle (`FXu`).
    pub fx: usize,
    /// Parallel kernel rows per cycle (`FYu`).
    pub fy: usize,
    /// Parallel group-dimension lanes (`Gu`, only used by the depthwise
    /// dataflow SU7 which parallelises over channels with `C = 1`).
    pub g: usize,
}

impl SpatialUnrolling {
    /// A named SU with the given `[Cu, OXu, Ku]` triple and all other
    /// dimensions at 1 (the shape of Table I's SU1–SU6).
    pub const fn cxk(name: &'static str, c: usize, ox: usize, k: usize) -> Self {
        Self {
            name,
            c,
            k,
            ox,
            oy: 1,
            fx: 1,
            fy: 1,
            g: 1,
        }
    }

    /// An SU with a runtime-derived name (a sweep menu's `"SU1@8192"`),
    /// `[Cu, Ku, OXu, Gu]` as given and every other dimension at 1.  The
    /// name is resolved through a capped process-wide intern pool, so each
    /// distinct name is leaked once and equal names share one allocation.
    pub fn interned(name: &str, c: usize, k: usize, ox: usize, g: usize) -> Self {
        Self {
            name: intern_su_name(name),
            c,
            k,
            ox,
            oy: 1,
            fx: 1,
            fy: 1,
            g,
        }
    }

    /// Total number of parallel MAC lanes of this SU.
    pub fn parallelism(&self) -> usize {
        self.c * self.k * self.ox * self.oy * self.fx * self.fy * self.g
    }

    /// Weight bandwidth demand in operand elements per cycle
    /// (`Cu·Ku·FXu·FYu` distinct weights are consumed each cycle; the
    /// depthwise SU consumes `Gu` weights).
    pub fn weight_elements_per_cycle(&self) -> usize {
        self.c * self.k * self.fx * self.fy * self.g
    }

    /// Activation bandwidth demand in operand elements per cycle
    /// (`Cu·OXu·OYu·FXu·FYu·Gu` distinct activations per cycle).
    pub fn activation_elements_per_cycle(&self) -> usize {
        self.c * self.ox * self.oy * self.fx * self.fy * self.g
    }

    /// Weight bandwidth in bits/cycle for a bit-serial machine that streams
    /// one weight bit-column per cycle (Table I's "W BW" column).
    pub fn weight_bits_per_cycle_bit_serial(&self) -> usize {
        self.weight_elements_per_cycle()
    }

    /// Activation bandwidth in bits/cycle for 8-bit activations
    /// (Table I's "Act BW" column).
    pub fn activation_bits_per_cycle(&self) -> usize {
        self.activation_elements_per_cycle() * 8
    }

    /// Spatial utilisation of a layer under this SU, taking the layer kind
    /// into account.
    ///
    /// For depthwise convolutions the output-channel and input-channel loops
    /// are *coupled* (output channel `k` only reads input channel `k`), so an
    /// SU cannot fill its `Cu` and `Ku` lanes independently: at most
    /// `max(Cu, Ku, Gu)` lanes can be mapped onto the channel dimension (the
    /// "diagonal" of the Cu×Ku unrolling), and the remaining lanes idle.
    /// This is why Fig. 9's "Dwcv" case collapses for every generic SU and
    /// why Table I provides the dedicated SU7.
    pub fn utilization_for(&self, layer: &LayerSpec) -> f64 {
        let dims = &layer.dims;
        if layer.kind.is_depthwise() {
            let usable_channel_unroll = self.c.max(self.k).max(self.g);
            let channel = dim_utilization(dims.k.max(1), usable_channel_unroll);
            let spatial = dim_utilization(dims.ox.max(1) * dims.b.max(1), self.ox)
                * dim_utilization(dims.oy.max(1), self.oy)
                * dim_utilization(dims.fx.max(1), self.fx)
                * dim_utilization(dims.fy.max(1), self.fy);
            let idle_fraction = usable_channel_unroll as f64 / (self.c * self.k * self.g) as f64;
            channel * spatial * idle_fraction
        } else {
            self.utilization(dims)
        }
    }

    /// Spatial utilisation of a plain loop nest under this SU: the fraction
    /// of the PE array doing useful work, limited by how well each loop
    /// dimension divides into its unrolling factor.
    pub fn utilization(&self, dims: &LoopDims) -> f64 {
        dim_utilization(dims.c.max(1), self.c)
            * dim_utilization(dims.k.max(1), self.k)
            * dim_utilization(dims.ox.max(1) * dims.b.max(1), self.ox)
            * dim_utilization(dims.oy.max(1), self.oy)
            * dim_utilization(dims.fx.max(1), self.fx)
            * dim_utilization(dims.fy.max(1), self.fy)
            * group_utilization(dims, self.g)
    }
}

/// `SpatialUnrolling::name` is a `&'static str` (the named configurations
/// are compile-time constants), so runtime-derived names go through a small
/// process-wide intern pool.  Each distinct name is leaked once; the pool is
/// capped as a guard against pathological inputs (menu names derive from
/// `/v1/design` configs), beyond which unknown names collapse to the
/// generated-candidate placeholder `"DSE"`.
fn intern_su_name(name: &str) -> &'static str {
    use std::sync::{Mutex, OnceLock};
    const POOL_CAP: usize = 1024;
    static POOL: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(Vec::new()));
    let mut pool = pool
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(existing) = pool.iter().find(|n| ***n == *name) {
        return existing;
    }
    if pool.len() >= POOL_CAP {
        return "DSE";
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    pool.push(leaked);
    leaked
}

/// Utilisation of one loop dimension of size `dim` unrolled `unroll` ways:
/// `dim / (ceil(dim/unroll) * unroll)`.
fn dim_utilization(dim: usize, unroll: usize) -> f64 {
    if unroll <= 1 {
        return 1.0;
    }
    let passes = dim.div_ceil(unroll);
    dim as f64 / (passes * unroll) as f64
}

/// SU7 parallelises the channel dimension of depthwise layers (where `C = 1`
/// per group but `K` channels exist); for other SUs `g = 1` and this is 1.0.
fn group_utilization(dims: &LoopDims, g: usize) -> f64 {
    if g <= 1 {
        1.0
    } else {
        dim_utilization(dims.k.max(1), g)
    }
}

/// The BitWave SU set of Table I.
pub mod bitwave_su {
    use super::SpatialUnrolling;

    /// SU1: `[Cu=8, OXu=16, Ku=32]`.
    pub const SU1: SpatialUnrolling = SpatialUnrolling::cxk("SU1", 8, 16, 32);
    /// SU2: `[Cu=16, OXu=8, Ku=32]`.
    pub const SU2: SpatialUnrolling = SpatialUnrolling::cxk("SU2", 16, 8, 32);
    /// SU3: `[Cu=32, OXu=4, Ku=32]`.
    pub const SU3: SpatialUnrolling = SpatialUnrolling::cxk("SU3", 32, 4, 32);
    /// SU4: `[Cu=8, OXu=1, Ku=128]`.
    pub const SU4: SpatialUnrolling = SpatialUnrolling::cxk("SU4", 8, 1, 128);
    /// SU5: `[Cu=16, OXu=1, Ku=64]`.
    pub const SU5: SpatialUnrolling = SpatialUnrolling::cxk("SU5", 16, 1, 64);
    /// SU6: `[Cu=32, OXu=1, Ku=32]`.
    pub const SU6: SpatialUnrolling = SpatialUnrolling::cxk("SU6", 32, 1, 32);
    /// SU7 (depthwise): `[Gu=64, OXu=2, Ku=1]`.
    pub const SU7: SpatialUnrolling = SpatialUnrolling {
        name: "SU7",
        c: 1,
        k: 1,
        ox: 2,
        oy: 1,
        fx: 1,
        fy: 1,
        g: 64,
    };

    /// All seven BitWave SUs in Table I order.
    pub const ALL: [SpatialUnrolling; 7] = [SU1, SU2, SU3, SU4, SU5, SU6, SU7];
}

/// Fixed SUs used by the baselines of Fig. 9 / Fig. 12 / Fig. 13.
pub mod baseline_su {
    use super::SpatialUnrolling;

    /// The dense reference mapping of Fig. 13 (`[Ku = 64, Cu = 64]`).
    pub const DENSE_64X64: SpatialUnrolling = SpatialUnrolling::cxk("Dense64x64", 64, 1, 64);

    /// An output-map-parallel (XY) mapping over a 4096-lane bit-serial array.
    pub const XY_4096: SpatialUnrolling = SpatialUnrolling {
        name: "XY-4096",
        c: 1,
        k: 16,
        ox: 16,
        oy: 16,
        fx: 1,
        fy: 1,
        g: 1,
    };
    /// A channel-parallel (CK) mapping over a 4096-lane bit-serial array.
    pub const CK_4096: SpatialUnrolling = SpatialUnrolling::cxk("CK-4096", 64, 1, 64);
    /// A kernel-column-parallel (XFx) mapping over a 4096-lane array.
    pub const XFX_4096: SpatialUnrolling = SpatialUnrolling {
        name: "XFx-4096",
        c: 8,
        k: 32,
        ox: 16,
        oy: 1,
        fx: 1,
        fy: 1,
        g: 1,
    };

    /// XY mapping scaled to a 512-PE bit-parallel array.
    pub const XY_512: SpatialUnrolling = SpatialUnrolling {
        name: "XY-512",
        c: 1,
        k: 8,
        ox: 8,
        oy: 8,
        fx: 1,
        fy: 1,
        g: 1,
    };
    /// CK mapping scaled to a 512-PE bit-parallel array.
    pub const CK_512: SpatialUnrolling = SpatialUnrolling::cxk("CK-512", 32, 1, 16);
    /// XFx mapping scaled to a 512-PE bit-parallel array.
    pub const XFX_512: SpatialUnrolling = SpatialUnrolling {
        name: "XFx-512",
        c: 4,
        k: 16,
        ox: 8,
        oy: 1,
        fx: 1,
        fy: 1,
        g: 1,
    };
}

/// A named set of selectable SUs (one per accelerator).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SuSet {
    /// Name of the set ("BitWave", "Dense", …).
    pub name: String,
    /// The selectable configurations; dynamic-dataflow machines list several,
    /// fixed-dataflow machines exactly one.
    pub options: Vec<SpatialUnrolling>,
}

impl SuSet {
    /// BitWave's dynamic dataflow set (Table I).
    pub fn bitwave() -> Self {
        Self {
            name: "BitWave".to_string(),
            options: bitwave_su::ALL.to_vec(),
        }
    }

    /// A single fixed SU.
    pub fn fixed(su: SpatialUnrolling) -> Self {
        Self {
            name: su.name.to_string(),
            options: vec![su],
        }
    }

    /// The dense `[Ku=64, Cu=64]` reference set.
    pub fn dense() -> Self {
        Self::fixed(baseline_su::DENSE_64X64)
    }

    /// Largest parallelism across the set's options.
    pub fn peak_parallelism(&self) -> usize {
        self.options
            .iter()
            .map(SpatialUnrolling::parallelism)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv_dims(c: usize, k: usize, ox: usize) -> LoopDims {
        LoopDims {
            b: 1,
            k,
            c,
            oy: ox,
            ox,
            fy: 3,
            fx: 3,
        }
    }

    #[test]
    fn table1_su_parallelism_matches_bandwidth_profile() {
        // SU1-SU3 drive the full 4096-multiplier array (512 BCEs × 8 lanes);
        // SU4-SU6 trade array occupancy for weight bandwidth on matmul-style
        // layers (Cu·OXu·Ku = 1024); the depthwise SU7 keeps 128 lanes busy.
        use bitwave_su::*;
        for su in [SU1, SU2, SU3] {
            assert_eq!(
                su.parallelism(),
                4096,
                "{} should use the full array",
                su.name
            );
        }
        for su in [SU4, SU5, SU6] {
            assert_eq!(su.parallelism(), 1024, "{} parallelism", su.name);
        }
        assert_eq!(SU7.parallelism(), 128);
    }

    #[test]
    fn table1_bandwidths_match_paper() {
        use bitwave_su::*;
        // Table I: W BW (bit/cycle) and Act BW (bit/cycle).
        assert_eq!(SU1.weight_bits_per_cycle_bit_serial(), 256);
        assert_eq!(SU1.activation_bits_per_cycle(), 1024);
        assert_eq!(SU2.weight_bits_per_cycle_bit_serial(), 512);
        assert_eq!(SU2.activation_bits_per_cycle(), 1024);
        assert_eq!(SU3.weight_bits_per_cycle_bit_serial(), 1024);
        assert_eq!(SU3.activation_bits_per_cycle(), 1024);
        assert_eq!(SU4.weight_bits_per_cycle_bit_serial(), 1024);
        assert_eq!(SU4.activation_bits_per_cycle(), 64);
        assert_eq!(SU5.weight_bits_per_cycle_bit_serial(), 1024);
        assert_eq!(SU5.activation_bits_per_cycle(), 128);
        assert_eq!(SU6.weight_bits_per_cycle_bit_serial(), 1024);
        assert_eq!(SU6.activation_bits_per_cycle(), 256);
        assert_eq!(SU7.weight_bits_per_cycle_bit_serial(), 64);
        assert_eq!(SU7.activation_bits_per_cycle(), 1024);
    }

    #[test]
    fn spatial_unrollings_roundtrip_through_json_byte_identically() {
        // An SU rebuilt from its own name and dimensions by the interning
        // constructor serializes to the exact bytes of the original.
        let generated = SpatialUnrolling {
            name: "DSE",
            c: 8,
            k: 32,
            ox: 16,
            oy: 1,
            fx: 1,
            fy: 1,
            g: 1,
        };
        for su in [bitwave_su::SU1, bitwave_su::SU7, generated] {
            let json = serde_json::to_string(&su).unwrap();
            let rebuilt = SpatialUnrolling::interned(su.name, su.c, su.k, su.ox, su.g);
            assert_eq!(rebuilt, su);
            assert_eq!(serde_json::to_string(&rebuilt).unwrap(), json);
        }
        // Interning maps repeated names onto one static allocation.
        let a = SpatialUnrolling::interned(&format!("SU{}@8192", 3), 64, 64, 2, 1);
        let b = SpatialUnrolling::interned(&format!("SU{}@8192", 3), 64, 64, 2, 1);
        assert!(std::ptr::eq(a.name, b.name));
    }

    #[test]
    fn dim_utilization_basics() {
        assert_eq!(dim_utilization(64, 1), 1.0);
        assert_eq!(dim_utilization(64, 32), 1.0);
        assert!((dim_utilization(3, 8) - 3.0 / 8.0).abs() < 1e-12);
        // 65 over 32 lanes needs 3 passes of 32: 65/96.
        assert!((dim_utilization(65, 32) - 65.0 / 96.0).abs() < 1e-12);
    }

    #[test]
    fn early_layer_prefers_xy_parallel_su() {
        // ResNet18 conv1-like layer: wide feature map, only 3 input channels.
        let dims = LoopDims {
            b: 1,
            k: 64,
            c: 3,
            oy: 112,
            ox: 112,
            fy: 7,
            fx: 7,
        };
        let su1 = bitwave_su::SU1.utilization(&dims); // Cu=8 wastes 5/8 of C lanes
        let su4 = bitwave_su::SU4.utilization(&dims);
        assert!(su1 < 0.5);
        assert!(su4 < 0.5);
        // An output-map parallel mapping keeps the array busier for this shape.
        let xy = baseline_su::XY_4096.utilization(&dims);
        assert!(xy > su1);
    }

    #[test]
    fn deep_layer_prefers_ck_parallel_su() {
        // ResNet18 last conv: 512 channels in and out, 7x7 map.
        let dims = conv_dims(512, 512, 7);
        let ck = baseline_su::CK_4096.utilization(&dims);
        let xy = baseline_su::XY_4096.utilization(&dims);
        assert!(
            ck > xy,
            "CK ({ck:.2}) should beat XY ({xy:.2}) on deep layers"
        );
        // BitWave's SU3 also fits this shape well.
        assert!(bitwave_su::SU3.utilization(&dims) > 0.8);
    }

    #[test]
    fn depthwise_layer_needs_su7() {
        // MobileNetV2 dwconv: C=1 per output channel.
        let dims = LoopDims {
            b: 1,
            k: 96,
            c: 1,
            oy: 56,
            ox: 56,
            fy: 3,
            fx: 3,
        };
        let su1 = bitwave_su::SU1.utilization(&dims);
        let su7 = bitwave_su::SU7.utilization(&dims);
        assert!(
            su7 > 5.0 * su1,
            "SU7 ({su7:.3}) must far exceed SU1 ({su1:.3})"
        );
    }

    #[test]
    fn larger_arrays_are_harder_to_fill() {
        // The same mapping style on a 4096-lane array utilises the array no
        // better than on a 512-PE array (Fig. 9's observation).
        let dims = conv_dims(64, 64, 14);
        let big = baseline_su::CK_4096.utilization(&dims);
        let small = baseline_su::CK_512.utilization(&dims);
        assert!(small >= big);
    }

    #[test]
    fn su_set_constructors() {
        let bw = SuSet::bitwave();
        assert_eq!(bw.options.len(), 7);
        assert_eq!(bw.peak_parallelism(), 4096);
        let dense = SuSet::dense();
        assert_eq!(dense.options.len(), 1);
        assert_eq!(dense.peak_parallelism(), 4096);
        let fixed = SuSet::fixed(baseline_su::XY_512);
        assert_eq!(fixed.name, "XY-512");
        assert_eq!(fixed.peak_parallelism(), 512);
    }

    #[test]
    fn utilization_is_in_unit_interval() {
        let dims = conv_dims(129, 65, 13);
        for su in bitwave_su::ALL {
            let u = su.utilization(&dims);
            assert!((0.0..=1.0).contains(&u), "{}: {u}", su.name);
        }
    }
}
