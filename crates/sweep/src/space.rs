//! Candidate enumeration: hardware points and their SU menus.
//!
//! A candidate is one combination of array size, synchronisation
//! granularity, SRAM sizes, interface bandwidths and SU-menu family.  The
//! menu families are defined at the paper's 4096-lane scale and re-scaled
//! to each candidate's lane count by power-of-two factors (growing the
//! output-channel unrolling first, the way Table I's own SU1→SU4
//! progression trades `OXu` for `Ku`), so every candidate's menu saturates
//! its array.
//!
//! The area objective extrapolates the paper's Table III breakdown: SRAM
//! area scales with capacity, PE-array area with lane count, and the data
//! dispatcher with the number of independently scheduled lane groups
//! (`lanes / sync_lanes` — finer sync costs more dispatchers); the fetcher,
//! index parser and controller are treated as fixed.

use crate::config::{MenuKind, SweepConfig};
use bitwave_accel::area::BITWAVE_AREA_MM2;
use bitwave_accel::spec::{AcceleratorSpec, BitwaveOptimizations};
use bitwave_dataflow::su::{bitwave_su, SpatialUnrolling, SuSet};
use bitwave_dataflow::DramSpec;
use serde::{Deserialize, Serialize};

/// One hardware candidate, identified by its enumeration `index` within a
/// sweep configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CandidatePoint {
    /// Position in the deterministic enumeration order.
    pub index: usize,
    /// Peak bit-serial lanes.
    pub lanes: usize,
    /// Lanes sharing one column schedule.
    pub sync_lanes: usize,
    /// Weight-SRAM size (KiB).
    pub weight_sram_kb: usize,
    /// Activation-SRAM size (KiB).
    pub activation_sram_kb: usize,
    /// DRAM interface width (bits/cycle).
    pub dram_bandwidth_bits: usize,
    /// Operand-SRAM port width (bits/cycle).
    pub sram_bandwidth_bits: usize,
    /// SU menu family.
    pub menu: MenuKind,
}

/// Enumerates every candidate of `config` in deterministic nested-axis
/// order (lanes outermost, menu innermost) — the order every worker, the
/// claim ledger and the final report agree on.
pub fn enumerate(config: &SweepConfig) -> Vec<CandidatePoint> {
    let mut points = Vec::with_capacity(config.total_points());
    let mut index = 0;
    for &lanes in &config.lanes {
        for &sync_lanes in &config.sync_lanes {
            for &weight_sram_kb in &config.weight_sram_kb {
                for &activation_sram_kb in &config.activation_sram_kb {
                    for &dram_bandwidth_bits in &config.dram_bandwidth_bits {
                        for &sram_bandwidth_bits in &config.sram_bandwidth_bits {
                            for &menu in &config.menus {
                                points.push(CandidatePoint {
                                    index,
                                    lanes,
                                    sync_lanes,
                                    weight_sram_kb,
                                    activation_sram_kb,
                                    dram_bandwidth_bits,
                                    sram_bandwidth_bits,
                                    menu,
                                });
                                index += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    points
}

impl CandidatePoint {
    /// Stable human-readable label, e.g.
    /// `"BW[table1 4096L s8 w256K a256K]"`.
    pub fn label(&self) -> String {
        format!(
            "BW[{} {}L s{} w{}K a{}K]",
            self.menu.name(),
            self.lanes,
            self.sync_lanes,
            self.weight_sram_kb,
            self.activation_sram_kb
        )
    }

    /// Materialises the accelerator spec this point describes: the full
    /// BitWave optimisation stack on the candidate's hardware dimensions.
    pub fn spec(&self) -> AcceleratorSpec {
        let mut spec = AcceleratorSpec::bitwave(BitwaveOptimizations::all());
        spec.label = self.label();
        spec.su_set = menu(self.menu, self.lanes);
        spec.sync_lanes = self.sync_lanes;
        spec.dram_bandwidth_bits = self.dram_bandwidth_bits;
        spec.act_sram_bandwidth_bits = self.sram_bandwidth_bits;
        spec.weight_sram_bandwidth_bits = self.sram_bandwidth_bits;
        // The sweep's bandwidth axis is a *real* constraint: candidates run
        // under the roofline DRAM tier, so a narrow interface shows up as
        // memory-bound layers instead of a uniformly additive tax.
        spec.dram = DramSpec::constrained(self.dram_bandwidth_bits);
        spec
    }

    /// The area objective (mm²), extrapolated from Table III's breakdown at
    /// the paper's design point (4096 lanes, sync 8, 512 KiB total SRAM —
    /// exactly [`BITWAVE_AREA_MM2`]).
    pub fn area_mm2(&self) -> f64 {
        // Table III fractions: SRAM 55.08 %, PE array 24.7 %, dispatcher
        // 10.8 %; fetcher + index parser + controller (9.42 %) fixed.
        const SRAM: f64 = 0.5508;
        const PE_ARRAY: f64 = 0.247;
        const DISPATCHER: f64 = 0.108;
        const FIXED: f64 = 1.0 - SRAM - PE_ARRAY - DISPATCHER;
        let total_kb = (self.weight_sram_kb + self.activation_sram_kb) as f64;
        let groups = (self.lanes / self.sync_lanes.max(1)) as f64;
        BITWAVE_AREA_MM2
            * (SRAM * total_kb / 512.0
                + PE_ARRAY * self.lanes as f64 / 4096.0
                + DISPATCHER * groups / 512.0
                + FIXED)
    }
}

/// The BitSim exemplar's seven dataflow tuples
/// `(pe_dotprod_size, pe_array_height, pe_array_width)` mapped onto the SU
/// vocabulary as `(Cu, Ku, OXu)`, at the exemplar's native scale.
const BITSIM_TUPLES: [(&str, usize, usize, usize); 7] = [
    ("BS1", 8, 32, 16),
    ("BS2", 16, 32, 8),
    ("BS3", 32, 32, 4),
    ("BS4", 128, 8, 1),
    ("BS5", 16, 64, 1),
    ("BS6", 32, 32, 1),
    ("BS7", 16, 1, 16),
];

/// Builds the SU menu of one family scaled to `lanes`.
pub fn menu(kind: MenuKind, lanes: usize) -> SuSet {
    let (name, base): (String, Vec<SpatialUnrolling>) = match kind {
        MenuKind::TableI => (format!("BitWave-{lanes}"), bitwave_su::ALL.to_vec()),
        MenuKind::BitSim => (
            format!("BitSim-{lanes}"),
            BITSIM_TUPLES
                .iter()
                .map(|&(tag, c, k, ox)| SpatialUnrolling::cxk(tag, c, ox, k))
                .collect(),
        ),
    };
    // Both families peak at 4096 lanes natively; scale every SU by the same
    // power-of-two factor so relative bandwidth trade-offs are preserved.
    let options = base
        .into_iter()
        .map(|su| scale_su(su, lanes, 4096))
        .collect();
    SuSet { name, options }
}

/// Scales `su` by the power-of-two factor `target/native`: growth doubles
/// `Ku` (or `Gu` for the depthwise shape); shrink halves the largest of
/// `Ku`/`OXu`/`Cu`/`Gu` first, keeping shapes as square as the menu allows.
/// The scaled SU gets a derived name (`"SU1@8192"`) unless unchanged.
fn scale_su(su: SpatialUnrolling, target: usize, native: usize) -> SpatialUnrolling {
    if target == native {
        return su;
    }
    let mut out = su;
    let mut scale = target as f64 / native as f64;
    while scale > 1.0 {
        if out.g > 1 {
            out.g *= 2;
        } else {
            out.k *= 2;
        }
        scale /= 2.0;
    }
    while scale < 1.0 {
        // Halve the largest divisible dimension; every menu dimension is a
        // power of two, so one of them always is.
        let dims = [out.k, out.ox, out.c, out.g];
        let max = *dims.iter().max().unwrap_or(&1);
        if max <= 1 {
            break;
        }
        if out.k == max {
            out.k /= 2;
        } else if out.ox == max {
            out.ox /= 2;
        } else if out.c == max {
            out.c /= 2;
        } else {
            out.g /= 2;
        }
        scale *= 2.0;
    }
    SpatialUnrolling::interned(
        &format!("{}@{target}", su.name),
        out.c.max(1),
        out.k.max(1),
        out.ox.max(1),
        out.g.max(1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_is_dense_and_deterministic() {
        let config = SweepConfig::tiny();
        let points = enumerate(&config);
        assert_eq!(points.len(), config.total_points());
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.index, i);
        }
        assert_eq!(points, enumerate(&config));
        // Menu is the innermost axis.
        assert_eq!(points[0].menu, MenuKind::TableI);
        assert_eq!(points[1].menu, MenuKind::BitSim);
        assert_eq!(points[0].lanes, points[1].lanes);
    }

    #[test]
    fn native_scale_menus_keep_the_paper_shapes() {
        let table1 = menu(MenuKind::TableI, 4096);
        assert_eq!(table1.options.len(), 7);
        assert_eq!(table1.peak_parallelism(), 4096);
        assert_eq!(table1.options[0], bitwave_su::SU1);
        let bitsim = menu(MenuKind::BitSim, 4096);
        assert_eq!(bitsim.options.len(), 7);
        assert_eq!(bitsim.peak_parallelism(), 4096);
        // BitSim tuple parallelisms: 3×4096, 3×1024, 1×256.
        let par: Vec<usize> = bitsim
            .options
            .iter()
            .map(SpatialUnrolling::parallelism)
            .collect();
        assert_eq!(par, vec![4096, 4096, 4096, 1024, 1024, 1024, 256]);
    }

    #[test]
    fn scaled_menus_track_the_lane_budget() {
        for lanes in [1024, 2048, 8192] {
            for kind in [MenuKind::TableI, MenuKind::BitSim] {
                let set = menu(kind, lanes);
                assert_eq!(
                    set.peak_parallelism(),
                    lanes,
                    "{} menu must peak at {lanes}",
                    set.name
                );
            }
        }
        // Scaled SUs carry derived names; repeated construction interns to
        // one allocation so menus stay cheap to rebuild.
        let a = menu(MenuKind::TableI, 8192).options[0];
        let b = menu(MenuKind::TableI, 8192).options[0];
        assert_eq!(a.name, "SU1@8192");
        assert!(std::ptr::eq(a.name, b.name));
    }

    #[test]
    fn paper_design_point_reproduces_published_area() {
        let point = CandidatePoint {
            index: 0,
            lanes: 4096,
            sync_lanes: 8,
            weight_sram_kb: 256,
            activation_sram_kb: 256,
            dram_bandwidth_bits: 64,
            sram_bandwidth_bits: 1024,
            menu: MenuKind::TableI,
        };
        assert!((point.area_mm2() - BITWAVE_AREA_MM2).abs() < 1e-9);
        // Monotonicity along each axis.
        let mut bigger = point;
        bigger.lanes = 8192;
        assert!(bigger.area_mm2() > point.area_mm2());
        let mut finer = point;
        finer.sync_lanes = 1;
        assert!(finer.area_mm2() > point.area_mm2());
        let mut more_sram = point;
        more_sram.weight_sram_kb = 1024;
        assert!(more_sram.area_mm2() > point.area_mm2());
    }

    #[test]
    fn spec_reflects_every_axis() {
        let point = CandidatePoint {
            index: 3,
            lanes: 8192,
            sync_lanes: 16,
            weight_sram_kb: 512,
            activation_sram_kb: 128,
            dram_bandwidth_bits: 128,
            sram_bandwidth_bits: 2048,
            menu: MenuKind::BitSim,
        };
        let spec = point.spec();
        assert_eq!(spec.su_set.peak_parallelism(), 8192);
        assert_eq!(spec.sync_lanes, 16);
        assert_eq!(spec.dram_bandwidth_bits, 128);
        assert_eq!(spec.act_sram_bandwidth_bits, 2048);
        assert_eq!(spec.weight_sram_bandwidth_bits, 2048);
        assert!(spec.label.contains("bitsim"));
        assert!(spec.bitwave_opts.dynamic_dataflow);
        // The bandwidth axis is load-bearing: candidates run constrained.
        assert_eq!(spec.dram, DramSpec::constrained(128));
    }
}
