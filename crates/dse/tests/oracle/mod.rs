//! Naive reference implementation of the per-layer design-space search.
//! Nothing here is factored or tuned: the mapping space is enumerated
//! afresh, every candidate is evaluated in full through the Eq. 1–5 cost
//! model, and the winner and the Pareto front are picked by the most direct
//! statement of their specification.
//!
//! Shared by several test binaries (and the bench support library), each of
//! which uses a subset of it.
#![allow(dead_code)]

use bitwave_accel::spec::AcceleratorSpec;
use bitwave_accel::{EnergyModel, LayerSparsityProfile};
use bitwave_core::digest::Digest;
use bitwave_dataflow::mapping::{select_spatial_unrolling, validate_layer_dims, MappingDecision};
use bitwave_dataflow::MemoryHierarchy;
use bitwave_dnn::layer::{LayerKind, LayerSpec, LoopDims};
use bitwave_dnn::models::NetworkSpec;
use bitwave_dse::cost::evaluate_decision;
use bitwave_dse::{
    Candidate, DseError, EvaluatedMapping, LayerSearchResult, NetworkSearch, SearchSpace,
    SearchedLayer, DSE_SCHEMA_VERSION,
};
use serde::Serialize;

/// The search inputs a result's `key` digests, field for field.
#[derive(Serialize)]
struct SearchKey {
    schema: u32,
    accelerator: AcceleratorSpec,
    dims: LoopDims,
    kind: LayerKind,
    profile: String,
    memory: MemoryHierarchy,
    energy: EnergyModel,
    space: SearchSpace,
}

/// The full cost of one enumerated candidate: its spatial unrolling at the
/// layer's utilisation, under its explicit temporal mapping.
pub fn evaluate_candidate(
    accel: &AcceleratorSpec,
    layer: &LayerSpec,
    profile: &LayerSparsityProfile,
    memory: &MemoryHierarchy,
    energy: &EnergyModel,
    candidate: &Candidate,
) -> EvaluatedMapping {
    let utilization = candidate.su.utilization_for(layer);
    let decision = MappingDecision {
        layer: String::new(),
        su: candidate.su,
        label: candidate.label.clone(),
        temporal: Some(candidate.temporal),
        utilization,
        effective_macs_per_cycle: candidate.su.parallelism() as f64 * utilization,
    };
    evaluate_decision(accel, layer, profile, memory, energy, &decision)
}

/// `a` dominates `b` on `[cycles, energy, EDP, utilisation]` (the first
/// three minimised, utilisation maximised): no worse anywhere, strictly
/// better somewhere.
fn dominates(a: &[f64; 4], b: &[f64; 4]) -> bool {
    let no_worse = a[0] <= b[0] && a[1] <= b[1] && a[2] <= b[2] && a[3] >= b[3];
    let better = a[0] < b[0] || a[1] < b[1] || a[2] < b[2] || a[3] > b[3];
    no_worse && better
}

/// One layer's search: every candidate evaluated in full; the winner is the
/// first candidate of minimum EDP among those of maximum utilisation at
/// that EDP; the front is every non-dominated candidate, sorted by EDP
/// (ties by enumeration order), exact objective duplicates dropped, capped
/// at `max_front`.
pub fn search_layer(
    accel: &AcceleratorSpec,
    layer: &LayerSpec,
    profile: &LayerSparsityProfile,
    memory: &MemoryHierarchy,
    energy: &EnergyModel,
    space: &SearchSpace,
) -> Result<LayerSearchResult, DseError> {
    validate_layer_dims(layer)?;
    let key = Digest::of_value(&SearchKey {
        schema: DSE_SCHEMA_VERSION,
        accelerator: accel.clone(),
        dims: layer.dims,
        kind: layer.kind,
        profile: Digest::of_value(profile)?.to_hex(),
        memory: *memory,
        energy: *energy,
        space: space.clone(),
    })?;
    let candidates = space.enumerate(accel, layer);
    if candidates.is_empty() {
        return Err(DseError::EmptySpace {
            layer: layer.name.clone(),
        });
    }
    let evaluated: Vec<EvaluatedMapping> = candidates
        .iter()
        .map(|c| evaluate_candidate(accel, layer, profile, memory, energy, c))
        .collect();
    let objectives: Vec<[f64; 4]> = evaluated.iter().map(EvaluatedMapping::objectives).collect();

    let min_edp = objectives
        .iter()
        .map(|o| o[2])
        .fold(f64::INFINITY, f64::min);
    let max_utilization = objectives
        .iter()
        .filter(|o| o[2] == min_edp)
        .map(|o| o[3])
        .fold(f64::NEG_INFINITY, f64::max);
    let winner = objectives
        .iter()
        .position(|o| o[2] == min_edp && o[3] == max_utilization)
        .expect("some candidate attains the minimum");

    let mut front: Vec<usize> = (0..objectives.len())
        .filter(|&i| !objectives.iter().any(|o| dominates(o, &objectives[i])))
        .collect();
    let front_total = front.len();
    front.sort_by(|&a, &b| {
        objectives[a][2]
            .total_cmp(&objectives[b][2])
            .then(a.cmp(&b))
    });
    let mut kept: Vec<usize> = Vec::new();
    for i in front {
        if kept.last().map(|&last| objectives[last]) != Some(objectives[i]) {
            kept.push(i);
        }
    }
    kept.truncate(space.max_front.max(1));

    Ok(LayerSearchResult {
        key: key.to_hex(),
        candidates: candidates.len(),
        winner: evaluated[winner].clone(),
        front: kept.into_iter().map(|i| evaluated[i].clone()).collect(),
        front_total,
    })
}

/// A whole network's search, layer by layer in order: the Fig. 9
/// heuristic's pick first (its errors come first), then the layer search,
/// with the heuristic and searched totals summed in layer order.
pub fn search_network(
    accel: &AcceleratorSpec,
    network: &NetworkSpec,
    profiles: &[LayerSparsityProfile],
    memory: &MemoryHierarchy,
    energy: &EnergyModel,
    space: &SearchSpace,
) -> Result<NetworkSearch, DseError> {
    if network.layers.len() != profiles.len() {
        return Err(DseError::MisalignedProfiles {
            layers: network.layers.len(),
            profiles: profiles.len(),
        });
    }
    let mut layers = Vec::with_capacity(profiles.len());
    for (layer, profile) in network.layers.iter().zip(profiles) {
        let decision = select_spatial_unrolling(layer, &accel.su_set)?;
        layers.push(SearchedLayer {
            layer: layer.name.clone(),
            heuristic: evaluate_decision(accel, layer, profile, memory, energy, &decision),
            search: search_layer(accel, layer, profile, memory, energy, space)?,
        });
    }
    let (mut h_cycles, mut h_energy, mut s_cycles, mut s_energy) = (0.0, 0.0, 0.0, 0.0);
    let mut memory_bound_layers = 0;
    for layer in &layers {
        h_cycles += layer.heuristic.cost.total_cycles;
        h_energy += layer.heuristic.cost.energy_pj;
        let winner = &layer.search.winner.cost;
        s_cycles += winner.total_cycles;
        s_energy += winner.energy_pj;
        // Pinned at the DRAM side of a constrained roofline.
        if winner.total_cycles > 0.0
            && winner.dram_cycles >= winner.total_cycles
            && winner.dram_cycles > winner.compute_cycles
        {
            memory_bound_layers += 1;
        }
    }
    Ok(NetworkSearch {
        accelerator: accel.label.clone(),
        layers,
        heuristic_total_cycles: h_cycles,
        heuristic_energy_pj: h_energy,
        heuristic_edp: h_cycles * h_energy,
        searched_total_cycles: s_cycles,
        searched_energy_pj: s_energy,
        searched_edp: s_cycles * s_energy,
        memory_bound_layers,
    })
}
