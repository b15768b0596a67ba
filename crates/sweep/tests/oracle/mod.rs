//! Naive reference sweep: every point evaluated by the naive per-layer
//! design-space search of the dse oracle (full per-candidate evaluation,
//! nothing factored, nothing shared between points), assembled into a
//! front report through the same ledger and assembly as the real sweep.
//!
//! Shared by several test binaries and the bench support library, each of
//! which uses a subset of it.
#![allow(dead_code)]

#[path = "../../../dse/tests/oracle/mod.rs"]
pub mod dse;

use bitwave_accel::EnergyModel;
use bitwave_dataflow::MemoryHierarchy;
use bitwave_sweep::eval::PortfolioModel;
use bitwave_sweep::{
    assemble_report, build_portfolio, enumerate, menu_rows, CandidatePoint, FrontReport,
    ModelOutcome, PointResult, SweepConfig, SweepLedger,
};
use std::sync::Arc;

/// Evaluates one candidate against the portfolio: each model's searched
/// totals from the oracle's whole-network search at the point's SRAM sizes;
/// the first failing model makes the point infeasible.
pub fn evaluate_point(
    point: &CandidatePoint,
    config: &SweepConfig,
    portfolio: &[Arc<PortfolioModel>],
) -> PointResult {
    let spec = point.spec();
    let memory = MemoryHierarchy {
        weight_sram_bytes: point.weight_sram_kb * 1024,
        activation_sram_bytes: point.activation_sram_kb * 1024,
        ..MemoryHierarchy::bitwave_default()
    };
    let energy = EnergyModel::finfet_16nm();
    let mut models = Vec::with_capacity(portfolio.len());
    let mut error = None;
    for model in portfolio {
        let search = dse::search_network(
            &spec,
            &model.network,
            &model.profiles,
            &memory,
            &energy,
            &config.space,
        );
        match search {
            Ok(search) => models.push(ModelOutcome {
                model: model.network.name.clone(),
                cycles: search.searched_total_cycles,
                energy_pj: search.searched_energy_pj,
                edp: search.searched_edp,
            }),
            Err(e) => {
                error = Some(format!("{}: {e}", model.network.name));
                models.clear();
                break;
            }
        }
    }
    PointResult {
        index: point.index,
        label: point.label(),
        point: *point,
        area_mm2: point.area_mm2(),
        feasible: error.is_none(),
        error,
        total_cycles: models.iter().map(|m| m.cycles).sum(),
        total_energy_pj: models.iter().map(|m| m.energy_pj).sum(),
        edp: models.iter().map(|m| m.edp).sum(),
        models,
        menu: menu_rows(&spec.su_set),
    }
}

/// The whole sweep, in memory: points evaluated in enumeration order,
/// `threads` at a time on scoped threads, published to an in-memory
/// [`SweepLedger`] and assembled into the front report.
pub fn sweep(config: &SweepConfig, threads: usize) -> FrontReport {
    let portfolio = build_portfolio(config).expect("portfolio builds");
    let ledger = SweepLedger::open(config, None).expect("in-memory ledger opens");
    for batch in enumerate(config).chunks(threads.max(1)) {
        let results: Vec<PointResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = batch
                .iter()
                .map(|point| scope.spawn(|| evaluate_point(point, config, &portfolio)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("oracle evaluation thread"))
                .collect()
        });
        for (point, result) in batch.iter().zip(results) {
            ledger.publish(point.index, result);
        }
    }
    assemble_report(config, &ledger).expect("every point published")
}
