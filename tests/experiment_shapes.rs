//! Integration tests asserting that every experiment driver reproduces the
//! qualitative shape of its figure (who wins, in which direction, with
//! roughly which factor).  README.md maps each paper result to its driver.

use bitwave::context::ExperimentContext;
use bitwave::dnn::models::bert_base;
use bitwave::experiments::bitflip::{fig06_pareto, fig06_tradeoff};
use bitwave::experiments::evaluation::{fig13_speedup_breakdown, fig14_15_17_sota_comparison};
use bitwave::experiments::hardware::{
    fig12_workload_summary, fig18_area_power_breakdown, table01_su_bandwidth,
    table03_sota_comparison, table04_pe_cost,
};
use bitwave::experiments::sparsity::{fig01_sparsity_survey, fig05_compression_ratio};

fn ctx() -> ExperimentContext {
    ExperimentContext::default().with_sample_cap(2_000)
}

#[test]
fn fig01_bit_sparsity_dominates_value_sparsity_on_every_network() {
    let rows = fig01_sparsity_survey(&ctx()).unwrap();
    assert_eq!(rows.len(), 4);
    for row in &rows {
        assert!(row.speedup_ratio_twos_complement > 1.0, "{}", row.network);
        assert!(row.speedup_ratio_sign_magnitude >= row.speedup_ratio_twos_complement);
    }
}

#[test]
fn fig05_bcs_wins_at_hardware_group_sizes() {
    let rows = fig05_compression_ratio(&ctx()).unwrap();
    let zre = rows
        .iter()
        .find(|r| r.codec == "ZRE")
        .unwrap()
        .cr_with_index;
    let bcs16 = rows
        .iter()
        .find(|r| r.codec == "BCS" && r.group_size == Some(16))
        .unwrap()
        .cr_with_index;
    assert!(bcs16 > zre);
    assert!(
        bcs16 > 1.2,
        "BCS at G=16 should compress ResNet18's late layers"
    );
}

#[test]
fn fig06_bert_bitflip_reaches_paper_scale_compression() {
    // The paper: BERT reaches 1.46x CR with no drop and up to 2.47x with a
    // small drop.  Our proxy should land in the same regime.
    let ctx = ctx();
    let rows = fig06_tradeoff(&ctx, &bert_base()).unwrap();
    let front = fig06_pareto(&rows);
    assert!(!front.is_empty());
    let best_bitflip = rows
        .iter()
        .filter(|r| r.method == "Int8+SM+BitFlip")
        .map(|r| r.compression_ratio)
        .fold(0.0f64, f64::max);
    assert!(
        best_bitflip > 1.4,
        "BERT Bit-Flip compression ratio too small: {best_bitflip:.2}"
    );
}

#[test]
fn fig13_total_speedups_are_in_paper_range() {
    let rows = fig13_speedup_breakdown(&ctx()).unwrap();
    for net in ["ResNet18", "MobileNetV2", "CNN-LSTM", "Bert-Base"] {
        let total = rows
            .iter()
            .find(|r| r.network == net && r.step == "DF+SM+BF")
            .unwrap()
            .speedup_vs_dense;
        // The paper's cumulative gains range from ~1.4x (CNN-LSTM/BERT before
        // BF) up to ~4x (MobileNetV2); accept the same order of magnitude.
        assert!(
            (1.1..20.0).contains(&total),
            "{net}: total speedup {total:.2} out of expected range"
        );
    }
}

#[test]
fn fig14_17_bitwave_leads_and_gap_is_largest_on_low_sparsity_networks() {
    let rows = fig14_15_17_sota_comparison(&ctx()).unwrap();
    let bitwave_speedup = |net: &str| {
        rows.iter()
            .find(|r| r.network == net && r.accelerator == "BitWave+DF+SM+BF")
            .unwrap()
            .speedup_vs_scnn
    };
    // The paper's headline: the gap over SCNN is largest for CNN-LSTM and
    // BERT (10.1x / 13.25x) because they have almost no value sparsity.
    assert!(bitwave_speedup("Bert-Base") > bitwave_speedup("ResNet18"));
    assert!(bitwave_speedup("CNN-LSTM") > bitwave_speedup("MobileNetV2"));
    assert!(bitwave_speedup("Bert-Base") > 2.0);
    // Energy: every baseline spends at least as much as BitWave (Fig. 15).
    assert!(rows.iter().all(|r| r.energy_vs_bitwave >= 1.0 - 1e-9));
}

#[test]
fn static_tables_match_published_constants() {
    assert_eq!(fig12_workload_summary().len(), 4);
    assert_eq!(table01_su_bandwidth().len(), 7);
    let sota = table03_sota_comparison();
    let bitwave = sota.iter().find(|r| r.design == "BitWave").unwrap();
    assert_eq!(bitwave.technology_nm, 16.0);
    assert!((bitwave.area_mm2.unwrap() - 1.138).abs() < 1e-9);
    assert!((bitwave.power_mw.unwrap() - 17.56).abs() < 1e-9);
    let pe = table04_pe_cost();
    assert!(pe[2].power_mw < pe[0].power_mw);
    let breakdown = fig18_area_power_breakdown();
    let area_sum: f64 = breakdown.iter().map(|r| r.area_fraction).sum();
    assert!((area_sum - 1.0).abs() < 0.02);
}
