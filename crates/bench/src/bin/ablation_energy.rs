//! Ablation A6: the energy–accuracy trade-off (the paper's motivation,
//! refs \[16\]/\[17\]).
//!
//! Sweeps the sampling probability and reports, per collection round:
//! the estimator's error, the total radio energy, the hottest node's
//! drain, and the classic network-lifetime metric (rounds until the
//! first battery dies, 10 J batteries, CC2420-class radio).
//!
//! Run with `cargo run -p prc-bench --release --bin ablation_energy`.

use prc_bench::{
    build_network, geometric_grid, max_relative_error, print_table, standard_dataset,
    standard_workload, ErrorScale, SEED,
};
use prc_core::estimator::RankCounting;
use prc_data::record::AirQualityIndex;
use prc_net::energy::{EnergyModel, EnergyReport};
use prc_net::network::Network;

fn main() {
    let dataset = standard_dataset();
    let index = AirQualityIndex::Ozone;
    let values = dataset.values(index);
    let workload = standard_workload(&values);
    let model = EnergyModel::low_power_radio();
    let battery_nj = 10e9; // 10 J

    let mut rows = Vec::new();
    for (i, &p) in geometric_grid(0.01, 0.6, 10).iter().enumerate() {
        let mut network = build_network(&dataset, index, SEED + 7 * i as u64);
        network.collect_samples(p);
        let err = max_relative_error(
            &RankCounting,
            &network,
            &values,
            &workload,
            ErrorScale::RelativeToTruth,
        );
        let report = EnergyReport::from_meter(network.meter(), &model);
        let (_, hottest) = report.hottest_node().expect("nodes transmitted");
        rows.push(vec![
            format!("{p:.3}"),
            format!("{:.2}%", err * 100.0),
            format!("{:.1}", report.total_nj() / 1e6), // mJ
            format!("{:.1}", hottest / 1e3),           // µJ
            format!("{}", report.lifetime_rounds(battery_nj).unwrap()),
        ]);
    }
    print_table(
        "Ablation A6 — energy vs accuracy per collection round (k=50, CC2420-class radio, 10 J batteries)",
        &["p", "max rel err", "total energy (mJ)", "hottest node (µJ)", "lifetime (rounds)"],
        &rows,
    );
    println!("\nexpected: error falls and energy rises with p — the trade-off the paper's sampling\ndesign navigates; lifetime scales inversely with the hottest node's per-round drain.\nRemember the one-sample/many-queries design pays this cost once per sample, not per query.");
}
