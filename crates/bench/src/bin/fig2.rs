//! Fig. 2 reproduction: querying accuracy vs sampling probability `p`.
//!
//! The paper sweeps `p` from 0.0173 to 0.4048 and reports the maximum
//! relative error of the sampling algorithm: ~27% at the low end, noisy
//! below p ≈ 0.12, and stable small error (≈3% or less) once ≥ 15% of the
//! data is sampled.
//!
//! Run with `cargo run -p prc-bench --release --bin fig2`.

use prc_bench::{
    build_network, geometric_grid, max_relative_error, print_table, standard_dataset,
    standard_workload, ErrorScale, SEED,
};
use prc_core::estimator::RankCounting;
use prc_data::record::AirQualityIndex;
use prc_net::network::Network;

fn main() {
    let dataset = standard_dataset();
    let index = AirQualityIndex::Ozone;
    let values = dataset.values(index);
    let workload = standard_workload(&values);

    let grid = geometric_grid(0.0173, 0.4048, 16);
    let mut rows = Vec::new();
    for (i, &p) in grid.iter().enumerate() {
        // A fresh network per point: the paper redraws the sample at each
        // probability rather than topping up one sample set.
        let mut network = build_network(&dataset, index, SEED + i as u64);
        network.collect_samples(p);
        let err = max_relative_error(
            &RankCounting,
            &network,
            &values,
            &workload,
            ErrorScale::RelativeToTruth,
        );
        let cost = network.meter().snapshot();
        rows.push(vec![
            format!("{p:.4}"),
            format!("{:.2}", err * 100.0),
            format!("{}", cost.samples),
            format!("{}", cost.bytes),
        ]);
    }
    let headers = ["p", "max rel err %", "samples", "bytes"];
    print_table(
        "Fig. 2 — max relative error vs sampling probability (RankCounting, ozone, k=50)",
        &headers,
        &rows,
    );
    if let Ok(path) = prc_bench::export_csv("fig2", &headers, &rows) {
        println!("csv: {}", path.display());
    }
    println!(
        "\npaper shape: error ~27% at p≈0.017, noisy below p≈0.12, ≲3% and stable for p ≥ 0.15"
    );
}
