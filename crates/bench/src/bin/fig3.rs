//! Fig. 3 reproduction: querying accuracy vs the accuracy demand (α, δ).
//!
//! The paper sweeps α = δ from 0.08 to 0.8, sampling at the Theorem 3.3
//! probability for each point, and reports the maximum relative error:
//! erratic for δ < 0.3, stable and small for δ > 0.3.
//!
//! The natural unit for a sweep where α itself changes is the
//! Definition 2.2 allowance `α·n`; we report `max |err|/(αn)` (theory:
//! the estimator's standard deviation at the Theorem 3.3 probability is
//! exactly `αn·√(1−δ)`, so the curve should decay like `√(1−δ)` once the
//! sample is large enough to be stable), alongside the raw `|err|/n`.
//!
//! Run with `cargo run -p prc-bench --release --bin fig3`.

use prc_bench::{
    build_network, linear_grid, max_relative_error, print_table, standard_dataset,
    standard_workload, ErrorScale, NODES, SEED,
};
use prc_core::accuracy::required_probability_clamped;
use prc_core::estimator::RankCounting;
use prc_core::query::Accuracy;
use prc_data::record::AirQualityIndex;
use prc_net::network::Network;

fn main() {
    let dataset = standard_dataset();
    let index = AirQualityIndex::Ozone;
    let values = dataset.values(index);
    let workload = standard_workload(&values);
    let n = values.len();

    let grid = linear_grid(0.08, 0.8, 16);
    let mut rows = Vec::new();
    for (i, &level) in grid.iter().enumerate() {
        let accuracy = Accuracy::new(level, level).expect("grid stays in (0,1)");
        let p = required_probability_clamped(accuracy, NODES, n).expect("valid shape");
        let mut network = build_network(&dataset, index, SEED + 31 * i as u64);
        network.collect_samples(p);
        let err_allow = max_relative_error(
            &RankCounting,
            &network,
            &values,
            &workload,
            ErrorScale::RelativeToAllowance { alpha: level },
        );
        let err_pop = max_relative_error(
            &RankCounting,
            &network,
            &values,
            &workload,
            ErrorScale::RelativeToPopulation,
        );
        rows.push(vec![
            format!("{level:.2}"),
            format!("{p:.5}"),
            format!("{:.3}", err_allow),
            format!("{:.4}", err_pop),
            format!("{:.3}", (1.0 - level).sqrt()),
        ]);
    }
    let headers = [
        "alpha=delta",
        "p (Thm 3.3)",
        "max err/(alpha n)",
        "max err/n",
        "theory sqrt(1-delta)",
    ];
    print_table(
        "Fig. 3 — max relative error vs accuracy demand α = δ (Thm 3.3 sampling, ozone, k=50)",
        &headers,
        &rows,
    );
    if let Ok(path) = prc_bench::export_csv("fig3", &headers, &rows) {
        println!("csv: {}", path.display());
    }
    println!("\npaper shape: erratic for δ < 0.3, stable and small for δ > 0.3");
}
