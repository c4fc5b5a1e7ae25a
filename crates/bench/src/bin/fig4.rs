//! Fig. 4 reproduction: required sampling probability vs data size.
//!
//! The paper fixes α = 0.055 and δ = 0.5 and grows the dataset from 10%
//! to 100% of the original 17,568 records, plotting the sampling
//! probability Theorem 3.3 requires. Because `p ∝ 1/n`, the probability
//! decays and converges — the algorithm gets *cheaper per record* as the
//! data grows. The expected number of samples shipped (`n·p`) stays
//! constant, which is the paper's "suitable for big data" argument.
//!
//! Run with `cargo run -p prc-bench --release --bin fig4`.

use prc_bench::{build_network, print_table, standard_dataset, NODES, SEED};
use prc_core::accuracy::{expected_sample_count, required_probability_clamped};
use prc_core::query::Accuracy;
use prc_data::record::AirQualityIndex;
use prc_net::network::Network;

fn main() {
    let dataset = standard_dataset();
    let accuracy = Accuracy::new(0.055, 0.5).expect("paper parameters");

    let mut rows = Vec::new();
    for percent in (10..=100).step_by(10) {
        let size = dataset.len() * percent / 100;
        let slice = dataset.prefix(size);
        let p = required_probability_clamped(accuracy, NODES, size).expect("valid shape");

        // Measure the actual communication produced at that probability.
        let mut network = build_network(&slice, AirQualityIndex::Ozone, SEED + percent as u64);
        network.collect_samples(p);
        let cost = network.meter().snapshot();

        rows.push(vec![
            format!("{percent}%"),
            format!("{size}"),
            format!("{p:.5}"),
            format!("{:.1}", expected_sample_count(size, p)),
            format!("{}", cost.samples),
        ]);
    }
    let headers = [
        "data size",
        "records",
        "required p",
        "expected samples n*p",
        "measured samples",
    ];
    print_table(
        "Fig. 4 — sampling probability vs data size (α=0.055, δ=0.5, k=50)",
        &headers,
        &rows,
    );
    if let Ok(path) = prc_bench::export_csv("fig4", &headers, &rows) {
        println!("csv: {}", path.display());
    }
    println!("\npaper shape: p decays ∝ 1/n and converges; sample volume stays flat");
}
