//! Ablation A1: RankCounting vs BasicCounting across range widths.
//!
//! §III-A's design argument: BasicCounting's variance grows with the true
//! count of the queried range (up to `|D|(1−p)/p`) while RankCounting's
//! is bounded by `8k/p²` regardless. The crossover predicted by theory
//! sits where `γ·(1−p)/p = 8k/p²`, i.e. `γ* = 8k/(p(1−p))` — BasicCounting
//! wins on very narrow ranges, RankCounting on everything wider.
//!
//! Run with `cargo run -p prc-bench --release --bin ablation_estimators`.

use prc_bench::{build_network, print_table, standard_dataset, NODES, SEED};
use prc_core::estimator::{BasicCounting, RangeCountEstimator, RankCounting};
use prc_core::exact::range_count;
use prc_core::query::RangeQuery;
use prc_data::record::AirQualityIndex;
use prc_data::stats;
use prc_net::network::Network;

fn main() {
    let dataset = standard_dataset();
    let index = AirQualityIndex::Ozone;
    let values = dataset.values(index);
    let p = 0.05;
    let trials = 60;

    // Ranges centred on the median with increasing quantile width.
    let widths = [0.002, 0.01, 0.05, 0.15, 0.3, 0.5, 0.7, 0.9];
    let mut rows = Vec::new();
    for &w in &widths {
        let l = stats::quantile(&values, 0.5 - w / 2.0).expect("non-empty");
        let u = stats::quantile(&values, 0.5 + w / 2.0).expect("non-empty");
        let query = RangeQuery::new(l, u).expect("ordered quantiles");
        let truth = range_count(&values, query) as f64;

        let mse = |estimator: &dyn Fn(&prc_net::network::FlatNetwork) -> f64| {
            let mut sum_sq = 0.0;
            for t in 0..trials {
                let mut network = build_network(&dataset, index, SEED + 997 * t as u64);
                network.collect_samples(p);
                let e = estimator(&network);
                sum_sq += (e - truth).powi(2);
            }
            sum_sq / trials as f64
        };
        let rank_mse = mse(&|net| RankCounting.estimate(net.station(), query));
        let basic_mse = mse(&|net| BasicCounting.estimate(net.station(), query));

        rows.push(vec![
            format!("{:.1}%", w * 100.0),
            format!("{truth:.0}"),
            format!("{:.0}", rank_mse),
            format!("{:.0}", basic_mse),
            format!("{:.2}x", basic_mse / rank_mse.max(1e-9)),
            format!("{:.0}", RankCounting.variance_bound(NODES, values.len(), p)),
            format!("{:.0}", truth * (1.0 - p) / p),
        ]);
    }
    print_table(
        "Ablation A1 — estimator MSE vs range width (p=0.05, k=50, ozone, 60 trials)",
        &[
            "width",
            "truth γ",
            "Rank MSE",
            "Basic MSE",
            "Basic/Rank",
            "Rank bound 8k/p²",
            "Basic theory γ(1−p)/p",
        ],
        &rows,
    );
    let crossover = 8.0 * NODES as f64 / (p * (1.0 - p));
    println!(
        "\ntheory crossover: BasicCounting wins only when γ < 8k/(p(1−p)) ≈ {crossover:.0} records"
    );
}
