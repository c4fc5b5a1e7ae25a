//! Ablation A4: sampling (RankCounting) vs deterministic sketching
//! (q-digest / Greenwald–Khanna) for distributed range counting.
//!
//! Two very different bargains with the same goal:
//!
//! * sampling ships `n·p` random elements once and answers with a
//!   *probabilistic* guarantee (variance `8k/p²`);
//! * sketches ship a fixed-size summary per node and answer with a
//!   *certified* interval (deterministic error).
//!
//! This ablation matches them on communication (bytes on the wire) and
//! compares the error actually delivered on the standard workload.
//!
//! Run with `cargo run -p prc-bench --release --bin ablation_sketch`.

use prc_bench::{build_network, print_table, standard_dataset, standard_workload, NODES, SEED};
use prc_core::estimator::{RangeCountEstimator, RankCounting};
use prc_core::exact::range_count;
use prc_data::partition::{partition_values, PartitionStrategy};
use prc_data::record::AirQualityIndex;
use prc_net::network::Network;
use prc_sketch::distributed::{digest_partitions, gk_partitions, Quantizer, SketchStation};

fn main() {
    let dataset = standard_dataset();
    let index = AirQualityIndex::Ozone;
    let values = dataset.values(index);
    let workload = standard_workload(&values);
    let parts = partition_values(&values, NODES, PartitionStrategy::RoundRobin);
    let quantizer = Quantizer::new(0.0, 200.0, 12);

    let mut rows = Vec::new();

    // --- Sampling at several probabilities --------------------------------
    for &p in &[0.02, 0.05, 0.15, 0.4] {
        let mut network = build_network(&dataset, index, SEED + (p * 1e4) as u64);
        network.collect_samples(p);
        let bytes = network.meter().snapshot().bytes;
        let max_err = workload
            .iter()
            .map(|&q| {
                let truth = range_count(&values, q) as f64;
                let est = RankCounting.estimate(network.station(), q);
                (est - truth).abs() / truth.max(1.0)
            })
            .fold(0.0, f64::max);
        rows.push(vec![
            format!("sampling p={p}"),
            format!("{bytes}"),
            format!("{:.2}%", max_err * 100.0),
            "probabilistic (Chebyshev)".into(),
        ]);
    }

    // --- q-digest at several compressions ----------------------------------
    for &k in &[8u64, 32, 128, 512] {
        let mut station = SketchStation::new();
        for sketch in digest_partitions(&parts, &quantizer, k) {
            station.ingest(sketch);
        }
        let (max_err, max_certified) = sketch_errors(&station, &quantizer, &values, &workload);
        rows.push(vec![
            format!("q-digest k={k}"),
            format!("{}", station.bytes_received()),
            format!("{:.2}%", max_err * 100.0),
            format!("certified ±{:.2}%", max_certified * 100.0),
        ]);
    }

    // --- GK summaries at several epsilons ----------------------------------
    for &eps in &[0.05f64, 0.01, 0.002] {
        let mut station = SketchStation::new();
        for sketch in gk_partitions(&parts, eps) {
            station.ingest(sketch);
        }
        let (max_err, max_certified) = sketch_errors(&station, &quantizer, &values, &workload);
        rows.push(vec![
            format!("GK ε={eps}"),
            format!("{}", station.bytes_received()),
            format!("{:.2}%", max_err * 100.0),
            format!("certified ±{:.2}%", max_certified * 100.0),
        ]);
    }

    print_table(
        "Ablation A4 — sampling vs sketching (ozone, k=50 nodes, standard workload)",
        &["method", "bytes shipped", "max rel err", "guarantee"],
        &rows,
    );
    println!("\nexpected: sketches deliver certified (worst-case) bounds; sampling reaches similar\naccuracy with fewer bytes at moderate p but only in probability. Sampling additionally\nfeeds the DP perturbation stage with a known sensitivity (Δγ̂ = 1/p), which is why the\npaper builds on it.");
}

/// Max relative error of the midpoint estimate, and max certified
/// half-width, over the workload.
fn sketch_errors(
    station: &SketchStation,
    quantizer: &Quantizer,
    values: &[f64],
    workload: &[prc_core::query::RangeQuery],
) -> (f64, f64) {
    let mut max_err = 0.0f64;
    let mut max_certified = 0.0f64;
    for &q in workload {
        let a = quantizer.quantize(q.lower());
        let b = quantizer.quantize(q.upper());
        // Grid-aligned truth: count of values whose code falls in [a, b].
        let truth = values
            .iter()
            .filter(|&&v| {
                let code = quantizer.quantize(v);
                code >= a && code <= b
            })
            .count() as f64;
        let bounds = station.range_count_bounds(quantizer, a, b);
        max_err = max_err.max((bounds.estimate() - truth).abs() / truth.max(1.0));
        max_certified = max_certified.max(bounds.half_width() / truth.max(1.0));
    }
    (max_err, max_certified)
}
