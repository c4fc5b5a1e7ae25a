//! Criterion micro-benchmarks: estimator throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use prc_bench::{build_network, standard_workload};
use prc_core::estimator::{BasicCounting, RangeCountEstimator, RankCounting};
use prc_data::generator::CityPulseGenerator;
use prc_data::record::AirQualityIndex;
use prc_net::network::Network;

fn bench_estimators(c: &mut Criterion) {
    let dataset = CityPulseGenerator::new(7).generate();
    let values = dataset.values(AirQualityIndex::Ozone);
    let workload = standard_workload(&values);
    let query = workload[2];

    let mut group = c.benchmark_group("estimate_global");
    group.sample_size(20);
    for &p in &[0.05, 0.2, 0.5] {
        let mut network = build_network(&dataset, AirQualityIndex::Ozone, 7);
        network.collect_samples(p);
        let station = network.station().clone();
        group.bench_with_input(BenchmarkId::new("RankCounting", p), &p, |b, _| {
            b.iter(|| black_box(RankCounting.estimate(&station, black_box(query))));
        });
        group.bench_with_input(BenchmarkId::new("BasicCounting", p), &p, |b, _| {
            b.iter(|| black_box(BasicCounting.estimate(&station, black_box(query))));
        });
    }
    group.finish();
}

fn bench_sampling(c: &mut Criterion) {
    let dataset = CityPulseGenerator::new(7).generate();
    let mut group = c.benchmark_group("collect_samples");
    group.sample_size(10);
    for &p in &[0.05, 0.4] {
        group.bench_with_input(BenchmarkId::new("flat_k50", p), &p, |b, &p| {
            b.iter(|| {
                let mut network = build_network(&dataset, AirQualityIndex::Ozone, 7);
                black_box(network.collect_samples(p))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_estimators, bench_sampling);
criterion_main!(benches);
