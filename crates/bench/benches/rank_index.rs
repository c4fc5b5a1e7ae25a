//! Criterion micro-benchmarks: the merged prefix-rank query index.
//!
//! Measures the two sides of the index trade-off separately — the
//! one-off `O(S log S)` build and the `O(log S)` per-query estimate —
//! against the `O(k log s)` per-node scan, so regressions in either
//! stage are visible locally. The identity self-check at the top keeps
//! the bench honest: both paths must produce the same bits.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use prc_core::estimator::{RangeCountEstimator, RankCounting, RankIndex};
use prc_core::query::RangeQuery;
use prc_net::base_station::BaseStation;
use prc_net::network::FlatNetwork;

const PER_NODE: usize = 128;
const PROBABILITY: f64 = 0.25;

fn station(k: usize) -> BaseStation {
    let partitions: Vec<Vec<f64>> = (0..k)
        .map(|i| (0..PER_NODE).map(|j| (i * PER_NODE + j) as f64).collect())
        .collect();
    let mut network = FlatNetwork::from_partitions(partitions, 2014);
    network.collect_samples(PROBABILITY);
    network.station().clone()
}

fn queries(k: usize) -> Vec<RangeQuery> {
    let n = (k * PER_NODE) as f64;
    (0..32)
        .map(|i| {
            let lower = n * (i as f64) / 64.0;
            RangeQuery::new(lower, lower + n / 4.0).unwrap()
        })
        .collect()
}

fn assert_identity(station: &BaseStation, index: &RankIndex, queries: &[RangeQuery]) {
    for &query in queries {
        let indexed = index.estimate(query);
        let scanned = RankCounting.estimate(station, query);
        assert_eq!(
            indexed.to_bits(),
            scanned.to_bits(),
            "index diverged from scan on {query:?}: {indexed} vs {scanned}"
        );
    }
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("rank_index_build");
    group.sample_size(10);
    for &k in &[64usize, 1_024] {
        let station = station(k);
        group.bench_with_input(BenchmarkId::new("build", k), &k, |b, _| {
            b.iter(|| black_box(RankIndex::build(black_box(&station)).unwrap()));
        });
    }
    group.finish();
}

fn bench_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("rank_index_query");
    group.sample_size(20);
    for &k in &[64usize, 1_024] {
        let station = station(k);
        let index = RankIndex::build(&station).unwrap();
        let workload = queries(k);
        assert_identity(&station, &index, &workload);
        group.bench_with_input(BenchmarkId::new("indexed", k), &k, |b, _| {
            b.iter(|| {
                let mut acc = 0.0;
                for &query in &workload {
                    acc += index.estimate(black_box(query));
                }
                black_box(acc)
            });
        });
        group.bench_with_input(BenchmarkId::new("scan", k), &k, |b, _| {
            b.iter(|| {
                let mut acc = 0.0;
                for &query in &workload {
                    acc += RankCounting.estimate(black_box(&station), black_box(query));
                }
                black_box(acc)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_build, bench_query);
criterion_main!(benches);
