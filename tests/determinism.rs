//! Cross-driver determinism: `FlatNetwork` and `TreeNetwork` run the
//! same collection round, so for the same seed and partitions they must
//! produce **byte-identical** sample sets — same nodes, same entry
//! order, same `f64` bit patterns, same ranks — whatever the tree's
//! shape; only the per-hop costs differ. The broker's batched pipeline
//! inherits that guarantee: identical seeds release identical answers on
//! either driver.

use prc::prelude::*;

fn partitions(nodes: usize, per_node: usize) -> Vec<Vec<f64>> {
    (0..nodes)
        .map(|i| {
            (0..per_node)
                .map(|j| ((i + nodes * j) as f64) * 0.5 - 3.0)
                .collect()
        })
        .collect()
}

/// Serializes the station's full sample state into a canonical byte
/// string: node id, population, cumulative probability bits, then every
/// entry's value bits and rank, in station iteration order.
fn sample_bytes<N: Network>(network: &N) -> Vec<u8> {
    let mut bytes = Vec::new();
    for node in network.station().node_samples() {
        for entry in node.entries() {
            bytes.extend_from_slice(&entry.value.to_bits().to_le_bytes());
            bytes.extend_from_slice(&entry.rank.to_le_bytes());
        }
    }
    bytes
}

/// Drives any `Network` through the same escalating collection schedule.
fn drive<N: Network>(network: &mut N, targets: &[f64]) -> usize {
    targets.iter().map(|&t| network.collect_samples(t)).sum()
}

#[test]
fn flat_and_tree_sample_sets_are_byte_identical() {
    let schedule = [0.1, 0.25, 0.25, 0.6, 0.95];
    for seed in [0u64, 1, 42, 0xdead_beef] {
        for (nodes, per_node) in [(1, 500), (4, 250), (9, 111)] {
            let parts = partitions(nodes, per_node);

            let mut flat = FlatNetwork::from_partitions(parts.clone(), seed);
            let flat_delivered = drive(&mut flat, &schedule);

            let mut tree = TreeNetwork::from_partitions(parts, 2, seed);
            let tree_delivered = drive(&mut tree, &schedule);

            assert_eq!(
                flat_delivered, tree_delivered,
                "delivery counts diverged (seed {seed}, {nodes} nodes)"
            );
            assert_eq!(
                sample_bytes(&flat),
                sample_bytes(&tree),
                "sample bytes diverged (seed {seed}, {nodes} nodes)"
            );
            assert_eq!(
                flat.station(),
                tree.station(),
                "station state diverged (seed {seed}, {nodes} nodes)"
            );
        }
    }
}

#[test]
fn different_seeds_produce_different_sample_sets() {
    let parts = partitions(4, 250);
    let mut a = FlatNetwork::from_partitions(parts.clone(), 7);
    let mut b = FlatNetwork::from_partitions(parts, 8);
    drive(&mut a, &[0.5]);
    drive(&mut b, &[0.5]);
    assert_ne!(
        sample_bytes(&a),
        sample_bytes(&b),
        "distinct seeds should not collide on full sample state"
    );
}

#[test]
fn batched_broker_releases_identical_answers_on_either_driver() {
    let parts = partitions(6, 200);
    let requests: Vec<QueryRequest> = [(10.0, 300.0, 0.1, 0.6), (50.0, 400.0, 0.15, 0.7)]
        .iter()
        .map(|&(lo, hi, a, d)| {
            QueryRequest::new(
                RangeQuery::new(lo, hi).unwrap(),
                Accuracy::new(a, d).unwrap(),
            )
        })
        .collect();

    let mut flat = DataBroker::new(FlatNetwork::from_partitions(parts.clone(), 99), 99);
    let mut tree = DataBroker::new(TreeNetwork::from_partitions(parts, 2, 99), 99);
    let flat_report = flat.answer_batch(&requests);
    let tree_report = tree.answer_batch(&requests);

    for (f, t) in flat_report.answers.iter().zip(&tree_report.answers) {
        let (f, t) = (f.as_ref().unwrap(), t.as_ref().unwrap());
        assert_eq!(f.value.to_bits(), t.value.to_bits());
        assert_eq!(f.plan, t.plan);
    }
}
