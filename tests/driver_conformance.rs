//! The `Network` conformance kit, instantiated for every driver in the
//! workspace.
//!
//! `prc_net::conformance::check_driver` runs the full executable
//! contract (DESIGN.md §12) against one driver: seed determinism,
//! monotone top-up, cost-meter invariants, failure-plan semantics, and
//! tracer accounting. `assert_drivers_agree` then pins the cross-driver
//! half: flat and tree must produce **byte-identical** base
//! station state for identical seeds — including under one shared
//! `FailurePlan`.

use prc::net::conformance::{
    assert_drivers_agree, canonical_failure_plan, canonical_partitions, check_driver,
    station_fingerprint, ConformanceReport, CANONICAL_SEED,
};
use prc::prelude::*;

fn flat_report() -> ConformanceReport {
    check_driver("flat", |parts, seed| {
        FlatNetwork::from_partitions(parts, seed)
    })
}

fn tree_report() -> ConformanceReport {
    check_driver("tree", |parts, seed| {
        TreeNetwork::from_partitions(parts, 2, seed)
    })
}

#[test]
fn flat_network_passes_the_contract() {
    let report = flat_report();
    assert!(report.clean_station.total_samples() > 0);
}

#[test]
fn tree_network_passes_the_contract() {
    let report = tree_report();
    assert!(report.clean_station.total_samples() > 0);
}

#[test]
fn all_drivers_agree_byte_for_byte() {
    assert_drivers_agree(&[flat_report(), tree_report()]);
}

#[test]
fn tree_costs_exceed_flat_for_the_same_state() {
    // Same samples, same bytes-on-the-wire per link — but the tree pays
    // per hop, so its totals must strictly dominate.
    let flat = flat_report();
    let tree = tree_report();
    assert_eq!(
        station_fingerprint(&flat.clean_station),
        station_fingerprint(&tree.clean_station)
    );
    assert!(tree.clean_cost.messages > flat.clean_cost.messages);
    assert!(tree.clean_cost.bytes > flat.clean_cost.bytes);
}

#[test]
fn shared_failure_plan_is_driver_independent() {
    // The same plan seed driven through both topologies must kill the
    // same nodes and lose the same batches.
    let mut flat = FlatNetwork::from_partitions(canonical_partitions(), CANONICAL_SEED);
    let mut tree = TreeNetwork::from_partitions(canonical_partitions(), 2, CANONICAL_SEED);
    flat.set_failure_plan(canonical_failure_plan());
    tree.set_failure_plan(canonical_failure_plan());
    for target in [0.3, 0.7] {
        let a = flat.collect_samples(target);
        let c = tree.collect_samples(target);
        assert_eq!(a, c, "flat and tree deliveries diverged at {target}");
    }
    assert_eq!(
        station_fingerprint(flat.station()),
        station_fingerprint(tree.station())
    );
    assert_eq!(
        flat.meter().snapshot().lost_messages,
        tree.meter().snapshot().lost_messages,
        "per-node loss streams must make every driver lose the same batches"
    );
}
