//! Property sweep over the fault matrix: dropout probability × message
//! loss rate × `LossMode` × driver.
//!
//! At every point of the matrix the estimator must degrade *gracefully*
//! (estimates stay finite and bounded, and the bias direction matches
//! the documented semantics: dead nodes remove exactly their population,
//! Drop-mode loss under-samples but never hides population, Retransmit
//! never changes data) and the cost-meter invariants of DESIGN.md §12
//! must hold. Because every failure decision is keyed by `(plan seed,
//! NodeId)`, the tree driver's delivered set must be a subset of the
//! flat driver's with per-node identical sample state at every matrix
//! point.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use prc::core::estimator::{RangeCountEstimator, RankCounting};
use prc::net::conformance::station_fingerprint;
use prc::prelude::*;

const NODES: usize = 12;
const PER_NODE: usize = 150;
const SCHEDULE: [f64; 2] = [0.3, 0.6];

fn partitions() -> Vec<Vec<f64>> {
    (0..NODES)
        .map(|i| (0..PER_NODE).map(|j| (i * PER_NODE + j) as f64).collect())
        .collect()
}

/// The §12 cost-meter invariants, checkable after any round.
fn check_cost_invariants<N: Network>(driver: &str, network: &N) -> Result<(), TestCaseError> {
    let snap = network.meter().snapshot();
    prop_assert_eq!(
        snap.samples,
        network.station().total_samples() as u64,
        "{}: metered samples vs station holdings",
        driver
    );
    prop_assert!(
        snap.free_messages <= snap.messages,
        "{}: free messages exceed total",
        driver
    );
    let attributed: u64 = network.meter().per_node_bytes().values().sum();
    prop_assert_eq!(
        attributed,
        snap.bytes,
        "{}: per-node bytes must sum to the total",
        driver
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fault_matrix_degrades_gracefully(
        seed in 0u64..400,
        plan_seed in 0u64..400,
        dropout in 0.0f64..0.5,
        loss in 0.0f64..0.6,
        use_drop_mode in any::<bool>(),
    ) {
        let mode = if use_drop_mode { LossMode::Drop } else { LossMode::Retransmit };
        let plan = || FailurePlan::new(dropout, loss, mode, plan_seed);
        // Same plan seed with zero loss: per-node keying guarantees the
        // identical dead set, isolating the effect of message loss.
        let baseline_plan = || FailurePlan::new(dropout, 0.0, LossMode::Retransmit, plan_seed);

        let mut flat = FlatNetwork::from_partitions(partitions(), seed);
        flat.set_failure_plan(plan());
        let mut tree = TreeNetwork::from_partitions(partitions(), 2, seed);
        tree.set_failure_plan(plan());
        let mut baseline = FlatNetwork::from_partitions(partitions(), seed);
        baseline.set_failure_plan(baseline_plan());

        for &target in &SCHEDULE {
            flat.collect_samples(target);
            tree.collect_samples(target);
            baseline.collect_samples(target);
            check_cost_invariants("flat", &flat)?;
            check_cost_invariants("tree", &tree)?;
        }

        // The tree's delivered set is a subset of the flat driver's
        // (a dead ancestor can only remove reporters), and every node it
        // did hear from holds identical state.
        for node in tree.station().node_samples() {
            let flat_node = flat.station().node_sample(node.node_id);
            prop_assert!(
                flat_node.is_some_and(|f| f == node),
                "tree node {:?} state diverged from flat",
                node.node_id
            );
        }

        // Estimates stay finite and bounded on every driver. A per-node
        // estimate never exceeds n_i and never falls below 2 - 2/p, so
        // the global estimate is bounded by the population and -2k/p.
        let query = RangeQuery::new(
            (NODES * PER_NODE) as f64 * 0.25,
            (NODES * PER_NODE) as f64 * 0.75,
        ).unwrap();
        let n = (NODES * PER_NODE) as f64;
        let lower_bound = -2.0 * NODES as f64 / SCHEDULE[1] - 1e-9;
        for (driver, station) in [
            ("flat", flat.station()),
            ("tree", tree.station()),
        ] {
            let estimate = RankCounting.estimate(station, query);
            prop_assert!(estimate.is_finite(), "{}: estimate not finite", driver);
            prop_assert!(
                estimate <= n + 1e-9 && estimate >= lower_bound,
                "{}: estimate {} outside [{}, {}]",
                driver, estimate, lower_bound, n
            );
        }

        // Bias direction, dropout axis: dead nodes remove exactly their
        // population, so the full-support estimate equals the surviving
        // population — biased low in proportion to dropout, regardless
        // of message loss (Drop-mode loss never hides population).
        let full = RangeQuery::new(-1.0, n + 1.0).unwrap();
        let full_estimate = RankCounting.estimate(flat.station(), full);
        let surviving = flat.station().total_population() as f64;
        prop_assert!(
            (full_estimate - surviving).abs() < 1e-6,
            "full-support estimate {} must equal surviving population {}",
            full_estimate, surviving
        );

        // Bias direction, loss axis — against the same-dead-set baseline.
        prop_assert_eq!(
            flat.station().node_count(),
            baseline.station().node_count(),
            "loss must never change which nodes register"
        );
        prop_assert_eq!(
            flat.station().total_population(),
            baseline.station().total_population()
        );
        match mode {
            LossMode::Retransmit => {
                // Retransmission never changes data, only cost.
                prop_assert_eq!(
                    station_fingerprint(flat.station()),
                    station_fingerprint(baseline.station()),
                    "retransmit changed data at dropout={} loss={}",
                    dropout, loss
                );
                prop_assert_eq!(flat.meter().snapshot().lost_messages, 0);
                prop_assert!(
                    flat.meter().snapshot().messages >= baseline.meter().snapshot().messages
                );
            }
            LossMode::Drop => {
                // Unacknowledged loss under-samples the station.
                prop_assert!(
                    flat.station().total_samples() <= baseline.station().total_samples(),
                    "drop-mode loss must never add samples"
                );
            }
        }
    }
}
