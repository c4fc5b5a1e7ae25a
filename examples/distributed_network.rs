//! Network-level behaviour: tree topology and failure injection. Shows
//! (a) the tree model's hop-multiplied communication cost, (b) the
//! TAG-style exact-aggregation baseline the paper's
//! one-sample/many-queries design avoids, (c) a dead relay silencing its
//! subtree, and (d) estimator degradation under node dropout and message
//! loss.
//!
//! ```text
//! cargo run --release --example distributed_network
//! ```

// Demo binaries may die loudly; library code is held to prc-lint's P rules instead.
#![allow(clippy::unwrap_used)]

use prc::core::estimator::{RangeCountEstimator, RankCounting};
use prc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = CityPulseGenerator::new(11).generate();
    let values = dataset.values(AirQualityIndex::CarbonMonoxide);
    let partitions =
        prc::data::partition::partition_values(&values, 50, PartitionStrategy::RoundRobin);
    let query = RangeQuery::new(40.0, 80.0)?;
    let truth: usize = partitions
        .iter()
        .map(|p| p.iter().filter(|&&v| (40.0..=80.0).contains(&v)).count())
        .sum();
    println!(
        "true count of CO in [40, 80]: {truth} of {} records\n",
        values.len()
    );

    // --- Flat vs tree: same samples, different communication cost -----
    let p = 0.2;
    let mut flat = FlatNetwork::from_partitions(partitions.clone(), 3);
    flat.collect_samples(p);
    let mut tree = TreeNetwork::from_partitions(partitions.clone(), 3, 3);
    tree.collect_samples(p);

    let flat_cost = flat.meter().snapshot();
    let tree_cost = tree.meter().snapshot();
    println!("one sampling round at p = {p}:");
    println!(
        "  flat  model: {:>6} messages {:>9} bytes",
        flat_cost.messages, flat_cost.bytes
    );
    println!(
        "  tree  model: {:>6} messages {:>9} bytes (depth {} — hop-multiplied)",
        tree_cost.messages,
        tree_cost.bytes,
        tree.max_depth()
    );
    let est_flat = RankCounting.estimate(flat.station(), query);
    let est_tree = RankCounting.estimate(tree.station(), query);
    println!("  identical sample state => identical estimates: {est_flat:.1} vs {est_tree:.1}");

    // --- One-sample/many-queries vs per-query exact aggregation -------
    let queries = 200;
    let (_, msg_per_query, bytes_per_query) = tree.aggregate_exact_count(40.0, 80.0);
    println!("\nanswering {queries} queries:");
    println!(
        "  exact TAG aggregation: {} messages, {} bytes ({} per query, every query)",
        msg_per_query * queries,
        bytes_per_query * queries,
        msg_per_query
    );
    println!(
        "  sampled (one-time):    {} messages, {} bytes — then every query is free",
        tree_cost.messages, tree_cost.bytes
    );

    // --- A dead relay silences its whole subtree -----------------------
    let mut cut = TreeNetwork::from_partitions(partitions.clone(), 3, 3);
    let mut plan = FailurePlan::none();
    plan.kill_node(prc::net::message::NodeId(1));
    cut.set_failure_plan(plan);
    cut.collect_samples(p);
    println!(
        "\ndead relay (tree node 1): {} of {} nodes heard; a flat network would hear {}",
        cut.station().node_count(),
        cut.node_count(),
        cut.node_count() - 1
    );

    // --- Failure injection ---------------------------------------------
    println!("\nfailure injection at p = {p}:");
    for (label, dropout, loss, mode) in [
        ("healthy", 0.0, 0.0, LossMode::Retransmit),
        ("10% nodes dead", 0.10, 0.0, LossMode::Retransmit),
        ("30% msg loss + retransmit", 0.0, 0.30, LossMode::Retransmit),
        ("30% msg loss, no retries", 0.0, 0.30, LossMode::Drop),
    ] {
        let mut net = FlatNetwork::from_partitions(partitions.clone(), 5);
        net.set_failure_plan(FailurePlan::new(dropout, loss, mode, 17));
        net.collect_samples(p);
        let est = RankCounting.estimate(net.station(), query);
        let cost = net.meter().snapshot();
        println!(
            "  {label:<28} estimate {est:>8.1} (err {:>5.1}%)  {:>5} msgs  {:>4} lost  {:>2} nodes heard",
            (est - truth as f64).abs() / truth as f64 * 100.0,
            cost.messages,
            cost.lost_messages,
            net.station().node_count()
        );
    }
    println!(
        "\nnote: dead nodes remove their whole population from the estimate (bias ∝ dropout);"
    );
    println!("retransmission preserves accuracy at extra message cost; unacknowledged loss breaks");
    println!("the estimator's sampling assumption — the station believes probability p but holds");
    println!("fewer (or no) samples for the affected nodes, so their estimates degrade toward the");
    println!("whole-population fallback and the count drifts.");
    Ok(())
}
