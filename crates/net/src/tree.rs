//! The general tree model (§III-A: *"algorithms on flat models can be
//! easily extended to a general tree model"*).
//!
//! Nodes are arranged in a balanced d-ary aggregation tree rooted at the
//! base station. Two protocols run over it:
//!
//! * **sample forwarding** — each node's sample batch is relayed hop by
//!   hop to the root, so its transmission cost is multiplied by the
//!   node's depth; the base station ends up with exactly the same sample
//!   state as in the flat model. [`TreeNetwork`] is the
//!   [`SensorNetwork`] with the [`Tree`] topology, so it runs the flat
//!   model's collection round (a flat node is a one-hop child of the
//!   base station) and the broker pipeline in `prc-core` runs unchanged
//!   over it — only the cost meter sees the topology;
//! * **in-network exact aggregation** ([`TreeNetwork::aggregate_exact_count`]) —
//!   the TAG-style baseline: each node computes its local exact count and
//!   partial sums merge at interior nodes, costing one fixed-size message
//!   per tree edge. This is the expensive-per-query alternative the
//!   paper's one-sample/many-queries design avoids.

use crate::message::MESSAGE_HEADER_BYTES;
use crate::network::SensorNetwork;

/// Wire size of one partial-sum aggregation message.
pub const AGGREGATE_MESSAGE_BYTES: usize = MESSAGE_HEADER_BYTES + 8;

/// The tree topology: a balanced d-ary aggregation tree whose root
/// reports to the base station.
#[derive(Debug)]
pub enum Tree {}

/// A balanced d-ary aggregation tree of sensor nodes.
///
/// # Examples
///
/// ```
/// use prc_net::tree::TreeNetwork;
/// use prc_net::Network;
///
/// let partitions: Vec<Vec<f64>> = (0..7).map(|i| vec![f64::from(i); 10]).collect();
/// let mut tree = TreeNetwork::from_partitions(partitions, 2, 42);
/// tree.collect_samples(0.5);
/// assert_eq!(tree.max_depth(), 3); // a 7-node binary tree
/// let (count, messages, _bytes) = tree.aggregate_exact_count(2.0, 5.0);
/// assert_eq!(count, 40); // values 2, 3, 4, 5 × 10 records
/// assert_eq!(messages, 7); // one partial sum per node
/// ```
pub type TreeNetwork = SensorNetwork<Tree>;

impl TreeNetwork {
    /// Builds a balanced tree with the given branching factor: node `i`'s
    /// parent is node `(i − 1) / branching` and node `0` reports directly
    /// to the base station.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is empty or `branching == 0`.
    pub fn from_partitions(partitions: Vec<Vec<f64>>, branching: usize, seed: u64) -> Self {
        assert!(branching > 0, "branching factor must be positive");
        SensorNetwork::build(partitions, seed, |i| {
            i.checked_sub(1).map(|j| j / branching)
        })
    }

    /// Hop distance of node `i` from the base station.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn depth(&self, i: usize) -> u32 {
        self.hops[i]
    }

    /// Maximum depth of the tree.
    pub fn max_depth(&self) -> u32 {
        self.hops.iter().copied().max().unwrap_or(0)
    }

    /// TAG-style in-network exact aggregation: every live, connected node
    /// computes its local `γ(l, u, i)`; partial sums merge on the way up,
    /// costing one fixed-size message per live tree edge.
    ///
    /// Returns `(count, messages, bytes)` for this single query.
    pub fn aggregate_exact_count(&mut self, l: f64, u: f64) -> (usize, u64, u64) {
        let reachable = self.reachable();
        let mut count = 0usize;
        let mut messages = 0u64;
        let mut bytes = 0u64;
        for (node, reachable) in self.nodes.iter().zip(reachable) {
            if reachable {
                count += node.exact_range_count(l, u);
                // One partial-sum message on the edge toward the parent.
                messages += 1;
                bytes += AGGREGATE_MESSAGE_BYTES as u64;
            }
        }
        (count, messages, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::{FailurePlan, LossMode};
    use crate::message::NodeId;
    use crate::network::Network;
    use crate::trace::Tracer;

    fn partitions(k: usize, per_node: usize) -> Vec<Vec<f64>> {
        (0..k)
            .map(|i| (0..per_node).map(|j| (i * per_node + j) as f64).collect())
            .collect()
    }

    #[test]
    fn binary_tree_depths() {
        let net = TreeNetwork::from_partitions(partitions(7, 10), 2, 0);
        assert_eq!(
            (0..7).map(|i| net.depth(i)).collect::<Vec<_>>(),
            vec![1, 2, 2, 3, 3, 3, 3]
        );
        assert_eq!(net.max_depth(), 3);
    }

    #[test]
    fn star_topology_with_huge_branching() {
        let net = TreeNetwork::from_partitions(partitions(5, 10), 100, 0);
        // Node 0 is the root child; nodes 1..5 all hang off node 0.
        assert_eq!(net.depth(0), 1);
        for i in 1..5 {
            assert_eq!(net.depth(i), 2);
        }
    }

    #[test]
    fn collection_reaches_station_with_hop_costs() {
        let parts = partitions(7, 200);
        let mut tree = TreeNetwork::from_partitions(parts.clone(), 2, 13);
        let delivered = tree.collect_samples(0.5);
        assert_eq!(tree.station().node_count(), 7);
        assert_eq!(tree.station().total_samples(), delivered);

        // Hop multiplication: the tree must cost strictly more messages
        // than a flat network moving the same batches.
        let mut flat = crate::network::FlatNetwork::from_partitions(parts, 13);
        flat.collect_samples(0.5);
        assert_eq!(
            flat.station(),
            tree.station(),
            "same seed must sample identically"
        );
        assert!(tree.meter().snapshot().messages > flat.meter().snapshot().messages);
        assert!(tree.meter().snapshot().bytes > flat.meter().snapshot().bytes);
    }

    #[test]
    fn dead_ancestor_cuts_off_subtree() {
        let mut tree = TreeNetwork::from_partitions(partitions(7, 50), 2, 1);
        let mut plan = FailurePlan::none();
        plan.kill_node(NodeId(1)); // children 3 and 4 are cut off too
        tree.set_failure_plan(plan);
        tree.collect_samples(0.9);
        // Nodes 1, 3, 4 missing; 0, 2, 5, 6 deliver.
        assert_eq!(tree.station().node_count(), 4);
    }

    #[test]
    fn exact_aggregation_counts_and_costs() {
        let mut tree = TreeNetwork::from_partitions(partitions(5, 100), 2, 1);
        let truth = tree.exact_range_count(100.0, 250.0);
        let (count, messages, bytes) = tree.aggregate_exact_count(100.0, 250.0);
        assert_eq!(count, truth);
        assert_eq!(messages, 5);
        assert_eq!(bytes, 5 * AGGREGATE_MESSAGE_BYTES as u64);
    }

    #[test]
    fn exact_aggregation_under_failure_undercounts() {
        let mut tree = TreeNetwork::from_partitions(partitions(7, 100), 2, 1);
        let truth = tree.exact_range_count(0.0, 1_000.0);
        let mut plan = FailurePlan::none();
        plan.kill_node(NodeId(2)); // cuts off 2, 5, 6
        tree.set_failure_plan(plan);
        let (count, messages, _) = tree.aggregate_exact_count(0.0, 1_000.0);
        assert!(count < truth);
        assert_eq!(messages, 4);
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1]")]
    fn tree_rejects_bad_probability() {
        let mut net = TreeNetwork::from_partitions(partitions(2, 10), 2, 1);
        net.collect_samples(0.0);
    }

    #[test]
    fn tree_matches_flat_under_the_same_failure_plan() {
        // Leaf-only kills keep connectivity equal to liveness, so the
        // tree must agree with the flat topology byte for byte.
        let parts = partitions(7, 200);
        let mk_plan = || {
            let mut plan = FailurePlan::new(0.0, 0.3, LossMode::Drop, 23);
            plan.kill_node(NodeId(5));
            plan.kill_node(NodeId(6));
            plan
        };

        let mut flat = crate::network::FlatNetwork::from_partitions(parts.clone(), 19);
        flat.set_failure_plan(mk_plan());
        let flat_tracer = Tracer::new(128);
        flat.set_tracer(flat_tracer.clone());
        flat.collect_samples(0.4);

        let mut tree = TreeNetwork::from_partitions(parts, 2, 19);
        tree.set_failure_plan(mk_plan());
        let tree_tracer = Tracer::new(128);
        tree.set_tracer(tree_tracer.clone());
        tree.collect_samples(0.4);

        assert_eq!(flat.station(), tree.station());
        assert_eq!(flat_tracer.events(), tree_tracer.events());
    }

    #[test]
    fn drop_mode_still_registers_population() {
        let mut tree = TreeNetwork::from_partitions(partitions(30, 100), 2, 1);
        tree.set_failure_plan(FailurePlan::new(0.0, 0.5, LossMode::Drop, 2));
        tree.collect_samples(0.5);
        let cost = tree.meter().snapshot();
        assert!(cost.lost_messages > 0, "expected losses at 50%");
        assert_eq!(tree.station().node_count(), 30);
        assert_eq!(tree.station().total_population(), 3_000);
        assert_eq!(cost.samples, tree.station().total_samples() as u64);
    }

    #[test]
    fn per_node_bytes_scale_with_depth() {
        // With no failures, every tree node ships the same batch as in
        // the flat model, charged depth-many times.
        let parts = partitions(7, 300);
        let mut flat = crate::network::FlatNetwork::from_partitions(parts.clone(), 13);
        flat.collect_samples(0.5);
        let mut tree = TreeNetwork::from_partitions(parts, 2, 13);
        tree.collect_samples(0.5);

        let flat_bytes = flat.meter().per_node_bytes();
        let tree_bytes = tree.meter().per_node_bytes();
        for (i, (&flat_b, &tree_b)) in flat_bytes.values().zip(tree_bytes.values()).enumerate() {
            assert_eq!(
                tree_b,
                flat_b * u64::from(tree.depth(i)),
                "node {i} must be charged depth-many times its flat cost"
            );
        }
    }

    #[test]
    #[should_panic(expected = "branching factor")]
    fn zero_branching_panics() {
        let _ = TreeNetwork::from_partitions(partitions(2, 2), 0, 0);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_tree_panics() {
        let _ = TreeNetwork::from_partitions(vec![], 2, 0);
    }
}
