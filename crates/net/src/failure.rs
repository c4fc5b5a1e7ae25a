//! Failure injection: node dropout and message loss.
//!
//! Real IoT deployments lose nodes and drop radio frames. A
//! [`FailurePlan`] injects both into the simulated network so the
//! estimator's degradation can be measured (see the
//! `distributed_network` example and the integration tests):
//!
//! * **node dropout** — a node dies before reporting; the base station
//!   simply never hears from it, so the global estimate misses that
//!   node's contribution entirely;
//! * **message loss** — individual sample batches are lost with some
//!   probability. Under [`LossMode::Retransmit`] the sender repeats until
//!   delivery (extra cost, unchanged accuracy); under [`LossMode::Drop`]
//!   the batch is silently gone (the node believes it shipped, so the
//!   station's sample under-represents the node and its per-node
//!   estimate drifts toward the whole-population fallback).
//!
//! # Determinism across drivers
//!
//! Every random decision is keyed by `(seed, NodeId)`, not by the order
//! in which the plan is consulted: each node owns an independent dropout
//! draw and an independent loss stream, both derived from the plan seed
//! and the node id by a SplitMix64-style mix. The *m*-th transmission
//! decision for node *i* is therefore a pure function of
//! `(seed, i, m)` — a driver interleaving nodes arbitrarily, one
//! iterating in id order, and one skipping cut-off subtrees all see
//! identical failures for the nodes they actually ask about. The conformance kit
//! ([`crate::conformance`]) relies on this to compare drivers
//! byte-for-byte under one shared plan.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

// prc-lint: allow(B003, reason = "seeded failure-injection randomness; not privacy noise")
use rand::{rngs::StdRng, RngExt, SeedableRng};

use crate::message::NodeId;

/// What happens to a lost message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossMode {
    /// The sender retransmits until the message is delivered; loss costs
    /// extra transmissions but never data.
    Retransmit,
    /// The message is silently dropped; the receiver never sees it.
    Drop,
}

/// Domain-separation salt for the per-node dropout draw.
const DROPOUT_SALT: u64 = 0x5bd1_e995_9e37_79b9;
/// Domain-separation salt for the per-node loss stream.
const LOSS_SALT: u64 = 0x2545_f491_4f6c_dd1d;

/// Mixes the plan seed and a node id into an independent stream seed.
fn stream_seed(seed: u64, node_id: NodeId, salt: u64) -> u64 {
    let mut z = seed ^ salt ^ u64::from(node_id.0).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic, seeded failure schedule with per-node randomness.
#[derive(Debug, Clone)]
pub struct FailurePlan {
    dropout_probability: f64,
    dead_nodes: BTreeSet<NodeId>,
    decided: BTreeMap<NodeId, bool>,
    message_loss_probability: f64,
    loss_mode: LossMode,
    seed: u64,
    loss_streams: BTreeMap<NodeId, StdRng>,
}

impl FailurePlan {
    /// A plan with no failures.
    pub fn none() -> Self {
        FailurePlan::new(0.0, 0.0, LossMode::Retransmit, 0)
    }

    /// Creates a plan.
    ///
    /// * `dropout_probability` — chance that each node is dead for the
    ///   whole simulation (an independent draw per node);
    /// * `message_loss_probability` — chance that each message
    ///   transmission attempt is lost;
    /// * `loss_mode` — what happens on loss;
    /// * `seed` — RNG seed; every decision is a pure function of the
    ///   seed, the node id, and that node's decision ordinal, so the
    ///   plan is deterministic regardless of the order in which drivers
    ///   consult it.
    ///
    /// # Panics
    ///
    /// Panics unless both probabilities are in `[0, 1)` (a plan that loses
    /// everything forever would deadlock retransmission).
    pub fn new(
        dropout_probability: f64,
        message_loss_probability: f64,
        loss_mode: LossMode,
        seed: u64,
    ) -> Self {
        assert!(
            (0.0..1.0).contains(&dropout_probability),
            "dropout probability must be in [0, 1), got {dropout_probability}"
        );
        assert!(
            (0.0..1.0).contains(&message_loss_probability),
            "message loss probability must be in [0, 1), got {message_loss_probability}"
        );
        FailurePlan {
            dropout_probability,
            dead_nodes: BTreeSet::new(),
            decided: BTreeMap::new(),
            message_loss_probability,
            loss_mode,
            seed,
            loss_streams: BTreeMap::new(),
        }
    }

    /// Marks a specific node dead, regardless of the dropout probability.
    pub fn kill_node(&mut self, node_id: NodeId) {
        self.dead_nodes.insert(node_id);
        self.decided.insert(node_id, true);
    }

    /// The configured loss mode.
    pub fn loss_mode(&self) -> LossMode {
        self.loss_mode
    }

    /// True when the node is dead. The draw is keyed by the node id (and
    /// cached), so any driver asking about the same node gets the same
    /// answer in any order.
    ///
    /// At dropout probability 0 no draw can kill a node, so only the
    /// killed nodes are dead and nothing is drawn or cached.
    pub fn node_is_dead(&mut self, node_id: NodeId) -> bool {
        if self.dropout_probability == 0.0 {
            return self.dead_nodes.contains(&node_id);
        }
        if let Some(&dead) = self.decided.get(&node_id) {
            return dead;
        }
        let mut draw = StdRng::seed_from_u64(stream_seed(self.seed, node_id, DROPOUT_SALT));
        let dead =
            self.dead_nodes.contains(&node_id) || draw.random::<f64>() < self.dropout_probability;
        self.decided.insert(node_id, dead);
        if dead {
            self.dead_nodes.insert(node_id);
        }
        dead
    }

    /// Number of transmission attempts needed to deliver one message from
    /// `node_id`, or `None` when the message is permanently dropped.
    ///
    /// Under [`LossMode::Retransmit`] this is a geometric number of
    /// attempts (≥ 1); under [`LossMode::Drop`] it is `Some(1)` on
    /// success and `None` on loss. Draws come from a per-node stream, so
    /// the *m*-th message of a node meets the same fate in every driver.
    /// At loss probability 0 every message gets through on its first
    /// attempt, and no stream is created or drawn from.
    pub fn transmission_attempts(&mut self, node_id: NodeId) -> Option<u32> {
        if self.message_loss_probability == 0.0 {
            return Some(1);
        }
        let seed = self.seed;
        let stream = self
            .loss_streams
            .entry(node_id)
            .or_insert_with(|| StdRng::seed_from_u64(stream_seed(seed, node_id, LOSS_SALT)));
        match self.loss_mode {
            LossMode::Retransmit => {
                let mut attempts = 1;
                while stream.random::<f64>() < self.message_loss_probability {
                    attempts += 1;
                }
                Some(attempts)
            }
            LossMode::Drop => {
                if stream.random::<f64>() < self.message_loss_probability {
                    None
                } else {
                    Some(1)
                }
            }
        }
    }

    /// Nodes known to be dead so far.
    pub fn dead_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.dead_nodes.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_fails() {
        let mut plan = FailurePlan::none();
        for i in 0..100 {
            assert!(!plan.node_is_dead(NodeId(i)));
            assert_eq!(plan.transmission_attempts(NodeId(i)), Some(1));
        }
    }

    #[test]
    fn zero_probability_plans_draw_nothing() {
        let mut plan = FailurePlan::new(0.0, 0.0, LossMode::Drop, 5);
        plan.kill_node(NodeId(2));
        for i in 0..10 {
            assert_eq!(plan.node_is_dead(NodeId(i)), i == 2);
            assert_eq!(plan.transmission_attempts(NodeId(i)), Some(1));
        }
        assert!(plan.loss_streams.is_empty());
        assert_eq!(plan.decided.len(), 1, "only the kill is recorded");
        // A node killed after it was asked about is dead from then on.
        plan.kill_node(NodeId(7));
        assert!(plan.node_is_dead(NodeId(7)));
        assert_eq!(
            plan.dead_nodes().collect::<Vec<_>>(),
            [NodeId(2), NodeId(7)]
        );
    }

    #[test]
    fn kill_node_is_respected() {
        let mut plan = FailurePlan::none();
        plan.kill_node(NodeId(3));
        assert!(plan.node_is_dead(NodeId(3)));
        assert!(!plan.node_is_dead(NodeId(4)));
        assert_eq!(plan.dead_nodes().collect::<Vec<_>>(), vec![NodeId(3)]);
    }

    #[test]
    fn dropout_decision_is_cached() {
        let mut plan = FailurePlan::new(0.5, 0.0, LossMode::Retransmit, 42);
        let first: Vec<bool> = (0..50).map(|i| plan.node_is_dead(NodeId(i))).collect();
        let second: Vec<bool> = (0..50).map(|i| plan.node_is_dead(NodeId(i))).collect();
        assert_eq!(first, second);
        assert!(first.iter().any(|&d| d), "expected some deaths at 50%");
        assert!(first.iter().any(|&d| !d), "expected some survivors at 50%");
    }

    #[test]
    fn dropout_rate_is_statistical() {
        let mut plan = FailurePlan::new(0.3, 0.0, LossMode::Retransmit, 7);
        let dead = (0..10_000)
            .filter(|&i| plan.node_is_dead(NodeId(i)))
            .count();
        let rate = dead as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn retransmit_attempts_are_geometric() {
        let mut plan = FailurePlan::new(0.0, 0.5, LossMode::Retransmit, 9);
        let n = 20_000;
        let total: u64 = (0..n)
            .map(|_| u64::from(plan.transmission_attempts(NodeId(0)).unwrap()))
            .sum();
        // Mean attempts = 1/(1-loss) = 2.
        let mean = total as f64 / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn drop_mode_loses_messages() {
        let mut plan = FailurePlan::new(0.0, 0.4, LossMode::Drop, 11);
        let n = 20_000;
        let delivered = (0..n)
            .filter(|&i| plan.transmission_attempts(NodeId(i % 64)).is_some())
            .count();
        let rate = delivered as f64 / n as f64;
        assert!((rate - 0.6).abs() < 0.02, "delivery rate {rate}");
    }

    #[test]
    #[should_panic(expected = "dropout probability")]
    fn dropout_one_panics() {
        let _ = FailurePlan::new(1.0, 0.0, LossMode::Drop, 0);
    }

    #[test]
    #[should_panic(expected = "message loss probability")]
    fn loss_one_panics() {
        let _ = FailurePlan::new(0.0, 1.0, LossMode::Drop, 0);
    }

    #[test]
    fn deterministic_for_seed() {
        let mut a = FailurePlan::new(0.2, 0.2, LossMode::Drop, 5);
        let mut b = FailurePlan::new(0.2, 0.2, LossMode::Drop, 5);
        for i in 0..100 {
            assert_eq!(a.node_is_dead(NodeId(i)), b.node_is_dead(NodeId(i)));
            assert_eq!(
                a.transmission_attempts(NodeId(i)),
                b.transmission_attempts(NodeId(i))
            );
        }
    }

    #[test]
    fn decisions_are_independent_of_query_order() {
        // The same plan consulted forwards, backwards, and interleaved
        // must hand every node the same fate — this is what lets the
        // flat and tree drivers share one plan seed.
        let mut forward = FailurePlan::new(0.3, 0.3, LossMode::Drop, 77);
        let mut backward = FailurePlan::new(0.3, 0.3, LossMode::Drop, 77);
        let fwd_dead: Vec<bool> = (0..40).map(|i| forward.node_is_dead(NodeId(i))).collect();
        let bwd_dead: Vec<bool> = (0..40)
            .rev()
            .map(|i| backward.node_is_dead(NodeId(i)))
            .collect();
        assert_eq!(
            fwd_dead,
            bwd_dead.into_iter().rev().collect::<Vec<_>>(),
            "dropout must be keyed by node id, not call order"
        );
        // Two messages per node, consumed in different global orders.
        let mut fwd_fates = Vec::new();
        for i in 0..40 {
            fwd_fates.push((
                forward.transmission_attempts(NodeId(i)),
                forward.transmission_attempts(NodeId(i)),
            ));
        }
        let mut bwd_fates = vec![(None, None); 40];
        for i in (0..40).rev() {
            let first = backward.transmission_attempts(NodeId(i));
            let second = backward.transmission_attempts(NodeId(i));
            bwd_fates[i as usize] = (first, second);
        }
        assert_eq!(fwd_fates, bwd_fates, "loss streams must be per-node");
    }

    #[test]
    fn cloned_plans_share_no_state() {
        let mut a = FailurePlan::new(0.2, 0.5, LossMode::Retransmit, 3);
        let mut b = a.clone();
        for i in 0..20 {
            assert_eq!(a.node_is_dead(NodeId(i)), b.node_is_dead(NodeId(i)));
            assert_eq!(
                a.transmission_attempts(NodeId(i)),
                b.transmission_attempts(NodeId(i))
            );
        }
    }
}
