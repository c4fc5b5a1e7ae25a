//! Structured event tracing for the sensor network.
//!
//! Production systems need to answer "what did the network actually do
//! last round?" without a debugger. A [`Tracer`] is a bounded, thread-safe
//! ring buffer of [`TraceEvent`]s that the collection round of a
//! [`crate::network::SensorNetwork`] emits as it runs, in either topology:
//! per-node requests, deliveries, losses, silent (dead or cut-off) nodes,
//! and a per-round summary. The conformance kit ([`crate::conformance`])
//! checks that both topologies account events identically.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::message::NodeId;

/// One traced network event.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TraceEvent {
    /// A top-up request was sent to a node.
    TopUpRequested {
        /// The addressee.
        node: NodeId,
        /// Cumulative probability the node was asked to reach.
        target: f64,
    },
    /// A sample batch reached the base station.
    BatchDelivered {
        /// The reporting node.
        node: NodeId,
        /// Entries in the batch.
        entries: usize,
        /// Transmission attempts the delivery needed.
        attempts: u32,
    },
    /// A sample batch was permanently lost.
    BatchLost {
        /// The reporting node.
        node: NodeId,
        /// Entries that were lost.
        entries: usize,
    },
    /// A dead node was skipped.
    NodeSilent {
        /// The dead node.
        node: NodeId,
    },
    /// One collection round finished.
    RoundCompleted {
        /// Monotone round counter (starts at 0).
        round: u64,
        /// Probability targeted this round.
        target: f64,
        /// Entries delivered this round.
        delivered: usize,
    },
}

impl TraceEvent {
    /// Short kind label, for aggregation.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::TopUpRequested { .. } => "top_up_requested",
            TraceEvent::BatchDelivered { .. } => "batch_delivered",
            TraceEvent::BatchLost { .. } => "batch_lost",
            TraceEvent::NodeSilent { .. } => "node_silent",
            TraceEvent::RoundCompleted { .. } => "round_completed",
        }
    }
}

#[derive(Debug)]
struct TracerState {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    rounds: u64,
}

/// A bounded, thread-safe event buffer. Cloning shares the buffer.
///
/// # Examples
///
/// ```
/// use prc_net::network::{FlatNetwork, Network};
/// use prc_net::trace::Tracer;
///
/// let mut network = FlatNetwork::from_partitions(vec![vec![1.0, 2.0, 3.0]; 2], 7);
/// let tracer = Tracer::new(128);
/// network.set_tracer(tracer.clone());
/// network.collect_samples(0.9);
/// let counts = tracer.counts_by_kind();
/// assert_eq!(counts["top_up_requested"], 2);
/// assert_eq!(counts["round_completed"], 1);
/// ```
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<Mutex<TracerState>>,
}

impl Tracer {
    /// Creates a tracer holding at most `capacity` events (oldest events
    /// are dropped first).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "tracer capacity must be positive");
        Tracer {
            inner: Arc::new(Mutex::new(TracerState {
                events: VecDeque::with_capacity(capacity.min(1_024)),
                capacity,
                dropped: 0,
                rounds: 0,
            })),
        }
    }

    /// Appends one event.
    pub fn record(&self, event: TraceEvent) {
        let mut state = self.inner.lock();
        if state.events.len() == state.capacity {
            state.events.pop_front();
            state.dropped += 1;
        }
        state.events.push_back(event);
    }

    /// Allocates and returns the next round number.
    pub fn next_round(&self) -> u64 {
        let mut state = self.inner.lock();
        let round = state.rounds;
        state.rounds += 1;
        round
    }

    /// A snapshot of the buffered events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.lock().events.iter().cloned().collect()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.inner.lock().events.len()
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().events.is_empty()
    }

    /// Events dropped because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Count of buffered events per kind label.
    pub fn counts_by_kind(&self) -> std::collections::BTreeMap<&'static str, usize> {
        let mut out = std::collections::BTreeMap::new();
        for event in self.inner.lock().events.iter() {
            *out.entry(event.kind()).or_insert(0) += 1;
        }
        out
    }

    /// Clears the buffer (the dropped counter and round counter survive).
    pub fn clear(&self) {
        self.inner.lock().events.clear();
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(4_096)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let tracer = Tracer::new(10);
        assert!(tracer.is_empty());
        tracer.record(TraceEvent::TopUpRequested {
            node: NodeId(1),
            target: 0.5,
        });
        tracer.record(TraceEvent::BatchDelivered {
            node: NodeId(1),
            entries: 7,
            attempts: 1,
        });
        let events = tracer.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind(), "top_up_requested");
        assert_eq!(events[1].kind(), "batch_delivered");
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let tracer = Tracer::new(3);
        for i in 0..5 {
            tracer.record(TraceEvent::NodeSilent { node: NodeId(i) });
        }
        assert_eq!(tracer.len(), 3);
        assert_eq!(tracer.dropped(), 2);
        match &tracer.events()[0] {
            TraceEvent::NodeSilent { node } => assert_eq!(*node, NodeId(2)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn counts_by_kind_aggregates() {
        let tracer = Tracer::new(16);
        for _ in 0..3 {
            tracer.record(TraceEvent::BatchLost {
                node: NodeId(0),
                entries: 1,
            });
        }
        tracer.record(TraceEvent::RoundCompleted {
            round: 0,
            target: 0.1,
            delivered: 5,
        });
        let counts = tracer.counts_by_kind();
        assert_eq!(counts["batch_lost"], 3);
        assert_eq!(counts["round_completed"], 1);
    }

    #[test]
    fn rounds_are_monotone_and_clear_preserves_counters() {
        let tracer = Tracer::new(4);
        assert_eq!(tracer.next_round(), 0);
        assert_eq!(tracer.next_round(), 1);
        tracer.record(TraceEvent::NodeSilent { node: NodeId(0) });
        tracer.clear();
        assert!(tracer.is_empty());
        assert_eq!(tracer.next_round(), 2);
    }

    #[test]
    fn clones_share_the_buffer() {
        let tracer = Tracer::new(8);
        let clone = tracer.clone();
        clone.record(TraceEvent::NodeSilent { node: NodeId(9) });
        assert_eq!(tracer.len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = Tracer::new(0);
    }
}
