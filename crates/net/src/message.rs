//! Wire messages and the byte-level cost model.
//!
//! The paper's efficiency argument (§III-A) is entirely about how many
//! samples cross the network, so every message type reports a
//! [`Message::wire_size`] and whether it can piggyback on a routine
//! heartbeat: *"a node could pack the samples into an ordinary heartbeat
//! message to the broker, and no more communication cost is incurred"*.
//! We adopt the paper's threshold of **16 samples** per batch
//! ([`HEARTBEAT_FREE_SAMPLES`]).

/// Identifier of a sensor node.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

/// Maximum number of samples that fit into a routine heartbeat message
/// without incurring extra communication cost (§III-A).
pub const HEARTBEAT_FREE_SAMPLES: usize = 16;

/// Fixed per-message header size in bytes (ids, lengths, checksums).
pub const MESSAGE_HEADER_BYTES: usize = 16;

/// Wire size of one sample entry: an 8-byte value plus a 4-byte rank.
pub const SAMPLE_ENTRY_BYTES: usize = 12;

/// One sampled element: its value and its **local rank** (1-based position
/// in the node's sorted data), the extra information the RankCounting
/// estimator exploits.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SampleEntry {
    /// The sampled data value.
    pub value: f64,
    /// 1-based rank of the value within the node's sorted local data.
    pub rank: u32,
}

/// Maps a value to a `u64` whose unsigned order is [`f64::total_cmp`]'s:
/// every bit of a negative value flips, only the sign bit of any other.
///
/// Nodes sort their local data and the rank index sorts the station's
/// entries by these keys, comparing plain integers.
pub fn order_key(value: f64) -> u64 {
    let bits = value.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// The inverse of [`order_key`].
pub fn key_value(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key ^ (1 << 63)
    } else {
        !key
    })
}

/// A batch of samples shipped from a node to the base station.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SampleMessage {
    /// The reporting node.
    pub node_id: NodeId,
    /// Size `n_i` of the node's full local dataset.
    pub population_size: usize,
    /// Cumulative sampling probability the node has reached after this batch.
    pub probability: f64,
    /// Newly sampled entries, sorted by rank.
    pub entries: Vec<SampleEntry>,
}

impl SampleMessage {
    /// Serialized size in bytes under the fixed cost model: the header
    /// plus [`SAMPLE_ENTRY_BYTES`] per entry.
    pub fn wire_size(&self) -> usize {
        MESSAGE_HEADER_BYTES + self.entries.len() * SAMPLE_ENTRY_BYTES
    }

    /// True when the batch is small enough to piggyback on a heartbeat.
    pub fn fits_in_heartbeat(&self) -> bool {
        self.entries.len() <= HEARTBEAT_FREE_SAMPLES
    }
}

/// Every message that crosses the simulated network.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
#[non_exhaustive]
pub enum Message {
    /// Samples from a node to the base station.
    Sample(SampleMessage),
    /// Base-station instruction to raise a node's sampling probability.
    TopUpRequest {
        /// Target node.
        node_id: NodeId,
        /// Cumulative sampling probability the node should reach.
        target_probability: f64,
    },
    /// A routine keep-alive with no payload.
    Heartbeat {
        /// Sender.
        node_id: NodeId,
    },
}

impl Message {
    /// The sender or addressee of the message.
    pub fn node_id(&self) -> NodeId {
        match self {
            Message::Sample(m) => m.node_id,
            Message::TopUpRequest { node_id, .. } => *node_id,
            Message::Heartbeat { node_id } => *node_id,
        }
    }

    /// Serialized size in bytes under the fixed cost model.
    pub fn wire_size(&self) -> usize {
        match self {
            Message::Sample(m) => m.wire_size(),
            Message::TopUpRequest { .. } => MESSAGE_HEADER_BYTES + 8,
            Message::Heartbeat { .. } => MESSAGE_HEADER_BYTES,
        }
    }

    /// True when the message incurs no extra cost beyond routine traffic
    /// (heartbeats, and sample batches small enough to ride one).
    pub fn is_free(&self) -> bool {
        match self {
            Message::Sample(m) => m.fits_in_heartbeat(),
            Message::TopUpRequest { .. } => false,
            Message::Heartbeat { .. } => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_msg(n: usize) -> SampleMessage {
        SampleMessage {
            node_id: NodeId(3),
            population_size: 100,
            probability: 0.25,
            entries: (0..n)
                .map(|i| SampleEntry {
                    value: i as f64,
                    rank: i as u32 + 1,
                })
                .collect(),
        }
    }

    #[test]
    fn wire_size_scales_with_entries() {
        let m = Message::Sample(sample_msg(0));
        assert_eq!(m.wire_size(), MESSAGE_HEADER_BYTES);
        let m = Message::Sample(sample_msg(10));
        assert_eq!(
            m.wire_size(),
            MESSAGE_HEADER_BYTES + 10 * SAMPLE_ENTRY_BYTES
        );
    }

    #[test]
    fn heartbeat_piggyback_threshold() {
        assert!(Message::Sample(sample_msg(HEARTBEAT_FREE_SAMPLES)).is_free());
        assert!(!Message::Sample(sample_msg(HEARTBEAT_FREE_SAMPLES + 1)).is_free());
        assert!(Message::Heartbeat { node_id: NodeId(0) }.is_free());
        assert!(!Message::TopUpRequest {
            node_id: NodeId(0),
            target_probability: 0.5
        }
        .is_free());
    }

    #[test]
    fn node_id_accessor_covers_variants() {
        assert_eq!(Message::Sample(sample_msg(1)).node_id(), NodeId(3));
        assert_eq!(
            Message::TopUpRequest {
                node_id: NodeId(7),
                target_probability: 0.1
            }
            .node_id(),
            NodeId(7)
        );
        assert_eq!(
            Message::Heartbeat { node_id: NodeId(9) }.node_id(),
            NodeId(9)
        );
    }

    #[test]
    fn order_keys_sort_like_total_cmp_and_round_trip() {
        let values = [
            f64::NEG_INFINITY,
            -1.0e300,
            -2.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            5.0e-324,
            1.0,
            7.25,
            f64::MAX,
            f64::INFINITY,
        ];
        for pair in values.windows(2) {
            assert!(order_key(pair[0]) < order_key(pair[1]), "{pair:?}");
            assert_eq!(pair[0].total_cmp(&pair[1]), std::cmp::Ordering::Less);
        }
        for v in values {
            assert_eq!(key_value(order_key(v)).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn node_id_displays() {
        assert_eq!(NodeId(5).to_string(), "node-5");
    }
}
