//! Wire messages and the byte-level cost model.
//!
//! The paper's efficiency argument (§III-A) is entirely about how many
//! samples cross the network, so every message the collection round
//! sends has a byte size: a [`SampleMessage`] reports its
//! [`SampleMessage::wire_size`] and whether it can piggyback on a routine
//! heartbeat (*"a node could pack the samples into an ordinary heartbeat
//! message to the broker, and no more communication cost is incurred"*),
//! and a top-up request costs [`TOP_UP_REQUEST_BYTES`]. We adopt the
//! paper's threshold of **16 samples** per batch
//! ([`HEARTBEAT_FREE_SAMPLES`]).

/// Identifier of a sensor node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
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

/// Wire size of the base station's request that a node raise its
/// sampling probability: the header plus the 8-byte target. A request
/// never rides a heartbeat.
pub const TOP_UP_REQUEST_BYTES: usize = MESSAGE_HEADER_BYTES + 8;

/// One sampled element: its value and its **local rank** (1-based position
/// in the node's sorted data), the extra information the RankCounting
/// estimator exploits.
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
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
        assert_eq!(sample_msg(0).wire_size(), MESSAGE_HEADER_BYTES);
        assert_eq!(
            sample_msg(10).wire_size(),
            MESSAGE_HEADER_BYTES + 10 * SAMPLE_ENTRY_BYTES
        );
    }

    #[test]
    fn heartbeat_piggyback_threshold() {
        assert!(sample_msg(HEARTBEAT_FREE_SAMPLES).fits_in_heartbeat());
        assert!(!sample_msg(HEARTBEAT_FREE_SAMPLES + 1).fits_in_heartbeat());
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
