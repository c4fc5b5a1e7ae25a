//! # prc-net — IoT network simulation substrate
//!
//! The system model of *"Trading Private Range Counting over Big IoT
//! Data"* (Cai & He, ICDCS 2019) distributes a global dataset `D` over `k`
//! smart devices; each device ships only a Bernoulli(p) *sample* of its
//! local data — together with each sampled element's **local rank** — to a
//! base station, which answers range-counting queries from the collected
//! samples. This crate simulates that network:
//!
//! * [`node`] — [`node::SensorNode`]: sorted local data, Bernoulli
//!   sampling with *incremental top-up* (raising the effective sampling
//!   probability without resampling from scratch, the paper's "collect
//!   more samples" step);
//! * [`message`] — the sample batch and a byte-level size model with the
//!   §III-A heartbeat piggyback rule (small sample batches ride inside
//!   routine heartbeats for free);
//! * [`base_station`] — per-node sample sets and the station-wide
//!   aggregates the estimators read;
//! * [`network`] — [`network::SensorNetwork`], one network type with two
//!   topologies, and its collection round; [`network::FlatNetwork`], the
//!   paper's flat model; the [`network::CostMeter`] the round charges
//!   with messages/samples/bytes; and the [`network::Network`] trait
//!   generic consumers (the `prc-core` broker) are written against;
//! * [`tree`] — the "general tree model" extension,
//!   [`tree::TreeNetwork`]: samples are forwarded hop-by-hop to the root,
//!   multiplying communication cost by depth. A flat node is a one-hop
//!   child of the base station, so the tree runs the flat model's round
//!   with deeper routes;
//! * [`failure`] — node-dropout and message-loss injection, keyed by
//!   `NodeId` so both topologies see identical failures for one seed;
//! * [`conformance`] — the executable `Network` contract: a generic test
//!   kit every topology must pass (see `tests/driver_conformance.rs` and
//!   DESIGN.md §12).
//!
//! ## Quick start
//!
//! ```
//! use prc_net::network::{FlatNetwork, Network};
//!
//! // Three nodes, each holding a slice of the global data.
//! let partitions = vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0], vec![6.0]];
//! let mut network = FlatNetwork::from_partitions(partitions, 42);
//! network.collect_samples(0.5);
//! assert_eq!(network.station().node_count(), 3);
//! assert_eq!(network.station().total_population(), 6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod base_station;
pub mod conformance;
pub mod energy;
pub mod failure;
pub mod message;
pub mod network;
pub mod node;
pub mod trace;
pub mod tree;

pub use base_station::{BaseStation, NodeSample};
pub use conformance::{assert_drivers_agree, check_driver, ConformanceReport};
pub use message::{NodeId, SampleEntry, SampleMessage};
pub use network::{CostMeter, FlatNetwork, Network, SensorNetwork};
pub use node::SensorNode;
pub use tree::TreeNetwork;
