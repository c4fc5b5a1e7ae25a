//! The query engine: boundary resolution plus the optimizer plan cache.
//!
//! Every estimator path in this crate answers a range query by locating
//! the same two boundaries in a value-sorted sequence: the first
//! position whose value is `>= lower` and the first `> upper`.
//! [`boundary_ranks`] / [`entry_boundary_ranks`] resolve them with two
//! `slice::partition_point`s — the one resolver the per-node scan and
//! the index share, so the downstream `(ΣA, ΣB)` integer
//! aggregation sees identical positions on every path and released
//! answers stay bit-identical across the scan, indexed, and batched
//! paths.
//!
//! The module also houses the optimizer's plan cache: the grid sweep of
//! problem (3) is a pure function of the accuracy target, the rate tier,
//! and the station state, so its result is memoized under the same
//! revision stamps that pin the query index to an epoch.

mod boundary;
mod plan_cache;

pub use boundary::{boundary_ranks, boundary_ranks_by, entry_boundary_ranks};
pub(crate) use plan_cache::PlanCache;
