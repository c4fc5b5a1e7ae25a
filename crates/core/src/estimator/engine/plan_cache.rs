//! Memoized optimizer plans, kept while the station's shape holds.
//!
//! Solving problem (3) is a grid sweep over `grid_points` candidate
//! `α′` values — pure, but not free — and a batch (or a run of single
//! sessions inside one epoch) repeats it for every query that shares an
//! accuracy target and rate tier. The result is a deterministic
//! function of exactly four inputs: the customer accuracy `(α, δ)`, the
//! tier's effective sampling probability, the station's
//! [`NetworkShape`] and the optimizer config. The cache key is the first
//! two as exact bit patterns; the shape is the cache's own stamp.
//!
//! The shape is a function of the station state, which the station's
//! identity and revision journal stamp, so the cache also remembers the
//! pair it last saw. While the pair stands, a lookup is two integer
//! compares. Once either moves (a collection round, a resample, another
//! network swapped in), the next lookup reads the station's shape and
//! clears every entry only if that shape differs from the one the plans
//! were swept for: a resampled station with the same `(k, n, max n_i)`
//! keeps its plans. Budget state never enters a plan (holds are taken
//! *after* planning), so a hold or rollback cannot stale the cache; the
//! one input outside the station — the
//! [`crate::optimizer::OptimizerConfig`] — must call
//! [`PlanCache::clear`] when it is swapped.

use std::collections::BTreeMap;

use prc_net::base_station::BaseStation;

use crate::optimizer::{NetworkShape, PerturbationPlan};
use crate::query::Accuracy;

/// One planning problem at one shape: the accuracy target and rate tier
/// as exact bit patterns.
pub(crate) type PlanFingerprint = (u64, u64, u64);

/// A shape-stamped memo of optimizer grid sweeps.
///
/// Deterministic by construction: a `BTreeMap` over exact bit-pattern
/// keys, storing [`PerturbationPlan`]s that are themselves pure
/// grid-sweep outputs — a hit returns the identical bits a fresh sweep
/// would.
#[derive(Debug, Clone, Default)]
pub(crate) struct PlanCache {
    /// Station identity and revision the cache last synchronized at.
    stamp: Option<(u64, u64)>,
    /// Station shape the cached plans were swept for (`None` while the
    /// station has no shape).
    shape: Option<NetworkShape>,
    plans: BTreeMap<PlanFingerprint, PerturbationPlan>,
}

impl PlanCache {
    /// The cache key for one accuracy target at one rate tier.
    pub fn fingerprint(accuracy: Accuracy, probability: f64) -> PlanFingerprint {
        (
            accuracy.alpha().to_bits(),
            accuracy.delta().to_bits(),
            probability.to_bits(),
        )
    }

    /// Looks a memoized plan up for the station's current state.
    pub fn lookup(
        &mut self,
        station: &BaseStation,
        key: PlanFingerprint,
    ) -> Option<PerturbationPlan> {
        self.synchronize(station);
        self.plans.get(&key).copied()
    }

    /// Memoizes a plan swept for the station's current state.
    pub fn insert(&mut self, station: &BaseStation, key: PlanFingerprint, plan: PerturbationPlan) {
        self.synchronize(station);
        self.plans.insert(key, plan);
    }

    /// Drops every entry (optimizer config swaps).
    pub fn clear(&mut self) {
        self.stamp = None;
        self.shape = None;
        self.plans.clear();
    }

    /// Live entries (test support).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Catches the cache up with the station: nothing to do while its
    /// identity and revision stand; on a move of either, every entry goes
    /// if the shape moved with it.
    fn synchronize(&mut self, station: &BaseStation) {
        let stamp = (station.identity(), station.revision());
        if self.stamp == Some(stamp) {
            return;
        }
        self.stamp = Some(stamp);
        let shape = NetworkShape::from_station(station).ok();
        if shape != self.shape {
            self.plans.clear();
            self.shape = shape;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prc_net::message::{NodeId, SampleEntry, SampleMessage};

    fn plan(alpha_prime: f64) -> PerturbationPlan {
        let epsilon = prc_dp::budget::Epsilon::new(0.5).expect("valid epsilon");
        PerturbationPlan {
            alpha_prime,
            delta_prime: 0.5,
            epsilon,
            effective_epsilon: epsilon,
            sensitivity: 1.0,
            noise_scale: 1.0,
            probability: 0.5,
            tail_probability: 0.1,
        }
    }

    fn key(alpha: f64) -> PlanFingerprint {
        PlanCache::fingerprint(Accuracy::new(alpha, 0.5).expect("valid accuracy"), 0.25)
    }

    /// Node `node` reports population `n` at probability `p` with the
    /// given ranks sampled.
    fn report(station: &mut BaseStation, node: u32, n: usize, p: f64, ranks: &[u32]) {
        station.ingest(SampleMessage {
            node_id: NodeId(node),
            population_size: n,
            probability: p,
            entries: ranks
                .iter()
                .map(|&rank| SampleEntry {
                    value: f64::from(rank),
                    rank,
                })
                .collect(),
        });
    }

    /// Two nodes of ten records each, sampled at 0.25.
    fn station() -> BaseStation {
        let mut station = BaseStation::new();
        report(&mut station, 0, 10, 0.25, &[2, 7]);
        report(&mut station, 1, 10, 0.25, &[4]);
        station
    }

    #[test]
    fn hits_within_a_revision_return_the_inserted_plan() {
        let station = station();
        let mut cache = PlanCache::default();
        assert!(cache.lookup(&station, key(0.1)).is_none());
        cache.insert(&station, key(0.1), plan(2.0));
        cache.insert(&station, key(0.2), plan(3.0));
        assert_eq!(cache.len(), 2);
        let hit = cache.lookup(&station, key(0.1)).expect("cached");
        assert_eq!(hit.alpha_prime.to_bits(), 2.0f64.to_bits());
    }

    #[test]
    fn a_revision_move_at_the_same_shape_keeps_every_entry() {
        let mut station = station();
        let mut cache = PlanCache::default();
        cache.insert(&station, key(0.1), plan(2.0));
        cache.insert(&station, key(0.2), plan(3.0));
        // New entries move the revision but not (k, n, max n_i).
        let before = station.revision();
        report(&mut station, 0, 10, 0.5, &[1, 9]);
        assert!(station.revision() > before);
        let hit = cache.lookup(&station, key(0.1)).expect("the shape held");
        assert_eq!(hit.alpha_prime.to_bits(), 2.0f64.to_bits());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn a_shape_change_clears_every_entry() {
        let changes: [fn(&mut BaseStation); 3] = [
            // k: a third node reports.
            |s: &mut BaseStation| report(s, 2, 10, 0.25, &[]),
            // n and max n_i: a node's population grows.
            |s: &mut BaseStation| report(s, 1, 12, 0.25, &[]),
            // max n_i alone: one node gains what the other loses.
            |s: &mut BaseStation| {
                report(s, 0, 14, 0.25, &[]);
                report(s, 1, 6, 0.25, &[]);
            },
        ];
        for change in changes {
            let mut cache = PlanCache::default();
            let mut station = station();
            cache.insert(&station, key(0.1), plan(2.0));
            cache.insert(&station, key(0.2), plan(3.0));
            change(&mut station);
            assert!(cache.lookup(&station, key(0.1)).is_none());
            assert_eq!(cache.len(), 0);
        }
    }

    #[test]
    fn another_station_at_the_same_revision_is_a_move() {
        let station = station();
        let mut cache = PlanCache::default();
        cache.insert(&station, key(0.1), plan(2.0));
        // The same revision on another station of another shape.
        let mut other = BaseStation::new();
        report(&mut other, 0, 40, 0.25, &[2, 7]);
        report(&mut other, 1, 40, 0.25, &[4]);
        assert_eq!(other.revision(), station.revision());
        assert!(cache.lookup(&other, key(0.1)).is_none());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn distinct_tiers_and_targets_never_collide() {
        let a = PlanCache::fingerprint(Accuracy::new(0.1, 0.5).expect("valid"), 0.25);
        let b = PlanCache::fingerprint(Accuracy::new(0.1, 0.5).expect("valid"), 0.5);
        let c = PlanCache::fingerprint(Accuracy::new(0.1, 0.25).expect("valid"), 0.25);
        assert_ne!(a, b);
        assert_ne!(a, c);
        let station = station();
        let mut cache = PlanCache::default();
        cache.insert(&station, a, plan(1.0));
        assert!(cache.lookup(&station, b).is_none());
        assert!(cache.lookup(&station, c).is_none());
    }

    #[test]
    fn clear_empties_the_cache() {
        // `set_optimizer_config` relies on this: the station has not
        // moved, yet every plan must go.
        let station = station();
        let mut cache = PlanCache::default();
        cache.insert(&station, key(0.1), plan(1.0));
        cache.clear();
        assert_eq!(cache.len(), 0);
        assert!(cache.lookup(&station, key(0.1)).is_none());
    }
}
