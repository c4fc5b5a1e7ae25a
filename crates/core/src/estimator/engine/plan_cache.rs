//! Memoized optimizer plans, pinned to a station revision.
//!
//! Solving problem (3) is a grid sweep over `grid_points` candidate
//! `α′` values — pure, but not free — and a batch (or a run of single
//! sessions inside one epoch) repeats it for every query that shares an
//! accuracy target and rate tier. The result is a deterministic
//! function of exactly three inputs: the customer accuracy `(α, δ)`,
//! the tier's effective sampling probability, and the station's shape —
//! and the shape is itself a function of the station state, which the
//! revision journal stamps. So the cache key is the first two as exact
//! bit patterns, and the whole cache is invalidated whenever the
//! station's revision moves — the same revision stamp the query index
//! is rebuilt on. Budget state never
//! enters a plan (holds are taken *after* planning), so a hold or
//! rollback cannot stale the cache; anything that does change the
//! planning problem outside the station — swapping the
//! [`crate::optimizer::OptimizerConfig`] — must call
//! [`PlanCache::clear`].

use std::collections::BTreeMap;

use crate::optimizer::PerturbationPlan;
use crate::query::Accuracy;

/// One planning problem inside an epoch: the accuracy target and rate
/// tier as exact bit patterns.
pub(crate) type PlanFingerprint = (u64, u64, u64);

/// A revision-stamped memo of optimizer grid sweeps.
///
/// Deterministic by construction: a `BTreeMap` over exact bit-pattern
/// keys, storing [`PerturbationPlan`]s that are themselves pure
/// grid-sweep outputs — a hit returns the identical bits a fresh sweep
/// would.
#[derive(Debug, Clone, Default)]
pub(crate) struct PlanCache {
    /// Station revision the cached plans were swept at.
    revision: Option<u64>,
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

    /// Looks a memoized plan up, first discarding every entry if the
    /// station has moved past the cached revision.
    pub fn lookup(&mut self, revision: u64, key: PlanFingerprint) -> Option<PerturbationPlan> {
        self.synchronize(revision);
        self.plans.get(&key).copied()
    }

    /// Memoizes a freshly swept plan at the given revision.
    pub fn insert(&mut self, revision: u64, key: PlanFingerprint, plan: PerturbationPlan) {
        self.synchronize(revision);
        self.plans.insert(key, plan);
    }

    /// Drops every entry (config swaps, policy changes).
    pub fn clear(&mut self) {
        self.revision = None;
        self.plans.clear();
    }

    /// Live entries (test support).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    fn synchronize(&mut self, revision: u64) {
        if self.revision != Some(revision) {
            self.plans.clear();
            self.revision = Some(revision);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn hits_within_a_revision_return_the_inserted_plan() {
        let mut cache = PlanCache::default();
        assert!(cache.lookup(7, key(0.1)).is_none());
        cache.insert(7, key(0.1), plan(2.0));
        cache.insert(7, key(0.2), plan(3.0));
        assert_eq!(cache.len(), 2);
        let hit = cache.lookup(7, key(0.1)).expect("cached");
        assert_eq!(hit.alpha_prime.to_bits(), 2.0f64.to_bits());
    }

    #[test]
    fn a_revision_move_discards_every_entry() {
        let mut cache = PlanCache::default();
        cache.insert(7, key(0.1), plan(2.0));
        assert!(cache.lookup(8, key(0.1)).is_none());
        assert_eq!(cache.len(), 0);
        // Looking up at the old revision after the move also misses:
        // the cache tracks one revision, never a history.
        cache.insert(8, key(0.1), plan(4.0));
        assert!(cache.lookup(7, key(0.1)).is_none());
    }

    #[test]
    fn distinct_tiers_and_targets_never_collide() {
        let a = PlanCache::fingerprint(Accuracy::new(0.1, 0.5).expect("valid"), 0.25);
        let b = PlanCache::fingerprint(Accuracy::new(0.1, 0.5).expect("valid"), 0.5);
        let c = PlanCache::fingerprint(Accuracy::new(0.1, 0.25).expect("valid"), 0.25);
        assert_ne!(a, b);
        assert_ne!(a, c);
        let mut cache = PlanCache::default();
        cache.insert(1, a, plan(1.0));
        assert!(cache.lookup(1, b).is_none());
        assert!(cache.lookup(1, c).is_none());
    }

    #[test]
    fn clear_empties_the_cache() {
        let mut cache = PlanCache::default();
        cache.insert(3, key(0.1), plan(1.0));
        cache.clear();
        assert!(cache.lookup(3, key(0.1)).is_none());
    }
}
