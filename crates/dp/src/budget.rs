//! Privacy budgets and composition accounting.
//!
//! [`Epsilon`] is a validated non-negative privacy budget. The
//! [`BudgetAccountant`] tracks cumulative spend under *sequential
//! composition* (budgets add) and enforces a total cap — the discipline a
//! data broker needs when it answers a stream of queries against the same
//! sample (§II-A of the paper).

use crate::error::DpError;

/// A validated privacy budget: a finite, non-negative `ε`.
///
/// `ε = 0` is allowed and denotes perfect indistinguishability (infinite
/// noise). No finite noise scale realizes it, so releases reject it
/// separately: `ExponentialMechanism::new` by name, and
/// `laplace::draw_centered` because the scale `Δ/ε` is not finite.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Epsilon(f64);

impl Epsilon {
    /// Wraps a raw budget value.
    ///
    /// # Errors
    ///
    /// Returns [`DpError::InvalidEpsilon`] unless `value` is finite and
    /// non-negative.
    pub fn new(value: f64) -> Result<Self, DpError> {
        if !value.is_finite() || value < 0.0 {
            return Err(DpError::InvalidEpsilon { value });
        }
        Ok(Epsilon(value))
    }

    /// The raw budget value.
    pub fn value(self) -> f64 {
        self.0
    }

    /// True when the budget is exactly zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl std::fmt::Display for Epsilon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ε={}", self.0)
    }
}

/// A two-phase hold on privacy budget, issued by
/// [`BudgetAccountant::reserve`].
///
/// The held amount is excluded from [`BudgetAccountant::remaining`] until
/// the reservation is resolved, either by
/// [`BudgetAccountant::commit`] (the answer released — the hold becomes
/// real spend) or [`BudgetAccountant::rollback`] (the answer failed — the
/// hold is released and no ε is consumed). The token is deliberately
/// neither `Copy` nor `Clone`, so each hold resolves exactly once.
#[derive(Debug, PartialEq)]
#[must_use = "an unresolved reservation holds budget forever; commit or roll it back"]
pub struct Reservation {
    amount: Epsilon,
}

impl Reservation {
    /// The reserved budget.
    pub fn amount(&self) -> Epsilon {
        self.amount
    }
}

/// Tracks privacy-budget spend against a total cap under sequential
/// composition.
///
/// Spending is two-phase, and that is the only way to spend:
/// [`BudgetAccountant::reserve`] places a hold that
/// [`BudgetAccountant::commit`] converts into spend or
/// [`BudgetAccountant::rollback`] releases.
///
/// # Examples
///
/// ```
/// use prc_dp::budget::{BudgetAccountant, Epsilon};
///
/// # fn main() -> Result<(), prc_dp::DpError> {
/// let mut accountant = BudgetAccountant::new(Epsilon::new(1.0)?);
/// let hold = accountant.reserve(Epsilon::new(0.4)?)?;
/// accountant.commit(hold);
/// assert!((accountant.remaining().value() - 0.6).abs() < 1e-12);
/// assert!(accountant.reserve(Epsilon::new(0.7)?).is_err());
///
/// // A rolled-back hold costs nothing.
/// let hold = accountant.reserve(Epsilon::new(0.5)?)?;
/// assert!((accountant.remaining().value() - 0.1).abs() < 1e-12);
/// accountant.rollback(hold);
/// assert!((accountant.remaining().value() - 0.6).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetAccountant {
    total: Epsilon,
    spent: f64,
    reserved: f64,
    operations: u64,
}

impl BudgetAccountant {
    /// Creates an accountant with the given total budget.
    pub fn new(total: Epsilon) -> Self {
        BudgetAccountant {
            total,
            spent: 0.0,
            reserved: 0.0,
            operations: 0,
        }
    }

    /// The total budget cap.
    pub fn total(&self) -> Epsilon {
        self.total
    }

    /// Budget spent so far (committed only; outstanding holds excluded).
    pub fn spent(&self) -> Epsilon {
        Epsilon(self.spent)
    }

    /// Budget held by outstanding reservations.
    pub fn reserved(&self) -> Epsilon {
        Epsilon(self.reserved)
    }

    /// Budget still available: the cap minus committed spend and
    /// outstanding holds.
    pub fn remaining(&self) -> Epsilon {
        Epsilon((self.total.0 - self.spent - self.reserved).max(0.0))
    }

    /// Number of successful spend operations (commits count; rollbacks
    /// don't).
    pub fn operations(&self) -> u64 {
        self.operations
    }

    /// Places a hold on `epsilon` of the remaining budget.
    ///
    /// The hold counts against [`BudgetAccountant::remaining`] at once,
    /// so concurrent-in-flight answers cannot jointly oversubscribe the
    /// cap, but nothing is spent until [`BudgetAccountant::commit`].
    ///
    /// # Errors
    ///
    /// Returns [`DpError::BudgetExhausted`] (and holds nothing) when the
    /// request exceeds the remaining budget. A tiny tolerance (1e-12 of
    /// the total) absorbs floating-point accumulation error.
    pub fn reserve(&mut self, epsilon: Epsilon) -> Result<Reservation, DpError> {
        let tolerance = 1e-12 * self.total.0.max(1.0);
        if self.spent + self.reserved + epsilon.0 > self.total.0 + tolerance {
            return Err(DpError::BudgetExhausted {
                requested: epsilon.0,
                remaining: self.remaining().0,
            });
        }
        self.reserved += epsilon.0;
        Ok(Reservation { amount: epsilon })
    }

    /// Converts a hold into committed spend. Infallible: the budget check
    /// already happened at [`BudgetAccountant::reserve`] time.
    pub fn commit(&mut self, reservation: Reservation) {
        self.reserved = (self.reserved - reservation.amount.0).max(0.0);
        self.spent += reservation.amount.0;
        self.operations += 1;
    }

    /// Releases a hold without spending: the failed answer costs no ε.
    pub fn rollback(&mut self, reservation: Reservation) {
        self.reserved = (self.reserved - reservation.amount.0).max(0.0);
    }

    /// True when any further non-zero spend would fail.
    pub fn is_exhausted(&self) -> bool {
        self.remaining().0 <= 1e-12 * self.total.0.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reserves `value` and commits the hold.
    fn charge(acc: &mut BudgetAccountant, value: f64) -> Result<(), DpError> {
        let hold = acc.reserve(Epsilon::new(value).unwrap())?;
        acc.commit(hold);
        Ok(())
    }

    #[test]
    fn epsilon_validation() {
        assert!(Epsilon::new(0.0).is_ok());
        assert!(Epsilon::new(3.5).is_ok());
        assert!(Epsilon::new(-0.1).is_err());
        assert!(Epsilon::new(f64::NAN).is_err());
        assert!(Epsilon::new(f64::INFINITY).is_err());
        assert!(Epsilon::new(0.0).unwrap().is_zero());
        assert!(!Epsilon::new(0.1).unwrap().is_zero());
    }

    #[test]
    fn conversions() {
        assert_eq!(Epsilon::new(0.7).unwrap().to_string(), "ε=0.7");
    }

    #[test]
    fn accountant_tracks_spend() {
        let mut acc = BudgetAccountant::new(Epsilon::new(2.0).unwrap());
        assert_eq!(acc.operations(), 0);
        charge(&mut acc, 0.5).unwrap();
        charge(&mut acc, 1.0).unwrap();
        assert_eq!(acc.operations(), 2);
        assert!((acc.spent().value() - 1.5).abs() < 1e-12);
        assert!((acc.remaining().value() - 0.5).abs() < 1e-12);
        assert!(!acc.is_exhausted());
    }

    #[test]
    fn accountant_rejects_overspend_without_mutating() {
        let mut acc = BudgetAccountant::new(Epsilon::new(1.0).unwrap());
        charge(&mut acc, 0.9).unwrap();
        let err = charge(&mut acc, 0.2).unwrap_err();
        assert!(matches!(err, DpError::BudgetExhausted { .. }));
        // A refused hold leaves the accountant untouched.
        assert!((acc.spent().value() - 0.9).abs() < 1e-12);
        assert_eq!(acc.operations(), 1);
        // A fitting charge still succeeds.
        charge(&mut acc, 0.1).unwrap();
        assert!(acc.is_exhausted());
    }

    #[test]
    fn accountant_tolerates_float_accumulation() {
        let mut acc = BudgetAccountant::new(Epsilon::new(1.0).unwrap());
        for _ in 0..10 {
            charge(&mut acc, 0.1).unwrap();
        }
        assert!(acc.is_exhausted());
        assert!(charge(&mut acc, 0.01).is_err());
    }

    #[test]
    fn zero_spend_always_succeeds() {
        let mut acc = BudgetAccountant::new(Epsilon::new(0.0).unwrap());
        charge(&mut acc, 0.0).unwrap();
        assert!(acc.is_exhausted());
    }

    #[test]
    fn reserve_holds_budget_until_resolved() {
        let mut acc = BudgetAccountant::new(Epsilon::new(1.0).unwrap());
        let hold = acc.reserve(Epsilon::new(0.6).unwrap()).unwrap();
        assert!((acc.reserved().value() - 0.6).abs() < 1e-12);
        assert!((acc.remaining().value() - 0.4).abs() < 1e-12);
        // Nothing is spent yet, and no operation is recorded.
        assert_eq!(acc.spent().value(), 0.0);
        assert_eq!(acc.operations(), 0);
        // The hold counts against further reservations.
        assert!(acc.reserve(Epsilon::new(0.5).unwrap()).is_err());
        acc.commit(hold);
        assert_eq!(acc.reserved().value(), 0.0);
        assert!((acc.spent().value() - 0.6).abs() < 1e-12);
        assert_eq!(acc.operations(), 1);
    }

    #[test]
    fn rollback_restores_the_full_hold() {
        let mut acc = BudgetAccountant::new(Epsilon::new(1.0).unwrap());
        charge(&mut acc, 0.3).unwrap();
        let hold = acc.reserve(Epsilon::new(0.5).unwrap()).unwrap();
        assert!((acc.remaining().value() - 0.2).abs() < 1e-12);
        acc.rollback(hold);
        assert!((acc.remaining().value() - 0.7).abs() < 1e-12);
        assert!((acc.spent().value() - 0.3).abs() < 1e-12);
        assert_eq!(acc.operations(), 1, "rollbacks are not operations");
        // The released budget is spendable again.
        charge(&mut acc, 0.7).unwrap();
        assert!(acc.is_exhausted());
    }

    #[test]
    fn multiple_outstanding_reservations_compose() {
        let mut acc = BudgetAccountant::new(Epsilon::new(1.0).unwrap());
        let a = acc.reserve(Epsilon::new(0.4).unwrap()).unwrap();
        let b = acc.reserve(Epsilon::new(0.4).unwrap()).unwrap();
        assert!(acc.reserve(Epsilon::new(0.4).unwrap()).is_err());
        acc.commit(a);
        acc.rollback(b);
        assert!((acc.spent().value() - 0.4).abs() < 1e-12);
        assert!((acc.remaining().value() - 0.6).abs() < 1e-12);
        assert_eq!(acc.reserved().value(), 0.0);
    }
}
