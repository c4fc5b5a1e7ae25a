//! Trade bookkeeping for the broker.
//!
//! A sale is recorded as plain numbers: the buyer is an id into the
//! ledger's name table (names are copied on a buyer's first sale, not
//! on every sale), and every sale is a pipeline settlement carrying the
//! released answer's [`PlanSummary`] as its six `f64`s. Text is
//! rendered only when someone reads it (`record.plan.to_string()`), so
//! a record is fixed-size and recording one formats nothing.

use std::collections::BTreeMap;

/// The release-facing digest of a perturbation plan: the numbers a
/// settlement record or log line needs, with the noise variance
/// derived once from the plan's own scale.
///
/// Owned by the pricing ledger, which stores one per settlement; the
/// broker builds it with `prc_core`'s
/// `PerturbationPlan::summary()` (re-exported there as
/// `prc_core::PlanSummary`). `Display` renders the summary as one line.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PlanSummary {
    /// Laplace budget `ε`.
    pub epsilon: f64,
    /// Effective (amplified) budget `ε′`.
    pub effective_epsilon: f64,
    /// Sensitivity `Δγ̂`.
    pub sensitivity: f64,
    /// Laplace noise scale `b`.
    pub noise_scale: f64,
    /// Noise variance `2b²`.
    pub noise_variance: f64,
    /// Sampling probability the plan assumes.
    pub probability: f64,
}

impl std::fmt::Display for PlanSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ε={} ε′={} Δ={} b={} 2b²={} p={}",
            self.epsilon,
            self.effective_epsilon,
            self.sensitivity,
            self.noise_scale,
            self.noise_variance,
            self.probability
        )
    }
}

/// One recorded sale.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TradeRecord {
    /// Monotone sequence number assigned by the ledger.
    pub sequence: u64,
    /// The purchasing consumer: an index into [`TradeLedger::buyers`].
    pub buyer: usize,
    /// Error bound the answer was sold at.
    pub alpha: f64,
    /// Confidence the answer was sold at.
    pub delta: f64,
    /// Price charged.
    pub price: f64,
    /// Perturbation-plan summary of the released answer.
    pub plan: PlanSummary,
}

/// An append-only ledger of sales with revenue accounting.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TradeLedger {
    records: Vec<TradeRecord>,
    /// Distinct buyer names, in order of first sale.
    buyers: Vec<String>,
    /// Name → index into `buyers`.
    buyer_ids: BTreeMap<String, usize>,
}

impl TradeLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        TradeLedger::default()
    }

    /// Records one pipeline settlement — a sale carrying the released
    /// answer's plan summary — and returns its sequence number, interning
    /// `buyer` on its first sale.
    ///
    /// # Panics
    ///
    /// Panics if `price` is negative or not finite.
    pub fn record_settlement(
        &mut self,
        buyer: &str,
        alpha: f64,
        delta: f64,
        price: f64,
        plan: PlanSummary,
    ) -> u64 {
        assert!(
            price.is_finite() && price >= 0.0,
            "price must be finite and non-negative, got {price}"
        );
        let buyer = match self.buyer_id(buyer) {
            Some(id) => id,
            None => {
                let id = self.buyers.len();
                self.buyers.push(buyer.to_owned());
                self.buyer_ids.insert(buyer.to_owned(), id);
                id
            }
        };
        let sequence = self.records.len() as u64;
        self.records.push(TradeRecord {
            sequence,
            buyer,
            alpha,
            delta,
            price,
            plan,
        });
        sequence
    }

    /// The id [`TradeRecord::buyer`] gives `buyer`, if they have bought.
    pub(crate) fn buyer_id(&self, buyer: &str) -> Option<usize> {
        self.buyer_ids.get(buyer).copied()
    }

    /// Number of recorded sales.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no sale has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records, in recording order.
    pub fn records(&self) -> &[TradeRecord] {
        &self.records
    }

    /// The buyer-name table [`TradeRecord::buyer`] indexes: each
    /// distinct buyer once, in order of first sale.
    pub fn buyers(&self) -> &[String] {
        &self.buyers
    }

    /// Total revenue across all sales.
    pub fn total_revenue(&self) -> f64 {
        self.records.iter().map(|r| r.price).sum()
    }

    /// Revenue per buyer, in buyer-name order.
    pub fn revenue_by_buyer(&self) -> BTreeMap<String, f64> {
        let mut revenue = vec![0.0; self.buyers.len()];
        for r in &self.records {
            revenue[r.buyer] += r.price;
        }
        self.buyers.iter().cloned().zip(revenue).collect()
    }

    /// Total spend of one buyer.
    pub fn buyer_spend(&self, buyer: &str) -> f64 {
        let id = self.buyer_id(buyer);
        self.records
            .iter()
            .filter(|r| Some(r.buyer) == id)
            .map(|r| r.price)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(noise_variance: f64) -> PlanSummary {
        PlanSummary {
            epsilon: 0.8,
            effective_epsilon: 0.3,
            sensitivity: 2.0,
            noise_scale: (noise_variance / 2.0).sqrt(),
            noise_variance,
            probability: 0.4,
        }
    }

    /// Records a sale whose plan is the same for every test sale.
    fn sell(ledger: &mut TradeLedger, buyer: &str, alpha: f64, delta: f64, price: f64) -> u64 {
        ledger.record_settlement(buyer, alpha, delta, price, plan(2.0))
    }

    #[test]
    fn records_accumulate_in_order() {
        let mut ledger = TradeLedger::new();
        assert!(ledger.is_empty());
        assert_eq!(sell(&mut ledger, "alice", 0.1, 0.8, 10.0), 0);
        assert_eq!(sell(&mut ledger, "bob", 0.2, 0.5, 4.0), 1);
        assert_eq!(sell(&mut ledger, "alice", 0.05, 0.9, 25.0), 2);
        assert_eq!(ledger.len(), 3);
        assert_eq!(ledger.buyers()[ledger.records()[1].buyer], "bob");
    }

    #[test]
    fn revenue_accounting() {
        let mut ledger = TradeLedger::new();
        sell(&mut ledger, "alice", 0.1, 0.8, 10.0);
        sell(&mut ledger, "bob", 0.2, 0.5, 4.0);
        sell(&mut ledger, "alice", 0.05, 0.9, 25.0);
        assert!((ledger.total_revenue() - 39.0).abs() < 1e-12);
        assert!((ledger.buyer_spend("alice") - 35.0).abs() < 1e-12);
        assert_eq!(ledger.buyer_spend("carol"), 0.0);
        let by_buyer = ledger.revenue_by_buyer();
        assert_eq!(by_buyer.len(), 2);
        assert!((by_buyer["bob"] - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "price must be finite")]
    fn negative_price_panics() {
        sell(&mut TradeLedger::new(), "mallory", 0.1, 0.5, -1.0);
    }

    #[test]
    fn settlements_carry_the_released_answer_metadata() {
        let mut ledger = TradeLedger::new();
        sell(&mut ledger, "alice", 0.1, 0.8, 10.0);
        let seq = ledger.record_settlement("bob", 0.05, 0.9, 25.0, plan(3.125));
        assert_eq!(seq, 1);
        let settled = &ledger.records()[1];
        assert_eq!(settled.plan.noise_variance, 3.125);
        assert_eq!(settled.plan.to_string(), plan(3.125).to_string());
        assert!((ledger.total_revenue() - 35.0).abs() < 1e-12);
    }

    #[test]
    fn each_buyer_gets_one_id() {
        let mut ledger = TradeLedger::new();
        for _ in 0..3 {
            sell(&mut ledger, "alice", 0.1, 0.8, 1.0);
            sell(&mut ledger, "bob", 0.1, 0.8, 1.0);
        }
        assert_eq!(ledger.buyers(), ["alice", "bob"]);
        let ids: Vec<usize> = ledger.records().iter().map(|r| r.buyer).collect();
        assert_eq!(ids, [0, 1, 0, 1, 0, 1]);
    }
}
