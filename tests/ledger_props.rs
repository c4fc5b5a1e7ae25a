//! Interning buyer names and storing plans as numbers changes no ledger
//! result.
//!
//! Random sequences of `record` and `record_settlement` over a small
//! buyer pool run against a reference ledger that keeps every buyer
//! name and rendered plan as a plain `String`, in the same order. Every
//! revenue figure must match bit for bit, including the sign of zero:
//! prices of `0.0` and `−0.0` are both legal, and an empty `.sum()` of
//! `f64`s is `−0.0`, so an unknown buyer's spend is compared by its
//! bits, not by value.

use std::collections::BTreeMap;

use proptest::prelude::*;

use prc::prelude::*;

/// Buyers sharing prefixes, plus the empty name.
const BUYERS: [&str; 6] = ["", "a", "ab", "abc", "b", "buyer-01"];
/// Names never recorded.
const STRANGERS: [&str; 3] = ["abcd", "c", "buyer-1"];
/// Prices whose sums depend on the order they are added in.
const PRICES: [f64; 8] = [0.0, -0.0, 0.1, 0.2, 0.3, 1e16, 1.0, 2.5e-7];

/// One sale stored the plain way: an owned name and a rendered plan.
struct Sale {
    sequence: u64,
    buyer: String,
    price: f64,
    plan: Option<String>,
}

/// The ledger's accounting over plain strings.
#[derive(Default)]
struct Reference(Vec<Sale>);

impl Reference {
    fn record(&mut self, buyer: &str, price: f64, plan: Option<PlanSummary>) -> u64 {
        let sequence = self.0.len() as u64;
        self.0.push(Sale {
            sequence,
            buyer: buyer.to_owned(),
            price,
            plan: plan.map(|p| p.to_string()),
        });
        sequence
    }

    fn total_revenue(&self) -> f64 {
        self.0.iter().map(|s| s.price).sum()
    }

    fn revenue_by_buyer(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for s in &self.0 {
            *out.entry(s.buyer.clone()).or_insert(0.0) += s.price;
        }
        out
    }

    fn buyer_spend(&self, buyer: &str) -> f64 {
        self.0
            .iter()
            .filter(|s| s.buyer == buyer)
            .map(|s| s.price)
            .sum()
    }
}

/// A plan summary derived from one op's bits.
fn plan(bits: u64) -> PlanSummary {
    let epsilon = 0.05 + (bits % 97) as f64 / 10.0;
    let noise_scale = 1.0 / epsilon;
    PlanSummary {
        epsilon,
        effective_epsilon: epsilon / 3.0,
        sensitivity: 1.0,
        noise_scale,
        noise_variance: 2.0 * noise_scale * noise_scale,
        probability: 0.01 + (bits % 89) as f64 / 100.0,
    }
}

fn by_buyer_bits(revenue: &BTreeMap<String, f64>) -> Vec<(String, u64)> {
    revenue
        .iter()
        .map(|(name, r)| (name.clone(), r.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn interned_ledger_matches_a_string_ledger(
        ops in proptest::collection::vec(any::<u64>(), 0..120),
    ) {
        let mut ledger = TradeLedger::new();
        let mut reference = Reference::default();
        for op in ops {
            let buyer = BUYERS[(op % BUYERS.len() as u64) as usize];
            let price = PRICES[((op >> 8) % PRICES.len() as u64) as usize];
            let settled = (op >> 16) & 1 == 1;
            let (alpha, delta) = (0.1, 0.6);
            let (sequence, expected) = if settled {
                let plan = plan(op >> 17);
                (
                    ledger.record_settlement(buyer, alpha, delta, price, plan),
                    reference.record(buyer, price, Some(plan)),
                )
            } else {
                (
                    ledger.record(buyer, alpha, delta, price),
                    reference.record(buyer, price, None),
                )
            };
            prop_assert_eq!(sequence, expected);
        }

        prop_assert_eq!(ledger.len(), reference.0.len());
        for (record, sale) in ledger.records().iter().zip(&reference.0) {
            prop_assert_eq!(record.sequence, sale.sequence);
            prop_assert_eq!(ledger.buyers()[record.buyer].as_str(), sale.buyer.as_str());
            prop_assert_eq!(record.price.to_bits(), sale.price.to_bits());
            prop_assert_eq!(record.plan.map(|p| p.to_string()), sale.plan.clone());
        }
        prop_assert_eq!(ledger.total_revenue().to_bits(), reference.total_revenue().to_bits());
        prop_assert_eq!(
            by_buyer_bits(&ledger.revenue_by_buyer()),
            by_buyer_bits(&reference.revenue_by_buyer())
        );
        for buyer in BUYERS.iter().chain(&STRANGERS) {
            prop_assert_eq!(
                ledger.buyer_spend(buyer).to_bits(),
                reference.buyer_spend(buyer).to_bits()
            );
        }
    }
}
