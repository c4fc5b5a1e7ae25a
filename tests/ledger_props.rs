//! The trade ledger and the history-aware engine that writes it.
//!
//! * Interning buyer names and storing plans as numbers changes no ledger
//!   result. Random sequences of `record_settlement` over a small buyer
//!   pool run against a reference ledger that keeps every buyer name and
//!   rendered plan as a plain `String`, in the same order. Every revenue
//!   figure must match bit for bit, including the sign of zero: prices of
//!   `0.0` and `−0.0` are both legal, and an empty `.sum()` of `f64`s is
//!   `−0.0`, so an unknown buyer's spend is compared by its bits, not by
//!   value.
//! * Selling through `answer_as` with `HistoryAwarePricing` installed
//!   charges, bit for bit, the marginal price `f(w_before + w_new) −
//!   f(w_before)` of a reference fold keyed by buyer and range, and a
//!   sale the budget refuses moves no ε, no ledger entry and no holding.

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
    plan: String,
}

/// The ledger's accounting over plain strings.
#[derive(Default)]
struct Reference(Vec<Sale>);

impl Reference {
    fn record(&mut self, buyer: &str, price: f64, plan: PlanSummary) -> u64 {
        let sequence = self.0.len() as u64;
        self.0.push(Sale {
            sequence,
            buyer: buyer.to_owned(),
            price,
            plan: plan.to_string(),
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
            let plan = plan(op >> 16);
            prop_assert_eq!(
                ledger.record_settlement(buyer, 0.1, 0.6, price, plan),
                reference.record(buyer, price, plan)
            );
        }

        prop_assert_eq!(ledger.len(), reference.0.len());
        for (record, sale) in ledger.records().iter().zip(&reference.0) {
            prop_assert_eq!(record.sequence, sale.sequence);
            prop_assert_eq!(ledger.buyers()[record.buyer].as_str(), sale.buyer.as_str());
            prop_assert_eq!(record.price.to_bits(), sale.price.to_bits());
            prop_assert_eq!(record.plan.to_string(), sale.plan.clone());
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

/// Buyers, ranges and demands of the history-engine sales. Two ranges
/// name one range: `RangeQuery::new` reads the `−0.0` bound as `+0.0`.
const HISTORY_BUYERS: [&str; 3] = ["alice", "bob", "carol"];
const RANGES: [(f64, f64); 3] = [(-0.0, 120.0), (0.0, 120.0), (60.5, 239.0)];
const DEMANDS: [(f64, f64); 3] = [(0.1, 0.6), (0.2, 0.5), (0.3, 0.8)];
/// Values `0..240` over four nodes.
const HISTORY_POPULATION: usize = 240;
/// Enough budget for a handful of fresh answers: each costs an ε′ of at
/// least 0.0145 here, so no sequence sells more than 13.
const HISTORY_BUDGET: f64 = 0.2;

/// A budgeted broker selling at history-aware prices over a √-precision
/// posted curve.
fn history_broker() -> DataBroker {
    let partitions: Vec<Vec<f64>> = (0..4)
        .map(|i| (0..60).map(|j| (i + 4 * j) as f64).collect())
        .collect();
    let mut broker = DataBroker::new(FlatNetwork::from_partitions(partitions, 5), 5);
    broker.set_privacy_budget(Epsilon::new(HISTORY_BUDGET).expect("valid budget"));
    let model = ChebyshevVariance::new(HISTORY_POPULATION);
    broker.enable_pricing(Box::new(HistoryAwarePricing::new(
        SqrtPrecisionPricing::new(1e3, model),
        model,
    )));
    broker
}

/// What a refused sale must leave alone: spent and reserved ε, the
/// accountant's operation count, and the ledger's length.
fn history_books(broker: &DataBroker) -> (u64, u64, u64, usize) {
    let accountant = broker.accountant().expect("the broker has a budget");
    let engine = broker.pricing().expect("the broker has an engine");
    (
        accountant.spent().value().to_bits(),
        accountant.reserved().value().to_bits(),
        accountant.operations(),
        engine.ledger().len(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn history_engine_charges_the_reference_fold_through_answer_as(
        ops in proptest::collection::vec(any::<u64>(), 1..24),
    ) {
        let model = ChebyshevVariance::new(HISTORY_POPULATION);
        let base = SqrtPrecisionPricing::new(1e3, model);
        let mut broker = history_broker();
        // The reference: precision held per (buyer, bound bits), folded
        // with the marginal-price formula, advanced only by a sale.
        let mut held: BTreeMap<(usize, u64, u64), f64> = BTreeMap::new();
        let mut sold: Vec<(usize, f64)> = Vec::new();
        let mut refused = 0;
        let sales = ops.len();
        for op in ops {
            let buyer = (op % 3) as usize;
            let (lower, upper) = RANGES[((op >> 8) % 3) as usize];
            let (alpha, delta) = DEMANDS[((op >> 16) % 3) as usize];
            let key = (buyer, (lower + 0.0).to_bits(), upper.to_bits());
            let w_new = 1.0 / model.variance(alpha, delta);
            let w_before = held.get(&key).copied().unwrap_or(0.0);
            let expected = (base.price_of_precision(w_before + w_new)
                - base.price_of_precision(w_before))
            .max(0.0);
            let request = QueryRequest::new(
                RangeQuery::new(lower, upper).unwrap(),
                Accuracy::new(alpha, delta).unwrap(),
            );
            let before = history_books(&broker);
            match broker.answer_as(HISTORY_BUYERS[buyer], &request) {
                Ok(sale) => {
                    prop_assert_eq!(sale.price.map(f64::to_bits), Some(expected.to_bits()));
                    *held.entry(key).or_insert(0.0) += w_new;
                    sold.push((buyer, expected));
                }
                Err(error) => {
                    prop_assert!(matches!(error, CoreError::Dp(_)), "{:?}", error);
                    prop_assert_eq!(history_books(&broker), before);
                    // The holding did not move: the quote is still the fold's.
                    let quote = broker.quote(HISTORY_BUYERS[buyer], &request).unwrap();
                    prop_assert_eq!(quote.map(|q| q.price.to_bits()), Some(expected.to_bits()));
                    refused += 1;
                }
            }
        }
        prop_assert!(sales < 14 || refused > 0, "the budget never ran out");
        let ledger = broker.pricing().unwrap().ledger();
        prop_assert_eq!(ledger.len(), sold.len());
        for (record, &(buyer, price)) in ledger.records().iter().zip(&sold) {
            prop_assert_eq!(ledger.buyers()[record.buyer].as_str(), HISTORY_BUYERS[buyer]);
            prop_assert_eq!(record.price.to_bits(), price.to_bits());
        }
        let revenue: f64 = sold.iter().map(|&(_, price)| price).sum();
        prop_assert_eq!(ledger.total_revenue().to_bits(), revenue.to_bits());
    }
}
