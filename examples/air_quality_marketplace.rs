//! The paper's motivating scenario (§I): a smart-city data broker sells
//! pollution-level range counts to analysts with different accuracy and
//! budget needs, under a global privacy budget.
//!
//! ```text
//! cargo run --release --example air_quality_marketplace
//! ```

// Demo binaries may die loudly; library code is held to prc-lint's P rules instead.
#![allow(clippy::unwrap_used)]

use prc::prelude::*;

struct Customer {
    name: &'static str,
    index: AirQualityIndex,
    range: (f64, f64),
    accuracy: (f64, f64),
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = CityPulseGenerator::new(2014).generate();
    let model = ChebyshevVariance::new(dataset.len());
    let mut sales = Vec::new();

    // One broker per air-quality index, sharing nothing (parallel
    // composition would apply across disjoint series; we keep separate
    // budgets for clarity).
    let customers = [
        Customer {
            name: "city-dashboard",
            index: AirQualityIndex::Ozone,
            range: (120.0, 200.0), // high-ozone episodes
            accuracy: (0.10, 0.60),
        },
        Customer {
            name: "health-agency",
            index: AirQualityIndex::ParticulateMatter,
            range: (90.0, 200.0), // PM above the alert threshold
            accuracy: (0.04, 0.90),
        },
        Customer {
            name: "logistics-co",
            index: AirQualityIndex::NitrogenDioxide,
            range: (60.0, 100.0), // typical traffic-driven band
            accuracy: (0.15, 0.50),
        },
        Customer {
            name: "research-lab",
            index: AirQualityIndex::SulfurDioxide,
            range: (20.0, 60.0),
            accuracy: (0.06, 0.80),
        },
    ];

    println!("{:=<100}", "");
    println!(
        "{:<16} {:<20} {:>12} {:>12} {:>10} {:>12} {:>10}",
        "customer", "series", "truth", "answer", "rel err", "ε' spent", "price"
    );
    println!("{:-<100}", "");

    for customer in &customers {
        let network = FlatNetwork::from_dataset(
            &dataset,
            customer.index,
            50,
            PartitionStrategy::RoundRobin,
            99,
        );
        let truth = network.exact_range_count(customer.range.0, customer.range.1);
        let mut broker = DataBroker::new(network, 99);
        broker.set_privacy_budget(Epsilon::new(1.0)?);
        broker.enable_pricing(Box::new(PostedPriceEngine::new(
            InverseVariancePricing::new(5e8, model),
            model,
        )));

        let request = QueryRequest::new(
            RangeQuery::new(customer.range.0, customer.range.1)?,
            Accuracy::new(customer.accuracy.0, customer.accuracy.1)?,
        );
        let PricedAnswer { answer, price, .. } = broker.answer_as(customer.name, &request)?;
        let price = price.unwrap();
        sales.push((customer.name, price));

        let rel_err = if truth > 0 {
            (answer.value - truth as f64).abs() / truth as f64 * 100.0
        } else {
            f64::NAN
        };
        println!(
            "{:<16} {:<20} {:>12} {:>12.1} {:>9.2}% {:>12.4} {:>10.2}",
            customer.name,
            customer.index.display_name(),
            truth,
            answer.value,
            rel_err,
            answer.plan.effective_epsilon.value(),
            price
        );
    }

    println!("{:-<100}", "");
    println!(
        "broker revenue: {:.2} credits over {} trades",
        sales.iter().map(|&(_, price)| price).sum::<f64>(),
        sales.len()
    );
    sales.sort_by_key(|&(buyer, _)| buyer);
    for (buyer, revenue) in sales {
        println!("  {buyer:<16} {revenue:>10.2}");
    }
    println!("\nnote: stricter accuracy (health-agency) pays the most — price is c/V(α, δ),");
    println!("and the broker's optimizer spends the least privacy each demand allows.");
    Ok(())
}
