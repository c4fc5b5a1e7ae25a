//! Quickstart: buy one private range count end to end.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

// Demo binaries may die loudly; library code is held to prc-lint's P rules instead.
#![allow(clippy::unwrap_used)]

use prc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Data. The paper's evaluation dataset is the 2014 CityPulse
    //    pollution stream: 17,568 records with five air-quality indexes.
    //    We synthesize an equivalent (see DESIGN.md §2).
    let dataset = CityPulseGenerator::new(42).generate();
    println!("dataset: {} records", dataset.len());

    // 2. Network. Distribute the ozone series over 50 IoT nodes that
    //    report samples to a base station.
    let network = FlatNetwork::from_dataset(
        &dataset,
        AirQualityIndex::Ozone,
        50,
        PartitionStrategy::RoundRobin,
        42,
    );
    let truth = network.exact_range_count(80.0, 120.0);

    // 3. Broker, selling at the arbitrage-avoiding price c/V(α, δ). Buy
    //    the number of readings in [80, 120] with at most 5% relative
    //    error, 80% of the time.
    let mut broker = DataBroker::new(network, 42);
    let model = ChebyshevVariance::new(dataset.len());
    broker.enable_pricing(Box::new(PostedPriceEngine::new(
        InverseVariancePricing::new(1e9, model),
        model,
    )));
    let request = QueryRequest::new(RangeQuery::new(80.0, 120.0)?, Accuracy::new(0.05, 0.8)?);
    let PricedAnswer { answer, price, .. } = broker.answer_as("quickstart", &request)?;

    println!("query:            {}", request);
    println!("true count:       {truth}");
    println!("private answer:   {:.1}", answer.value);
    println!(
        "perturbation:     α'={:.4}, δ'={:.4}, ε={:.4}, effective ε'={:.4}",
        answer.plan.alpha_prime,
        answer.plan.delta_prime,
        answer.plan.epsilon.value(),
        answer.plan.effective_epsilon.value()
    );

    // 4. Price, quoted before the answer was released.
    println!("price charged:    {:.2} credits", price.unwrap());

    // 5. Cost. How much communication did serving this cost the network?
    let cost = broker.network().meter().snapshot();
    println!(
        "network cost:     {} samples, {} messages, {} bytes (vs {} raw records)",
        cost.samples,
        cost.messages,
        cost.bytes,
        dataset.len()
    );
    Ok(())
}
