//! Long-term operation: a city runs a standing private query over the
//! live pollution stream, a customer audits every answer it buys, and a
//! broker selling at history-aware prices handles quoting/charging — the
//! glue APIs working together.
//!
//! ```text
//! cargo run --release --example continuous_monitoring
//! ```

// Demo binaries may die loudly; library code is held to prc-lint's P rules instead.
#![allow(clippy::unwrap_used)]

use prc::core::monitor::{ContinuousMonitor, MonitorConfig};
use prc::core::optimizer::NetworkShape;
use prc::data::stream::StreamReplayer;
use prc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. A standing query over the live stream ----------------------
    // "How many high-PM readings in the last 12 hours?" answered every
    // 3 hours under one session privacy budget.
    let dataset = CityPulseGenerator::new(2026)
        .record_count(4_000)
        .outages(0.005, 12.0) // real sensors go dark sometimes
        .generate();
    println!(
        "stream: {} records (sensor outages punched {} gaps worth of slots)",
        dataset.len(),
        4_000 - dataset.len()
    );

    let mut replay = StreamReplayer::new(&dataset);
    let mut monitor = ContinuousMonitor::new(MonitorConfig {
        query: RangeQuery::new(100.0, 200.0)?,
        accuracy: Accuracy::new(0.15, 0.6)?,
        index: AirQualityIndex::ParticulateMatter,
        window_seconds: 12 * 3_600,
        nodes: 8,
        session_budget: Epsilon::new(0.5)?,
        seed: 2026,
    });

    println!("\nstanding query: PM in [100, 200], 12 h window, ε-session budget 0.5");
    println!(
        "{:<8} {:>8} {:>10} {:>14} {:>16}",
        "epoch", "window", "answer", "ε' spent", "budget left"
    );
    let mut clock = replay.next_timestamp().unwrap();
    loop {
        clock = clock.plus_seconds(3 * 3_600);
        monitor.ingest(replay.advance_until(clock));
        if monitor.window_size() == 0 && replay.is_exhausted() {
            break;
        }
        match monitor.answer_epoch() {
            Ok(result) => println!(
                "{:<8} {:>8} {:>10.1} {:>14.5} {:>16.5}",
                result.epoch,
                result.window_size,
                result.answer.value.max(0.0),
                result.answer.plan.effective_epsilon.value(),
                result.budget_remaining
            ),
            Err(CoreError::Dp(_)) => {
                println!(
                    "-- session budget exhausted after {} epochs --",
                    monitor.epochs()
                );
                break;
            }
            Err(e) => return Err(e.into()),
        }
        if replay.is_exhausted() {
            break;
        }
    }

    // --- 2. A broker selling at history-aware prices to auditing consumers
    let network = FlatNetwork::from_dataset(
        &dataset,
        AirQualityIndex::ParticulateMatter,
        40,
        PartitionStrategy::RoundRobin,
        7,
    );
    let mut broker = DataBroker::new(network, 7);
    let model = ChebyshevVariance::new(dataset.len());
    let posted = SqrtPrecisionPricing::new(2e4, model);
    broker.enable_pricing(Box::new(HistoryAwarePricing::new(posted, model)));

    println!("\nmarketplace session (history-aware pricing, audited answers):");
    let request = QueryRequest::new(RangeQuery::new(100.0, 200.0)?, Accuracy::new(0.08, 0.8)?);
    for round in 1..=3 {
        let quote = broker.quote("analyst", &request)?.unwrap().price;
        let sale = broker.answer_as("analyst", &request)?;
        let shape = NetworkShape::from_station(broker.network().station())?;
        let audit = if verify_answer(&sale.answer, shape).is_ok() {
            "audit PASS"
        } else {
            "audit FAIL"
        };
        println!(
            "  purchase {round}: quoted {quote:>9.2}, charged {:>9.2}, answer {:>8.1}  [{audit}]",
            sale.price.unwrap(),
            sale.answer.value
        );
    }
    println!(
        "  total revenue {:.2} — equal to the posted price of the precision the analyst now holds",
        broker.pricing().unwrap().ledger().total_revenue()
    );
    println!("  (marginal pricing: each repeat purchase of the same query costs less)");
    Ok(())
}
