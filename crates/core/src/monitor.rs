//! Continuous monitoring: long-term private queries over a live stream.
//!
//! The paper's one-sample/many-queries design assumes a static dataset;
//! real IoT deployments re-collect as data arrives (the "long-term
//! queries via continuous data collection" line of its related work,
//! §VI). [`ContinuousMonitor`] runs the full private pipeline once per
//! *epoch* over a sliding window of recent records:
//!
//! 1. the window advances and a fresh network is built over its contents;
//! 2. the broker answers the standing query at the epoch's accuracy;
//! 3. the epoch's effective budget is charged to a session accountant —
//!    the monitor stops (returns [`CoreError::Dp`]) when the session
//!    budget is exhausted, making the privacy cost of *indefinite*
//!    monitoring explicit.
//!
//! Because each epoch's window contains (mostly) fresh records, epochs
//! over disjoint windows would compose in parallel; the accountant here
//! is deliberately conservative and charges sequentially, which stays
//! correct for overlapping windows.

use prc_data::partition::{partition_values, PartitionStrategy};
use prc_data::record::{AirQualityIndex, PollutionRecord};
use prc_data::stream::SlidingWindow;
use prc_dp::budget::{BudgetAccountant, Epsilon};

use prc_net::network::{FlatNetwork, Network};

use crate::broker::{DataBroker, PrivateAnswer, StageCounters};
use crate::error::CoreError;
use crate::query::{Accuracy, QueryRequest, RangeQuery};

/// Configuration of a continuous monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorConfig {
    /// The standing range query.
    pub query: RangeQuery,
    /// Accuracy demanded for every epoch's answer.
    pub accuracy: Accuracy,
    /// The air-quality index monitored.
    pub index: AirQualityIndex,
    /// Window span in seconds.
    pub window_seconds: i64,
    /// Number of nodes the window's records are distributed over.
    pub nodes: usize,
    /// Total privacy budget for the whole monitoring session.
    pub session_budget: Epsilon,
    /// RNG seed.
    pub seed: u64,
}

/// One epoch's released result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochResult {
    /// Epoch number, starting at 0.
    pub epoch: u64,
    /// Records inside the window at answer time.
    pub window_size: usize,
    /// The released private answer.
    pub answer: PrivateAnswer,
    /// Session budget remaining after this epoch.
    pub budget_remaining: f64,
    /// Per-stage pipeline counters for this epoch (collection rounds,
    /// samples delivered, cache traffic, releases).
    pub stages: StageCounters,
    /// Chargeable (non-piggybacked) messages this epoch's collection
    /// cost, from the epoch network's `CostMeter`.
    pub chargeable_messages: u64,
}

/// A long-running private monitor over a sliding window.
///
/// # Examples
///
/// ```
/// use prc_core::monitor::{ContinuousMonitor, MonitorConfig};
/// use prc_core::query::{Accuracy, RangeQuery};
/// use prc_data::generator::CityPulseGenerator;
/// use prc_data::record::AirQualityIndex;
/// use prc_data::stream::StreamReplayer;
/// use prc_dp::budget::Epsilon;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dataset = CityPulseGenerator::new(1).record_count(600).generate();
/// let mut replay = StreamReplayer::new(&dataset);
/// let mut monitor = ContinuousMonitor::new(MonitorConfig {
///     query: RangeQuery::new(60.0, 140.0)?,
///     accuracy: Accuracy::new(0.2, 0.5)?,
///     index: AirQualityIndex::Ozone,
///     window_seconds: 6 * 3600,
///     nodes: 4,
///     session_budget: Epsilon::new(5.0)?,
///     seed: 1,
/// });
/// monitor.ingest(replay.advance_by(200));
/// let epoch = monitor.answer_epoch()?;
/// assert_eq!(epoch.epoch, 0);
/// assert!(epoch.answer.value.is_finite());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ContinuousMonitor {
    config: MonitorConfig,
    window: SlidingWindow,
    accountant: BudgetAccountant,
    epoch: u64,
}

impl ContinuousMonitor {
    /// Creates a monitor.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0` or `window_seconds <= 0`.
    pub fn new(config: MonitorConfig) -> Self {
        assert!(config.nodes > 0, "monitor needs at least one node");
        ContinuousMonitor {
            window: SlidingWindow::new(config.window_seconds),
            accountant: BudgetAccountant::new(config.session_budget),
            config,
            epoch: 0,
        }
    }

    /// The monitor's configuration.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// Number of epochs answered so far.
    pub fn epochs(&self) -> u64 {
        self.epoch
    }

    /// Session budget still available.
    pub fn budget_remaining(&self) -> Epsilon {
        self.accountant.remaining()
    }

    /// Records currently inside the window.
    pub fn window_size(&self) -> usize {
        self.window.len()
    }

    /// Ingests newly arrived records (timestamp-ordered) without
    /// answering.
    ///
    /// # Panics
    ///
    /// Panics when records arrive out of timestamp order.
    pub fn ingest(&mut self, records: impl IntoIterator<Item = PollutionRecord>) {
        self.window.ingest_all(records);
    }

    /// Runs one epoch: answers the standing query over the current window
    /// and charges the session budget.
    ///
    /// # Errors
    ///
    /// * [`CoreError::NoSamples`] — the window is empty;
    /// * [`CoreError::Dp`] — the session budget cannot cover this epoch
    ///   (nothing is released in that case);
    /// * any pipeline error from the underlying broker.
    pub fn answer_epoch(&mut self) -> Result<EpochResult, CoreError> {
        let values = self.window.values(self.config.index);
        if values.is_empty() {
            return Err(CoreError::NoSamples);
        }
        let nodes = self.config.nodes.min(values.len());
        let network = FlatNetwork::from_partitions(
            partition_values(&values, nodes, PartitionStrategy::RoundRobin),
            self.config.seed ^ self.epoch,
        );
        let mut broker = DataBroker::new(network, self.config.seed ^ (self.epoch << 17));
        // Thread the session accountant through the epoch broker: the
        // pipeline's Reserve stage holds this epoch's effective ε′
        // against it before any noise is drawn, and Settle commits the
        // hold — nothing is released when the session cannot pay.
        let session = std::mem::replace(
            &mut self.accountant,
            BudgetAccountant::new(self.config.session_budget),
        );
        broker.install_accountant(session);
        let outcome = broker.answer(&QueryRequest::new(self.config.query, self.config.accuracy));
        if let Some(session) = broker.take_accountant() {
            self.accountant = session;
        }
        let answer = outcome?;
        let result = EpochResult {
            epoch: self.epoch,
            window_size: values.len(),
            answer,
            budget_remaining: self.accountant.remaining().value(),
            stages: broker.counters(),
            chargeable_messages: broker.network().meter().snapshot().chargeable_messages(),
        };
        self.epoch += 1;
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prc_data::generator::CityPulseGenerator;
    use prc_data::stream::StreamReplayer;

    fn config(budget: f64) -> MonitorConfig {
        MonitorConfig {
            query: RangeQuery::new(60.0, 140.0).unwrap(),
            accuracy: Accuracy::new(0.15, 0.5).unwrap(),
            index: AirQualityIndex::Ozone,
            window_seconds: 6 * 3_600,
            nodes: 8,
            session_budget: Epsilon::new(budget).unwrap(),
            seed: 42,
        }
    }

    #[test]
    fn monitor_answers_epochs_over_a_replayed_stream() {
        let dataset = CityPulseGenerator::new(5).record_count(2_000).generate();
        let mut replay = StreamReplayer::new(&dataset);
        let mut monitor = ContinuousMonitor::new(config(10.0));

        let mut results = Vec::new();
        for _ in 0..6 {
            monitor.ingest(replay.advance_by(200));
            let result = monitor.answer_epoch().unwrap();
            results.push(result);
        }
        assert_eq!(monitor.epochs(), 6);
        // Epoch numbers are sequential; budget decreases monotonically.
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.epoch, i as u64);
            assert!(r.window_size > 0);
            assert!(r.answer.value.is_finite());
            // Per-stage counters are threaded through from the broker.
            assert!(r.stages.collection_rounds >= 1);
            assert!(r.stages.samples_collected > 0);
            assert_eq!(r.stages.answers_released, 1);
            assert!(r.chargeable_messages > 0);
        }
        for pair in results.windows(2) {
            assert!(pair[1].budget_remaining < pair[0].budget_remaining);
        }
    }

    #[test]
    fn window_eviction_bounds_the_population() {
        // 6 h window over 5-minute records = at most 72-ish records.
        let dataset = CityPulseGenerator::new(7).record_count(3_000).generate();
        let mut replay = StreamReplayer::new(&dataset);
        let mut monitor = ContinuousMonitor::new(config(50.0));
        for _ in 0..10 {
            monitor.ingest(replay.advance_by(300));
            let result = monitor.answer_epoch().unwrap();
            assert!(
                result.window_size <= 73,
                "window {} exceeded its span",
                result.window_size
            );
        }
    }

    #[test]
    fn exhausted_session_budget_stops_the_monitor() {
        let dataset = CityPulseGenerator::new(9).record_count(2_000).generate();
        let mut replay = StreamReplayer::new(&dataset);
        // Learn a typical per-epoch cost first.
        let mut probe = ContinuousMonitor::new(config(100.0));
        probe.ingest(replay.advance_by(300));
        let per_epoch = probe
            .answer_epoch()
            .unwrap()
            .answer
            .plan
            .effective_epsilon
            .value();

        let mut replay = StreamReplayer::new(&dataset);
        let mut monitor = ContinuousMonitor::new(config(per_epoch * 2.5));
        let mut served = 0;
        let mut stopped = false;
        for _ in 0..10 {
            monitor.ingest(replay.advance_by(300));
            match monitor.answer_epoch() {
                Ok(_) => served += 1,
                Err(CoreError::Dp(prc_dp::DpError::BudgetExhausted { .. })) => {
                    stopped = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(stopped, "monitor should hit its session budget");
        assert!(served >= 2, "served only {served}");
        assert!(monitor.budget_remaining().value() < per_epoch);
    }

    #[test]
    fn empty_window_is_reported() {
        let mut monitor = ContinuousMonitor::new(config(1.0));
        assert!(matches!(monitor.answer_epoch(), Err(CoreError::NoSamples)));
        assert_eq!(monitor.epochs(), 0);
        assert_eq!(monitor.window_size(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        let mut c = config(1.0);
        c.nodes = 0;
        let _ = ContinuousMonitor::new(c);
    }
}
