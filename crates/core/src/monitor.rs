//! Continuous monitoring: long-term private queries over a live stream.
//!
//! The paper's one-sample/many-queries design assumes a static dataset;
//! real IoT deployments re-collect as data arrives (the "long-term
//! queries via continuous data collection" line of its related work,
//! §VI). [`ContinuousMonitor`] keeps one network of `nodes` sensors and
//! one broker for as long as it lives, and runs the full private
//! pipeline once per *epoch* over a sliding window of recent records:
//!
//! 1. each record sits on one node for as long as it is in the window —
//!    the record with stream sequence number `s` on node `s mod nodes` —
//!    so an epoch only adds the records that arrived since the last one
//!    and removes the ones the window evicted;
//! 2. every node forgets its previous draws and the network collects a
//!    fresh sample, independent of every earlier epoch's
//!    ([`SensorNetwork::resample`](prc_net::network::SensorNetwork::resample));
//! 3. the broker answers the standing query at the epoch's accuracy and
//!    charges the epoch's effective budget to the session accountant —
//!    the monitor stops (returns [`CoreError::Dp`]) when the session
//!    budget is exhausted, making the privacy cost of *indefinite*
//!    monitoring explicit.
//!
//! The network always has `nodes` nodes, so `k` is `nodes` in every
//! epoch: while the window holds fewer records than that, the nodes
//! without data report a population of zero.
//!
//! The accountant charges the epochs sequentially, and that is the sound
//! charge, not merely a conservative one: consecutive windows overlap
//! almost entirely (a one-week window of five-minute records that slides
//! by one hour shares 2,004 of its 2,016 records with the previous
//! epoch's), so parallel composition over disjoint data does not apply.
//! Each epoch's sample is independent of the others, so their ε′ add up.

use prc_data::record::{AirQualityIndex, PollutionRecord};
use prc_data::stream::SlidingWindow;
use prc_dp::budget::Epsilon;

use prc_net::message::NodeId;
use prc_net::network::{DataEdit, FlatNetwork, Network};

use crate::broker::{DataBroker, IndexPolicy, PrivateAnswer, StageCounters};
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
    /// This epoch's per-stage pipeline counters (collection rounds,
    /// samples delivered, plan-cache hits, releases).
    pub stages: StageCounters,
    /// Chargeable (non-piggybacked) messages this epoch's collection
    /// cost, read from the network's `CostMeter`.
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
    /// The one broker: it owns the network and the session accountant.
    broker: DataBroker,
    /// Records ingested so far: the next record's stream sequence number.
    ingested: u64,
    /// Records ingested when the nodes were last edited: a window record
    /// with a smaller sequence number is on its node.
    placed: u64,
    /// Values the next epoch removes from the nodes, one per evicted
    /// record that was on a node. The arrivals are read from the window.
    edits: Vec<DataEdit>,
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
        let network = FlatNetwork::from_partitions(vec![Vec::new(); config.nodes], config.seed);
        let mut broker = DataBroker::new(network, config.seed);
        // Each sample answers one query, so an index would cost far more
        // to build than it saves; index and scan release the same bits.
        broker.set_index_policy(IndexPolicy::Never);
        broker.set_privacy_budget(config.session_budget);
        ContinuousMonitor {
            window: SlidingWindow::new(config.window_seconds),
            broker,
            config,
            ingested: 0,
            placed: 0,
            edits: Vec::new(),
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
        // The broker holds the session accountant from `new` on.
        self.broker
            .accountant()
            .map_or(self.config.session_budget, |session| session.remaining())
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
        let (nodes, index) = (self.config.nodes, self.config.index);
        for record in records {
            // The window holds sequence numbers `ingested − len ..
            // ingested` and evicts from the oldest.
            let mut leaving = self.ingested - self.window.len() as u64;
            let (placed, edits) = (self.placed, &mut self.edits);
            self.window.ingest_evicting(record, |old| {
                // A record that arrived after the last epoch never
                // reached its node.
                if leaving < placed {
                    edits.push(DataEdit::Remove(home(leaving, nodes), old.value(index)));
                }
                leaving += 1;
            });
            self.ingested += 1;
        }
    }

    /// Runs one epoch: moves the window's changes onto the nodes, draws a
    /// fresh sample, answers the standing query over it and charges the
    /// session budget.
    ///
    /// # Errors
    ///
    /// * [`CoreError::NoSamples`] — the window is empty;
    /// * [`CoreError::Dp`] — the session budget cannot cover this epoch
    ///   (nothing is released in that case);
    /// * any pipeline error from the underlying broker.
    pub fn answer_epoch(&mut self) -> Result<EpochResult, CoreError> {
        if self.window.is_empty() {
            return Err(CoreError::NoSamples);
        }
        let (nodes, index) = (self.config.nodes, self.config.index);
        let arrived = (self.ingested - self.placed).min(self.window.len() as u64);
        let arrivals = self.window.newest(arrived as usize);
        for (sequence, record) in (self.ingested - arrived..).zip(arrivals) {
            self.edits
                .push(DataEdit::Insert(home(sequence, nodes), record.value(index)));
        }
        self.broker
            .network_mut()
            .resample(self.config.seed ^ self.epoch, &self.edits);
        self.edits.clear();
        self.placed = self.ingested;

        let (stages, messages) = (self.broker.counters(), self.chargeable_messages());
        let request = QueryRequest::new(self.config.query, self.config.accuracy);
        let answer = self.broker.answer(&request)?;
        let result = EpochResult {
            epoch: self.epoch,
            window_size: self.window.len(),
            answer,
            budget_remaining: self.budget_remaining().value(),
            stages: self.broker.counters().since(stages),
            chargeable_messages: self.chargeable_messages() - messages,
        };
        self.epoch += 1;
        Ok(result)
    }

    /// Chargeable messages the network has sent so far.
    fn chargeable_messages(&self) -> u64 {
        self.broker
            .network()
            .meter()
            .snapshot()
            .chargeable_messages()
    }
}

/// The node a record lives on: its stream sequence number mod `nodes`.
fn home(sequence: u64, nodes: usize) -> NodeId {
    NodeId((sequence % nodes as u64) as u32)
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
