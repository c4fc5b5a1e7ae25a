//! Radio energy accounting and network-lifetime estimation.
//!
//! The paper's motivation — and its related work (\[16\] Boulis et al.,
//! \[17\] Tang & Xu) — is the *energy–accuracy trade-off*: every byte a
//! battery-powered node transmits shortens the network's life. This
//! module converts the [`crate::network::CostMeter`]'s per-node byte
//! counts into energy, and energy into the classic lifetime metric
//! (rounds until the first node dies).

use std::collections::BTreeMap;

use crate::message::NodeId;
use crate::network::CostMeter;

/// A linear radio energy model: `energy = fixed + per_byte · bytes` per
/// transmission burst, in nanojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Energy per transmitted byte, nJ.
    pub tx_nj_per_byte: f64,
    /// Fixed per-round radio wake-up overhead, nJ.
    pub wakeup_nj: f64,
}

impl EnergyModel {
    /// A model shaped like a CC2420-class 802.15.4 radio: ≈ 1.6 µJ per
    /// transmitted byte and ≈ 10 µJ of wake-up overhead per round.
    pub fn low_power_radio() -> Self {
        EnergyModel {
            tx_nj_per_byte: 1_600.0,
            wakeup_nj: 10_000.0,
        }
    }

    /// Creates a custom model.
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are finite and non-negative.
    pub fn new(tx_nj_per_byte: f64, wakeup_nj: f64) -> Self {
        assert!(
            tx_nj_per_byte.is_finite() && tx_nj_per_byte >= 0.0,
            "per-byte energy must be finite and non-negative"
        );
        assert!(
            wakeup_nj.is_finite() && wakeup_nj >= 0.0,
            "wake-up energy must be finite and non-negative"
        );
        EnergyModel {
            tx_nj_per_byte,
            wakeup_nj,
        }
    }

    /// Energy for one node that transmitted `bytes` this round, nJ.
    pub fn round_energy_nj(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0; // silent nodes keep the radio off
        }
        self.wakeup_nj + self.tx_nj_per_byte * bytes as f64
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::low_power_radio()
    }
}

/// Per-node energy report for a collection round (or a whole session).
///
/// # Examples
///
/// ```
/// use prc_net::energy::{EnergyModel, EnergyReport};
/// use prc_net::network::FlatNetwork;
///
/// let mut network = FlatNetwork::from_partitions(
///     vec![(0..500).map(f64::from).collect(); 4], 7);
/// network.collect_samples(0.3);
/// let report = EnergyReport::from_meter(network.meter(), &EnergyModel::low_power_radio());
/// assert_eq!(report.active_nodes(), 4);
/// // A 10 J battery survives some number of identical rounds.
/// assert!(report.lifetime_rounds(10e9).unwrap() > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyReport {
    per_node_nj: BTreeMap<NodeId, f64>,
}

impl EnergyReport {
    /// Builds a report from a cost meter's per-node byte counts.
    pub fn from_meter(meter: &CostMeter, model: &EnergyModel) -> Self {
        let per_node_nj = meter
            .per_node_bytes()
            .into_iter()
            .map(|(node, bytes)| (node, model.round_energy_nj(bytes)))
            .collect();
        EnergyReport { per_node_nj }
    }

    /// Energy spent by one node, nJ (zero when it never transmitted).
    pub fn node_energy_nj(&self, node: NodeId) -> f64 {
        self.per_node_nj.get(&node).copied().unwrap_or(0.0)
    }

    /// Total energy across all nodes, nJ.
    pub fn total_nj(&self) -> f64 {
        self.per_node_nj.values().sum()
    }

    /// The most drained node and its energy, if any node transmitted.
    pub fn hottest_node(&self) -> Option<(NodeId, f64)> {
        self.per_node_nj
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(&n, &e)| (n, e))
    }

    /// Number of nodes that transmitted.
    pub fn active_nodes(&self) -> usize {
        self.per_node_nj.len()
    }

    /// Classic lifetime metric: the number of identical rounds a network
    /// survives before its *most drained* node exhausts a battery of
    /// `battery_nj`, treating this report as one round's consumption.
    ///
    /// Returns `None` when no node consumed anything (infinite lifetime).
    pub fn lifetime_rounds(&self, battery_nj: f64) -> Option<u64> {
        let (_, max) = self.hottest_node()?;
        if max <= 0.0 {
            return None;
        }
        Some((battery_nj / max).floor() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::FlatNetwork;
    use crate::tree::TreeNetwork;

    fn partitions(k: usize, per_node: usize) -> Vec<Vec<f64>> {
        (0..k)
            .map(|i| (0..per_node).map(|j| (i * per_node + j) as f64).collect())
            .collect()
    }

    #[test]
    fn model_arithmetic() {
        let model = EnergyModel::new(100.0, 1_000.0);
        assert_eq!(model.round_energy_nj(0), 0.0);
        assert_eq!(model.round_energy_nj(10), 2_000.0);
        let default = EnergyModel::default();
        assert_eq!(default, EnergyModel::low_power_radio());
    }

    #[test]
    #[should_panic(expected = "per-byte energy")]
    fn negative_energy_panics() {
        let _ = EnergyModel::new(-1.0, 0.0);
    }

    #[test]
    fn report_tracks_per_node_bytes() {
        let mut net = FlatNetwork::from_partitions(partitions(4, 500), 3);
        net.collect_samples(0.3);
        let report = EnergyReport::from_meter(net.meter(), &EnergyModel::low_power_radio());
        assert_eq!(report.active_nodes(), 4);
        assert!(report.total_nj() > 0.0);
        let (hot, hot_energy) = report.hottest_node().unwrap();
        assert!(hot_energy >= report.node_energy_nj(NodeId(0)));
        assert!(report.node_energy_nj(hot) == hot_energy);
        assert_eq!(report.node_energy_nj(NodeId(99)), 0.0);
    }

    #[test]
    fn energy_grows_with_sampling_probability() {
        let energy_at = |p: f64| {
            let mut net = FlatNetwork::from_partitions(partitions(5, 1_000), 7);
            net.collect_samples(p);
            EnergyReport::from_meter(net.meter(), &EnergyModel::low_power_radio()).total_nj()
        };
        assert!(energy_at(0.4) > energy_at(0.05) * 2.0);
    }

    #[test]
    fn tree_costs_more_energy_than_flat() {
        let parts = partitions(15, 400);
        let mut flat = FlatNetwork::from_partitions(parts.clone(), 9);
        flat.collect_samples(0.3);
        let mut tree = TreeNetwork::from_partitions(parts, 2, 9);
        tree.collect_samples(0.3);
        let model = EnergyModel::low_power_radio();
        let flat_energy = EnergyReport::from_meter(flat.meter(), &model).total_nj();
        let tree_energy = EnergyReport::from_meter(tree.meter(), &model).total_nj();
        assert!(
            tree_energy > flat_energy,
            "hop relaying must cost energy: {tree_energy} vs {flat_energy}"
        );
    }

    #[test]
    fn lifetime_shrinks_with_heavier_sampling() {
        let lifetime_at = |p: f64| {
            let mut net = FlatNetwork::from_partitions(partitions(5, 2_000), 11);
            net.collect_samples(p);
            EnergyReport::from_meter(net.meter(), &EnergyModel::low_power_radio())
                .lifetime_rounds(10e9) // a 10 J battery
                .unwrap()
        };
        assert!(lifetime_at(0.05) > lifetime_at(0.5));
    }

    #[test]
    fn silent_network_has_infinite_lifetime() {
        let net = FlatNetwork::from_partitions(partitions(2, 10), 0);
        let report = EnergyReport::from_meter(net.meter(), &EnergyModel::low_power_radio());
        assert_eq!(report.lifetime_rounds(1e9), None);
        assert_eq!(report.active_nodes(), 0);
        assert_eq!(report.total_nj(), 0.0);
    }
}
