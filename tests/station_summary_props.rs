//! Property test for the base station's per-revision summary.
//!
//! `BaseStation` folds its station-wide aggregates once per revision and
//! serves every later read from that memo until an `ingest` changes a
//! record. The memo is only sound if every changing `ingest` drops it, so
//! this test drives random `ingest` sequences over a handful of node ids
//! — first reports (including empty Drop-mode batches), exact
//! re-deliveries, stale and raised probabilities, new entries, and
//! population moves to and from zero — and reads every aggregate after
//! every step. Each read must equal, bit for bit, a plain fold over
//! `node_samples()`: the definition each accessor memoizes. A stale memo
//! is served on the read after a changing step and fails the comparison.
//! The batches arrive sorted, unsorted and with repeated ranks, and each
//! node's entry list must equal the plain extend–sort–dedup fold of
//! everything it was sent.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use prc::net::base_station::BaseStation;
use prc::net::message::{NodeId, SampleEntry, SampleMessage};

/// Node ids the sequences draw from: few enough that most steps revisit
/// a node that has already reported.
const NODES: u64 = 5;

/// Probabilities the sequences draw from: repeated values keep stations
/// uniform often enough, and `0.0` exercises the zero-rate rule.
const PROBABILITIES: [f64; 6] = [0.0, 0.125, 0.25, 0.3, 0.5, 1.0];

/// Populations the sequences draw from, `0` included.
const POPULATIONS: [usize; 5] = [0, 1, 7, 40, 40];

/// Every aggregate, as comparable bits.
#[derive(Debug, PartialEq, Eq)]
struct Aggregates {
    effective_probability: u64,
    total_population: usize,
    total_samples: usize,
    uniform_probability: Option<u64>,
    max_population: usize,
    data_bearing_count: usize,
    node_count: usize,
}

/// What the accessors report.
fn served(station: &BaseStation) -> Aggregates {
    Aggregates {
        effective_probability: station.effective_probability().to_bits(),
        total_population: station.total_population(),
        total_samples: station.total_samples(),
        uniform_probability: station.uniform_probability().map(f64::to_bits),
        max_population: station.max_population(),
        data_bearing_count: station.data_bearing_count(),
        node_count: station.node_count(),
    }
}

/// The reference: one separate fold over the node records per aggregate.
fn folded(station: &BaseStation) -> Aggregates {
    let nodes = || station.node_samples();
    let effective = nodes()
        .map(|s| s.probability)
        .fold(f64::INFINITY, f64::min)
        .clamp(0.0, 1.0)
        .min(if nodes().next().is_none() { 0.0 } else { 1.0 });
    let uniform = || {
        let mut bits: Option<u64> = None;
        for sample in nodes().filter(|s| s.population_size > 0) {
            let b = sample.probability.to_bits();
            match bits {
                None => bits = Some(b),
                Some(prev) if prev == b => {}
                Some(_) => return None,
            }
        }
        let p = f64::from_bits(bits?);
        (p > 0.0).then_some(p)
    };
    Aggregates {
        effective_probability: effective.to_bits(),
        total_population: nodes().map(|s| s.population_size).sum(),
        total_samples: nodes().map(|s| s.len()).sum(),
        uniform_probability: uniform().map(f64::to_bits),
        max_population: nodes().map(|s| s.population_size).max().unwrap_or(0),
        data_bearing_count: nodes().filter(|s| s.population_size > 0).count(),
        node_count: nodes().count(),
    }
}

/// A batch of up to seven entries at ranks drawn from `word`, within
/// `1..=population`. When bit 3 of `word` is set the batch is a
/// strictly rank-increasing run, as a node ships it; otherwise it keeps
/// the drawn order, so it may be unsorted and may repeat a rank. A value
/// is its rank plus its draw index in eighths: rank order stays value
/// order, and the entry lists show which copy of a repeated rank a
/// merge kept.
fn entries(word: u64, population: usize) -> Vec<SampleEntry> {
    if population == 0 {
        return Vec::new();
    }
    let mut batch: Vec<SampleEntry> = (0..(word % 8))
        .map(|i| {
            let rank = ((word >> (5 * i + 4)) % population as u64) as u32 + 1;
            SampleEntry {
                value: f64::from(rank) + i as f64 / 8.0,
                rank,
            }
        })
        .collect();
    if word & 8 != 0 {
        batch.sort_by_key(|e| e.rank);
        batch.dedup_by_key(|e| e.rank);
    }
    batch
}

/// The reference merge: extend, stable sort by rank, keep the first
/// entry of each rank.
fn reference_merge(held: &mut Vec<SampleEntry>, batch: &[SampleEntry]) {
    held.extend_from_slice(batch);
    held.sort_by_key(|e| e.rank);
    held.dedup_by_key(|e| e.rank);
}

/// Decodes one step of a sequence into the message it ingests, given the
/// node's current record and the last message delivered to it.
fn step(word: u64, station: &BaseStation, last: Option<&SampleMessage>) -> SampleMessage {
    let node_id = NodeId((word % NODES) as u32);
    let pick_p = |shift: u32| PROBABILITIES[((word >> shift) % 6) as usize];
    let pick_n = |shift: u32| POPULATIONS[((word >> shift) % 5) as usize];
    let Some(record) = station.node_sample(node_id) else {
        // First report: an empty Drop-mode registration or a real batch.
        let population = pick_n(12);
        let batch = if (word >> 4).is_multiple_of(3) {
            Vec::new()
        } else {
            entries(word >> 20, population)
        };
        return SampleMessage {
            node_id,
            population_size: population,
            probability: pick_p(8),
            entries: batch,
        };
    };
    let current = SampleMessage {
        node_id,
        population_size: record.population_size,
        probability: record.probability,
        entries: Vec::new(),
    };
    match (word >> 4) % 6 {
        // Re-delivery of the last batch this node sent.
        0 => last.cloned().unwrap_or(current),
        // A stale, lower probability.
        1 => SampleMessage {
            probability: record.probability * 0.5,
            ..current
        },
        // A raised probability, with or without new entries.
        2 => SampleMessage {
            probability: pick_p(8).max(record.probability),
            entries: entries(word >> 20, record.population_size),
            ..current
        },
        // New entries at the current probability.
        3 => SampleMessage {
            entries: entries(word >> 20, record.population_size),
            ..current
        },
        // A population move, to or from zero included.
        4 => SampleMessage {
            population_size: pick_n(12),
            ..current
        },
        // An empty Drop-mode batch at some probability.
        _ => SampleMessage {
            probability: pick_p(8),
            ..current
        },
    }
}

fn check(station: &BaseStation, at: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(served(station), folded(station), "step {}", at);
    Ok(())
}

/// Every reported node's entry list equals its reference fold.
fn check_entries(
    station: &BaseStation,
    reference: &[Vec<SampleEntry>],
    at: usize,
) -> Result<(), TestCaseError> {
    for sample in station.node_samples() {
        prop_assert_eq!(
            sample.entries(),
            &reference[sample.node_id.0 as usize][..],
            "entries of node {} at step {}",
            sample.node_id.0,
            at
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After every ingest, each aggregate equals its reference fold bit
    /// for bit, each node's entry list equals the reference merge of
    /// every batch it was sent (unsorted and repeated ranks included),
    /// and an exact re-delivery leaves the revision unchanged.
    #[test]
    fn aggregates_match_the_reference_after_every_ingest(
        words in proptest::collection::vec(any::<u64>(), 1..64),
    ) {
        let mut station = BaseStation::new();
        let mut last: Vec<Option<SampleMessage>> = vec![None; NODES as usize];
        let mut reference: Vec<Vec<SampleEntry>> = vec![Vec::new(); NODES as usize];
        check(&station, 0)?;
        for (at, &word) in words.iter().enumerate() {
            let message = step(word, &station, last[(word % NODES) as usize].as_ref());
            let slot = message.node_id.0 as usize;
            let redelivery = last[slot].as_ref() == Some(&message);
            let before = station.revision();
            reference_merge(&mut reference[slot], &message.entries);
            station.ingest(message.clone());
            if redelivery {
                prop_assert_eq!(station.revision(), before, "re-delivery at step {}", at);
            }
            last[slot] = Some(message);
            check(&station, at + 1)?;
            check_entries(&station, &reference, at + 1)?;
            // A clone carries the memo; it must still describe the state.
            check(&station.clone(), at + 1)?;
        }
    }
}
