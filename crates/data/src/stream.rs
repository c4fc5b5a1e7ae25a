//! Streaming ingestion: replay and sliding windows.
//!
//! IoT data arrives continuously; long-term deployments answer queries
//! over a *window* of recent observations rather than the full history
//! (the "long-term queries via continuous data collection" setting the
//! paper's related work discusses). This module provides:
//!
//! * [`StreamReplayer`] — replays a recorded dataset in timestamp order,
//!   batch by batch, for simulating live operation;
//! * [`SlidingWindow`] — a time-based window that evicts records older
//!   than its span, handing each evicted record to the caller that asks,
//!   and exposing a [`Dataset`] snapshot at any instant.

use std::collections::VecDeque;

use crate::record::{Dataset, PollutionRecord};
use crate::time::Timestamp;

/// Replays a dataset in timestamp order, in caller-controlled steps.
#[derive(Debug, Clone)]
pub struct StreamReplayer {
    records: Vec<PollutionRecord>,
    position: usize,
}

impl StreamReplayer {
    /// Creates a replayer; records are sorted by timestamp (stable, so
    /// same-timestamp records keep their original order).
    pub fn new(dataset: &Dataset) -> Self {
        let mut records = dataset.records().to_vec();
        records.sort_by_key(|r| r.timestamp);
        StreamReplayer {
            records,
            position: 0,
        }
    }

    /// Number of records not yet replayed.
    pub fn remaining(&self) -> usize {
        self.records.len() - self.position
    }

    /// True when the stream is exhausted.
    pub fn is_exhausted(&self) -> bool {
        self.position >= self.records.len()
    }

    /// Timestamp of the next record, if any.
    pub fn next_timestamp(&self) -> Option<Timestamp> {
        self.records.get(self.position).map(|r| r.timestamp)
    }

    /// Advances the stream up to (and including) `until`, returning the
    /// released records.
    pub fn advance_until(&mut self, until: Timestamp) -> Vec<PollutionRecord> {
        let start = self.position;
        while self.position < self.records.len() && self.records[self.position].timestamp <= until {
            self.position += 1;
        }
        self.records[start..self.position].to_vec()
    }

    /// Releases the next `count` records (fewer at the end of the stream).
    pub fn advance_by(&mut self, count: usize) -> Vec<PollutionRecord> {
        let end = (self.position + count).min(self.records.len());
        let out = self.records[self.position..end].to_vec();
        self.position = end;
        out
    }
}

/// A time-based sliding window over a record stream.
///
/// # Examples
///
/// ```
/// use prc_data::generator::CityPulseGenerator;
/// use prc_data::stream::{SlidingWindow, StreamReplayer};
///
/// let dataset = CityPulseGenerator::new(1).record_count(100).generate();
/// let mut replay = StreamReplayer::new(&dataset);
/// let mut window = SlidingWindow::new(3_600); // one hour
/// window.ingest_all(replay.advance_by(50));
/// // Five-minute cadence: at most 12 records fit one hour.
/// assert!(window.len() <= 12);
/// assert_eq!(window.snapshot().len(), window.len());
/// ```
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    span_seconds: i64,
    records: VecDeque<PollutionRecord>,
}

impl SlidingWindow {
    /// Creates a window spanning the last `span_seconds` of data.
    ///
    /// # Panics
    ///
    /// Panics if `span_seconds` is not positive.
    pub fn new(span_seconds: i64) -> Self {
        assert!(span_seconds > 0, "window span must be positive");
        SlidingWindow {
            span_seconds,
            records: VecDeque::new(),
        }
    }

    /// The window span in seconds.
    pub fn span_seconds(&self) -> i64 {
        self.span_seconds
    }

    /// Ingests one record (must arrive in non-decreasing timestamp order)
    /// and evicts records that fall out of the window. Returns the number
    /// evicted.
    ///
    /// # Panics
    ///
    /// Panics when the record is older than the newest already ingested
    /// (out-of-order arrival).
    pub fn ingest(&mut self, record: PollutionRecord) -> usize {
        let mut evicted = 0;
        self.ingest_evicting(record, |_| evicted += 1);
        evicted
    }

    /// [`SlidingWindow::ingest`] that hands each evicted record to
    /// `evicted`, oldest first. The window holds the records in arrival
    /// order and evicts only from the oldest end.
    ///
    /// # Panics
    ///
    /// Panics when the record is older than the newest already ingested
    /// (out-of-order arrival).
    pub fn ingest_evicting(
        &mut self,
        record: PollutionRecord,
        mut evicted: impl FnMut(PollutionRecord),
    ) {
        if let Some(newest) = self.records.back() {
            assert!(
                record.timestamp >= newest.timestamp,
                "records must arrive in timestamp order"
            );
        }
        self.records.push_back(record);
        let horizon = record.timestamp.unix_seconds() - self.span_seconds;
        while let Some(front) = self.records.front() {
            if front.timestamp.unix_seconds() > horizon {
                break;
            }
            evicted(*front);
            self.records.pop_front();
        }
    }

    /// Ingests a batch, returning the total evictions.
    pub fn ingest_all(&mut self, records: impl IntoIterator<Item = PollutionRecord>) -> usize {
        records.into_iter().map(|r| self.ingest(r)).sum()
    }

    /// Number of records currently inside the window.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the window holds nothing.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Timestamps of the oldest and newest records, if any.
    pub fn bounds(&self) -> Option<(Timestamp, Timestamp)> {
        match (self.records.front(), self.records.back()) {
            (Some(a), Some(b)) => Some((a.timestamp, b.timestamp)),
            _ => None,
        }
    }

    /// A dataset snapshot of the current window contents.
    pub fn snapshot(&self) -> Dataset {
        Dataset::from_records(self.records.iter().copied().collect())
    }

    /// The newest `count` records in the window (all of them when it
    /// holds fewer), oldest first.
    pub fn newest(&self, count: usize) -> impl Iterator<Item = &PollutionRecord> {
        self.records
            .range(self.records.len().saturating_sub(count)..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::CityPulseGenerator;

    fn rec(ts: i64) -> PollutionRecord {
        PollutionRecord {
            timestamp: Timestamp(ts),
            sensor_id: 0,
            ozone: ts as f64,
            particulate_matter: 0.0,
            carbon_monoxide: 0.0,
            sulfur_dioxide: 0.0,
            nitrogen_dioxide: 0.0,
        }
    }

    #[test]
    fn replayer_releases_in_time_order() {
        let ds = Dataset::from_records(vec![rec(300), rec(0), rec(600), rec(150)]);
        let mut replay = StreamReplayer::new(&ds);
        assert_eq!(replay.remaining(), 4);
        assert_eq!(replay.next_timestamp(), Some(Timestamp(0)));
        let first = replay.advance_until(Timestamp(300));
        assert_eq!(
            first.iter().map(|r| r.timestamp.0).collect::<Vec<_>>(),
            vec![0, 150, 300]
        );
        let rest = replay.advance_until(Timestamp(10_000));
        assert_eq!(rest.len(), 1);
        assert!(replay.is_exhausted());
        assert!(replay.advance_until(Timestamp(20_000)).is_empty());
    }

    #[test]
    fn replayer_advance_by_counts() {
        let ds = CityPulseGenerator::new(1).record_count(10).generate();
        let mut replay = StreamReplayer::new(&ds);
        assert_eq!(replay.advance_by(3).len(), 3);
        assert_eq!(replay.advance_by(100).len(), 7);
        assert!(replay.is_exhausted());
        assert_eq!(replay.next_timestamp(), None);
    }

    #[test]
    fn window_evicts_old_records() {
        let mut window = SlidingWindow::new(600);
        assert_eq!(window.ingest(rec(0)), 0);
        assert_eq!(window.ingest(rec(300)), 0);
        assert_eq!(window.ingest(rec(600)), 1); // evicts ts=0 (600 - 600 = 0 is on the horizon)
        assert_eq!(window.len(), 2);
        assert_eq!(window.bounds(), Some((Timestamp(300), Timestamp(600))));
        assert_eq!(window.ingest(rec(2_000)), 2);
        assert_eq!(window.len(), 1);
    }

    #[test]
    #[should_panic(expected = "timestamp order")]
    fn out_of_order_ingest_panics() {
        let mut window = SlidingWindow::new(100);
        window.ingest(rec(500));
        window.ingest(rec(100));
    }

    #[test]
    #[should_panic(expected = "span must be positive")]
    fn zero_span_panics() {
        let _ = SlidingWindow::new(0);
    }

    #[test]
    fn snapshot_is_a_dataset() {
        let mut window = SlidingWindow::new(1_000);
        window.ingest_all([rec(0), rec(300), rec(600)]);
        let ds = window.snapshot();
        assert_eq!(ds.len(), 3);
        assert_eq!(
            ds.values(crate::record::AirQualityIndex::Ozone),
            vec![0.0, 300.0, 600.0]
        );
    }

    #[test]
    fn evictions_reach_the_caller_oldest_first() {
        let mut window = SlidingWindow::new(600);
        let mut evicted = Vec::new();
        for ts in [0, 100, 300, 650, 2_000] {
            window.ingest_evicting(rec(ts), |old| evicted.push(old.timestamp.0));
        }
        assert_eq!(evicted, vec![0, 100, 300, 650]);
        assert_eq!(window.len(), 1);
        let stamps = |w: &SlidingWindow, n| w.newest(n).map(|r| r.timestamp.0).collect::<Vec<_>>();
        window.ingest_all([rec(2_100), rec(2_200)]);
        assert_eq!(stamps(&window, 2), vec![2_100, 2_200]);
        assert_eq!(stamps(&window, 0), Vec::<i64>::new());
        assert_eq!(stamps(&window, 9), vec![2_000, 2_100, 2_200]);
    }

    #[test]
    fn replay_into_window_keeps_cadence() {
        // End-to-end: replay the generator stream through a 1-hour window.
        let ds = CityPulseGenerator::new(3).record_count(200).generate();
        let mut replay = StreamReplayer::new(&ds);
        let mut window = SlidingWindow::new(3_600);
        while !replay.is_exhausted() {
            let batch = replay.advance_by(10);
            window.ingest_all(batch);
            // Window never exceeds one hour of 5-minute records (12) + 1
            // boundary record.
            assert!(window.len() <= 13, "window {} too large", window.len());
        }
        assert_eq!(window.len(), 12);
        let (oldest, newest) = window.bounds().unwrap();
        assert!(newest.unix_seconds() - oldest.unix_seconds() < 3_600);
    }
}
