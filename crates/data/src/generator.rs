//! Seeded synthetic CityPulse-like pollution data.
//!
//! The paper evaluates on the 2014 CityPulse Smart City pollution dataset
//! (17,568 records at a five-minute cadence, 2014-08-01 00:05 through
//! 2014-10-01 00:00, five air-quality indexes per record). The original
//! hosting service is offline, so [`CityPulseGenerator`] synthesizes a
//! dataset with the same shape:
//!
//! * identical record count, cadence, and date range by default;
//! * five bounded series (values clipped to the 0–200 AQI-style band the
//!   CityPulse observation generator used);
//! * temporal structure: per-index baselines, diurnal and weekly cycles,
//!   AR(1) noise, and occasional pollution spikes.
//!
//! Every experiment in the paper depends only on the multiset of values and
//! their per-node ordering, so this substitution preserves the evaluated
//! behaviour (see DESIGN.md §2).
//!
//! The generator is deterministic for a fixed seed and configuration.

// prc-lint: allow(B003, reason = "seeded simulation randomness for synthetic datasets; not privacy noise")
use rand::{rngs::StdRng, Rng, RngExt, SeedableRng};

use crate::record::{AirQualityIndex, Dataset, PollutionRecord};
use crate::time::Timestamp;

/// Number of records in the original CityPulse pollution dataset.
pub const CITYPULSE_RECORD_COUNT: usize = 17_568;

/// Observation cadence of the original dataset, in seconds.
pub const CITYPULSE_INTERVAL_SECONDS: i64 = 300;

/// Per-index shape parameters for the synthetic series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesProfile {
    /// Long-run mean level.
    pub baseline: f64,
    /// Amplitude of the diurnal (24 h) cycle.
    pub diurnal_amplitude: f64,
    /// Hour of day (0–24) at which the diurnal cycle peaks.
    pub peak_hour: f64,
    /// Multiplier applied on weekends (traffic-driven indexes drop).
    pub weekend_factor: f64,
    /// AR(1) coefficient of the noise process, in `[0, 1)`.
    pub ar_coefficient: f64,
    /// Standard deviation of the AR(1) innovations.
    pub noise_std: f64,
    /// Per-record probability of starting a pollution spike.
    pub spike_probability: f64,
    /// Magnitude added at the start of a spike (decays geometrically).
    pub spike_magnitude: f64,
}

impl SeriesProfile {
    /// Default profile for a given air-quality index.
    ///
    /// The numbers are chosen so the five series differ in level, spread,
    /// and temporal character (ozone peaks mid-afternoon, NO₂/CO follow
    /// traffic with morning/evening mass, SO₂ is flat and low), matching
    /// the qualitative behaviour of urban road-side measurements.
    pub fn for_index(index: AirQualityIndex) -> Self {
        match index {
            AirQualityIndex::Ozone => SeriesProfile {
                baseline: 95.0,
                diurnal_amplitude: 30.0,
                peak_hour: 15.0,
                weekend_factor: 1.0,
                ar_coefficient: 0.85,
                noise_std: 9.0,
                spike_probability: 0.002,
                spike_magnitude: 35.0,
            },
            AirQualityIndex::ParticulateMatter => SeriesProfile {
                baseline: 70.0,
                diurnal_amplitude: 18.0,
                peak_hour: 8.0,
                weekend_factor: 0.85,
                ar_coefficient: 0.9,
                noise_std: 12.0,
                spike_probability: 0.004,
                spike_magnitude: 55.0,
            },
            AirQualityIndex::CarbonMonoxide => SeriesProfile {
                baseline: 55.0,
                diurnal_amplitude: 22.0,
                peak_hour: 18.0,
                weekend_factor: 0.8,
                ar_coefficient: 0.8,
                noise_std: 10.0,
                spike_probability: 0.003,
                spike_magnitude: 45.0,
            },
            AirQualityIndex::SulfurDioxide => SeriesProfile {
                baseline: 40.0,
                diurnal_amplitude: 8.0,
                peak_hour: 12.0,
                weekend_factor: 0.95,
                ar_coefficient: 0.7,
                noise_std: 7.0,
                spike_probability: 0.001,
                spike_magnitude: 30.0,
            },
            AirQualityIndex::NitrogenDioxide => SeriesProfile {
                baseline: 80.0,
                diurnal_amplitude: 25.0,
                peak_hour: 9.0,
                weekend_factor: 0.75,
                ar_coefficient: 0.88,
                noise_std: 11.0,
                spike_probability: 0.003,
                spike_magnitude: 50.0,
            },
        }
    }
}

/// Builder-style generator for synthetic CityPulse-like pollution datasets.
///
/// # Examples
///
/// ```
/// use prc_data::generator::CityPulseGenerator;
///
/// // Default configuration: the full 17,568-record dataset.
/// let full = CityPulseGenerator::new(7).generate();
/// assert_eq!(full.len(), 17_568);
///
/// // A smaller dataset for fast tests.
/// let small = CityPulseGenerator::new(7).record_count(100).generate();
/// assert_eq!(small.len(), 100);
/// ```
#[derive(Debug, Clone)]
pub struct CityPulseGenerator {
    seed: u64,
    record_count: usize,
    interval_seconds: i64,
    start: Timestamp,
    sensor_count: u32,
    value_bounds: (f64, f64),
    profiles: [SeriesProfile; 5],
    outage_probability: f64,
    outage_mean_slots: f64,
}

impl CityPulseGenerator {
    /// Creates a generator with the paper's dataset dimensions and the
    /// given RNG seed.
    pub fn new(seed: u64) -> Self {
        CityPulseGenerator {
            seed,
            record_count: CITYPULSE_RECORD_COUNT,
            interval_seconds: CITYPULSE_INTERVAL_SECONDS,
            start: Timestamp::from_civil(2014, 8, 1, 0, 5, 0),
            sensor_count: 8,
            value_bounds: (0.0, 200.0),
            profiles: [
                SeriesProfile::for_index(AirQualityIndex::Ozone),
                SeriesProfile::for_index(AirQualityIndex::ParticulateMatter),
                SeriesProfile::for_index(AirQualityIndex::CarbonMonoxide),
                SeriesProfile::for_index(AirQualityIndex::SulfurDioxide),
                SeriesProfile::for_index(AirQualityIndex::NitrogenDioxide),
            ],
            outage_probability: 0.0,
            outage_mean_slots: 12.0,
        }
    }

    /// Overrides the number of records to generate.
    pub fn record_count(mut self, count: usize) -> Self {
        self.record_count = count;
        self
    }

    /// Overrides the observation cadence in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is not positive.
    pub fn interval_seconds(mut self, seconds: i64) -> Self {
        assert!(seconds > 0, "interval must be positive, got {seconds}");
        self.interval_seconds = seconds;
        self
    }

    /// Overrides the timestamp of the first record.
    pub fn start(mut self, start: Timestamp) -> Self {
        self.start = start;
        self
    }

    /// Overrides the number of distinct reporting sensors (records cycle
    /// through sensors round-robin).
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn sensor_count(mut self, count: u32) -> Self {
        assert!(count > 0, "sensor count must be positive");
        self.sensor_count = count;
        self
    }

    /// Overrides the clipping bounds applied to every generated value.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high` or either bound is not finite.
    pub fn value_bounds(mut self, low: f64, high: f64) -> Self {
        assert!(low.is_finite() && high.is_finite(), "bounds must be finite");
        assert!(low < high, "bounds must satisfy low < high");
        self.value_bounds = (low, high);
        self
    }

    /// Overrides the shape profile of one series.
    pub fn profile(mut self, index: AirQualityIndex, profile: SeriesProfile) -> Self {
        self.profiles[index.position()] = profile;
        self
    }

    /// Enables sensor outages: with probability `start_probability` per
    /// time slot a gap begins, swallowing a geometric number of slots
    /// with the given mean. The generated dataset then has *fewer* records
    /// than `record_count` slots, with irregular timestamp gaps — the
    /// real-world condition the streaming layer has to tolerate.
    ///
    /// # Panics
    ///
    /// Panics unless `start_probability ∈ [0, 1)` and `mean_slots ≥ 1`.
    pub fn outages(mut self, start_probability: f64, mean_slots: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&start_probability),
            "outage probability must be in [0, 1)"
        );
        assert!(
            mean_slots >= 1.0,
            "mean outage duration must be at least one slot"
        );
        self.outage_probability = start_probability;
        self.outage_mean_slots = mean_slots;
        self
    }

    /// Generates the dataset.
    ///
    /// Deterministic: the same configuration and seed always produce the
    /// same records.
    pub fn generate(&self) -> Dataset {
        let mut rng = StdRng::seed_from_u64(self.seed);
        // Independent AR(1) state and spike level per series.
        let mut ar_state = [0.0f64; 5];
        let mut spike_level = [0.0f64; 5];
        let (lo, hi) = self.value_bounds;

        let mut records = Vec::with_capacity(self.record_count);
        let mut outage_remaining = 0u64;
        for i in 0..self.record_count {
            let timestamp = self.start.plus_seconds(i as i64 * self.interval_seconds);
            let hour = timestamp.hour_of_day();
            let weekend = timestamp.day_of_week() >= 5;

            // Sensor outage handling: during a gap the time slot passes
            // but no record is produced (the AR state keeps evolving so
            // post-gap values stay continuous).
            let skip_this_slot = if outage_remaining > 0 {
                outage_remaining -= 1;
                true
            } else if self.outage_probability > 0.0 && rng.random::<f64>() < self.outage_probability
            {
                // Geometric duration with the configured mean; this slot
                // is the first of the gap.
                let continue_p = 1.0 - 1.0 / self.outage_mean_slots;
                while rng.random::<f64>() < continue_p {
                    outage_remaining += 1;
                }
                true
            } else {
                false
            };

            let mut values = [0.0f64; 5];
            for (s, profile) in self.profiles.iter().enumerate() {
                // Diurnal cycle peaking at `peak_hour`.
                let phase = (hour - profile.peak_hour) / 24.0 * std::f64::consts::TAU;
                let diurnal = profile.diurnal_amplitude * phase.cos();
                // AR(1) noise with standard-normal innovations.
                let innovation = sample_standard_normal(&mut rng) * profile.noise_std;
                ar_state[s] = profile.ar_coefficient * ar_state[s] + innovation;
                // Occasional spikes that decay geometrically.
                if rng.random::<f64>() < profile.spike_probability {
                    spike_level[s] += profile.spike_magnitude;
                }
                spike_level[s] *= 0.97;

                let weekday_factor = if weekend { profile.weekend_factor } else { 1.0 };
                let value =
                    (profile.baseline + diurnal) * weekday_factor + ar_state[s] + spike_level[s];
                values[s] = value.clamp(lo, hi);
            }

            if !skip_this_slot {
                let [ozone, particulate_matter, carbon_monoxide, sulfur_dioxide, nitrogen_dioxide] =
                    values;
                records.push(PollutionRecord {
                    timestamp,
                    sensor_id: i as u32 % self.sensor_count,
                    ozone,
                    particulate_matter,
                    carbon_monoxide,
                    sulfur_dioxide,
                    nitrogen_dioxide,
                });
            }
        }
        Dataset::from_records(records)
    }
}

/// Samples a standard normal deviate via the Box–Muller transform.
fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.random();
        let u2: f64 = rng.random();
        if u1 > f64::MIN_POSITIVE {
            let r = (-2.0 * u1.ln()).sqrt();
            return r * (std::f64::consts::TAU * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn default_matches_paper_dimensions() {
        let ds = CityPulseGenerator::new(1).record_count(500).generate();
        assert_eq!(ds.len(), 500);
        let (first, _) = ds.time_bounds().unwrap();
        assert_eq!(first, Timestamp::from_civil(2014, 8, 1, 0, 5, 0));
        // Cadence is five minutes.
        let recs = ds.records();
        assert_eq!(
            recs[1].timestamp.unix_seconds() - recs[0].timestamp.unix_seconds(),
            300
        );
    }

    #[test]
    fn full_dataset_spans_two_months() {
        let ds = CityPulseGenerator::new(1).generate();
        assert_eq!(ds.len(), CITYPULSE_RECORD_COUNT);
        let (_, last) = ds.time_bounds().unwrap();
        // 17,568 records at 5-minute cadence starting 08-01 00:05 ends 10-01 00:00.
        assert_eq!(last, Timestamp::from_civil(2014, 10, 1, 0, 0, 0));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = CityPulseGenerator::new(99).record_count(300).generate();
        let b = CityPulseGenerator::new(99).record_count(300).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = CityPulseGenerator::new(1).record_count(300).generate();
        let b = CityPulseGenerator::new(2).record_count(300).generate();
        assert_ne!(a, b);
    }

    #[test]
    fn values_respect_bounds() {
        let ds = CityPulseGenerator::new(3).record_count(2_000).generate();
        for rec in &ds {
            for idx in AirQualityIndex::ALL {
                let v = rec.value(idx);
                assert!((0.0..=200.0).contains(&v), "{idx}: {v} out of bounds");
            }
        }
    }

    #[test]
    fn custom_bounds_are_enforced() {
        let ds = CityPulseGenerator::new(3)
            .record_count(500)
            .value_bounds(50.0, 60.0)
            .generate();
        for rec in &ds {
            assert!((50.0..=60.0).contains(&rec.ozone));
        }
    }

    #[test]
    fn series_have_distinct_levels() {
        let ds = CityPulseGenerator::new(4).record_count(5_000).generate();
        let mean = |idx| stats::mean(&ds.values(idx)).unwrap();
        // Ozone baseline (95) sits well above sulfur dioxide (40).
        assert!(mean(AirQualityIndex::Ozone) > mean(AirQualityIndex::SulfurDioxide) + 20.0);
        // NO2 sits above CO.
        assert!(mean(AirQualityIndex::NitrogenDioxide) > mean(AirQualityIndex::CarbonMonoxide));
    }

    #[test]
    fn diurnal_cycle_is_visible() {
        // Ozone should average higher near its 15:00 peak than at 03:00.
        let ds = CityPulseGenerator::new(5).generate();
        let mut peak = Vec::new();
        let mut trough = Vec::new();
        for rec in &ds {
            let h = rec.timestamp.hour_of_day();
            if (14.0..16.0).contains(&h) {
                peak.push(rec.ozone);
            } else if (2.0..4.0).contains(&h) {
                trough.push(rec.ozone);
            }
        }
        let m_peak = stats::mean(&peak).unwrap();
        let m_trough = stats::mean(&trough).unwrap();
        assert!(
            m_peak > m_trough + 20.0,
            "expected diurnal contrast, got peak={m_peak:.1} trough={m_trough:.1}"
        );
    }

    #[test]
    fn sensors_cycle_round_robin() {
        let ds = CityPulseGenerator::new(6)
            .record_count(10)
            .sensor_count(3)
            .generate();
        let ids: Vec<u32> = ds.iter().map(|r| r.sensor_id).collect();
        assert_eq!(ids, vec![0, 1, 2, 0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn outages_create_gaps() {
        let slots = 5_000;
        let clean = CityPulseGenerator::new(8).record_count(slots).generate();
        let gappy = CityPulseGenerator::new(8)
            .record_count(slots)
            .outages(0.01, 10.0)
            .generate();
        assert_eq!(clean.len(), slots);
        assert!(gappy.len() < slots, "outages must drop records");
        // Expected loss ≈ slots · p · mean = 5000 · 0.01 · 10 ≈ 500 (±wide).
        let lost = slots - gappy.len();
        assert!((100..=1_500).contains(&lost), "lost {lost} records");
        // Timestamps now contain gaps larger than one interval.
        let has_gap = gappy
            .records()
            .windows(2)
            .any(|w| w[1].timestamp.unix_seconds() - w[0].timestamp.unix_seconds() > 300);
        assert!(has_gap, "expected at least one timestamp gap");
        // Still strictly increasing timestamps.
        assert!(gappy
            .records()
            .windows(2)
            .all(|w| w[1].timestamp > w[0].timestamp));
    }

    #[test]
    fn outages_are_deterministic() {
        let a = CityPulseGenerator::new(3)
            .record_count(1_000)
            .outages(0.02, 5.0)
            .generate();
        let b = CityPulseGenerator::new(3)
            .record_count(1_000)
            .outages(0.02, 5.0)
            .generate();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "outage probability")]
    fn outage_probability_one_panics() {
        let _ = CityPulseGenerator::new(0).outages(1.0, 5.0);
    }

    #[test]
    #[should_panic(expected = "mean outage duration")]
    fn outage_mean_below_one_panics() {
        let _ = CityPulseGenerator::new(0).outages(0.1, 0.5);
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_panics() {
        let _ = CityPulseGenerator::new(0).interval_seconds(0);
    }

    #[test]
    #[should_panic(expected = "low < high")]
    fn inverted_bounds_panic() {
        let _ = CityPulseGenerator::new(0).value_bounds(10.0, 10.0);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(12);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut rng)).collect();
        let m = stats::mean(&samples).unwrap();
        let v = stats::variance(&samples).unwrap();
        assert!(m.abs() < 0.02, "mean {m}");
        assert!((v - 1.0).abs() < 0.03, "variance {v}");
    }
}
