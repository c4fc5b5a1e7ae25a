//! Pollution records and datasets.
//!
//! A [`PollutionRecord`] mirrors one row of the CityPulse pollution stream:
//! a timestamp, the reporting sensor, and five air-quality index values.
//! A [`Dataset`] is an ordered collection of records with convenience
//! accessors used throughout the workspace (per-index value extraction,
//! time bounds, per-sensor grouping).

use crate::time::Timestamp;

/// The five air-quality indexes carried by every CityPulse pollution record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AirQualityIndex {
    /// Ground-level ozone (O₃).
    Ozone,
    /// Particulate matter (PM).
    ParticulateMatter,
    /// Carbon monoxide (CO).
    CarbonMonoxide,
    /// Sulfur dioxide (SO₂).
    SulfurDioxide,
    /// Nitrogen dioxide (NO₂).
    NitrogenDioxide,
}

impl AirQualityIndex {
    /// All five indexes, in the column order used by the CityPulse CSV files.
    pub const ALL: [AirQualityIndex; 5] = [
        AirQualityIndex::Ozone,
        AirQualityIndex::ParticulateMatter,
        AirQualityIndex::CarbonMonoxide,
        AirQualityIndex::SulfurDioxide,
        AirQualityIndex::NitrogenDioxide,
    ];

    /// Canonical snake_case column name.
    pub fn column_name(self) -> &'static str {
        match self {
            AirQualityIndex::Ozone => "ozone",
            AirQualityIndex::ParticulateMatter => "particulate_matter",
            AirQualityIndex::CarbonMonoxide => "carbon_monoxide",
            AirQualityIndex::SulfurDioxide => "sulfur_dioxide",
            AirQualityIndex::NitrogenDioxide => "nitrogen_dioxide",
        }
    }

    /// Human-readable name, as used in the paper's figures.
    pub fn display_name(self) -> &'static str {
        match self {
            AirQualityIndex::Ozone => "Ozone",
            AirQualityIndex::ParticulateMatter => "Particulate Matter",
            AirQualityIndex::CarbonMonoxide => "Carbon Monoxide",
            AirQualityIndex::SulfurDioxide => "Sulfur Dioxide",
            AirQualityIndex::NitrogenDioxide => "Nitrogen Dioxide",
        }
    }

    /// Position of this index within [`AirQualityIndex::ALL`].
    pub fn position(self) -> usize {
        match self {
            AirQualityIndex::Ozone => 0,
            AirQualityIndex::ParticulateMatter => 1,
            AirQualityIndex::CarbonMonoxide => 2,
            AirQualityIndex::SulfurDioxide => 3,
            AirQualityIndex::NitrogenDioxide => 4,
        }
    }
}

impl std::fmt::Display for AirQualityIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.display_name())
    }
}

/// Error returned when a string names no air-quality index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseIndexError {
    raw: String,
}

impl std::fmt::Display for ParseIndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown air-quality index `{}` (expected one of: ozone/o3, \
             particulate_matter/pm, carbon_monoxide/co, sulfur_dioxide/so2, \
             nitrogen_dioxide/no2)",
            self.raw
        )
    }
}

impl std::error::Error for ParseIndexError {}

impl std::str::FromStr for AirQualityIndex {
    type Err = ParseIndexError;

    /// Accepts the canonical column names plus the common chemical
    /// abbreviations, case-insensitively.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let needle = s.trim().to_ascii_lowercase();
        for index in AirQualityIndex::ALL {
            if index.column_name() == needle {
                return Ok(index);
            }
        }
        match needle.as_str() {
            "o3" => Ok(AirQualityIndex::Ozone),
            "pm" => Ok(AirQualityIndex::ParticulateMatter),
            "co" => Ok(AirQualityIndex::CarbonMonoxide),
            "so2" => Ok(AirQualityIndex::SulfurDioxide),
            "no2" => Ok(AirQualityIndex::NitrogenDioxide),
            _ => Err(ParseIndexError { raw: s.to_owned() }),
        }
    }
}

/// One observation row: a timestamp, the reporting sensor, and all five
/// air-quality index values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PollutionRecord {
    /// Observation time.
    pub timestamp: Timestamp,
    /// Identifier of the reporting road-side sensor.
    pub sensor_id: u32,
    /// Ozone index value.
    pub ozone: f64,
    /// Particulate-matter index value.
    pub particulate_matter: f64,
    /// Carbon-monoxide index value.
    pub carbon_monoxide: f64,
    /// Sulfur-dioxide index value.
    pub sulfur_dioxide: f64,
    /// Nitrogen-dioxide index value.
    pub nitrogen_dioxide: f64,
}

impl PollutionRecord {
    /// Value of the given air-quality index.
    pub fn value(&self, index: AirQualityIndex) -> f64 {
        match index {
            AirQualityIndex::Ozone => self.ozone,
            AirQualityIndex::ParticulateMatter => self.particulate_matter,
            AirQualityIndex::CarbonMonoxide => self.carbon_monoxide,
            AirQualityIndex::SulfurDioxide => self.sulfur_dioxide,
            AirQualityIndex::NitrogenDioxide => self.nitrogen_dioxide,
        }
    }
}

/// An ordered collection of pollution records.
///
/// Records are kept in insertion order (the generator and CSV reader both
/// produce time-ascending order).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dataset {
    records: Vec<PollutionRecord>,
}

impl Dataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Dataset::default()
    }

    /// Wraps an existing record vector.
    pub fn from_records(records: Vec<PollutionRecord>) -> Self {
        Dataset { records }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the dataset holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Appends a record.
    pub fn push(&mut self, record: PollutionRecord) {
        self.records.push(record);
    }

    /// Borrow the underlying records.
    pub fn records(&self) -> &[PollutionRecord] {
        &self.records
    }

    /// Iterator over records.
    pub fn iter(&self) -> std::slice::Iter<'_, PollutionRecord> {
        self.records.iter()
    }

    /// Extracts the values of one air-quality index, in record order.
    pub fn values(&self, index: AirQualityIndex) -> Vec<f64> {
        self.records.iter().map(|r| r.value(index)).collect()
    }

    /// Earliest and latest timestamps, or `None` for an empty dataset.
    pub fn time_bounds(&self) -> Option<(Timestamp, Timestamp)> {
        let min = self.records.iter().map(|r| r.timestamp).min()?;
        let max = self.records.iter().map(|r| r.timestamp).max()?;
        Some((min, max))
    }

    /// Returns the first `n` records (or all of them when `n >= len`).
    ///
    /// Used by the data-size sweep in the paper's Fig. 4 experiment.
    pub fn prefix(&self, n: usize) -> Dataset {
        Dataset {
            records: self.records.iter().copied().take(n).collect(),
        }
    }
}

impl FromIterator<PollutionRecord> for Dataset {
    fn from_iter<I: IntoIterator<Item = PollutionRecord>>(iter: I) -> Self {
        Dataset {
            records: iter.into_iter().collect(),
        }
    }
}

impl Extend<PollutionRecord> for Dataset {
    fn extend<I: IntoIterator<Item = PollutionRecord>>(&mut self, iter: I) {
        self.records.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Dataset {
    type Item = &'a PollutionRecord;
    type IntoIter = std::slice::Iter<'a, PollutionRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

impl IntoIterator for Dataset {
    type Item = PollutionRecord;
    type IntoIter = std::vec::IntoIter<PollutionRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ts: i64, sensor: u32, base: f64) -> PollutionRecord {
        PollutionRecord {
            timestamp: Timestamp(ts),
            sensor_id: sensor,
            ozone: base,
            particulate_matter: base + 1.0,
            carbon_monoxide: base + 2.0,
            sulfur_dioxide: base + 3.0,
            nitrogen_dioxide: base + 4.0,
        }
    }

    #[test]
    fn value_accessors_cover_every_index() {
        let r = rec(0, 1, 10.0);
        assert_eq!(r.value(AirQualityIndex::Ozone), 10.0);
        assert_eq!(r.value(AirQualityIndex::ParticulateMatter), 11.0);
        assert_eq!(r.value(AirQualityIndex::CarbonMonoxide), 12.0);
        assert_eq!(r.value(AirQualityIndex::SulfurDioxide), 13.0);
        assert_eq!(r.value(AirQualityIndex::NitrogenDioxide), 14.0);
    }

    #[test]
    fn all_positions_are_consistent() {
        for (i, idx) in AirQualityIndex::ALL.iter().enumerate() {
            assert_eq!(idx.position(), i);
        }
    }

    #[test]
    fn from_str_accepts_names_and_abbreviations() {
        for (raw, expected) in [
            ("ozone", AirQualityIndex::Ozone),
            ("O3", AirQualityIndex::Ozone),
            ("pm", AirQualityIndex::ParticulateMatter),
            ("particulate_matter", AirQualityIndex::ParticulateMatter),
            ("CO", AirQualityIndex::CarbonMonoxide),
            ("so2", AirQualityIndex::SulfurDioxide),
            (" no2 ", AirQualityIndex::NitrogenDioxide),
        ] {
            assert_eq!(raw.parse::<AirQualityIndex>().unwrap(), expected, "{raw}");
        }
        let err = "smog".parse::<AirQualityIndex>().unwrap_err();
        assert!(err.to_string().contains("smog"));
    }

    #[test]
    fn column_names_are_distinct() {
        let names: std::collections::HashSet<_> = AirQualityIndex::ALL
            .iter()
            .map(|i| i.column_name())
            .collect();
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn dataset_values_extract_in_order() {
        let ds = Dataset::from_records(vec![rec(0, 1, 1.0), rec(300, 1, 2.0), rec(600, 2, 3.0)]);
        assert_eq!(ds.values(AirQualityIndex::Ozone), vec![1.0, 2.0, 3.0]);
        assert_eq!(
            ds.values(AirQualityIndex::NitrogenDioxide),
            vec![5.0, 6.0, 7.0]
        );
    }

    #[test]
    fn time_bounds_and_sensors() {
        let ds = Dataset::from_records(vec![rec(600, 2, 1.0), rec(0, 1, 2.0), rec(300, 2, 3.0)]);
        assert_eq!(ds.time_bounds(), Some((Timestamp(0), Timestamp(600))));
        assert_eq!(Dataset::new().time_bounds(), None);
    }

    #[test]
    fn prefix_truncates() {
        let ds = Dataset::from_records(vec![rec(0, 1, 1.0), rec(300, 1, 2.0)]);
        assert_eq!(ds.prefix(1).len(), 1);
        assert_eq!(ds.prefix(10).len(), 2);
        assert_eq!(ds.prefix(0).len(), 0);
    }

    #[test]
    fn collect_and_extend() {
        let mut ds: Dataset = (0..3).map(|i| rec(i * 300, 1, i as f64)).collect();
        assert_eq!(ds.len(), 3);
        ds.extend([rec(900, 2, 9.0)]);
        assert_eq!(ds.len(), 4);
        let total: usize = (&ds).into_iter().count();
        assert_eq!(total, 4);
    }
}
