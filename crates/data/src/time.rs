//! Minimal civil-time handling for CityPulse timestamps.
//!
//! The CityPulse pollution dataset stamps every record with a local civil
//! time such as `2014-08-01 00:05:00`. This module converts between such
//! civil times and unix seconds without pulling in a calendar dependency;
//! [`Timestamp::try_from_civil`] is the fallible entry point parsing and
//! ingestion paths must use, so malformed input surfaces as
//! [`DataError::InvalidCivilTime`](crate::error::DataError) instead of a
//! panic.
//! The conversion uses the standard days-from-civil algorithm (Howard
//! Hinnant's `chrono`-compatible formulation) and treats all times as UTC,
//! which is sufficient for a dataset whose semantics only depend on record
//! ordering and spacing.

use crate::error::DataError;

/// A point in time, stored as unix seconds (seconds since 1970-01-01 00:00:00 UTC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub i64);

impl Timestamp {
    /// Constructs a timestamp from a civil date and time (treated as UTC).
    ///
    /// # Examples
    ///
    /// ```
    /// use prc_data::time::Timestamp;
    /// let t = Timestamp::from_civil(2014, 8, 1, 0, 5, 0);
    /// assert_eq!(t.to_civil(), (2014, 8, 1, 0, 5, 0));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `month`, `day`, `hour`, `minute`, or `second` are outside
    /// their calendar ranges. Use [`Timestamp::try_from_civil`] on
    /// untrusted input.
    pub fn from_civil(
        year: i32,
        month: u32,
        day: u32,
        hour: u32,
        minute: u32,
        second: u32,
    ) -> Self {
        match Timestamp::try_from_civil(year, month, day, hour, minute, second) {
            Ok(t) => t,
            // prc-lint: allow(P003, reason = "documented panicking convenience for compile-time-known dates; fallible twin is try_from_civil")
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible twin of [`Timestamp::from_civil`] for untrusted input.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidCivilTime`] naming the first component
    /// outside its calendar range.
    pub fn try_from_civil(
        year: i32,
        month: u32,
        day: u32,
        hour: u32,
        minute: u32,
        second: u32,
    ) -> Result<Self, DataError> {
        let bad = |field: &'static str, value: u32| DataError::InvalidCivilTime {
            field,
            value: i64::from(value),
        };
        let days_in_month = days_in_month(year, month).ok_or_else(|| bad("month", month))?;
        if day < 1 || day > days_in_month {
            return Err(bad("day", day));
        }
        if hour >= 24 {
            return Err(bad("hour", hour));
        }
        if minute >= 60 {
            return Err(bad("minute", minute));
        }
        if second >= 60 {
            return Err(bad("second", second));
        }
        let days = days_from_civil(year, month, day);
        Ok(Timestamp(
            days * 86_400 + i64::from(hour) * 3_600 + i64::from(minute) * 60 + i64::from(second),
        ))
    }

    /// Decomposes the timestamp into `(year, month, day, hour, minute, second)` in UTC.
    pub fn to_civil(self) -> (i32, u32, u32, u32, u32, u32) {
        let days = self.0.div_euclid(86_400);
        let secs = self.0.rem_euclid(86_400);
        let (y, m, d) = civil_from_days(days);
        let hour = (secs / 3_600) as u32;
        let minute = (secs % 3_600 / 60) as u32;
        let second = (secs % 60) as u32;
        (y, m, d, hour, minute, second)
    }

    /// Unix seconds of this timestamp.
    pub fn unix_seconds(self) -> i64 {
        self.0
    }

    /// Returns a timestamp advanced by `seconds`.
    pub fn plus_seconds(self, seconds: i64) -> Self {
        Timestamp(self.0 + seconds)
    }

    /// Hour of day in `[0, 24)` (UTC), as a fraction including minutes.
    ///
    /// Used by the synthetic generator to drive diurnal pollution cycles.
    pub fn hour_of_day(self) -> f64 {
        let secs = self.0.rem_euclid(86_400);
        secs as f64 / 3_600.0
    }

    /// Day of week with Monday = 0 .. Sunday = 6.
    pub fn day_of_week(self) -> u32 {
        // 1970-01-01 was a Thursday (= 3 with Monday = 0).
        let days = self.0.div_euclid(86_400);
        ((days + 3).rem_euclid(7)) as u32
    }

    /// Parses a `YYYY-MM-DD HH:MM:SS` civil string (treated as UTC).
    ///
    /// Returns `None` when the string does not match the layout or any
    /// component is out of its calendar range.
    pub fn parse_civil(s: &str) -> Option<Self> {
        let s = s.trim();
        let (date, time) = s.split_once([' ', 'T'])?;
        let mut dp = date.split('-');
        let year: i32 = dp.next()?.parse().ok()?;
        let month: u32 = dp.next()?.parse().ok()?;
        let day: u32 = dp.next()?.parse().ok()?;
        if dp.next().is_some() {
            return None;
        }
        let mut tp = time.split(':');
        let hour: u32 = tp.next()?.parse().ok()?;
        let minute: u32 = tp.next()?.parse().ok()?;
        let second: u32 = tp.next().map_or(Some(0), |v| v.parse().ok())?;
        if tp.next().is_some() {
            return None;
        }
        Timestamp::try_from_civil(year, month, day, hour, minute, second).ok()
    }
}

impl std::fmt::Display for Timestamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (y, mo, d, h, mi, s) = self.to_civil();
        write!(f, "{y:04}-{mo:02}-{d:02} {h:02}:{mi:02}:{s:02}")
    }
}

/// True when `year` is a Gregorian leap year.
pub fn is_leap_year(year: i32) -> bool {
    year % 4 == 0 && (year % 100 != 0 || year % 400 == 0)
}

/// Number of days in `month` of `year`, or `None` when `month` is not in
/// `1..=12`.
pub fn days_in_month(year: i32, month: u32) -> Option<u32> {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => Some(31),
        4 | 6 | 9 | 11 => Some(30),
        2 => Some(if is_leap_year(year) { 29 } else { 28 }),
        _ => None,
    }
}

/// Days since 1970-01-01 for the given civil date (may be negative).
fn days_from_civil(y: i32, m: u32, d: u32) -> i64 {
    let y = i64::from(y) - i64::from(m <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let m = i64::from(m);
    let d = i64::from(d);
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Civil date for the given number of days since 1970-01-01.
fn civil_from_days(z: i64) -> (i32, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = doy - (153 * mp + 2) / 5 + 1; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 }; // [1, 12]
    ((y + i64::from(m <= 2)) as i32, m as u32, d as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_zero() {
        assert_eq!(Timestamp::from_civil(1970, 1, 1, 0, 0, 0).unix_seconds(), 0);
    }

    #[test]
    fn known_timestamps_round_trip() {
        // 2014-08-01 00:05:00 UTC = 1406851500 (verified against `date -u`).
        let t = Timestamp::from_civil(2014, 8, 1, 0, 5, 0);
        assert_eq!(t.unix_seconds(), 1_406_851_500);
        assert_eq!(t.to_civil(), (2014, 8, 1, 0, 5, 0));
        assert_eq!(t.to_string(), "2014-08-01 00:05:00");
    }

    #[test]
    fn civil_round_trip_over_many_days() {
        // Sweep several years including leap boundaries.
        let mut t = Timestamp::from_civil(2012, 1, 1, 0, 0, 0);
        for _ in 0..1500 {
            let (y, m, d, h, mi, s) = t.to_civil();
            assert_eq!(Timestamp::from_civil(y, m, d, h, mi, s), t);
            t = t.plus_seconds(86_400);
        }
    }

    #[test]
    fn leap_year_rules() {
        assert!(is_leap_year(2012));
        assert!(!is_leap_year(2014));
        assert!(is_leap_year(2000));
        assert!(!is_leap_year(1900));
        assert_eq!(days_in_month(2012, 2), Some(29));
        assert_eq!(days_in_month(2014, 2), Some(28));
        assert_eq!(days_in_month(2014, 0), None);
        assert_eq!(days_in_month(2014, 13), None);
    }

    #[test]
    fn try_from_civil_names_the_bad_component() {
        let field = |r: Result<Timestamp, DataError>| match r {
            Err(DataError::InvalidCivilTime { field, .. }) => field,
            other => panic!("expected InvalidCivilTime, got {other:?}"),
        };
        assert_eq!(
            field(Timestamp::try_from_civil(2014, 13, 1, 0, 0, 0)),
            "month"
        );
        assert_eq!(
            field(Timestamp::try_from_civil(2014, 2, 30, 0, 0, 0)),
            "day"
        );
        assert_eq!(
            field(Timestamp::try_from_civil(2014, 8, 1, 24, 0, 0)),
            "hour"
        );
        assert_eq!(
            field(Timestamp::try_from_civil(2014, 8, 1, 0, 60, 0)),
            "minute"
        );
        assert_eq!(
            field(Timestamp::try_from_civil(2014, 8, 1, 0, 0, 60)),
            "second"
        );
        assert_eq!(
            Timestamp::try_from_civil(2014, 8, 1, 0, 5, 0).unwrap(),
            Timestamp::from_civil(2014, 8, 1, 0, 5, 0)
        );
    }

    #[test]
    fn leap_day_is_representable() {
        let t = Timestamp::from_civil(2012, 2, 29, 12, 0, 0);
        assert_eq!(t.to_civil(), (2012, 2, 29, 12, 0, 0));
    }

    #[test]
    fn day_of_week_is_correct() {
        // 2014-08-01 was a Friday.
        assert_eq!(Timestamp::from_civil(2014, 8, 1, 0, 0, 0).day_of_week(), 4);
        // 1970-01-01 was a Thursday.
        assert_eq!(Timestamp(0).day_of_week(), 3);
    }

    #[test]
    fn hour_of_day_fractional() {
        let t = Timestamp::from_civil(2014, 8, 1, 6, 30, 0);
        assert!((t.hour_of_day() - 6.5).abs() < 1e-12);
    }

    #[test]
    fn parse_civil_accepts_standard_layouts() {
        assert_eq!(
            Timestamp::parse_civil("2014-08-01 00:05:00"),
            Some(Timestamp::from_civil(2014, 8, 1, 0, 5, 0))
        );
        assert_eq!(
            Timestamp::parse_civil("2014-08-01T00:05:00"),
            Some(Timestamp::from_civil(2014, 8, 1, 0, 5, 0))
        );
        // Missing seconds default to zero.
        assert_eq!(
            Timestamp::parse_civil("2014-08-01 10:15"),
            Some(Timestamp::from_civil(2014, 8, 1, 10, 15, 0))
        );
    }

    #[test]
    fn parse_civil_rejects_garbage() {
        for bad in [
            "",
            "2014-08-01",
            "not a date",
            "2014-13-01 00:00:00",
            "2014-02-30 00:00:00",
            "2014-08-01 24:00:00",
            "2014-08-01 00:61:00",
            "2014-08-01 00:00:00:00",
            "2014-08-01-02 00:00:00",
        ] {
            assert_eq!(Timestamp::parse_civil(bad), None, "should reject {bad:?}");
        }
    }

    #[test]
    fn display_pads_components() {
        let t = Timestamp::from_civil(2014, 9, 3, 4, 5, 6);
        assert_eq!(t.to_string(), "2014-09-03 04:05:06");
    }

    #[test]
    fn negative_timestamps_decompose() {
        let t = Timestamp::from_civil(1969, 12, 31, 23, 59, 59);
        assert_eq!(t.unix_seconds(), -1);
        assert_eq!(t.to_civil(), (1969, 12, 31, 23, 59, 59));
    }

    #[test]
    fn ordering_matches_seconds() {
        let a = Timestamp::from_civil(2014, 8, 1, 0, 0, 0);
        let b = a.plus_seconds(300);
        assert!(a < b);
    }
}
