//! Simulation time, calendar conversion and time intervals.
//!
//! The measurement window of the reproduced study runs from **2015-03-01** to
//! **2017-02-28** inclusive — 731 days. All simulation timestamps are seconds
//! since 2015-03-01 00:00:00 UTC ([`SimTime`]); day-granularity analyses use
//! [`DayIndex`] (day 0 = 2015-03-01). A tiny proleptic-Gregorian converter
//! provides human-readable axis labels ("Mar '15") for the figures without a
//! calendar dependency.

/// Seconds in a minute.
pub const SECS_PER_MINUTE: u64 = 60;
/// Seconds in an hour.
pub const SECS_PER_HOUR: u64 = 3_600;
/// Seconds in a day.
pub const SECS_PER_DAY: u64 = 86_400;

/// Number of days in the study window (2015-03-01 .. 2017-02-28, inclusive).
pub const STUDY_DAYS: u32 = 731;

/// A timestamp measured in seconds since the start of the study window
/// (2015-03-01 00:00:00 UTC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The origin of the study window.
    pub const ZERO: SimTime = SimTime(0);

    /// Build a timestamp from a day index and a second-of-day offset.
    pub fn from_day_offset(day: DayIndex, offset_secs: u64) -> Self {
        SimTime(day.0 as u64 * SECS_PER_DAY + offset_secs)
    }

    /// Seconds since the study origin.
    #[inline]
    pub fn secs(self) -> u64 {
        self.0
    }

    /// The day this timestamp falls on.
    #[inline]
    pub fn day(self) -> DayIndex {
        DayIndex((self.0 / SECS_PER_DAY) as u32)
    }

    /// Second-of-day (0..86400).
    #[inline]
    pub fn second_of_day(self) -> u64 {
        self.0 % SECS_PER_DAY
    }

    /// Minute index since the origin (used by per-minute rate tracking).
    #[inline]
    pub fn minute(self) -> u64 {
        self.0 / SECS_PER_MINUTE
    }

    /// Saturating addition of a number of seconds.
    #[inline]
    pub fn add_secs(self, secs: u64) -> SimTime {
        SimTime(self.0.saturating_add(secs))
    }

    /// Absolute difference in seconds between two timestamps.
    #[inline]
    pub fn abs_diff(self, other: SimTime) -> u64 {
        self.0.abs_diff(other.0)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let d = self.day();
        let sod = self.second_of_day();
        write!(
            f,
            "{}T{:02}:{:02}:{:02}",
            d.calendar(),
            sod / SECS_PER_HOUR,
            (sod % SECS_PER_HOUR) / SECS_PER_MINUTE,
            sod % SECS_PER_MINUTE
        )
    }
}

/// A day within the study window; day 0 is 2015-03-01.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DayIndex(pub u32);

impl DayIndex {
    /// First instant of this day.
    #[inline]
    pub fn start(self) -> SimTime {
        SimTime(self.0 as u64 * SECS_PER_DAY)
    }

    /// One past the last instant of this day.
    #[inline]
    pub fn end(self) -> SimTime {
        SimTime((self.0 as u64 + 1) * SECS_PER_DAY)
    }

    /// Next day.
    #[inline]
    pub fn next(self) -> DayIndex {
        DayIndex(self.0 + 1)
    }

    /// Convert to a calendar date.
    pub fn calendar(self) -> CalendarDate {
        CalendarDate::from_day_index(self)
    }
}

impl std::fmt::Display for DayIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.calendar())
    }
}

/// A proleptic-Gregorian calendar date, used only for presentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CalendarDate {
    /// Four-digit year.
    pub year: u16,
    /// Month, 1-12.
    pub month: u8,
    /// Day of month, 1-31.
    pub day: u8,
}

const MONTH_ABBR: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

fn is_leap(year: u16) -> bool {
    (year.is_multiple_of(4) && !year.is_multiple_of(100)) || year.is_multiple_of(400)
}

fn days_in_month(year: u16, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap(year) {
                29
            } else {
                28
            }
        }
        _ => unreachable!("month out of range"),
    }
}

impl CalendarDate {
    /// The study origin, 2015-03-01.
    pub const ORIGIN: CalendarDate = CalendarDate {
        year: 2015,
        month: 3,
        day: 1,
    };

    /// Convert a study [`DayIndex`] into a calendar date by walking forward
    /// from the origin. The window is ~731 days so the walk is cheap and
    /// avoids Julian-day arithmetic.
    pub fn from_day_index(idx: DayIndex) -> CalendarDate {
        let mut remaining = idx.0;
        let (mut year, mut month, mut day) =
            (Self::ORIGIN.year, Self::ORIGIN.month, Self::ORIGIN.day);
        while remaining > 0 {
            let dim = days_in_month(year, month);
            let left_in_month = (dim - day) as u32;
            if remaining > left_in_month {
                remaining -= left_in_month + 1;
                day = 1;
                month += 1;
                if month > 12 {
                    month = 1;
                    year += 1;
                }
            } else {
                day += remaining as u8;
                remaining = 0;
            }
        }
        CalendarDate { year, month, day }
    }

    /// Axis label in the style the paper's figures use, e.g. `Mar '15`.
    pub fn month_label(&self) -> String {
        format!("{} '{:02}", MONTH_ABBR[(self.month - 1) as usize], self.year % 100)
    }
}

impl std::fmt::Display for CalendarDate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// A half-open time interval `[start, end)` in simulation time.
///
/// Attack events carry their active interval as a `TimeRange`; the
/// joint-attack correlation in `dosscope-core` is defined in terms of
/// interval overlap.
///
/// ```
/// use dosscope_types::{SimTime, TimeRange};
///
/// let syn_flood = TimeRange::new(SimTime(100), SimTime(700));
/// let ntp_burst = TimeRange::with_duration(SimTime(500), 900);
/// assert!(syn_flood.overlaps(&ntp_burst)); // a joint attack
/// assert_eq!(
///     syn_flood.intersect(&ntp_burst),
///     Some(TimeRange::new(SimTime(500), SimTime(700)))
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimeRange {
    /// Inclusive start.
    pub start: SimTime,
    /// Exclusive end. `end >= start` always holds for ranges built through
    /// [`TimeRange::new`].
    pub end: SimTime,
}

impl TimeRange {
    /// Create a range; panics in debug builds if `end < start`.
    pub fn new(start: SimTime, end: SimTime) -> TimeRange {
        debug_assert!(end >= start, "TimeRange end before start");
        TimeRange {
            start,
            end: end.max(start),
        }
    }

    /// Create a range from a start time and a duration in seconds.
    pub fn with_duration(start: SimTime, secs: u64) -> TimeRange {
        TimeRange::new(start, start.add_secs(secs))
    }

    /// Duration in seconds.
    #[inline]
    pub fn duration_secs(&self) -> u64 {
        self.end.0 - self.start.0
    }

    /// Whether the instant falls inside the range.
    #[inline]
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end
    }

    /// Whether two ranges overlap in time (share at least one instant).
    ///
    /// Overlap is what the paper calls a *joint attack* when the two ranges
    /// come from different measurement sources against the same target.
    #[inline]
    pub fn overlaps(&self, other: &TimeRange) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// The intersection of two ranges, if non-empty.
    pub fn intersect(&self, other: &TimeRange) -> Option<TimeRange> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        if start < end {
            Some(TimeRange { start, end })
        } else {
            None
        }
    }

    /// Iterator over the day indices this range touches.
    ///
    /// Multi-day events are *attributed to their start day* in the paper's
    /// daily statistics (footnote 15); use [`TimeRange::start`]`.day()` for
    /// that convention and this method when full coverage is needed.
    pub fn days(&self) -> impl Iterator<Item = DayIndex> {
        let first = self.start.day().0;
        // A range is half-open: an event ending exactly on midnight does not
        // touch the next day.
        let last = if self.end.0 == self.start.0 {
            first
        } else {
            SimTime(self.end.0 - 1).day().0
        };
        (first..=last).map(DayIndex)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn day_and_second_of_day() {
        let t = SimTime(3 * SECS_PER_DAY + 5 * SECS_PER_HOUR + 42);
        assert_eq!(t.day(), DayIndex(3));
        assert_eq!(t.second_of_day(), 5 * SECS_PER_HOUR + 42);
    }

    #[test]
    fn calendar_origin() {
        assert_eq!(DayIndex(0).calendar().to_string(), "2015-03-01");
    }

    #[test]
    fn calendar_end_of_window() {
        // Day 730 must be 2017-02-28, the documented last day of the study.
        assert_eq!(DayIndex(STUDY_DAYS - 1).calendar().to_string(), "2017-02-28");
    }

    #[test]
    fn calendar_leap_day() {
        // 2016 is a leap year; 2016-02-29 exists. 2015-03-01 + 365 days
        // = 2016-02-29.
        assert_eq!(DayIndex(365).calendar().to_string(), "2016-02-29");
        assert_eq!(DayIndex(366).calendar().to_string(), "2016-03-01");
    }

    #[test]
    fn calendar_month_boundaries() {
        // 2015-03 has 31 days; day 31 is 2015-04-01.
        assert_eq!(DayIndex(31).calendar().to_string(), "2015-04-01");
        assert_eq!(DayIndex(30).calendar().to_string(), "2015-03-31");
    }

    #[test]
    fn month_label_style() {
        assert_eq!(DayIndex(0).calendar().month_label(), "Mar '15");
        assert_eq!(DayIndex(366).calendar().month_label(), "Mar '16");
    }

    #[test]
    fn range_overlap() {
        let a = TimeRange::new(SimTime(100), SimTime(200));
        let b = TimeRange::new(SimTime(150), SimTime(300));
        let c = TimeRange::new(SimTime(200), SimTime(250));
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        // Half-open: touching at a boundary is not overlap.
        assert!(!a.overlaps(&c));
        assert_eq!(
            a.intersect(&b),
            Some(TimeRange::new(SimTime(150), SimTime(200)))
        );
        assert_eq!(a.intersect(&c), None);
    }

    #[test]
    fn range_days_attribution() {
        let r = TimeRange::new(
            SimTime(SECS_PER_DAY - 10),
            SimTime(2 * SECS_PER_DAY + 10),
        );
        let days: Vec<_> = r.days().collect();
        assert_eq!(days, vec![DayIndex(0), DayIndex(1), DayIndex(2)]);
        // start-day attribution convention
        assert_eq!(r.start.day(), DayIndex(0));
    }

    #[test]
    fn range_days_exact_midnight_end() {
        let r = TimeRange::new(SimTime(10), SimTime(SECS_PER_DAY));
        let days: Vec<_> = r.days().collect();
        assert_eq!(days, vec![DayIndex(0)]);
    }

    #[test]
    fn display_formats() {
        let t = SimTime::from_day_offset(DayIndex(1), 3 * SECS_PER_HOUR + 4 * 60 + 5);
        assert_eq!(t.to_string(), "2015-03-02T03:04:05");
    }
}
