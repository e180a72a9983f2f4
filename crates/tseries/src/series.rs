//! Day-indexed utilization series.
//!
//! The paper's unit of analysis is "daily utilization hours of vehicle x on
//! day t". [`DailySeries`] stores a contiguous run of days starting at an
//! absolute day index (days since the simulation epoch; see
//! `vup_fleetsim::calendar`). The working-day filter of the
//! next-working-day scenario (≥ 1 h of usage) is not here: it lives with
//! the scenarios, as `vup_core::scenario::WORKING_DAY_THRESHOLD`.

/// A contiguous daily series of utilization hours.
#[derive(Debug, Clone, PartialEq)]
pub struct DailySeries {
    start_day: i64,
    values: Vec<f64>,
}

impl DailySeries {
    /// Creates a series whose first observation is at absolute day
    /// `start_day`.
    pub fn new(start_day: i64, values: Vec<f64>) -> Self {
        DailySeries { start_day, values }
    }

    /// Absolute day index of the first observation.
    pub fn start_day(&self) -> i64 {
        self.start_day
    }

    /// Absolute day index one past the last observation.
    pub fn end_day(&self) -> i64 {
        self.start_day + self.values.len() as i64
    }

    /// Number of observed days.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series holds no observations.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Borrow of the raw values in day order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Value at absolute day `day`, or `None` when outside the range.
    pub fn get(&self, day: i64) -> Option<f64> {
        if day < self.start_day || day >= self.end_day() {
            return None;
        }
        Some(self.values[(day - self.start_day) as usize])
    }

    /// Iterator over `(absolute_day, hours)` pairs.
    pub fn iter_days(&self) -> impl Iterator<Item = (i64, f64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(move |(i, &v)| (self.start_day + i as i64, v))
    }

    /// Sub-series covering positions `[offset, offset + len)`.
    ///
    /// # Panics
    /// Panics when the range exceeds the series length.
    pub fn window(&self, offset: usize, len: usize) -> DailySeries {
        assert!(offset + len <= self.values.len(), "window out of range");
        DailySeries {
            start_day: self.start_day + offset as i64,
            values: self.values[offset..offset + len].to_vec(),
        }
    }

    /// Fraction of days with any recorded usage; `None` for an empty series.
    pub fn utilization_rate(&self) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        let active = self.values.iter().filter(|&&v| v > 0.0).count();
        Some(active as f64 / self.values.len() as f64)
    }

    /// Aggregates into ISO-like weeks of 7 consecutive days starting from
    /// the first observation, returning total hours per week (Fig. 1d plots
    /// "weekly utilization hours"). A trailing partial week is included.
    pub fn weekly_totals(&self) -> Vec<f64> {
        self.values
            .chunks(7)
            .map(|week| week.iter().sum())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DailySeries {
        // Two weeks: weekdays 8h, weekends 0h, one half-day.
        DailySeries::new(
            100,
            vec![
                8.0, 8.0, 8.0, 8.0, 8.0, 0.0, 0.0, //
                8.0, 0.5, 8.0, 8.0, 8.0, 0.0, 0.0,
            ],
        )
    }

    #[test]
    fn indexing_by_absolute_day() {
        let s = sample();
        assert_eq!(s.start_day(), 100);
        assert_eq!(s.end_day(), 114);
        assert_eq!(s.get(100), Some(8.0));
        assert_eq!(s.get(105), Some(0.0));
        assert_eq!(s.get(99), None);
        assert_eq!(s.get(114), None);
    }

    #[test]
    fn iter_days_yields_pairs() {
        let s = DailySeries::new(5, vec![1.0, 2.0]);
        let pairs: Vec<_> = s.iter_days().collect();
        assert_eq!(pairs, vec![(5, 1.0), (6, 2.0)]);
    }

    #[test]
    fn window_extraction() {
        let s = sample();
        let w = s.window(7, 7);
        assert_eq!(w.start_day(), 107);
        assert_eq!(w.len(), 7);
        assert_eq!(w.get(108), Some(0.5));
    }

    #[test]
    #[should_panic(expected = "window out of range")]
    fn window_bounds_checked() {
        sample().window(10, 10);
    }

    #[test]
    fn utilization_rate_counts_active_fraction() {
        let s = sample();
        let r = s.utilization_rate().unwrap();
        assert!((r - 10.0 / 14.0).abs() < 1e-12);
        assert!(DailySeries::new(0, vec![]).utilization_rate().is_none());
    }

    #[test]
    fn weekly_totals_chunked() {
        let s = sample();
        let weeks = s.weekly_totals();
        assert_eq!(weeks.len(), 2);
        assert!((weeks[0] - 40.0).abs() < 1e-12);
        assert!((weeks[1] - 32.5).abs() < 1e-12);

        // Partial trailing week is kept.
        let t = DailySeries::new(0, vec![1.0; 9]);
        assert_eq!(t.weekly_totals(), vec![7.0, 2.0]);
    }
}
