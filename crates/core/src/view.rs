//! Scenario-filtered per-vehicle views of the prepared daily data.
//!
//! A [`VehicleView`] is the bridge between the prepared daily records and
//! the windowing machinery: a sequence of *slots*, each referencing one
//! day of the scenario's series (all days for next-day; working days only
//! for next-working-day), carrying the utilization hours, the aggregated
//! CAN channels and the encoded calendar context of that day.

use std::fmt;
use std::sync::Arc;

use vup_dataprep::enrich::{day_context, encode_context, CONTEXT_FEATURE_COUNT};
use vup_dataprep::pipeline::can_channel_values;
use vup_fleetsim::calendar::Date;
use vup_fleetsim::fleet::{Fleet, VehicleId};
use vup_fleetsim::generator::{self, DailyRecord, VehicleHistory};
use vup_fleetsim::weather::{encode_weather, weather_for};

use crate::scenario::Scenario;

/// One slot of a scenario series.
#[derive(Debug, Clone, PartialEq)]
pub struct Slot {
    /// Absolute day index of the underlying day.
    pub day: i64,
    /// Calendar date of the underlying day.
    pub date: Date,
    /// Daily utilization hours (the target variable).
    pub hours: f64,
    /// Aggregated CAN channels of the day, in
    /// [`vup_dataprep::pipeline::CAN_CHANNEL_NAMES`] order.
    pub can: [f64; 10],
    /// Encoded calendar context of the day
    /// ([`vup_dataprep::enrich::encode_context`]).
    pub calendar: [f64; CONTEXT_FEATURE_COUNT],
    /// Encoded weather of the day
    /// ([`vup_fleetsim::weather::encode_weather`]); predictive only when
    /// the fleet was generated with `weather_effects = true`.
    pub weather: [f64; 3],
}

/// A vehicle's scenario-filtered series of slots.
///
/// The slots live behind an `Arc` shared by every clone and every
/// [`truncated`](Self::truncated) prefix of the view; a view sees only
/// the first `len` of them. Cloning or truncating costs one reference
/// count, and the private mutators copy the visible prefix on write, so
/// a view never changes what another view of the same series reads.
#[derive(Clone)]
pub struct VehicleView {
    /// The vehicle this view belongs to.
    pub vehicle_id: VehicleId,
    /// The scenario that filtered the series.
    pub scenario: Scenario,
    series: Arc<Vec<Slot>>,
    /// Visible prefix of `series`; never exceeds its length.
    len: usize,
}

impl fmt::Debug for VehicleView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VehicleView")
            .field("vehicle_id", &self.vehicle_id)
            .field("scenario", &self.scenario)
            .field("slots", &self.slots())
            .finish()
    }
}

impl VehicleView {
    /// Builds the view for one vehicle from freshly generated daily data
    /// (fast path).
    pub fn build(fleet: &Fleet, id: VehicleId, scenario: Scenario) -> VehicleView {
        let history = generator::generate_history(fleet, id);
        Self::from_history(fleet, &history, scenario)
    }

    /// Builds the view from an existing history (avoids regenerating when
    /// several scenarios or configs share one vehicle).
    pub fn from_history(
        fleet: &Fleet,
        history: &VehicleHistory,
        scenario: Scenario,
    ) -> VehicleView {
        Self::from_records(fleet, &history.vehicle, &history.records, scenario)
    }

    /// Builds the view straight from a slice of daily records — the
    /// entry point for streaming deployments (`vup-ingest`), where
    /// records come from incremental aggregation of a telemetry log
    /// rather than a regenerated [`VehicleHistory`]. The records must
    /// be in day order.
    pub fn from_records(
        fleet: &Fleet,
        vehicle: &vup_fleetsim::fleet::Vehicle,
        records: &[DailyRecord],
        scenario: Scenario,
    ) -> VehicleView {
        let country = fleet.country_of(vehicle);
        let slots = records
            .iter()
            .filter(|r| scenario.includes(r.hours))
            .map(|r: &DailyRecord| {
                let ctx = day_context(r.date, country);
                let encoded = encode_context(&ctx);
                let mut calendar = [0.0; CONTEXT_FEATURE_COUNT];
                calendar.copy_from_slice(&encoded);
                let weather = encode_weather(&weather_for(fleet.config().seed, country, r.date));
                Slot {
                    day: r.day,
                    date: r.date,
                    hours: r.hours,
                    can: can_channel_values(r),
                    calendar,
                    weather,
                }
            })
            .collect();
        Self::owning(vehicle.id, scenario, slots)
    }

    /// A view over all of `slots`, which it alone holds.
    fn owning(vehicle_id: VehicleId, scenario: Scenario, slots: Vec<Slot>) -> VehicleView {
        VehicleView {
            vehicle_id,
            scenario,
            len: slots.len(),
            series: Arc::new(slots),
        }
    }

    /// Number of slots in the scenario series.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view holds no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Borrow of slot `i`.
    pub fn slot(&self, i: usize) -> &Slot {
        &self.slots()[i]
    }

    /// All slots in series order.
    pub fn slots(&self) -> &[Slot] {
        &self.series[..self.len]
    }

    /// The utilization-hours series over the slots.
    pub fn hours(&self) -> Vec<f64> {
        self.slots().iter().map(|s| s.hours).collect()
    }

    /// Hours over a slot range (used for per-window ACF computation).
    pub fn hours_range(&self, from: usize, to: usize) -> Vec<f64> {
        self.slots()[from..to].iter().map(|s| s.hours).collect()
    }

    /// This view restricted to its first `n` slots (all of them when
    /// `n >= len`). The result shares this view's slots rather than
    /// copying them — one reference-count bump — and exposes no slot at
    /// or after `n`. `vup-serve` uses this to serve the series "as of"
    /// an earlier day.
    pub fn truncated(&self, n: usize) -> VehicleView {
        VehicleView {
            vehicle_id: self.vehicle_id,
            scenario: self.scenario,
            series: Arc::clone(&self.series),
            len: n.min(self.len),
        }
    }

    /// A copy of the last `keep` slots with spare capacity for `extra`
    /// appended slots — the forecast path only needs the model's lag
    /// history, not the whole series, so this avoids cloning hundreds of
    /// slots per request. Relative indexing from the end is preserved.
    pub(crate) fn forecast_tail(&self, keep: usize, extra: usize) -> VehicleView {
        let slots = self.slots();
        let keep = keep.min(slots.len());
        let mut tail = Vec::with_capacity(keep + extra);
        tail.extend_from_slice(&slots[slots.len() - keep..]);
        Self::owning(self.vehicle_id, self.scenario, tail)
    }

    /// The visible slots for writing. A series shared with another view
    /// is first replaced by a private copy of the visible prefix (copy
    /// on write); a private one drops any slots past the prefix.
    fn slots_mut(&mut self) -> &mut Vec<Slot> {
        if Arc::get_mut(&mut self.series).is_none() {
            self.series = Arc::new(self.slots().to_vec());
        }
        let series = Arc::get_mut(&mut self.series).expect("series is private");
        series.truncate(self.len);
        series
    }

    /// Appends a synthetic slot ([`crate::forecast`] extends the series
    /// with future days whose hours are filled in as they are predicted).
    pub(crate) fn push_slot(&mut self, slot: Slot) {
        self.slots_mut().push(slot);
        self.len += 1;
    }

    /// Overwrites the hours of slot `i` (see [`Self::push_slot`]).
    pub(crate) fn set_hours(&mut self, i: usize, hours: f64) {
        self.slots_mut()[i].hours = hours;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::WORKING_DAY_THRESHOLD;
    use vup_fleetsim::fleet::FleetConfig;

    fn fleet() -> Fleet {
        Fleet::generate(FleetConfig::small(10, 321))
    }

    #[test]
    fn next_day_view_keeps_every_day() {
        let fleet = fleet();
        let view = VehicleView::build(&fleet, VehicleId(1), Scenario::NextDay);
        assert_eq!(view.len(), fleet.config().n_days());
        // Days are contiguous in this scenario.
        for w in view.slots().windows(2) {
            assert_eq!(w[1].day, w[0].day + 1);
        }
    }

    #[test]
    fn next_working_day_view_filters_short_days() {
        let fleet = fleet();
        let all = VehicleView::build(&fleet, VehicleId(1), Scenario::NextDay);
        let working = VehicleView::build(&fleet, VehicleId(1), Scenario::NextWorkingDay);
        assert!(working.len() < all.len());
        assert!(!working.is_empty());
        for s in working.slots() {
            assert!(s.hours >= WORKING_DAY_THRESHOLD);
        }
        // Slot days strictly increase even with gaps.
        for w in working.slots().windows(2) {
            assert!(w[1].day > w[0].day);
        }
    }

    #[test]
    fn from_history_matches_build() {
        let fleet = fleet();
        let history = generator::generate_history(&fleet, VehicleId(3));
        let a = VehicleView::build(&fleet, VehicleId(3), Scenario::NextWorkingDay);
        let b = VehicleView::from_history(&fleet, &history, Scenario::NextWorkingDay);
        assert_eq!(a.slots(), b.slots());
        assert_eq!(a.vehicle_id, b.vehicle_id);
    }

    #[test]
    fn slots_carry_aligned_payloads() {
        let fleet = fleet();
        let view = VehicleView::build(&fleet, VehicleId(2), Scenario::NextDay);
        let history = generator::generate_history(&fleet, VehicleId(2));
        for (slot, rec) in view.slots().iter().zip(&history.records) {
            assert_eq!(slot.hours, rec.hours);
            assert_eq!(slot.date, rec.date);
            assert_eq!(slot.can[0], rec.can.fuel_used_l);
        }
    }

    #[test]
    fn hours_range_extracts_window() {
        let fleet = fleet();
        let view = VehicleView::build(&fleet, VehicleId(0), Scenario::NextDay);
        let full = view.hours();
        assert_eq!(view.hours_range(10, 20), &full[10..20]);
    }

    #[test]
    fn truncated_views_share_the_series_and_copy_it_on_write() {
        let fleet = fleet();
        let full = VehicleView::build(&fleet, VehicleId(4), Scenario::NextDay);
        let before = full.slots().to_vec();
        let n = 50;
        let mut view = full.truncated(n);
        assert_eq!(view.len(), n);
        assert_eq!(view.slots(), &before[..n]);
        assert_eq!(view.hours_range(0, n), full.hours_range(0, n));
        assert!(
            std::ptr::eq(view.slots().as_ptr(), full.slots().as_ptr()),
            "a truncated view shares its parent's slots"
        );
        assert_eq!(full.truncated(full.len() + 10).len(), full.len());
        assert_eq!(view.truncated(n + 10).len(), n, "a prefix cannot regrow");

        // Writes go to a private copy of the visible prefix only.
        let mut extra = before[n].clone();
        extra.hours = -1.0;
        view.push_slot(extra.clone());
        view.set_hours(0, -2.0);
        assert_eq!(view.len(), n + 1);
        assert_eq!(view.slot(n), &extra);
        assert_eq!(view.slot(0).hours, -2.0);
        assert_eq!(&view.slots()[1..n], &before[1..n]);
        assert_eq!(full.slots(), &before[..], "the shared series is untouched");

        // A clone shares too, and writing through it leaves the original.
        let mut clone = full.clone();
        clone.set_hours(3, -3.0);
        assert_eq!(clone.slot(3).hours, -3.0);
        assert_eq!(full.slots(), &before[..]);
    }

    #[test]
    #[should_panic]
    fn truncated_views_refuse_slots_past_their_end() {
        let fleet = fleet();
        let view = VehicleView::build(&fleet, VehicleId(0), Scenario::NextDay).truncated(10);
        let _ = view.slot(10);
    }
}
