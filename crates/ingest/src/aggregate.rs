//! Incremental per-vehicle daily aggregation over the commit log.
//!
//! The batch pipeline regenerates a vehicle's whole history to build a
//! view; the streaming path cannot afford that. [`FleetAggregator`]
//! buffers raw 10-minute reports as they arrive and *seals* a day once
//! the log's watermark moves past it — running
//! [`vup_dataprep::aggregate::clean_and_aggregate_day`], the same
//! clean-and-aggregate pass as the batch pipeline, exactly once per
//! (vehicle, day) and appending the resulting [`DailyRecord`] to that
//! vehicle's shared history. Sealed days are immutable: a record for an
//! already-sealed day is counted as out-of-order and dropped, never
//! silently merged (re-aggregating would change slots that models were
//! already trained on).
//!
//! Sealing is a pure fold over the log: replaying any prefix of the
//! same log reproduces identical histories and identical
//! [`SealedSlot`] events, which is the foundation of the replay
//! determinism contract.

use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

use vup_core::Scenario;
use vup_dataprep::aggregate::clean_and_aggregate_day;
use vup_dataprep::cleaning::{CleaningStats, ValidityRules};
use vup_fleetsim::calendar::Date;
use vup_fleetsim::canbus::RawReport;
use vup_fleetsim::generator::DailyRecord;

use crate::log::LogRecord;

/// Per-vehicle daily histories shared between the aggregator (writer)
/// and the serving path's `ViewSource` (reader). The lock is only held
/// for the duration of one day-seal or one view build.
pub type SharedHistories = Arc<RwLock<BTreeMap<u32, Vec<DailyRecord>>>>;

/// Emitted when a sealed day enters a vehicle's scenario series: the
/// day became slot `slot` of that vehicle's view.
#[derive(Debug, Clone, PartialEq)]
pub struct SealedSlot {
    /// The vehicle whose series grew.
    pub vehicle_id: u32,
    /// Index of the new slot in the vehicle's scenario series.
    pub slot: usize,
    /// Absolute day index of the sealed day.
    pub day: i64,
    /// Utilization hours of the sealed day (the target variable).
    pub hours: f64,
}

/// What the aggregator keeps per known vehicle.
struct VehicleState {
    /// Scenario slots sealed so far.
    slots: usize,
    /// Raw reports of the open day. Only one day is ever open (see
    /// [`FleetAggregator::observe`]), so this one buffer is reused day
    /// after day and stops allocating once it has held a full day.
    open_day: Vec<RawReport>,
}

/// Folds log records into sealed per-vehicle daily histories.
pub struct FleetAggregator {
    /// First day of the observation period (days before it are never
    /// sealed).
    start_day: i64,
    scenario: Scenario,
    /// Highest day seen in any record.
    watermark: i64,
    /// Last sealed day (`start_day - 1` when nothing is sealed yet).
    sealed_through: i64,
    histories: SharedHistories,
    /// Known vehicles, in id order so sealing is deterministic. Presence
    /// in this map is what makes a vehicle *known*: sealing emits a
    /// (possibly idle) record for every known vehicle every day.
    vehicles: BTreeMap<u32, VehicleState>,
    /// Records rejected because their day was already sealed.
    out_of_order: u64,
    /// Days sealed so far (capped by the watermark, not per vehicle).
    days_sealed: u64,
    /// Cleaning rules applied to each day's reports before aggregation
    /// (same defaults as the batch pipeline).
    rules: ValidityRules,
    /// Aggregate cleaning statistics over all sealed days.
    cleaning: CleaningStats,
}

impl FleetAggregator {
    /// A fresh aggregator sealing days from `start_day` on.
    pub fn new(start_day: i64, scenario: Scenario) -> FleetAggregator {
        FleetAggregator {
            start_day,
            scenario,
            watermark: start_day - 1,
            sealed_through: start_day - 1,
            histories: Arc::new(RwLock::new(BTreeMap::new())),
            vehicles: BTreeMap::new(),
            out_of_order: 0,
            days_sealed: 0,
            rules: ValidityRules::default(),
            cleaning: CleaningStats::default(),
        }
    }

    /// Handle to the shared histories (for a `ViewSource`).
    pub fn histories(&self) -> SharedHistories {
        Arc::clone(&self.histories)
    }

    /// Folds one record in. Advancing the watermark past a day seals
    /// it for every known vehicle; the returned events list each
    /// sealed day that entered a vehicle's scenario series (empty for
    /// most records — days seal only at day boundaries).
    ///
    /// A record for day `d` seals everything through `d - 1` before it
    /// is buffered, and one for a sealed day is rejected, so every
    /// buffered report belongs to the one open day
    /// `sealed_through + 1`.
    pub fn observe(&mut self, record: &LogRecord) -> Vec<SealedSlot> {
        let day = record.report.day;
        if day <= self.sealed_through || day < self.start_day {
            self.out_of_order += 1;
            return Vec::new();
        }
        self.register_vehicle(record.vehicle_id);
        let events = if day - 1 > self.sealed_through {
            self.seal_through(day - 1)
        } else {
            Vec::new()
        };
        debug_assert_eq!(day, self.sealed_through + 1, "one open day");
        self.vehicles
            .get_mut(&record.vehicle_id)
            .expect("registered above")
            .open_day
            .push(record.report.clone());
        if day > self.watermark {
            self.watermark = day;
        }
        events
    }

    /// Seals everything up to and including the watermark. Call at the
    /// end of a replay so the final (partial) day is not lost.
    pub fn seal_all(&mut self) -> Vec<SealedSlot> {
        self.seal_through(self.watermark)
    }

    /// Seals every day up to and including `through` for every known
    /// vehicle, in (day, vehicle) order, under one histories write lock
    /// per day. Only the first day sealed can hold reports; the rest
    /// are idle.
    fn seal_through(&mut self, through: i64) -> Vec<SealedSlot> {
        let mut events = Vec::new();
        while self.sealed_through < through {
            let day = self.sealed_through + 1;
            let date = Date::from_day_index(day);
            let mut histories = self.histories.write().expect("histories lock");
            for (&vehicle, state) in self.vehicles.iter_mut() {
                // Same cleaning step the batch pipeline applies to the
                // raw stream, so streaming and batch aggregates agree.
                let record = clean_and_aggregate_day(
                    date,
                    &mut state.open_day,
                    &self.rules,
                    &mut self.cleaning,
                );
                state.open_day.clear();
                if self.scenario.includes(record.hours) {
                    events.push(SealedSlot {
                        vehicle_id: vehicle,
                        slot: state.slots,
                        day,
                        hours: record.hours,
                    });
                    state.slots += 1;
                }
                histories.entry(vehicle).or_default().push(record);
            }
            drop(histories);
            self.sealed_through = day;
            self.days_sealed += 1;
        }
        events
    }

    /// Makes a vehicle known, backfilling idle records for every
    /// already-sealed day so its history stays aligned with the rest of
    /// the fleet. Backfilled days count slots but emit no events (there
    /// is nothing to retrain on yet).
    fn register_vehicle(&mut self, vehicle: u32) {
        if self.vehicles.contains_key(&vehicle) {
            return;
        }
        let mut slots = 0usize;
        let mut backfill = Vec::new();
        for day in self.start_day..=self.sealed_through {
            let record = clean_and_aggregate_day(
                Date::from_day_index(day),
                &mut Vec::new(),
                &self.rules,
                &mut self.cleaning,
            );
            if self.scenario.includes(record.hours) {
                slots += 1;
            }
            backfill.push(record);
        }
        if !backfill.is_empty() {
            self.histories
                .write()
                .expect("histories lock")
                .insert(vehicle, backfill);
        }
        self.vehicles.insert(
            vehicle,
            VehicleState {
                slots,
                open_day: Vec::new(),
            },
        );
    }

    /// Records rejected because their day was already sealed.
    pub fn out_of_order(&self) -> u64 {
        self.out_of_order
    }

    /// Days sealed so far.
    pub fn days_sealed(&self) -> u64 {
        self.days_sealed
    }

    /// The last sealed day (`start_day - 1` when nothing sealed yet).
    pub fn sealed_through(&self) -> i64 {
        self.sealed_through
    }

    /// Aggregate cleaning statistics over all sealed days.
    pub fn cleaning(&self) -> &CleaningStats {
        &self.cleaning
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vup_dataprep::pipeline::prepare_vehicle_days;
    use vup_fleetsim::dropout::DropoutConfig;
    use vup_fleetsim::fleet::{Fleet, FleetConfig};
    use vup_fleetsim::generator::generate_day_raw_reports;

    fn fleet() -> Fleet {
        Fleet::generate(FleetConfig::small(3, 1234))
    }

    /// Streams `days` days of the fleet day-major into the aggregator,
    /// exactly as a log replay would deliver them.
    fn stream_days(fleet: &Fleet, agg: &mut FleetAggregator, days: usize, dropout: &DropoutConfig) {
        let mut offset = 0u64;
        for d in 0..days {
            let date = fleet.config().start.plus_days(d as i64);
            for vehicle in fleet.vehicles() {
                for report in generate_day_raw_reports(fleet, vehicle.id, date, dropout) {
                    agg.observe(&LogRecord {
                        offset,
                        vehicle_id: vehicle.id.0,
                        report,
                    });
                    offset += 1;
                }
            }
        }
        agg.seal_all();
    }

    #[test]
    fn streaming_aggregation_matches_the_batch_pipeline() {
        let fleet = fleet();
        let days = 30;
        let dropout = DropoutConfig::default();
        let mut agg = FleetAggregator::new(fleet.config().start.day_index(), Scenario::NextDay);
        stream_days(&fleet, &mut agg, days, &dropout);

        let histories = agg.histories();
        let histories = histories.read().unwrap();
        // A vehicle idle for the whole window sends nothing and stays
        // unknown — that is correct; everyone else must match batch.
        assert!(histories.len() >= 2, "most vehicles should have reported");
        for (&vehicle_id, streamed) in histories.iter() {
            let batch = prepare_vehicle_days(
                &fleet,
                vup_fleetsim::fleet::VehicleId(vehicle_id),
                fleet.config().start,
                days,
                &dropout,
            )
            .unwrap();
            // The stream can end in silent (idle) days the watermark
            // never passes; everything sealed must match bit for bit.
            assert!(streamed.len() >= days - 7, "too few sealed days");
            assert_eq!(streamed.as_slice(), &batch.records[..streamed.len()]);
        }
    }

    #[test]
    fn out_of_order_records_for_sealed_days_are_rejected_not_merged() {
        let fleet = fleet();
        let start = fleet.config().start;
        let mut agg = FleetAggregator::new(start.day_index(), Scenario::NextDay);
        stream_days(&fleet, &mut agg, 5, &DropoutConfig::none());
        let vehicle = *agg
            .histories()
            .read()
            .unwrap()
            .keys()
            .next()
            .expect("some vehicle reported");
        let before: Vec<DailyRecord> = agg.histories().read().unwrap()[&vehicle].clone();
        assert_eq!(agg.out_of_order(), 0);

        // A record for an already-sealed day must bounce. (Scan the
        // streamed days for one where this vehicle actually reported.)
        let stale = (0..5)
            .find_map(|d| {
                generate_day_raw_reports(
                    &fleet,
                    vup_fleetsim::fleet::VehicleId(vehicle),
                    start.plus_days(d),
                    &DropoutConfig::none(),
                )
                .into_iter()
                .next()
            })
            .expect("vehicle reported at least once");
        let events = agg.observe(&LogRecord {
            offset: 999_999,
            vehicle_id: vehicle,
            report: stale,
        });
        assert!(events.is_empty());
        assert_eq!(agg.out_of_order(), 1);
        assert_eq!(agg.histories().read().unwrap()[&vehicle], before);
    }

    #[test]
    fn late_first_report_backfills_idle_days_for_alignment() {
        let start = 17000i64;
        let mut agg = FleetAggregator::new(start, Scenario::NextDay);
        let mk = |offset: u64, vehicle: u32, day: i64| LogRecord {
            offset,
            vehicle_id: vehicle,
            report: RawReport {
                day,
                minute: 480,
                engine_on: true,
                fuel_level_pct: Some(50.0),
                engine_rpm: Some(1200.0),
                oil_pressure_kpa: Some(300.0),
                coolant_temp_c: Some(80.0),
                fuel_rate_lph: Some(8.0),
                speed_kmh: Some(10.0),
                load_pct: Some(40.0),
                digging_pressure_kpa: None,
                pump_drive_temp_c: Some(60.0),
                oil_tank_temp_c: Some(50.0),
            },
        };
        // Vehicle 0 reports from day 0; vehicle 9 first appears on day 3.
        for (i, day) in (0..4).enumerate() {
            agg.observe(&mk(i as u64, 0, start + day));
        }
        agg.observe(&mk(99, 9, start + 3));
        agg.seal_all();
        let histories = agg.histories();
        let histories = histories.read().unwrap();
        assert_eq!(histories[&0].len(), 4);
        let late = &histories[&9];
        // Backfilled days are idle; the reported day carries hours.
        assert_eq!(late.len(), 4);
        assert!(late[..3].iter().all(|r| r.hours == 0.0));
        assert!(late[3].hours > 0.0);
        // Day indices align across vehicles.
        for (a, b) in histories[&0].iter().zip(late.iter()) {
            assert_eq!(a.day, b.day);
        }
    }

    #[test]
    fn next_working_day_scenario_emits_slots_only_for_working_days() {
        let fleet = fleet();
        let mut agg =
            FleetAggregator::new(fleet.config().start.day_index(), Scenario::NextWorkingDay);
        let mut events = Vec::new();
        let mut offset = 0u64;
        for d in 0..21 {
            let date = fleet.config().start.plus_days(d as i64);
            for vehicle in fleet.vehicles() {
                for report in
                    generate_day_raw_reports(&fleet, vehicle.id, date, &DropoutConfig::none())
                {
                    events.extend(agg.observe(&LogRecord {
                        offset,
                        vehicle_id: vehicle.id.0,
                        report,
                    }));
                    offset += 1;
                }
            }
        }
        events.extend(agg.seal_all());
        assert!(!events.is_empty());
        for event in &events {
            assert!(event.hours >= vup_core::scenario::WORKING_DAY_THRESHOLD);
        }
        // Slot indices per vehicle are contiguous from zero.
        let mut next: BTreeMap<u32, usize> = BTreeMap::new();
        for event in &events {
            let n = next.entry(event.vehicle_id).or_default();
            assert_eq!(event.slot, *n);
            *n += 1;
        }
    }
}
