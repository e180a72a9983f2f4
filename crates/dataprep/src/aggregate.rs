//! Steps (i) and (iii) — one day's cleaning and daily aggregation of its
//! 10-minute reports, in one in-place pass.
//!
//! Utilization hours are derived from the sample count exactly as the
//! paper describes ("based on acquisition time and number of acquired
//! samples we derive the daily utilization hours"): each engine-on report
//! covers one 10-minute interval. Channel values are averaged over the
//! day; fuel burn integrates the fuel-rate channel.

use vup_fleetsim::calendar::Date;
use vup_fleetsim::canbus::{RawReport, REPORT_INTERVAL_MIN};
use vup_fleetsim::generator::{DailyCan, DailyRecord};

use crate::cleaning::{clean_in_place, CleaningStats, ValidityRules};

/// Cleans one day's raw reports in place (sort by minute, dedup,
/// range-null and interpolate; see [`crate::cleaning`]), adds what the
/// cleaning changed to `stats`, and aggregates the cleaned reports into
/// a [`DailyRecord`]. `reports` is left holding the cleaned stream.
///
/// An empty (or engine-off-only) stream yields an idle-day record
/// (0 hours, zeroed channels) — exactly what the daily fast path emits
/// for idle days. Allocates nothing: the batch pipeline and the
/// streaming aggregator both seal every (vehicle, day) through here.
pub fn clean_and_aggregate_day(
    date: Date,
    reports: &mut Vec<RawReport>,
    rules: &ValidityRules,
    stats: &mut CleaningStats,
) -> DailyRecord {
    clean_in_place(reports, rules, stats);
    let day = date.day_index();
    let on = || reports.iter().filter(|r| r.engine_on);
    let on_count = on().count();
    if on_count == 0 {
        return DailyRecord {
            day,
            date,
            hours: 0.0,
            can: DailyCan::default(),
        };
    }

    let hours = on_count as f64 * REPORT_INTERVAL_MIN as f64 / 60.0;
    // Mean over the engine-on reports that carry the channel (0 when
    // none does, e.g. digging pressure on a compactor).
    let mean_of = |channel: fn(&RawReport) -> Option<f64>| {
        let mut observed = 0usize;
        let sum: f64 = on().filter_map(channel).inspect(|_| observed += 1).sum();
        if observed == 0 {
            0.0
        } else {
            sum / observed as f64
        }
    };

    // Fuel burned: integrate the rate channel over report intervals.
    let fuel_used_l: f64 = on()
        .filter_map(|r| r.fuel_rate_lph)
        .map(|rate| rate * REPORT_INTERVAL_MIN as f64 / 60.0)
        .sum();
    // End-of-day fuel level: last observed value.
    let fuel_level_end_pct = on().rev().find_map(|r| r.fuel_level_pct).unwrap_or(0.0);

    DailyRecord {
        day,
        date,
        hours,
        can: DailyCan {
            fuel_used_l,
            fuel_level_end_pct,
            avg_rpm: mean_of(|r| r.engine_rpm),
            avg_oil_pressure_kpa: mean_of(|r| r.oil_pressure_kpa),
            avg_coolant_temp_c: mean_of(|r| r.coolant_temp_c),
            avg_speed_kmh: mean_of(|r| r.speed_kmh),
            avg_load_pct: mean_of(|r| r.load_pct),
            avg_digging_pressure_kpa: mean_of(|r| r.digging_pressure_kpa),
            avg_pump_temp_c: mean_of(|r| r.pump_drive_temp_c),
            avg_oil_tank_temp_c: mean_of(|r| r.oil_tank_temp_c),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use proptest::prelude::*;

    fn report(minute: u16, rpm: f64, rate: f64) -> RawReport {
        RawReport {
            day: Date::new(2016, 4, 12).unwrap().day_index(),
            minute,
            engine_on: true,
            fuel_level_pct: Some(60.0 - minute as f64 * 0.01),
            engine_rpm: Some(rpm),
            oil_pressure_kpa: Some(310.0),
            coolant_temp_c: Some(82.0),
            fuel_rate_lph: Some(rate),
            speed_kmh: Some(6.0),
            load_pct: Some(50.0),
            digging_pressure_kpa: None,
            pump_drive_temp_c: Some(52.0),
            oil_tank_temp_c: Some(47.0),
        }
    }

    fn aggregate(date: Date, reports: &[RawReport]) -> DailyRecord {
        let mut stats = CleaningStats::default();
        let rules = ValidityRules::default();
        clean_and_aggregate_day(date, &mut reports.to_vec(), &rules, &mut stats)
    }

    #[test]
    fn hours_from_sample_count() {
        let date = Date::new(2016, 4, 12).unwrap();
        let reports: Vec<RawReport> = (0..18)
            .map(|i| report(400 + i * 10, 1100.0, 12.0))
            .collect();
        let rec = aggregate(date, &reports);
        assert!((rec.hours - 3.0).abs() < 1e-12); // 18 reports = 3 h
        assert_eq!(rec.day, date.day_index());
    }

    #[test]
    fn idle_day_produces_default_record() {
        let date = Date::new(2016, 4, 13).unwrap();
        let rec = aggregate(date, &[]);
        assert_eq!(rec.hours, 0.0);
        assert_eq!(rec.can, DailyCan::default());
    }

    #[test]
    fn channel_means_and_fuel_integration() {
        let date = Date::new(2016, 4, 12).unwrap();
        let reports = vec![report(400, 1000.0, 12.0), report(410, 1400.0, 6.0)];
        let rec = aggregate(date, &reports);
        assert!((rec.can.avg_rpm - 1200.0).abs() < 1e-12);
        // (12 + 6) l/h over 10 minutes each = 3 litres total.
        assert!((rec.can.fuel_used_l - 3.0).abs() < 1e-12);
        // Last report's fuel level.
        assert!((rec.can.fuel_level_end_pct - (60.0 - 4.1)).abs() < 1e-12);
    }

    #[test]
    fn missing_values_are_imputed_and_absent_channels_average_to_zero() {
        let date = Date::new(2016, 4, 12).unwrap();
        let mut a = report(400, 1000.0, 12.0);
        a.speed_kmh = None;
        let mut b = report(410, 1200.0, 12.0);
        b.speed_kmh = Some(8.0);
        let mut reports = vec![a, b];
        let mut stats = CleaningStats::default();
        let rec =
            clean_and_aggregate_day(date, &mut reports, &ValidityRules::default(), &mut stats);
        // The gap takes the nearest observed speed before averaging.
        assert_eq!(reports[0].speed_kmh, Some(8.0));
        assert_eq!(stats.values_imputed, 1);
        assert!((rec.can.avg_speed_kmh - 8.0).abs() < 1e-12);
        // All-missing digging channel averages to 0 (not fitted).
        assert_eq!(rec.can.avg_digging_pressure_kpa, 0.0);
    }

    #[test]
    fn engine_off_reports_do_not_count_as_usage() {
        let date = Date::new(2016, 4, 12).unwrap();
        let mut off = report(400, 0.0, 0.0);
        off.engine_on = false;
        let on = report(410, 1000.0, 10.0);
        let rec = aggregate(date, &[off, on]);
        assert!((rec.hours - 1.0 / 6.0).abs() < 1e-12);
        assert!((rec.can.avg_rpm - 1000.0).abs() < 1e-12);
    }

    /// Every field of a record as bits, so NaN and `-0.0` compare
    /// exactly.
    fn record_bits(r: &DailyRecord) -> (i64, Date, [u64; 11]) {
        let c = &r.can;
        let bits = [
            r.hours,
            c.fuel_used_l,
            c.fuel_level_end_pct,
            c.avg_rpm,
            c.avg_oil_pressure_kpa,
            c.avg_coolant_temp_c,
            c.avg_speed_kmh,
            c.avg_load_pct,
            c.avg_digging_pressure_kpa,
            c.avg_pump_temp_c,
            c.avg_oil_tank_temp_c,
        ]
        .map(f64::to_bits);
        (r.day, r.date, bits)
    }

    fn report_bits(r: &RawReport) -> (i64, u16, bool, [Option<u64>; 10]) {
        let channels = [
            r.fuel_level_pct,
            r.engine_rpm,
            r.oil_pressure_kpa,
            r.coolant_temp_c,
            r.fuel_rate_lph,
            r.speed_kmh,
            r.load_pct,
            r.digging_pressure_kpa,
            r.pump_drive_temp_c,
            r.oil_tank_temp_c,
        ]
        .map(|v| v.map(f64::to_bits));
        (r.day, r.minute, r.engine_on, channels)
    }

    /// Runs the one-pass function and the three-pass reference on the
    /// same day and returns why they differ, if they do.
    fn diverges_from_reference(reports: &[RawReport]) -> Option<String> {
        let date = Date::new(2016, 4, 12).unwrap();
        let rules = ValidityRules::default();
        let (want_clean, want_stats) = reference::clean_day(reports.to_vec(), &rules);
        let want = reference::aggregate_day(date, &want_clean);

        let mut got_clean = reports.to_vec();
        let mut got_stats = CleaningStats::default();
        let got = clean_and_aggregate_day(date, &mut got_clean, &rules, &mut got_stats);

        if record_bits(&got) != record_bits(&want) {
            return Some(format!("record: got {got:?}, want {want:?}"));
        }
        let bits = |rs: &[RawReport]| rs.iter().map(report_bits).collect::<Vec<_>>();
        if bits(&got_clean) != bits(&want_clean) {
            return Some(format!(
                "cleaned reports: got {got_clean:?}, want {want_clean:?}"
            ));
        }
        if got_stats != want_stats {
            return Some(format!("stats: got {got_stats:?}, want {want_stats:?}"));
        }
        None
    }

    #[test]
    fn edge_days_match_the_reference() {
        let mut off = report(400, 900.0, 5.0);
        off.engine_on = false;
        let days: [Vec<RawReport>; 4] = [
            vec![],
            vec![report(400, 1000.0, 12.0)],
            vec![off.clone(), off],
            vec![report(410, f64::NAN, 1.0), report(400, 5000.0, 12.0)],
        ];
        for day in &days {
            assert_eq!(diverges_from_reference(day), None, "input {day:?}");
        }
    }

    /// A channel value: in range, out of range, a stuck CAN word, NaN,
    /// ±inf or missing.
    fn channel_value() -> impl Strategy<Value = Option<f64>> {
        prop_oneof![
            proptest::option::of(-60.0f64..5000.0),
            proptest::option::of(0.0f64..100.0),
            Just(Some(65_535.0)),
            Just(Some(f64::NAN)),
            Just(Some(f64::INFINITY)),
            Just(Some(f64::NEG_INFINITY)),
            Just(None),
        ]
    }

    fn raw_report() -> impl Strategy<Value = RawReport> {
        // 24 distinct minutes for up to 60 reports: duplicates and
        // out-of-order uploads are the norm, not the exception.
        let minute = (0u16..24).prop_map(|m| 400 + 10 * m);
        let engine_on = prop_oneof![Just(true), Just(true), Just(false)];
        let channels = proptest::collection::vec(channel_value(), 10);
        (minute, engine_on, channels).prop_map(|(minute, engine_on, c)| RawReport {
            day: Date::new(2016, 4, 12).unwrap().day_index(),
            minute,
            engine_on,
            fuel_level_pct: c[0],
            engine_rpm: c[1],
            oil_pressure_kpa: c[2],
            coolant_temp_c: c[3],
            fuel_rate_lph: c[4],
            speed_kmh: c[5],
            load_pct: c[6],
            digging_pressure_kpa: c[7],
            pump_drive_temp_c: c[8],
            oil_tank_temp_c: c[9],
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The one-pass clean-and-aggregate equals the three-pass
        /// reference bit for bit: record, cleaned stream and stats.
        #[test]
        fn prop_one_pass_equals_the_three_pass_reference(
            mut reports in proptest::collection::vec(raw_report(), 0..60),
            absent in proptest::collection::vec(0u8..4, 10),
            all_off in 0u8..6,
        ) {
            // Some channels absent the whole day (sensor not fitted),
            // and some days with the engine never on.
            for r in reports.iter_mut() {
                let channels = [
                    &mut r.fuel_level_pct,
                    &mut r.engine_rpm,
                    &mut r.oil_pressure_kpa,
                    &mut r.coolant_temp_c,
                    &mut r.fuel_rate_lph,
                    &mut r.speed_kmh,
                    &mut r.load_pct,
                    &mut r.digging_pressure_kpa,
                    &mut r.pump_drive_temp_c,
                    &mut r.oil_tank_temp_c,
                ];
                for (value, &a) in channels.into_iter().zip(&absent) {
                    if a == 0 {
                        *value = None;
                    }
                }
                if all_off == 0 {
                    r.engine_on = false;
                }
            }
            let divergence = diverges_from_reference(&reports);
            prop_assert!(divergence.is_none(), "{}", divergence.unwrap_or_default());
        }
    }
}
