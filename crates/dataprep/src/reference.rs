//! The day cleaning and aggregation as three separate passes, kept
//! only as the reference that [`crate::aggregate::clean_and_aggregate_day`]
//! must reproduce bit for bit: [`clean_day`] (sort, dedup, range-null,
//! interpolate, one `Vec` per channel) followed by [`aggregate_day`]
//! (one `Vec` per channel mean).

use vup_fleetsim::calendar::Date;
use vup_fleetsim::canbus::{RawReport, REPORT_INTERVAL_MIN};
use vup_fleetsim::generator::{DailyCan, DailyRecord};

use crate::cleaning::{CleaningStats, ValidityRules};

/// Cleans one day's report stream in three passes: dedup (same minute),
/// range-rule nulling, and within-day interpolation of missing channel
/// values. Reports are also sorted by minute (uploads can arrive
/// out of order).
pub fn clean_day(
    mut reports: Vec<RawReport>,
    rules: &ValidityRules,
) -> (Vec<RawReport>, CleaningStats) {
    let mut stats = CleaningStats::default();
    if reports.is_empty() {
        return (reports, stats);
    }

    // Sort by minute and remove exact-minute duplicates (keep the first).
    reports.sort_by_key(|r| r.minute);
    let before = reports.len();
    reports.dedup_by_key(|r| r.minute);
    stats.duplicates_removed = before - reports.len();

    // Null out-of-range values.
    macro_rules! apply_rule {
        ($field:ident) => {
            for r in reports.iter_mut() {
                if let Some(v) = r.$field {
                    let (lo, hi) = rules.$field;
                    if !(lo..=hi).contains(&v) || !v.is_finite() {
                        r.$field = None;
                        stats.glitches_nulled += 1;
                    }
                }
            }
        };
    }
    apply_rule!(fuel_level_pct);
    apply_rule!(engine_rpm);
    apply_rule!(oil_pressure_kpa);
    apply_rule!(coolant_temp_c);
    apply_rule!(fuel_rate_lph);
    apply_rule!(speed_kmh);
    apply_rule!(load_pct);
    apply_rule!(digging_pressure_kpa);
    apply_rule!(pump_drive_temp_c);
    apply_rule!(oil_tank_temp_c);

    // Interpolate missing values within the day, channel by channel.
    macro_rules! impute {
        ($field:ident) => {{
            let series: Vec<Option<f64>> = reports.iter().map(|r| r.$field).collect();
            // Only impute channels the vehicle actually reports (skip
            // all-None channels like digging pressure on a compactor).
            if series.iter().any(Option::is_some) {
                let filled = interpolate(&series);
                for (r, v) in reports.iter_mut().zip(filled) {
                    if r.$field.is_none() && v.is_some() {
                        r.$field = v;
                        stats.values_imputed += 1;
                    }
                }
            }
        }};
    }
    impute!(fuel_level_pct);
    impute!(engine_rpm);
    impute!(oil_pressure_kpa);
    impute!(coolant_temp_c);
    impute!(fuel_rate_lph);
    impute!(speed_kmh);
    impute!(load_pct);
    impute!(digging_pressure_kpa);
    impute!(pump_drive_temp_c);
    impute!(oil_tank_temp_c);

    (reports, stats)
}

/// Linear interpolation over `None` gaps; edge gaps take the nearest
/// observed value. All-`None` input comes back unchanged.
pub fn interpolate(series: &[Option<f64>]) -> Vec<Option<f64>> {
    let n = series.len();
    let mut out = series.to_vec();
    let observed: Vec<usize> = (0..n).filter(|&i| series[i].is_some()).collect();
    if observed.is_empty() {
        return out;
    }
    // Leading edge.
    let first = observed[0];
    for slot in out.iter_mut().take(first) {
        *slot = series[first];
    }
    // Trailing edge.
    let last = *observed.last().expect("non-empty");
    for slot in out.iter_mut().skip(last + 1) {
        *slot = series[last];
    }
    // Interior gaps.
    for w in observed.windows(2) {
        let (a, b) = (w[0], w[1]);
        if b - a <= 1 {
            continue;
        }
        let va = series[a].expect("observed");
        let vb = series[b].expect("observed");
        for (offset, slot) in out[(a + 1)..b].iter_mut().enumerate() {
            let t = (offset + 1) as f64 / (b - a) as f64;
            *slot = Some(va + (vb - va) * t);
        }
    }
    out
}

/// Aggregates one day's *cleaned* reports into a [`DailyRecord`].
///
/// An empty report stream yields an idle-day record (0 hours, zeroed
/// channels) — exactly what the daily fast path emits for idle days.
pub fn aggregate_day(date: Date, reports: &[RawReport]) -> DailyRecord {
    let day = date.day_index();
    let on_reports: Vec<&RawReport> = reports.iter().filter(|r| r.engine_on).collect();
    if on_reports.is_empty() {
        return DailyRecord {
            day,
            date,
            hours: 0.0,
            can: DailyCan::default(),
        };
    }

    let hours = on_reports.len() as f64 * REPORT_INTERVAL_MIN as f64 / 60.0;

    fn mean_of(values: impl Iterator<Item = Option<f64>>) -> f64 {
        let observed: Vec<f64> = values.flatten().collect();
        if observed.is_empty() {
            0.0
        } else {
            observed.iter().sum::<f64>() / observed.len() as f64
        }
    }

    // Fuel burned: integrate the rate channel over report intervals.
    let fuel_used_l: f64 = on_reports
        .iter()
        .filter_map(|r| r.fuel_rate_lph)
        .map(|rate| rate * REPORT_INTERVAL_MIN as f64 / 60.0)
        .sum();
    // End-of-day fuel level: last observed value.
    let fuel_level_end_pct = on_reports
        .iter()
        .rev()
        .find_map(|r| r.fuel_level_pct)
        .unwrap_or(0.0);

    DailyRecord {
        day,
        date,
        hours,
        can: DailyCan {
            fuel_used_l,
            fuel_level_end_pct,
            avg_rpm: mean_of(on_reports.iter().map(|r| r.engine_rpm)),
            avg_oil_pressure_kpa: mean_of(on_reports.iter().map(|r| r.oil_pressure_kpa)),
            avg_coolant_temp_c: mean_of(on_reports.iter().map(|r| r.coolant_temp_c)),
            avg_speed_kmh: mean_of(on_reports.iter().map(|r| r.speed_kmh)),
            avg_load_pct: mean_of(on_reports.iter().map(|r| r.load_pct)),
            avg_digging_pressure_kpa: mean_of(on_reports.iter().map(|r| r.digging_pressure_kpa)),
            avg_pump_temp_c: mean_of(on_reports.iter().map(|r| r.pump_drive_temp_c)),
            avg_oil_tank_temp_c: mean_of(on_reports.iter().map(|r| r.oil_tank_temp_c)),
        },
    }
}

#[test]
fn interpolation_basics() {
    assert_eq!(
        interpolate(&[Some(1.0), None, Some(3.0)]),
        vec![Some(1.0), Some(2.0), Some(3.0)]
    );
    assert_eq!(
        interpolate(&[None, Some(4.0), None]),
        vec![Some(4.0), Some(4.0), Some(4.0)]
    );
    assert_eq!(interpolate(&[None, None]), vec![None, None]);
    assert_eq!(
        interpolate(&[Some(0.0), None, None, Some(3.0)]),
        vec![Some(0.0), Some(1.0), Some(2.0), Some(3.0)]
    );
}
