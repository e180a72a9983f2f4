//! Step (i) — cleaning of raw 10-minute CAN reports.
//!
//! Handles exactly the field defects the connectivity model injects:
//! duplicated uploads, physically impossible glitch values, and missing
//! channel values. Glitches are nulled by per-channel validity ranges and
//! missing values are imputed by within-day linear interpolation (falling
//! back to the nearest observed value at the edges). The pass runs in
//! place, as the first half of
//! [`crate::aggregate::clean_and_aggregate_day`].

use vup_fleetsim::canbus::RawReport;

/// Per-channel physical validity ranges `(min, max)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidityRules {
    /// Fuel level, percent.
    pub fuel_level_pct: (f64, f64),
    /// Engine speed, rpm.
    pub engine_rpm: (f64, f64),
    /// Oil pressure, kPa.
    pub oil_pressure_kpa: (f64, f64),
    /// Coolant temperature, °C.
    pub coolant_temp_c: (f64, f64),
    /// Fuel rate, litres/hour.
    pub fuel_rate_lph: (f64, f64),
    /// Ground speed, km/h.
    pub speed_kmh: (f64, f64),
    /// Engine load, percent.
    pub load_pct: (f64, f64),
    /// Digging pressure, kPa.
    pub digging_pressure_kpa: (f64, f64),
    /// Pump-drive temperature, °C.
    pub pump_drive_temp_c: (f64, f64),
    /// Oil-tank temperature, °C.
    pub oil_tank_temp_c: (f64, f64),
}

impl Default for ValidityRules {
    fn default() -> Self {
        ValidityRules {
            fuel_level_pct: (0.0, 100.0),
            engine_rpm: (0.0, 4000.0),
            oil_pressure_kpa: (0.0, 1200.0),
            coolant_temp_c: (-40.0, 130.0),
            fuel_rate_lph: (0.0, 200.0),
            speed_kmh: (0.0, 80.0),
            load_pct: (0.0, 100.0),
            digging_pressure_kpa: (0.0, 50_000.0),
            pump_drive_temp_c: (-40.0, 150.0),
            oil_tank_temp_c: (-40.0, 150.0),
        }
    }
}

/// What the cleaning pass changed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CleaningStats {
    /// Duplicated reports removed.
    pub duplicates_removed: usize,
    /// Out-of-range values nulled.
    pub glitches_nulled: usize,
    /// Missing values filled by interpolation.
    pub values_imputed: usize,
}

/// Cleans one day's report stream in place: sorts it by minute
/// (uploads can arrive out of order), drops same-minute duplicates
/// (keeping the first), then channel by channel nulls out-of-range
/// values and fills missing ones by within-day interpolation. Adds what
/// it changed to `stats`. Allocates nothing.
pub(crate) fn clean_in_place(
    reports: &mut Vec<RawReport>,
    rules: &ValidityRules,
    stats: &mut CleaningStats,
) {
    sort_by_minute(reports);
    let before = reports.len();
    reports.dedup_by_key(|r| r.minute);
    stats.duplicates_removed += before - reports.len();

    macro_rules! clean_channels {
        ($($field:ident),*) => {$(
            clean_channel(reports, |r| &mut r.$field, rules.$field, stats);
        )*};
    }
    clean_channels!(
        fuel_level_pct,
        engine_rpm,
        oil_pressure_kpa,
        coolant_temp_c,
        fuel_rate_lph,
        speed_kmh,
        load_pct,
        digging_pressure_kpa,
        pump_drive_temp_c,
        oil_tank_temp_c
    );
}

/// Stable in-place insertion sort by minute: each out-of-place report
/// is rotated back behind the last report of an equal or earlier
/// minute. It costs one comparison per report plus one move per
/// inversion; upload streams are nearly sorted, so that is close to
/// linear, and unlike `sort_by_key` it needs no buffer.
fn sort_by_minute(reports: &mut [RawReport]) {
    for i in 1..reports.len() {
        let minute = reports[i].minute;
        if reports[i - 1].minute > minute {
            let at = reports[..i].partition_point(|r| r.minute <= minute);
            reports[at..=i].rotate_right(1);
        }
    }
}

/// One channel's cleaning in a single walk: a value outside `(lo, hi)`
/// or non-finite is nulled; each `None` gap between two observed
/// values is filled linearly, and the gaps before the first and after
/// the last observed value take that value. A channel with no observed
/// value stays all-`None` (a sensor the vehicle does not have).
fn clean_channel(
    reports: &mut [RawReport],
    field: fn(&mut RawReport) -> &mut Option<f64>,
    (lo, hi): (f64, f64),
    stats: &mut CleaningStats,
) {
    let mut last: Option<(usize, f64)> = None;
    for i in 0..reports.len() {
        let slot = field(&mut reports[i]);
        let Some(v) = *slot else { continue };
        if !(lo..=hi).contains(&v) || !v.is_finite() {
            *slot = None;
            stats.glitches_nulled += 1;
            continue;
        }
        match last {
            None => {
                reports[..i].iter_mut().for_each(|r| *field(r) = Some(v));
                stats.values_imputed += i;
            }
            Some((a, va)) => {
                let gap = (i - a) as f64;
                for (offset, r) in reports[a + 1..i].iter_mut().enumerate() {
                    let t = (offset + 1) as f64 / gap;
                    *field(r) = Some(va + (v - va) * t);
                }
                stats.values_imputed += i - a - 1;
            }
        }
        last = Some((i, v));
    }
    if let Some((a, va)) = last {
        reports[a + 1..]
            .iter_mut()
            .for_each(|r| *field(r) = Some(va));
        stats.values_imputed += reports.len() - a - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(minute: u16, rpm: Option<f64>) -> RawReport {
        RawReport {
            day: 17_000,
            minute,
            engine_on: true,
            fuel_level_pct: Some(50.0),
            engine_rpm: rpm,
            oil_pressure_kpa: Some(300.0),
            coolant_temp_c: Some(85.0),
            fuel_rate_lph: Some(10.0),
            speed_kmh: Some(5.0),
            load_pct: Some(45.0),
            digging_pressure_kpa: None,
            pump_drive_temp_c: Some(55.0),
            oil_tank_temp_c: Some(48.0),
        }
    }

    fn clean_day(
        mut reports: Vec<RawReport>,
        rules: &ValidityRules,
    ) -> (Vec<RawReport>, CleaningStats) {
        let mut stats = CleaningStats::default();
        clean_in_place(&mut reports, rules, &mut stats);
        (reports, stats)
    }

    #[test]
    fn gaps_are_interpolated_and_edges_take_the_nearest_value() {
        let rpm = [None, Some(1000.0), None, None, Some(1300.0), None];
        let reports = (0..6)
            .map(|i| report(10 * (i as u16 + 1), rpm[i]))
            .collect();
        let (clean, stats) = clean_day(reports, &ValidityRules::default());
        let got: Vec<Option<f64>> = clean.iter().map(|r| r.engine_rpm).collect();
        assert_eq!(
            got,
            [1000.0, 1000.0, 1100.0, 1200.0, 1300.0, 1300.0].map(Some)
        );
        assert_eq!(stats.values_imputed, 4);
    }

    #[test]
    fn out_of_order_minutes_sort_stably() {
        let mut late = report(10, Some(1100.0));
        late.fuel_level_pct = Some(40.0);
        let reports = vec![
            report(30, Some(1300.0)),
            report(10, Some(1000.0)),
            report(20, Some(1200.0)),
            late,
        ];
        let (clean, stats) = clean_day(reports, &ValidityRules::default());
        let minutes: Vec<u16> = clean.iter().map(|r| r.minute).collect();
        assert_eq!(minutes, [10, 20, 30]);
        // The first upload of minute 10 survives the dedup.
        assert_eq!(clean[0].engine_rpm, Some(1000.0));
        assert_eq!(stats.duplicates_removed, 1);
    }

    #[test]
    fn duplicates_are_removed_and_order_restored() {
        let reports = vec![
            report(30, Some(1200.0)),
            report(10, Some(1000.0)),
            report(10, Some(1000.0)),
        ];
        let (clean, stats) = clean_day(reports, &ValidityRules::default());
        assert_eq!(clean.len(), 2);
        assert_eq!(stats.duplicates_removed, 1);
        assert!(clean[0].minute < clean[1].minute);
    }

    #[test]
    fn glitches_are_nulled_then_imputed() {
        let reports = vec![
            report(10, Some(1000.0)),
            report(20, Some(65_535.0)), // stuck CAN word, out of range
            report(30, Some(1400.0)),
        ];
        let (clean, stats) = clean_day(reports, &ValidityRules::default());
        assert_eq!(stats.glitches_nulled, 1);
        assert_eq!(stats.values_imputed, 1);
        // Interpolated between the neighbours.
        assert_eq!(clean[1].engine_rpm, Some(1200.0));
    }

    #[test]
    fn missing_channel_everywhere_stays_missing() {
        let reports = vec![report(10, Some(900.0)), report(20, Some(950.0))];
        // digging_pressure is None on both reports (not fitted).
        let (clean, stats) = clean_day(reports, &ValidityRules::default());
        assert!(clean.iter().all(|r| r.digging_pressure_kpa.is_none()));
        assert_eq!(stats.values_imputed, 0);
    }

    #[test]
    fn non_finite_values_are_glitches() {
        let mut r = report(10, Some(f64::NAN));
        r.coolant_temp_c = Some(f64::INFINITY);
        let (clean, stats) =
            clean_day(vec![r, report(20, Some(1000.0))], &ValidityRules::default());
        assert!(stats.glitches_nulled >= 2);
        assert!(clean[0].engine_rpm.unwrap().is_finite());
    }

    #[test]
    fn empty_stream_passes_through() {
        let (clean, stats) = clean_day(Vec::new(), &ValidityRules::default());
        assert!(clean.is_empty());
        assert_eq!(stats, CleaningStats::default());
    }

    #[test]
    fn clean_stream_is_untouched() {
        let reports: Vec<RawReport> = (1..=6)
            .map(|i| report(i * 10, Some(1000.0 + i as f64)))
            .collect();
        let (clean, stats) = clean_day(reports.clone(), &ValidityRules::default());
        assert_eq!(clean, reports);
        assert_eq!(stats, CleaningStats::default());
    }
}
