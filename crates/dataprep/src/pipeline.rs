//! Step (v) and orchestration — the full preparation pipeline.
//!
//! [`prepare_vehicle_days`] runs the paper's steps end to end for one
//! vehicle over a date range: raw 10-minute reports → cleaning → daily
//! aggregation → enrichment → a relational [`Table`] (one row per day).
//! [`daily_records_to_table`] performs the transformation step alone for
//! histories produced by the fast daily path.

use vup_fleetsim::calendar::Date;
use vup_fleetsim::dropout::DropoutConfig;
use vup_fleetsim::fleet::{Fleet, VehicleId};
use vup_fleetsim::generator::{self, DailyRecord};

use crate::aggregate::clean_and_aggregate_day;
use crate::cleaning::{CleaningStats, ValidityRules};
use crate::enrich::{day_context, encode_context, CONTEXT_FEATURE_NAMES};
use crate::schema::{DataType, Field, Schema};
use crate::table::Table;
use crate::value::Value;
use crate::Result;

/// Names of the daily CAN channel columns, aligned with
/// [`can_channel_values`].
pub const CAN_CHANNEL_NAMES: [&str; 10] = [
    "fuel_used_l",
    "fuel_level_end_pct",
    "avg_rpm",
    "avg_oil_pressure_kpa",
    "avg_coolant_temp_c",
    "avg_speed_kmh",
    "avg_load_pct",
    "avg_digging_pressure_kpa",
    "avg_pump_temp_c",
    "avg_oil_tank_temp_c",
];

/// Extracts the CAN channel values of a record in [`CAN_CHANNEL_NAMES`]
/// order.
pub fn can_channel_values(r: &DailyRecord) -> [f64; 10] {
    [
        r.can.fuel_used_l,
        r.can.fuel_level_end_pct,
        r.can.avg_rpm,
        r.can.avg_oil_pressure_kpa,
        r.can.avg_coolant_temp_c,
        r.can.avg_speed_kmh,
        r.can.avg_load_pct,
        r.can.avg_digging_pressure_kpa,
        r.can.avg_pump_temp_c,
        r.can.avg_oil_tank_temp_c,
    ]
}

/// The relational schema of a prepared per-vehicle daily table.
pub fn daily_schema() -> Schema {
    let mut fields = vec![
        Field::new("vehicle_id", DataType::Int),
        Field::new("day", DataType::Int),
        Field::new("date", DataType::Str),
        Field::new("hours", DataType::Float),
    ];
    fields.extend(
        CAN_CHANNEL_NAMES
            .iter()
            .map(|&n| Field::new(n, DataType::Float)),
    );
    fields.extend(
        CONTEXT_FEATURE_NAMES
            .iter()
            .map(|&n| Field::new(n, DataType::Float)),
    );
    Schema::new(fields)
}

/// Transformation step: turns daily records (plus per-day context from the
/// vehicle's country calendar) into a relational table with the
/// [`daily_schema`] layout.
pub fn daily_records_to_table(
    fleet: &Fleet,
    id: VehicleId,
    records: &[DailyRecord],
) -> Result<Table> {
    let vehicle = fleet
        .vehicle(id)
        .unwrap_or_else(|| panic!("vehicle {id:?} not in fleet"));
    let country = fleet.country_of(vehicle);
    let mut table = Table::new(daily_schema());
    for r in records {
        let mut row: Vec<Value> = vec![
            Value::Int(id.0 as i64),
            Value::Int(r.day),
            Value::Str(r.date.to_string()),
            Value::Float(r.hours),
        ];
        row.extend(can_channel_values(r).iter().map(|&v| Value::Float(v)));
        let ctx = day_context(r.date, country);
        row.extend(encode_context(&ctx).into_iter().map(Value::Float));
        table.push_row(row)?;
    }
    Ok(table)
}

/// Output of the full five-step pipeline for one vehicle.
#[derive(Debug, Clone)]
pub struct PreparedVehicle {
    /// Daily records recovered from the cleaned report stream.
    pub records: Vec<DailyRecord>,
    /// The relational daily table (transformation step output).
    pub table: Table,
    /// Aggregate cleaning statistics over all processed days.
    pub cleaning: CleaningStats,
}

/// Runs the preparation steps on the *raw 10-minute report stream* of one
/// vehicle over `[start, start + n_days)`.
///
/// `dropout` controls the injected connectivity defects (use
/// [`DropoutConfig::none`] for a clean stream). Normalization is fitted by
/// the caller on a training window (`vup_ml::scaler::StandardScaler`)
/// rather than here, to avoid train/test leakage.
pub fn prepare_vehicle_days(
    fleet: &Fleet,
    id: VehicleId,
    start: Date,
    n_days: usize,
    dropout: &DropoutConfig,
) -> Result<PreparedVehicle> {
    let rules = ValidityRules::default();
    let mut records = Vec::with_capacity(n_days);
    let mut total_stats = CleaningStats::default();
    for i in 0..n_days {
        let date = start.plus_days(i as i64);
        let mut raw = generator::generate_day_raw_reports(fleet, id, date, dropout);
        records.push(clean_and_aggregate_day(
            date,
            &mut raw,
            &rules,
            &mut total_stats,
        ));
    }
    let table = daily_records_to_table(fleet, id, &records)?;
    Ok(PreparedVehicle {
        records,
        table,
        cleaning: total_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vup_fleetsim::fleet::FleetConfig;

    fn fleet() -> Fleet {
        Fleet::generate(FleetConfig::small(20, 555))
    }

    #[test]
    fn schema_has_expected_layout() {
        let s = daily_schema();
        assert_eq!(s.len(), 4 + 10 + CONTEXT_FEATURE_NAMES.len());
        assert_eq!(s.fields()[0].name, "vehicle_id");
        assert_eq!(s.index_of("hours").unwrap(), 3);
        assert!(s.index_of("is_holiday").is_ok());
        assert!(s.index_of("avg_rpm").is_ok());
    }

    #[test]
    fn transformation_builds_one_row_per_day() {
        let fleet = fleet();
        let id = VehicleId(4);
        let history = generator::generate_history(&fleet, id);
        let table = daily_records_to_table(&fleet, id, &history.records[..60]).unwrap();
        assert_eq!(table.n_rows(), 60);
        assert_eq!(table.get(0, "vehicle_id").unwrap(), Value::Int(4));
        let hours = table.float_column("hours").unwrap();
        for (row, rec) in hours.iter().zip(&history.records[..60]) {
            assert_eq!(row.unwrap(), rec.hours);
        }
    }

    #[test]
    fn pipeline_recovers_fast_path_hours() {
        // End-to-end on a clean stream: hours recovered from report counts
        // must match the daily fast path within one report interval.
        let fleet = fleet();
        let id = VehicleId(2);
        let start = fleet.config().start;
        let prepared = prepare_vehicle_days(&fleet, id, start, 40, &DropoutConfig::none()).unwrap();
        let reference = generator::generate_history(&fleet, id);
        assert_eq!(prepared.records.len(), 40);
        for (got, want) in prepared.records.iter().zip(&reference.records[..40]) {
            assert_eq!(got.date, want.date);
            assert!(
                (got.hours - want.hours).abs() <= 0.4,
                "day {}: pipeline {} vs fast path {}",
                got.date,
                got.hours,
                want.hours
            );
        }
        // Clean stream means nothing to fix.
        assert_eq!(prepared.cleaning, CleaningStats::default());
    }

    #[test]
    fn pipeline_survives_heavy_dropout() {
        let fleet = fleet();
        let id = VehicleId(2);
        let start = fleet.config().start;
        let noisy_cfg = DropoutConfig {
            outage_prob: 0.5,
            field_missing_prob: 0.1,
            corrupt_prob: 0.05,
            duplicate_prob: 0.05,
        };
        let prepared = prepare_vehicle_days(&fleet, id, start, 60, &noisy_cfg).unwrap();
        // The cleaner must have had work to do...
        let s = &prepared.cleaning;
        assert!(
            s.duplicates_removed + s.glitches_nulled + s.values_imputed > 0,
            "no defects encountered under heavy dropout?"
        );
        // ...and the output must stay physically valid.
        for r in &prepared.records {
            assert!((0.0..=24.0).contains(&r.hours));
            assert!(r.can.fuel_level_end_pct >= 0.0 && r.can.fuel_level_end_pct <= 100.0);
            assert!(r.can.avg_rpm >= 0.0 && r.can.avg_rpm <= 4000.0);
        }
    }

    #[test]
    fn enriched_columns_reflect_the_calendar() {
        let fleet = fleet();
        let id = VehicleId(0);
        let history = generator::generate_history(&fleet, id);
        let table = daily_records_to_table(&fleet, id, &history.records[..14]).unwrap();
        // Verify the day-of-week one-hot columns track the calendar.
        let monday_flags = table.float_column("dow_mon").unwrap();
        let holiday_flags = table.float_column("is_holiday").unwrap();
        let vehicle = fleet.vehicle(id).unwrap();
        let country = fleet.country_of(vehicle);
        for (i, (mon, hol)) in monday_flags.iter().zip(&holiday_flags).enumerate() {
            let date = fleet.config().start.plus_days(i as i64);
            assert_eq!(mon.unwrap() > 0.5, date.weekday().index() == 0);
            assert_eq!(hol.unwrap() > 0.5, country.is_holiday(date));
        }
    }
}
