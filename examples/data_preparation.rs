//! The data-preparation pipeline on raw 10-minute CAN reports.
//!
//! Demonstrates the full-fidelity path of the reproduction: synthesize a
//! month of raw CAN report streams for one vehicle *with connectivity
//! defects injected* (outages, missing fields, glitch values, duplicate
//! uploads), run cleaning → daily aggregation → enrichment →
//! transformation, then export the relational table as CSV.
//!
//! Run with: `cargo run --release --example data_preparation`

use vehicle_usage_prediction::dataprep::{csv, pipeline};
use vehicle_usage_prediction::fleetsim::dropout::DropoutConfig;
use vehicle_usage_prediction::prelude::*;

fn main() {
    let fleet = Fleet::generate(FleetConfig::small(10, 1234));
    let id = VehicleId(2);
    let vehicle = fleet.vehicle(id).expect("exists");
    println!(
        "Preparing 28 days of raw CAN data for vehicle {} ({})\n",
        id.0,
        vehicle.vtype.name()
    );

    // Aggressive defect rates so the cleaning pass has visible work.
    let dropout = DropoutConfig {
        outage_prob: 0.2,
        field_missing_prob: 0.05,
        corrupt_prob: 0.02,
        duplicate_prob: 0.02,
    };
    // Start mid-season so the window contains working days (January is
    // dominated by the Christmas shutdown in most simulated countries).
    let start = vup_fleetsim::calendar::Date::new(2016, 6, 1).expect("valid date");
    let prepared =
        pipeline::prepare_vehicle_days(&fleet, id, start, 28, &dropout).expect("pipeline runs");

    println!("Cleaning statistics over 28 days:");
    println!(
        "  duplicate reports removed : {}",
        prepared.cleaning.duplicates_removed
    );
    println!(
        "  glitch values nulled      : {}",
        prepared.cleaning.glitches_nulled
    );
    println!(
        "  missing values imputed    : {}",
        prepared.cleaning.values_imputed
    );

    let table = &prepared.table;
    println!(
        "\nRelational table: {} rows x {} columns",
        table.n_rows(),
        table.n_cols()
    );

    // Show a working-day record.
    if let Some(day) = prepared.records.iter().find(|r| r.hours > 1.0) {
        println!(
            "\nSample working day {}: {:.1} h, {:.0} L fuel, load {:.0} %, coolant {:.0} °C",
            day.date,
            day.hours,
            day.can.fuel_used_l,
            day.can.avg_load_pct,
            day.can.avg_coolant_temp_c
        );
    }

    // Normalization (paper step ii) is not applied to the exported table:
    // the models run it as `StandardScaler`, fitted on each training
    // window, so no statistics of the days being forecast leak into them.
    let out = csv::to_csv(table);
    let path = std::env::temp_dir().join("prepared_vehicle_days.csv");
    std::fs::write(&path, &out).expect("writable temp dir");
    println!("\nRelational table exported to {}", path.display());
    println!("First lines:");
    for line in out.lines().take(4) {
        let short: String = line.chars().take(100).collect();
        println!("  {short}...");
    }
}
