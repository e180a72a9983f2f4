//! Top-level dataset builders.
//!
//! Two generation paths serve different fidelity/scale trade-offs:
//!
//! - **daily path** ([`generate_history`]): produces one [`DailyRecord`]
//!   per observed day — utilization hours plus already-aggregated CAN
//!   channels. This is what the fleet-wide experiments consume (2 239
//!   vehicles × ~1 369 days ≈ 3 M records is comfortably in memory);
//! - **10-minute path** ([`generate_day_raw_reports`]): synthesizes the
//!   raw 10-minute report stream of a single day, optionally corrupted by
//!   the [`crate::dropout`] model. `vup-dataprep` runs its cleaning /
//!   aggregation pipeline on this stream and must recover the daily
//!   records the fast path emits.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

use crate::calendar::Date;
use crate::canbus::{self, RawReport, TankState};
use crate::dropout::{self, DropoutConfig};
use crate::fleet::{Fleet, Vehicle, VehicleId};
use crate::usage::UnitUsageModel;

/// Daily aggregated CAN channels (all zero / `None`-like on idle days,
/// when the engine never starts and no reports are uploaded).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct DailyCan {
    /// Total fuel burned over the day, litres.
    pub fuel_used_l: f64,
    /// Fuel level at the end of the day, percent.
    pub fuel_level_end_pct: f64,
    /// Mean engine speed while running, rpm.
    pub avg_rpm: f64,
    /// Mean oil pressure, kPa.
    pub avg_oil_pressure_kpa: f64,
    /// Mean coolant temperature, °C.
    pub avg_coolant_temp_c: f64,
    /// Mean ground speed, km/h.
    pub avg_speed_kmh: f64,
    /// Mean engine percent load.
    pub avg_load_pct: f64,
    /// Mean digging pressure, kPa (zero when the channel is not fitted).
    pub avg_digging_pressure_kpa: f64,
    /// Mean pump-drive temperature, °C.
    pub avg_pump_temp_c: f64,
    /// Mean hydraulic-oil tank temperature, °C.
    pub avg_oil_tank_temp_c: f64,
}

/// One observed day of one vehicle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DailyRecord {
    /// Absolute day index (days since 1970-01-01).
    pub day: i64,
    /// Calendar date of the record.
    pub date: Date,
    /// Daily utilization hours (0 on idle days).
    pub hours: f64,
    /// Aggregated CAN channels.
    pub can: DailyCan,
}

/// The full observed history of one vehicle on the daily path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VehicleHistory {
    /// Roster entry of the vehicle.
    pub vehicle: Vehicle,
    /// One record per day, contiguous from the fleet start date.
    pub records: Vec<DailyRecord>,
}

impl VehicleHistory {
    /// The utilization-hours series in day order.
    pub fn hours_series(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.hours).collect()
    }

    /// Absolute day index of the first record.
    pub fn start_day(&self) -> i64 {
        self.records.first().map(|r| r.day).unwrap_or(0)
    }

    /// Fraction of days with any usage.
    pub fn utilization_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().filter(|r| r.hours > 0.0).count() as f64 / self.records.len() as f64
    }
}

/// Generates a vehicle's full daily history (fast path).
///
/// Deterministic in `(fleet.config().seed, id)`; independent of the order
/// in which vehicles are generated.
pub fn generate_history(fleet: &Fleet, id: VehicleId) -> VehicleHistory {
    let vehicle = fleet
        .vehicle(id)
        .unwrap_or_else(|| panic!("vehicle {id:?} not in fleet"))
        .clone();
    let country = fleet.country_of(&vehicle);
    let cfg = fleet.config();
    let n_days = cfg.n_days();
    let model =
        UnitUsageModel::with_weather(cfg.seed, &vehicle, country, n_days, cfg.weather_effects);
    let hours = model.generate_hours(country, cfg.start, n_days);

    // CAN-channel synthesis with its own deterministic stream.
    let mut rng = StdRng::seed_from_u64(
        cfg.seed ^ (0xC0FFEE ^ u64::from(id.0)).wrapping_mul(0x9E3779B97F4A7C15),
    );
    let noise = Normal::new(0.0, 1.0).expect("unit normal");
    let profile = vehicle.vtype.profile();
    let hemisphere = country.hemisphere;
    let mut tank = TankState::new(&profile);

    let mut records = Vec::with_capacity(n_days);
    for (i, &h) in hours.iter().enumerate() {
        let date = cfg.start.plus_days(i as i64);
        let can = if h > 0.0 {
            let ambient = canbus::ambient_temp_c(date, hemisphere);
            // Work *intensity* (how hard the machine runs) is a separate
            // latent from *duration* (how long): a short but heavy digging
            // day exists, and so does a long light-transport day. Keeping
            // the two only weakly coupled prevents the thermal/load
            // channels from being near-copies of the hours signal — which
            // would make the lagged feature matrix pathologically
            // collinear for linear models.
            let intensity = (0.55
                + 0.25 * (h / profile.median_active_hours).min(2.0) * 0.3
                + 0.35 * rng.random::<f64>())
            .clamp(0.1, 1.2);
            let load = (25.0 + 60.0 * intensity + 5.0 * noise.sample(&mut rng)).clamp(2.0, 100.0);
            let rpm = 950.0 + 900.0 * (load / 100.0) + 40.0 * noise.sample(&mut rng);
            let fuel_rate = profile.fuel_rate_lph * (0.4 + 0.8 * load / 100.0);
            let fuel_used = fuel_rate * h * (1.0 + 0.05 * noise.sample(&mut rng));
            tank.consume(fuel_used.max(0.0), &mut rng);
            DailyCan {
                fuel_used_l: fuel_used.max(0.0),
                fuel_level_end_pct: (tank.level_frac * 100.0).clamp(0.0, 100.0),
                avg_rpm: rpm.max(600.0),
                avg_oil_pressure_kpa: 280.0 + 90.0 * (rpm / 2000.0) + 6.0 * noise.sample(&mut rng),
                avg_coolant_temp_c: 76.0
                    + 12.0 * intensity
                    + 0.25 * ambient
                    + 1.5 * noise.sample(&mut rng),
                avg_speed_kmh: (3.0 + 9.0 * intensity + 1.0 * noise.sample(&mut rng)).max(0.0),
                avg_load_pct: load,
                avg_digging_pressure_kpa: if vehicle.vtype.has_digging_pressure() {
                    (4000.0 + 4500.0 * intensity + 250.0 * noise.sample(&mut rng)).max(0.0)
                } else {
                    0.0
                },
                avg_pump_temp_c: 40.0 + 28.0 * intensity + 0.3 * ambient + noise.sample(&mut rng),
                avg_oil_tank_temp_c: 36.0
                    + 22.0 * intensity
                    + 0.3 * ambient
                    + noise.sample(&mut rng),
            }
        } else {
            DailyCan::default()
        };
        records.push(DailyRecord {
            day: date.day_index(),
            date,
            hours: h,
            can,
        });
    }
    VehicleHistory { vehicle, records }
}

/// Synthesizes the *raw 10-minute report stream* of one day of one vehicle
/// (full-fidelity path), then passes it through the dropout model.
///
/// The clean stream encodes the same utilization hours the daily path
/// reports for that day, so aggregation over these reports must recover
/// the [`DailyRecord`] within one report interval of accuracy.
pub fn generate_day_raw_reports(
    fleet: &Fleet,
    id: VehicleId,
    date: Date,
    dropout_cfg: &DropoutConfig,
) -> Vec<RawReport> {
    generate_day_raw_reports_scaled(fleet, id, date, dropout_cfg, 1.0)
}

/// [`generate_day_raw_reports`] with the day's utilization hours
/// multiplied by `hours_scale` (clamped into `[0, 24]`) before the
/// report stream is synthesized. `vup-ingest` uses this to inject a
/// usage-pattern shift mid-stream and exercise drift-triggered
/// retraining; a scale of `1.0` is bit-identical to the unscaled path
/// (the RNG stream does not depend on the scale).
pub fn generate_day_raw_reports_scaled(
    fleet: &Fleet,
    id: VehicleId,
    date: Date,
    dropout_cfg: &DropoutConfig,
    hours_scale: f64,
) -> Vec<RawReport> {
    let vehicle = fleet
        .vehicle(id)
        .unwrap_or_else(|| panic!("vehicle {id:?} not in fleet"));
    let country = fleet.country_of(vehicle);
    let cfg = fleet.config();
    let offset = date.day_index() - cfg.start.day_index();
    assert!(
        offset >= 0 && (offset as usize) < cfg.n_days(),
        "date {date} outside the fleet observation period"
    );
    let n_days = cfg.n_days();
    let model =
        UnitUsageModel::with_weather(cfg.seed, vehicle, country, n_days, cfg.weather_effects);
    let hours = model.generate_hours(country, cfg.start, offset as usize + 1);
    let h = (*hours.last().expect("offset in range") * hours_scale).clamp(0.0, 24.0);

    let profile = vehicle.vtype.profile();
    let mut rng = StdRng::seed_from_u64(
        cfg.seed
            ^ (u64::from(id.0) << 20)
            ^ (date.day_index() as u64).wrapping_mul(0x9E3779B97F4A7C15),
    );
    let mut tank = TankState::new(&profile);
    let clean = canbus::day_reports(
        &profile,
        vehicle.vtype.has_digging_pressure(),
        date,
        h,
        country.hemisphere,
        &mut tank,
        1.0,
        &mut rng,
    );
    dropout::apply(clean, dropout_cfg, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetConfig;

    fn small_fleet() -> Fleet {
        Fleet::generate(FleetConfig::small(30, 99))
    }

    #[test]
    fn history_is_deterministic_and_covers_period() {
        let fleet = small_fleet();
        let a = generate_history(&fleet, VehicleId(5));
        let b = generate_history(&fleet, VehicleId(5));
        assert_eq!(a, b);
        assert_eq!(a.records.len(), fleet.config().n_days());
        assert_eq!(a.start_day(), fleet.config().start.day_index());
        // Days are contiguous.
        for w in a.records.windows(2) {
            assert_eq!(w[1].day, w[0].day + 1);
        }
    }

    #[test]
    fn idle_days_have_zero_can_activity() {
        let fleet = small_fleet();
        let h = generate_history(&fleet, VehicleId(0));
        for r in &h.records {
            if r.hours == 0.0 {
                assert_eq!(r.can.fuel_used_l, 0.0);
                assert_eq!(r.can.avg_rpm, 0.0);
                assert_eq!(r.can.avg_load_pct, 0.0);
            } else {
                assert!(r.can.fuel_used_l > 0.0);
                assert!(r.can.avg_rpm >= 600.0);
            }
        }
    }

    #[test]
    fn fuel_use_correlates_with_hours() {
        let fleet = small_fleet();
        let h = generate_history(&fleet, VehicleId(2));
        let active: Vec<&DailyRecord> = h.records.iter().filter(|r| r.hours > 0.0).collect();
        assert!(active.len() > 30);
        // Pearson correlation between hours and fuel burn must be strong.
        let n = active.len() as f64;
        let mh = active.iter().map(|r| r.hours).sum::<f64>() / n;
        let mf = active.iter().map(|r| r.can.fuel_used_l).sum::<f64>() / n;
        let mut num = 0.0;
        let mut dh = 0.0;
        let mut df = 0.0;
        for r in &active {
            num += (r.hours - mh) * (r.can.fuel_used_l - mf);
            dh += (r.hours - mh) * (r.hours - mh);
            df += (r.can.fuel_used_l - mf) * (r.can.fuel_used_l - mf);
        }
        let corr = num / (dh.sqrt() * df.sqrt());
        assert!(corr > 0.9, "corr = {corr}");
    }

    #[test]
    fn utilization_rate_is_sensible() {
        let fleet = small_fleet();
        for id in 0..10 {
            let h = generate_history(&fleet, VehicleId(id));
            let rate = h.utilization_rate();
            assert!((0.02..0.9).contains(&rate), "rate {rate}");
        }
    }

    #[test]
    fn raw_reports_match_daily_hours() {
        let fleet = small_fleet();
        let id = VehicleId(7);
        let history = generate_history(&fleet, id);
        // Find a working day and check the report count encodes its hours.
        let day = history
            .records
            .iter()
            .find(|r| r.hours > 2.0)
            .expect("some working day");
        let reports = generate_day_raw_reports(&fleet, id, day.date, &DropoutConfig::none());
        let recovered = reports.len() as f64 / 6.0;
        assert!(
            (recovered - day.hours).abs() <= 0.4,
            "recovered {recovered} vs actual {}",
            day.hours
        );
    }

    #[test]
    fn raw_reports_for_idle_day_are_empty() {
        let fleet = small_fleet();
        let id = VehicleId(7);
        let history = generate_history(&fleet, id);
        let day = history
            .records
            .iter()
            .find(|r| r.hours == 0.0)
            .expect("some idle day");
        let reports = generate_day_raw_reports(&fleet, id, day.date, &DropoutConfig::none());
        assert!(reports.is_empty());
    }

    #[test]
    #[should_panic(expected = "outside the fleet observation period")]
    fn raw_reports_reject_out_of_range_dates() {
        let fleet = small_fleet();
        generate_day_raw_reports(
            &fleet,
            VehicleId(0),
            Date::new(2014, 12, 31).unwrap(),
            &DropoutConfig::none(),
        );
    }
}
