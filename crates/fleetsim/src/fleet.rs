//! Fleet roster generation: the type → model → unit hierarchy.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::calendar::{Date, SIM_END, SIM_START};
use crate::holidays::{self, Country};
use crate::types::VehicleType;

/// Unique vehicle identifier within a fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VehicleId(pub u32);

/// One vehicle unit of the fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Vehicle {
    /// Unique identifier.
    pub id: VehicleId,
    /// Construction-vehicle type.
    pub vtype: VehicleType,
    /// Model index within the type (0-based; e.g. one of the 44
    /// refuse-compactor models).
    pub model: usize,
    /// Country the unit operates in (index into the fleet's country list).
    pub country: u16,
}

/// Configuration of the simulated fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Number of vehicle units (paper: 2 239).
    pub n_vehicles: usize,
    /// Master seed; everything downstream derives from it.
    pub seed: u64,
    /// First observed day.
    pub start: Date,
    /// Last observed day (inclusive).
    pub end: Date,
    /// Whether daily weather suppresses site activity (paper §5 future
    /// work; off by default so the baseline experiments match the paper's
    /// weather-free setting).
    pub weather_effects: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            n_vehicles: 2239,
            seed: 2019,
            start: SIM_START,
            end: SIM_END,
            weather_effects: false,
        }
    }
}

impl FleetConfig {
    /// A small fleet for tests and examples (deterministic).
    pub fn small(n_vehicles: usize, seed: u64) -> FleetConfig {
        FleetConfig {
            n_vehicles,
            seed,
            ..FleetConfig::default()
        }
    }

    /// Number of observed days.
    pub fn n_days(&self) -> usize {
        (self.end.day_index() - self.start.day_index() + 1).max(0) as usize
    }
}

/// A generated fleet: vehicle roster plus country calendars.
#[derive(Debug, Clone)]
pub struct Fleet {
    config: FleetConfig,
    vehicles: Vec<Vehicle>,
    countries: Vec<Country>,
}

impl Fleet {
    /// Deterministically generates the roster for a configuration.
    ///
    /// Type counts follow the per-type fleet shares (largest-remainder
    /// rounding so they sum exactly to `n_vehicles`); model assignment
    /// within a type is popularity-skewed (a few models dominate, as in
    /// the real fleet); countries are likewise skewed toward a handful of
    /// major markets.
    pub fn generate(config: FleetConfig) -> Fleet {
        assert!(config.n_vehicles > 0, "fleet must contain vehicles");
        assert!(
            config.end.day_index() >= config.start.day_index(),
            "fleet period is empty"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let countries = holidays::generate_countries(config.seed);
        let counts = apportion_types(config.n_vehicles);
        let n = config.n_vehicles;

        // Country popularity weights: Zipf-like over the country list.
        let country_weights: Vec<f64> = (0..countries.len())
            .map(|i| 1.0 / (i as f64 + 1.5))
            .collect();

        let mut vehicles = Vec::with_capacity(n);
        let mut next_id = 0u32;
        for (vtype, count) in counts {
            let model_count = vtype.profile().model_count;
            // Zipf-like model popularity within the type.
            let model_weights: Vec<f64> =
                (0..model_count).map(|i| 1.0 / (i as f64 + 1.0)).collect();
            for _ in 0..count {
                let model = weighted_index(&mut rng, &model_weights);
                let country = weighted_index(&mut rng, &country_weights) as u16;
                vehicles.push(Vehicle {
                    id: VehicleId(next_id),
                    vtype,
                    model,
                    country,
                });
                next_id += 1;
            }
        }
        Fleet {
            config,
            vehicles,
            countries,
        }
    }

    /// The generating configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// All vehicles, ordered by id.
    pub fn vehicles(&self) -> &[Vehicle] {
        &self.vehicles
    }

    /// Vehicle lookup by id.
    pub fn vehicle(&self, id: VehicleId) -> Option<&Vehicle> {
        self.vehicles.get(id.0 as usize)
    }

    /// Country calendars, indexed by [`Vehicle::country`].
    pub fn countries(&self) -> &[Country] {
        &self.countries
    }

    /// The country calendar of a vehicle.
    pub fn country_of(&self, vehicle: &Vehicle) -> &Country {
        &self.countries[vehicle.country as usize]
    }

    /// Vehicles of one type.
    pub fn of_type(&self, vtype: VehicleType) -> impl Iterator<Item = &Vehicle> {
        self.vehicles.iter().filter(move |v| v.vtype == vtype)
    }

    /// Vehicles of one type and model.
    pub fn of_model(&self, vtype: VehicleType, model: usize) -> impl Iterator<Item = &Vehicle> {
        self.vehicles
            .iter()
            .filter(move |v| v.vtype == vtype && v.model == model)
    }
}

/// The type of vehicle `id` in an `n`-vehicle fleet, as
/// [`Fleet::generate`] assigns it (ids run type by type, in the
/// apportioned counts), without generating the roster: O(types) work at
/// any fleet size. `None` past the end of the fleet.
pub fn type_of(n: usize, id: VehicleId) -> Option<VehicleType> {
    let mut end = 0;
    apportion_types(n).into_iter().find_map(|(vtype, count)| {
        end += count;
        ((id.0 as usize) < end).then_some(vtype)
    })
}

/// Largest-remainder apportionment of `n` units over the per-type fleet
/// shares, in type-index order; the counts sum exactly to `n`.
fn apportion_types(n: usize) -> Vec<(VehicleType, usize)> {
    let mut counts: Vec<(VehicleType, usize, f64)> = VehicleType::ALL
        .iter()
        .map(|&t| {
            let exact = t.profile().fleet_share * n as f64;
            (t, exact.floor() as usize, exact - exact.floor())
        })
        .collect();
    let assigned: usize = counts.iter().map(|c| c.1).sum();
    let mut remainder = n - assigned;
    counts.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("finite fractions"));
    for c in counts.iter_mut() {
        if remainder == 0 {
            break;
        }
        c.1 += 1;
        remainder -= 1;
    }
    counts.sort_by_key(|c| c.0.index());
    counts.into_iter().map(|(t, count, _)| (t, count)).collect()
}

/// Samples an index proportionally to `weights` (need not be normalized).
fn weighted_index(rng: &mut StdRng, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    let mut u = rng.random::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        u -= w;
        if u <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Fleet::generate(FleetConfig::small(200, 7));
        let b = Fleet::generate(FleetConfig::small(200, 7));
        assert_eq!(a.vehicles(), b.vehicles());
        let c = Fleet::generate(FleetConfig::small(200, 8));
        assert_ne!(a.vehicles(), c.vehicles());
    }

    #[test]
    fn default_config_matches_paper_scale() {
        let cfg = FleetConfig::default();
        assert_eq!(cfg.n_vehicles, 2239);
        assert_eq!(cfg.n_days(), 365 + 366 + 365 + 273);
    }

    #[test]
    fn counts_are_exact_and_ids_sequential() {
        let fleet = Fleet::generate(FleetConfig::small(500, 3));
        assert_eq!(fleet.vehicles().len(), 500);
        for (i, v) in fleet.vehicles().iter().enumerate() {
            assert_eq!(v.id, VehicleId(i as u32));
        }
    }

    #[test]
    fn every_type_is_represented_at_paper_scale() {
        let fleet = Fleet::generate(FleetConfig::default());
        for t in VehicleType::ALL {
            let count = fleet.of_type(t).count();
            assert!(count > 0, "type {t:?} missing");
            // Within a factor ~2 of its configured share.
            let expected = t.profile().fleet_share * 2239.0;
            assert!(
                (count as f64) > expected * 0.5 && (count as f64) < expected * 2.0,
                "type {t:?}: {count} vs expected {expected}"
            );
        }
    }

    #[test]
    fn models_stay_in_range_and_popular_models_have_many_units() {
        let fleet = Fleet::generate(FleetConfig::default());
        for v in fleet.vehicles() {
            assert!(v.model < v.vtype.profile().model_count);
            assert!((v.country as usize) < fleet.countries().len());
        }
        // The most popular refuse-compactor model should have multiple units.
        let m0 = fleet.of_model(VehicleType::RefuseCompactor, 0).count();
        assert!(m0 >= 10, "model 0 units = {m0}");
    }

    #[test]
    fn lookups_work() {
        let fleet = Fleet::generate(FleetConfig::small(50, 5));
        let v = fleet.vehicle(VehicleId(10)).unwrap();
        assert_eq!(v.id, VehicleId(10));
        assert!(fleet.vehicle(VehicleId(50)).is_none());
        let c = fleet.country_of(v);
        assert_eq!(c.id, v.country);
    }

    #[test]
    fn type_of_agrees_with_the_materialized_fleet() {
        let fleet = Fleet::generate(FleetConfig::small(500, 3));
        for v in fleet.vehicles() {
            assert_eq!(type_of(500, v.id), Some(v.vtype));
        }
        assert_eq!(type_of(500, VehicleId(500)), None);
        // A million-vehicle fleet resolves its last vehicle unbuilt.
        assert!(type_of(1_000_000, VehicleId(999_999)).is_some());
    }

    #[test]
    fn weighted_index_respects_degenerate_weights() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..20 {
            assert_eq!(weighted_index(&mut rng, &[0.0, 1.0, 0.0]), 1);
        }
    }

    #[test]
    #[should_panic(expected = "fleet must contain vehicles")]
    fn empty_fleet_rejected() {
        Fleet::generate(FleetConfig::small(0, 1));
    }
}
