//! Synthetic heterogeneous industrial-vehicle fleet and CAN-bus telemetry.
//!
//! The paper analyzes a proprietary Tierra S.p.A. dataset: ~4 years
//! (2015-01-01 .. 2018-09-30) of CAN-bus data from 2 239 industrial
//! vehicles of 10 types in 151 countries. That data is closed, so this
//! crate simulates a fleet with the same *statistical structure* — the
//! properties the paper's method actually exploits:
//!
//! - heterogeneous per-type daily-utilization distributions (graders and
//!   refuse compactors above 6 h median, coring machines below 1 h, long
//!   tails reaching 24 h — Fig. 1a);
//! - a type → model → unit hierarchy with the paper's model counts
//!   (44 refuse-compactor models, 65 single-drum-roller models, 10
//!   recycler models — Fig. 1b/1c);
//! - per-unit weekly periodicity, hemisphere-aware seasonality, per-country
//!   holiday calendars (the December/January usage dip), and non-stationary
//!   regime switches (Fig. 1d, Fig. 2);
//! - idle days: refuse compactors are used on roughly 36 % of days;
//! - 10-minute aggregated CAN reports whose channels (fuel rate, oil and
//!   coolant temperature, engine load, …) correlate with utilization, plus
//!   connectivity dropouts and sensor glitches to exercise data cleaning.
//!
//! Everything is seeded and deterministic: the same [`FleetConfig`] always
//! produces byte-identical data.

#![warn(missing_docs)]

pub mod calendar;
pub mod canbus;
pub mod dropout;
pub mod fleet;
pub mod generator;
pub mod holidays;
pub mod types;
pub mod usage;
pub mod vendor;
pub mod weather;

pub use calendar::Date;
pub use fleet::{Fleet, FleetConfig, Vehicle, VehicleId};
pub use generator::{DailyRecord, VehicleHistory};
pub use types::VehicleType;
