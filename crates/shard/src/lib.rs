//! Fleet sharding: partition, coordinate, supervise, rebalance.
//!
//! One [`PredictionService`](vup_serve::PredictionService) holds one
//! model store and one view cache; a million-vehicle fleet wants
//! neither in one process image. This crate splits the fleet over `N`
//! shards by rendezvous hashing ([`partition`]) — assignment a pure
//! function of `(vehicle id, shard count)`, so growing `N → N + 1`
//! remaps only the ~`K/N` vehicles whose argmax moves to the new shard
//! — and puts a [`coordinator`] in front: fan a batch out shard by
//! shard, merge journals, metrics and monitor health back into a
//! single fleet view, in request order and identical at any thread
//! count. Every shard's service is built by [`build_service`], the
//! same assembly a lone service is built by.
//!
//! Shards fail like processes do, so the fault plan grows a `shards`
//! section (death mid-batch, stall past deadline, refuse-then-recover)
//! and the coordinator doubles as a supervisor: a dead shard's
//! vehicles degrade for the rest of the batch, then the shard restarts
//! warm from its own snapshot directory, surfacing its
//! [`RecoveryStats`](vup_serve::RecoveryStats) in the merged journal.
//! When the shard count changes, [`rebalance`] moves snapshots between
//! shard directories atomically (verify → copy → re-verify → remove →
//! manifest bump), keeping `vup store verify` green on every directory
//! throughout.

#![warn(missing_docs)]

pub mod coordinator;
pub mod partition;
pub mod rebalance;

pub use coordinator::{build_service, ShardOptions, ShardReport, ShardedBatch, ShardedService};
pub use partition::{remapped, shard_of, Partitioner};
pub use rebalance::{rebalance, shard_dir, MovedSnapshot, RebalanceReport};
