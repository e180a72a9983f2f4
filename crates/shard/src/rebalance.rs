//! Atomic snapshot rebalancing between shard directories.
//!
//! When the shard count changes `from → to`, the vehicles
//! [`remapped`](crate::partition::remapped) by the partitioner must
//! have their model snapshots moved so each shard's warm-start
//! directory keeps owning exactly its vehicles. The move protocol is
//! crash-safe and never holds a snapshot in fewer than one verified
//! location:
//!
//! 1. **verify** the source bytes through the snapshot audit path
//!    ([`verify_snapshot`] — CRC, format version, name/content
//!    agreement); corrupt files are *left in place* for the store's
//!    own quarantine machinery and reported, never moved;
//! 2. **copy** into the destination shard directory via a temporary
//!    name and an atomic rename;
//! 3. **re-verify** the destination bytes (a torn copy aborts the move
//!    and keeps the source);
//! 4. **remove** the source file;
//! 5. after all moves, **bump the manifest generation**
//!    ([`bump_manifest`]) of every directory that gained or lost a
//!    file, marking the out-of-band mutation for the next store open.
//!
//! A crash at any step leaves either the verified source, the verified
//! destination, or both — `vup store verify` stays green on every
//! shard directory (a leftover `.rebalance.tmp` from a crash between
//! write and rename is flagged, which is exactly the signal wanted).

use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};
use vup_fleetsim::VehicleId;
use vup_serve::frame::bump_manifest;
use vup_serve::{parse_snapshot_name, verify_snapshot, StorageBackend};

use crate::partition::shard_of;

/// Suffix of in-flight destination copies; never left behind by a
/// completed rebalance. Ends in `.tmp` so the store's audit path
/// flags a crash-orphaned copy instead of ignoring it.
const TMP_SUFFIX: &str = ".rebalance.tmp";

/// The snapshot directory of one shard under a shard root.
pub fn shard_dir(root: &Path, shard: u32) -> PathBuf {
    root.join(format!("shard-{shard:03}"))
}

/// One snapshot the rebalance moved.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MovedSnapshot {
    /// Snapshot file name (`v{vehicle:08}-{fingerprint:016x}.snap`).
    pub file: String,
    /// The vehicle the snapshot belongs to.
    pub vehicle: VehicleId,
    /// Source shard index.
    pub from: u32,
    /// Destination shard index.
    pub to: u32,
    /// Snapshot size in bytes.
    pub bytes: u64,
}

/// What a rebalance did.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RebalanceReport {
    /// Shard count the directories were laid out for.
    pub from_shards: u32,
    /// Shard count the directories now serve.
    pub to_shards: u32,
    /// Snapshot files examined across all source shard directories.
    pub examined: usize,
    /// Snapshots moved, in (source shard, file name) order.
    pub moved: Vec<MovedSnapshot>,
    /// Files that should have moved but failed verification; left in
    /// place for the owning store to quarantine.
    pub skipped_corrupt: Vec<String>,
    /// Total bytes moved.
    pub bytes_moved: u64,
    /// Shard directories whose manifest generation was bumped, with the
    /// new generation.
    pub bumped: Vec<(u32, u64)>,
}

/// Moves every snapshot whose vehicle the `from → to` repartition
/// remaps, following the verify–copy–verify–remove protocol above.
///
/// Directories that do not exist are treated as empty (a shard that
/// never persisted anything has nothing to move). Both growth and
/// shrinkage work; `to` must be ≥ 1.
pub fn rebalance(
    backend: &dyn StorageBackend,
    root: &Path,
    from: u32,
    to: u32,
) -> io::Result<RebalanceReport> {
    assert!(from > 0 && to > 0, "at least one shard");
    let mut report = RebalanceReport {
        from_shards: from,
        to_shards: to,
        ..RebalanceReport::default()
    };
    let mut touched: Vec<u32> = Vec::new();
    for source in 0..from {
        let source_dir = shard_dir(root, source);
        let files = match backend.list(&source_dir) {
            Ok(files) => files,
            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        };
        for path in files {
            let Some(name) = path.file_name().and_then(|n| n.to_str()).map(String::from) else {
                continue;
            };
            let Some((vehicle, _fingerprint)) = parse_snapshot_name(&name) else {
                continue; // manifests, quarantine dirs, foreign files
            };
            report.examined += 1;
            let target = shard_of(vehicle, to);
            if target == source {
                continue;
            }
            let bytes = backend.read(&path)?;
            if verify_snapshot(&name, &bytes).is_err() {
                report.skipped_corrupt.push(name);
                continue;
            }
            let target_dir = shard_dir(root, target);
            backend.create_dir_all(&target_dir)?;
            let tmp = target_dir.join(format!("{name}{TMP_SUFFIX}"));
            let dest = target_dir.join(&name);
            backend.write(&tmp, &bytes)?;
            backend.rename(&tmp, &dest)?;
            // Re-read what actually landed before dropping the source.
            let landed = backend.read(&dest)?;
            if verify_snapshot(&name, &landed).is_err() {
                backend.remove(&dest)?;
                report.skipped_corrupt.push(name);
                continue;
            }
            backend.remove(&path)?;
            if !touched.contains(&source) {
                touched.push(source);
            }
            if !touched.contains(&target) {
                touched.push(target);
            }
            report.bytes_moved += bytes.len() as u64;
            report.moved.push(MovedSnapshot {
                file: name,
                vehicle,
                from: source,
                to: target,
                bytes: bytes.len() as u64,
            });
        }
    }
    touched.sort_unstable();
    for shard in touched {
        let dir = shard_dir(root, shard);
        backend.create_dir_all(&dir)?;
        let bump = bump_manifest(backend, &dir);
        bump.written?;
        report.bumped.push((shard, bump.generation));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vup_serve::{audit, DiskBackend};

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("vup-shard-rebalance-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Persists one model per vehicle into the shard layout for
    /// `shards` shards and returns the file names per shard.
    fn seed_stores(root: &Path, shards: u32, vehicles: u32) -> Vec<Vec<String>> {
        use vup_core::{ModelSpec, PipelineConfig};
        use vup_ml::baseline::BaselineSpec;
        use vup_obs::SpanCtx;
        use vup_serve::ModelStore;
        let fleet =
            vup_fleetsim::Fleet::generate(vup_fleetsim::FleetConfig::small(vehicles as usize, 7));
        let config = PipelineConfig {
            model: ModelSpec::Baseline(BaselineSpec::LastValue),
            ..PipelineConfig::default()
        };
        for shard in 0..shards {
            let store = ModelStore::open(shard_dir(root, shard)).unwrap();
            for id in 0..vehicles {
                if shard_of(VehicleId(id), shards) != shard {
                    continue;
                }
                let view = vup_core::VehicleView::build(&fleet, VehicleId(id), config.scenario);
                let predictor = vup_core::FittedPredictor::fit(&view, &config, 0, view.len())
                    .expect("baseline fit cannot fail");
                store.insert(
                    VehicleId(id),
                    &config,
                    predictor,
                    view.len(),
                    &SpanCtx::disabled(),
                );
            }
        }
        (0..shards)
            .map(|shard| {
                DiskBackend
                    .list(&shard_dir(root, shard))
                    .unwrap()
                    .into_iter()
                    .filter_map(|p| {
                        let name = p.file_name()?.to_str()?.to_string();
                        parse_snapshot_name(&name).map(|_| name)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn rebalance_moves_exactly_the_remapped_set_and_stores_stay_clean() {
        let root = temp_root("grow");
        let vehicles = 24u32;
        seed_stores(&root, 2, vehicles);
        let report = rebalance(&DiskBackend, &root, 2, 3).unwrap();

        let expected = crate::partition::remapped(vehicles, 2, 3);
        let mut moved: Vec<(VehicleId, u32, u32)> = report
            .moved
            .iter()
            .map(|m| (m.vehicle, m.from, m.to))
            .collect();
        moved.sort_by_key(|(v, _, _)| *v);
        assert_eq!(moved, expected, "moved set == remapped set");
        assert!(report.skipped_corrupt.is_empty());
        assert!(report.bytes_moved > 0);

        // Every shard dir audits clean and owns exactly its vehicles.
        for shard in 0..3u32 {
            let dir = shard_dir(&root, shard);
            for entry in audit(&DiskBackend, &dir).unwrap() {
                if entry.file == "MANIFEST.json" {
                    continue;
                }
                assert_eq!(entry.verdict, Ok(()), "{:?}", entry);
                let (vehicle, _) = parse_snapshot_name(&entry.file).unwrap();
                assert_eq!(shard_of(vehicle, 3), shard);
            }
        }
        // Touched dirs carry a bumped generation.
        assert!(!report.bumped.is_empty());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_sources_are_reported_and_left_in_place() {
        let root = temp_root("corrupt");
        let per_shard = seed_stores(&root, 2, 24);
        // Corrupt one file that would otherwise move.
        let movers = crate::partition::remapped(24, 2, 3);
        let (victim_vehicle, victim_shard, _) = movers[0];
        let victim = per_shard[victim_shard as usize]
            .iter()
            .find(|name| parse_snapshot_name(name).unwrap().0 == victim_vehicle)
            .unwrap()
            .clone();
        let victim_path = shard_dir(&root, victim_shard).join(&victim);
        let mut bytes = std::fs::read(&victim_path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&victim_path, &bytes).unwrap();

        let report = rebalance(&DiskBackend, &root, 2, 3).unwrap();
        assert_eq!(report.skipped_corrupt, vec![victim.clone()]);
        assert!(victim_path.exists(), "corrupt source left for quarantine");
        assert!(report.moved.iter().all(|m| m.file != victim));
        let _ = std::fs::remove_dir_all(&root);
    }
}
