//! Crash-and-recover chaos tests for the durable snapshot store: a
//! seeded disk-fault plan (torn writes, bit flips, transient io errors)
//! applied across a persist → "kill" → recover → serve cycle must be
//! bit-identical at every thread count, must quarantine exactly the
//! files an independent read-only audit condemns, and must account for
//! every file ever written as either recovered or quarantined. A full
//! disk degrades persistence — never serving. And a crash at every
//! mutating disk op of an open + two persisting batches + reopen loses
//! no acknowledged snapshot and never loads a partial one.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use vehicle_usage_prediction::prelude::*;
use vehicle_usage_prediction::serve::{
    audit, crc32, DiskFaultPlan, ModelStore, RecoveryStats, SnapshotStore,
};

fn fast_config() -> PipelineConfig {
    PipelineConfig {
        model: ModelSpec::Learned(RegressorSpec::Linear),
        train_window: 120,
        max_lag: 30,
        k: 10,
        retrain_every: 7,
        ..PipelineConfig::default()
    }
}

fn requests(ids: &[u32], horizon: usize) -> Vec<BatchRequest> {
    ids.iter()
        .map(|&id| BatchRequest {
            vehicle_id: VehicleId(id),
            horizon,
        })
        .collect()
}

fn forecast_bits(outcomes: &[ServeOutcome]) -> Vec<Vec<u64>> {
    outcomes
        .iter()
        .map(|o| {
            o.forecast()
                .map(|f| f.hours.iter().map(|h| h.to_bits()).collect())
                .unwrap_or_default()
        })
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vup-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The issue's chaos plan: torn writes, bit flips and transient io
/// errors together. `io_error_attempts` stays below the store's retry
/// budget, so transient errors cost retries — never data.
fn disk_plan() -> DiskFaultPlan {
    DiskFaultPlan {
        torn_write_rate: 0.3,
        torn_write_byte: 24,
        bit_flip_rate: 0.25,
        io_error_rate: 0.3,
        io_error_attempts: 2,
        full_disk_after_bytes: None,
    }
}

const CHAOS_SEED: u64 = 77;

fn faulty_disk(seed: u64, plan: DiskFaultPlan) -> Box<FaultyBackend> {
    Box::new(FaultyBackend::new(Box::new(DiskBackend), seed, plan))
}

/// `.snap` files currently in `dir` (ground truth via the real fs).
fn snapshots_on_disk(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".snap"))
        .collect();
    names.sort();
    names
}

/// What one full persist → kill → recover → serve cycle produced.
#[derive(Debug, PartialEq)]
struct CycleReport {
    bits_before: Vec<Vec<u64>>,
    bits_after: Vec<Vec<u64>>,
    files_written: usize,
    expected_bad: BTreeMap<String, &'static str>,
    quarantined: BTreeMap<String, String>,
    recovered: usize,
    files_seen: usize,
}

/// Runs the cycle at one thread count; every fault decision comes from
/// the seeded plan, so the report must not depend on `threads`.
fn chaos_cycle(threads: usize) -> CycleReport {
    let dir = temp_dir(&format!("cycle-t{threads}"));
    let fleet = Fleet::generate(FleetConfig::small(8, 4242));
    let batch = requests(&[0, 1, 2, 3, 4, 5, 6, 7], 2);

    // Phase A — first process: retrain everything, persist through the
    // faulty disk, then "kill -9" (drop without any shutdown protocol).
    let registry_a = Registry::new();
    let store = ModelStore::open_with(
        faulty_disk(CHAOS_SEED, disk_plan()),
        &dir,
        &registry_a,
        &Tracer::disabled(),
    )
    .unwrap();
    let service = PredictionService::new(&fleet, fast_config(), threads)
        .unwrap()
        .with_store(store);
    let before = service.serve_batch(&batch, None);
    for outcome in &before {
        assert!(
            matches!(outcome, ServeOutcome::RetrainedThenServed(_)),
            "{outcome:?}"
        );
    }
    // Transient errors stay below the store's retry budget: every
    // snapshot reaches disk (some of them torn).
    assert_eq!(
        registry_a.counter("vup_store_persisted_total").get(),
        batch.len() as u64
    );
    assert_eq!(
        registry_a.counter("vup_store_persist_failed_total").get(),
        0
    );
    let bits_before = forecast_bits(&before);
    drop(service);
    let files_written = snapshots_on_disk(&dir).len();
    assert_eq!(files_written, batch.len(), "one snapshot per vehicle");

    // Independent expectation: a read-only audit through an identically
    // seeded faulty disk condemns exactly the files recovery must
    // quarantine (torn prefixes on disk, bit flips on read).
    let auditor = faulty_disk(CHAOS_SEED, disk_plan());
    let expected_bad: BTreeMap<String, &'static str> = audit(auditor.as_ref(), &dir)
        .unwrap()
        .into_iter()
        .filter_map(|e| e.verdict.err().map(|d| (e.file, d.as_str())))
        .collect();

    // Phase B — second process: recover through a fresh faulty disk,
    // then serve the same batch.
    let registry_b = Registry::new();
    let store = ModelStore::open_with(
        faulty_disk(CHAOS_SEED, disk_plan()),
        &dir,
        &registry_b,
        &Tracer::disabled(),
    )
    .unwrap();
    let stats: RecoveryStats = store.recovery().unwrap().clone();
    let quarantined: BTreeMap<String, String> = stats
        .quarantined
        .iter()
        .map(|q| (q.file.clone(), q.reason.clone()))
        .collect();
    assert_eq!(
        registry_b.counter("vup_store_recovered_total").get(),
        stats.recovered as u64
    );

    let service = PredictionService::new(&fleet, fast_config(), threads)
        .unwrap()
        .with_store(store);
    let after = service.serve_batch(&batch, None);
    // Never crashes, never serves a corrupt model: quarantined vehicles
    // retrain, recovered vehicles serve their warm-started model as a
    // cache hit, and every forecast matches the pre-crash run bit for
    // bit either way.
    for (request, outcome) in batch.iter().zip(&after) {
        let file_prefix = format!("v{:08}-", request.vehicle_id.0);
        let was_quarantined = quarantined.keys().any(|f| f.starts_with(&file_prefix));
        if was_quarantined {
            assert!(
                matches!(outcome, ServeOutcome::RetrainedThenServed(_)),
                "vehicle {}: lost snapshot must retrain, got {outcome:?}",
                request.vehicle_id.0
            );
        } else {
            assert!(
                outcome.is_cache_hit(),
                "vehicle {}: recovered snapshot must serve, got {outcome:?}",
                request.vehicle_id.0
            );
        }
    }
    let bits_after = forecast_bits(&after);
    assert_eq!(bits_after, bits_before, "recovery must not change a number");

    let _ = std::fs::remove_dir_all(&dir);
    CycleReport {
        bits_before,
        bits_after,
        files_written,
        expected_bad,
        quarantined,
        recovered: stats.recovered,
        files_seen: stats.files_seen,
    }
}

#[test]
fn disk_chaos_cycle_is_deterministic_and_accounts_for_every_file() {
    let reference = chaos_cycle(1);

    // The plan actually bites, in both directions.
    assert!(
        !reference.quarantined.is_empty(),
        "no corruption under the chaos plan: {reference:?}"
    );
    assert!(
        reference.recovered > 0,
        "nothing survived the chaos plan: {reference:?}"
    );

    // Exactly the planned corrupt entries are quarantined …
    let expected: BTreeMap<String, String> = reference
        .expected_bad
        .iter()
        .map(|(f, d)| (f.clone(), d.to_string()))
        .collect();
    assert_eq!(reference.quarantined, expected);

    // … and every file ever written is accounted for.
    assert_eq!(reference.files_seen, reference.files_written);
    assert_eq!(
        reference.recovered + reference.quarantined.len(),
        reference.files_written
    );

    // Bit-reproducible at every thread count.
    for threads in [2usize, 4] {
        let other = chaos_cycle(threads);
        assert_eq!(other, reference, "threads = {threads}");
    }
}

#[test]
fn a_full_disk_degrades_persistence_but_never_serving() {
    let dir = temp_dir("full-disk");
    let fleet = Fleet::generate(FleetConfig::small(6, 9000));
    let batch = requests(&[0, 1, 2, 3, 4, 5], 2);
    let plan = DiskFaultPlan {
        // The manifest and five ~0.95 KB LR snapshots fit; the sixth
        // does not.
        full_disk_after_bytes: Some(5_000),
        ..DiskFaultPlan::default()
    };

    let registry = Registry::new();
    let store =
        ModelStore::open_with(faulty_disk(1, plan), &dir, &registry, &Tracer::disabled()).unwrap();
    let service = PredictionService::new(&fleet, fast_config(), 2)
        .unwrap()
        .with_store(store);
    let outcomes = service.serve_batch(&batch, None);
    // Every request is still served from memory …
    for outcome in &outcomes {
        assert!(
            matches!(outcome, ServeOutcome::RetrainedThenServed(_)),
            "{outcome:?}"
        );
    }
    // … while the full disk split the batch into persisted and failed.
    let persisted = registry.counter("vup_store_persisted_total").get();
    let failed = registry.counter("vup_store_persist_failed_total").get();
    assert!(persisted > 0, "budget admits at least one snapshot");
    assert!(failed > 0, "budget must run out mid-batch");
    assert_eq!(persisted + failed, batch.len() as u64);
    drop(service);

    // No half-written temp files are left behind, and a clean-disk
    // reopen warm-starts exactly the snapshots that fit.
    let leftovers: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".tmp"))
        .collect();
    assert_eq!(leftovers, Vec::<String>::new());
    assert_eq!(snapshots_on_disk(&dir).len() as u64, persisted);
    let reopened = ModelStore::open(&dir).unwrap();
    let stats = reopened.recovery().unwrap();
    assert_eq!(stats.recovered as u64, persisted);
    assert_eq!(stats.quarantined, vec![]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// What a [`CrashAt`] backend does with one mutating op.
enum Fate {
    Runs,
    Crashes,
    Dead,
}

/// The shared state of a [`CrashAt`] backend.
struct CrashState {
    crash_at: u64,
    keep: usize,
    ops: AtomicU64,
    /// Bytes of every write that completed, by path, until renamed.
    written: Mutex<BTreeMap<PathBuf, Vec<u8>>>,
    /// Acknowledged snapshots: each `.snap` name a completed rename
    /// put in place, with the bytes of the write it renamed.
    acked: Mutex<BTreeMap<String, Vec<u8>>>,
}

/// `DiskBackend` killed at mutating op `crash_at` (writes, renames and
/// removes counted together, in issue order, across every store opened
/// on it): that op lands only its first `keep` bytes (a rename or
/// remove does not happen), and it and every later op fail, as if the
/// process died there.
#[derive(Clone)]
struct CrashAt(Arc<CrashState>);

impl CrashAt {
    fn new(crash_at: u64, keep: usize) -> CrashAt {
        CrashAt(Arc::new(CrashState {
            crash_at,
            keep,
            ops: AtomicU64::new(0),
            written: Mutex::new(BTreeMap::new()),
            acked: Mutex::new(BTreeMap::new()),
        }))
    }

    fn fate(&self) -> Fate {
        match self
            .0
            .ops
            .fetch_add(1, Ordering::Relaxed)
            .cmp(&self.0.crash_at)
        {
            std::cmp::Ordering::Less => Fate::Runs,
            std::cmp::Ordering::Equal => Fate::Crashes,
            std::cmp::Ordering::Greater => Fate::Dead,
        }
    }

    /// Whether the run issued fewer mutating ops than `crash_at`, so
    /// nothing crashed.
    fn survived(&self) -> bool {
        self.0.ops.load(Ordering::Relaxed) <= self.0.crash_at
    }
}

fn killed() -> io::Error {
    io::Error::other("process killed")
}

impl StorageBackend for CrashAt {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        DiskBackend.read(path)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.fate() {
            Fate::Runs => {
                DiskBackend.write(path, bytes)?;
                let mut written = self.0.written.lock().unwrap();
                written.insert(path.to_path_buf(), bytes.to_vec());
                Ok(())
            }
            Fate::Crashes => {
                DiskBackend.write(path, &bytes[..self.0.keep.min(bytes.len())])?;
                Err(killed())
            }
            Fate::Dead => Err(killed()),
        }
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.fate() {
            Fate::Runs => {
                DiskBackend.rename(from, to)?;
                let bytes = self.0.written.lock().unwrap().remove(from);
                let name = to.file_name().unwrap().to_string_lossy().into_owned();
                if let (Some(bytes), true) = (bytes, name.ends_with(".snap")) {
                    self.0.acked.lock().unwrap().insert(name, bytes);
                }
                Ok(())
            }
            Fate::Crashes | Fate::Dead => Err(killed()),
        }
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        match self.fate() {
            Fate::Runs => DiskBackend.remove(path),
            Fate::Crashes | Fate::Dead => Err(killed()),
        }
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        DiskBackend.list(dir)
    }
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        DiskBackend.create_dir_all(dir)
    }
}

fn balanced(stats: &RecoveryStats, what: &str) {
    assert_eq!(
        stats.recovered + stats.quarantined_count(),
        stats.files_seen,
        "{what}: {stats:?}"
    );
}

/// Files directly inside `dir` (not the quarantine), with their bytes.
fn files_in(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_file())
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&p).unwrap())
        })
        .collect()
}

/// Each file's length and CRC32, for readable failure messages.
fn digests(files: &BTreeMap<String, Vec<u8>>) -> BTreeMap<&str, (usize, u32)> {
    files
        .iter()
        .map(|(name, bytes)| (name.as_str(), (bytes.len(), crc32(bytes))))
        .collect()
}

/// Crash at every mutating op of: an open that quarantines a leftover
/// temp file and a torn snapshot, a batch that persists four snapshots,
/// a later batch that retrains and replaces all four, and a reopen —
/// landing none, one, a header and a byte, or 600 bytes (a whole
/// manifest, part of a snapshot) of the write the crash hits. A clean reopen after each crash accounts for
/// every file, brings back exactly the acknowledged snapshots bit for
/// bit, and loads nothing else.
#[test]
fn a_crash_at_every_store_op_keeps_every_acknowledged_snapshot() {
    let fleet = Fleet::generate(FleetConfig::small(4, 4242));
    let batch = requests(&[0, 1, 2, 3], 2);
    let (first_as_of, later_as_of) = (200, 210);
    let fingerprint = ModelStore::fingerprint(&fast_config());
    let torn_name = SnapshotStore::file_name(VehicleId(9), fingerprint);
    let tmp_name = format!(
        "{}.tmp",
        SnapshotStore::file_name(VehicleId(8), fingerprint)
    );

    // What a crash-free run persists last, and what it serves after.
    let reference_dir = temp_dir("crash-reference");
    let service = PredictionService::new(&fleet, fast_config(), 1)
        .unwrap()
        .with_store(ModelStore::open(&reference_dir).unwrap());
    service.serve_batch(&batch, Some(first_as_of));
    let reference_bits = forecast_bits(&service.serve_batch(&batch, Some(later_as_of)));
    drop(service);
    let reference_files = files_in(&reference_dir);
    let _ = std::fs::remove_dir_all(&reference_dir);

    for keep in [0_usize, 1, 17, 600] {
        let mut crashes = 0;
        for crash_at in 0_u64.. {
            let dir = temp_dir(&format!("crash-{keep}-{crash_at}"));
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join(&tmp_name), b"half a snapshot").unwrap();
            std::fs::write(dir.join(&torn_name), b"VUPM\x01\x00").unwrap();
            let what = format!("crash at op {crash_at} keeping {keep} bytes");

            let backend = CrashAt::new(crash_at, keep);
            let store = ModelStore::open_with(
                Box::new(backend.clone()),
                &dir,
                &Registry::disabled(),
                &Tracer::disabled(),
            )
            .unwrap();
            balanced(store.recovery().unwrap(), &what);
            let service = PredictionService::new(&fleet, fast_config(), 1)
                .unwrap()
                .with_store(store);
            for as_of in [first_as_of, later_as_of] {
                for outcome in service.serve_batch(&batch, Some(as_of)) {
                    assert!(outcome.forecast().is_some(), "{what}: {outcome:?}");
                }
            }
            drop(service);
            let reopened = ModelStore::open_with(
                Box::new(backend.clone()),
                &dir,
                &Registry::disabled(),
                &Tracer::disabled(),
            )
            .unwrap();
            balanced(reopened.recovery().unwrap(), &what);
            drop(reopened);

            // A clean reopen after the crash.
            let acked = backend.0.acked.lock().unwrap().clone();
            let store = ModelStore::open(&dir).unwrap();
            let stats = store.recovery().unwrap().clone();
            balanced(&stats, &what);
            for q in &stats.quarantined {
                let dest = dir
                    .join("quarantine")
                    .join(format!("{}.{}", q.file, q.reason));
                assert!(dest.exists(), "{what}: {dest:?} not quarantined");
            }
            // Every snapshot left in place is an acknowledged one, bit for
            // bit, and it is exactly what recovery loaded.
            let snapshots: BTreeMap<String, Vec<u8>> = files_in(&dir)
                .into_iter()
                .filter(|(name, _)| name != "MANIFEST.json")
                .collect();
            assert_eq!(digests(&snapshots), digests(&acked), "{what}");
            assert_eq!(stats.recovered, acked.len(), "{what}");

            // Serving again matches the crash-free run; a vehicle whose
            // latest snapshot was acknowledged serves it from the cache.
            let service = PredictionService::new(&fleet, fast_config(), 1)
                .unwrap()
                .with_store(store);
            let after = service.serve_batch(&batch, Some(later_as_of));
            assert_eq!(forecast_bits(&after), reference_bits, "{what}");
            for (request, outcome) in batch.iter().zip(&after) {
                let name = SnapshotStore::file_name(request.vehicle_id, fingerprint);
                let latest_acked = acked.get(&name) == reference_files.get(&name);
                assert_eq!(outcome.is_cache_hit(), latest_acked, "{what}: {name}");
            }
            drop(service);
            let _ = std::fs::remove_dir_all(&dir);
            if backend.survived() {
                assert_eq!(acked.len(), batch.len(), "{what}");
                break;
            }
            crashes += 1;
        }
        // Two quarantine moves, a write and a rename per persist, and a
        // write and a rename per manifest bump.
        assert_eq!(crashes, 2 + 2 * 8 + 2 * 2, "crash points");
    }
}
