//! Crash-safe snapshot persistence for the per-vehicle model cache.
//!
//! Each cache entry is one file, `v<vehicle>-<fingerprint>.snap`,
//! written with the shared atomic replace ([`frame::atomic_replace`]:
//! `<name>.tmp`, then a rename over the name). A 16-byte header carries a
//! magic, a format version, the payload length and a CRC32 of the
//! payload, so a reader can tell a good snapshot from a torn tail, a
//! flipped bit, or a file from a future format — a kill -9 mid-write
//! never corrupts the cache and never loses more than the in-flight
//! entry. The payload is the entry's `Content` tree in the serde shim's
//! binary encoding ([`Content::encode_binary`]): every float is stored
//! as its exact bits, so a recovered model predicts bit for bit as it
//! did before, with no decimal formatting on the write path.
//!
//! Startup recovery ([`SnapshotStore::recover`], run by
//! [`crate::ModelStore::open`]) classifies every file as loadable,
//! truncated, checksum-mismatch, unknown-version, undecodable or a
//! leftover temp file; bad files are *quarantined* (moved into
//! `quarantine/` by [`frame::quarantine_move`], never deleted) so an
//! operator can inspect them, and the rest warm-start the cache. A
//! `MANIFEST.json` records the live generation, bumped on every open by
//! [`frame::bump_manifest`] — the same bump shard rebalance runs for its
//! out-of-band changes. The commit log in `vup-ingest` uses the same
//! replace and quarantine move, so the protocol exists once.
//!
//! All I/O goes through the [`StorageBackend`] trait. [`DiskBackend`]
//! is the real filesystem; [`FaultyBackend`] wraps any backend with the
//! seeded disk faults of [`DiskFaultPlan`] (torn writes, bit flips,
//! transient io errors, a filling disk), keeping chaos runs bit-for-bit
//! reproducible: every fault decision is a pure hash of the seed, the
//! fault kind, the file name and a per-file operation index, and the
//! service performs all store I/O on its coordinating thread in vehicle
//! order regardless of thread count.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{Content, Deserialize, Serialize};
use vup_core::{FittedPredictor, SavedPredictor};
use vup_fleetsim::fleet::VehicleId;
use vup_obs::{Counter, Registry, SpanCtx, Tracer};

use crate::faults::{DiskFaultPlan, FaultPlan};
use crate::frame::{self, file_name, fnv1a, retry_io, FrameDefect, STORE_HASH_PRIME, TMP_SUFFIX};
use crate::resilience::splitmix64;
use crate::store::{ModelStore, StoredModel};

// The frame primitives and file-protocol names are shared with the
// telemetry commit log (`vup-ingest`); re-export them so existing
// `persist::crc32` / `persist::QUARANTINE_DIR` callers keep compiling.
pub use crate::frame::{crc32, HEADER_LEN, MANIFEST_NAME, QUARANTINE_DIR};

/// First four bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"VUPM";
/// Snapshot format version this build reads and writes: 2 is the
/// payload in the serde shim's binary `Content` encoding
/// ([`Content::encode_binary`]), with every float's exact bits.
/// Version 1 (JSON) files are not read; recovery quarantines them as
/// [`SnapshotDefect::Version`].
pub const SNAPSHOT_VERSION: u16 = 2;
/// Extension of committed snapshot files.
pub const SNAPSHOT_EXT: &str = "snap";

/// Why a snapshot file cannot be loaded. Doubles as the quarantine
/// suffix and the `reason` label of `vup_store_quarantined_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SnapshotDefect {
    /// Shorter than its header declares (torn write, kill mid-write).
    Truncated,
    /// Payload bytes do not match the header's CRC32 (bit rot).
    Checksum,
    /// Wrong magic or a format version this build does not know.
    Version,
    /// Framing is intact but the payload does not decode to a model
    /// (or contradicts the file's name).
    Decode,
    /// The file could not be read at all, even after retries.
    Io,
    /// A leftover `.tmp` file from an interrupted write.
    Tmp,
}

impl SnapshotDefect {
    /// Stable lowercase label.
    pub fn as_str(self) -> &'static str {
        match self {
            SnapshotDefect::Truncated => "truncated",
            SnapshotDefect::Checksum => "checksum",
            SnapshotDefect::Version => "version",
            SnapshotDefect::Decode => "decode",
            SnapshotDefect::Io => "io",
            SnapshotDefect::Tmp => "tmp",
        }
    }
}

/// Validates a snapshot's framing and returns the payload bytes.
///
/// This is the recovery decision procedure (see DESIGN.md §3d): header
/// too short or payload shorter than declared → [`Truncated`]; bad
/// magic or unknown version → [`Version`]; trailing garbage →
/// [`Decode`]; CRC mismatch → [`Checksum`].
///
/// [`Truncated`]: SnapshotDefect::Truncated
/// [`Version`]: SnapshotDefect::Version
/// [`Decode`]: SnapshotDefect::Decode
/// [`Checksum`]: SnapshotDefect::Checksum
pub fn decode_snapshot(bytes: &[u8]) -> Result<&[u8], SnapshotDefect> {
    frame::decode_frame_exact(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, bytes).map_err(|defect| {
        match defect {
            FrameDefect::Truncated => SnapshotDefect::Truncated,
            // A foreign magic is "a format this build does not know",
            // same as an unknown version.
            FrameDefect::Magic | FrameDefect::Version => SnapshotDefect::Version,
            FrameDefect::Checksum => SnapshotDefect::Checksum,
            FrameDefect::TrailingGarbage => SnapshotDefect::Decode,
        }
    })
}

/// What one snapshot file holds: the key, the freshness position and
/// the serializable predictor.
#[derive(Clone, Serialize, Deserialize)]
struct SnapshotPayload {
    vehicle_id: u32,
    config_fingerprint: u64,
    trained_at: usize,
    predictor: SavedPredictor,
}

/// A file the caller appends to again and again — the commit log's
/// active segment — plus, once a backend has opened it, the open handle,
/// so a backend that keeps it spends one `write` per append instead of
/// open + write + close. Dropping the target closes the handle.
#[derive(Debug)]
pub struct AppendTarget {
    path: PathBuf,
    file: Option<std::fs::File>,
}

impl AppendTarget {
    /// A target for `path`; nothing is opened until the first append.
    pub fn new(path: PathBuf) -> AppendTarget {
        AppendTarget { path, file: None }
    }

    /// The file appends go to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether a backend holds the file open in this target.
    pub fn is_open(&self) -> bool {
        self.file.is_some()
    }
}

/// The storage operations the snapshot store needs — the seam through
/// which disk faults are injected. Implementations must behave like a
/// POSIX filesystem: `rename` within the store directory is atomic.
///
/// [`StorageBackend::append_to`] may keep a file open in its
/// [`AppendTarget`] between calls. That handle follows the inode, not
/// the name: whoever holds the target must be the file's only writer,
/// and must drop the target before anything renames over or truncates
/// the file (the commit log's single-writer contract).
pub trait StorageBackend: Send + Sync {
    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Creates or replaces a file with exactly `bytes`.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Appends `bytes` to the end of `path`, creating it if absent —
    /// the commit-log primitive. The default read-extend-rewrite is
    /// correct but O(file); real backends override with a positional
    /// append.
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut existing = match self.read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        existing.extend_from_slice(bytes);
        self.write(path, &existing)
    }
    /// Appends `bytes` to `target`'s file, creating it if absent. A
    /// backend may open the file once and keep the handle in `target`
    /// for later calls; the default appends by path every time.
    fn append_to(&self, target: &mut AppendTarget, bytes: &[u8]) -> io::Result<()> {
        self.append(target.path(), bytes)
    }
    /// Atomically renames `from` onto `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Deletes a file (missing files are not an error).
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Lists the files directly inside `dir`, sorted by file name.
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;
    /// Creates `dir` and its parents if absent.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
}

/// The real filesystem.
#[derive(Debug, Default, Clone, Copy)]
pub struct DiskBackend;

impl StorageBackend for DiskBackend {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.append_to(&mut AppendTarget::new(path.to_path_buf()), bytes)
    }

    /// Opens the file on the first append and writes through the kept
    /// handle after that. Any error drops the handle, so a retry reopens
    /// the file as a fresh append would.
    fn append_to(&self, target: &mut AppendTarget, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write;
        let file = match &mut target.file {
            Some(file) => file,
            None => target.file.insert(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&target.path)?,
            ),
        };
        let written = file.write_all(bytes);
        if written.is_err() {
            target.file = None;
        }
        written
    }

    /// Replaces an existing regular file by swapping the two names
    /// ([`exchange`]) and removing `from`, which then holds the replaced
    /// bytes; anything else is a plain `rename(2)`. A plain rename over
    /// an existing file makes ext4 (`auto_da_alloc`) allocate and submit
    /// the new file's blocks inside the call, a disk wait in every
    /// snapshot replace; the swap leaves writeback to the kernel, as a
    /// rename onto a fresh name does. `to` holds the old bytes, then the
    /// new, as with a plain rename; a crash between the swap and the
    /// removal leaves the old bytes under the temp name, a leftover temp
    /// file like the one a crash mid-write leaves.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let replaces_file =
            from != to && std::fs::symlink_metadata(to).is_ok_and(|meta| meta.is_file());
        if replaces_file && exchange::swap(from, to).is_ok() {
            // The rename is done: `to` holds the new bytes. A failed
            // removal leaves a stray temp file that the next open
            // quarantines, and must not be reported, since a retried
            // rename would swap the old bytes back in.
            let _ = std::fs::remove_file(from);
            return Ok(());
        }
        std::fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        match std::fs::remove_file(path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            other => other,
        }
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut files = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                files.push(entry.path());
            }
        }
        files.sort();
        Ok(files)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }
}

/// Atomic swap of two names, which [`DiskBackend::rename`] uses to
/// replace a file. `std` has no such call; it already links libc, so
/// `renameat2(2)` is declared here.
#[cfg(target_os = "linux")]
mod exchange {
    use std::ffi::{c_char, CString};
    use std::io;
    use std::os::unix::ffi::OsStrExt;
    use std::path::Path;

    /// `AT_FDCWD` from `<fcntl.h>`: resolve relative paths from the
    /// working directory.
    const AT_FDCWD: i32 = -100;
    /// `RENAME_EXCHANGE` from `<linux/fs.h>`.
    const RENAME_EXCHANGE: u32 = 1 << 1;

    extern "C" {
        fn renameat2(
            olddirfd: i32,
            oldpath: *const c_char,
            newdirfd: i32,
            newpath: *const c_char,
            flags: u32,
        ) -> i32;
    }

    /// Atomically swaps the entries at `a` and `b`; both must exist. An
    /// error (a filesystem without the swap included) changes nothing.
    pub fn swap(a: &Path, b: &Path) -> io::Result<()> {
        let a = CString::new(a.as_os_str().as_bytes())?;
        let b = CString::new(b.as_os_str().as_bytes())?;
        // SAFETY: both pointers come from live `CString`s, so they are
        // NUL-terminated and valid for the whole call, which only reads
        // them; `AT_FDCWD` and the flag are constants the kernel accepts.
        let rc = unsafe { renameat2(AT_FDCWD, a.as_ptr(), AT_FDCWD, b.as_ptr(), RENAME_EXCHANGE) };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }
}

/// No swap off Linux: [`DiskBackend::rename`] renames over the file.
#[cfg(not(target_os = "linux"))]
mod exchange {
    use std::io;
    use std::path::Path;

    pub fn swap(_: &Path, _: &Path) -> io::Result<()> {
        Err(io::ErrorKind::Unsupported.into())
    }
}

/// Salts keeping the disk-fault hash streams independent (and disjoint
/// from the fit-fault salts in [`crate::faults`]).
const SALT_TORN: u64 = 0x54_4f_52_4e;
const SALT_FLIP: u64 = 0x46_4c_49_50;
const SALT_DISK_IO: u64 = 0x44_49_4f;

/// Per-(kind, file) fault-injection state: how many logical operations
/// completed, and how many consecutive transient failures the current
/// operation has already suffered.
#[derive(Default)]
struct FaultFileState {
    logical_ops: u64,
    consecutive_failures: u32,
}

/// A [`StorageBackend`] decorator executing a seeded [`DiskFaultPlan`].
///
/// Determinism contract: a decision depends only on the seed, the fault
/// kind, the file name and the per-file logical-operation index — never
/// on wall clock or scheduling. A transiently failed operation keeps
/// its logical index until it succeeds, so a retry loop deterministically
/// clears after [`DiskFaultPlan::effective_io_attempts`] failures.
pub struct FaultyBackend {
    inner: Box<dyn StorageBackend>,
    seed: u64,
    plan: DiskFaultPlan,
    state: Mutex<HashMap<(u8, String), FaultFileState>>,
    bytes_written: AtomicU64,
}

/// Operation-kind discriminants for the per-file decision streams.
const OP_READ: u8 = 0;
const OP_WRITE: u8 = 1;
const OP_RENAME: u8 = 2;
const OP_APPEND: u8 = 3;

impl FaultyBackend {
    /// Wraps `inner` with the faults of `plan`, seeded by `seed`.
    pub fn new(inner: Box<dyn StorageBackend>, seed: u64, plan: DiskFaultPlan) -> FaultyBackend {
        FaultyBackend {
            inner,
            seed,
            plan,
            state: Mutex::new(HashMap::new()),
            bytes_written: AtomicU64::new(0),
        }
    }

    /// Uniform value in `[0, 1)` for one decision coordinate.
    fn unit(&self, salt: u64, name: &str, op: u64) -> f64 {
        let mut h = splitmix64(self.seed ^ salt);
        h = splitmix64(h ^ fnv1a(STORE_HASH_PRIME, name.as_bytes()));
        h = splitmix64(h ^ op);
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Runs the transient-io-error decision for one `(kind, name)`
    /// operation; returns the logical op index to use for further
    /// decisions, or an injected error.
    fn admit(&self, kind: u8, name: &str) -> io::Result<u64> {
        let mut state = self.state.lock().expect("fault state lock");
        let st = state.entry((kind, name.to_string())).or_default();
        if self.plan.io_error_rate > 0.0
            && st.consecutive_failures < self.plan.effective_io_attempts()
            && self.unit(SALT_DISK_IO ^ u64::from(kind), name, st.logical_ops)
                < self.plan.io_error_rate
        {
            st.consecutive_failures += 1;
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                format!("injected transient io error on {name}"),
            ));
        }
        st.consecutive_failures = 0;
        let op = st.logical_ops;
        st.logical_ops += 1;
        Ok(op)
    }

    /// Runs every fault decision for one append of `len` bytes to
    /// `path` — transient error, full disk, tear — and returns how many
    /// of the bytes reach the disk. Both append entry points go through
    /// it, so they consume the same decision streams.
    fn admit_append(&self, path: &Path, len: usize) -> io::Result<usize> {
        let name = file_name(path);
        let op = self.admit(OP_APPEND, &name)?;
        if let Some(budget) = self.plan.full_disk_after_bytes {
            let before = self.bytes_written.fetch_add(len as u64, Ordering::Relaxed);
            if before + len as u64 > budget {
                return Err(io::Error::other(format!(
                    "injected full disk appending to {name}"
                )));
            }
        }
        if self.plan.torn_write_rate > 0.0
            && self.unit(SALT_TORN ^ u64::from(OP_APPEND), &name, op) < self.plan.torn_write_rate
        {
            // A torn append *silently succeeds* with only a prefix of
            // this chunk on disk — what a kill -9 mid-append leaves.
            return Ok((self.plan.torn_write_byte as usize).min(len));
        }
        Ok(len)
    }

    /// Whether this file's reads come back bit-flipped (a pure function
    /// of the file name, so every read sees the same damage).
    fn flips(&self, name: &str) -> bool {
        self.plan.bit_flip_rate > 0.0 && self.unit(SALT_FLIP, name, 0) < self.plan.bit_flip_rate
    }
}

impl StorageBackend for FaultyBackend {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let name = file_name(path);
        self.admit(OP_READ, &name)?;
        let mut bytes = self.inner.read(path)?;
        if !bytes.is_empty() && self.flips(&name) {
            let name_hash = fnv1a(STORE_HASH_PRIME, name.as_bytes());
            let h = splitmix64(self.seed ^ SALT_FLIP ^ name_hash);
            let pos = (h as usize) % bytes.len();
            bytes[pos] ^= 1 << ((h >> 32) % 8);
        }
        Ok(bytes)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let name = file_name(path);
        let op = self.admit(OP_WRITE, &name)?;
        if let Some(budget) = self.plan.full_disk_after_bytes {
            let before = self
                .bytes_written
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
            if before + bytes.len() as u64 > budget {
                return Err(io::Error::other(format!(
                    "injected full disk writing {name}"
                )));
            }
        }
        if self.plan.torn_write_rate > 0.0
            && self.unit(SALT_TORN, &name, op) < self.plan.torn_write_rate
        {
            // A torn write *silently succeeds* with only a prefix on
            // disk — exactly what an un-fsynced crash leaves behind.
            let k = (self.plan.torn_write_byte as usize).min(bytes.len());
            return self.inner.write(path, &bytes[..k]);
        }
        self.inner.write(path, bytes)
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let k = self.admit_append(path, bytes.len())?;
        self.inner.append(path, &bytes[..k])
    }

    fn append_to(&self, target: &mut AppendTarget, bytes: &[u8]) -> io::Result<()> {
        let k = self.admit_append(target.path(), bytes.len())?;
        self.inner.append_to(target, &bytes[..k])
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.admit(OP_RENAME, &file_name(from))?;
        self.inner.rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.list(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }
}

/// The backend a store or log opened under `plan` runs on: the real
/// filesystem, behind a [`FaultyBackend`] seeded with the plan's seed
/// when the plan has an active `disk` section. Every call builds a
/// fresh backend, so each store (each shard's, too) keeps its own fault
/// state and full-disk budget.
pub fn storage_backend(plan: &FaultPlan) -> Box<dyn StorageBackend> {
    match plan.disk_faults() {
        Some(disk) => Box::new(FaultyBackend::new(
            Box::new(DiskBackend),
            plan.seed,
            disk.clone(),
        )),
        None => Box::new(DiskBackend),
    }
}

/// One quarantined file in a [`RecoveryStats`] report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuarantinedFile {
    /// Original file name inside the store directory.
    pub file: String,
    /// The [`SnapshotDefect`] label it was quarantined under.
    pub reason: String,
}

/// One loadable snapshot as recovery hands it to the cache:
/// `(vehicle, config fingerprint, model)`.
pub(crate) type RecoveredEntry = (VehicleId, u64, StoredModel);

/// What one startup recovery pass found — exposed by
/// [`crate::ModelStore::recovery`] and embeddable in a
/// [`crate::ServeJournal`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RecoveryStats {
    /// Snapshot and temp files considered (the manifest and foreign
    /// files are not counted).
    pub files_seen: usize,
    /// Snapshots that loaded cleanly and warm-started the cache.
    pub recovered: usize,
    /// Files moved into `quarantine/`, with their defect.
    pub quarantined: Vec<QuarantinedFile>,
    /// Transient-io retries spent during recovery.
    pub io_retries: u64,
    /// The store generation after this open (manifest counter).
    pub generation: u64,
    /// Whether the manifest was missing or unreadable and had to be
    /// rebuilt from scratch.
    pub manifest_rebuilt: bool,
}

impl RecoveryStats {
    /// Convenience: how many files were quarantined.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined.len()
    }

    /// Folds another store's recovery into this one — the fleet-wide
    /// merge the shard coordinator surfaces in its merged journal.
    /// Counters add, quarantine lists concatenate, the generation keeps
    /// the maximum, and `manifest_rebuilt` ORs; the balance invariant
    /// `recovered + quarantined_count == files_seen` holds per store and
    /// therefore survives any sequence of absorbs.
    pub fn absorb(&mut self, other: &RecoveryStats) {
        self.files_seen += other.files_seen;
        self.recovered += other.recovered;
        self.quarantined.extend(other.quarantined.iter().cloned());
        self.io_retries += other.io_retries;
        self.generation = self.generation.max(other.generation);
        self.manifest_rebuilt |= other.manifest_rebuilt;
    }
}

/// Registry handles for the persistence metrics. No-ops by default.
struct PersistMetrics {
    /// `vup_store_persisted_total` — snapshots durably written.
    persisted: Counter,
    /// `vup_store_persist_failed_total` — snapshot writes abandoned
    /// after retries (serving continues from memory).
    persist_failed: Counter,
    /// `vup_store_recovered_total` — snapshots warm-started at open.
    recovered: Counter,
    /// `vup_store_io_retries_total` — transient-io retries spent.
    io_retries: Counter,
    /// `vup_store_quarantined_total{reason}` — files quarantined.
    quarantined: [(SnapshotDefect, Counter); 6],
}

impl Default for PersistMetrics {
    fn default() -> Self {
        PersistMetrics::register(&Registry::disabled())
    }
}

impl PersistMetrics {
    fn register(registry: &Registry) -> PersistMetrics {
        registry.describe(
            "vup_store_persisted_total",
            "Model snapshots durably written.",
        );
        registry.describe(
            "vup_store_persist_failed_total",
            "Model snapshot writes abandoned after retries.",
        );
        registry.describe(
            "vup_store_recovered_total",
            "Model snapshots warm-started at open.",
        );
        registry.describe(
            "vup_store_io_retries_total",
            "Transient storage-io retries spent by the snapshot store.",
        );
        registry.describe(
            "vup_store_quarantined_total",
            "Snapshot files quarantined at open, by defect.",
        );
        let quarantine = |defect: SnapshotDefect| {
            (
                defect,
                registry.counter_with(
                    "vup_store_quarantined_total",
                    &[("reason", defect.as_str())],
                ),
            )
        };
        PersistMetrics {
            persisted: registry.counter("vup_store_persisted_total"),
            persist_failed: registry.counter("vup_store_persist_failed_total"),
            recovered: registry.counter("vup_store_recovered_total"),
            io_retries: registry.counter("vup_store_io_retries_total"),
            quarantined: [
                quarantine(SnapshotDefect::Truncated),
                quarantine(SnapshotDefect::Checksum),
                quarantine(SnapshotDefect::Version),
                quarantine(SnapshotDefect::Decode),
                quarantine(SnapshotDefect::Io),
                quarantine(SnapshotDefect::Tmp),
            ],
        }
    }

    fn quarantined(&self, defect: SnapshotDefect) -> &Counter {
        &self
            .quarantined
            .iter()
            .find(|(d, _)| *d == defect)
            .expect("all defects registered")
            .1
    }
}

/// The durable side of a [`crate::ModelStore`]: one snapshot file per
/// cache entry in a single directory, plus the quarantine subdirectory
/// and the generation manifest.
pub struct SnapshotStore {
    backend: Box<dyn StorageBackend>,
    dir: PathBuf,
    metrics: PersistMetrics,
}

impl SnapshotStore {
    /// Creates the store handle (no I/O yet; see
    /// [`SnapshotStore::recover`]).
    pub fn new(backend: Box<dyn StorageBackend>, dir: &Path, registry: &Registry) -> SnapshotStore {
        SnapshotStore {
            backend,
            dir: dir.to_path_buf(),
            metrics: PersistMetrics::register(registry),
        }
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Canonical snapshot file name for a cache key.
    pub fn file_name(vehicle: VehicleId, fingerprint: u64) -> String {
        format!("v{:08}-{:016x}.{}", vehicle.0, fingerprint, SNAPSHOT_EXT)
    }

    /// Durably writes one cache entry with [`frame::atomic_replace`].
    /// Returns whether the snapshot reached disk; a failure
    /// never propagates to the caller (serving continues from memory)
    /// but counts into `vup_store_persist_failed_total`.
    pub(crate) fn persist(
        &self,
        vehicle: VehicleId,
        fingerprint: u64,
        trained_at: usize,
        predictor: &FittedPredictor,
        ctx: &SpanCtx,
    ) -> bool {
        let mut span = ctx.child("store_persist");
        span.arg("vehicle", vehicle.0);
        let payload = SnapshotPayload {
            vehicle_id: vehicle.0,
            config_fingerprint: fingerprint,
            trained_at,
            predictor: predictor.save(),
        };
        let mut bytes = Vec::new();
        frame::encode_frame_into(&mut bytes, SNAPSHOT_MAGIC, SNAPSHOT_VERSION, |out| {
            payload.to_content().encode_binary(out)
        });
        span.arg("bytes", bytes.len());
        span.add_bytes(bytes.len() as u64);
        let name = Self::file_name(vehicle, fingerprint);
        let (result, retries) =
            frame::atomic_replace(self.backend.as_ref(), &self.dir, &name, &bytes);
        self.metrics.io_retries.add(retries);
        match result {
            Ok(()) => {
                self.metrics.persisted.inc();
                true
            }
            Err(e) => {
                span.arg("error", e);
                self.metrics.persist_failed.inc();
                false
            }
        }
    }

    /// Deletes the snapshot of one cache entry (cache invalidation —
    /// the only path that removes rather than quarantines). Best
    /// effort: an unreachable disk must not fail invalidation.
    pub(crate) fn remove_entry(&self, vehicle: VehicleId, fingerprint: u64) {
        let path = self.dir.join(Self::file_name(vehicle, fingerprint));
        let (res, r) = retry_io(|| self.backend.remove(&path));
        self.metrics.io_retries.add(r);
        let _ = res;
    }

    /// Startup recovery: classifies every file in the store directory,
    /// quarantines the bad ones, returns the loadable entries and the
    /// stats, and bumps the manifest generation.
    ///
    /// Only a failure to *list* the directory is fatal — with no
    /// listing there is nothing safe to recover. Per-file read errors
    /// quarantine that file; manifest trouble rebuilds the manifest.
    pub(crate) fn recover(
        &self,
        tracer: &Tracer,
    ) -> io::Result<(Vec<RecoveredEntry>, RecoveryStats)> {
        let mut span = tracer.root("store_recover");
        self.backend.create_dir_all(&self.dir)?;
        self.backend
            .create_dir_all(&self.dir.join(QUARANTINE_DIR))?;
        let mut stats = RecoveryStats::default();
        let mut entries = Vec::new();

        let (listed, r) = retry_io(|| self.backend.list(&self.dir));
        stats.io_retries += r;
        for path in listed? {
            let name = file_name(&path);
            if name == MANIFEST_NAME {
                continue;
            }
            if name.ends_with(TMP_SUFFIX) {
                stats.files_seen += 1;
                self.quarantine(&path, &name, SnapshotDefect::Tmp, &mut stats);
                continue;
            }
            if !name.ends_with(&format!(".{SNAPSHOT_EXT}")) {
                continue; // foreign files are left alone
            }
            stats.files_seen += 1;
            let (read, r) = retry_io(|| self.backend.read(&path));
            stats.io_retries += r;
            let bytes = match read {
                Ok(bytes) => bytes,
                Err(_) => {
                    self.quarantine(&path, &name, SnapshotDefect::Io, &mut stats);
                    continue;
                }
            };
            span.add_bytes(bytes.len() as u64);
            match Self::load_entry(&name, &bytes) {
                Ok(entry) => {
                    self.metrics.recovered.inc();
                    stats.recovered += 1;
                    entries.push(entry);
                }
                Err(defect) => self.quarantine(&path, &name, defect, &mut stats),
            }
        }

        let bump = frame::bump_manifest(self.backend.as_ref(), &self.dir);
        stats.io_retries += bump.io_retries;
        stats.generation = bump.generation;
        stats.manifest_rebuilt = bump.rebuilt;
        self.metrics.io_retries.add(stats.io_retries);
        span.arg("files_seen", stats.files_seen);
        span.arg("recovered", stats.recovered);
        span.arg("quarantined", stats.quarantined.len());
        span.arg("generation", stats.generation);
        Ok((entries, stats))
    }

    /// Decodes one snapshot file into a cache entry, running the full
    /// defect classification.
    fn load_entry(
        name: &str,
        bytes: &[u8],
    ) -> Result<(VehicleId, u64, StoredModel), SnapshotDefect> {
        let payload = decode_snapshot(bytes)?;
        let snapshot = Content::decode_binary(payload)
            .and_then(|content| SnapshotPayload::from_content(&content))
            .map_err(|_| SnapshotDefect::Decode)?;
        let vehicle = VehicleId(snapshot.vehicle_id);
        // The name must agree with the content (a copied or renamed
        // file would otherwise warm-start under the wrong key) …
        if Self::file_name(vehicle, snapshot.config_fingerprint) != name {
            return Err(SnapshotDefect::Decode);
        }
        let predictor = snapshot.predictor.restore();
        // … and the fingerprint must still be what this build computes
        // for the embedded config: a mismatch means the snapshot comes
        // from an incompatible build, i.e. an unknown logical version.
        if ModelStore::fingerprint(predictor.config()) != snapshot.config_fingerprint {
            return Err(SnapshotDefect::Version);
        }
        Ok((
            vehicle,
            snapshot.config_fingerprint,
            StoredModel {
                predictor,
                trained_at: snapshot.trained_at,
            },
        ))
    }

    /// Quarantines a bad file with [`frame::quarantine_move`] and
    /// records the defect.
    fn quarantine(
        &self,
        path: &Path,
        name: &str,
        defect: SnapshotDefect,
        stats: &mut RecoveryStats,
    ) {
        let (_, r) = frame::quarantine_move(self.backend.as_ref(), path, defect.as_str());
        stats.io_retries += r;
        self.metrics.quarantined(defect).inc();
        stats.quarantined.push(QuarantinedFile {
            file: name.to_string(),
            reason: defect.as_str().to_string(),
        });
    }
}

/// Parses a canonical snapshot file name ([`SnapshotStore::file_name`])
/// back into its cache key, or `None` for anything else — the way the
/// shard rebalancer discovers which vehicle owns a file without reading
/// it.
pub fn parse_snapshot_name(name: &str) -> Option<(VehicleId, u64)> {
    let rest = name.strip_prefix('v')?;
    let rest = rest.strip_suffix(&format!(".{SNAPSHOT_EXT}"))?;
    let (vehicle, fingerprint) = rest.split_once('-')?;
    if vehicle.len() != 8 || fingerprint.len() != 16 {
        return None;
    }
    let vehicle: u32 = vehicle.parse().ok()?;
    let fingerprint = u64::from_str_radix(fingerprint, 16).ok()?;
    // Round-trip guard: zero-padding must match the canonical form.
    let id = VehicleId(vehicle);
    (SnapshotStore::file_name(id, fingerprint) == name).then_some((id, fingerprint))
}

/// Verifies snapshot bytes against their file name through the same
/// classification [`audit`] and startup recovery run (header, CRC,
/// name/content agreement, fingerprint compatibility), returning the
/// owning vehicle and its training position. This is the per-file check
/// the shard rebalancer runs before and after every copy.
pub fn verify_snapshot(name: &str, bytes: &[u8]) -> Result<(VehicleId, usize), SnapshotDefect> {
    let (vehicle, _, model) = SnapshotStore::load_entry(name, bytes)?;
    Ok((vehicle, model.trained_at))
}

/// One file's verdict in an offline [`audit`] of a store directory.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditEntry {
    /// File name inside the directory.
    pub file: String,
    /// `Ok(())` if loadable, otherwise the defect.
    pub verdict: Result<(), SnapshotDefect>,
    /// Vehicle the snapshot belongs to (loadable files only).
    pub vehicle_id: Option<u32>,
    /// Training position of the snapshot (loadable files only).
    pub trained_at: Option<usize>,
    /// File size in bytes (0 if unreadable).
    pub bytes: u64,
}

/// Read-only audit of a snapshot directory: classifies every snapshot
/// and temp file without moving, repairing or loading anything into a
/// cache. Backs `vup store verify <dir>`.
pub fn audit(backend: &dyn StorageBackend, dir: &Path) -> io::Result<Vec<AuditEntry>> {
    let mut report = Vec::new();
    for path in backend.list(dir)? {
        let name = file_name(&path);
        if name == MANIFEST_NAME {
            continue;
        }
        let is_tmp = name.ends_with(TMP_SUFFIX);
        if !is_tmp && !name.ends_with(&format!(".{SNAPSHOT_EXT}")) {
            continue;
        }
        let (read, _) = retry_io(|| backend.read(&path));
        let entry = match (is_tmp, read) {
            (true, read) => AuditEntry {
                file: name,
                verdict: Err(SnapshotDefect::Tmp),
                vehicle_id: None,
                trained_at: None,
                bytes: read.map_or(0, |b| b.len() as u64),
            },
            (false, Err(_)) => AuditEntry {
                file: name,
                verdict: Err(SnapshotDefect::Io),
                vehicle_id: None,
                trained_at: None,
                bytes: 0,
            },
            (false, Ok(bytes)) => match SnapshotStore::load_entry(&name, &bytes) {
                Ok((vehicle, _, model)) => AuditEntry {
                    file: name,
                    verdict: Ok(()),
                    vehicle_id: Some(vehicle.0),
                    trained_at: Some(model.trained_at),
                    bytes: bytes.len() as u64,
                },
                Err(defect) => AuditEntry {
                    file: name,
                    verdict: Err(defect),
                    vehicle_id: None,
                    trained_at: None,
                    bytes: bytes.len() as u64,
                },
            },
        };
        report.push(entry);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vup_core::{ModelSpec, PipelineConfig, VehicleView};
    use vup_fleetsim::fleet::{Fleet, FleetConfig};
    use vup_ml::baseline::BaselineSpec;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vup-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn config() -> PipelineConfig {
        PipelineConfig {
            model: ModelSpec::Baseline(BaselineSpec::LastValue),
            train_window: 60,
            max_lag: 10,
            k: 5,
            retrain_every: 7,
            ..PipelineConfig::default()
        }
    }

    fn predictor(cfg: &PipelineConfig) -> FittedPredictor {
        let fleet = Fleet::generate(FleetConfig::small(1, 7));
        let view = VehicleView::build(&fleet, VehicleId(0), cfg.scenario);
        FittedPredictor::fit(&view, cfg, 0, 60).unwrap()
    }

    #[test]
    fn disk_rename_replaces_files_and_refuses_directories_as_rename_does() {
        let dir = temp_dir("rename");
        let (tmp, target) = (dir.join("a.snap.tmp"), dir.join("a.snap"));
        let names = || {
            let mut names: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        };

        // Onto a fresh name, then over the file it made.
        std::fs::write(&tmp, b"old").unwrap();
        DiskBackend.rename(&tmp, &target).unwrap();
        std::fs::write(&tmp, b"new").unwrap();
        DiskBackend.rename(&tmp, &target).unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"new");
        assert_eq!(names(), ["a.snap"]);

        // Onto itself: a no-op that keeps the file.
        DiskBackend.rename(&target, &target).unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"new");

        // A file never replaces a directory, and a missing source is
        // an error that touches nothing.
        let sub = dir.join("sub");
        std::fs::create_dir(&sub).unwrap();
        assert!(DiskBackend.rename(&target, &sub).is_err());
        assert!(sub.is_dir());
        assert!(DiskBackend.rename(&tmp, &target).is_err());
        assert_eq!(std::fs::read(&target).unwrap(), b"new");
        assert_eq!(names(), ["a.snap", "sub"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32/ISO-HDLC test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn snapshot_framing_round_trips_and_classifies_defects() {
        let payload = b"any payload";
        let bytes = frame::encode_frame(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, payload);
        assert_eq!(bytes.len(), HEADER_LEN + payload.len());
        assert_eq!(decode_snapshot(&bytes).unwrap(), payload);

        // Truncations: inside the header and inside the payload.
        for cut in [0, 3, HEADER_LEN - 1, HEADER_LEN + 2, bytes.len() - 1] {
            assert_eq!(
                decode_snapshot(&bytes[..cut]),
                Err(SnapshotDefect::Truncated),
                "cut at {cut}"
            );
        }
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(decode_snapshot(&long), Err(SnapshotDefect::Decode));
        // Any single payload bit flip is caught by the CRC.
        for bit in 0..8 {
            let mut flipped = bytes.clone();
            flipped[HEADER_LEN + 4] ^= 1 << bit;
            assert_eq!(decode_snapshot(&flipped), Err(SnapshotDefect::Checksum));
        }
        // Wrong magic and unknown version.
        let mut magic = bytes.clone();
        magic[0] = b'X';
        assert_eq!(decode_snapshot(&magic), Err(SnapshotDefect::Version));
        let mut version = bytes.clone();
        version[4] = 0xFF;
        assert_eq!(decode_snapshot(&version), Err(SnapshotDefect::Version));
    }

    #[test]
    fn faulty_backend_decisions_are_deterministic() {
        let plan = DiskFaultPlan {
            torn_write_rate: 0.5,
            torn_write_byte: 4,
            bit_flip_rate: 0.5,
            io_error_rate: 0.5,
            io_error_attempts: 1,
            full_disk_after_bytes: None,
        };
        let dir = temp_dir("faulty-det");
        let run = |tag: &str| {
            let sub = dir.join(tag);
            std::fs::create_dir_all(&sub).unwrap();
            let backend = FaultyBackend::new(Box::new(DiskBackend), 42, plan.clone());
            let mut log = Vec::new();
            for i in 0..20 {
                let path = sub.join(format!("f{i}.snap"));
                let (res, retries) = retry_io(|| backend.write(&path, b"0123456789"));
                res.unwrap();
                let (read, _) = retry_io(|| backend.read(&path));
                log.push((retries, read.unwrap()));
            }
            log
        };
        assert_eq!(run("a"), run("b"));
        // At 50% rates something was torn and something was flipped.
        let log = run("c");
        assert!(log.iter().any(|(_, bytes)| bytes.len() == 4), "torn");
        assert!(log.iter().any(|(r, _)| *r > 0), "io retries");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_disk_fails_writes_after_the_budget() {
        let dir = temp_dir("full-disk");
        let backend = FaultyBackend::new(
            Box::new(DiskBackend),
            1,
            DiskFaultPlan {
                full_disk_after_bytes: Some(25),
                ..DiskFaultPlan::default()
            },
        );
        assert!(backend.write(&dir.join("a.snap"), &[0; 10]).is_ok());
        assert!(backend.write(&dir.join("b.snap"), &[0; 10]).is_ok());
        let err = backend.write(&dir.join("c.snap"), &[0; 10]).unwrap_err();
        assert_ne!(err.kind(), io::ErrorKind::Interrupted, "not retryable");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persist_then_recover_round_trips_one_entry() {
        let dir = temp_dir("round-trip");
        let cfg = config();
        let fitted = predictor(&cfg);
        let fp = ModelStore::fingerprint(&cfg);
        let registry = Registry::new();
        let store = SnapshotStore::new(Box::new(DiskBackend), &dir, &registry);
        assert!(store.persist(VehicleId(0), fp, 60, &fitted, &SpanCtx::disabled()));
        assert_eq!(registry.counter("vup_store_persisted_total").get(), 1);

        let (entries, stats) = store.recover(&Tracer::disabled()).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(stats.recovered, 1);
        assert_eq!(stats.files_seen, 1);
        assert!(stats.quarantined.is_empty());
        assert_eq!(stats.generation, 1);
        assert!(stats.manifest_rebuilt);
        let (vehicle, fingerprint, model) = &entries[0];
        assert_eq!(*vehicle, VehicleId(0));
        assert_eq!(*fingerprint, fp);
        assert_eq!(model.trained_at, 60);

        // A second recovery bumps the generation and rebuilds nothing.
        let (_, stats) = store.recover(&Tracer::disabled()).unwrap();
        assert_eq!(stats.generation, 2);
        assert!(!stats.manifest_rebuilt);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_quarantines_each_defect_under_its_reason() {
        let dir = temp_dir("quarantine");
        let cfg = config();
        let fp = ModelStore::fingerprint(&cfg);
        let registry = Registry::new();
        let store = SnapshotStore::new(Box::new(DiskBackend), &dir, &registry);
        store.persist(VehicleId(0), fp, 60, &predictor(&cfg), &SpanCtx::disabled());

        // Hand-craft one file per defect class.
        let good = std::fs::read(dir.join(SnapshotStore::file_name(VehicleId(0), fp))).unwrap();
        std::fs::write(dir.join("v00000001-0000000000000001.snap"), &good[..20]).unwrap();
        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x10;
        std::fs::write(dir.join("v00000002-0000000000000002.snap"), &flipped).unwrap();
        let mut future = good.clone();
        future[4] = 0x7F;
        std::fs::write(dir.join("v00000003-0000000000000003.snap"), &future).unwrap();
        std::fs::write(
            dir.join("v00000004-0000000000000004.snap"),
            frame::encode_frame(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, b"not a model"),
        )
        .unwrap();
        std::fs::write(dir.join("v00000005-0000000000000005.snap.tmp"), b"partial").unwrap();
        // A foreign file must be ignored entirely.
        std::fs::write(dir.join("README.txt"), b"hello").unwrap();

        let (entries, stats) = store.recover(&Tracer::disabled()).unwrap();
        assert_eq!(entries.len(), 1, "only the intact snapshot loads");
        assert_eq!(stats.files_seen, 6);
        assert_eq!(stats.recovered + stats.quarantined.len(), stats.files_seen);
        let mut reasons: Vec<&str> = stats
            .quarantined
            .iter()
            .map(|q| q.reason.as_str())
            .collect();
        reasons.sort_unstable();
        assert_eq!(
            reasons,
            vec!["checksum", "decode", "tmp", "truncated", "version"]
        );
        // Quarantined, not deleted: every bad file is in quarantine/.
        for q in &stats.quarantined {
            let dest = dir
                .join(QUARANTINE_DIR)
                .join(format!("{}.{}", q.file, q.reason));
            assert!(dest.exists(), "{dest:?} missing");
            assert!(!dir.join(&q.file).exists(), "{} not moved", q.file);
        }
        assert!(dir.join("README.txt").exists());
        for (defect, expected) in [
            (SnapshotDefect::Truncated, 1),
            (SnapshotDefect::Checksum, 1),
            (SnapshotDefect::Version, 1),
            (SnapshotDefect::Decode, 1),
            (SnapshotDefect::Tmp, 1),
            (SnapshotDefect::Io, 0),
        ] {
            assert_eq!(
                registry
                    .counter_with(
                        "vup_store_quarantined_total",
                        &[("reason", defect.as_str())]
                    )
                    .get(),
                expected,
                "{}",
                defect.as_str()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_renamed_snapshot_is_rejected_as_decode() {
        let dir = temp_dir("renamed");
        let cfg = config();
        let fp = ModelStore::fingerprint(&cfg);
        let store = SnapshotStore::new(Box::new(DiskBackend), &dir, &Registry::disabled());
        store.persist(VehicleId(0), fp, 60, &predictor(&cfg), &SpanCtx::disabled());
        let original = dir.join(SnapshotStore::file_name(VehicleId(0), fp));
        let forged = dir.join(SnapshotStore::file_name(VehicleId(9), fp));
        std::fs::rename(&original, &forged).unwrap();

        let (entries, stats) = store.recover(&Tracer::disabled()).unwrap();
        assert!(entries.is_empty());
        assert_eq!(stats.quarantined.len(), 1);
        assert_eq!(stats.quarantined[0].reason, "decode");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn audit_reports_without_touching_files() {
        let dir = temp_dir("audit");
        let cfg = config();
        let fp = ModelStore::fingerprint(&cfg);
        let store = SnapshotStore::new(Box::new(DiskBackend), &dir, &Registry::disabled());
        store.persist(VehicleId(3), fp, 60, &predictor(&cfg), &SpanCtx::disabled());
        std::fs::write(dir.join("v00000001-0000000000000001.snap"), b"short").unwrap();

        let report = audit(&DiskBackend, &dir).unwrap();
        assert_eq!(report.len(), 2);
        let bad = &report[0];
        assert_eq!(bad.verdict, Err(SnapshotDefect::Truncated));
        let good = &report[1];
        assert_eq!(good.verdict, Ok(()));
        assert_eq!(good.vehicle_id, Some(3));
        assert_eq!(good.trained_at, Some(60));
        // Nothing moved: both files are still in place.
        assert!(dir.join("v00000001-0000000000000001.snap").exists());
        assert!(dir
            .join(SnapshotStore::file_name(VehicleId(3), fp))
            .exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persist_survives_transient_io_errors_and_reports_permanent_ones() {
        let dir = temp_dir("retries");
        let cfg = config();
        let fp = ModelStore::fingerprint(&cfg);
        let registry = Registry::new();
        let transient = FaultyBackend::new(
            Box::new(DiskBackend),
            3,
            DiskFaultPlan {
                io_error_rate: 1.0,
                io_error_attempts: 2,
                ..DiskFaultPlan::default()
            },
        );
        let store = SnapshotStore::new(Box::new(transient), &dir, &registry);
        assert!(
            store.persist(VehicleId(0), fp, 60, &predictor(&cfg), &SpanCtx::disabled()),
            "two transient failures per op are retried away"
        );
        assert!(registry.counter("vup_store_io_retries_total").get() >= 2);
        assert_eq!(registry.counter("vup_store_persist_failed_total").get(), 0);

        // Full disk is permanent: persist reports failure, no tmp left.
        let full = FaultyBackend::new(
            Box::new(DiskBackend),
            3,
            DiskFaultPlan {
                full_disk_after_bytes: Some(0),
                ..DiskFaultPlan::default()
            },
        );
        let store = SnapshotStore::new(Box::new(full), &dir, &registry);
        assert!(!store.persist(VehicleId(1), fp, 60, &predictor(&cfg), &SpanCtx::disabled()));
        assert_eq!(registry.counter("vup_store_persist_failed_total").get(), 1);
        assert!(!dir
            .join(format!(
                "{}.tmp",
                SnapshotStore::file_name(VehicleId(1), fp)
            ))
            .exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_stats_absorb_preserves_the_balance_invariant() {
        let quarantined = |n: usize| {
            (0..n)
                .map(|i| QuarantinedFile {
                    file: format!("v{i:08}-0000000000000001.snap"),
                    reason: "checksum".to_string(),
                })
                .collect::<Vec<_>>()
        };
        let shards = [
            RecoveryStats {
                files_seen: 5,
                recovered: 4,
                quarantined: quarantined(1),
                io_retries: 2,
                generation: 3,
                manifest_rebuilt: false,
            },
            RecoveryStats {
                files_seen: 7,
                recovered: 7,
                quarantined: Vec::new(),
                io_retries: 0,
                generation: 9,
                manifest_rebuilt: true,
            },
            RecoveryStats {
                files_seen: 2,
                recovered: 0,
                quarantined: quarantined(2),
                io_retries: 1,
                generation: 1,
                manifest_rebuilt: false,
            },
        ];
        let mut merged = RecoveryStats::default();
        for shard in &shards {
            // Per-store the invariant holds …
            assert_eq!(
                shard.recovered + shard.quarantined_count(),
                shard.files_seen
            );
            merged.absorb(shard);
        }
        // … and fleet-wide it still balances after the merge.
        assert_eq!(merged.files_seen, 14);
        assert_eq!(merged.recovered, 11);
        assert_eq!(merged.quarantined_count(), 3);
        assert_eq!(
            merged.recovered + merged.quarantined_count(),
            merged.files_seen
        );
        assert_eq!(merged.io_retries, 3);
        assert_eq!(merged.generation, 9, "merged generation is the maximum");
        assert!(merged.manifest_rebuilt, "any rebuild marks the merge");
    }

    #[test]
    fn snapshot_names_parse_and_round_trip() {
        let name = SnapshotStore::file_name(VehicleId(42), 0xdead_beef_0123_4567);
        assert_eq!(
            parse_snapshot_name(&name),
            Some((VehicleId(42), 0xdead_beef_0123_4567))
        );
        for bad in [
            "MANIFEST.json",
            "v0000002a-deadbeef01234567.snap.tmp",
            "x0000002a-deadbeef01234567.snap",
            "v2a-deadbeef01234567.snap",
            "v0000002a-deadbeef.snap",
            "notes.txt",
        ] {
            assert_eq!(parse_snapshot_name(bad), None, "{bad}");
        }
    }

    #[test]
    fn verify_snapshot_runs_the_audit_classification() {
        let cfg = config();
        let fp = ModelStore::fingerprint(&cfg);
        let dir = temp_dir("verify-snap");
        let registry = Registry::disabled();
        let store = SnapshotStore::new(Box::new(DiskBackend), &dir, &registry);
        assert!(store.persist(VehicleId(9), fp, 60, &predictor(&cfg), &SpanCtx::disabled()));
        let name = SnapshotStore::file_name(VehicleId(9), fp);
        let bytes = std::fs::read(dir.join(&name)).unwrap();
        assert_eq!(verify_snapshot(&name, &bytes), Ok((VehicleId(9), 60)));
        // A renamed file fails name/content agreement.
        let other = SnapshotStore::file_name(VehicleId(8), fp);
        assert_eq!(verify_snapshot(&other, &bytes), Err(SnapshotDefect::Decode));
        // A flipped bit fails the CRC.
        let mut torn = bytes.clone();
        let last = torn.len() - 1;
        torn[last] ^= 0x40;
        assert_eq!(verify_snapshot(&name, &torn), Err(SnapshotDefect::Checksum));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bump_generation_counts_out_of_band_mutations() {
        let dir = temp_dir("bump-gen");
        assert_eq!(frame::bump_manifest(&DiskBackend, &dir).generation, 1);
        assert_eq!(frame::bump_manifest(&DiskBackend, &dir).generation, 2);
        // An open after the bumps continues the same counter.
        let registry = Registry::disabled();
        let store = SnapshotStore::new(Box::new(DiskBackend), &dir, &registry);
        let (_, stats) = store.recover(&Tracer::disabled()).unwrap();
        assert_eq!(stats.generation, 3);
        assert!(!stats.manifest_rebuilt);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
