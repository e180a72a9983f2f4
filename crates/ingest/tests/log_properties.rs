//! Property tests for commit-log crash recovery.
//!
//! The contract under test, over arbitrary append sequences and seeded
//! disk chaos (torn appends, transient io errors) plus hand-cut and
//! garbage-extended tails:
//!
//! - recovery never panics and never errors on per-file damage;
//! - the recovered log is the **longest valid prefix** of what was
//!   appended, bit for bit;
//! - every byte is accounted for: `bytes_seen == bytes_recovered +
//!   bytes_quarantined` — recovery quarantines, it never deletes;
//! - recovery is idempotent: a second open of the repaired log is
//!   clean;
//! - the binary record codec round-trips every report bit for bit, and
//!   a checksum-valid frame whose record layout is wrong is quarantined
//!   as `decode`;
//! - appending through the held-open segment handle leaves exactly the
//!   bytes per-call appends (open + write + close) leave, under the same
//!   seeded faults, and recovers to an equal report;
//! - a crash at every mutating I/O op of an append + roll run recovers
//!   every acknowledged record with balanced byte accounting.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use vup_fleetsim::canbus::RawReport;
use vup_ingest::log::{
    CommitLog, LogOptions, LogRecovery, QUARANTINE_DIR, SEGMENT_MAGIC, SEGMENT_VERSION,
};
use vup_obs::{Registry, Tracer};
use vup_serve::frame::{decode_frame_at, encode_frame};
use vup_serve::{AppendTarget, DiskBackend, DiskFaultPlan, FaultyBackend, StorageBackend};

fn temp_dir(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vup-logprop-{tag}-{case}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn report(i: u64) -> RawReport {
    RawReport {
        day: 17_000 + (i / 6) as i64,
        minute: ((i % 6) * 10) as u16,
        engine_on: i % 5 != 4,
        fuel_level_pct: Some(80.0 - (i % 50) as f64),
        engine_rpm: (!i.is_multiple_of(7)).then_some(1_100.0 + (i % 13) as f64 * 37.0),
        oil_pressure_kpa: Some(300.0 + (i % 11) as f64),
        coolant_temp_c: Some(82.0),
        fuel_rate_lph: Some(7.0 + (i % 3) as f64),
        speed_kmh: None,
        load_pct: Some(35.0 + (i % 29) as f64),
        digging_pressure_kpa: i.is_multiple_of(2).then_some(9_000.0),
        pump_drive_temp_c: Some(58.0),
        oil_tank_temp_c: Some(49.0),
    }
}

/// A report's fields with every float as its bit pattern, so NaN
/// payloads and signed zeros compare exactly.
type ReportBits = (i64, u16, bool, Vec<Option<u64>>);

fn report_bits(r: &RawReport) -> ReportBits {
    let channels = [
        r.fuel_level_pct,
        r.engine_rpm,
        r.oil_pressure_kpa,
        r.coolant_temp_c,
        r.fuel_rate_lph,
        r.speed_kmh,
        r.load_pct,
        r.digging_pressure_kpa,
        r.pump_drive_temp_c,
        r.oil_tank_temp_c,
    ];
    (
        r.day,
        r.minute,
        r.engine_on,
        channels.iter().map(|c| c.map(f64::to_bits)).collect(),
    )
}

/// Channel values that stress a bit-exact codec: signed zeros,
/// infinities, quiet and signalling NaNs with payloads, and arbitrary
/// bit patterns.
fn channel_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0_f64),
        Just(-0.0_f64),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::NAN),
        any::<u64>()
            .prop_map(|b| f64::from_bits(0x7FF0_0000_0000_0000 | (b & 0x800F_FFFF_FFFF_FFFF) | 1)),
        any::<u64>().prop_map(f64::from_bits),
        -1.0e6_f64..1.0e6,
    ]
}

/// Arbitrary reports: extreme days, every minute up to `u16::MAX`, and
/// each channel absent or present — sometimes all absent or all present.
fn arbitrary_report() -> impl Strategy<Value = (u32, RawReport)> {
    (
        any::<u32>(),
        prop_oneof![Just(i64::MIN), Just(i64::MAX), Just(0_i64), any::<i64>()],
        prop_oneof![Just(u16::MAX), any::<u16>()],
        any::<bool>(),
        proptest::collection::vec(proptest::option::of(channel_value()), 10),
        0_u8..4,
    )
        .prop_map(|(vehicle, day, minute, engine_on, mut c, mode)| {
            match mode {
                0 => c.iter_mut().for_each(|v| *v = None),
                1 => c.iter_mut().for_each(|v| *v = Some(v.unwrap_or(1.5))),
                _ => {}
            }
            let report = RawReport {
                day,
                minute,
                engine_on,
                fuel_level_pct: c[0],
                engine_rpm: c[1],
                oil_pressure_kpa: c[2],
                coolant_temp_c: c[3],
                fuel_rate_lph: c[4],
                speed_kmh: c[5],
                load_pct: c[6],
                digging_pressure_kpa: c[7],
                pump_drive_temp_c: c[8],
                oil_tank_temp_c: c[9],
            };
            (vehicle, report)
        })
}

fn open_clean(dir: &std::path::Path, options: LogOptions) -> (CommitLog, LogRecovery) {
    CommitLog::open(
        Box::new(DiskBackend),
        dir,
        options,
        &Registry::disabled(),
        &Tracer::disabled(),
    )
    .unwrap()
}

/// Asserts the full recovery contract against what was actually
/// appended, and returns the recovered record count.
fn assert_contract(
    dir: &std::path::Path,
    options: &LogOptions,
    written: &[(u32, RawReport)],
) -> u64 {
    let (log, stats) = open_clean(dir, options.clone());
    assert_eq!(
        stats.bytes_seen,
        stats.bytes_recovered + stats.bytes_quarantined,
        "byte accounting must balance: {stats:?}"
    );
    // The recovered log is a prefix of the append sequence, bit for bit.
    let records = log.records().expect("repaired log reads cleanly");
    assert_eq!(records.len() as u64, stats.frames_recovered);
    assert_eq!(stats.next_offset, stats.frames_recovered);
    assert!(records.len() <= written.len());
    for (i, rec) in records.iter().enumerate() {
        assert_eq!(rec.offset, i as u64);
        assert_eq!(rec.vehicle_id, written[i].0, "prefix diverged at {i}");
        assert_eq!(rec.report, written[i].1, "prefix diverged at {i}");
    }
    // Quarantined bytes are really there — nothing was deleted.
    let held: u64 = std::fs::read_dir(dir.join(QUARANTINE_DIR))
        .unwrap()
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum();
    assert!(
        held >= stats.bytes_quarantined,
        "quarantine dir holds {held} bytes, stats claim {}",
        stats.bytes_quarantined
    );
    // Idempotence: the repaired log opens clean.
    let (_, second) = open_clean(dir, options.clone());
    assert_eq!(second.frames_recovered, stats.frames_recovered);
    assert!(
        second.quarantined.is_empty(),
        "second open must be clean: {second:?}"
    );
    stats.frames_recovered
}

/// Its inner backend with the trait's default `append_to`: every append
/// goes through the inner `append` by path, so over a `FaultyBackend`
/// each record takes the per-call fault path and an open + write +
/// close. The reference the held-open handle must match.
struct PerCallAppends(Box<dyn StorageBackend>);

impl StorageBackend for PerCallAppends {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.0.read(path)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.0.write(path, bytes)
    }
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.0.append(path, bytes)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.0.rename(from, to)
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        self.0.remove(path)
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.0.list(dir)
    }
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.0.create_dir_all(dir)
    }
}

/// Every file under `dir`, by path relative to it, with its bytes.
fn dir_bytes(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut files = BTreeMap::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(at) = pending.pop() {
        for entry in std::fs::read_dir(&at).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                pending.push(path);
            } else {
                let bytes = std::fs::read(&path).unwrap();
                files.insert(path.strip_prefix(dir).unwrap().to_path_buf(), bytes);
            }
        }
    }
    files
}

/// What a [`CrashAt`] backend does with one mutating op.
enum Fate {
    Runs,
    Crashes,
    Dead,
}

/// `DiskBackend` killed at mutating op `crash_at` (appends, writes,
/// renames and removes counted together, in issue order): that op lands
/// only its first `keep` bytes (a rename or remove does not happen), and
/// it and every later op fail, as if the process died there.
struct CrashAt {
    crash_at: u64,
    keep: usize,
    ops: AtomicU64,
}

impl CrashAt {
    fn fate(&self) -> Fate {
        match self.ops.fetch_add(1, Ordering::Relaxed).cmp(&self.crash_at) {
            std::cmp::Ordering::Less => Fate::Runs,
            std::cmp::Ordering::Equal => Fate::Crashes,
            std::cmp::Ordering::Greater => Fate::Dead,
        }
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
            Fate::Runs => DiskBackend.write(path, bytes),
            Fate::Crashes => {
                DiskBackend.write(path, &bytes[..self.keep.min(bytes.len())])?;
                Err(killed())
            }
            Fate::Dead => Err(killed()),
        }
    }
    fn append_to(&self, target: &mut AppendTarget, bytes: &[u8]) -> io::Result<()> {
        match self.fate() {
            Fate::Runs => DiskBackend.append_to(target, bytes),
            Fate::Crashes => {
                DiskBackend.append_to(target, &bytes[..self.keep.min(bytes.len())])?;
                Err(killed())
            }
            Fate::Dead => Err(killed()),
        }
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.fate() {
            Fate::Runs => DiskBackend.rename(from, to),
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

/// Crash at every mutating op of an append + roll run, landing
/// none, one, a header's worth or most of a frame's bytes of the op the
/// crash hits: recovery balances every byte and keeps exactly the
/// records whose appends returned `Ok`.
#[test]
fn a_crash_at_every_io_op_recovers_every_acknowledged_record() {
    // About two frames per segment, so ten appends roll often.
    let options = LogOptions {
        max_segment_bytes: 200,
    };
    let appends = 10_u64;
    for keep in [0_usize, 1, 17, 60] {
        let mut crashes = 0;
        for crash_at in 0_u64.. {
            let dir = temp_dir("crash", crash_at << 8 | keep as u64);
            let backend = CrashAt {
                crash_at,
                keep,
                ops: AtomicU64::new(0),
            };
            let (mut log, _) = CommitLog::open(
                Box::new(backend),
                &dir,
                options.clone(),
                &Registry::disabled(),
                &Tracer::disabled(),
            )
            .unwrap();
            let mut written = Vec::new();
            for i in 0..appends {
                let r = report(i);
                if log.append((i % 3) as u32, &r).is_err() {
                    break;
                }
                written.push(((i % 3) as u32, r));
            }
            let rolls = log.segment_count();
            drop(log);
            let recovered = assert_contract(&dir, &options, &written);
            assert_eq!(
                recovered,
                written.len() as u64,
                "crash at op {crash_at} keeping {keep} bytes"
            );
            let _ = std::fs::remove_dir_all(&dir);
            if written.len() as u64 == appends {
                // `crash_at` is past the last op: the run is done.
                assert!(rolls > 3, "the run must roll");
                break;
            }
            crashes += 1;
        }
        // A seal writes nothing, so the appends are the only mutating
        // ops: exactly one crash point each.
        assert_eq!(crashes, appends, "crash points of {appends} appends");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The held-open segment handle changes how bytes reach the disk,
    /// not which: under the same seeded faults (torn appends, transient
    /// errors, a filling disk) and rolls, it leaves the same files, byte
    /// for byte, as appends that open and close the file each time, and
    /// both recover to the same report.
    #[test]
    fn held_open_appends_match_per_call_appends_byte_for_byte(
        seed in 0_u64..1_000,
        n in 1_usize..60,
        torn_rate in prop_oneof![Just(0.0), Just(0.1), Just(0.3)],
        torn_byte in 0_u64..40,
        io_rate in prop_oneof![Just(0.0), Just(0.2)],
        full_disk in prop_oneof![Just(None), (0_u64..6_000).prop_map(Some)],
        segment_bytes in prop_oneof![Just(300_u64), Just(1_000_u64), Just(64 * 1024_u64)],
    ) {
        let case = seed ^ (n as u64) << 10;
        let options = LogOptions { max_segment_bytes: segment_bytes };
        let plan = DiskFaultPlan {
            torn_write_rate: torn_rate,
            torn_write_byte: torn_byte,
            io_error_rate: io_rate,
            io_error_attempts: 2,
            full_disk_after_bytes: full_disk,
            ..DiskFaultPlan::default()
        };
        let faulty = || Box::new(FaultyBackend::new(Box::new(DiskBackend), seed, plan.clone()));
        let run = |tag: &str, backend: Box<dyn StorageBackend>| {
            let dir = temp_dir(tag, case);
            let (mut log, _) = CommitLog::open(
                backend,
                &dir,
                options.clone(),
                &Registry::disabled(),
                &Tracer::disabled(),
            ).unwrap();
            // Keep appending past a failure: later appends must fail or
            // land identically too.
            let acked: Vec<bool> = (0..n as u64)
                .map(|i| log.append((i % 4) as u32, &report(i)).is_ok())
                .collect();
            (dir, acked)
        };
        let (held, held_acked) = run("held", faulty());
        let (per_call, per_call_acked) = run("percall", Box::new(PerCallAppends(faulty())));
        prop_assert_eq!(held_acked, per_call_acked);
        prop_assert_eq!(dir_bytes(&held), dir_bytes(&per_call));

        let (_, held_stats) = open_clean(&held, options.clone());
        let (_, per_call_stats) = open_clean(&per_call, options.clone());
        prop_assert_eq!(
            held_stats.bytes_seen,
            held_stats.bytes_recovered + held_stats.bytes_quarantined
        );
        prop_assert_eq!(held_stats, per_call_stats);
        prop_assert_eq!(dir_bytes(&held), dir_bytes(&per_call));
        let _ = std::fs::remove_dir_all(&held);
        let _ = std::fs::remove_dir_all(&per_call);
    }

    /// Seeded disk chaos during appends: torn appends leave mid-log
    /// damage, transient io errors exercise the retry path. Whatever
    /// lands on disk, recovery yields a clean prefix and balanced
    /// byte accounting.
    #[test]
    fn chaos_appends_recover_to_a_valid_prefix(
        seed in 0_u64..1_000,
        n in 1_usize..80,
        torn_rate in prop_oneof![Just(0.0), Just(0.05), Just(0.25)],
        torn_byte in 0_u64..40,
        io_rate in prop_oneof![Just(0.0), Just(0.1)],
        segment_bytes in prop_oneof![Just(400_u64), Just(2_000_u64), Just(64 * 1024_u64)],
    ) {
        let dir = temp_dir("chaos", seed ^ (n as u64) << 10);
        let options = LogOptions { max_segment_bytes: segment_bytes };
        let plan = DiskFaultPlan {
            torn_write_rate: torn_rate,
            torn_write_byte: torn_byte,
            io_error_rate: io_rate,
            io_error_attempts: 2,
            ..DiskFaultPlan::default()
        };
        let mut written = Vec::new();
        {
            let backend = FaultyBackend::new(Box::new(DiskBackend), seed, plan);
            let (mut log, _) = CommitLog::open(
                Box::new(backend),
                &dir,
                options.clone(),
                &Registry::disabled(),
                &Tracer::disabled(),
            ).unwrap();
            for i in 0..n as u64 {
                let r = report(i);
                // A torn append succeeds from the writer's view; the
                // damage only surfaces at recovery.
                if log.append((i % 4) as u32, &r).is_ok() {
                    written.push(((i % 4) as u32, r));
                } else {
                    break;
                }
            }
        }
        let recovered = assert_contract(&dir, &options, &written);
        // With no faults configured, nothing may be lost.
        if torn_rate == 0.0 {
            prop_assert_eq!(recovered, written.len() as u64);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// kill -9 mid-append, modeled exactly: the tail segment is cut at
    /// an arbitrary byte. Recovery keeps every complete frame and
    /// quarantines the cut remainder.
    #[test]
    fn arbitrary_tail_cut_keeps_every_complete_frame(
        n in 1_usize..40,
        cut_back in 1_u64..200,
        segment_bytes in prop_oneof![Just(500_u64), Just(64 * 1024_u64)],
    ) {
        let dir = temp_dir("cut", (n as u64) << 20 | cut_back);
        let options = LogOptions { max_segment_bytes: segment_bytes };
        let mut written = Vec::new();
        {
            let (mut log, _) = open_clean(&dir, options.clone());
            for i in 0..n as u64 {
                let r = report(i);
                log.append((i % 3) as u32, &r).unwrap();
                written.push(((i % 3) as u32, r));
            }
        }
        // Cut the *last* segment file (highest first-offset) short.
        let mut segs: Vec<PathBuf> = std::fs::read_dir(&dir).unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "vlog"))
            .collect();
        segs.sort();
        let tail_path = segs.last().unwrap();
        let bytes = std::fs::read(tail_path).unwrap();
        let keep = bytes.len().saturating_sub(cut_back as usize);
        std::fs::write(tail_path, &bytes[..keep]).unwrap();

        let _ = keep;
        let recovered = assert_contract(&dir, &options, &written);
        // The file ended exactly at the last frame, so any cut damages
        // at least that frame — but never more than the tail segment.
        prop_assert!(recovered < written.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Garbage appended after valid frames (a crashed writer flushing
    /// junk): every real frame survives, the junk is quarantined as
    /// exactly one tail.
    #[test]
    fn trailing_garbage_is_quarantined_without_losing_frames(
        n in 1_usize..30,
        garbage in proptest::collection::vec(0_u8..=255, 1..64),
    ) {
        let dir = temp_dir("garbage", (n as u64) << 8 | garbage.len() as u64);
        let options = LogOptions::default();
        let mut written = Vec::new();
        {
            let (mut log, _) = open_clean(&dir, options.clone());
            for i in 0..n as u64 {
                let r = report(i);
                log.append(7, &r).unwrap();
                written.push((7u32, r));
            }
        }
        use std::io::Write as _;
        let seg = dir.join(CommitLog::segment_name(0));
        let mut f = std::fs::OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&garbage).unwrap();
        drop(f);

        let recovered = assert_contract(&dir, &options, &written);
        // Garbage can only ever cost the bytes *after* the last valid
        // frame: every appended record must survive...
        prop_assert_eq!(recovered, written.len() as u64);
        // ...and the junk tail is quarantined in one piece.
        let (_, stats) = open_clean(&dir, options.clone());
        prop_assert_eq!(stats.frames_recovered, written.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The binary record round-trips arbitrary reports bit for bit
    /// through append, recovery and read.
    #[test]
    fn binary_records_round_trip_bit_for_bit(
        reports in proptest::collection::vec(arbitrary_report(), 1..24),
        segment_bytes in prop_oneof![Just(200_u64), Just(64 * 1024_u64)],
    ) {
        let case = reports.iter().fold(reports.len() as u64, |h, (v, r)| {
            h.wrapping_mul(31) ^ u64::from(*v) ^ r.day as u64
        });
        let dir = temp_dir("codec", case);
        let options = LogOptions { max_segment_bytes: segment_bytes };
        {
            let (mut log, _) = open_clean(&dir, options.clone());
            for (vehicle, report) in &reports {
                log.append(*vehicle, report).unwrap();
            }
        }
        let (log, stats) = open_clean(&dir, options);
        prop_assert!(stats.quarantined.is_empty(), "clean log quarantined: {:?}", stats);
        let records = log.records().unwrap();
        prop_assert_eq!(records.len(), reports.len());
        for (i, (rec, (vehicle, report))) in records.iter().zip(&reports).enumerate() {
            prop_assert_eq!(rec.offset, i as u64);
            prop_assert_eq!(rec.vehicle_id, *vehicle);
            prop_assert_eq!(report_bits(&rec.report), report_bits(report));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checksum-valid version-2 frame whose record is malformed — a
    /// reserved flag bit set, a length that disagrees with the channel
    /// bits, or an offset that breaks the chain — is quarantined as
    /// `decode`, and every frame before it survives.
    #[test]
    fn malformed_binary_record_is_quarantined_as_decode(
        n in 1_usize..20,
        kind in 0_u8..4,
        amount in 1_usize..40,
        reserved_bit in 11_u32..16,
    ) {
        let dir = temp_dir("malformed", (n as u64) << 16 | u64::from(kind) << 8 | amount as u64);
        let options = LogOptions::default();
        let mut written = Vec::new();
        {
            let (mut log, _) = open_clean(&dir, options.clone());
            for i in 0..n as u64 {
                let r = report(i);
                log.append(5, &r).unwrap();
                written.push((5u32, r));
            }
        }
        // Re-frame the first record's payload as the next offset, then
        // break exactly one layout rule.
        let seg = dir.join(CommitLog::segment_name(0));
        let mut bytes = std::fs::read(&seg).unwrap();
        let (payload, _) = decode_frame_at(SEGMENT_MAGIC, SEGMENT_VERSION, &bytes, 0).unwrap();
        let mut payload = payload.to_vec();
        payload[0..8].copy_from_slice(&(n as u64).to_le_bytes());
        match kind {
            0 => {
                let flags = u16::from_le_bytes([payload[22], payload[23]]) | 1 << reserved_bit;
                payload[22..24].copy_from_slice(&flags.to_le_bytes());
            }
            1 => payload.extend(std::iter::repeat_n(0xA5, amount)),
            2 => payload.truncate(payload.len().saturating_sub(amount)),
            _ => payload[0..8].copy_from_slice(&(n as u64 + amount as u64).to_le_bytes()),
        }
        let bad = encode_frame(SEGMENT_MAGIC, SEGMENT_VERSION, &payload);
        bytes.extend_from_slice(&bad);
        std::fs::write(&seg, &bytes).unwrap();

        let (_, stats) = open_clean(&dir, options.clone());
        prop_assert_eq!(stats.quarantined.len(), 1);
        prop_assert_eq!(stats.quarantined[0].reason.as_str(), "decode");
        prop_assert_eq!(stats.bytes_quarantined, bad.len() as u64);
        let recovered = assert_contract(&dir, &options, &written);
        prop_assert_eq!(recovered, n as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
