//! The durable append-only telemetry commit log.
//!
//! Vehicles append 10-minute CAN reports as CRC-framed, length-prefixed
//! records into segment files (`seg-<first-offset>.vlog`), each frame
//! carrying one [`LogRecord`] under the shared [`vup_serve::frame`]
//! header with the `VUPL` magic. Frames are written at version 2, a
//! fixed little-endian binary record:
//!
//! ```text
//! offset u64 | vehicle_id u32 | day i64 | minute u16 | flags u16 | k × f64 bits
//! ```
//!
//! `flags` bit 0 is `engine_on`, bits 1–10 mark which of
//! [`RawReport`]'s ten channels are present (in field order), bits
//! 11–15 are reserved and must be zero; only the `k` present channels
//! follow, as `f64::to_bits`, so a record is `24 + 8k` bytes. Version-1
//! frames (one JSON [`LogRecord`] each, what earlier builds wrote) still
//! decode, so an old log opens clean and keeps growing in place.
//!
//! A segment is *sealed* once it reaches
//! [`LogOptions::max_segment_bytes`]; sealing only starts the next
//! segment. Reads walk every segment from byte zero
//! ([`CommitLog::records`]), since every consumer replays the whole
//! history. The offset-index files earlier builds wrote beside sealed
//! segments are foreign files to this build: left alone, never read,
//! counted or quarantined.
//!
//! All I/O goes through the [`StorageBackend`] seam from `vup-serve`,
//! so the seeded [`vup_serve::FaultyBackend`] disk chaos (torn appends,
//! bit flips, transient errors, a filling disk) applies to the log
//! unchanged.
//!
//! Appends go through [`StorageBackend::append_to`] on one
//! [`AppendTarget`] for the active segment, so the real filesystem opens
//! a segment once and then spends one `write` per record; the handle
//! closes when the segment rolls or the log is dropped. That makes the
//! log **single-writer**: a second live `CommitLog` on the same
//! directory is unsupported, because its recovery truncates a damaged
//! segment by writing a copy and renaming it over the name, which would
//! leave the first log's handle appending to the old, unlinked inode.
//!
//! Opening a log runs recovery ([`CommitLog::open`]): segments are
//! walked frame by frame in name order, record offsets are checked to
//! chain contiguously, and the first damaged byte ends the valid
//! prefix — the damaged tail is copied into `quarantine/` (never
//! deleted), the segment is truncated back to its last valid frame,
//! and any later segment is quarantined wholesale as orphaned. The
//! resulting [`LogRecovery`] accounts for every byte:
//! `bytes_seen == bytes_recovered + bytes_quarantined`.
//!
//! Whole-file writes use the snapshot store's crash-safe file protocol
//! from [`vup_serve::frame`], not a copy of it: the truncate-on-recovery
//! goes through [`atomic_replace`] (`<name>.tmp`, then a rename over the
//! name), and damaged or orphaned files through
//! [`quarantine_move`]. Only appends bypass it — a torn append is what
//! recovery's truncation repairs.

use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};
use vup_fleetsim::canbus::RawReport;
use vup_obs::{Counter, Registry, Tracer};
use vup_serve::frame::{
    atomic_replace, decode_versioned_frame_at, encode_frame_into, file_name, quarantine_move,
    quarantine_path, retry_io, FrameDefect, HEADER_LEN, TMP_SUFFIX,
};
use vup_serve::{AppendTarget, StorageBackend};

/// First four bytes of every log-segment frame.
pub const SEGMENT_MAGIC: [u8; 4] = *b"VUPL";
/// Segment-frame version this build writes: the binary record.
pub const SEGMENT_VERSION: u16 = 2;
/// Segment-frame version of the JSON record earlier builds wrote;
/// still read, never written.
pub const SEGMENT_VERSION_JSON: u16 = 1;
/// Extension of segment files.
pub const SEGMENT_EXT: &str = "vlog";
pub use vup_serve::frame::QUARANTINE_DIR;

/// One telemetry record as it sits in the log: a monotone offset, the
/// reporting vehicle, and the raw 10-minute CAN report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogRecord {
    /// Position in the log (0-based, contiguous across segments).
    pub offset: u64,
    /// The vehicle that reported.
    pub vehicle_id: u32,
    /// The raw report, exactly as the vehicle sent it.
    pub report: RawReport,
}

/// Bytes of a binary record before its channel values: offset (8),
/// vehicle id (4), day (8), minute (2) and flags (2).
const RECORD_HEAD_LEN: usize = 24;
/// Optional channels of a [`RawReport`], each one presence bit.
const CHANNELS: usize = 10;
/// `flags` bit set when the engine was on.
const FLAG_ENGINE_ON: u16 = 1;
/// `flags` bits 1–10: channel `i` present sets bit `i + 1`.
const FLAG_CHANNELS: u16 = ((1 << CHANNELS) - 1) << 1;
/// `flags` bits 11–15, which must be zero.
const FLAG_RESERVED: u16 = !(FLAG_ENGINE_ON | FLAG_CHANNELS);

/// A report's optional channels, in field order.
fn channels(report: &RawReport) -> [Option<f64>; CHANNELS] {
    [
        report.fuel_level_pct,
        report.engine_rpm,
        report.oil_pressure_kpa,
        report.coolant_temp_c,
        report.fuel_rate_lph,
        report.speed_kmh,
        report.load_pct,
        report.digging_pressure_kpa,
        report.pump_drive_temp_c,
        report.oil_tank_temp_c,
    ]
}

/// Appends the binary (version-2) record of one report to `out`.
fn encode_record(out: &mut Vec<u8>, offset: u64, vehicle_id: u32, report: &RawReport) {
    let channels = channels(report);
    let mut flags = if report.engine_on { FLAG_ENGINE_ON } else { 0 };
    for (i, channel) in channels.iter().enumerate() {
        if channel.is_some() {
            flags |= 1 << (i + 1);
        }
    }
    out.extend_from_slice(&offset.to_le_bytes());
    out.extend_from_slice(&vehicle_id.to_le_bytes());
    out.extend_from_slice(&report.day.to_le_bytes());
    out.extend_from_slice(&report.minute.to_le_bytes());
    out.extend_from_slice(&flags.to_le_bytes());
    for value in channels.into_iter().flatten() {
        out.extend_from_slice(&value.to_bits().to_le_bytes());
    }
}

/// Takes the next `N` bytes off the front of `bytes`.
fn take<const N: usize>(bytes: &mut &[u8]) -> Option<[u8; N]> {
    let (head, rest) = bytes.split_first_chunk::<N>()?;
    *bytes = rest;
    Some(*head)
}

/// Decodes a binary (version-2) record. `None` when a reserved flag
/// bit is set or the length is not `24 + 8 ×` the channels flagged
/// present.
fn decode_record(mut payload: &[u8]) -> Option<LogRecord> {
    let offset = u64::from_le_bytes(take(&mut payload)?);
    let vehicle_id = u32::from_le_bytes(take(&mut payload)?);
    let day = i64::from_le_bytes(take(&mut payload)?);
    let minute = u16::from_le_bytes(take(&mut payload)?);
    let flags = u16::from_le_bytes(take(&mut payload)?);
    let present = (flags & FLAG_CHANNELS).count_ones() as usize;
    if flags & FLAG_RESERVED != 0 || payload.len() != 8 * present {
        return None;
    }
    let mut values = [None; CHANNELS];
    for (i, value) in values.iter_mut().enumerate() {
        if flags & (1 << (i + 1)) != 0 {
            *value = Some(f64::from_bits(u64::from_le_bytes(take(&mut payload)?)));
        }
    }
    // `values` is in `channels` order.
    Some(LogRecord {
        offset,
        vehicle_id,
        report: RawReport {
            day,
            minute,
            engine_on: flags & FLAG_ENGINE_ON != 0,
            fuel_level_pct: values[0],
            engine_rpm: values[1],
            oil_pressure_kpa: values[2],
            coolant_temp_c: values[3],
            fuel_rate_lph: values[4],
            speed_kmh: values[5],
            load_pct: values[6],
            digging_pressure_kpa: values[7],
            pump_drive_temp_c: values[8],
            oil_tank_temp_c: values[9],
        },
    })
}

/// Decodes a segment frame's payload by its frame version: the binary
/// record, or the JSON record of version-1 logs.
fn decode_payload(version: u16, payload: &[u8]) -> Option<LogRecord> {
    if version == SEGMENT_VERSION {
        decode_record(payload)
    } else {
        serde_json::from_str(std::str::from_utf8(payload).ok()?).ok()
    }
}

/// Segment-frame versions this build reads.
const SEGMENT_VERSIONS: [u16; 2] = [SEGMENT_VERSION_JSON, SEGMENT_VERSION];

/// Largest possible segment frame: every channel present. The append
/// buffer is this big from the start, so it never grows.
const MAX_FRAME_LEN: usize = HEADER_LEN + RECORD_HEAD_LEN + 8 * CHANNELS;

/// Commit-log tunables.
#[derive(Debug, Clone)]
pub struct LogOptions {
    /// A segment at or past this size is sealed and a new one started.
    pub max_segment_bytes: u64,
}

impl Default for LogOptions {
    fn default() -> LogOptions {
        LogOptions {
            max_segment_bytes: 64 * 1024,
        }
    }
}

/// Why a log file (or its tail) was quarantined. Doubles as the
/// quarantine suffix and the `reason` label in [`LogRecovery`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogDefect {
    /// A frame cut short (torn append, kill -9 mid-write).
    Truncated,
    /// Frame bytes do not match their CRC32 (bit rot).
    Checksum,
    /// Wrong magic or a format version this build does not know.
    Version,
    /// Framing intact but the payload does not decode to a record, or
    /// the record's offset breaks the chain.
    Decode,
    /// The file could not be read at all, even after retries.
    Io,
    /// A leftover `.tmp` file from an interrupted write.
    Tmp,
    /// A segment stranded behind damage earlier in the log: its
    /// offsets no longer chain onto the recovered prefix.
    Orphaned,
}

impl LogDefect {
    /// Stable lowercase label.
    pub fn as_str(self) -> &'static str {
        match self {
            LogDefect::Truncated => "truncated",
            LogDefect::Checksum => "checksum",
            LogDefect::Version => "version",
            LogDefect::Decode => "decode",
            LogDefect::Io => "io",
            LogDefect::Tmp => "tmp",
            LogDefect::Orphaned => "orphaned",
        }
    }

    fn from_frame(defect: FrameDefect) -> LogDefect {
        match defect {
            FrameDefect::Truncated => LogDefect::Truncated,
            FrameDefect::Magic | FrameDefect::Version => LogDefect::Version,
            FrameDefect::Checksum => LogDefect::Checksum,
            FrameDefect::TrailingGarbage => LogDefect::Decode,
        }
    }
}

/// One quarantined file (or file tail) in a [`LogRecovery`] report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuarantinedLogFile {
    /// Name the quarantined bytes were written under (inside
    /// `quarantine/`): `<original-name>.<defect>`, with a `.N` suffix
    /// when an earlier defect already holds that name.
    pub file: String,
    /// The [`LogDefect`] label.
    pub reason: String,
    /// How many bytes were quarantined.
    pub bytes: u64,
}

/// The file name a quarantine landed under, or the unsuffixed name it
/// was meant for when no destination was found.
fn quarantined_name(name: &str, defect: LogDefect, dest: io::Result<PathBuf>) -> String {
    dest.map_or_else(|_| format!("{name}.{}", defect.as_str()), |p| file_name(&p))
}

/// What one [`CommitLog::open`] recovery pass found.
///
/// Byte accounting invariant (pinned by property tests):
/// `bytes_seen == bytes_recovered + bytes_quarantined`, where *seen*
/// counts every readable log byte on disk before the open (segments and
/// temp files), *recovered* counts the bytes of those files
/// still live afterwards, and *quarantined* counts the bytes moved
/// into `quarantine/`. Nothing is ever deleted.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct LogRecovery {
    /// Segment files considered.
    pub segments_seen: usize,
    /// Frames that decoded cleanly and chain contiguously.
    pub frames_recovered: u64,
    /// Readable log bytes on disk before the open.
    pub bytes_seen: u64,
    /// Bytes of pre-existing files still live after the open.
    pub bytes_recovered: u64,
    /// Bytes moved into `quarantine/`.
    pub bytes_quarantined: u64,
    /// Every quarantined file/tail, in processing order.
    pub quarantined: Vec<QuarantinedLogFile>,
    /// Transient-io retries spent during recovery.
    pub io_retries: u64,
    /// The offset the next append will receive.
    pub next_offset: u64,
}

impl LogRecovery {
    /// Convenience: how many files (or tails) were quarantined.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined.len()
    }
}

/// Registry handles for the ingest metrics. No-ops by default.
struct IngestMetrics {
    /// `vup_ingest_appends_total` — records appended.
    appends: Counter,
    /// `vup_ingest_appended_bytes_total` — framed bytes appended.
    appended_bytes: Counter,
    /// `vup_ingest_segments_sealed_total` — segments sealed.
    segments_sealed: Counter,
    /// `vup_ingest_frames_recovered_total` — frames recovered at open.
    frames_recovered: Counter,
    /// `vup_ingest_bytes_quarantined_total` — bytes quarantined at open.
    bytes_quarantined: Counter,
    /// `vup_ingest_io_retries_total` — transient-io retries spent.
    io_retries: Counter,
}

impl IngestMetrics {
    fn register(registry: &Registry) -> IngestMetrics {
        registry.describe("vup_ingest_appends_total", "Telemetry records appended.");
        registry.describe(
            "vup_ingest_appended_bytes_total",
            "Framed bytes appended to the commit log.",
        );
        registry.describe(
            "vup_ingest_segments_sealed_total",
            "Commit-log segments sealed (next segment started).",
        );
        registry.describe(
            "vup_ingest_frames_recovered_total",
            "Log frames recovered at open.",
        );
        registry.describe(
            "vup_ingest_bytes_quarantined_total",
            "Log bytes quarantined at open.",
        );
        registry.describe(
            "vup_ingest_io_retries_total",
            "Transient storage-io retries spent by the commit log.",
        );
        IngestMetrics {
            appends: registry.counter("vup_ingest_appends_total"),
            appended_bytes: registry.counter("vup_ingest_appended_bytes_total"),
            segments_sealed: registry.counter("vup_ingest_segments_sealed_total"),
            frames_recovered: registry.counter("vup_ingest_frames_recovered_total"),
            bytes_quarantined: registry.counter("vup_ingest_bytes_quarantined_total"),
            io_retries: registry.counter("vup_ingest_io_retries_total"),
        }
    }
}

/// One live segment: where it starts and how many bytes it holds.
struct SegmentState {
    first_offset: u64,
    bytes: u64,
}

/// The durable append-only telemetry commit log.
pub struct CommitLog {
    backend: Box<dyn StorageBackend>,
    dir: PathBuf,
    options: LogOptions,
    metrics: IngestMetrics,
    /// Surviving segments in offset order; the last one is active.
    segments: Vec<SegmentState>,
    /// The active (last) segment's append target: its path, and its
    /// file handle once the first append opened it.
    active: AppendTarget,
    /// Scratch buffer each append frames its record into.
    frame: Vec<u8>,
    /// Offset the next append receives.
    next_offset: u64,
}

impl CommitLog {
    /// Canonical segment file name for a first offset.
    pub fn segment_name(first_offset: u64) -> String {
        format!("seg-{first_offset:012}.{SEGMENT_EXT}")
    }

    /// Parses a segment file name back to its first offset.
    fn parse_name(name: &str) -> Option<u64> {
        let rest = name.strip_prefix("seg-")?;
        let digits = rest.strip_suffix(&format!(".{SEGMENT_EXT}"))?;
        if digits.len() != 12 || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        digits.parse().ok()
    }

    /// Opens (or creates) the log in `dir`, running crash recovery:
    /// quarantines temp files and damaged tails, truncates the tail
    /// segment back to its last valid frame, and orphans anything
    /// behind the damage.
    ///
    /// Only a failure to create or list the directory is fatal; any
    /// per-file damage is quarantined and the log opens on the longest
    /// valid prefix.
    pub fn open(
        backend: Box<dyn StorageBackend>,
        dir: &Path,
        options: LogOptions,
        registry: &Registry,
        tracer: &Tracer,
    ) -> io::Result<(CommitLog, LogRecovery)> {
        let mut span = tracer.root("log_recover");
        let mut log = CommitLog {
            backend,
            dir: dir.to_path_buf(),
            options,
            metrics: IngestMetrics::register(registry),
            segments: Vec::new(),
            active: AppendTarget::new(PathBuf::new()),
            frame: Vec::with_capacity(MAX_FRAME_LEN),
            next_offset: 0,
        };
        let mut stats = LogRecovery::default();
        log.backend.create_dir_all(&log.dir)?;
        log.backend.create_dir_all(&log.dir.join(QUARANTINE_DIR))?;

        let (listed, r) = retry_io(|| log.backend.list(&log.dir));
        stats.io_retries += r;
        let mut segment_files: Vec<(u64, String)> = Vec::new();
        for path in listed? {
            let name = file_name(&path);
            if name.ends_with(TMP_SUFFIX) {
                log.quarantine_file(&path, &name, LogDefect::Tmp, &mut stats);
                continue;
            }
            if let Some(first) = Self::parse_name(&name) {
                segment_files.push((first, name));
            }
            // Foreign files, the offset indexes of earlier builds among
            // them, are left alone.
        }
        segment_files.sort_unstable();
        stats.segments_seen = segment_files.len();

        // Walk the segments in offset order, frame by frame. The first
        // damaged byte ends the valid prefix: the tail of that segment
        // is quarantined, the segment truncated, and every later
        // segment orphaned.
        let mut chain_broken = false;
        for (named_first, name) in segment_files {
            let path = log.dir.join(&name);
            if chain_broken || named_first != log.next_offset {
                log.quarantine_file(&path, &name, LogDefect::Orphaned, &mut stats);
                chain_broken = true;
                continue;
            }
            let (read, r) = retry_io(|| log.backend.read(&path));
            stats.io_retries += r;
            let bytes = match read {
                Ok(bytes) => bytes,
                Err(_) => {
                    log.quarantine_file(&path, &name, LogDefect::Io, &mut stats);
                    chain_broken = true;
                    continue;
                }
            };
            stats.bytes_seen += bytes.len() as u64;
            span.add_bytes(bytes.len() as u64);
            let (frames, valid_bytes, defect) = Self::scan_segment(&bytes, named_first);
            stats.frames_recovered += frames;
            log.next_offset = named_first + frames;
            let state = SegmentState {
                first_offset: named_first,
                bytes: valid_bytes,
            };
            match defect {
                None => {
                    stats.bytes_recovered += valid_bytes;
                    log.segments.push(state);
                }
                Some(defect) => {
                    chain_broken = true;
                    log.quarantine_tail(&name, &bytes, valid_bytes as usize, defect, &mut stats);
                    if valid_bytes > 0 {
                        stats.bytes_recovered += valid_bytes;
                        log.segments.push(state);
                    }
                }
            }
        }

        if !log.segments.is_empty() {
            log.activate_last();
        }
        stats.next_offset = log.next_offset;
        log.metrics.frames_recovered.add(stats.frames_recovered);
        log.metrics.io_retries.add(stats.io_retries);
        span.arg("segments_seen", stats.segments_seen);
        span.arg("frames_recovered", stats.frames_recovered);
        span.arg("quarantined", stats.quarantined.len());
        span.arg("next_offset", stats.next_offset);
        Ok((log, stats))
    }

    /// Walks one segment's frames, returning how many frames form its
    /// valid prefix, the length of that prefix in bytes, and the defect
    /// that ended the walk (`None` when every byte decoded).
    fn scan_segment(bytes: &[u8], first_offset: u64) -> (u64, u64, Option<LogDefect>) {
        let mut at = 0usize;
        let mut next = first_offset;
        let defect = loop {
            if at == bytes.len() {
                break None;
            }
            match decode_versioned_frame_at(SEGMENT_MAGIC, &SEGMENT_VERSIONS, bytes, at) {
                Err(defect) => break Some(LogDefect::from_frame(defect)),
                Ok((version, payload, frame_len)) => match decode_payload(version, payload) {
                    Some(record) if record.offset == next => {
                        next += 1;
                        at += frame_len;
                    }
                    _ => break Some(LogDefect::Decode),
                },
            }
        };
        (next - first_offset, at as u64, defect)
    }

    /// Moves a whole file into `quarantine/<name>.<defect>` with
    /// [`quarantine_move`] and records it.
    fn quarantine_file(&self, path: &Path, name: &str, defect: LogDefect, stats: &mut LogRecovery) {
        let (read, r) = retry_io(|| self.backend.read(path));
        stats.io_retries += r;
        let len = read.map_or(0, |b| b.len() as u64);
        stats.bytes_seen += len;
        let (moved, r) = quarantine_move(self.backend.as_ref(), path, defect.as_str());
        stats.io_retries += r;
        stats.bytes_quarantined += len;
        self.metrics.bytes_quarantined.add(len);
        stats.quarantined.push(QuarantinedLogFile {
            file: quarantined_name(name, defect, moved),
            reason: defect.as_str().to_string(),
            bytes: len,
        });
    }

    /// Quarantines the damaged tail of a segment (bytes from
    /// `valid_len` on) and truncates the file back to its valid
    /// prefix. A segment with no valid frame is moved wholesale.
    fn quarantine_tail(
        &self,
        name: &str,
        bytes: &[u8],
        valid_len: usize,
        defect: LogDefect,
        stats: &mut LogRecovery,
    ) {
        let tail = &bytes[valid_len..];
        let backend = self.backend.as_ref();
        let dest = if valid_len == 0 {
            // No valid frame: the whole file is the damaged tail.
            let (moved, r) = quarantine_move(backend, &self.dir.join(name), defect.as_str());
            stats.io_retries += r;
            moved
        } else {
            let (dest, r) = retry_io(|| quarantine_path(backend, &self.dir, name, defect.as_str()));
            stats.io_retries += r;
            if let Ok(dest) = &dest {
                let (_, r) = retry_io(|| backend.write(dest, tail));
                stats.io_retries += r;
            }
            // A failed truncation is tolerated: the next open
            // re-truncates the same prefix.
            let (_, r) = atomic_replace(backend, &self.dir, name, &bytes[..valid_len]);
            stats.io_retries += r;
            dest
        };
        stats.bytes_quarantined += tail.len() as u64;
        self.metrics.bytes_quarantined.add(tail.len() as u64);
        stats.quarantined.push(QuarantinedLogFile {
            file: quarantined_name(name, defect, dest),
            reason: defect.as_str().to_string(),
            bytes: tail.len() as u64,
        });
    }

    /// Appends one report, returning the offset it was assigned.
    ///
    /// O(1) in log size: one framed append to the active segment —
    /// through the segment's held-open handle on the real filesystem —
    /// plus a roll to a new segment when the active one is full. A torn
    /// append (injected or a real crash) leaves a damaged tail that
    /// the next [`CommitLog::open`] truncates away. The record is
    /// framed into a buffer the log keeps, so an append that does not
    /// roll allocates nothing once the log is warm.
    pub fn append(&mut self, vehicle_id: u32, report: &RawReport) -> io::Result<u64> {
        let offset = self.next_offset;
        encode_frame_into(&mut self.frame, SEGMENT_MAGIC, SEGMENT_VERSION, |out| {
            encode_record(out, offset, vehicle_id, report)
        });

        let roll = match self.segments.last() {
            None => true,
            Some(active) => active.bytes >= self.options.max_segment_bytes,
        };
        if roll {
            self.seal_active(offset);
        }
        let (res, retries) = retry_io(|| self.backend.append_to(&mut self.active, &self.frame));
        self.metrics.io_retries.add(retries);
        res?;
        let frame_len = self.frame.len() as u64;
        let active = self.segments.last_mut().expect("active segment exists");
        active.bytes += frame_len;
        self.next_offset = offset + 1;
        self.metrics.appends.inc();
        self.metrics.appended_bytes.add(frame_len);
        Ok(offset)
    }

    /// Seals the active segment, if any, and starts a new one at
    /// `first_offset`. Sealing writes nothing: the full segment simply
    /// stops taking appends.
    fn seal_active(&mut self, first_offset: u64) {
        if !self.segments.is_empty() {
            self.metrics.segments_sealed.inc();
        }
        self.segments.push(SegmentState {
            first_offset,
            bytes: 0,
        });
        self.activate_last();
    }

    /// Makes the last segment the append target; replacing the old
    /// target closes the previous segment's handle.
    fn activate_last(&mut self) {
        let active = self.segments.last().expect("a segment to activate");
        self.active = AppendTarget::new(self.dir.join(Self::segment_name(active.first_offset)));
    }

    /// Every record in the log, in offset order: each segment read and
    /// decoded from byte zero, into a vector sized for the whole log up
    /// front.
    pub fn records(&self) -> io::Result<Vec<LogRecord>> {
        let first = self
            .segments
            .first()
            .map_or(self.next_offset, |s| s.first_offset);
        let mut records = Vec::with_capacity((self.next_offset - first) as usize);
        for segment in &self.segments {
            let path = self.dir.join(Self::segment_name(segment.first_offset));
            let (read, r) = retry_io(|| self.backend.read(&path));
            self.metrics.io_retries.add(r);
            let bytes = read?;
            let mut at = 0;
            while at < bytes.len() {
                let (version, payload, frame_len) =
                    decode_versioned_frame_at(SEGMENT_MAGIC, &SEGMENT_VERSIONS, &bytes, at)
                        .map_err(|defect| {
                            io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!(
                                    "damaged frame in {} at byte {at}: {}",
                                    Self::segment_name(segment.first_offset),
                                    LogDefect::from_frame(defect).as_str()
                                ),
                            )
                        })?;
                let record = decode_payload(version, payload).ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "undecodable log record")
                })?;
                records.push(record);
                at += frame_len;
            }
        }
        Ok(records)
    }

    /// The offset the next append will receive (== records written).
    pub fn next_offset(&self) -> u64 {
        self.next_offset
    }

    /// Number of live segments (sealed + active).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};
    use vup_obs::{Registry, Tracer};
    use vup_serve::frame::encode_frame;
    use vup_serve::DiskBackend;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vup-ingest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn report(day: i64, minute: u16) -> RawReport {
        RawReport {
            day,
            minute,
            engine_on: true,
            fuel_level_pct: Some(55.0),
            engine_rpm: Some(1400.0),
            oil_pressure_kpa: Some(320.0),
            coolant_temp_c: Some(84.0),
            fuel_rate_lph: Some(9.5),
            speed_kmh: Some(12.0),
            load_pct: Some(48.0),
            digging_pressure_kpa: None,
            pump_drive_temp_c: Some(61.0),
            oil_tank_temp_c: Some(52.0),
        }
    }

    fn open(dir: &Path, options: LogOptions) -> (CommitLog, LogRecovery) {
        CommitLog::open(
            Box::new(DiskBackend),
            dir,
            options,
            &Registry::disabled(),
            &Tracer::disabled(),
        )
        .unwrap()
    }

    /// File names a [`Recording`] backend saw.
    #[derive(Default)]
    struct Seen {
        /// Every file read, in order.
        reads: Vec<String>,
        /// Every append that found its target closed, so opened the file.
        opens: Vec<String>,
    }

    /// `DiskBackend`, noting what it reads and opens for appending.
    struct Recording(Arc<Mutex<Seen>>);

    fn file_name(path: &Path) -> String {
        path.file_name().unwrap().to_string_lossy().into_owned()
    }

    impl StorageBackend for Recording {
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            self.0.lock().unwrap().reads.push(file_name(path));
            DiskBackend.read(path)
        }
        fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            DiskBackend.write(path, bytes)
        }
        fn append_to(&self, target: &mut AppendTarget, bytes: &[u8]) -> io::Result<()> {
            if !target.is_open() {
                self.0.lock().unwrap().opens.push(file_name(target.path()));
            }
            DiskBackend.append_to(target, bytes)
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            DiskBackend.rename(from, to)
        }
        fn remove(&self, path: &Path) -> io::Result<()> {
            DiskBackend.remove(path)
        }
        fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
            DiskBackend.list(dir)
        }
        fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
            DiskBackend.create_dir_all(dir)
        }
    }

    fn open_recording(dir: &Path, options: LogOptions) -> (CommitLog, Arc<Mutex<Seen>>) {
        open_recording_in(dir, options, |recording| Box::new(recording))
    }

    /// Opens a log on a [`Recording`] backend that `wrap` may decorate.
    fn open_recording_in(
        dir: &Path,
        options: LogOptions,
        wrap: impl Fn(Recording) -> Box<dyn StorageBackend>,
    ) -> (CommitLog, Arc<Mutex<Seen>>) {
        let seen = Arc::new(Mutex::new(Seen::default()));
        let (log, _) = CommitLog::open(
            wrap(Recording(Arc::clone(&seen))),
            dir,
            options,
            &Registry::disabled(),
            &Tracer::disabled(),
        )
        .unwrap();
        (log, seen)
    }

    fn segment_names(log: &CommitLog) -> Vec<String> {
        log.segments
            .iter()
            .map(|s| CommitLog::segment_name(s.first_offset))
            .collect()
    }

    #[test]
    fn appends_open_each_segment_once_and_keep_it_open_until_the_roll() {
        let dir = temp_dir("handle");
        let options = LogOptions {
            max_segment_bytes: 600,
        };
        // The fault injector passes the held handle through as well.
        let faulty = temp_dir("handle-faulty");
        let (mut log, seen) = open_recording_in(&faulty, options.clone(), |recording| {
            Box::new(vup_serve::FaultyBackend::new(
                Box::new(recording),
                7,
                vup_serve::DiskFaultPlan::default(),
            ))
        });
        for i in 0..40u64 {
            log.append(0, &report(17000, i as u16)).unwrap();
        }
        assert_eq!(seen.lock().unwrap().opens, segment_names(&log));

        let (mut log, seen) = open_recording(&dir, options.clone());
        for i in 0..40u64 {
            log.append(0, &report(17000, i as u16)).unwrap();
        }
        assert!(log.segment_count() > 2, "expected several rolls");
        assert_eq!(seen.lock().unwrap().opens, segment_names(&log));
        drop(log);

        // After a reopen, appends resume in the recovered active segment
        // and open it once more, then each segment they roll into once.
        let (mut log, seen) = open_recording(&dir, options);
        let active = log.segment_count() - 1;
        for i in 40..60u64 {
            log.append(0, &report(17001, i as u16)).unwrap();
        }
        assert!(log.segment_count() > active + 2);
        assert_eq!(seen.lock().unwrap().opens, segment_names(&log)[active..]);
    }

    #[test]
    fn segments_roll_and_a_seal_writes_nothing_beside_them() {
        let dir = temp_dir("roll");
        let options = LogOptions {
            max_segment_bytes: 600,
        };
        {
            let (mut log, _) = open(&dir, options.clone());
            for i in 0..12u64 {
                log.append(0, &report(17000, i as u16)).unwrap();
            }
            assert!(log.segment_count() > 1, "expected a roll");
        }
        let (log, seen) = open_recording(&dir, options);
        assert!(log.segment_count() > 1);
        // The directory holds the segments and the quarantine directory,
        // nothing else: sealing only started the next segment.
        let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| file_name(&e.unwrap().path()))
            .collect();
        on_disk.sort();
        let mut expected = segment_names(&log);
        expected.insert(0, QUARANTINE_DIR.to_string());
        assert_eq!(on_disk, expected);
        seen.lock().unwrap().reads.clear();

        // Records chain across the rolls, and reading them reads each
        // segment once and no other file.
        let records = log.records().unwrap();
        assert_eq!(
            records.iter().map(|r| r.offset).collect::<Vec<_>>(),
            (0..12).collect::<Vec<_>>()
        );
        let reads = std::mem::take(&mut seen.lock().unwrap().reads);
        assert_eq!(reads, segment_names(&log));
    }

    fn invariant(stats: &LogRecovery) {
        assert_eq!(
            stats.bytes_seen,
            stats.bytes_recovered + stats.bytes_quarantined,
            "byte accounting must balance: {stats:?}"
        );
    }

    #[test]
    fn append_read_round_trip_survives_reopen() {
        let dir = temp_dir("roundtrip");
        let mut written = Vec::new();
        {
            let (mut log, stats) = open(&dir, LogOptions::default());
            assert_eq!(stats.next_offset, 0);
            for i in 0..25u64 {
                let r = report(17000 + i as i64 / 5, (i % 5) as u16 * 10);
                let offset = log.append((i % 3) as u32, &r).unwrap();
                assert_eq!(offset, i);
                written.push(r);
            }
        }
        let (log, stats) = open(&dir, LogOptions::default());
        invariant(&stats);
        assert_eq!(stats.next_offset, 25);
        assert_eq!(stats.frames_recovered, 25);
        assert!(stats.quarantined.is_empty());
        let records = log.records().unwrap();
        assert_eq!(records.len(), 25);
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(rec.offset, i as u64);
            assert_eq!(rec.vehicle_id, (i % 3) as u32);
            assert_eq!(rec.report, written[i]);
        }
    }

    #[test]
    fn every_crc32_path_agrees_on_a_segment_of_real_frames() {
        use vup_fleetsim::dropout::DropoutConfig;
        use vup_fleetsim::fleet::{Fleet, FleetConfig};
        use vup_fleetsim::generator::generate_day_raw_reports;
        use vup_serve::frame::{crc32, crc32_sliced};

        // Append simulated telemetry, dropouts and glitches included,
        // until the first segment seals full.
        let dir = temp_dir("crc-paths");
        let fleet = Fleet::generate(FleetConfig::small(4, 7));
        let (mut log, _) = open(&dir, LogOptions::default());
        'fill: for day in 0.. {
            let date = fleet.config().start.plus_days(day);
            for vehicle in fleet.vehicles() {
                let dropout = DropoutConfig::default();
                for report in generate_day_raw_reports(&fleet, vehicle.id, date, &dropout) {
                    log.append(vehicle.id.0, &report).unwrap();
                    if log.segment_count() > 1 {
                        break 'fill;
                    }
                }
            }
        }
        let bytes = std::fs::read(dir.join(CommitLog::segment_name(0))).unwrap();
        #[cfg(target_arch = "x86_64")]
        let clmul = is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1");
        #[cfg(not(target_arch = "x86_64"))]
        let clmul = false;
        let (mut at, mut frame) = (0, 0);
        while at < bytes.len() {
            let word = |i: usize| u32::from_le_bytes(bytes[at + i..at + i + 4].try_into().unwrap());
            let (len, stored) = (word(8) as usize, word(12));
            let body = &bytes[at + HEADER_LEN..at + HEADER_LEN + len];
            let (dispatched, sliced) = (crc32(body), crc32_sliced(body));
            assert_eq!(
                dispatched, sliced,
                "frame {frame}: crc32 (CLMUL kernel in use: {clmul}) gave {dispatched:#010x}, \
                 crc32_sliced gave {sliced:#010x}"
            );
            assert_eq!(
                stored, sliced,
                "frame {frame}: the CRC written at append differs from crc32_sliced"
            );
            at += HEADER_LEN + len;
            frame += 1;
        }
        assert!(frame > 500, "only {frame} frames in a full segment");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_quarantined_never_deleted() {
        let dir = temp_dir("torn");
        {
            let (mut log, _) = open(&dir, LogOptions::default());
            for i in 0..10u64 {
                log.append(1, &report(17000, i as u16)).unwrap();
            }
        }
        // Tear the last frame: chop 7 bytes off the single segment.
        let seg = dir.join(CommitLog::segment_name(0));
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 7]).unwrap();

        let (log, stats) = open(&dir, LogOptions::default());
        invariant(&stats);
        assert_eq!(stats.frames_recovered, 9);
        assert_eq!(stats.next_offset, 9);
        assert_eq!(stats.quarantined.len(), 1);
        assert_eq!(stats.quarantined[0].reason, "truncated");
        // The damaged tail bytes are preserved in quarantine.
        let q = dir
            .join(QUARANTINE_DIR)
            .join(format!("{}.truncated", CommitLog::segment_name(0)));
        let tail = std::fs::read(&q).unwrap();
        assert_eq!(tail.len() as u64, stats.bytes_quarantined);
        assert_eq!(log.records().unwrap().len(), 9);
        drop(log);

        // A second torn tail of the same segment lands under the next
        // free name and leaves the first one's bytes alone.
        {
            let (mut log, _) = open(&dir, LogOptions::default());
            log.append(1, &report(17000, 10)).unwrap();
        }
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 7]).unwrap();
        let (_, stats) = open(&dir, LogOptions::default());
        invariant(&stats);
        let again = format!("{}.truncated.1", CommitLog::segment_name(0));
        assert_eq!(stats.quarantined[0].file, again);
        let second = std::fs::read(dir.join(QUARANTINE_DIR).join(&again)).unwrap();
        assert_eq!(second.len() as u64, stats.bytes_quarantined);
        assert_eq!(std::fs::read(&q).unwrap(), tail);
    }

    #[test]
    fn bit_flip_mid_segment_cuts_to_longest_valid_prefix_and_orphans_later_segments() {
        let dir = temp_dir("flip");
        // Two ~112-byte frames per segment, so 12 appends span 6.
        let options = LogOptions {
            max_segment_bytes: 150,
        };
        {
            let (mut log, _) = open(&dir, options.clone());
            for i in 0..12u64 {
                log.append(2, &report(17000, i as u16)).unwrap();
            }
            assert!(log.segment_count() >= 3);
        }
        // Flip one payload bit in the middle of the FIRST segment.
        let seg = dir.join(CommitLog::segment_name(0));
        let mut bytes = std::fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&seg, &bytes).unwrap();

        let (log, stats) = open(&dir, options);
        invariant(&stats);
        // The prefix before the flipped frame survives; everything
        // after (tail of segment 0 and all later segments) is
        // quarantined, nothing deleted.
        assert!(stats.frames_recovered < 12);
        assert_eq!(stats.next_offset, stats.frames_recovered);
        // The damaged tail of segment 0 is quarantined under whichever
        // defect the flipped bit produced (payload -> checksum; a flip
        // landing in a frame header reads as truncated/version/decode).
        assert!(stats
            .quarantined
            .iter()
            .any(|q| q.file.starts_with(&CommitLog::segment_name(0)) && q.reason != "orphaned"));
        assert!(stats.quarantined.iter().any(|q| q.reason == "orphaned"));
        assert_eq!(log.records().unwrap().len() as u64, stats.frames_recovered);
        // Quarantine really holds the bytes.
        let qdir = dir.join(QUARANTINE_DIR);
        let held: u64 = std::fs::read_dir(&qdir)
            .unwrap()
            .map(|e| e.unwrap().metadata().unwrap().len())
            .sum();
        assert_eq!(held, stats.bytes_quarantined);
    }

    #[test]
    fn leftover_tmp_files_are_quarantined() {
        let dir = temp_dir("tmp");
        {
            let (mut log, _) = open(&dir, LogOptions::default());
            log.append(0, &report(17000, 0)).unwrap();
        }
        std::fs::write(dir.join("seg-000000000099.vlog.tmp"), b"half-written").unwrap();
        let (_, stats) = open(&dir, LogOptions::default());
        invariant(&stats);
        assert_eq!(stats.quarantined.len(), 1);
        assert_eq!(stats.quarantined[0].reason, "tmp");
        assert!(dir
            .join(QUARANTINE_DIR)
            .join("seg-000000000099.vlog.tmp.tmp")
            .exists());
    }

    #[test]
    fn appends_continue_after_recovery_at_the_recovered_offset() {
        let dir = temp_dir("continue");
        {
            let (mut log, _) = open(&dir, LogOptions::default());
            for i in 0..6u64 {
                log.append(0, &report(17000, i as u16)).unwrap();
            }
        }
        let seg = dir.join(CommitLog::segment_name(0));
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 3]).unwrap();

        let (mut log, stats) = open(&dir, LogOptions::default());
        assert_eq!(stats.next_offset, 5);
        let offset = log.append(7, &report(17001, 0)).unwrap();
        assert_eq!(offset, 5);
        let records = log.records().unwrap();
        assert_eq!(records.len(), 6);
        assert_eq!(records[5].vehicle_id, 7);
        // And the repaired log reopens clean.
        drop(log);
        let (_, stats) = open(&dir, LogOptions::default());
        assert_eq!(stats.frames_recovered, 6);
        assert!(stats.quarantined.is_empty());
    }

    #[test]
    fn binary_record_layout_is_pinned() {
        let mut r = report(-3, 1430);
        r.engine_on = false;
        let mut payload = Vec::new();
        encode_record(&mut payload, 0x0102_0304_0506_0708, 9, &r);
        // Nine present channels (all but digging pressure, channel 7).
        assert_eq!(payload.len(), RECORD_HEAD_LEN + 8 * 9);
        assert_eq!(payload[0..8], 0x0102_0304_0506_0708_u64.to_le_bytes());
        assert_eq!(payload[8..12], 9_u32.to_le_bytes());
        assert_eq!(payload[12..20], (-3_i64).to_le_bytes());
        assert_eq!(payload[20..22], 1430_u16.to_le_bytes());
        assert_eq!(
            payload[22..24],
            (0b111_1111_1110_u16 & !(1 << 8)).to_le_bytes()
        );
        assert_eq!(payload[24..32], 55.0_f64.to_bits().to_le_bytes());
        assert_eq!(payload[88..96], 52.0_f64.to_bits().to_le_bytes());
        let decoded = decode_record(&payload).unwrap();
        assert_eq!(
            (decoded.offset, decoded.vehicle_id),
            (0x0102_0304_0506_0708, 9)
        );
        assert_eq!(decoded.report, r);

        // No channel present: just the head, and engine_on is bit 0.
        let empty = RawReport {
            fuel_level_pct: None,
            engine_rpm: None,
            oil_pressure_kpa: None,
            coolant_temp_c: None,
            fuel_rate_lph: None,
            speed_kmh: None,
            load_pct: None,
            pump_drive_temp_c: None,
            oil_tank_temp_c: None,
            ..report(0, 0)
        };
        payload.clear();
        encode_record(&mut payload, 1, 2, &empty);
        assert_eq!(payload.len(), RECORD_HEAD_LEN);
        assert_eq!(payload[22..24], FLAG_ENGINE_ON.to_le_bytes());
        assert_eq!(decode_record(&payload).unwrap().report, empty);
    }

    /// A version-1 frame as earlier builds wrote it: one JSON record.
    fn v1_frame(offset: u64, vehicle_id: u32, report: &RawReport) -> Vec<u8> {
        let record = LogRecord {
            offset,
            vehicle_id,
            report: report.clone(),
        };
        let payload = serde_json::to_string(&record).unwrap();
        encode_frame(SEGMENT_MAGIC, SEGMENT_VERSION_JSON, payload.as_bytes())
    }

    #[test]
    fn v1_log_reopens_clean_and_appends_resume_in_its_segment_as_v2() {
        let dir = temp_dir("v1");
        let options = LogOptions {
            max_segment_bytes: 64 * 1024,
        };
        // What earlier builds left on disk: a sealed segment of four
        // JSON frames with its JSON offset index, and an active segment
        // of three JSON frames.
        let mut written = Vec::new();
        let mut sealed = Vec::new();
        let mut third_frame_at = 0;
        for i in 0..4u64 {
            if i == 2 {
                third_frame_at = sealed.len();
            }
            let r = report(17000, i as u16 * 10);
            sealed.extend_from_slice(&v1_frame(i, 1, &r));
            written.push((1u32, r));
        }
        std::fs::write(dir.join(CommitLog::segment_name(0)), &sealed).unwrap();
        let index_json = format!(
            r#"{{"first_offset":0,"frames":4,"entries":[{{"offset":0,"pos":0}},{{"offset":2,"pos":{third_frame_at}}}]}}"#
        );
        let index = encode_frame(*b"VUPI", 1, index_json.as_bytes());
        let index_path = dir.join("seg-000000000000.vidx");
        std::fs::write(&index_path, &index).unwrap();
        let mut active = Vec::new();
        for i in 4..7u64 {
            let r = report(17001, i as u16 * 10);
            active.extend_from_slice(&v1_frame(i, 3, &r));
            written.push((3u32, r));
        }
        let active_path = dir.join(CommitLog::segment_name(4));
        std::fs::write(&active_path, &active).unwrap();

        // The old index is a foreign file: recovery neither reads,
        // counts nor quarantines it, so only segment bytes are seen, and
        // it stays in place byte for byte.
        let check = |log: &CommitLog, stats: &LogRecovery, written: &[(u32, RawReport)]| {
            invariant(stats);
            assert!(stats.quarantined.is_empty(), "{stats:?}");
            let segment_bytes = std::fs::read(&active_path).unwrap().len() + sealed.len();
            assert_eq!(stats.bytes_seen, segment_bytes as u64);
            assert_eq!(std::fs::read(&index_path).unwrap(), index);
            assert_eq!(stats.frames_recovered, written.len() as u64);
            let records = log.records().unwrap();
            assert_eq!(records.len(), written.len());
            for (i, (rec, (vehicle, r))) in records.iter().zip(written).enumerate() {
                assert_eq!(rec.offset, i as u64);
                assert_eq!((rec.vehicle_id, &rec.report), (*vehicle, r));
            }
        };
        let (mut log, stats) = open(&dir, options.clone());
        check(&log, &stats, &written);

        // Appends resume in the old active segment, as v2 frames.
        for i in 7..10u64 {
            let r = report(17002, i as u16);
            assert_eq!(log.append(4, &r).unwrap(), i);
            written.push((4u32, r));
        }
        assert_eq!(log.segment_count(), 2);
        let mixed = std::fs::read(&active_path).unwrap();
        assert!(mixed.starts_with(&active));
        let version = u16::from_le_bytes([mixed[active.len() + 4], mixed[active.len() + 5]]);
        assert_eq!(version, SEGMENT_VERSION);
        drop(log);

        // The mixed v1 + v2 segment reopens clean.
        let (log, stats) = open(&dir, options);
        check(&log, &stats, &written);
    }
}
