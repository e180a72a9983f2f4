//! The shared on-disk frame format — a 16-byte header (magic, format
//! version, payload length, payload CRC32) in front of an opaque
//! payload — and the one crash-safe file protocol every durable
//! component uses: transient-io retries, the atomic replace, the
//! quarantine move and the manifest generation bump.
//!
//! Two file families share this framing with different magics:
//!
//! - model snapshots (`VUPM`, [`crate::persist`]) — exactly one frame
//!   per file, validated with [`decode_frame_exact`];
//! - telemetry commit-log segments (`VUPL`, `vup-ingest`) — many
//!   frames back to back in one append-only file, walked with
//!   [`decode_versioned_frame_at`].
//!
//! The header layout is pinned by unit tests below and documented in
//! DESIGN.md: bytes 0..4 magic, 4..6 version (u16 LE), 6..8 reserved
//! (zero), 8..12 payload length (u32 LE), 12..16 payload CRC32
//! (u32 LE). A reader can therefore always tell a good frame from a
//! torn tail (too short), a flipped bit (CRC mismatch), or a file from
//! a future build (unknown magic/version).
//!
//! The file protocol (DESIGN.md §5) is written out once, here:
//!
//! - [`atomic_replace`] — write `<name>.tmp`, rename it over `<name>`,
//!   remove the temp file on failure. Snapshot persist, the manifest
//!   and the commit log's truncate-on-recovery use it.
//! - [`quarantine_move`] — rename a damaged file to
//!   `quarantine/<name>.<reason>`, never delete it. Snapshot recovery
//!   and commit-log recovery use it.
//! - [`bump_manifest`] — read, bump and atomically rewrite a snapshot
//!   directory's generation manifest. Store open and shard rebalance
//!   (an out-of-band change to a store directory) use it.

use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::persist::StorageBackend;

/// Fixed header size: magic (4) + version (2) + reserved (2) +
/// payload length (4) + payload CRC32 (4).
pub const HEADER_LEN: usize = 16;

/// Attempts per storage operation: the first try plus retries of
/// transient ([`io::ErrorKind::Interrupted`]) failures.
pub const MAX_IO_ATTEMPTS: u64 = 4;

/// Slicing-by-8 lookup tables for the reflected IEEE polynomial
/// ([`crc32_sliced`], and the tail of [`crc32_clmul`]):
/// `CRC_TABLES[0]` is the classic bytewise table, and `CRC_TABLES[k]`
/// advances a byte's contribution through `k` further zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// IEEE CRC32 (the zlib/PNG polynomial) of `bytes`: every frame's
/// payload checksum. On x86_64 CPUs with carry-less multiply
/// (PCLMULQDQ and SSE4.1, detected at run time) inputs of 16 bytes or
/// more fold 16 bytes per step (`crc32_clmul`); shorter inputs and
/// other CPUs run [`crc32_sliced`]. Both give the same value for every
/// input.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= 16
        && is_x86_feature_detected!("pclmulqdq")
        && is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: the CPU supports both features, checked just above.
        return unsafe { crc32_clmul(bytes) };
    }
    crc32_sliced(bytes)
}

/// The portable CRC32, slicing-by-8: eight bytes per step through
/// eight tables, then bytewise for the last `len % 8`.
pub fn crc32_sliced(bytes: &[u8]) -> u32 {
    !crc32_sliced_update(u32::MAX, bytes)
}

/// Advances the running (pre-inversion) CRC register `crc` over
/// `bytes` with the slicing-by-8 tables.
fn crc32_sliced_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// [`crc32`] by carry-less multiplication: the running CRC is folded
/// into the first 16 bytes, then each further 16-byte block is xored
/// onto the accumulator's two 64-bit halves multiplied by K3 and K4;
/// the 128-bit result is reduced to 64 bits, Barrett-reduced to the
/// 32-bit CRC register, and the last `len % 16` bytes finish through
/// the slicing-by-8 tables. Needs `bytes.len() >= 16`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn crc32_clmul(bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{
        _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32, _mm_loadu_si128,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    // Folding constants of the bit-reflected IEEE polynomial P:
    // x^(128+32) mod P and x^(128-32) mod P fold one 128-bit lane into
    // the next (K3, K4), x^64 mod P folds 96 bits to 64 (K5), and P with
    // its Barrett quotient μ = x^64 / P reduces 64 bits to the CRC.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    let mut blocks = bytes.chunks_exact(16);
    let first = blocks
        .next()
        .expect("crc32_clmul needs a full 16-byte block");
    // SAFETY: every block is a 16-byte slice; the load is unaligned.
    let mut x = unsafe { _mm_loadu_si128(first.as_ptr().cast()) };
    x = _mm_xor_si128(x, _mm_cvtsi32_si128(-1)); // the initial register, !0
    let k3k4 = _mm_set_epi64x(K4, K3);
    for block in &mut blocks {
        // SAFETY: as above.
        let next = unsafe { _mm_loadu_si128(block.as_ptr().cast()) };
        let lo = _mm_clmulepi64_si128(x, k3k4, 0x00);
        let hi = _mm_clmulepi64_si128(x, k3k4, 0x11);
        x = _mm_xor_si128(_mm_xor_si128(next, lo), hi);
    }

    let low32 = _mm_set_epi32(0, 0, 0, -1);
    // 128 -> 96 bits: the low half times K4, onto the high half.
    x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
    // 96 -> 64 bits: the low 32 bits times K5, onto the rest.
    x = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
        _mm_srli_si128(x, 4),
    );
    // Barrett: T1 = (x mod x^32)·μ, T2 = (T1 mod x^32)·P; the register
    // is the upper 32 bits of x ^ T2 (the reflected variant).
    let pu = _mm_set_epi64x(MU, P);
    let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
    let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
    let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
    !crc32_sliced_update(crc, blocks.remainder())
}

/// Why a frame cannot be decoded. Callers map these onto their own
/// defect taxonomy (e.g. [`crate::SnapshotDefect`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameDefect {
    /// Shorter than the header, or the payload shorter than declared
    /// (torn write, kill mid-write).
    Truncated,
    /// The first four bytes are not the expected magic.
    Magic,
    /// Right magic, but a format version this build does not know.
    Version,
    /// Payload bytes do not match the header's CRC32 (bit rot).
    Checksum,
    /// Bytes follow a complete frame where none are allowed
    /// ([`decode_frame_exact`] only).
    TrailingGarbage,
}

impl FrameDefect {
    /// Stable lowercase label.
    pub fn as_str(self) -> &'static str {
        match self {
            FrameDefect::Truncated => "truncated",
            FrameDefect::Magic => "magic",
            FrameDefect::Version => "version",
            FrameDefect::Checksum => "checksum",
            FrameDefect::TrailingGarbage => "trailing-garbage",
        }
    }
}

/// Frames a serialized payload with the versioned, checksummed header.
pub fn encode_frame(magic: [u8; 4], version: u16, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    encode_frame_into(&mut out, magic, version, |out| {
        out.extend_from_slice(payload)
    });
    out
}

/// Frames a payload built in place: clears `out`, reserves the header,
/// lets `payload` append the payload bytes after it, then fills in the
/// header. Reusing one `out` across calls makes framing allocation-free
/// once the buffer has grown to the largest frame.
pub fn encode_frame_into(
    out: &mut Vec<u8>,
    magic: [u8; 4],
    version: u16,
    payload: impl FnOnce(&mut Vec<u8>),
) {
    out.clear();
    out.extend_from_slice(&[0u8; HEADER_LEN]);
    payload(out);
    let (header, body) = out.split_at_mut(HEADER_LEN);
    let len = u32::try_from(body.len()).expect("frame payload length fits in u32");
    header[0..4].copy_from_slice(&magic);
    header[4..6].copy_from_slice(&version.to_le_bytes());
    header[8..12].copy_from_slice(&len.to_le_bytes());
    header[12..16].copy_from_slice(&crc32(body).to_le_bytes());
}

/// Decodes the frame starting at byte `at` of a multi-frame buffer.
/// Returns the payload and the total frame length (header + payload),
/// so a segment reader can walk `at += len` frame by frame. Bytes
/// after the frame are someone else's business — there is no
/// trailing-garbage concept here.
pub fn decode_frame_at(
    magic: [u8; 4],
    version: u16,
    bytes: &[u8],
    at: usize,
) -> Result<(&[u8], usize), FrameDefect> {
    decode_versioned_frame_at(magic, &[version], bytes, at)
        .map(|(_, payload, frame_len)| (payload, frame_len))
}

/// [`decode_frame_at`] for a reader that knows several format
/// versions: accepts a frame whose version is any of `versions` and
/// also returns that version, so the caller can pick the payload
/// decoder per frame.
pub fn decode_versioned_frame_at<'a>(
    magic: [u8; 4],
    versions: &[u16],
    bytes: &'a [u8],
    at: usize,
) -> Result<(u16, &'a [u8], usize), FrameDefect> {
    let bytes = bytes.get(at..).ok_or(FrameDefect::Truncated)?;
    if bytes.len() < HEADER_LEN {
        return Err(FrameDefect::Truncated);
    }
    if bytes[0..4] != magic {
        return Err(FrameDefect::Magic);
    }
    let got_version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if !versions.contains(&got_version) {
        return Err(FrameDefect::Version);
    }
    let declared_len = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as usize;
    let declared_crc = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]);
    let body = bytes
        .get(HEADER_LEN..HEADER_LEN + declared_len)
        .ok_or(FrameDefect::Truncated)?;
    if crc32(body) != declared_crc {
        return Err(FrameDefect::Checksum);
    }
    Ok((got_version, body, HEADER_LEN + declared_len))
}

/// Decodes a buffer that must hold exactly one frame (the snapshot
/// discipline): any bytes beyond the declared payload are
/// [`FrameDefect::TrailingGarbage`].
pub fn decode_frame_exact(
    magic: [u8; 4],
    version: u16,
    bytes: &[u8],
) -> Result<&[u8], FrameDefect> {
    let (payload, frame_len) = decode_frame_at(magic, version, bytes, 0)?;
    if bytes.len() > frame_len {
        return Err(FrameDefect::TrailingGarbage);
    }
    Ok(payload)
}

/// Retries `op` on transient ([`io::ErrorKind::Interrupted`]) failures,
/// up to [`MAX_IO_ATTEMPTS`] attempts total. Returns the final result
/// and how many retries were spent.
pub fn retry_io<T>(mut op: impl FnMut() -> io::Result<T>) -> (io::Result<T>, u64) {
    let mut retries = 0;
    loop {
        match op() {
            Err(e) if e.kind() == io::ErrorKind::Interrupted && retries + 1 < MAX_IO_ATTEMPTS => {
                retries += 1;
            }
            other => return (other, retries),
        }
    }
}

/// Suffix of in-flight temp files: [`atomic_replace`] writes
/// `<name>.tmp` before renaming it over `<name>`, so recovery treats any
/// file with this suffix as an interrupted write.
pub const TMP_SUFFIX: &str = ".tmp";
/// Subdirectory damaged files are moved into by [`quarantine_move`].
pub const QUARANTINE_DIR: &str = "quarantine";
/// Name of the generation manifest inside a snapshot store directory.
pub const MANIFEST_NAME: &str = "MANIFEST.json";

/// Replaces `dir/name` with exactly `bytes`, atomically: writes
/// `dir/<name>.tmp`, then renames it over `dir/name`, each step retried
/// on transient errors. On failure the temp file is removed (best
/// effort), so the name holds either its old contents or the new ones,
/// never a torn mix. Returns the result and the retries spent.
pub fn atomic_replace(
    backend: &dyn StorageBackend,
    dir: &Path,
    name: &str,
    bytes: &[u8],
) -> (io::Result<()>, u64) {
    let tmp = dir.join(format!("{name}{TMP_SUFFIX}"));
    let (written, mut retries) = retry_io(|| backend.write(&tmp, bytes));
    let result = written.and_then(|()| {
        let (renamed, r) = retry_io(|| backend.rename(&tmp, &dir.join(name)));
        retries += r;
        renamed
    });
    if result.is_err() {
        let _ = backend.remove(&tmp);
    }
    (result, retries)
}

/// Where [`quarantine_move`] puts `name` quarantined for `reason`: the
/// first of `dir/quarantine/<name>.<reason>`, `<name>.<reason>.1`,
/// `<name>.<reason>.2`, … that the quarantine directory does not hold
/// yet, so a later defect never replaces an earlier one's bytes. A
/// missing quarantine directory counts as empty.
pub fn quarantine_path(
    backend: &dyn StorageBackend,
    dir: &Path,
    name: &str,
    reason: &str,
) -> io::Result<PathBuf> {
    let qdir = dir.join(QUARANTINE_DIR);
    let taken: Vec<String> = match backend.list(&qdir) {
        Ok(files) => files.iter().map(|f| file_name(f)).collect(),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let base = format!("{name}.{reason}");
    let free = std::iter::once(base.clone())
        .chain((1..).map(|n| format!("{base}.{n}")))
        .find(|candidate| !taken.contains(candidate))
        .expect("some suffix is free");
    Ok(qdir.join(free))
}

/// The last component of `path` (lossily UTF-8; empty if there is none).
pub fn file_name(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}

/// Moves the file at `path` to its [`quarantine_path`] beside it —
/// never deletes it — retrying transient errors. Returns where it went
/// and the retries spent; a file that cannot be moved stays put, and
/// the next open tries again.
pub fn quarantine_move(
    backend: &dyn StorageBackend,
    path: &Path,
    reason: &str,
) -> (io::Result<PathBuf>, u64) {
    let dir = path.parent().unwrap_or(Path::new(""));
    let (dest, mut retries) = retry_io(|| quarantine_path(backend, dir, &file_name(path), reason));
    let moved = dest.and_then(|dest| {
        let (renamed, r) = retry_io(|| backend.rename(path, &dest));
        retries += r;
        renamed.map(|()| dest)
    });
    (moved, retries)
}

/// The generation manifest serialized as [`MANIFEST_NAME`].
#[derive(Serialize, Deserialize)]
struct Manifest {
    format_version: u16,
    generation: u64,
}

/// What one [`bump_manifest`] did.
#[derive(Debug)]
pub struct ManifestBump {
    /// The generation after the bump: one past the manifest's, or 1.
    pub generation: u64,
    /// Whether the manifest was missing or unreadable, so the count
    /// restarted at 1.
    pub rebuilt: bool,
    /// Transient-io retries spent reading and rewriting it.
    pub io_retries: u64,
    /// Whether the new manifest reached the disk.
    pub written: io::Result<()>,
}

/// Reads `dir`'s generation manifest, bumps the generation (a missing
/// or unreadable manifest restarts at 1) and rewrites it with
/// [`atomic_replace`].
pub fn bump_manifest(backend: &dyn StorageBackend, dir: &Path) -> ManifestBump {
    let (read, mut io_retries) = retry_io(|| backend.read(&dir.join(MANIFEST_NAME)));
    let previous = read
        .ok()
        .and_then(|bytes| String::from_utf8(bytes).ok())
        .and_then(|text| serde_json::from_str::<Manifest>(&text).ok());
    let generation = previous.as_ref().map_or(1, |m| m.generation + 1);
    let manifest = Manifest {
        format_version: crate::persist::SNAPSHOT_VERSION,
        generation,
    };
    let text = serde_json::to_string_pretty(&manifest).expect("manifest serializes");
    let (written, r) = atomic_replace(backend, dir, MANIFEST_NAME, text.as_bytes());
    io_retries += r;
    ManifestBump {
        generation,
        rebuilt: previous.is_none(),
        io_retries,
        written,
    }
}

/// The published 64-bit FNV prime, 2⁴⁰ + 0x1b3.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// The multiplier snapshot-store hashing has always used: 2⁴⁸ + 0x1b3,
/// not [`FNV_PRIME`]. It stays, because config fingerprints name every
/// snapshot file on disk and seed every [`crate::FaultyBackend`]
/// decision; changing it would orphan existing stores and re-roll every
/// seeded disk fault.
pub const STORE_HASH_PRIME: u64 = 0x1_0000_0000_01b3;

/// FNV-1a over `bytes` with multiplier `prime`: [`FNV_PRIME`] gives the
/// published 64-bit FNV-1a, [`STORE_HASH_PRIME`] the snapshot store's
/// fingerprints and fault-decision file hashes.
pub fn fnv1a(prime: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(prime)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::{DiskBackend, FaultyBackend};
    use crate::DiskFaultPlan;

    const SNAP_MAGIC: [u8; 4] = *b"VUPM";
    const LOG_MAGIC: [u8; 4] = *b"VUPL";

    /// Every CRC32 path this CPU can run, by name: the dispatched entry
    /// point, the portable fallback and, when the CPU has carry-less
    /// multiply, the CLMUL kernel itself (which needs 16 bytes or more).
    fn crc32_paths(bytes: &[u8]) -> Vec<(&'static str, u32)> {
        let mut paths = vec![
            ("crc32", crc32(bytes)),
            ("crc32_sliced", crc32_sliced(bytes)),
        ];
        #[cfg(target_arch = "x86_64")]
        if bytes.len() >= 16
            && is_x86_feature_detected!("pclmulqdq")
            && is_x86_feature_detected!("sse4.1")
        {
            // SAFETY: the CPU supports both features, checked just above.
            paths.push(("crc32_clmul", unsafe { crc32_clmul(bytes) }));
        }
        paths
    }

    /// Asserts every path equals `want`, naming each one that diverged.
    fn assert_paths_equal(bytes: &[u8], want: u32, what: &str) {
        let diverged: Vec<String> = crc32_paths(bytes)
            .into_iter()
            .filter(|&(_, got)| got != want)
            .map(|(path, got)| format!("{path} gave {got:#010x}"))
            .collect();
        assert!(
            diverged.is_empty(),
            "on {what}, want {want:#010x}: {}",
            diverged.join(", ")
        );
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32/ISO-HDLC test vector. Nine bytes are too
        // short for the CLMUL kernel, so a 16-byte extension checks it
        // against the bytewise reference.
        assert_paths_equal(b"123456789", 0xCBF4_3926, "the check string");
        assert_paths_equal(b"", 0, "the empty input");
        let padded = b"123456789abcdefg";
        assert_paths_equal(padded, crc32_bytewise(padded), "the padded check string");
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    /// The bytewise (one table lookup per byte) CRC32 every path must
    /// reproduce bit for bit; its table is built bit by bit here,
    /// independently of `CRC_TABLES`.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        let mut crc = u32::MAX;
        for &b in bytes {
            crc = table[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
        }
        crc ^ u32::MAX
    }

    #[test]
    fn every_crc32_path_matches_the_bytewise_reference() {
        // Deterministic filler: splitmix64 bytes.
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let buf: Vec<u8> = (0..528).map(|_| next() as u8).collect();
        // Every length 0..=512 at every start misalignment 0..16.
        for start in 0..16 {
            for len in 0..=512 {
                let slice = &buf[start..start + len];
                let what = format!("start {start}, len {len}");
                assert_paths_equal(slice, crc32_bytewise(slice), &what);
            }
        }
        // Seeded random buffers of random lengths.
        for _ in 0..200 {
            let len = (next() % 4096) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_paths_equal(&bytes, crc32_bytewise(&bytes), &format!("len {len}"));
        }
        // All-zero and all-one blocks stress the folds' carries.
        for fill in [0x00u8, 0xFF] {
            let bytes = vec![fill; 300];
            assert_paths_equal(
                &bytes,
                crc32_bytewise(&bytes),
                &format!("300 × {fill:#04x}"),
            );
        }
    }

    #[test]
    fn versioned_decode_accepts_only_the_listed_versions() {
        let mut buf = encode_frame(LOG_MAGIC, 1, b"old");
        buf.extend_from_slice(&encode_frame(LOG_MAGIC, 2, b"new"));
        let (v, payload, len) = decode_versioned_frame_at(LOG_MAGIC, &[1, 2], &buf, 0).unwrap();
        assert_eq!((v, payload), (1, &b"old"[..]));
        let (v, payload, _) = decode_versioned_frame_at(LOG_MAGIC, &[1, 2], &buf, len).unwrap();
        assert_eq!((v, payload), (2, &b"new"[..]));
        assert_eq!(
            decode_versioned_frame_at(LOG_MAGIC, &[2], &buf, 0),
            Err(FrameDefect::Version)
        );
        assert_eq!(
            decode_frame_at(LOG_MAGIC, 1, &buf, len),
            Err(FrameDefect::Version)
        );
    }

    #[test]
    fn in_place_framing_matches_encode_frame_and_reuses_the_buffer() {
        let mut out = Vec::new();
        encode_frame_into(&mut out, LOG_MAGIC, 2, |o| {
            o.extend_from_slice(b"first, longer")
        });
        assert_eq!(out, encode_frame(LOG_MAGIC, 2, b"first, longer"));
        encode_frame_into(&mut out, SNAP_MAGIC, 1, |o| o.extend_from_slice(b"abc"));
        assert_eq!(out, encode_frame(SNAP_MAGIC, 1, b"abc"));
    }

    #[test]
    fn snapshot_frame_byte_layout_is_pinned() {
        // The VUPM layout existing snapshot stores already hold on
        // disk: changing any of these bytes is a format break.
        let bytes = encode_frame(SNAP_MAGIC, 1, b"abc");
        assert_eq!(
            bytes,
            [
                b'V', b'U', b'P', b'M', // magic
                1, 0, // version 1, little-endian
                0, 0, // reserved
                3, 0, 0, 0, // payload length 3, little-endian
                0xC2, 0x41, 0x24, 0x35, // crc32("abc") = 0x352441C2, little-endian
                b'a', b'b', b'c',
            ]
        );
    }

    #[test]
    fn log_frame_byte_layout_is_pinned() {
        // The VUPL layout commit-log segments hold on disk.
        let bytes = encode_frame(LOG_MAGIC, 1, b"abc");
        let crc = crc32(b"abc").to_le_bytes();
        let mut expected = vec![b'V', b'U', b'P', b'L', 1, 0, 0, 0, 3, 0, 0, 0];
        expected.extend_from_slice(&crc);
        expected.extend_from_slice(b"abc");
        assert_eq!(bytes, expected);
    }

    #[test]
    fn exact_decode_round_trips_and_classifies_defects() {
        let payload = b"{\"hello\":1}";
        let bytes = encode_frame(LOG_MAGIC, 1, payload);
        assert_eq!(bytes.len(), HEADER_LEN + payload.len());
        assert_eq!(decode_frame_exact(LOG_MAGIC, 1, &bytes).unwrap(), payload);

        for cut in [0, 3, HEADER_LEN - 1, HEADER_LEN + 2, bytes.len() - 1] {
            assert_eq!(
                decode_frame_exact(LOG_MAGIC, 1, &bytes[..cut]),
                Err(FrameDefect::Truncated),
                "cut at {cut}"
            );
        }
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(
            decode_frame_exact(LOG_MAGIC, 1, &long),
            Err(FrameDefect::TrailingGarbage)
        );
        for bit in 0..8 {
            let mut flipped = bytes.clone();
            flipped[HEADER_LEN + 4] ^= 1 << bit;
            assert_eq!(
                decode_frame_exact(LOG_MAGIC, 1, &flipped),
                Err(FrameDefect::Checksum)
            );
        }
        let mut magic = bytes.clone();
        magic[0] = b'X';
        assert_eq!(
            decode_frame_exact(LOG_MAGIC, 1, &magic),
            Err(FrameDefect::Magic)
        );
        // A snapshot frame is not a log frame.
        let snap = encode_frame(SNAP_MAGIC, 1, payload);
        assert_eq!(
            decode_frame_exact(LOG_MAGIC, 1, &snap),
            Err(FrameDefect::Magic)
        );
        let mut version = bytes.clone();
        version[4] = 0xFF;
        assert_eq!(
            decode_frame_exact(LOG_MAGIC, 1, &version),
            Err(FrameDefect::Version)
        );
    }

    #[test]
    fn multi_frame_walk_decodes_each_frame_and_stops_at_the_tear() {
        let mut buf = Vec::new();
        let payloads: [&[u8]; 3] = [b"one", b"", b"three-is-longer"];
        for p in payloads {
            buf.extend_from_slice(&encode_frame(LOG_MAGIC, 1, p));
        }
        // Tear mid-way through a fourth frame.
        let torn = encode_frame(LOG_MAGIC, 1, b"torn tail");
        buf.extend_from_slice(&torn[..torn.len() - 3]);

        let mut at = 0;
        let mut seen = Vec::new();
        loop {
            match decode_frame_at(LOG_MAGIC, 1, &buf, at) {
                Ok((payload, len)) => {
                    seen.push(payload.to_vec());
                    at += len;
                }
                Err(defect) => {
                    assert_eq!(defect, FrameDefect::Truncated);
                    break;
                }
            }
        }
        assert_eq!(seen, payloads.map(<[u8]>::to_vec));
        assert_eq!(
            at,
            3 * HEADER_LEN + payloads.iter().map(|p| p.len()).sum::<usize>()
        );
        // An `at` past the end is just a truncation, never a panic.
        assert_eq!(
            decode_frame_at(LOG_MAGIC, 1, &buf, buf.len() + 100),
            Err(FrameDefect::Truncated)
        );
    }

    #[test]
    fn retry_io_retries_only_transient_errors() {
        let mut calls = 0;
        let (res, retries) = retry_io(|| {
            calls += 1;
            if calls < 3 {
                Err(io::Error::new(io::ErrorKind::Interrupted, "transient"))
            } else {
                Ok(calls)
            }
        });
        assert_eq!(res.unwrap(), 3);
        assert_eq!(retries, 2);

        let (res, retries) = retry_io(|| -> io::Result<()> {
            Err(io::Error::new(io::ErrorKind::Interrupted, "forever"))
        });
        assert!(res.is_err());
        assert_eq!(retries, MAX_IO_ATTEMPTS - 1);

        let (res, retries) = retry_io(|| -> io::Result<()> { Err(io::Error::other("permanent")) });
        assert!(res.is_err());
        assert_eq!(retries, 0, "permanent errors are not retried");
    }

    #[test]
    fn fnv1a_matches_the_published_vectors_and_pins_the_store_hash() {
        assert_eq!(fnv1a(FNV_PRIME, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_PRIME, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_PRIME, b"foobar"), 0x8594_4171_f739_67e8);
        // Snapshot names and seeded disk faults are built on these.
        assert_eq!(fnv1a(STORE_HASH_PRIME, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(STORE_HASH_PRIME, b"a"), 0xb084_984c_8601_ec8c);
        assert_eq!(fnv1a(STORE_HASH_PRIME, b"foobar"), 0x2a2a_5471_f739_67e8);
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vup-frame-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join(QUARANTINE_DIR)).unwrap();
        dir
    }

    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    /// `DiskBackend` whose renames always fail permanently.
    struct NoRename;

    impl StorageBackend for NoRename {
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            DiskBackend.read(path)
        }
        fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            DiskBackend.write(path, bytes)
        }
        fn rename(&self, _: &Path, _: &Path) -> io::Result<()> {
            Err(io::Error::other("rename refused"))
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

    #[test]
    fn atomic_replace_swaps_whole_files_and_leaves_no_temp_file_on_failure() {
        let dir = temp_dir("replace");
        let (res, retries) = atomic_replace(&DiskBackend, &dir, "f.bin", b"old");
        assert!(res.is_ok());
        assert_eq!(retries, 0);
        assert!(atomic_replace(&DiskBackend, &dir, "f.bin", b"new")
            .0
            .is_ok());
        assert_eq!(std::fs::read(dir.join("f.bin")).unwrap(), b"new");
        assert_eq!(names(&dir), ["f.bin", QUARANTINE_DIR]);

        // A failed rename keeps the old contents and removes the temp.
        let (res, _) = atomic_replace(&NoRename, &dir, "f.bin", b"lost");
        assert!(res.is_err());
        assert_eq!(std::fs::read(dir.join("f.bin")).unwrap(), b"new");
        assert_eq!(names(&dir), ["f.bin", QUARANTINE_DIR]);

        // Transient errors cost retries on both steps, never the write.
        let flaky = FaultyBackend::new(
            Box::new(DiskBackend),
            5,
            DiskFaultPlan {
                io_error_rate: 1.0,
                io_error_attempts: 2,
                ..DiskFaultPlan::default()
            },
        );
        let (res, retries) = atomic_replace(&flaky, &dir, "f.bin", b"newer");
        assert!(res.is_ok());
        assert_eq!(retries, 4, "two on the write, two on the rename");
        assert_eq!(std::fs::read(dir.join("f.bin")).unwrap(), b"newer");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_move_renames_and_never_deletes() {
        let dir = temp_dir("quarantine");
        std::fs::write(dir.join("seg.vlog"), b"damaged").unwrap();
        let (res, _) = quarantine_move(&DiskBackend, &dir.join("seg.vlog"), "checksum");
        let dest = res.unwrap();
        assert_eq!(dest, dir.join("quarantine/seg.vlog.checksum"));
        assert_eq!(std::fs::read(dest).unwrap(), b"damaged");
        assert!(!dir.join("seg.vlog").exists());

        // Later defects of the same name and reason take the next free
        // suffix: every earlier quarantined copy keeps its bytes.
        for (again, suffix) in [(&b"damaged again"[..], ".1"), (b"and again", ".2")] {
            std::fs::write(dir.join("seg.vlog"), again).unwrap();
            let (res, _) = quarantine_move(&DiskBackend, &dir.join("seg.vlog"), "checksum");
            let dest = res.unwrap();
            assert_eq!(
                dest,
                dir.join(format!("quarantine/seg.vlog.checksum{suffix}"))
            );
            assert_eq!(std::fs::read(dest).unwrap(), again);
        }
        assert_eq!(
            std::fs::read(dir.join("quarantine/seg.vlog.checksum")).unwrap(),
            b"damaged"
        );
        assert_eq!(
            std::fs::read(dir.join("quarantine/seg.vlog.checksum.1")).unwrap(),
            b"damaged again"
        );

        // An unmovable file stays where it is.
        std::fs::write(dir.join("x.snap"), b"kept").unwrap();
        assert!(quarantine_move(&NoRename, &dir.join("x.snap"), "io")
            .0
            .is_err());
        assert_eq!(std::fs::read(dir.join("x.snap")).unwrap(), b"kept");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bump_manifest_counts_generations_and_rebuilds_an_unreadable_manifest() {
        let dir = temp_dir("manifest");
        let first = bump_manifest(&DiskBackend, &dir);
        assert_eq!((first.generation, first.rebuilt), (1, true));
        assert!(first.written.is_ok());
        let second = bump_manifest(&DiskBackend, &dir);
        assert_eq!((second.generation, second.rebuilt), (2, false));
        assert_eq!(
            std::fs::read_to_string(dir.join(MANIFEST_NAME)).unwrap(),
            "{\n  \"format_version\": 2,\n  \"generation\": 2\n}"
        );

        std::fs::write(dir.join(MANIFEST_NAME), b"not json").unwrap();
        let rebuilt = bump_manifest(&DiskBackend, &dir);
        assert_eq!((rebuilt.generation, rebuilt.rebuilt), (1, true));

        // A manifest that cannot be rewritten still reports the bump it
        // tried, and leaves the old manifest and no temp file behind.
        let stuck = bump_manifest(&NoRename, &dir);
        assert_eq!(stuck.generation, 2);
        assert!(stuck.written.is_err());
        assert_eq!(names(&dir), [MANIFEST_NAME, QUARANTINE_DIR]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
