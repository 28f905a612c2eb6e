//! Crash-safe snapshot persistence for the memo cache.
//!
//! A snapshot is a single binary file holding the cache's
//! `(key, entry)` pairs, written with the classic atomic-publication
//! dance: serialize to `<path>.tmp`, `fsync` the file, `rename` over
//! `<path>`, `fsync` the directory. A reader therefore sees either the
//! previous complete snapshot or the new complete snapshot — never a
//! torn one — and a crash at any point leaves the previous snapshot
//! intact.
//!
//! ## Format (all integers little-endian)
//!
//! ```text
//! header  (28 bytes)
//!   0   magic            8B   b"COQLSNP1"
//!   8   format version   u32  FORMAT_VERSION
//!   12  fingerprint ver  u32  fingerprint::FINGERPRINT_VERSION
//!   16  entry count      u64
//!   24  header CRC-32    u32  over bytes 0..24
//! record (version 2: 82 + cert_len bytes, entry count times)
//!   0   fp(q1)           u128
//!   16  fp(q2)           u128
//!   32  fp(schema)       u128
//!   48  holds            u8   0 or 1
//!   49  path             u8   stats::path_index encoding
//!   50  depth            u64
//!   58  set_nodes.0      u64
//!   66  set_nodes.1      u64
//!   74  cert_len         u32  0 when the entry carries no certificate
//!   78  cert             cert_len bytes of co-cert wire text (UTF-8)
//!   78+n record CRC-32   u32  over bytes 0..78+cert_len
//! ```
//!
//! Version 1 records (written by pre-certificate builds) are the same
//! fixed prefix without the `cert_len`/`cert` fields: 74 payload bytes +
//! CRC = 78 bytes, decoded with `cert = None`. Writers always emit
//! version 2.
//!
//! ## Trust model
//!
//! A snapshot feeds *verdicts* straight into the serving path, so a
//! corrupt or stale one is worse than no snapshot at all. Loading is
//! therefore all-or-nothing: any mismatch — magic, either version, entry
//! count vs. file length, any CRC, any out-of-range field — rejects the
//! whole file. The rejected file is renamed to `<path>.corrupt` (kept
//! for postmortems, and so the next boot doesn't trip on it again) and
//! the caller starts cold. Bumping [`FORMAT_VERSION`] or
//! [`crate::fingerprint::FINGERPRINT_VERSION`] invalidates old
//! snapshots by construction.
//!
//! Certificates ride along as opaque text here: the CRC proves the bytes
//! survived the disk or the wire, **not** that the certificate is honest.
//! A snapshot written by a buggy (or hostile) peer can pair a verdict
//! with a certificate that doesn't prove it; the engine re-checks every
//! recovered certificate with `co-cert` before trusting the entry and
//! drops mismatches (counted by `persist.cert_rejected`).
//!
//! Timed-out decisions are never memoized (see [`crate::engine`]), so by
//! construction they are never snapshotted either; a snapshot only ever
//! contains definite verdicts.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use co_core::{ContainmentAnalysis, DecisionPath};

use crate::cache::{CacheEntry, CacheKey};
use crate::faults;
use crate::fingerprint::{Fingerprint, FINGERPRINT_VERSION};
use crate::stats::path_index;

/// First 8 bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"COQLSNP1";

/// Bump on any change to the record layout below.
pub const FORMAT_VERSION: u32 = 2;

const HEADER_LEN: usize = 28;
/// The fixed (pre-certificate) record payload shared by both versions.
const FIXED_LEN: usize = 74;
/// Full record length in the version-1 layout: fixed payload + CRC.
const V1_RECORD_LEN: usize = 78;
/// Minimum record length in the version-2 layout: fixed payload +
/// `cert_len` + empty certificate + CRC.
const V2_MIN_RECORD_LEN: usize = 82;
/// Upper bound on a single serialized certificate. Far above anything the
/// certifier produces; exists so a corrupt `cert_len` fails fast instead
/// of driving a huge allocation before the CRC check.
const MAX_CERT_LEN: usize = 1 << 24;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `bytes`.
/// Hand-rolled table-driven implementation: the workspace is `std`-only
/// by policy, and a checksum dependency is not worth an exception.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB88320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// What loading a snapshot produced.
#[derive(Debug)]
pub enum LoadOutcome {
    /// No snapshot file exists: a normal cold start.
    Missing,
    /// The snapshot verified end to end; every entry is structurally safe
    /// to serve (certificates still need the engine's semantic re-check).
    Loaded(Vec<(CacheKey, CacheEntry)>),
    /// The file failed verification (or could not be read) and was
    /// quarantined; the caller must start cold.
    Quarantined {
        /// What failed verification.
        reason: String,
        /// Where the bad file was moved, when the rename succeeded.
        moved_to: Option<PathBuf>,
    },
}

/// Serializes `entries` into the `COQLSNP1` byte format — the exact bytes
/// [`write_snapshot`] publishes to disk, also usable as a wire payload for
/// warm shard handoff (hex-framed by the `SNAPEXPORT`/`SNAPDATA` verbs).
pub fn encode_snapshot(entries: &[(CacheKey, CacheEntry)]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + entries.len() * V2_MIN_RECORD_LEN);
    buf.extend_from_slice(&SNAPSHOT_MAGIC);
    buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    buf.extend_from_slice(&FINGERPRINT_VERSION.to_le_bytes());
    buf.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    let header_crc = crc32(&buf);
    buf.extend_from_slice(&header_crc.to_le_bytes());
    for (key, entry) in entries {
        let start = buf.len();
        let analysis = &entry.analysis;
        buf.extend_from_slice(&key.q1.0.to_le_bytes());
        buf.extend_from_slice(&key.q2.0.to_le_bytes());
        buf.extend_from_slice(&key.schema.0.to_le_bytes());
        buf.push(analysis.holds as u8);
        buf.push(path_index(analysis.path) as u8);
        buf.extend_from_slice(&(analysis.depth as u64).to_le_bytes());
        buf.extend_from_slice(&(analysis.set_nodes.0 as u64).to_le_bytes());
        buf.extend_from_slice(&(analysis.set_nodes.1 as u64).to_le_bytes());
        let cert = entry.cert.as_deref().unwrap_or("");
        buf.extend_from_slice(&(cert.len() as u32).to_le_bytes());
        buf.extend_from_slice(cert.as_bytes());
        let record_crc = crc32(&buf[start..]);
        buf.extend_from_slice(&record_crc.to_le_bytes());
    }
    buf
}

/// The version/count fields of a snapshot header, verified (magic + CRC)
/// but *not* compared against this build's constants — callers decide
/// whether a foreign snapshot is compatible (e.g. the router refuses
/// handoff when a shard's versions disagree with its own).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// The writer's record-layout version ([`FORMAT_VERSION`] at build).
    pub format_version: u32,
    /// The writer's canonicalization/hash pipeline version.
    pub fingerprint_version: u32,
    /// Declared entry count.
    pub entries: u64,
}

/// Reads and integrity-checks just the 28-byte header of a snapshot byte
/// stream (magic, header CRC, declared count vs. actual length for the
/// layouts this build knows). Version fields are returned, not enforced —
/// see [`SnapshotHeader`].
pub fn peek_header(bytes: &[u8]) -> Result<SnapshotHeader, String> {
    if bytes.len() < HEADER_LEN {
        return Err(format!("truncated header: {} bytes", bytes.len()));
    }
    if bytes[..8] != SNAPSHOT_MAGIC {
        return Err("bad magic".to_string());
    }
    let header_crc = u32::from_le_bytes(bytes[24..28].try_into().unwrap());
    if header_crc != crc32(&bytes[..24]) {
        return Err("header CRC mismatch".to_string());
    }
    let format_version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    let entries = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    // Length sanity only for layouts this build understands: v1 records
    // are fixed-size (exact check), v2 records are variable-size (lower
    // bound only). Foreign versions are reported, not judged.
    match format_version {
        1 => {
            let expected_len = HEADER_LEN as u64 + entries.saturating_mul(V1_RECORD_LEN as u64);
            if bytes.len() as u64 != expected_len {
                return Err(format!(
                    "length mismatch: {} bytes for {entries} entries (expected {expected_len})",
                    bytes.len()
                ));
            }
        }
        2 => {
            let min_len = HEADER_LEN as u64 + entries.saturating_mul(V2_MIN_RECORD_LEN as u64);
            if (bytes.len() as u64) < min_len {
                return Err(format!(
                    "length mismatch: {} bytes for {entries} entries (need at least {min_len})",
                    bytes.len()
                ));
            }
        }
        _ => {}
    }
    Ok(SnapshotHeader {
        format_version,
        fingerprint_version: u32::from_le_bytes(bytes[12..16].try_into().unwrap()),
        entries,
    })
}

/// Lowercase hex encoding, used to frame snapshot bytes on the line
/// protocol (`SNAPEXPORT` replies, `SNAPDATA` requests).
pub fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Inverse of [`to_hex`]; rejects odd lengths and non-hex characters.
pub fn from_hex(text: &str) -> Result<Vec<u8>, String> {
    let text = text.trim();
    if !text.len().is_multiple_of(2) {
        return Err(format!("odd hex length {}", text.len()));
    }
    let digits = text.as_bytes();
    let mut out = Vec::with_capacity(digits.len() / 2);
    for pair in digits.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16).ok_or_else(|| "bad hex digit".to_string())?;
        let lo = (pair[1] as char).to_digit(16).ok_or_else(|| "bad hex digit".to_string())?;
        out.push(((hi << 4) | lo) as u8);
    }
    Ok(out)
}

/// Serializes `entries` and atomically publishes them at `path`
/// (write-to-temp + fsync + rename + directory fsync). On any error the
/// previous snapshot at `path`, if one exists, is untouched.
pub fn write_snapshot(path: &Path, entries: &[(CacheKey, CacheEntry)]) -> io::Result<()> {
    let buf = encode_snapshot(entries);

    let tmp = temp_path(path);
    let mut file = File::create(&tmp)?;
    file.write_all(&buf)?;
    if faults::snapshot_fsync_fails() {
        return Err(io::Error::other("fault-inject: snapshot fsync failed"));
    }
    file.sync_all()?;
    drop(file);
    if faults::snapshot_crash_before_rename() {
        // Simulated crash: the temp file exists, the rename never
        // happened. The previous snapshot must remain the visible one.
        return Err(io::Error::other("fault-inject: crashed between temp write and rename"));
    }
    fs::rename(&tmp, path)?;
    sync_parent_dir(path);
    Ok(())
}

/// Sibling temp path the snapshot is staged at before the rename.
fn temp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Sibling path a failed-verification snapshot is moved to.
fn corrupt_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".corrupt");
    path.with_file_name(name)
}

/// Best-effort durability of the rename itself: fsync the directory so
/// the new directory entry survives a power cut. Failure is ignored —
/// the data file is already synced, and some filesystems refuse
/// directory fsyncs.
fn sync_parent_dir(path: &Path) {
    if let Some(parent) = path.parent() {
        let dir = if parent.as_os_str().is_empty() { Path::new(".") } else { parent };
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
}

/// Loads and fully verifies the snapshot at `path`.
///
/// Never returns partially-verified data: the outcome is the complete
/// entry list, [`LoadOutcome::Missing`], or [`LoadOutcome::Quarantined`]
/// (with the bad file renamed aside so it cannot poison the next boot).
pub fn load_snapshot(path: &Path) -> LoadOutcome {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return LoadOutcome::Missing,
        Err(e) => return quarantine(path, format!("unreadable: {e}")),
    };
    match decode_snapshot(&bytes) {
        Ok(entries) => LoadOutcome::Loaded(entries),
        Err(reason) => quarantine(path, reason),
    }
}

fn quarantine(path: &Path, reason: String) -> LoadOutcome {
    let target = corrupt_path(path);
    let moved_to = fs::rename(path, &target).is_ok().then_some(target);
    LoadOutcome::Quarantined { reason, moved_to }
}

/// Fully verifies and deserializes a `COQLSNP1` byte stream: the inverse
/// of [`encode_snapshot`], all-or-nothing. [`peek_header`] checks the
/// magic, header CRC and declared length; this build's versions are then
/// enforced, and any record CRC or out-of-range field rejects the whole
/// payload — no entry from a bad stream is ever returned. Version-1
/// streams (pre-certificate layout) decode with `cert = None`.
pub fn decode_snapshot(bytes: &[u8]) -> Result<Vec<(CacheKey, CacheEntry)>, String> {
    let header = peek_header(bytes)?;
    let format = header.format_version;
    if format != 1 && format != FORMAT_VERSION {
        return Err(format!("format version {format}, expected {FORMAT_VERSION} (or legacy 1)"));
    }
    let fp_version = header.fingerprint_version;
    if fp_version != FINGERPRINT_VERSION {
        return Err(format!(
            "fingerprint version {fp_version}, expected {FINGERPRINT_VERSION} \
             (stale snapshot from an incompatible build)"
        ));
    }
    let count = header.entries;
    if format == 1 {
        let mut entries = Vec::with_capacity(count as usize);
        for (i, record) in bytes[HEADER_LEN..].chunks_exact(V1_RECORD_LEN).enumerate() {
            let stored_crc =
                u32::from_le_bytes(record[FIXED_LEN..V1_RECORD_LEN].try_into().unwrap());
            if stored_crc != crc32(&record[..FIXED_LEN]) {
                return Err(format!("record {i} CRC mismatch"));
            }
            let (key, analysis) = parse_fixed(record, i as u64)?;
            entries.push((key, CacheEntry { analysis, cert: None }));
        }
        return Ok(entries);
    }
    // Version 2: variable-length records walked with a cursor.
    let mut entries = Vec::with_capacity(count.min(1 << 20) as usize);
    let mut off = HEADER_LEN;
    for i in 0..count {
        if bytes.len() - off < FIXED_LEN + 4 {
            return Err(format!("record {i}: truncated ({} bytes left)", bytes.len() - off));
        }
        let cert_len =
            u32::from_le_bytes(bytes[off + FIXED_LEN..off + FIXED_LEN + 4].try_into().unwrap())
                as usize;
        if cert_len > MAX_CERT_LEN {
            return Err(format!("record {i}: absurd certificate length {cert_len}"));
        }
        let payload_len = FIXED_LEN + 4 + cert_len;
        if bytes.len() - off < payload_len + 4 {
            return Err(format!("record {i}: truncated ({} bytes left)", bytes.len() - off));
        }
        let record = &bytes[off..off + payload_len + 4];
        let stored_crc = u32::from_le_bytes(record[payload_len..].try_into().unwrap());
        if stored_crc != crc32(&record[..payload_len]) {
            return Err(format!("record {i} CRC mismatch"));
        }
        let (key, analysis) = parse_fixed(record, i)?;
        let cert = if cert_len == 0 {
            None
        } else {
            let text = std::str::from_utf8(&record[FIXED_LEN + 4..payload_len])
                .map_err(|_| format!("record {i}: certificate is not UTF-8"))?;
            Some(text.to_string())
        };
        entries.push((key, CacheEntry { analysis, cert }));
        off += payload_len + 4;
    }
    if off != bytes.len() {
        return Err(format!(
            "length mismatch: {} trailing bytes after {count} records",
            bytes.len() - off
        ));
    }
    Ok(entries)
}

/// Decodes the 74-byte fixed payload shared by both record layouts.
fn parse_fixed(record: &[u8], i: u64) -> Result<(CacheKey, ContainmentAnalysis), String> {
    let key = CacheKey {
        q1: Fingerprint(u128::from_le_bytes(record[0..16].try_into().unwrap())),
        q2: Fingerprint(u128::from_le_bytes(record[16..32].try_into().unwrap())),
        schema: Fingerprint(u128::from_le_bytes(record[32..48].try_into().unwrap())),
    };
    let holds = match record[48] {
        0 => false,
        1 => true,
        other => return Err(format!("record {i}: bad holds byte {other}")),
    };
    let path = match record[49] {
        0 => DecisionPath::FlatClassical,
        1 => DecisionPath::NoEmptySets,
        2 => DecisionPath::Full,
        other => return Err(format!("record {i}: bad path byte {other}")),
    };
    let depth = u64::from_le_bytes(record[50..58].try_into().unwrap()) as usize;
    let set_nodes = (
        u64::from_le_bytes(record[58..66].try_into().unwrap()) as usize,
        u64::from_le_bytes(record[66..74].try_into().unwrap()) as usize,
    );
    Ok((key, ContainmentAnalysis { holds, path, depth, set_nodes }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(i: u128, holds: bool) -> (CacheKey, CacheEntry) {
        (
            CacheKey {
                q1: Fingerprint(i),
                q2: Fingerprint(i.wrapping_mul(31)),
                schema: Fingerprint(7),
            },
            CacheEntry {
                analysis: ContainmentAnalysis {
                    holds,
                    path: DecisionPath::Full,
                    depth: 2,
                    set_nodes: (3, 4),
                },
                cert: None,
            },
        )
    }

    fn entry_with_cert(i: u128, holds: bool, cert: &str) -> (CacheKey, CacheEntry) {
        let (key, mut e) = entry(i, holds);
        e.cert = Some(cert.to_string());
        (key, e)
    }

    /// Re-encodes `entries` in the legacy version-1 fixed-record layout
    /// (what pre-certificate builds wrote to disk).
    fn encode_v1(entries: &[(CacheKey, CacheEntry)]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&FINGERPRINT_VERSION.to_le_bytes());
        buf.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        let header_crc = crc32(&buf);
        buf.extend_from_slice(&header_crc.to_le_bytes());
        for (key, e) in entries {
            let start = buf.len();
            buf.extend_from_slice(&key.q1.0.to_le_bytes());
            buf.extend_from_slice(&key.q2.0.to_le_bytes());
            buf.extend_from_slice(&key.schema.0.to_le_bytes());
            buf.push(e.analysis.holds as u8);
            buf.push(path_index(e.analysis.path) as u8);
            buf.extend_from_slice(&(e.analysis.depth as u64).to_le_bytes());
            buf.extend_from_slice(&(e.analysis.set_nodes.0 as u64).to_le_bytes());
            buf.extend_from_slice(&(e.analysis.set_nodes.1 as u64).to_le_bytes());
            let record_crc = crc32(&buf[start..]);
            buf.extend_from_slice(&record_crc.to_le_bytes());
        }
        buf
    }

    fn tempdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("coql-snap-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_preserves_every_entry() {
        let dir = tempdir("roundtrip");
        let path = dir.join("cache.snap");
        let entries: Vec<_> = (0..100)
            .map(|i| {
                if i % 4 == 0 {
                    entry_with_cert(i, i % 3 == 0, &format!("COCERT1 demo {i}\nCOCERTEND\n"))
                } else {
                    entry(i, i % 3 == 0)
                }
            })
            .collect();
        write_snapshot(&path, &entries).unwrap();
        let LoadOutcome::Loaded(loaded) = load_snapshot(&path) else {
            panic!("expected a clean load");
        };
        assert_eq!(loaded, entries);
        // No temp file left behind.
        assert!(!temp_path(&path).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_v1_snapshots_decode_without_certificates() {
        let entries: Vec<_> = (0..9).map(|i| entry(i, i % 2 == 0)).collect();
        let v1 = encode_v1(&entries);
        let decoded = decode_snapshot(&v1).unwrap();
        assert_eq!(decoded, entries);
        assert!(decoded.iter().all(|(_, e)| e.cert.is_none()));
        let header = peek_header(&v1).unwrap();
        assert_eq!(header.format_version, 1);
        assert_eq!(header.entries, 9);
        // A truncated v1 stream still fails the exact-length check.
        assert!(decode_snapshot(&v1[..v1.len() - 3]).is_err());
        assert!(peek_header(&v1[..v1.len() - 3]).is_err());
    }

    #[test]
    fn missing_file_is_a_cold_start() {
        let dir = tempdir("missing");
        assert!(matches!(load_snapshot(&dir.join("nope.snap")), LoadOutcome::Missing));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bitflip_anywhere_quarantines_the_file() {
        let dir = tempdir("bitflip");
        let cert_text = "COCERT1 demo\nCOCERTEND\n";
        let entries: Vec<_> = (0..10).map(|i| entry_with_cert(i, true, cert_text)).collect();
        // Flip one bit at several positions: header, key bytes, the
        // verdict byte itself, the cert-length field, certificate text,
        // and a CRC byte.
        let record_len = V2_MIN_RECORD_LEN + cert_text.len();
        let probe = [
            0usize,
            9,
            20,
            HEADER_LEN + 5,
            HEADER_LEN + 48,
            HEADER_LEN + 75,             // cert_len field
            HEADER_LEN + 80,             // inside the certificate text
            HEADER_LEN + record_len - 2, // record CRC
        ];
        for (case, &pos) in probe.iter().enumerate() {
            let path = dir.join(format!("cache-{case}.snap"));
            write_snapshot(&path, &entries).unwrap();
            let mut bytes = fs::read(&path).unwrap();
            bytes[pos] ^= 0x40;
            fs::write(&path, &bytes).unwrap();
            match load_snapshot(&path) {
                LoadOutcome::Quarantined { moved_to, .. } => {
                    assert!(!path.exists(), "byte {pos}: bad file must be moved aside");
                    assert!(moved_to.is_some_and(|p| p.exists()), "byte {pos}");
                }
                other => panic!("byte {pos}: expected quarantine, got {other:?}"),
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_quarantines_the_file() {
        let dir = tempdir("truncate");
        let path = dir.join("cache.snap");
        write_snapshot(&path, &(0..10).map(|i| entry(i, true)).collect::<Vec<_>>()).unwrap();
        let bytes = fs::read(&path).unwrap();
        // Mid-record truncation (as if the writer died without the
        // atomic rename protocol) and mid-header truncation.
        for cut in [bytes.len() - 30, HEADER_LEN / 2] {
            fs::write(&path, &bytes[..cut]).unwrap();
            assert!(
                matches!(load_snapshot(&path), LoadOutcome::Quarantined { .. }),
                "cut at {cut}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_versions_are_rejected() {
        let dir = tempdir("versions");
        let path = dir.join("cache.snap");
        write_snapshot(&path, &[entry(1, true)]).unwrap();
        let pristine = fs::read(&path).unwrap();
        // Patch each version field (and re-seal the header CRC so only
        // the version mismatch can be the rejection reason).
        for field in [8usize, 12] {
            let mut bytes = pristine.clone();
            bytes[field] = bytes[field].wrapping_add(1);
            let reseal = crc32(&bytes[..24]).to_le_bytes();
            bytes[24..28].copy_from_slice(&reseal);
            fs::write(&path, &bytes).unwrap();
            match load_snapshot(&path) {
                LoadOutcome::Quarantined { reason, .. } => {
                    assert!(reason.contains("version"), "field {field}: {reason}");
                }
                other => panic!("field {field}: expected quarantine, got {other:?}"),
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn encode_decode_roundtrip_and_header_peek() {
        let entries: Vec<_> = (0..7).map(|i| entry(i, i % 2 == 0)).collect();
        let bytes = encode_snapshot(&entries);
        assert_eq!(decode_snapshot(&bytes).unwrap(), entries);
        let header = peek_header(&bytes).unwrap();
        assert_eq!(header.format_version, FORMAT_VERSION);
        assert_eq!(header.fingerprint_version, FINGERPRINT_VERSION);
        assert_eq!(header.entries, 7);
        // peek reports foreign versions instead of rejecting them…
        let mut skewed = bytes.clone();
        skewed[8] = skewed[8].wrapping_add(1);
        let reseal = crc32(&skewed[..24]).to_le_bytes();
        skewed[24..28].copy_from_slice(&reseal);
        assert_eq!(peek_header(&skewed).unwrap().format_version, FORMAT_VERSION + 1);
        // …while decode still refuses them wholesale.
        assert!(decode_snapshot(&skewed).unwrap_err().contains("version"));
        // A corrupt header CRC fails even the peek.
        let mut torn = bytes.clone();
        torn[25] ^= 0xff;
        assert!(peek_header(&torn).is_err());
        assert!(peek_header(&bytes[..10]).is_err());
    }

    #[test]
    fn absurd_cert_length_is_rejected_before_allocating() {
        let entries = vec![entry_with_cert(1, true, "COCERT1 x\nCOCERTEND\n")];
        let mut bytes = encode_snapshot(&entries);
        // Claim a multi-gigabyte certificate; the declared length exceeds
        // the cap, so parsing must fail fast on the length, not the CRC.
        bytes[HEADER_LEN + FIXED_LEN..HEADER_LEN + FIXED_LEN + 4]
            .copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_snapshot(&bytes).unwrap_err();
        assert!(err.contains("certificate length"), "{err}");
    }

    #[test]
    fn hex_roundtrip_rejects_garbage() {
        let bytes = encode_snapshot(&[entry(3, true)]);
        let hex = to_hex(&bytes);
        assert_eq!(from_hex(&hex).unwrap(), bytes);
        assert_eq!(from_hex("00ff10").unwrap(), vec![0x00, 0xff, 0x10]);
        assert!(from_hex("abc").is_err(), "odd length");
        assert!(from_hex("zz").is_err(), "non-hex digit");
        assert_eq!(from_hex("").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn rewrite_replaces_atomically() {
        let dir = tempdir("rewrite");
        let path = dir.join("cache.snap");
        write_snapshot(&path, &[entry(1, true)]).unwrap();
        write_snapshot(&path, &(0..5).map(|i| entry(i, false)).collect::<Vec<_>>()).unwrap();
        let LoadOutcome::Loaded(loaded) = load_snapshot(&path) else {
            panic!("expected a clean load");
        };
        assert_eq!(loaded.len(), 5);
        assert!(loaded.iter().all(|(_, e)| !e.analysis.holds));
        let _ = fs::remove_dir_all(&dir);
    }
}
