//! The `.pacst` corpus store — a binary, offset-indexed, single-file
//! store for ETC instances, engine checkpoints, and digest-keyed
//! best-schedule records.
//!
//! The on-disk layout is **normative** and specified byte-by-byte in
//! `FORMAT.md` at the repo root; every field there is asserted by the
//! round-trip/corruption suite (`crates/service/tests/store_format.rs`).
//! Summary:
//!
//! ```text
//! [ header 32 B ][ section payloads ... ][ section table ][ trailer 16 B ]
//! ```
//!
//! All integers are **little-endian**. Data sections hold CRC-32-framed
//! records; two hash-index sections (open addressing, linear probing)
//! map an FNV-1a name/digest key to the absolute file offset of its
//! record, so a lookup over any `Read + Seek` handle is O(1) seeks
//! regardless of corpus size — open reads the fixed header, the section
//! table and the (small) indexes; each `get_*` is one seek + one framed
//! read, no text parse. A full scan (`bests`, `verify`, ...) is one seek
//! per section followed by sequential reads.
//!
//! Writing: `add_*` encodes a new record into the [`StoreBuilder`].
//! [`StoreReader::to_builder`] (the daemon's drain) validates each
//! stored record and keeps only where its frame lies in the file; the
//! write copies each such body from that file through a fixed-size
//! buffer and checks its CRC again on the way. So a merge re-encodes
//! nothing it read and holds no stored body in memory. One layout
//! routine streams the image: [`StoreBuilder::write`] sends it straight
//! into the atomic write, and [`StoreBuilder::encode`] into a `Vec`.
//!
//! Durability: files are written in one [`pa_cga_core::fsx`] atomic
//! write (tmp + fsync + rename), so a crash mid-write leaves the old
//! corpus or the new one, never a hybrid. Corruption of any byte is
//! caught by the per-record CRC (or the header/table CRCs in the
//! trailer) and surfaces as a typed [`StoreError`] — this module never
//! panics on untrusted bytes (audit rule A2 is machine-enforced here).

use crate::cache::CachedRun;
use crate::protocol::Fnv1a;
use etc_model::binary::{check_instance, decode_instance, encode_instance};
use etc_model::EtcInstance;
use pa_cga_core::checkpoint::Crc32;
use parking_lot::{Mutex, MutexGuard};
use std::collections::hash_map::{Entry, HashMap};
use std::hash::Hash;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

/// File magic: `\x89` (catches 7-bit transports) + `PACST` + `\r\n`
/// (catches newline translation), PNG-style.
pub const MAGIC: [u8; 8] = [0x89, b'P', b'A', b'C', b'S', b'T', 0x0D, 0x0A];
/// Trailer end magic, proving the file was not truncated.
pub const END_MAGIC: [u8; 8] = *b"PACSTEND";
/// Current (and only) format version.
pub const VERSION: u16 = 1;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 32;
/// Fixed trailer size in bytes.
pub const TRAILER_LEN: usize = 16;
/// One section-table entry: kind u32, reserved u32, offset u64, len u64.
pub const SECTION_ENTRY_LEN: usize = 24;

/// Section kind: ETC instance records.
pub const SECTION_INSTANCES: u32 = 1;
/// Section kind: digest-keyed best-schedule records.
pub const SECTION_BESTS: u32 = 2;
/// Section kind: named engine-checkpoint records (opaque payloads in
/// the `pa_cga_core::checkpoint` v2 format).
pub const SECTION_CHECKPOINTS: u32 = 3;
/// Section kind: hash index name → instance-record offset.
pub const SECTION_INSTANCE_INDEX: u32 = 4;
/// Section kind: hash index digest → best-record offset.
pub const SECTION_BEST_INDEX: u32 = 5;

/// Empty-bucket sentinel in the hash indexes (an offset no record can
/// have — records live strictly inside the file).
pub const EMPTY_BUCKET: u64 = u64::MAX;

/// Why a store operation failed. Typed, never a panic: corrupt or
/// truncated input must degrade into an error the daemon can report.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file ended before the named structure.
    Truncated(&'static str),
    /// The leading magic bytes are not a `.pacst` header.
    BadMagic,
    /// The header names a format version this reader does not speak.
    UnsupportedVersion(u16),
    /// A CRC-32 check failed (stored vs computed).
    Crc {
        /// Which structure failed its checksum.
        what: String,
        /// The checksum the file recorded.
        stored: u32,
        /// The checksum the bytes actually have.
        computed: u32,
    },
    /// Structurally invalid contents (bad offsets, bad record shape).
    Corrupt(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "I/O error: {e}"),
            StoreError::Truncated(what) => write!(f, "truncated before {what}"),
            StoreError::BadMagic => write!(f, "not a .pacst file (bad magic)"),
            StoreError::UnsupportedVersion(v) => {
                write!(f, "unsupported .pacst version {v} (reader speaks {VERSION})")
            }
            StoreError::Crc { what, stored, computed } => {
                write!(f, "CRC mismatch in {what}: stored {stored:08x}, computed {computed:08x}")
            }
            StoreError::Corrupt(m) => write!(f, "corrupt store: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// The FNV-1a key of an instance name — the instance-index hash key.
pub fn name_key(name: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write_bytes(name.as_bytes());
    h.finish()
}

// ---------------------------------------------------------------------
// Little-endian slice accessors (bounds-checked; no indexing — A2).
// ---------------------------------------------------------------------

fn bytes_at<const N: usize>(
    buf: &[u8],
    off: usize,
    what: &'static str,
) -> Result<[u8; N], StoreError> {
    let end = off.checked_add(N).ok_or(StoreError::Truncated(what))?;
    let slice = buf.get(off..end).ok_or(StoreError::Truncated(what))?;
    slice.try_into().map_err(|_| StoreError::Truncated(what))
}

fn u16_at(buf: &[u8], off: usize, what: &'static str) -> Result<u16, StoreError> {
    Ok(u16::from_le_bytes(bytes_at(buf, off, what)?))
}

fn u32_at(buf: &[u8], off: usize, what: &'static str) -> Result<u32, StoreError> {
    Ok(u32::from_le_bytes(bytes_at(buf, off, what)?))
}

fn u64_at(buf: &[u8], off: usize, what: &'static str) -> Result<u64, StoreError> {
    Ok(u64::from_le_bytes(bytes_at(buf, off, what)?))
}

fn f64_at(buf: &[u8], off: usize, what: &'static str) -> Result<f64, StoreError> {
    Ok(f64::from_le_bytes(bytes_at(buf, off, what)?))
}

// ---------------------------------------------------------------------
// Best-schedule record codec (FORMAT.md §5.2).
// ---------------------------------------------------------------------

fn encode_best(digest: u64, run: &CachedRun) -> Result<Vec<u8>, StoreError> {
    let name = run.instance.as_bytes();
    let name_len = u16::try_from(name.len()).map_err(|_| {
        StoreError::Corrupt(format!("instance name of {} bytes exceeds u16", name.len()))
    })?;
    let mut out = Vec::with_capacity(42 + name.len() + 4 * run.assignment.len());
    out.extend_from_slice(&digest.to_le_bytes());
    out.extend_from_slice(&name_len.to_le_bytes());
    out.extend_from_slice(name);
    out.extend_from_slice(&(run.n_tasks as u32).to_le_bytes());
    out.extend_from_slice(&(run.n_machines as u32).to_le_bytes());
    out.extend_from_slice(&run.makespan.to_le_bytes());
    out.extend_from_slice(&run.evaluations.to_le_bytes());
    out.extend_from_slice(&run.engine_ms.to_le_bytes());
    for &m in &run.assignment {
        out.extend_from_slice(&m.to_le_bytes());
    }
    Ok(out)
}

fn decode_best(body: &[u8]) -> Result<(u64, CachedRun), StoreError> {
    let digest = u64_at(body, 0, "best.digest")?;
    let name_len = u16_at(body, 8, "best.name_len")? as usize;
    let name_end = 10usize.checked_add(name_len).ok_or(StoreError::Truncated("best.name"))?;
    let name_bytes = body.get(10..name_end).ok_or(StoreError::Truncated("best.name"))?;
    let instance = std::str::from_utf8(name_bytes)
        .map_err(|e| StoreError::Corrupt(format!("best record name not UTF-8: {e}")))?
        .to_string();
    let n_tasks = u32_at(body, name_end, "best.n_tasks")? as usize;
    let n_machines = u32_at(body, name_end + 4, "best.n_machines")? as usize;
    let makespan = f64_at(body, name_end + 8, "best.makespan")?;
    let evaluations = u64_at(body, name_end + 16, "best.evaluations")?;
    let engine_ms = f64_at(body, name_end + 24, "best.engine_ms")?;
    if n_machines == 0 {
        return Err(StoreError::Corrupt("best record with zero machines".into()));
    }
    if !makespan.is_finite() || !engine_ms.is_finite() {
        return Err(StoreError::Corrupt(format!(
            "best record with non-finite makespan {makespan} / engine_ms {engine_ms}"
        )));
    }
    let expected = name_end
        .checked_add(32)
        .and_then(|n| n.checked_add(n_tasks.checked_mul(4)?))
        .ok_or_else(|| StoreError::Corrupt(format!("best record shape overflows: {n_tasks}")))?;
    if body.len() != expected {
        return Err(StoreError::Corrupt(format!(
            "best record is {} bytes, {n_tasks} tasks need {expected}",
            body.len()
        )));
    }
    let assignment_bytes =
        body.get(name_end + 32..).ok_or(StoreError::Truncated("best.assignment"))?;
    let mut assignment = Vec::with_capacity(n_tasks);
    for chunk in assignment_bytes.chunks_exact(4) {
        let m =
            u32::from_le_bytes(chunk.try_into().map_err(|_| StoreError::Truncated("best.gene"))?);
        if (m as usize) >= n_machines {
            return Err(StoreError::Corrupt(format!(
                "best record assigns machine {m} of {n_machines}"
            )));
        }
        assignment.push(m);
    }
    Ok((
        digest,
        CachedRun { instance, n_tasks, n_machines, makespan, evaluations, engine_ms, assignment },
    ))
}

// ---------------------------------------------------------------------
// Checkpoint record codec (FORMAT.md §5.3).
// ---------------------------------------------------------------------

fn encode_checkpoint(name: &str, payload: &[u8]) -> Result<Vec<u8>, StoreError> {
    let name_len = u16::try_from(name.len()).map_err(|_| {
        StoreError::Corrupt(format!("checkpoint name of {} bytes exceeds u16", name.len()))
    })?;
    let payload_len = u32::try_from(payload.len()).map_err(|_| {
        StoreError::Corrupt(format!("checkpoint payload of {} bytes exceeds u32", payload.len()))
    })?;
    let mut out = Vec::with_capacity(6 + name.len() + payload.len());
    out.extend_from_slice(&name_len.to_le_bytes());
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(&payload_len.to_le_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

fn decode_checkpoint(body: &[u8]) -> Result<(&str, &[u8]), StoreError> {
    let name_len = u16_at(body, 0, "checkpoint.name_len")? as usize;
    let name_end = 2usize.checked_add(name_len).ok_or(StoreError::Truncated("checkpoint.name"))?;
    let name_bytes = body.get(2..name_end).ok_or(StoreError::Truncated("checkpoint.name"))?;
    let name = std::str::from_utf8(name_bytes)
        .map_err(|e| StoreError::Corrupt(format!("checkpoint name not UTF-8: {e}")))?;
    let payload_len = u32_at(body, name_end, "checkpoint.payload_len")? as usize;
    let payload_end = name_end
        .checked_add(4)
        .and_then(|n| n.checked_add(payload_len))
        .ok_or(StoreError::Truncated("checkpoint.payload"))?;
    if body.len() != payload_end {
        return Err(StoreError::Corrupt(format!(
            "checkpoint record is {} bytes, payload of {payload_len} needs {payload_end}",
            body.len()
        )));
    }
    let payload =
        body.get(name_end + 4..payload_end).ok_or(StoreError::Truncated("checkpoint.payload"))?;
    Ok((name, payload))
}

// ---------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------

/// A builder's record body.
enum Body {
    /// Encoded by an `add_*` call.
    Owned(Vec<u8>),
    /// Kept by [`StoreReader::to_builder`]: the frame at `offset` in the
    /// builder's source, with the length and CRC its validating read
    /// found there. The body is copied from the source, and its CRC
    /// computed again, when the image is written.
    Stored { offset: u64, len: u32, crc: u32 },
}

impl Body {
    fn len(&self) -> u64 {
        match self {
            Body::Owned(bytes) => bytes.len() as u64,
            Body::Stored { len, .. } => u64::from(*len),
        }
    }
}

/// One section's record bodies in first-seen key order, with a key →
/// position map so replacing a record is one lookup, not a scan.
#[derive(Default)]
struct Records<K> {
    list: Vec<(K, Body)>,
    slots: HashMap<K, usize>,
}

impl<K> Records<K> {
    /// Section payload bytes: the count, then one frame per record.
    fn payload_len(&self) -> u64 {
        8 + self.list.iter().map(|(_, body)| 8 + body.len()).sum::<u64>()
    }

    /// (index key, absolute frame offset) of every record, for a section
    /// whose payload starts at `start`.
    fn index_entries(&self, start: u64, key: impl Fn(&K) -> u64) -> Vec<(u64, u64)> {
        let mut at = start + 8;
        let mut entries = Vec::with_capacity(self.list.len());
        for (k, body) in &self.list {
            entries.push((key(k), at));
            at += 8 + body.len();
        }
        entries
    }

    /// Writes the section payload: the count, then each body framed by
    /// its length and CRC-32. Stored bodies come through `copier`.
    fn write_payload(
        &self,
        out: &mut dyn Write,
        copier: &mut Copier<'_>,
        what: &'static str,
    ) -> Result<(), StoreError> {
        out.write_all(&(self.list.len() as u64).to_le_bytes())?;
        for (_, body) in &self.list {
            match body {
                Body::Owned(bytes) => {
                    out.write_all(&(bytes.len() as u32).to_le_bytes())?;
                    out.write_all(&Crc32::of(bytes).to_le_bytes())?;
                    out.write_all(bytes)?;
                }
                &Body::Stored { offset, len, crc } => copier.copy(offset, len, crc, out, what)?,
            }
        }
        Ok(())
    }
}

/// Adds `body` under `key`, or replaces the body of the record already
/// under `key` in its first-seen position.
fn upsert<K: Clone + Eq + Hash>(records: &mut Records<K>, key: K, body: Body) {
    match records.slots.entry(key) {
        Entry::Occupied(slot) => {
            if let Some(record) = records.list.get_mut(*slot.get()) {
                record.1 = body;
            }
        }
        Entry::Vacant(slot) => {
            records.list.push((slot.key().clone(), body));
            slot.insert(records.list.len() - 1);
        }
    }
}

/// What a builder copies its stored records from: the handle of the
/// reader that made it, shared with that reader.
trait Source: Read + Seek + Send {}

impl<T: Read + Seek + Send> Source for T {}

/// Bytes moved per read when a stored body is copied into an image.
const COPY_CHUNK: usize = 64 * 1024;

/// Copies stored frames from the source into an image through one
/// fixed-size buffer, checking each against what the validating read
/// kept.
struct Copier<'a> {
    source: Option<MutexGuard<'a, dyn Source + 'static>>,
    /// The source's read position when it is known: frames kept in file
    /// order are read back to back, with no seek between them.
    at: Option<u64>,
    chunk: Vec<u8>,
}

impl Copier<'_> {
    fn copy(
        &mut self,
        offset: u64,
        len: u32,
        crc: u32,
        out: &mut dyn Write,
        what: &'static str,
    ) -> Result<(), StoreError> {
        let source = self
            .source
            .as_deref_mut()
            .ok_or_else(|| StoreError::Corrupt(format!("{what} at {offset} has no source")))?;
        if self.at != Some(offset) {
            source.seek(SeekFrom::Start(offset))?;
        }
        self.at = None;
        let mut frame = [0u8; 8];
        read_exact_into(source, &mut frame, what)?;
        if u32_at(&frame, 0, what)? != len || u32_at(&frame, 4, what)? != crc {
            return Err(StoreError::Corrupt(format!(
                "{what} at {offset} changed since it was read"
            )));
        }
        out.write_all(&frame)?;
        if self.chunk.is_empty() {
            self.chunk.resize(COPY_CHUNK, 0);
        }
        let mut computed = Crc32::new();
        let mut left = len as usize;
        while left > 0 {
            let part =
                self.chunk.get_mut(..left.min(COPY_CHUNK)).ok_or(StoreError::Truncated(what))?;
            read_exact_into(source, part, what)?;
            computed.update(part);
            out.write_all(part)?;
            left -= part.len();
        }
        let computed = computed.finish();
        if computed != crc {
            return Err(StoreError::Crc { what: what.into(), stored: crc, computed });
        }
        self.at = Some(offset + 8 + u64::from(len));
        Ok(())
    }
}

/// Accumulates records and serializes them into one `.pacst` file.
///
/// Adding a record whose key (instance name / digest / checkpoint name)
/// is already present **replaces** the earlier record in its position,
/// so merging an existing corpus with fresh results is
/// load-into-builder + add + write. Records added through `add_*` are
/// held as encoded bodies; records kept by [`StoreReader::to_builder`]
/// are held as frame positions in the file it read, and their bodies are
/// copied from there when the image is written.
#[derive(Default)]
pub struct StoreBuilder {
    instances: Records<String>,
    bests: Records<u64>,
    checkpoints: Records<String>,
    /// The handle stored records are copied from; set by `to_builder`.
    source: Option<Arc<Mutex<dyn Source>>>,
}

impl StoreBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces, by name) an ETC instance record.
    pub fn add_instance(&mut self, instance: &EtcInstance) -> Result<(), StoreError> {
        let body = encode_instance(instance)
            .map_err(|e| StoreError::Corrupt(format!("unencodable instance: {e}")))?;
        upsert(&mut self.instances, instance.name().to_string(), Body::Owned(body));
        Ok(())
    }

    /// Adds (or replaces, by digest) a best-schedule record.
    pub fn add_best(&mut self, digest: u64, run: &CachedRun) -> Result<(), StoreError> {
        let body = encode_best(digest, run)?;
        upsert(&mut self.bests, digest, Body::Owned(body));
        Ok(())
    }

    /// Adds (or replaces, by name) an engine checkpoint record. The
    /// payload is opaque to the store — by convention it is the
    /// `pa_cga_core::checkpoint` v2 text format, which carries its own
    /// trailing CRC on top of the store's record CRC.
    pub fn add_checkpoint(&mut self, name: &str, payload: &[u8]) -> Result<(), StoreError> {
        let body = encode_checkpoint(name, payload)?;
        upsert(&mut self.checkpoints, name.to_string(), Body::Owned(body));
        Ok(())
    }

    /// Instance records staged.
    pub fn instance_count(&self) -> usize {
        self.instances.list.len()
    }

    /// Best-schedule records staged.
    pub fn best_count(&self) -> usize {
        self.bests.list.len()
    }

    /// Checkpoint records staged.
    pub fn checkpoint_count(&self) -> usize {
        self.checkpoints.list.len()
    }

    /// Serializes the full `.pacst` file image. If a stored record cannot
    /// be copied from the file [`StoreReader::to_builder`] read (it
    /// changed or became unreadable since), the image stops short there
    /// and no reader opens it; [`write`](Self::write) reports that error.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let _ = self.write_image(&mut out);
        out
    }

    /// Writes the store to `path` through the fsx atomic-write protocol
    /// (tmp + fsync + rename): a crash leaves the old corpus or the new
    /// one, never a torn hybrid. The image is streamed into the temp
    /// file as it is laid out; no copy of it is held in memory. A stored
    /// record whose bytes no longer match what `to_builder` read fails
    /// the write (a [`StoreError::Crc`] for a changed body), and the file
    /// at `path` is left as it was.
    pub fn write(&self, path: &Path) -> Result<(), StoreError> {
        let mut failed = None;
        let written = pa_cga_core::fsx::atomic_write_with(path, |out| {
            self.write_image(out).map_err(|e| {
                let io = std::io::Error::other(e.to_string());
                failed = Some(e);
                io
            })
        });
        match (written, failed) {
            (Ok(()), _) => Ok(()),
            (Err(_), Some(e)) => Err(e),
            (Err(e), None) => Err(e.into()),
        }
    }

    /// The one layout routine behind [`encode`](Self::encode) and
    /// [`write`](Self::write): header, the instance, best and checkpoint
    /// sections, the two indexes, the section table and the trailer, in
    /// file order. Every offset follows from the body lengths, so the
    /// small parts are built first and each body is written once.
    fn write_image(&self, out: &mut dyn Write) -> Result<(), StoreError> {
        let instances_at = HEADER_LEN as u64;
        let bests_at = instances_at + self.instances.payload_len();
        let instance_index =
            encode_index(&self.instances.index_entries(instances_at, |n| name_key(n)));
        let best_index = encode_index(&self.bests.index_entries(bests_at, |d| *d));
        let sections = [
            (SECTION_INSTANCES, self.instances.payload_len()),
            (SECTION_BESTS, self.bests.payload_len()),
            (SECTION_CHECKPOINTS, self.checkpoints.payload_len()),
            (SECTION_INSTANCE_INDEX, instance_index.len() as u64),
            (SECTION_BEST_INDEX, best_index.len() as u64),
        ];

        let mut table = Vec::with_capacity(sections.len() * SECTION_ENTRY_LEN);
        let mut offset = HEADER_LEN as u64;
        for (kind, len) in sections {
            table.extend_from_slice(&kind.to_le_bytes());
            table.extend_from_slice(&0u32.to_le_bytes()); // reserved
            table.extend_from_slice(&offset.to_le_bytes());
            table.extend_from_slice(&len.to_le_bytes());
            offset += len;
        }
        let table_offset = offset;
        let file_len = table_offset + table.len() as u64 + TRAILER_LEN as u64;

        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&0u16.to_le_bytes()); // flags (reserved)
        header.extend_from_slice(&(sections.len() as u32).to_le_bytes());
        header.extend_from_slice(&table_offset.to_le_bytes());
        header.extend_from_slice(&file_len.to_le_bytes());

        let mut copier = Copier {
            source: self.source.as_ref().map(|source| source.lock()),
            at: None,
            chunk: Vec::new(),
        };
        out.write_all(&header)?;
        self.instances.write_payload(out, &mut copier, "instance record")?;
        self.bests.write_payload(out, &mut copier, "best record")?;
        self.checkpoints.write_payload(out, &mut copier, "checkpoint record")?;
        out.write_all(&instance_index)?;
        out.write_all(&best_index)?;
        out.write_all(&table)?;
        out.write_all(&Crc32::of(&header).to_le_bytes())?;
        out.write_all(&Crc32::of(&table).to_le_bytes())?;
        out.write_all(&END_MAGIC)?;
        Ok(())
    }
}

/// Open-addressed index: `bucket_count` u64, then `bucket_count` pairs
/// of (key u64, offset u64); empty buckets carry [`EMPTY_BUCKET`].
fn encode_index(entries: &[(u64, u64)]) -> Vec<u8> {
    let buckets = entries.len().saturating_mul(2).next_power_of_two().max(8);
    let mut table: Vec<(u64, u64)> = vec![(0, EMPTY_BUCKET); buckets];
    let mask = buckets - 1;
    for &(key, offset) in entries {
        let mut slot = (key as usize) & mask;
        // The table is at most half full, so an empty bucket exists.
        for _ in 0..buckets {
            match table.get_mut(slot) {
                Some(b) if b.1 == EMPTY_BUCKET => {
                    *b = (key, offset);
                    break;
                }
                _ => slot = (slot + 1) & mask,
            }
        }
    }
    let mut out = Vec::with_capacity(8 + 16 * buckets);
    out.extend_from_slice(&(buckets as u64).to_le_bytes());
    for (key, offset) in table {
        out.extend_from_slice(&key.to_le_bytes());
        out.extend_from_slice(&offset.to_le_bytes());
    }
    out
}

// ---------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------

/// One section-table entry, as read from disk. Unknown `kind`s are
/// preserved here and skipped by every read path (forward compat).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Section {
    /// Section kind tag (see the `SECTION_*` constants).
    pub kind: u32,
    /// Absolute file offset of the section payload.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
}

struct HashIndex {
    buckets: Vec<(u64, u64)>,
}

impl HashIndex {
    fn empty() -> Self {
        HashIndex { buckets: Vec::new() }
    }

    fn decode(payload: &[u8], what: &'static str) -> Result<Self, StoreError> {
        let count = u64_at(payload, 0, what)? as usize;
        if !count.is_power_of_two() {
            return Err(StoreError::Corrupt(format!(
                "{what}: bucket count {count} not a power of two"
            )));
        }
        let expected = 8usize
            .checked_add(count.checked_mul(16).ok_or(StoreError::Truncated(what))?)
            .ok_or(StoreError::Truncated(what))?;
        if payload.len() != expected {
            return Err(StoreError::Corrupt(format!(
                "{what}: {count} buckets need {expected} bytes, section has {}",
                payload.len()
            )));
        }
        let body = payload.get(8..).ok_or(StoreError::Truncated(what))?;
        let mut buckets = Vec::with_capacity(count);
        for pair in body.chunks_exact(16) {
            let key = u64_at(pair, 0, what)?;
            let offset = u64_at(pair, 8, what)?;
            buckets.push((key, offset));
        }
        Ok(HashIndex { buckets })
    }

    /// Yields candidate record offsets for `key` in probe order. FNV
    /// collisions are possible, so callers verify the record's own key
    /// and move to the next candidate on mismatch.
    fn candidates(&self, key: u64) -> Vec<u64> {
        let n = self.buckets.len();
        if n == 0 {
            return Vec::new();
        }
        let mask = n - 1;
        let mut out = Vec::new();
        let mut slot = (key as usize) & mask;
        for _ in 0..n {
            match self.buckets.get(slot) {
                Some(&(_, offset)) if offset == EMPTY_BUCKET => break,
                Some(&(k, offset)) => {
                    if k == key {
                        out.push(offset);
                    }
                    slot = (slot + 1) & mask;
                }
                None => break,
            }
        }
        out
    }
}

/// What [`StoreReader::verify`] reports after walking every byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VerifyReport {
    /// Instance records verified (CRC + decode + index resolution).
    pub instances: usize,
    /// Best-schedule records verified.
    pub bests: usize,
    /// Checkpoint records verified.
    pub checkpoints: usize,
    /// Sections with a kind this reader does not know (skipped).
    pub unknown_sections: usize,
}

/// A `.pacst` reader over any `Read + Seek` handle.
///
/// [`StoreReader::open`] validates the header, trailer and section
/// table and loads the hash indexes; after that, [`get_instance`] /
/// [`get_best`] are one seek + one framed read each.
///
/// [`get_instance`]: StoreReader::get_instance
/// [`get_best`]: StoreReader::get_best
pub struct StoreReader<R> {
    /// Shared with every builder [`to_builder`](StoreReader::to_builder)
    /// returns: the builder copies its stored records from it.
    handle: Arc<Mutex<R>>,
    file_len: u64,
    sections: Vec<Section>,
    instance_index: HashIndex,
    best_index: HashIndex,
    instance_count: u64,
    best_count: u64,
    checkpoint_count: u64,
}

impl StoreReader<std::io::BufReader<std::fs::File>> {
    /// Opens a `.pacst` file from disk (buffered).
    pub fn open_path(path: &Path) -> Result<Self, StoreError> {
        let file = std::fs::File::open(path)?;
        StoreReader::open(std::io::BufReader::new(file))
    }
}

impl<R: Read + Seek> StoreReader<R> {
    /// Opens a store: validates magic, version, file length, the
    /// header/table CRCs in the trailer, and loads the hash indexes.
    pub fn open(mut handle: R) -> Result<Self, StoreError> {
        let file_len = handle.seek(SeekFrom::End(0))?;
        if file_len < (HEADER_LEN + TRAILER_LEN) as u64 {
            return Err(StoreError::Truncated("header"));
        }
        let header = read_exact_at(&mut handle, 0, HEADER_LEN, "header")?;
        let magic: [u8; 8] = bytes_at(&header, 0, "magic")?;
        if magic != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = u16_at(&header, 8, "version")?;
        if version != VERSION {
            return Err(StoreError::UnsupportedVersion(version));
        }
        let section_count = u32_at(&header, 12, "section_count")? as usize;
        let table_offset = u64_at(&header, 16, "table_offset")?;
        let stated_len = u64_at(&header, 24, "file_len")?;
        if stated_len != file_len {
            return Err(StoreError::Truncated("end of file"));
        }

        // Trailer: header CRC, table CRC, end magic.
        let trailer =
            read_exact_at(&mut handle, file_len - TRAILER_LEN as u64, TRAILER_LEN, "trailer")?;
        let end_magic: [u8; 8] = bytes_at(&trailer, 8, "end magic")?;
        if end_magic != END_MAGIC {
            return Err(StoreError::Corrupt("end magic missing (torn trailer)".into()));
        }
        let header_crc = u32_at(&trailer, 0, "header crc")?;
        let computed = Crc32::of(&header);
        if header_crc != computed {
            return Err(StoreError::Crc { what: "header".into(), stored: header_crc, computed });
        }

        let table_len = section_count
            .checked_mul(SECTION_ENTRY_LEN)
            .ok_or(StoreError::Corrupt("section count overflows".into()))?;
        let table_end = table_offset
            .checked_add(table_len as u64)
            .ok_or(StoreError::Corrupt("section table overflows".into()))?;
        if table_end > file_len - TRAILER_LEN as u64 {
            return Err(StoreError::Corrupt(format!(
                "section table at {table_offset}+{table_len} overruns the file"
            )));
        }
        let table = read_exact_at(&mut handle, table_offset, table_len, "section table")?;
        let table_crc = u32_at(&trailer, 4, "table crc")?;
        let computed = Crc32::of(&table);
        if table_crc != computed {
            return Err(StoreError::Crc {
                what: "section table".into(),
                stored: table_crc,
                computed,
            });
        }

        let mut sections = Vec::with_capacity(section_count);
        for entry in table.chunks_exact(SECTION_ENTRY_LEN) {
            let kind = u32_at(entry, 0, "section kind")?;
            let offset = u64_at(entry, 8, "section offset")?;
            let len = u64_at(entry, 16, "section len")?;
            let end = offset
                .checked_add(len)
                .ok_or(StoreError::Corrupt("section bounds overflow".into()))?;
            if offset < HEADER_LEN as u64 || end > table_offset {
                return Err(StoreError::Corrupt(format!(
                    "section kind {kind} at {offset}+{len} escapes the data region"
                )));
            }
            sections.push(Section { kind, offset, len });
        }

        let find = |kind: u32| sections.iter().copied().find(|s| s.kind == kind);
        let mut count = |kind: u32, what: &'static str| match find(kind) {
            Some(s) => u64_at(&read_exact_at(&mut handle, s.offset, 8, what)?, 0, what),
            None => Ok(0),
        };
        let instance_count = count(SECTION_INSTANCES, "instance count")?;
        let best_count = count(SECTION_BESTS, "best count")?;
        let checkpoint_count = count(SECTION_CHECKPOINTS, "checkpoint count")?;
        let mut index = |kind: u32, what: &'static str| match find(kind) {
            Some(s) => {
                let len = usize::try_from(s.len)
                    .map_err(|_| StoreError::Corrupt("section too large for this host".into()))?;
                let payload = read_exact_at(&mut handle, s.offset, len, "section payload")?;
                HashIndex::decode(&payload, what)
            }
            None => Ok(HashIndex::empty()),
        };
        let instance_index = index(SECTION_INSTANCE_INDEX, "instance index")?;
        let best_index = index(SECTION_BEST_INDEX, "best index")?;
        Ok(StoreReader {
            handle: Arc::new(Mutex::new(handle)),
            file_len,
            sections,
            instance_index,
            best_index,
            instance_count,
            best_count,
            checkpoint_count,
        })
    }

    fn section(&self, kind: u32) -> Option<Section> {
        self.sections.iter().copied().find(|s| s.kind == kind)
    }

    /// Every section-table entry, including unknown kinds.
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Total file length in bytes.
    pub fn file_len(&self) -> u64 {
        self.file_len
    }

    /// Instance records in the store.
    pub fn instance_count(&self) -> u64 {
        self.instance_count
    }

    /// Best-schedule records in the store.
    pub fn best_count(&self) -> u64 {
        self.best_count
    }

    /// Checkpoint records in the store.
    pub fn checkpoint_count(&self) -> u64 {
        self.checkpoint_count
    }

    /// The first of `offsets` (index candidates, in probe order) whose
    /// record `pick` accepts. Each candidate is one seek and one
    /// CRC-checked read; FNV collisions are why `pick` checks the key.
    fn find<T>(
        &mut self,
        offsets: Vec<u64>,
        what: &'static str,
        mut pick: impl FnMut(&[u8]) -> Result<Option<T>, StoreError>,
    ) -> Result<Option<T>, StoreError> {
        let mut handle = self.handle.lock();
        let mut body = Vec::new();
        for offset in offsets {
            handle.seek(SeekFrom::Start(offset))?;
            read_frame(&mut *handle, self.file_len, offset, &mut body, what)?;
            if let Some(found) = pick(&body)? {
                return Ok(Some(found));
            }
        }
        Ok(None)
    }

    /// O(1) instance lookup by name: index probe → one seek → one
    /// framed read → binary decode. `Ok(None)` when absent.
    pub fn get_instance(&mut self, name: &str) -> Result<Option<EtcInstance>, StoreError> {
        let offsets = self.instance_index.candidates(name_key(name));
        self.find(offsets, "instance record", |body| {
            let instance = decode_instance(body).map_err(instance_error)?;
            Ok((instance.name() == name).then_some(instance))
        })
    }

    /// O(1) best-schedule lookup by request digest. `Ok(None)` when
    /// absent.
    pub fn get_best(&mut self, digest: u64) -> Result<Option<CachedRun>, StoreError> {
        let offsets = self.best_index.candidates(digest);
        self.find(offsets, "best record", |body| {
            let (stored_digest, run) = decode_best(body)?;
            Ok((stored_digest == digest).then_some(run))
        })
    }

    /// Visits the `count` records of section `kind` in file order: one
    /// seek to the first frame, then sequential reads into one reused
    /// body buffer, every record CRC-checked. `f` gets each body and the
    /// [`Body::Stored`] that names its frame.
    fn walk_records(
        &mut self,
        kind: u32,
        count: u64,
        what: &'static str,
        mut f: impl FnMut(&[u8], Body) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        let Some(s) = self.section(kind) else { return Ok(()) };
        let mut offset = s.offset + 8;
        let end = s.offset + s.len;
        let mut handle = self.handle.lock();
        handle.seek(SeekFrom::Start(offset))?;
        let mut body = Vec::new();
        for _ in 0..count {
            if offset >= end {
                return Err(StoreError::Truncated(what));
            }
            let (len, crc) = read_frame(&mut *handle, self.file_len, offset, &mut body, what)?;
            f(&body, Body::Stored { offset, len, crc })?;
            offset += 8 + u64::from(len);
        }
        if offset != end {
            return Err(StoreError::Corrupt(if offset < end {
                format!("{what} section has {} trailing bytes", end - offset)
            } else {
                format!("{what} records overrun their section by {} bytes", offset - end)
            }));
        }
        Ok(())
    }

    /// Decodes every instance record (sequential scan, for `corpus ls`
    /// and merges — point lookups should use [`StoreReader::get_instance`]).
    pub fn instances(&mut self) -> Result<Vec<EtcInstance>, StoreError> {
        let mut out = Vec::new();
        let count = self.instance_count;
        self.walk_records(SECTION_INSTANCES, count, "instance record", |body, _| {
            out.push(decode_instance(body).map_err(instance_error)?);
            Ok(())
        })?;
        Ok(out)
    }

    /// Decodes every best-schedule record (the daemon's warm-load scan).
    pub fn bests(&mut self) -> Result<Vec<(u64, CachedRun)>, StoreError> {
        let mut out = Vec::new();
        let count = self.best_count;
        self.walk_records(SECTION_BESTS, count, "best record", |body, _| {
            out.push(decode_best(body)?);
            Ok(())
        })?;
        Ok(out)
    }

    /// Decodes every checkpoint record (name + opaque payload).
    pub fn checkpoints(&mut self) -> Result<Vec<(String, Vec<u8>)>, StoreError> {
        let mut out = Vec::new();
        let count = self.checkpoint_count;
        self.walk_records(SECTION_CHECKPOINTS, count, "checkpoint record", |body, _| {
            let (name, payload) = decode_checkpoint(body)?;
            out.push((name.to_string(), payload.to_vec()));
            Ok(())
        })?;
        Ok(out)
    }

    /// Walks every record in every known section, re-checking every CRC
    /// and every record's codec, and proves each record is reachable
    /// through its hash index. The full-file integrity pass behind
    /// `pacga corpus verify`. It fails where a decode of every record and
    /// a `get_*` of every key would, with the same error, but holds one
    /// record at a time and builds no instance.
    pub fn verify(&mut self) -> Result<VerifyReport, StoreError> {
        let mut report = VerifyReport {
            unknown_sections: self
                .sections
                .iter()
                .filter(|s| {
                    !matches!(
                        s.kind,
                        SECTION_INSTANCES
                            | SECTION_BESTS
                            | SECTION_CHECKPOINTS
                            | SECTION_INSTANCE_INDEX
                            | SECTION_BEST_INDEX
                    )
                })
                .count(),
            ..VerifyReport::default()
        };
        let mut names = Vec::new();
        let count = self.instance_count;
        self.walk_records(SECTION_INSTANCES, count, "instance record", |body, _| {
            names.push(check_instance(body).map_err(instance_error)?.to_string());
            Ok(())
        })?;
        for name in names {
            let offsets = self.instance_index.candidates(name_key(&name));
            let found = self.find(offsets, "instance record", |body| {
                Ok((check_instance(body).map_err(instance_error)? == name).then_some(()))
            })?;
            if found.is_none() {
                return Err(StoreError::Corrupt(format!(
                    "instance {name:?} not reachable through the index"
                )));
            }
            report.instances += 1;
        }
        let mut digests = Vec::new();
        let count = self.best_count;
        self.walk_records(SECTION_BESTS, count, "best record", |body, _| {
            digests.push(decode_best(body)?.0);
            Ok(())
        })?;
        for digest in digests {
            if self.get_best(digest)?.is_none() {
                return Err(StoreError::Corrupt(format!(
                    "best record {digest:#018x} not reachable through the index"
                )));
            }
            report.bests += 1;
        }
        let count = self.checkpoint_count;
        self.walk_records(SECTION_CHECKPOINTS, count, "checkpoint record", |body, _| {
            decode_checkpoint(body)?;
            report.checkpoints += 1;
            Ok(())
        })?;
        Ok(report)
    }
}

impl<R: Read + Seek + Send + 'static> StoreReader<R> {
    /// Loads the whole store into a [`StoreBuilder`] for merging (the
    /// daemon's drain path: load, upsert fresh results, rewrite).
    ///
    /// Each record is CRC-checked and validated exactly as
    /// [`instances`](Self::instances), [`bests`](Self::bests) and
    /// [`checkpoints`](Self::checkpoints) would, with the same errors in
    /// the same order. The builder then keeps only the record's key and
    /// its frame's offset, length and CRC, and shares this reader's
    /// handle: writing the builder copies each stored body from this
    /// file and checks its CRC again, so no body is held in memory and
    /// nothing is decoded into an instance or re-encoded. Every record
    /// codec checks the exact body length, so an encoding is canonical
    /// and the builder's image equals a decode-and-re-add merge of the
    /// same store.
    pub fn to_builder(&mut self) -> Result<StoreBuilder, StoreError> {
        let mut builder = StoreBuilder::new();
        let count = self.instance_count;
        self.walk_records(SECTION_INSTANCES, count, "instance record", |body, stored| {
            let name = check_instance(body).map_err(instance_error)?.to_string();
            upsert(&mut builder.instances, name, stored);
            Ok(())
        })?;
        let count = self.best_count;
        self.walk_records(SECTION_BESTS, count, "best record", |body, stored| {
            let (digest, _) = decode_best(body)?;
            upsert(&mut builder.bests, digest, stored);
            Ok(())
        })?;
        let count = self.checkpoint_count;
        self.walk_records(SECTION_CHECKPOINTS, count, "checkpoint record", |body, stored| {
            let (name, _) = decode_checkpoint(body)?;
            upsert(&mut builder.checkpoints, name.to_string(), stored);
            Ok(())
        })?;
        let source: Arc<Mutex<dyn Source>> = self.handle.clone();
        builder.source = Some(source);
        Ok(builder)
    }
}

/// An instance codec error as the store reports it.
fn instance_error(e: etc_model::binary::BinError) -> StoreError {
    StoreError::Corrupt(format!("instance record: {e}"))
}

/// Reads the record frame `handle` is positioned at (`offset` in a file
/// of `file_len` bytes) and its body into `body`, checking the body's
/// CRC; returns the frame's length and CRC. The length is checked
/// against the file before `body` is sized, so a corrupt length never
/// drives an allocation.
fn read_frame<R: Read>(
    handle: &mut R,
    file_len: u64,
    offset: u64,
    body: &mut Vec<u8>,
    what: &'static str,
) -> Result<(u32, u32), StoreError> {
    let mut frame = [0u8; 8];
    read_exact_into(handle, &mut frame, what)?;
    let len = u32_at(&frame, 0, what)?;
    let stored = u32_at(&frame, 4, what)?;
    let end = offset.checked_add(8).and_then(|o| o.checked_add(u64::from(len)));
    match end {
        Some(end) if end <= file_len => {}
        _ => return Err(StoreError::Corrupt(format!("record at {offset} overruns the file"))),
    }
    body.resize(len as usize, 0);
    read_exact_into(handle, body, what)?;
    let computed = Crc32::of(body);
    if stored != computed {
        return Err(StoreError::Crc { what: what.into(), stored, computed });
    }
    Ok((len, stored))
}

fn read_exact_at<R: Read + Seek>(
    handle: &mut R,
    offset: u64,
    len: usize,
    what: &'static str,
) -> Result<Vec<u8>, StoreError> {
    handle.seek(SeekFrom::Start(offset))?;
    let mut buf = vec![0u8; len];
    read_exact_into(handle, &mut buf, what)?;
    Ok(buf)
}

/// `read_exact` with a short read typed as [`StoreError::Truncated`].
fn read_exact_into<R: Read + ?Sized>(
    handle: &mut R,
    buf: &mut [u8],
    what: &'static str,
) -> Result<(), StoreError> {
    handle.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            StoreError::Truncated(what)
        } else {
            StoreError::Io(e)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn run(tag: u64, n_tasks: usize, n_machines: usize) -> CachedRun {
        CachedRun {
            instance: format!("inst{tag}"),
            n_tasks,
            n_machines,
            makespan: 100.0 + tag as f64,
            evaluations: 5_000 + tag,
            engine_ms: 12.5,
            assignment: (0..n_tasks as u32).map(|t| t % n_machines as u32).collect(),
        }
    }

    fn sample_store() -> Vec<u8> {
        let mut b = StoreBuilder::new();
        b.add_instance(&EtcInstance::toy(6, 3)).unwrap();
        b.add_instance(&EtcInstance::toy(4, 2)).unwrap();
        b.add_best(0xDEAD_BEEF, &run(1, 6, 3)).unwrap();
        b.add_checkpoint("ck-a", b"pacga-checkpoint v2 fake payload").unwrap();
        b.encode()
    }

    #[test]
    fn round_trips_through_memory() {
        let bytes = sample_store();
        let mut r = StoreReader::open(Cursor::new(bytes)).unwrap();
        assert_eq!(r.instance_count(), 2);
        assert_eq!(r.best_count(), 1);
        assert_eq!(r.checkpoint_count(), 1);
        let inst = r.get_instance("toy_6x3").unwrap().unwrap();
        assert_eq!(inst, EtcInstance::toy(6, 3));
        assert!(r.get_instance("toy_9x9").unwrap().is_none());
        let best = r.get_best(0xDEAD_BEEF).unwrap().unwrap();
        assert_eq!(best, run(1, 6, 3));
        assert!(r.get_best(7).unwrap().is_none());
        let cks = r.checkpoints().unwrap();
        assert_eq!(cks, vec![("ck-a".to_string(), b"pacga-checkpoint v2 fake payload".to_vec())]);
        let report = r.verify().unwrap();
        assert_eq!(
            report,
            VerifyReport { instances: 2, bests: 1, checkpoints: 1, unknown_sections: 0 }
        );
    }

    #[test]
    fn upsert_replaces_by_key() {
        let mut b = StoreBuilder::new();
        b.add_best(9, &run(1, 4, 2)).unwrap();
        b.add_best(9, &run(2, 4, 2)).unwrap();
        assert_eq!(b.best_count(), 1);
        let mut r = StoreReader::open(Cursor::new(b.encode())).unwrap();
        assert_eq!(r.get_best(9).unwrap().unwrap().makespan, 102.0);
    }

    #[test]
    fn duplicate_keys_keep_first_position_and_last_body() {
        let named = |name: &str, ready: f64| {
            let etc = etc_model::EtcMatrix::from_task_major(1, 1, vec![2.0]);
            EtcInstance::with_ready_times(name, etc, vec![ready])
        };
        let mut b = StoreBuilder::new();
        for (name, ready) in [("a", 1.0), ("b", 2.0), ("a", 3.0), ("c", 4.0), ("b", 5.0)] {
            upsert(
                &mut b.instances,
                name.to_string(),
                Body::Owned(encode_instance(&named(name, ready)).unwrap()),
            );
        }
        for (digest, tag) in [(7, 1), (3, 2), (7, 3), (3, 4), (9, 5)] {
            let body = encode_best(digest, &run(tag, 4, 2)).unwrap();
            upsert(&mut b.bests, digest, Body::Owned(body));
        }
        for (name, payload) in [("x", "one"), ("y", "two"), ("x", "three")] {
            let body = encode_checkpoint(name, payload.as_bytes()).unwrap();
            upsert(&mut b.checkpoints, name.to_string(), Body::Owned(body));
        }
        assert_eq!((b.instance_count(), b.best_count(), b.checkpoint_count()), (3, 3, 2));

        let mut expected = StoreBuilder::new();
        for (name, ready) in [("a", 3.0), ("b", 5.0), ("c", 4.0)] {
            expected.add_instance(&named(name, ready)).unwrap();
        }
        for (digest, tag) in [(7, 3), (3, 4), (9, 5)] {
            expected.add_best(digest, &run(tag, 4, 2)).unwrap();
        }
        expected.add_checkpoint("x", b"three").unwrap();
        expected.add_checkpoint("y", b"two").unwrap();
        assert!(b.encode() == expected.encode());
    }

    #[test]
    fn overflowing_instance_dimensions_are_corrupt_on_every_path() {
        // A record with a valid CRC whose dims (2^31 × 2^30) overflow the
        // payload length: every read path types it, none panics.
        let mut body = encode_instance(&EtcInstance::toy(3, 2)).unwrap();
        body.get_mut(9..13).unwrap().copy_from_slice(&(1u32 << 31).to_le_bytes());
        body.get_mut(13..17).unwrap().copy_from_slice(&(1u32 << 30).to_le_bytes());
        let mut b = StoreBuilder::new();
        upsert(&mut b.instances, "toy_3x2".to_string(), Body::Owned(body));
        let mut r = StoreReader::open(Cursor::new(b.encode())).unwrap();
        let corrupt = |e: StoreError| match e {
            StoreError::Corrupt(m) => assert!(m.contains("overflows"), "{m}"),
            other => panic!("expected Corrupt, got {other}"),
        };
        corrupt(r.get_instance("toy_3x2").unwrap_err());
        corrupt(r.instances().unwrap_err());
        corrupt(r.verify().unwrap_err());
        corrupt(r.to_builder().err().unwrap());
    }

    #[test]
    fn to_builder_merge_preserves_everything() {
        let bytes = sample_store();
        let mut r = StoreReader::open(Cursor::new(bytes)).unwrap();
        let mut b = r.to_builder().unwrap();
        b.add_best(77, &run(3, 4, 2)).unwrap();
        let mut r2 = StoreReader::open(Cursor::new(b.encode())).unwrap();
        assert_eq!(r2.instance_count(), 2);
        assert_eq!(r2.best_count(), 2);
        assert!(r2.get_best(77).unwrap().is_some());
        assert!(r2.get_best(0xDEAD_BEEF).unwrap().is_some());
    }

    #[test]
    fn empty_store_is_valid() {
        let bytes = StoreBuilder::new().encode();
        let mut r = StoreReader::open(Cursor::new(bytes)).unwrap();
        assert_eq!(r.instance_count(), 0);
        assert!(r.get_instance("anything").unwrap().is_none());
        assert!(r.get_best(0).unwrap().is_none());
        assert_eq!(r.verify().unwrap(), VerifyReport::default());
    }

    #[test]
    fn atomic_write_lands_on_disk() {
        let dir = std::env::temp_dir().join(format!("pacst-write-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.pacst");
        let mut b = StoreBuilder::new();
        b.add_instance(&EtcInstance::toy(3, 2)).unwrap();
        b.write(&path).unwrap();
        let mut r = StoreReader::open_path(&path).unwrap();
        assert!(r.get_instance("toy_3x2").unwrap().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn many_bests_all_resolve() {
        // Exercise probing past collisions in a denser index.
        let mut b = StoreBuilder::new();
        for d in 0..200u64 {
            b.add_best(d.wrapping_mul(0x9E37_79B9_7F4A_7C15), &run(d, 8, 4)).unwrap();
        }
        let mut r = StoreReader::open(Cursor::new(b.encode())).unwrap();
        for d in 0..200u64 {
            let digest = d.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            assert_eq!(r.get_best(digest).unwrap().unwrap().evaluations, 5_000 + d);
        }
    }
}
