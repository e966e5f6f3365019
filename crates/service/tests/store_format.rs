//! Byte-level conformance and corruption suite for the `.pacst` store.
//!
//! FORMAT.md is the normative spec; this file is the part of the test
//! suite that pins every structural field of the container to its
//! documented offset and proves that damage of every interesting kind
//! surfaces as a typed [`StoreError`], never a panic. Record-body
//! offsets (§7.1–§7.3) are additionally covered by the unit tests in
//! `pa_cga_service::store` and `etc_model::binary`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Cursor;
use std::sync::atomic::{AtomicUsize, Ordering};

use etc_model::EtcInstance;
use pa_cga_core::checkpoint::Crc32;
use pa_cga_service::store::{
    name_key, StoreBuilder, StoreError, StoreReader, EMPTY_BUCKET, END_MAGIC, HEADER_LEN, MAGIC,
    SECTION_BESTS, SECTION_BEST_INDEX, SECTION_CHECKPOINTS, SECTION_ENTRY_LEN, SECTION_INSTANCES,
    SECTION_INSTANCE_INDEX, TRAILER_LEN, VERSION,
};
use pa_cga_service::CachedRun;

/// The system allocator, recording the largest single request so a test
/// can prove a corrupt length field never drives an allocation, and each
/// thread's live bytes with their high-water mark so a test can bound
/// what one call holds at once. The maximum request is binary-wide; no
/// test here allocates anywhere near 1 GiB. Live bytes are counted per
/// thread because the tests of this binary run in parallel.
struct LargestRequest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Bytes this thread allocated and has not freed (memory freed by
    /// another thread than the one that allocated it skews both counts,
    /// which is why a test reads only growth over its own calls).
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The most `LIVE` has been since the last [`peak_growth`] began.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Adds `delta` to this thread's live bytes and raises its peak.
fn track(delta: isize) {
    // `try_with`: a thread being torn down has no counters left.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` obligations are exactly `System`'s. The
// counters are const-initialized `Cell`s, which never allocate.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // ord: a monotone maximum read after the fact; no data is published.
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        track(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // ord: as in `alloc`.
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        track(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: LargestRequest = LargestRequest;

/// Runs `f` and returns its value with how far this thread's live bytes
/// rose above where they stood when `f` began, at their highest.
fn peak_growth<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let value = f();
    let peak = PEAK.with(Cell::get);
    (value, (peak - start).max(0) as usize)
}

// --- little helpers (tests may index directly; damage here just fails) ---

fn u16_le(b: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([b[at], b[at + 1]])
}

fn u32_le(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
}

fn u64_le(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

fn f64_le(b: &[u8], at: usize) -> f64 {
    f64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

fn best(tag: u64, n_tasks: usize, n_machines: usize) -> CachedRun {
    CachedRun {
        instance: format!("inst{tag}"),
        n_tasks,
        n_machines,
        makespan: 250.0 + tag as f64,
        evaluations: 9_000 + tag,
        engine_ms: 31.25,
        assignment: (0..n_tasks as u32).map(|t| t % n_machines as u32).collect(),
    }
}

/// A store exercising all five section kinds.
fn sample() -> Vec<u8> {
    let mut b = StoreBuilder::new();
    b.add_instance(&EtcInstance::toy(5, 3)).unwrap();
    b.add_instance(&EtcInstance::toy(2, 2)).unwrap();
    b.add_best(0x0A11_CE55, &best(7, 5, 3)).unwrap();
    b.add_checkpoint("ck", b"opaque checkpoint payload").unwrap();
    b.encode()
}

fn open(bytes: Vec<u8>) -> Result<StoreReader<Cursor<Vec<u8>>>, StoreError> {
    StoreReader::open(Cursor::new(bytes))
}

/// A store with three instance and three best records, so a scan has
/// records before and after the one a test damages.
fn three_of_each() -> Vec<u8> {
    let mut b = StoreBuilder::new();
    for n in 3..6 {
        b.add_instance(&EtcInstance::toy(n, 2)).unwrap();
    }
    for tag in 0..3 {
        b.add_best(0xB000 + tag, &best(tag, 4, 2)).unwrap();
    }
    b.encode()
}

/// Absolute file offsets of every record frame in section `kind`.
fn record_offsets(bytes: &[u8], kind: u32) -> Vec<usize> {
    let (off, _) = find_section(bytes, kind);
    let mut at = off as usize + 8;
    (0..u64_le(bytes, off as usize))
        .map(|_| {
            let frame = at;
            at += 8 + u32_le(bytes, at) as usize;
            frame
        })
        .collect()
}

/// Parsed section-table entry straight off the bytes.
fn table_entries(bytes: &[u8]) -> Vec<(u32, u32, u64, u64)> {
    let table_offset = u64_le(bytes, 16) as usize;
    let count = u32_le(bytes, 12) as usize;
    (0..count)
        .map(|i| {
            let at = table_offset + i * SECTION_ENTRY_LEN;
            (
                u32_le(bytes, at),
                u32_le(bytes, at + 4),
                u64_le(bytes, at + 8),
                u64_le(bytes, at + 16),
            )
        })
        .collect()
}

fn find_section(bytes: &[u8], kind: u32) -> (u64, u64) {
    let (_, _, off, len) =
        *table_entries(bytes).iter().find(|e| e.0 == kind).expect("section present");
    (off, len)
}

/// Rewrite header `file_length` + trailer CRCs after mutating the image.
/// Used by the splice test; leaves everything else untouched.
fn reseal(bytes: &mut [u8]) {
    let total = bytes.len() as u64;
    bytes[24..32].copy_from_slice(&total.to_le_bytes());
    let header_crc = Crc32::of(&bytes[..HEADER_LEN]);
    let table_offset = u64_le(bytes, 16) as usize;
    let table_len = u32_le(bytes, 12) as usize * SECTION_ENTRY_LEN;
    let table_crc = Crc32::of(&bytes[table_offset..table_offset + table_len]);
    let at = bytes.len() - TRAILER_LEN;
    bytes[at..at + 4].copy_from_slice(&header_crc.to_le_bytes());
    bytes[at + 4..at + 8].copy_from_slice(&table_crc.to_le_bytes());
}

// --- §3 header ---

#[test]
fn header_matches_spec_offsets() {
    let bytes = sample();
    assert_eq!(&bytes[0..8], &MAGIC, "magic at offset 0 (FORMAT.md §3)");
    assert_eq!(u16_le(&bytes, 8), VERSION, "version u16 at offset 8");
    assert_eq!(u16_le(&bytes, 10), 0, "flags reserved as 0 at offset 10");
    assert_eq!(u32_le(&bytes, 12), 5, "section_count at offset 12: all five kinds");
    let table_offset = u64_le(&bytes, 16);
    assert!(
        table_offset >= HEADER_LEN as u64 && table_offset < bytes.len() as u64,
        "section_table_offset at 16 points inside the file"
    );
    assert_eq!(u64_le(&bytes, 24), bytes.len() as u64, "file_length at offset 24");
}

#[test]
fn magic_is_png_style() {
    // The transport-damage canaries FORMAT.md §3 promises: a high-bit
    // first byte and a CRLF pair that newline translation would eat.
    assert_eq!(MAGIC[0], 0x89);
    assert_eq!(&MAGIC[1..6], b"PACST");
    assert_eq!(&MAGIC[6..8], b"\r\n");
}

// --- §5 section table ---

#[test]
fn section_table_matches_spec() {
    let bytes = sample();
    let table_offset = u64_le(&bytes, 16);
    let entries = table_entries(&bytes);
    let kinds: Vec<u32> = entries.iter().map(|e| e.0).collect();
    assert_eq!(
        kinds,
        vec![
            SECTION_INSTANCES,
            SECTION_BESTS,
            SECTION_CHECKPOINTS,
            SECTION_INSTANCE_INDEX,
            SECTION_BEST_INDEX
        ],
        "writer emits kinds in order 1..=5"
    );
    for (kind, reserved, off, len) in entries {
        assert_eq!(reserved, 0, "reserved field of kind {kind} written as 0");
        assert!(
            off >= HEADER_LEN as u64 && off + len <= table_offset,
            "kind {kind} lies inside [32, table_offset)"
        );
    }
}

// --- §6 record framing ---

#[test]
fn record_framing_matches_spec() {
    let bytes = sample();
    let (off, len) = find_section(&bytes, SECTION_INSTANCES);
    let payload = &bytes[off as usize..(off + len) as usize];
    let count = u64_le(payload, 0);
    assert_eq!(count, 2, "count u64 leads the payload");
    let mut at = 8;
    for _ in 0..count {
        let record_len = u32_le(payload, at) as usize;
        let stored_crc = u32_le(payload, at + 4);
        let body = &payload[at + 8..at + 8 + record_len];
        assert_eq!(stored_crc, Crc32::of(body), "body_crc is CRC-32 of the body bytes");
        at += 8 + record_len;
    }
    assert_eq!(at, payload.len(), "records end the section exactly — no trailing bytes");
}

// --- §7.1 instance body ---

#[test]
fn instance_body_matches_spec_offsets() {
    let inst = EtcInstance::toy(5, 3);
    let bytes = sample();
    let (off, _) = find_section(&bytes, SECTION_INSTANCES);
    // First record body of the INST section.
    let frame = off as usize + 8;
    let body_len = u32_le(&bytes, frame) as usize;
    let body = &bytes[frame + 8..frame + 8 + body_len];

    let n = inst.name().len();
    assert_eq!(u16_le(body, 0) as usize, n, "name_len u16 at 0");
    assert_eq!(&body[2..2 + n], inst.name().as_bytes(), "UTF-8 name at 2");
    assert_eq!(u32_le(body, 2 + n), 5, "n_tasks u32 at 2+N");
    assert_eq!(u32_le(body, 6 + n), 3, "n_machines u32 at 6+N");
    for (m, &ready) in inst.ready_times().iter().enumerate() {
        assert_eq!(f64_le(body, 10 + n + 8 * m), ready, "ready f64 at 10+N");
    }
    // Task-major ETC: ETC[t][m] at matrix index t*M + m.
    let etc0 = 10 + n + 8 * 3;
    for t in 0..5 {
        for m in 0..3 {
            assert_eq!(f64_le(body, etc0 + 8 * (t * 3 + m)), inst.etc().etc(t, m));
        }
    }
    assert_eq!(body_len, 10 + n + 8 * 3 + 8 * 5 * 3, "length exactly 10+N+8M+8TM");
}

// --- §7.2 best body ---

#[test]
fn best_body_matches_spec_offsets() {
    let run = best(7, 5, 3);
    let bytes = sample();
    let (off, _) = find_section(&bytes, SECTION_BESTS);
    let frame = off as usize + 8;
    let body_len = u32_le(&bytes, frame) as usize;
    let body = &bytes[frame + 8..frame + 8 + body_len];

    let n = run.instance.len();
    assert_eq!(u64_le(body, 0), 0x0A11_CE55, "digest u64 at 0");
    assert_eq!(u16_le(body, 8) as usize, n, "name_len u16 at 8");
    assert_eq!(&body[10..10 + n], run.instance.as_bytes(), "name at 10");
    assert_eq!(u32_le(body, 10 + n), 5, "n_tasks u32 at 10+N");
    assert_eq!(u32_le(body, 14 + n), 3, "n_machines u32 at 14+N");
    assert_eq!(f64_le(body, 18 + n), run.makespan, "makespan f64 at 18+N");
    assert_eq!(u64_le(body, 26 + n), run.evaluations, "evaluations u64 at 26+N");
    assert_eq!(f64_le(body, 34 + n), run.engine_ms, "engine_ms f64 at 34+N");
    for (t, &m) in run.assignment.iter().enumerate() {
        assert_eq!(u32_le(body, 42 + n + 4 * t), m, "assignment u32 per task at 42+N");
    }
    assert_eq!(body_len, 42 + n + 4 * 5, "length exactly 42+N+4T");
}

// --- §7.3 checkpoint body ---

#[test]
fn checkpoint_body_matches_spec_offsets() {
    let bytes = sample();
    let (off, _) = find_section(&bytes, SECTION_CHECKPOINTS);
    let frame = off as usize + 8;
    let body_len = u32_le(&bytes, frame) as usize;
    let body = &bytes[frame + 8..frame + 8 + body_len];

    assert_eq!(u16_le(body, 0), 2, "name_len u16 at 0");
    assert_eq!(&body[2..4], b"ck", "name at 2");
    let p = b"opaque checkpoint payload".len();
    assert_eq!(u32_le(body, 4) as usize, p, "payload_len u32 at 2+N");
    assert_eq!(&body[8..8 + p], b"opaque checkpoint payload", "payload at 6+N");
    assert_eq!(body_len, 6 + 2 + p, "length exactly 6+N+P");
}

// --- §8 hash indexes ---

#[test]
fn instance_index_matches_spec() {
    let bytes = sample();
    let (off, len) = find_section(&bytes, SECTION_INSTANCE_INDEX);
    let idx = &bytes[off as usize..(off + len) as usize];
    let buckets = u64_le(idx, 0);
    assert!(buckets.is_power_of_two(), "bucket_count is a power of two");
    assert!(buckets >= 8, "minimum 8 buckets");
    assert!(buckets >= 2 * 2, "≥ 2 × entry count (2 instances)");
    assert_eq!(len as usize, 8 + 16 * buckets as usize, "payload is 8 + 16·bucket_count");

    // Resolve both names by hand: probe from key & (count-1), expect to
    // land on a frame whose body starts with this very name.
    for name in ["toy_5x3", "toy_2x2"] {
        let key = name_key(name);
        let mut slot = key & (buckets - 1);
        let frame = loop {
            let at = 8 + 16 * slot as usize;
            let (k, o) = (u64_le(idx, at), u64_le(idx, at + 8));
            assert_ne!(o, EMPTY_BUCKET, "probe chain must hit {name} before an empty bucket");
            if k == key {
                break o as usize;
            }
            slot = (slot + 1) & (buckets - 1);
        };
        // `frame` points at the record_len field of the record frame.
        let body = &bytes[frame + 8..];
        let n = u16_le(body, 0) as usize;
        assert_eq!(&body[2..2 + n], name.as_bytes(), "index offset resolves to the named record");
    }
}

#[test]
fn best_index_key_is_digest_verbatim() {
    let bytes = sample();
    let (off, len) = find_section(&bytes, SECTION_BEST_INDEX);
    let idx = &bytes[off as usize..(off + len) as usize];
    let buckets = u64_le(idx, 0);
    assert!(buckets.is_power_of_two() && buckets >= 8);
    let occupied: Vec<(u64, u64)> = (0..buckets)
        .map(|s| (u64_le(idx, 8 + 16 * s as usize), u64_le(idx, 8 + 16 * s as usize + 8)))
        .filter(|&(_, o)| o != EMPTY_BUCKET)
        .collect();
    assert_eq!(occupied.len(), 1);
    assert_eq!(occupied[0].0, 0x0A11_CE55, "IDX-BEST key is the §7.2 digest verbatim");
}

// --- §9 trailer ---

#[test]
fn trailer_matches_spec() {
    let bytes = sample();
    let at = bytes.len() - TRAILER_LEN;
    assert_eq!(u32_le(&bytes, at), Crc32::of(&bytes[..HEADER_LEN]), "header CRC at EOF-16");
    let table_offset = u64_le(&bytes, 16) as usize;
    let table = &bytes[table_offset..at];
    assert_eq!(u32_le(&bytes, at + 4), Crc32::of(table), "table CRC at EOF-12");
    assert_eq!(&bytes[at + 8..], &END_MAGIC, "end magic PACSTEND at EOF-8");
}

// --- §4 CRC check vector ---

#[test]
fn crc_check_vector_holds() {
    assert_eq!(Crc32::of(b"123456789"), 0xCBF4_3926);
}

// --- corruption: every damage class is a typed error, never a panic ---

#[test]
fn truncated_header_is_typed() {
    let err = open(sample()[..10].to_vec()).err().expect("must fail");
    assert!(matches!(err, StoreError::Truncated(_)), "got {err}");
}

#[test]
fn bad_magic_is_typed() {
    let mut bytes = sample();
    bytes[0] = b'G';
    assert!(matches!(open(bytes).err().expect("must fail"), StoreError::BadMagic));
}

#[test]
fn wrong_version_is_typed() {
    let mut bytes = sample();
    bytes[8..10].copy_from_slice(&2u16.to_le_bytes());
    assert!(matches!(open(bytes).err().expect("must fail"), StoreError::UnsupportedVersion(2)));
}

#[test]
fn flipped_header_byte_is_a_header_crc_error() {
    let mut bytes = sample();
    bytes[12] ^= 0x01; // section_count
    match open(bytes).err().expect("must fail") {
        StoreError::Crc { what, stored, computed } => {
            assert_eq!(what, "header");
            assert_ne!(stored, computed, "error names both stored and computed CRCs");
        }
        other => panic!("expected header CRC error, got {other}"),
    }
}

#[test]
fn flipped_table_byte_is_a_table_crc_error() {
    let mut bytes = sample();
    let table_offset = u64_le(&bytes, 16) as usize;
    bytes[table_offset + 4] ^= 0xFF; // reserved field of the first entry
    match open(bytes).err().expect("must fail") {
        StoreError::Crc { what, .. } => assert_eq!(what, "section table"),
        other => panic!("expected table CRC error, got {other}"),
    }
}

#[test]
fn flipped_record_body_byte_is_a_record_crc_error() {
    let mut bytes = sample();
    let (off, _) = find_section(&bytes, SECTION_INSTANCES);
    // Damage one byte inside the first record's body (count u64 + frame
    // header are 16 bytes in; +4 lands mid-name).
    bytes[off as usize + 16 + 4] ^= 0x20;
    // Open succeeds — bodies are read lazily — but every read path that
    // touches the record reports the CRC mismatch.
    let mut r = open(bytes).expect("structure is intact");
    assert!(matches!(r.get_instance("toy_5x3"), Err(StoreError::Crc { .. })));
    assert!(matches!(r.verify(), Err(StoreError::Crc { .. })));
    // The undamaged BEST record still answers.
    assert!(r.get_best(0x0A11_CE55).expect("intact section").is_some());
}

#[test]
fn torn_trailer_is_typed() {
    let mut bytes = sample();
    let at = bytes.len() - 8;
    bytes[at] ^= 0xFF; // first end-magic byte
    assert!(matches!(open(bytes).err().expect("must fail"), StoreError::Corrupt(_)));
}

#[test]
fn stated_length_must_match_actual() {
    // Appended garbage after the trailer: every CRC still checks out,
    // but `file_length` (§3) disagrees with reality.
    let mut bytes = sample();
    bytes.push(0);
    assert!(matches!(open(bytes).err().expect("must fail"), StoreError::Truncated(_)));
}

#[test]
fn every_truncation_point_errors_without_panicking() {
    let full = sample();
    for cut in 0..full.len() {
        assert!(
            open(full[..cut].to_vec()).is_err(),
            "truncation at {cut}/{} must be rejected",
            full.len()
        );
    }
}

#[test]
fn unknown_section_kind_is_skipped_not_rejected() {
    // Splice a future section (kind 99) between the payload region and
    // the table, extend the table and reseal the CRCs — a conforming
    // v1 reader (§5, §10) reads everything it understands and reports
    // one skipped section.
    let old = sample();
    let old_table_offset = u64_le(&old, 16) as usize;
    let trailer_at = old.len() - TRAILER_LEN;
    let future_payload = b"payload from the future";

    let mut bytes = Vec::new();
    bytes.extend_from_slice(&old[..old_table_offset]);
    let future_off = bytes.len() as u64;
    bytes.extend_from_slice(future_payload);
    let new_table_offset = bytes.len() as u64;
    bytes.extend_from_slice(&old[old_table_offset..trailer_at]); // old entries
    bytes.extend_from_slice(&99u32.to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    bytes.extend_from_slice(&future_off.to_le_bytes());
    bytes.extend_from_slice(&(future_payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&old[trailer_at..]);
    bytes[12..16].copy_from_slice(&6u32.to_le_bytes());
    bytes[16..24].copy_from_slice(&new_table_offset.to_le_bytes());
    reseal(&mut bytes);

    let mut r = open(bytes).expect("unknown kinds must not reject the file");
    assert_eq!(r.sections().len(), 6);
    let inst = r.get_instance("toy_5x3").unwrap().expect("known sections still readable");
    assert_eq!(inst.n_tasks(), 5);
    assert!(r.get_best(0x0A11_CE55).unwrap().is_some());
    let report = r.verify().expect("verify still passes");
    assert_eq!(report.unknown_sections, 1, "verify counts the skipped section");
    assert_eq!(report.instances, 2);
    assert_eq!(report.bests, 1);
    assert_eq!(report.checkpoints, 1);
}

#[test]
fn section_escaping_the_data_region_is_typed() {
    // Point the INST section past the table and reseal: bounds must be
    // enforced before any payload is trusted.
    let mut bytes = sample();
    let table_offset = u64_le(&bytes, 16) as usize;
    let end = bytes.len() as u64; // escapes [32, table_offset)
    bytes[table_offset + 8..table_offset + 16].copy_from_slice(&end.to_le_bytes());
    reseal(&mut bytes);
    assert!(matches!(open(bytes).err().expect("must fail"), StoreError::Corrupt(_)));
}

#[test]
fn garbage_is_rejected_not_panicked() {
    for fill in [0x00u8, 0xFF, 0x41] {
        assert!(open(vec![fill; 4096]).is_err());
    }
    // Valid magic + version, garbage everywhere else.
    let mut bytes = vec![0u8; 4096];
    bytes[..8].copy_from_slice(&MAGIC);
    bytes[8..10].copy_from_slice(&VERSION.to_le_bytes());
    assert!(open(bytes).is_err());
}

// --- sequential scans ---

#[test]
fn flipped_byte_in_a_third_record_fails_its_scan() {
    for (kind, what) in [(SECTION_BESTS, "best record"), (SECTION_INSTANCES, "instance record")] {
        let mut bytes = three_of_each();
        let third = record_offsets(&bytes, kind)[2];
        bytes[third + 8 + 2] ^= 0x01;
        let mut r = open(bytes).expect("structure is intact");
        let err = if kind == SECTION_BESTS {
            r.bests().map(|_| ()).unwrap_err()
        } else {
            r.instances().map(|_| ()).unwrap_err()
        };
        match err {
            StoreError::Crc { what: got, .. } => assert_eq!(got, what),
            other => panic!("expected a {what} CRC error, got {other}"),
        }
        // The other section's scan is untouched by the damage.
        if kind == SECTION_BESTS {
            assert_eq!(r.instances().expect("instances intact").len(), 3);
        } else {
            assert_eq!(r.bests().expect("bests intact").len(), 3);
        }
    }
}

#[test]
fn max_length_frame_is_corrupt_without_allocating() {
    let mut bytes = three_of_each();
    let first = record_offsets(&bytes, SECTION_BESTS)[0];
    bytes[first..first + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    reseal(&mut bytes);
    let file_len = bytes.len();
    let mut r = open(bytes).expect("header, table and trailer are sealed");
    assert!(matches!(r.bests(), Err(StoreError::Corrupt(_))));
    assert!(matches!(r.get_best(0xB000), Err(StoreError::Corrupt(_))));
    let largest = LARGEST.load(Ordering::Relaxed); // ord: see `LargestRequest`.
    assert!(largest < 1 << 30, "a {largest}-byte allocation for a {file_len}-byte file");
}

#[test]
fn record_overrunning_its_section_is_corrupt() {
    // Grow the checkpoint record (and its payload length) by 8 bytes
    // into whatever follows its section, with a matching CRC: the frame
    // and the body both check out, but the records end past the section.
    let mut bytes = sample();
    let at = record_offsets(&bytes, SECTION_CHECKPOINTS)[0];
    let len = u32_le(&bytes, at) as usize + 8;
    bytes[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
    let payload_len_at = at + 8 + 2 + u16_le(&bytes, at + 8) as usize;
    let payload_len = u32_le(&bytes, payload_len_at) + 8;
    bytes[payload_len_at..payload_len_at + 4].copy_from_slice(&payload_len.to_le_bytes());
    let crc = Crc32::of(&bytes[at + 8..at + 8 + len]);
    bytes[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
    let mut r = open(bytes).expect("header, table and trailer are intact");
    match r.checkpoints() {
        Err(StoreError::Corrupt(m)) => assert!(m.contains("overrun"), "{m}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn scan_after_a_point_lookup_sees_every_record() {
    let mut r = open(three_of_each()).unwrap();
    // Leave the handle inside the best section, past its first record.
    assert_eq!(r.get_best(0xB002).unwrap().expect("present").makespan, 252.0);
    let digests: Vec<u64> = r.bests().unwrap().into_iter().map(|(d, _)| d).collect();
    assert_eq!(digests.len(), 3);
    for tag in 0..3 {
        assert!(digests.contains(&(0xB000 + tag)), "{:#x} missing: {digests:x?}", 0xB000 + tag);
    }
    assert!(r.get_instance("toy_4x2").unwrap().is_some());
    assert_eq!(r.instances().unwrap().len(), 3);
}

// --- the drain's merge: `to_builder` against a scan-and-re-add oracle ---

/// The merge written out through the public scans: every instance, then
/// every best, then every checkpoint, each re-added through `add_*`. The
/// first error any scan reports is the merge's error.
fn oracle_merge(bytes: &[u8]) -> Result<Vec<u8>, String> {
    let text = |e: StoreError| e.to_string();
    let mut r = open(bytes.to_vec()).map_err(text)?;
    let mut b = StoreBuilder::new();
    for instance in r.instances().map_err(text)? {
        b.add_instance(&instance).map_err(text)?;
    }
    for (digest, run) in r.bests().map_err(text)? {
        b.add_best(digest, &run).map_err(text)?;
    }
    for (name, payload) in r.checkpoints().map_err(text)? {
        b.add_checkpoint(&name, &payload).map_err(text)?;
    }
    Ok(b.encode())
}

/// What the drain's merge produces: `to_builder`, then the image.
fn drained(bytes: &[u8]) -> Result<Vec<u8>, String> {
    let text = |e: StoreError| e.to_string();
    Ok(open(bytes.to_vec()).map_err(text)?.to_builder().map_err(text)?.encode())
}

/// `sample()` with a future section (kind 99) spliced in before the
/// table, resealed.
fn with_unknown_section() -> Vec<u8> {
    let old = sample();
    let old_table_offset = u64_le(&old, 16) as usize;
    let trailer_at = old.len() - TRAILER_LEN;
    let future_payload = b"payload from the future";
    let mut bytes = old[..old_table_offset].to_vec();
    let future_off = bytes.len() as u64;
    bytes.extend_from_slice(future_payload);
    let new_table_offset = bytes.len() as u64;
    bytes.extend_from_slice(&old[old_table_offset..trailer_at]);
    bytes.extend_from_slice(&99u32.to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    bytes.extend_from_slice(&future_off.to_le_bytes());
    bytes.extend_from_slice(&(future_payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&old[trailer_at..]);
    bytes[12..16].copy_from_slice(&6u32.to_le_bytes());
    bytes[16..24].copy_from_slice(&new_table_offset.to_le_bytes());
    reseal(&mut bytes);
    bytes
}

/// The serve benchmark's corpus shape: the 12 Braun instances, one
/// generated 4096×64 instance, a checkpoint and 300 archived bests of
/// 512 tasks.
fn serve_mix_shaped() -> Vec<u8> {
    use etc_model::{Consistency, EtcGenerator, GeneratorParams, Heterogeneity};
    let mut b = StoreBuilder::new();
    for name in etc_model::braun_instance_names() {
        b.add_instance(&etc_model::braun_instance(name)).unwrap();
    }
    let params = GeneratorParams {
        n_tasks: 4096,
        n_machines: 64,
        task_heterogeneity: Heterogeneity::High,
        machine_heterogeneity: Heterogeneity::High,
        consistency: Consistency::Inconsistent,
        seed: 41,
    };
    b.add_instance(&EtcGenerator::new(params).generate_named("large.4096x64")).unwrap();
    b.add_checkpoint("job-7", &[0x5A; 3000]).unwrap();
    for tag in 0..300u64 {
        b.add_best(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15), &best(tag, 512, 16)).unwrap();
    }
    b.encode()
}

#[test]
fn to_builder_reencodes_byte_identically() {
    let corpora = [
        ("sample", sample()),
        ("three_of_each", three_of_each()),
        ("empty", StoreBuilder::new().encode()),
        ("unknown section", with_unknown_section()),
        ("serve-mix shaped", serve_mix_shaped()),
    ];
    let dir = std::env::temp_dir().join(format!("pacst-drain-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (label, bytes) in corpora {
        let expected = oracle_merge(&bytes).unwrap_or_else(|e| panic!("{label}: oracle: {e}"));
        assert!(drained(&bytes) == Ok(expected.clone()), "{label}: to_builder image differs");
        let builder = open(bytes).unwrap().to_builder().unwrap();
        let path = dir.join("drained.pacst");
        builder.write(&path).unwrap();
        assert!(std::fs::read(&path).unwrap() == builder.encode(), "{label}: write != encode");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `bytes` with the body of record `index` in section `kind` rewritten by
/// `damage` and its frame CRC recomputed, so only the body's values are
/// wrong.
fn with_body_damage(
    mut bytes: Vec<u8>,
    kind: u32,
    index: usize,
    damage: impl Fn(&mut [u8]),
) -> Vec<u8> {
    let at = record_offsets(&bytes, kind)[index];
    let len = u32_le(&bytes, at) as usize;
    damage(&mut bytes[at + 8..at + 8 + len]);
    let crc = Crc32::of(&bytes[at + 8..at + 8 + len]);
    bytes[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
    bytes
}

/// Every damaged image the corruption tests above build, plus value
/// damage under a valid record CRC in each section.
fn damaged_images() -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = Vec::new();
    let full = sample();
    for cut in 0..full.len() {
        out.push((format!("truncated at {cut}"), full[..cut].to_vec()));
    }
    let mut bytes = sample();
    bytes[0] = b'G';
    out.push(("bad magic".into(), bytes));
    let mut bytes = sample();
    bytes[8..10].copy_from_slice(&2u16.to_le_bytes());
    out.push(("wrong version".into(), bytes));
    let mut bytes = sample();
    bytes[12] ^= 0x01;
    out.push(("header byte".into(), bytes));
    let mut bytes = sample();
    let table_offset = u64_le(&bytes, 16) as usize;
    bytes[table_offset + 4] ^= 0xFF;
    out.push(("table byte".into(), bytes));
    let mut bytes = sample();
    let (off, _) = find_section(&bytes, SECTION_INSTANCES);
    bytes[off as usize + 16 + 4] ^= 0x20;
    out.push(("instance body byte".into(), bytes));
    let mut bytes = sample();
    let at = bytes.len() - 8;
    bytes[at] ^= 0xFF;
    out.push(("torn trailer".into(), bytes));
    let mut bytes = sample();
    bytes.push(0);
    out.push(("appended byte".into(), bytes));
    let mut bytes = sample();
    let table_offset = u64_le(&bytes, 16) as usize;
    let end = bytes.len() as u64;
    bytes[table_offset + 8..table_offset + 16].copy_from_slice(&end.to_le_bytes());
    reseal(&mut bytes);
    out.push(("escaping section".into(), bytes));
    for fill in [0x00u8, 0xFF, 0x41] {
        out.push((format!("fill {fill:#04x}"), vec![fill; 4096]));
    }
    let mut bytes = vec![0u8; 4096];
    bytes[..8].copy_from_slice(&MAGIC);
    bytes[8..10].copy_from_slice(&VERSION.to_le_bytes());
    out.push(("magic then garbage".into(), bytes));
    for kind in [SECTION_BESTS, SECTION_INSTANCES] {
        let mut bytes = three_of_each();
        let third = record_offsets(&bytes, kind)[2];
        bytes[third + 8 + 2] ^= 0x01;
        out.push((format!("third record of kind {kind}"), bytes));
    }
    let mut bytes = three_of_each();
    let first = record_offsets(&bytes, SECTION_BESTS)[0];
    bytes[first..first + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    reseal(&mut bytes);
    out.push(("max-length frame".into(), bytes));
    let mut bytes = sample();
    let at = record_offsets(&bytes, SECTION_CHECKPOINTS)[0];
    let len = u32_le(&bytes, at) as usize + 8;
    bytes[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
    let payload_len_at = at + 8 + 2 + u16_le(&bytes, at + 8) as usize;
    let payload_len = u32_le(&bytes, payload_len_at) + 8;
    bytes[payload_len_at..payload_len_at + 4].copy_from_slice(&payload_len.to_le_bytes());
    let crc = Crc32::of(&bytes[at + 8..at + 8 + len]);
    bytes[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
    out.push(("overrunning checkpoint".into(), bytes));

    // Value damage with valid CRCs: the record codecs must catch it. The
    // second instance is "toy_2x2" (name 7 bytes, cells from 33).
    let nan = f64::NAN.to_le_bytes();
    for (label, kind, index, at, patch) in [
        ("instance NaN cell", SECTION_INSTANCES, 1, 33, nan.to_vec()),
        ("instance negative ready", SECTION_INSTANCES, 1, 17, (-1f64).to_le_bytes().to_vec()),
        ("instance zero tasks", SECTION_INSTANCES, 1, 9, 0u32.to_le_bytes().to_vec()),
        ("instance short name_len", SECTION_INSTANCES, 0, 0, 6u16.to_le_bytes().to_vec()),
        ("instance non-UTF-8 name", SECTION_INSTANCES, 1, 2, vec![0xFF]),
        ("best machine out of range", SECTION_BESTS, 0, 42 + 5, 9u32.to_le_bytes().to_vec()),
        ("best zero machines", SECTION_BESTS, 0, 14 + 5, 0u32.to_le_bytes().to_vec()),
        ("best NaN makespan", SECTION_BESTS, 0, 18 + 5, nan.to_vec()),
        ("checkpoint payload_len", SECTION_CHECKPOINTS, 0, 4, 1u32.to_le_bytes().to_vec()),
    ] {
        let bytes = with_body_damage(sample(), kind, index, |body| {
            body[at..at + patch.len()].copy_from_slice(&patch)
        });
        out.push((label.into(), bytes));
    }
    // A damaged best after a damaged instance: the instance error wins.
    let bytes = with_body_damage(sample(), SECTION_BESTS, 0, |body| {
        body[18 + 5..26 + 5].copy_from_slice(&nan)
    });
    let bytes =
        with_body_damage(bytes, SECTION_INSTANCES, 1, |body| body[33..41].copy_from_slice(&nan));
    out.push(("instance and best damaged".into(), bytes));
    out
}

#[test]
fn to_builder_errors_match_the_oracle() {
    for (label, bytes) in damaged_images() {
        let expected = oracle_merge(&bytes);
        assert!(expected.is_err(), "{label}: the damage must fail the merge");
        let got = drained(&bytes);
        assert!(got == expected, "{label}: {:?} vs {:?}", got.err(), expected.err());
    }
}

/// A corpus on disk for the drain tests: 32 instances of 512+ tasks on
/// 16 machines, 512 bests of 512 tasks and a checkpoint, about 3.3 MB of
/// record bodies. Returns the file's path and the sum of its body bytes.
fn many_record_corpus(dir: &std::path::Path) -> (std::path::PathBuf, u64) {
    let mut b = StoreBuilder::new();
    for k in 0..32 {
        b.add_instance(&EtcInstance::toy(512 + k, 16)).unwrap();
    }
    for tag in 0..512u64 {
        b.add_best(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15), &best(tag, 512, 16)).unwrap();
    }
    b.add_checkpoint("job-1", &[0x5A; 40_000]).unwrap();
    let path = dir.join("many.pacst");
    b.write(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let bodies = [SECTION_INSTANCES, SECTION_BESTS, SECTION_CHECKPOINTS]
        .into_iter()
        .flat_map(|kind| record_offsets(&bytes, kind))
        .map(|at| u64::from(u32_le(&bytes, at)))
        .sum();
    (path, bodies)
}

#[test]
fn drain_holds_no_stored_body() {
    let dir = std::env::temp_dir().join(format!("pacst-peak-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (path, bodies) = many_record_corpus(&dir);
    let before = std::fs::read(&path).unwrap();
    let target = dir.join("drained.pacst");
    let ((), peak) = peak_growth(|| {
        let mut builder = StoreReader::open_path(&path).unwrap().to_builder().unwrap();
        builder.add_best(7, &best(7, 512, 16)).unwrap();
        builder.write(&target).unwrap();
    });
    // What a drain may hold at once: the largest body being checked,
    // the copy buffer, the two file buffers and the indexes, which is a
    // few hundred KB here. Holding the stored bodies costs all of them.
    let bound = bodies / 8;
    assert!(peak as u64 <= bound, "drain peaked {peak} B over {bodies} B of bodies");
    // And the image is the merge's.
    let mut expected = open(before).unwrap().to_builder().unwrap();
    expected.add_best(7, &best(7, 512, 16)).unwrap();
    assert!(std::fs::read(&target).unwrap() == expected.encode(), "drained image differs");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn body_changed_after_to_builder_fails_the_write() {
    let dir = std::env::temp_dir().join(format!("pacst-changed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("c.pacst");
    std::fs::write(&path, three_of_each()).unwrap();
    let mut builder = StoreReader::open_path(&path).unwrap().to_builder().unwrap();
    builder.add_best(0xF00D, &best(9, 4, 2)).unwrap();

    // Flip one byte inside the second instance's body, in place.
    let mut changed = std::fs::read(&path).unwrap();
    let at = record_offsets(&changed, SECTION_INSTANCES)[1] + 8 + 20;
    changed[at] ^= 0x04;
    {
        use std::io::{Seek, SeekFrom, Write};
        let mut file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.seek(SeekFrom::Start(at as u64)).unwrap();
        file.write_all(&changed[at..at + 1]).unwrap();
    }

    match builder.write(&path) {
        Err(StoreError::Crc { what, .. }) => assert_eq!(what, "instance record"),
        other => panic!("expected a CRC error, got {other:?}"),
    }
    assert!(std::fs::read(&path).unwrap() == changed, "the failed write replaced the file");
    assert!(open(builder.encode()).is_err(), "an image cut short must not open");
    let _ = std::fs::remove_dir_all(&dir);
}
