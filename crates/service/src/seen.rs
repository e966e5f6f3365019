//! The seen-line table: a cache hit on a `schedule` line the daemon has
//! already accepted, byte for byte, skips decoding and digesting it.
//!
//! Decoding an inline `schedule` line turns every cell of its `etc`
//! text into an `f64`, and the memoization digest then folds every cell
//! into FNV-1a. Both are fixed by the line's bytes, and a client that
//! repeats a request resends those bytes. The table keys each accepted
//! inline `schedule` line by a keyed hash of its bytes and length, and
//! keeps the request it decoded to (cells dropped) with its digest. A
//! line in the table costs one hash and one map read before the cache
//! lookup; every other line takes the full decode. The hash is taken
//! once per line ([`SeenLines::key`]): the lookup and, when the full
//! path accepts the line, its entry share it.
//!
//! **Soundness.** [`crate::Request::decode`] and the checked digest
//! depend only on the line's bytes, so an equal line decodes and digests
//! exactly as it did when it was entered. A false match needs two
//! different lines of one length to share a 64-bit SipHash under
//! per-table random keys.
//!
//! **Bound.** At most `capacity` entries (the daemon passes its
//! `--cache-cap`; 0 turns the table off), oldest entered evicted first.
//! An entry holds a key, the request without its cells and the digest:
//! never line bytes or cells.

use crate::json::FlatMatrix;
use crate::protocol::{InstanceSource, ScheduleRequest};
use parking_lot::Mutex;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, Hasher};
use std::sync::Arc;

/// A line's place in the table: a keyed hash of its bytes and length,
/// and the length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LineKey {
    hash: u64,
    len: usize,
}

/// An accepted `schedule` line, as the table answers it.
#[derive(Debug, Clone, PartialEq)]
pub struct KnownSchedule {
    /// The request as [`crate::Request::decode`] decodes the line, except
    /// that its inline matrix is empty: the cells are not kept. Resolving
    /// it is refused as an empty matrix, so it serves only to answer a
    /// cache hit.
    pub request: ScheduleRequest,
    /// The digest the full path takes of the line.
    pub digest: u64,
}

struct Entries {
    map: HashMap<LineKey, Arc<KnownSchedule>>,
    /// Keys in the order they were entered, oldest first.
    order: VecDeque<LineKey>,
}

/// The bounded table of accepted inline `schedule` lines (see the
/// module doc).
pub struct SeenLines {
    keys: RandomState,
    capacity: usize,
    entries: Mutex<Entries>,
}

impl SeenLines {
    /// A table of at most `capacity` lines; 0 keeps none and looks
    /// nothing up.
    pub fn new(capacity: usize) -> Self {
        let entries = Entries { map: HashMap::new(), order: VecDeque::new() };
        SeenLines { keys: RandomState::new(), capacity, entries: Mutex::new(entries) }
    }

    /// Lines held.
    pub fn len(&self) -> usize {
        self.entries.lock().map.len()
    }

    /// True when no line is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The key of `line`, or `None` when the table keeps nothing
    /// (capacity 0): the line is then not hashed.
    pub fn key(&self, line: &str) -> Option<LineKey> {
        if self.capacity == 0 {
            return None;
        }
        let mut h = self.keys.build_hasher();
        h.write(line.as_bytes());
        h.write_usize(line.len());
        Some(LineKey { hash: h.finish(), len: line.len() })
    }

    /// The entry under `key` when the table holds it. The lock covers
    /// one map read.
    pub fn get(&self, key: LineKey) -> Option<Arc<KnownSchedule>> {
        self.entries.lock().map.get(&key).cloned()
    }

    /// The full path's checks and digest of `request`, decoded from the
    /// line `key` was taken of. When they accept an inline matrix, the
    /// line is entered under `key`.
    pub fn checked_digest(
        &self,
        key: Option<LineKey>,
        request: &ScheduleRequest,
    ) -> Result<u64, String> {
        let digest = request.checked_digest()?;
        if let (Some(key), InstanceSource::Inline { name, ready, .. }) = (key, &request.source) {
            let source = InstanceSource::Inline {
                name: name.clone(),
                etc: FlatMatrix::default(),
                ready: ready.clone(),
            };
            let request = ScheduleRequest { id: request.id.clone(), source, ..*request };
            self.enter(key, KnownSchedule { request, digest });
        }
        Ok(digest)
    }

    fn enter(&self, key: LineKey, known: KnownSchedule) {
        let mut entries = self.entries.lock();
        if entries.map.insert(key, Arc::new(known)).is_none() {
            entries.order.push_back(key);
            if entries.order.len() > self.capacity {
                if let Some(oldest) = entries.order.pop_front() {
                    entries.map.remove(&oldest);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Request, MAX_INLINE_CELLS};

    const LINE: &str = r#"{"type":"schedule","id":"a","etc":[[1,2.5,3],[4,5,6.25]],"ready":[0,1.5,0.25],"evals":200,"seed":3}"#;

    fn decode(line: &str) -> ScheduleRequest {
        match Request::decode(line) {
            Ok(Request::Schedule(request)) => *request,
            other => panic!("{line}: {other:?}"),
        }
    }

    /// The entry for `line`, keyed as the daemon keys it.
    fn get(table: &SeenLines, line: &str) -> Option<Arc<KnownSchedule>> {
        table.key(line).and_then(|key| table.get(key))
    }

    /// The full path, as the daemon takes it on a line the table lacks:
    /// decode, check and digest, entering the line when accepted.
    fn full_path(table: &SeenLines, line: &str) -> Result<u64, String> {
        assert!(get(table, line).is_none(), "{line} took the table");
        table.checked_digest(table.key(line), &decode(line))
    }

    /// `line` decoded in full, its inline matrix emptied as the table
    /// keeps it.
    fn without_cells(line: &str) -> ScheduleRequest {
        let mut request = decode(line);
        if let InstanceSource::Inline { etc, .. } = &mut request.source {
            *etc = FlatMatrix::default();
        }
        request
    }

    fn assert_known_as_full(table: &SeenLines, line: &str) {
        let known = get(table, line).unwrap_or_else(|| panic!("{line} missed the table"));
        let full = decode(line);
        let instance = full.resolve_instance().unwrap();
        assert_eq!(known.digest, full.digest(&instance), "{line}");
        assert_eq!(known.request, without_cells(line), "{line}");
    }

    #[test]
    fn an_accepted_line_is_known_byte_for_byte_only() {
        let table = SeenLines::new(8);
        let digest = full_path(&table, LINE).unwrap();
        assert_eq!(table.len(), 1);
        assert_known_as_full(&table, LINE);
        assert_eq!(get(&table, LINE).map(|k| k.digest), Some(digest));
        // Another id, another seed, or the same matrix in other bytes is
        // another line: a miss that the full path then enters.
        let other_id = LINE.replace(r#""id":"a""#, r#""id":"b""#);
        let other_seed = LINE.replace(r#""seed":3"#, r#""seed":4"#);
        let spaced = LINE.replace("[[1,2.5,3]", "[ [1,2.5,3]");
        let respelled = LINE.replace("2.5", "2.50");
        assert_eq!(full_path(&table, &other_id), Ok(digest));
        assert_ne!(full_path(&table, &other_seed), Ok(digest));
        assert_eq!(full_path(&table, &spaced), Ok(digest));
        assert_eq!(full_path(&table, &respelled), Ok(digest));
        for line in [LINE, &other_id, &other_seed, &spaced, &respelled] {
            assert_known_as_full(&table, line);
        }
        assert_eq!(table.len(), 5);
    }

    #[test]
    fn lines_decode_as_today_before_they_are_entered() {
        let table = SeenLines::new(8);
        let etc = r#""etc":[[1,2.5,3],[4,5,6.25]]"#;
        for line in [
            // A second `etc`: the first wins, as in the full decode.
            format!(r#"{{"type":"schedule",{etc},"etc":[[9]],"evals":5}}"#),
            // `ready` before `etc`.
            format!(r#"{{"ready":[0,1.5,0.25],"type":"schedule",{etc},"seed":3}}"#),
        ] {
            full_path(&table, &line).unwrap();
            assert_known_as_full(&table, &line);
            assert_eq!(decode(&line).resolve_instance().unwrap().n_tasks(), 2);
        }
    }

    #[test]
    fn refused_and_non_inline_lines_are_never_entered() {
        let table = SeenLines::new(8);
        let long_row = format!("[{}1]", "1,".repeat(MAX_INLINE_CELLS));
        for line in [
            format!(r#"{{"type":"schedule","etc":[{long_row}],"evals":10}}"#),
            r#"{"type":"schedule","etc":[[1,2],[3]]}"#.into(),
            r#"{"type":"schedule","etc":[[1,0]]}"#.into(),
            r#"{"type":"schedule","etc":[[1,2]],"ready":[1]}"#.into(),
            r#"{"type":"schedule","etc":[[1,2]],"ready":[1,-1]}"#.into(),
            r#"{"type":"schedule","etc":[]}"#.into(),
        ] {
            assert!(full_path(&table, &line).is_err(), "{}", &line[..40.min(line.len())]);
        }
        assert!(table.is_empty());
        // Accepted, but its source has no cells to skip.
        full_path(&table, r#"{"type":"schedule","braun":"u_c_hihi.0","evals":10}"#).unwrap();
        assert!(table.is_empty());
    }

    #[test]
    fn capacity_bounds_the_table() {
        let table = SeenLines::new(0);
        full_path(&table, LINE).unwrap();
        assert!(table.is_empty(), "capacity 0 keeps nothing");
        assert!(get(&table, LINE).is_none());

        let table = SeenLines::new(2);
        let lines: Vec<String> =
            (1..=3).map(|k| LINE.replace("[[1,", &format!("[[{k}{k},"))).collect();
        for line in &lines {
            full_path(&table, line).unwrap();
        }
        assert_eq!(table.len(), 2);
        assert!(get(&table, &lines[0]).is_none(), "oldest evicted");
        assert_known_as_full(&table, &lines[1]);
        assert_known_as_full(&table, &lines[2]);
        // Entering a held line again does not grow the table.
        table.checked_digest(table.key(&lines[1]), &decode(&lines[1])).unwrap();
        assert_eq!(table.len(), 2);
    }
}
