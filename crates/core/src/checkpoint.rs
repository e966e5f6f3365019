//! Population checkpointing.
//!
//! Long runs (the paper's 90 s × 100 repetitions, island epochs, or the
//! service's durable jobs) can be saved and resumed: a checkpoint stores
//! each individual's assignment vector in a small line-oriented text
//! format; loading rebuilds schedules *from scratch* against the instance
//! (which also discards any accumulated floating-point drift in the
//! cached completion times). Resume via
//! [`crate::engine::PaCga::run_seeded`] or
//! [`crate::engine::PaCga::run_hooked`].
//!
//! Format (`v2`):
//!
//! ```text
//! pacga-checkpoint v2 <population> <n_tasks>
//! meta <generations> <evaluations> <elapsed_ms>
//! <gene gene gene ...>        (one line per individual)
//! crc <crc32-hex>             (over every preceding byte)
//! ```
//!
//! The trailing CRC-32 means a torn or bit-rotted file can never load as
//! a *wrong but plausible* population: structural damage is caught by
//! the header/gene validation, value damage by the checksum. On-disk
//! writes go through [`save_to_path`] — temp file + `fsync` + atomic
//! rename (plus directory `fsync`), so a crash mid-write leaves either
//! the old checkpoint or the new one, never a hybrid.

use crate::individual::Individual;
use etc_model::EtcInstance;
use scheduling::Schedule;
use std::io::{self, BufRead, Write};
use std::path::Path;

/// Format magic + version.
const HEADER: &str = "pacga-checkpoint v2";

/// The reflected CRC-32 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic byte-at-a-time
/// table, and `CRC_TABLES[k][b]` is the CRC of byte `b` followed by
/// `k` zero bytes, so eight table lookups fold eight input bytes.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut c = b as u32;
        let mut bit = 0;
        while bit < 8 {
            c = (c >> 1) ^ (CRC_POLY & (c & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = c;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`, init and
/// xor-out `0xFFFFFFFF`) — the trailer checksum here and the per-record
/// checksum of the `.pacst` corpus store (FORMAT.md §4), which reuses
/// this implementation so the whole workspace agrees on one CRC.
/// Table-driven (slicing-by-8): a corpus warm boot re-checks every
/// record, so the checksum sits on the daemon's startup path.
pub struct Crc32(u32);

impl Crc32 {
    /// A fresh accumulator (initial value `0xFFFF_FFFF`).
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Folds `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC_TABLES;
        let mut crc = self.0;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][w[4] as usize]
                ^ t[2][w[5] as usize]
                ^ t[1][w[6] as usize]
                ^ t[0][w[7] as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.0 = crc;
    }

    /// The final (bit-inverted) checksum.
    pub fn finish(&self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }

    /// One-shot convenience: the CRC-32 of `bytes`.
    pub fn of(bytes: &[u8]) -> u32 {
        let mut crc = Crc32::new();
        crc.update(bytes);
        crc.finish()
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// Run progress carried inside a checkpoint, so a resumed job can charge
/// the work already done against its original budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointMeta {
    /// Completed generations of the snapshotting thread.
    pub generations: u64,
    /// Evaluations accounted when the snapshot was taken.
    pub evaluations: u64,
    /// Wall-clock milliseconds consumed before the snapshot (summed
    /// across restarts by the caller).
    pub elapsed_ms: u64,
}

/// Checkpoint errors.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Malformed, truncated, corrupt or wrong-version contents.
    Format(String),
    /// Checkpoint does not match the instance.
    Mismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "I/O error: {e}"),
            CheckpointError::Format(m) => write!(f, "bad checkpoint: {m}"),
            CheckpointError::Mismatch(m) => write!(f, "checkpoint/instance mismatch: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Writes a population checkpoint with default (all-zero) meta.
pub fn save_population<W: Write>(w: &mut W, population: &[Individual]) -> io::Result<()> {
    save_population_meta(w, population, &CheckpointMeta::default())
}

/// Writes a population checkpoint carrying run progress.
pub fn save_population_meta<W: Write + ?Sized>(
    w: &mut W,
    population: &[Individual],
    meta: &CheckpointMeta,
) -> io::Result<()> {
    assert!(!population.is_empty(), "empty population");
    let n_tasks = population[0].schedule.n_tasks();
    // Body first, so the CRC covers exactly the bytes that precede it.
    let mut body = format!(
        "{HEADER} {} {n_tasks}\nmeta {} {} {}\n",
        population.len(),
        meta.generations,
        meta.evaluations,
        meta.elapsed_ms
    )
    .into_bytes();
    // At least one digit and a separator per gene.
    body.reserve(population.len() * n_tasks * 2);
    for ind in population {
        debug_assert_eq!(ind.schedule.n_tasks(), n_tasks);
        for (i, &m) in ind.schedule.assignment().iter().enumerate() {
            if i > 0 {
                body.push(b' ');
            }
            push_decimal(&mut body, m);
        }
        body.push(b'\n');
    }
    let mut crc = Crc32::new();
    crc.update(&body);
    w.write_all(&body)?;
    writeln!(w, "crc {:08x}", crc.finish())?;
    Ok(())
}

/// Appends the decimal digits of `v`, as `v.to_string()` spells them,
/// without allocating. The one integer speller behind the checkpoint
/// body and the daemon's `assignment` arrays.
pub fn push_decimal(out: &mut Vec<u8>, mut v: u32) {
    let mut digits = [0u8; 10];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[start..]);
}

/// Reads a population checkpoint back, discarding the meta line.
pub fn load_population<R: BufRead>(
    r: &mut R,
    instance: &EtcInstance,
) -> Result<Vec<Individual>, CheckpointError> {
    load_population_meta(r, instance).map(|(pop, _)| pop)
}

/// Reads a population checkpoint back with its progress meta, rebuilding
/// schedules (and exact completion times) against `instance`. Fails on
/// any structural damage, value damage (CRC mismatch), or instance
/// mismatch — a checkpoint either loads whole and verified, or not at
/// all.
pub fn load_population_meta<R: BufRead>(
    r: &mut R,
    instance: &EtcInstance,
) -> Result<(Vec<Individual>, CheckpointMeta), CheckpointError> {
    let mut crc = Crc32::new();
    let mut header = String::new();
    r.read_line(&mut header)?;
    crc.update(header.as_bytes());
    let rest = header
        .trim_end()
        .strip_prefix(HEADER)
        .ok_or_else(|| CheckpointError::Format(format!("missing header {HEADER:?}")))?;
    let mut parts = rest.split_whitespace();
    let count: usize = parts
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| CheckpointError::Format("missing population size".into()))?;
    let n_tasks: usize = parts
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| CheckpointError::Format("missing task count".into()))?;
    if count == 0 {
        return Err(CheckpointError::Format("empty population".into()));
    }
    if n_tasks != instance.n_tasks() {
        return Err(CheckpointError::Mismatch(format!(
            "checkpoint has {n_tasks} tasks, instance {}",
            instance.n_tasks()
        )));
    }

    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(CheckpointError::Format("missing meta line".into()));
    }
    crc.update(line.as_bytes());
    let meta = {
        let mut toks = line
            .trim_end()
            .strip_prefix("meta ")
            .ok_or_else(|| CheckpointError::Format("missing meta line".into()))?
            .split_whitespace();
        let mut next = |what: &str| -> Result<u64, CheckpointError> {
            toks.next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| CheckpointError::Format(format!("meta: bad {what}")))
        };
        CheckpointMeta {
            generations: next("generations")?,
            evaluations: next("evaluations")?,
            elapsed_ms: next("elapsed_ms")?,
        }
    };

    let mut population = Vec::with_capacity(count);
    for i in 0..count {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(CheckpointError::Format(format!(
                "expected {count} individuals, found {i}"
            )));
        }
        crc.update(line.as_bytes());
        let genes: Result<Vec<u32>, _> =
            line.split_whitespace().map(|t| t.parse::<u32>()).collect();
        let genes =
            genes.map_err(|_| CheckpointError::Format(format!("individual {i}: bad gene")))?;
        if genes.len() != n_tasks {
            return Err(CheckpointError::Format(format!(
                "individual {i}: {} genes, expected {n_tasks}",
                genes.len()
            )));
        }
        for (t, &m) in genes.iter().enumerate() {
            if m as usize >= instance.n_machines() {
                return Err(CheckpointError::Mismatch(format!(
                    "individual {i}: task {t} on machine {m}, instance has {}",
                    instance.n_machines()
                )));
            }
        }
        population.push(Individual::new(Schedule::from_assignment(instance, genes)));
    }

    // Trailer: the CRC over everything read so far.
    line.clear();
    if r.read_line(&mut line)? == 0 {
        return Err(CheckpointError::Format("missing crc trailer".into()));
    }
    let stored = line
        .trim_end()
        .strip_prefix("crc ")
        .and_then(|t| u32::from_str_radix(t.trim(), 16).ok())
        .ok_or_else(|| CheckpointError::Format("malformed crc trailer".into()))?;
    let computed = crc.finish();
    if stored != computed {
        return Err(CheckpointError::Format(format!(
            "crc mismatch: stored {stored:08x}, computed {computed:08x}"
        )));
    }
    Ok((population, meta))
}

/// Atomically writes a checkpoint to `path`: the bytes land in
/// `<path>.tmp`, are `fsync`ed, then renamed over `path` (with the
/// parent directory `fsync`ed so the rename itself survives a crash).
///
/// With `rotate_to`, the previous checkpoint at `path` is first renamed
/// aside — the two-snapshot scheme the job manager uses: a kill between
/// the rotate and the install leaves `rotate_to` holding the last good
/// snapshot, so recovery falls back at the cost of one cadence interval.
pub fn save_to_path(
    path: &Path,
    rotate_to: Option<&Path>,
    population: &[Individual],
    meta: &CheckpointMeta,
) -> io::Result<()> {
    crate::fsx::atomic_write_rotate(path, rotate_to, |w| save_population_meta(w, population, meta))
}

/// Loads and verifies the checkpoint at `path`.
pub fn load_from_path(
    path: &Path,
    instance: &EtcInstance,
) -> Result<(Vec<Individual>, CheckpointMeta), CheckpointError> {
    let file = std::fs::File::open(path)?;
    load_population_meta(&mut io::BufReader::new(file), instance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PaCgaConfig, Termination};
    use crate::engine::PaCga;
    use std::io::BufReader;

    fn run_config(seed: u64) -> PaCgaConfig {
        PaCgaConfig::builder()
            .grid(4, 4)
            .threads(1)
            .termination(Termination::Generations(5))
            .seed(seed)
            .build()
    }

    /// The bitwise CRC the tables are checked against: 8 shift/xor
    /// steps per byte, straight from the polynomial.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    /// Deterministic non-trivial bytes (xorshift), no RNG dependency.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn push_decimal_spells_like_to_string() {
        let mut values = vec![0, 1, 9, 10, 11, 99, 100, 101, 65_535, 1_000_000_000, u32::MAX];
        values.extend((0..32).map(|k| 1u32 << k));
        for v in values {
            let mut out = b"x".to_vec();
            push_decimal(&mut out, v);
            assert_eq!(out, format!("x{v}").into_bytes(), "{v}");
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The classic "123456789" check value; the empty input is 0.
        let mut crc = Crc32::new();
        crc.update(b"123456789");
        assert_eq!(crc.finish(), 0xCBF4_3926);
        assert_eq!(Crc32::of(&[]), 0);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_table_matches_bitwise_at_every_length_and_offset() {
        let bytes = noise(300 + 8);
        for start in 0..8 {
            for len in 0..=300 {
                let slice = &bytes[start..start + len];
                assert_eq!(Crc32::of(slice), crc32_bitwise(slice), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn crc32_split_updates_match_one_shot() {
        let bytes = noise(1000);
        let whole = Crc32::of(&bytes);
        // Split points from a second xorshift stream: pieces of 0..=23
        // bytes, so every residue of 8 and empty pieces occur.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..50 {
            let mut crc = Crc32::new();
            let mut rest = bytes.as_slice();
            while !rest.is_empty() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let (head, tail) = rest.split_at(((x % 24) as usize).min(rest.len()));
                crc.update(head);
                rest = tail;
            }
            assert_eq!(crc.finish(), whole);
        }
    }

    #[test]
    fn round_trip_preserves_assignments_fitness_and_meta() {
        let inst = EtcInstance::toy(24, 4);
        let (_, pop) = PaCga::new(&inst, run_config(1)).run_with_population();
        let meta = CheckpointMeta { generations: 5, evaluations: 96, elapsed_ms: 1234 };
        let mut buf = Vec::new();
        save_population_meta(&mut buf, &pop, &meta).unwrap();
        let (loaded, got) =
            load_population_meta(&mut BufReader::new(buf.as_slice()), &inst).unwrap();
        assert_eq!(got, meta);
        assert_eq!(loaded.len(), pop.len());
        for (a, b) in pop.iter().zip(&loaded) {
            assert_eq!(a.schedule.assignment(), b.schedule.assignment());
            // Fitness recomputed from scratch matches cached (within drift).
            assert!((a.fitness - b.fitness).abs() <= 1e-8 * a.fitness.max(1.0));
        }
    }

    #[test]
    fn resume_continues_evolution() {
        let inst = EtcInstance::toy(24, 4);
        let (out1, pop) = PaCga::new(&inst, run_config(1)).run_with_population();
        let mut buf = Vec::new();
        save_population(&mut buf, &pop).unwrap();
        let loaded = load_population(&mut BufReader::new(buf.as_slice()), &inst).unwrap();
        let (out2, _) = PaCga::new(&inst, run_config(2)).run_seeded(loaded);
        assert!(out2.best.makespan() <= out1.best.makespan() + 1e-9);
    }

    #[test]
    fn wrong_instance_detected() {
        let inst = EtcInstance::toy(24, 4);
        let other = EtcInstance::toy(25, 4);
        let (_, pop) = PaCga::new(&inst, run_config(3)).run_with_population();
        let mut buf = Vec::new();
        save_population(&mut buf, &pop).unwrap();
        let err = load_population(&mut BufReader::new(buf.as_slice()), &other).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
    }

    #[test]
    fn machine_out_of_range_detected() {
        let inst = EtcInstance::toy(4, 8);
        let narrow = EtcInstance::toy(4, 2);
        let pop = vec![Individual::new(Schedule::from_assignment(&inst, vec![7, 0, 1, 2]))];
        let mut buf = Vec::new();
        save_population(&mut buf, &pop).unwrap();
        let err = load_population(&mut BufReader::new(buf.as_slice()), &narrow).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)));
    }

    #[test]
    fn truncated_file_detected() {
        let inst = EtcInstance::toy(4, 2);
        let text = format!("{HEADER} 3 4\nmeta 0 0 0\n0 1 0 1\n");
        let err = load_population(&mut BufReader::new(text.as_bytes()), &inst).unwrap_err();
        assert!(matches!(err, CheckpointError::Format(_)), "{err}");
    }

    #[test]
    fn garbage_header_detected() {
        let inst = EtcInstance::toy(4, 2);
        let err = load_population(&mut BufReader::new("nonsense\n".as_bytes()), &inst).unwrap_err();
        assert!(matches!(err, CheckpointError::Format(_)));
    }

    #[test]
    fn old_v1_checkpoints_are_rejected_by_version() {
        let inst = EtcInstance::toy(4, 2);
        let err = load_population(
            &mut BufReader::new("pacga-checkpoint v1 1 4\n0 1 0 1\n".as_bytes()),
            &inst,
        )
        .unwrap_err();
        assert!(matches!(err, CheckpointError::Format(_)), "{err}");
    }

    #[test]
    fn flipped_gene_bit_fails_the_crc() {
        // Corrupt a gene into ANOTHER VALID machine index: structure and
        // range checks pass, only the checksum can catch it.
        let inst = EtcInstance::toy(4, 2);
        let pop = vec![Individual::new(Schedule::from_assignment(&inst, vec![0, 1, 0, 1]))];
        let mut buf = Vec::new();
        save_population(&mut buf, &pop).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let corrupted = text.replacen("0 1 0 1", "1 1 0 1", 1);
        assert_ne!(text, corrupted, "corruption must hit the gene line");
        let err = load_population(&mut BufReader::new(corrupted.as_bytes()), &inst).unwrap_err();
        match err {
            CheckpointError::Format(m) => assert!(m.contains("crc mismatch"), "{m}"),
            other => panic!("expected crc Format error, got {other:?}"),
        }
    }

    #[test]
    fn missing_or_malformed_crc_trailer_detected() {
        let inst = EtcInstance::toy(4, 2);
        let pop = vec![Individual::new(Schedule::from_assignment(&inst, vec![0, 1, 0, 1]))];
        let mut buf = Vec::new();
        save_population(&mut buf, &pop).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let without_crc: String =
            text.lines().filter(|l| !l.starts_with("crc ")).map(|l| format!("{l}\n")).collect();
        let err = load_population(&mut BufReader::new(without_crc.as_bytes()), &inst).unwrap_err();
        assert!(err.to_string().contains("crc"), "{err}");

        let bad_hex = text.replace("crc ", "crc zz");
        let err = load_population(&mut BufReader::new(bad_hex.as_bytes()), &inst).unwrap_err();
        assert!(err.to_string().contains("crc"), "{err}");
    }

    #[test]
    fn save_to_path_round_trips_and_rotates() {
        let inst = EtcInstance::toy(6, 3);
        let dir = std::env::temp_dir().join(format!("pacga_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("checkpoint.ckpt");
        let prev = dir.join("checkpoint.prev.ckpt");

        let pop1 = vec![Individual::new(Schedule::from_assignment(&inst, vec![0, 1, 2, 0, 1, 2]))];
        let meta1 = CheckpointMeta { generations: 1, evaluations: 10, elapsed_ms: 5 };
        save_to_path(&ckpt, Some(&prev), &pop1, &meta1).unwrap();
        assert!(ckpt.exists() && !prev.exists());

        let pop2 = vec![Individual::new(Schedule::from_assignment(&inst, vec![2, 1, 0, 2, 1, 0]))];
        let meta2 = CheckpointMeta { generations: 2, evaluations: 20, elapsed_ms: 9 };
        save_to_path(&ckpt, Some(&prev), &pop2, &meta2).unwrap();

        let (latest, m2) = load_from_path(&ckpt, &inst).unwrap();
        assert_eq!(latest[0].schedule.assignment(), pop2[0].schedule.assignment());
        assert_eq!(m2, meta2);
        let (older, m1) = load_from_path(&prev, &inst).unwrap();
        assert_eq!(older[0].schedule.assignment(), pop1[0].schedule.assignment());
        assert_eq!(m1, meta1);
        assert!(!ckpt.with_extension("tmp").exists(), "temp file cleaned up by rename");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
