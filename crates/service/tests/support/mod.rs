//! Input sources shared by the decoder's fuzz and pin suites: the
//! regression corpus under `tests/corpus/` and the seeded byte mutator.

use rand::rngs::SmallRng;
use rand::Rng;
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

/// Every non-blank line of one corpus file, with its 1-based line number.
pub fn corpus_file(name: &str) -> Vec<(usize, String)> {
    let bytes = std::fs::read(corpus_dir().join(name)).expect("corpus file readable");
    String::from_utf8_lossy(&bytes)
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| (i + 1, line.to_string()))
        .collect()
}

/// Every non-blank line of every corpus file as `("file:line", text)`,
/// files in name order so the list is the same on every filesystem.
pub fn corpus_lines() -> Vec<(String, String)> {
    let mut names: Vec<String> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus exists")
        .flatten()
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let mut lines = Vec::new();
    for name in names {
        for (n, line) in corpus_file(&name) {
            lines.push((format!("{name}:{n}"), line));
        }
    }
    assert!(lines.len() >= 8, "corpus unexpectedly small: {} inputs", lines.len());
    lines
}

/// Applies 1–4 random byte-level mutations to `base` (same scheme as
/// the checkpoint fuzz driver, biased toward JSON structure bytes).
pub fn mutate(base: &[u8], rng: &mut SmallRng) -> Vec<u8> {
    let mut bytes = base.to_vec();
    for _ in 0..rng.gen_range(1..=4usize) {
        if bytes.is_empty() {
            bytes.push(rng.gen_range(0..=255u32) as u8);
            continue;
        }
        match rng.gen_range(0..5u32) {
            0 => {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] = rng.gen_range(0..=255u32) as u8;
            }
            1 => {
                let i = rng.gen_range(0..=bytes.len());
                let table = br#"{}[]",:0123456789.eE-+\u null"#;
                let b = table[rng.gen_range(0..table.len())];
                bytes.insert(i, b);
            }
            2 => {
                let i = rng.gen_range(0..bytes.len());
                bytes.remove(i);
            }
            3 => {
                let keep = rng.gen_range(0..bytes.len());
                bytes.truncate(keep);
            }
            _ => {
                let start = rng.gen_range(0..bytes.len());
                let len = rng.gen_range(0..(bytes.len() - start).min(32) + 1);
                let chunk: Vec<u8> = bytes[start..start + len].to_vec();
                let at = rng.gen_range(0..=bytes.len());
                bytes.splice(at..at, chunk);
            }
        }
    }
    bytes
}
