//! Seeded byte-mutation fuzz smoke over the service's two untrusted
//! input surfaces: [`Json::parse`] and [`Request::decode`] (the
//! checkpoint loader has its own driver in
//! `crates/core/tests/fuzz_checkpoint.rs`).
//!
//! Two layers:
//!
//! 1. **Regression corpus** (`tests/corpus/`): every line of every file
//!    is fed to both targets verbatim. The corpus pins down inputs that
//!    were interesting once — torn objects, 200-deep nesting, hostile
//!    job names, overflowing numbers — so they stay covered forever.
//! 2. **Seeded mutation**: a fixed-seed xoshiro stream drives byte
//!    flips / inserts / deletes / truncations / splices over the valid
//!    corpus seeds, `PA_CGA_FUZZ_ITERS` rounds per target (default
//!    10 000, the CI floor).
//!
//! Every `schedule`, `job.start` and `stream.open` spec that decodes
//! also runs `resolve_instance` and `digest`, as the daemon does before
//! its cache lookup, so a panic in inline-matrix validation is caught.
//!
//! The contract everywhere: malformed input yields `Err` (which the
//! daemon turns into an `error` response) — **never** a panic. A panic
//! in a connection handler would kill that client's thread; in the
//! recovery scan it would take down the daemon at boot.

mod support;

use pa_cga_service::protocol::ScheduleRequest;
use pa_cga_service::{Json, Request};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::panic::catch_unwind;
use support::{corpus_lines, mutate};

fn fuzz_iters() -> u64 {
    std::env::var("PA_CGA_FUZZ_ITERS").ok().and_then(|v| v.parse().ok()).unwrap_or(10_000)
}

/// Runs `target` over the whole corpus and `iters` mutants, panicking
/// with a reproducer on the first target panic.
fn drive(target_name: &str, seed: u64, target: impl Fn(&str) -> bool + std::panic::RefUnwindSafe) {
    // Layer 1: the regression corpus, verbatim.
    let corpus = corpus_lines();
    for (file, line) in &corpus {
        if catch_unwind(|| target(line)).is_err() {
            panic!("{target_name} panicked on corpus input from {file}: {line:?}");
        }
    }

    // Layer 2: seeded mutants of the corpus seeds.
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut rejected = 0u64;
    let iters = fuzz_iters();
    for i in 0..iters {
        let (_, base) = &corpus[(i as usize) % corpus.len()];
        let mutant_bytes = mutate(base.as_bytes(), &mut rng);
        let mutant = String::from_utf8_lossy(&mutant_bytes).into_owned();
        match catch_unwind(|| target(&mutant)) {
            Ok(was_rejected) => rejected += was_rejected as u64,
            Err(_) => panic!(
                "{target_name} panicked on iteration {i} (seed {seed:#x}); mutant: {mutant:?}"
            ),
        }
    }
    // Sanity: the stream is actually exercising error paths.
    assert!(rejected > iters / 4, "{target_name}: only {rejected}/{iters} mutants rejected");
}

#[test]
fn json_parser_never_panics() {
    drive("Json::parse", 0x50AC_6A02, |input| Json::parse(input).is_err());
}

/// Resolves and digests a decoded spec, as the daemon does before its
/// cache lookup; a resolve error is an answer, not a failure.
fn resolve_and_digest(spec: &ScheduleRequest) {
    if let Ok(instance) = spec.resolve_instance() {
        std::hint::black_box(spec.digest(&instance));
    }
}

#[test]
fn request_decoder_never_panics() {
    drive("Request::decode", 0x50AC_6A03, |input| match Request::decode(input) {
        Err(_) => true,
        Ok(Request::Schedule(spec)) => {
            resolve_and_digest(&spec);
            false
        }
        Ok(Request::JobStart(start)) => {
            resolve_and_digest(&start.spec);
            false
        }
        Ok(Request::StreamOpen(open)) => {
            if let Some(spec) = &open.spec {
                resolve_and_digest(spec);
            }
            false
        }
        Ok(_) => false,
    });
}
