// Fixture: every rule suppressed by an inline `pacga:allow(...)` waiver
// or an `// ord:` justification — the analyzer must report it clean.
use std::sync::atomic::{AtomicU64, Ordering};
// pacga:allow(A5)
use std::sync::Mutex;

pub fn fine(flag: &AtomicU64, row: &[u8], s: &Schedule) -> u8 {
    // ord: Relaxed — advisory counter, no cross-thread protocol.
    flag.store(1, Ordering::Relaxed);
    // pacga:allow(A1) — fixture exercises the waiver path for SeqCst.
    flag.load(Ordering::SeqCst);
    // pacga:allow(A3) — fixture-only peek at Schedule internals.
    let _ = s.bucket_tasks.len();
    // pacga:allow(A4) — fixture-only raw write.
    std::fs::write("/tmp/x", b"y").ok();
    let _lock: Option<Mutex<u8>> = None;
    // pacga:allow(A6) — fixture-only environment mutation.
    std::env::set_var("PA_CGA_FIXTURE", "1");
    // pacga:allow(A2) — fixture-only indexing.
    row[0]
}
