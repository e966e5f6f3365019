//! Golden pins for the engines' output bits.
//!
//! Each case runs one deterministic engine configuration (one thread, a
//! generation or evaluation budget) and folds the final population's
//! genes and fitness bits, the evaluation / generation / replacement
//! counts and every trace point into one FNV-1a digest. The constants
//! were captured before the two engines were folded onto one evolution
//! kernel; any change to what either engine computes, draw for draw,
//! moves a digest.
//! The `ls.5` cases mix local-search and plain rows in one chunk; they
//! were captured before stage 2 stopped pricing the rows that go on to
//! local search.
//!
//! When a pin fails, the assertion message lists every case with its
//! current digest, so an intended behaviour change can be re-pinned by
//! pasting that table — and must be written up when it is.

use etc_model::{Consistency, EtcGenerator, EtcInstance, GeneratorParams, Heterogeneity};
use pa_cga_core::config::{PaCgaConfig, Termination};
use pa_cga_core::engine::{PaCga, SyncCga};
use pa_cga_core::sweep::SweepPolicy;
use pa_cga_core::{Individual, RunOutcome};

const PARALLEL_PINS: &[(&str, u64)] = &[
    ("b1/ls0/gen12@6x6/line", 0xe82176e1c410e620),
    ("b1/ls0/gen12@6x6/random", 0xc7e17381b14a5479),
    ("b1/ls0/ev700@6x6/line", 0x42fff62d46d4cf3a),
    ("b1/ls0/ev700@6x6/random", 0x3a08b2f755cb823d),
    ("b1/ls0/ev700@16x16/line", 0x0d73487c22e291f2),
    ("b1/ls0/ev700@16x16/random", 0xdce18e859a76301a),
    ("b1/ls1/gen12@6x6/line", 0x1d7fbcbf28a619b0),
    ("b1/ls1/gen12@6x6/random", 0x1054cfaffd57542b),
    ("b1/ls1/ev700@6x6/line", 0xb0051727667c0d6a),
    ("b1/ls1/ev700@6x6/random", 0x30effd307be68327),
    ("b1/ls1/ev700@16x16/line", 0x6963e381d5f822df),
    ("b1/ls1/ev700@16x16/random", 0x391d280db435a628),
    ("b1/ls.5/gen12@6x6/line", 0x1994bfc2d3e80c10),
    ("b1/ls.5/gen12@6x6/random", 0x83f2c1768e8f8af8),
    ("b1/ls.5/ev700@6x6/line", 0x896bdd0f0c6d583d),
    ("b1/ls.5/ev700@6x6/random", 0xd577e9a8b2832841),
    ("b1/ls.5/ev700@16x16/line", 0x2f4f00f111c4dadf),
    ("b1/ls.5/ev700@16x16/random", 0xac30c8911ef4c2d4),
    ("b16/ls0/gen12@6x6/line", 0x54bb58b8f2a899c4),
    ("b16/ls0/gen12@6x6/random", 0xc6086106af2b1220),
    ("b16/ls0/ev700@6x6/line", 0x149857921bb8faa6),
    ("b16/ls0/ev700@6x6/random", 0x958c882bf1a00908),
    ("b16/ls0/ev700@16x16/line", 0x8b45e7bce26db06e),
    ("b16/ls0/ev700@16x16/random", 0x1e5b0abf9505cab6),
    ("b16/ls1/gen12@6x6/line", 0x31474f0803efcdd8),
    ("b16/ls1/gen12@6x6/random", 0x78787d7272916f4a),
    ("b16/ls1/ev700@6x6/line", 0x9811aa9351a82601),
    ("b16/ls1/ev700@6x6/random", 0x8ee1b99b34ad39d1),
    ("b16/ls1/ev700@16x16/line", 0x80a3038d4fe8dcc7),
    ("b16/ls1/ev700@16x16/random", 0xcdb1cabc962536c2),
    ("b16/ls.5/gen12@6x6/line", 0x4a8329217e679263),
    ("b16/ls.5/gen12@6x6/random", 0x150eda0c10c97f84),
    ("b16/ls.5/ev700@6x6/line", 0xe67fa5767dd7a1c9),
    ("b16/ls.5/ev700@6x6/random", 0x8e9ac1c5716d8a4e),
    ("b16/ls.5/ev700@16x16/line", 0xa9f8dfe40e0f10a5),
    ("b16/ls.5/ev700@16x16/random", 0x722ab5927312597c),
    ("renorm3/gen12@6x6", 0x1d7fbcbf28a619b0),
];

const SYNC_PINS: &[(&str, u64)] = &[
    ("b1/ls0/gen12@6x6/line", 0x7b5e4c8bdd6859fb),
    ("b1/ls0/ev700@16x16/line", 0x4246c8494285bca5),
    ("b1/ls1/gen12@6x6/line", 0x32765fb0d1d544e3),
    ("b1/ls1/ev700@16x16/line", 0x12463ede2d1b8b5e),
    ("b1/ls.5/gen12@6x6/line", 0x0dbd8a3f0409a5fc),
    ("b1/ls.5/ev700@16x16/line", 0x5a84eb997522c9a6),
    ("b16/ls0/gen12@6x6/line", 0x7b5e4c8bdd6859fb),
    ("b16/ls0/ev700@16x16/line", 0x4246c8494285bca5),
    ("b16/ls1/gen12@6x6/line", 0x9ea2db1f9b207ca9),
    ("b16/ls1/ev700@16x16/line", 0xf43194a8bd20d9cb),
    ("b16/ls.5/gen12@6x6/line", 0x28d14437b110af7c),
    ("b16/ls.5/ev700@16x16/line", 0x01e83d9d2bc5980c),
    ("renorm3/gen12@6x6", 0x32765fb0d1d544e3),
];

/// A 48×6 range-generated instance: real-valued ETC entries, so cached
/// completion times can drift and the renormalize case is not a no-op.
fn instance() -> EtcInstance {
    EtcGenerator::new(GeneratorParams {
        n_tasks: 48,
        n_machines: 6,
        task_heterogeneity: Heterogeneity::High,
        machine_heterogeneity: Heterogeneity::High,
        consistency: Consistency::Inconsistent,
        seed: 16,
    })
    .generate()
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn digest(out: &RunOutcome, pop: &[Individual]) -> u64 {
    let mut h = Fnv::new();
    h.u64(pop.len() as u64);
    for ind in pop {
        for &g in ind.schedule.assignment() {
            h.bytes(&g.to_le_bytes());
        }
        h.u64(ind.fitness_bits());
    }
    h.u64(out.evaluations);
    for counts in [&out.generations, &out.replacements] {
        h.u64(counts.len() as u64);
        for &c in counts {
            h.u64(c);
        }
    }
    for t in &out.traces {
        h.u64(t.len() as u64);
        for (m, b) in t.block_mean.iter().zip(&t.block_best) {
            h.u64(m.to_bits());
            h.u64(b.to_bits());
        }
    }
    h.0
}

/// The pinned budgets: (label, grid side, termination).
fn budgets(sync: bool) -> Vec<(&'static str, usize, Termination)> {
    let mut v = vec![("gen12@6x6", 6, Termination::Generations(12))];
    if !sync {
        v.push(("ev700@6x6", 6, Termination::Evaluations(700)));
    }
    v.push(("ev700@16x16", 16, Termination::Evaluations(700)));
    v
}

fn config(
    side: usize,
    term: Termination,
    batch: usize,
    p_ls: Option<f64>,
    sweep: SweepPolicy,
) -> PaCgaConfig {
    let b = PaCgaConfig::builder()
        .grid(side, side)
        .threads(1)
        .eval_batch(batch)
        .sweep(sweep)
        .termination(term)
        .seed(2024)
        .record_traces(true);
    match p_ls {
        Some(p) => b.local_search_iterations(5).p_local_search(p).build(),
        None => b.local_search(None).build(),
    }
}

/// Local-search settings: none, every offspring, and about half of them
/// (`ls.5`), which mixes local-search and plain rows in one chunk.
const LS_LEVELS: &[(&str, Option<f64>)] = &[("ls0", None), ("ls1", Some(1.0)), ("ls.5", Some(0.5))];

/// Every pinned case of one engine: (label, config).
fn cases(sync: bool) -> Vec<(String, PaCgaConfig)> {
    let sweeps: &[(&str, SweepPolicy)] = if sync {
        &[("line", SweepPolicy::LineSweep)]
    } else {
        &[("line", SweepPolicy::LineSweep), ("random", SweepPolicy::RandomSweep)]
    };
    let mut out = Vec::new();
    for batch in [1, 16] {
        for &(ls_label, p_ls) in LS_LEVELS {
            for &(label, side, term) in &budgets(sync) {
                for &(sweep_label, sweep) in sweeps {
                    out.push((
                        format!("b{batch}/{ls_label}/{label}/{sweep_label}"),
                        config(side, term, batch, p_ls, sweep),
                    ));
                }
            }
        }
    }
    let mut renorm = config(6, Termination::Generations(12), 1, Some(1.0), SweepPolicy::LineSweep);
    renorm.renormalize_every = 3;
    out.push(("renorm3/gen12@6x6".to_string(), renorm));
    out
}

fn check(engine: &str, pins: &[(&str, u64)], run: impl Fn(PaCgaConfig) -> u64) {
    let actual: Vec<(String, u64)> =
        cases(engine == "sync").into_iter().map(|(label, cfg)| (label, run(cfg))).collect();
    let table: String =
        actual.iter().map(|(label, d)| format!("    (\"{label}\", {d:#018x}),\n")).collect();
    let expected: Vec<(String, u64)> = pins.iter().map(|&(l, d)| (l.to_string(), d)).collect();
    assert_eq!(actual, expected, "{engine} engine pins moved; current digests:\n{table}");
}

#[test]
fn parallel_engine_bits_are_pinned() {
    let inst = instance();
    check("parallel", PARALLEL_PINS, |cfg| {
        let (out, pop) = PaCga::new(&inst, cfg).run_with_population();
        digest(&out, &pop)
    });
}

#[test]
fn sync_engine_bits_are_pinned() {
    let inst = instance();
    check("sync", SYNC_PINS, |cfg| {
        let (out, pop) = SyncCga::new(&inst, cfg).run_with_population();
        digest(&out, &pop)
    });
}
