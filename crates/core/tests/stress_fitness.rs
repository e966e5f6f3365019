//! Concurrency stress tests for the lock-free fitness publication
//! protocol (DESIGN.md §7): under heavy multi-thread traffic, a fitness
//! read from a cell's atomic mirror must never be torn — every observed
//! value is finite and is the makespan of a schedule that actually
//! existed — and an engine run at high thread counts must leave every
//! individual internally consistent.

use crossbeam::utils::CachePadded;
use etc_model::EtcInstance;
use pa_cga_core::config::{PaCgaConfig, Termination};
use pa_cga_core::engine::parallel::EVAL_FLUSH_EVERY;
use pa_cga_core::engine::PaCga;
use pa_cga_core::individual::Individual;
use parking_lot::RwLock;
use scheduling::{check_schedule, Schedule};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The publication pattern itself, isolated from the engine: 4 writers
/// toggle one shared cell between two known schedules — mutating the
/// genome under the write lock and storing the new fitness bits while
/// still holding it — while 4 readers hammer the mirror with relaxed
/// loads. Every observed value must be exactly one of the two real
/// makespans: a torn 64-bit read would produce a bit hybrid that is
/// (with these payloads) neither.
#[test]
fn eight_thread_publication_never_tears_fitness() {
    let inst = EtcInstance::toy(64, 8);
    // Two deliberately different schedules with distinct makespans.
    let a = Individual::new(Schedule::round_robin(&inst));
    let b = Individual::new(Schedule::from_assignment(&inst, vec![0; 64]));
    assert_ne!(a.fitness_bits(), b.fitness_bits());
    let legal = [a.fitness_bits(), b.fitness_bits()];

    let cell = CachePadded::new(RwLock::new(a.clone()));
    let mirror = CachePadded::new(AtomicU64::new(a.fitness_bits()));
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for w in 0..4u64 {
            let (cell, mirror, a, b) = (&cell, &mirror, &a, &b);
            scope.spawn(move || {
                for round in 0..2_000u64 {
                    let next = if (round + w) % 2 == 0 { a } else { b };
                    let mut guard = cell.write();
                    guard.copy_from(next);
                    mirror.store(guard.fitness_bits(), Ordering::Relaxed);
                }
            });
        }
        for _ in 0..4 {
            let (mirror, done) = (&mirror, &done);
            scope.spawn(move || {
                let mut observed = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let bits = mirror.load(Ordering::Relaxed);
                    assert!(
                        legal.contains(&bits),
                        "torn fitness observed: {} (bits {bits:#x})",
                        f64::from_bits(bits)
                    );
                    assert!(f64::from_bits(bits).is_finite());
                    observed += 1;
                }
                assert!(observed > 0);
            });
        }
        // Release the readers after a window that overlaps writer
        // activity; scope exit then joins everything.
        scope.spawn(|| {
            std::thread::sleep(std::time::Duration::from_millis(50));
            done.store(true, Ordering::Relaxed);
        });
    });

    // The final published value matches the locked cell exactly.
    assert_eq!(cell.read().fitness_bits(), mirror.load(Ordering::Relaxed));
}

/// A real engine run at 8 threads with mid-sweep budget stops: the final
/// population must be fully consistent (valid index, exact CT, cached
/// fitness equal to the schedule's makespan) and the evaluation overshoot
/// within the sharded-accounting bound.
#[test]
fn eight_thread_engine_run_is_consistent() {
    let inst = EtcInstance::toy(48, 6);
    let cfg = PaCgaConfig::builder()
        .grid(8, 8)
        .threads(8)
        .local_search_iterations(2)
        .termination(Termination::Evaluations(4_000))
        .seed(13)
        .record_traces(true)
        .build();
    let (out, pop) = PaCga::new(&inst, cfg).run_with_population();
    assert_eq!(pop.len(), 64);
    for (i, ind) in pop.iter().enumerate() {
        check_schedule(&inst, &ind.schedule)
            .unwrap_or_else(|e| panic!("individual {i} corrupt after 8 threads: {e}"));
        assert_eq!(ind.fitness, ind.schedule.makespan(), "individual {i}");
        assert!(ind.fitness.is_finite());
    }
    assert!(out.evaluations >= 4_000);
    assert!(out.evaluations <= 4_000 + 8 * EVAL_FLUSH_EVERY);
    let pop_best = pop.iter().map(|i| i.fitness).fold(f64::INFINITY, f64::min);
    assert_eq!(out.best.fitness, pop_best);
}

/// Same stress at the generation budget: every thread completes exactly
/// its sweep count and the evaluation total is exact, proving no
/// evaluation is lost or double-counted by the sharded flush.
#[test]
fn sharded_accounting_is_exact_under_generation_budget() {
    let inst = EtcInstance::toy(48, 6);
    let cfg = PaCgaConfig::builder()
        .grid(8, 8)
        .threads(8)
        .termination(Termination::Generations(25))
        .seed(17)
        .build();
    let out = PaCga::new(&inst, cfg).run();
    assert_eq!(out.generations, vec![25; 8]);
    assert_eq!(out.evaluations, 64 + 25 * 64);
}

/// The batched evaluation path (ISSUE 6): across batch widths — narrower
/// than, equal to, and wider than a thread's block — an 8-thread run
/// must publish no torn or stale fitness through the atomic mirrors.
/// Every surviving individual's cached fitness must be bit-identical to
/// its schedule's makespan AND to a from-scratch oracle recompute (every
/// accepted offspring was installed by `load_evaluated_deferred`, so a
/// stale-row or wrong-row install would surface here).
#[test]
fn batched_evaluation_publishes_consistent_fitness_across_widths() {
    let inst = EtcInstance::toy(48, 6);
    for batch in [1, 3, 8, 16, 64] {
        let cfg = PaCgaConfig::builder()
            .grid(8, 8)
            .threads(8)
            .eval_batch(batch)
            .local_search_iterations(2)
            .termination(Termination::Evaluations(3_000))
            .seed(23)
            .build();
        let (out, pop) = PaCga::new(&inst, cfg).run_with_population();
        for (i, ind) in pop.iter().enumerate() {
            check_schedule(&inst, &ind.schedule)
                .unwrap_or_else(|e| panic!("batch {batch}, individual {i}: {e}"));
            assert_eq!(
                ind.fitness.to_bits(),
                ind.schedule.makespan().to_bits(),
                "batch {batch}, individual {i}: cached fitness is stale"
            );
            let oracle = Schedule::from_assignment(&inst, ind.schedule.assignment().to_vec());
            assert_eq!(
                ind.fitness.to_bits(),
                oracle.makespan_full().to_bits(),
                "batch {batch}, individual {i}: fitness diverges from the oracle"
            );
        }
        assert!(out.evaluations >= 3_000);
        assert!(out.evaluations <= 3_000 + 8 * EVAL_FLUSH_EVERY, "batch {batch}");
    }
}

/// Sharded counters must sum exactly to evaluations performed no matter
/// the batch width: chunks never straddle sweep boundaries, so a
/// generation budget yields the same exact count for every width.
#[test]
fn sharded_accounting_is_exact_across_batch_widths() {
    let inst = EtcInstance::toy(48, 6);
    for batch in [1, 2, 7, 16, 64] {
        let cfg = PaCgaConfig::builder()
            .grid(8, 8)
            .threads(8)
            .eval_batch(batch)
            .termination(Termination::Generations(25))
            .seed(17)
            .build();
        let out = PaCga::new(&inst, cfg).run();
        assert_eq!(out.generations, vec![25; 8], "batch {batch}");
        assert_eq!(out.evaluations, 64 + 25 * 64, "batch {batch}");
    }
}
