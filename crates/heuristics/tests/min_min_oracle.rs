//! Min-min's sorted-column driver against the frozen full-rescan oracle
//! (`min_min_scan`), and the one-pass cohort against per-heuristic runs.
//!
//! Equality is `Schedule`'s `PartialEq` plus the assignment vector: the
//! same task-to-machine map and the same completion-time bits.

use etc_model::{
    braun_instance, braun_instance_names, Consistency, EtcGenerator, EtcInstance, EtcMatrix,
    GeneratorParams, Heterogeneity,
};
use heuristics::{cohort, min_min, min_min_scan, Heuristic};

fn assert_matches_scan(inst: &EtcInstance, label: &str) {
    let fast = min_min(inst);
    let scan = min_min_scan(inst);
    assert_eq!(fast.assignment(), scan.assignment(), "{label}: assignment");
    assert_eq!(fast, scan, "{label}: schedule");
}

fn generated(
    n_tasks: usize,
    n_machines: usize,
    consistency: Consistency,
    task_heterogeneity: Heterogeneity,
    machine_heterogeneity: Heterogeneity,
    seed: u64,
) -> EtcInstance {
    EtcGenerator::new(GeneratorParams {
        n_tasks,
        n_machines,
        task_heterogeneity,
        machine_heterogeneity,
        consistency,
        seed,
    })
    .generate()
}

/// Deterministic non-negative ready times; `integral` ones tie often.
fn ready_times(n_machines: usize, seed: u64, integral: bool) -> Vec<f64> {
    (0..n_machines as u64)
        .map(|m| {
            let x = (m * 7 + seed * 13) % 11;
            if integral {
                x as f64
            } else {
                x as f64 * 1.37 + 0.5
            }
        })
        .collect()
}

fn with_ready(inst: &EtcInstance, seed: u64, integral: bool) -> EtcInstance {
    EtcInstance::with_ready_times(
        format!("{}+ready", inst.name()),
        inst.etc().clone(),
        ready_times(inst.n_machines(), seed, integral),
    )
}

const CONSISTENCIES: [Consistency; 3] =
    [Consistency::Consistent, Consistency::SemiConsistent, Consistency::Inconsistent];
const HETEROGENEITIES: [Heterogeneity; 2] = [Heterogeneity::High, Heterogeneity::Low];

#[test]
fn generator_instances_of_every_class_match_scan() {
    for c in CONSISTENCIES {
        for th in HETEROGENEITIES {
            for mh in HETEROGENEITIES {
                for seed in 0..3u64 {
                    let inst = generated(48 + 9 * seed as usize, 7, c, th, mh, seed);
                    let label = format!("{c:?}/{th:?}/{mh:?}/seed {seed}");
                    assert_matches_scan(&inst, &label);
                    assert_matches_scan(&with_ready(&inst, seed, false), &format!("{label}+ready"));
                }
            }
        }
    }
}

#[test]
fn rounded_instances_match_scan() {
    // ETC rounded to 0.1, as in the daemon benchmark's request shapes:
    // equal entries recur, so completions tie exactly.
    for (k, c) in CONSISTENCIES.into_iter().enumerate() {
        let raw = generated(128, 16, c, Heterogeneity::Low, Heterogeneity::Low, 40 + k as u64);
        let etc = EtcMatrix::from_fn(128, 16, |t, m| (raw.etc().etc(t, m) * 10.0).round() / 10.0);
        let inst = EtcInstance::new("rounded", etc);
        assert_matches_scan(&inst, &format!("rounded {c:?}"));
        assert_matches_scan(&with_ready(&inst, k as u64, true), &format!("rounded {c:?}+ready"));
    }
}

#[test]
fn degenerate_shapes_match_scan() {
    // T = 1, M = 1 and T < M, each with and without ready times.
    for (n_tasks, n_machines) in [(1, 1), (1, 5), (9, 1), (3, 8), (5, 6)] {
        for seed in 0..3u64 {
            let inst = generated(
                n_tasks,
                n_machines,
                Consistency::Inconsistent,
                Heterogeneity::High,
                Heterogeneity::High,
                seed,
            );
            let label = format!("{n_tasks}x{n_machines} seed {seed}");
            assert_matches_scan(&inst, &label);
            assert_matches_scan(&with_ready(&inst, seed, false), &format!("{label}+ready"));
            assert_matches_scan(&with_ready(&inst, seed, true), &format!("{label}+int ready"));
        }
    }
}

#[test]
fn integer_matrices_with_exact_ties_match_scan() {
    // Entries from a handful of small integers: most rounds tie on the
    // best completion across several tasks and machines at once.
    for seed in 0..40u64 {
        let n_tasks = 6 + (seed as usize * 5) % 37;
        let n_machines = 1 + (seed as usize * 3) % 7;
        let levels = 1 + seed % 4;
        let etc = EtcMatrix::from_fn(n_tasks, n_machines, |t, m| {
            let h = (t as u64 * 31 + m as u64 * 17 + seed * 7) ^ (t as u64 * m as u64);
            (1 + h % levels) as f64
        });
        let inst = EtcInstance::new(format!("ties{seed}"), etc);
        assert_matches_scan(&inst, &format!("ties seed {seed}"));
        if seed % 2 == 0 {
            assert_matches_scan(&with_ready(&inst, seed, true), &format!("ties seed {seed}+ready"));
        }
    }
}

#[test]
fn constant_matrix_matches_scan() {
    // Every task ties with every other on every round.
    for (n_tasks, n_machines) in [(1, 1), (7, 3), (64, 8), (512, 16)] {
        let inst = EtcInstance::new("const", EtcMatrix::from_fn(n_tasks, n_machines, |_, _| 3.5));
        assert_matches_scan(&inst, &format!("constant {n_tasks}x{n_machines}"));
        assert_matches_scan(
            &with_ready(&inst, 1, true),
            &format!("constant {n_tasks}x{n_machines}+ready"),
        );
    }
}

#[test]
fn braun_instances_match_scan() {
    for name in braun_instance_names() {
        assert_matches_scan(&braun_instance(name), name);
    }
}

#[test]
fn cohort_equals_every_heuristic_run_alone() {
    let check = |inst: &EtcInstance| {
        let alone = Heuristic::all().map(|h| h.schedule(inst));
        assert_eq!(cohort(inst), alone, "{}", inst.name());
    };
    check(&braun_instance("u_s_lohi.0"));
    check(&EtcInstance::toy(30, 5));

    for seed in 0..20u64 {
        let etc = EtcMatrix::from_fn(6, 2, |t, m| {
            (1 + ((t as u64 * 7 + m as u64 * 11) * (seed + 3) + seed) % 5) as f64
        });
        check(&EtcInstance::new(format!("small{seed}"), etc));
    }

    // Min-min puts t0 on m0 and t1 on m1; Max-min the other way round.
    // Both reach makespan 2, and Duplex must keep Min-min's schedule.
    let tie = EtcInstance::new("tie", EtcMatrix::from_task_major(2, 2, vec![1.0, 1.0, 2.0, 2.0]));
    check(&tie);
    let (a, b) = (min_min(&tie), Heuristic::MaxMin.schedule(&tie));
    assert_eq!(a.makespan(), b.makespan());
    assert_ne!(a, b);
    assert_eq!(cohort(&tie)[6], a);
}
