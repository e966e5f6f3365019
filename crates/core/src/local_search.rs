//! **H2LL** — the paper's new local search operator (Algorithm 4).
//!
//! Each iteration moves one task, randomly chosen from the **most loaded**
//! machine (whose completion time defines the makespan), to the best of
//! the `N` **least loaded** candidate machines — "best" meaning smallest
//! resulting completion time, and only if that new completion time stays
//! below the current makespan. If no candidate qualifies, the iteration
//! leaves the schedule unchanged.
//!
//! Note on the paper's pseudo-code: Algorithm 4 line 5 reads
//! "for all mac in `pop_size/2` first machines", an evident typo for the
//! *N candidate machines* described in the text (the population size is
//! 256; there are 16 machines). We default `N = n_machines / 2`, matching
//! both the text ("the N least loaded") and the `/2` in the pseudo-code.
//!
//! H2LL **never increases** the makespan (each accepted move strictly
//! reduces the moved-to machine's completion below the current makespan
//! and only unloads the maximal machine) — property-tested in
//! `tests/prop_operators.rs`.

use etc_model::EtcInstance;
use rand::Rng;
use scheduling::Schedule;
use serde::{Deserialize, Serialize};

/// The H2LL local search operator ("High to Low Load").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct H2ll {
    /// Number of passes (`iter` in Algorithm 3/4; the paper evaluates 5
    /// and 10).
    pub iterations: usize,
    /// Number of least-loaded candidate machines to consider (`N`); `None`
    /// defaults to `n_machines / 2` (min 1).
    pub n_candidates: Option<usize>,
}

impl H2ll {
    /// H2LL with the paper's defaults for a given iteration count.
    pub fn with_iterations(iterations: usize) -> Self {
        Self { iterations, n_candidates: None }
    }

    /// Resolves the candidate count for an instance.
    pub fn candidates_for(&self, n_machines: usize) -> usize {
        self.n_candidates.unwrap_or(n_machines / 2).clamp(1, n_machines)
    }

    /// Applies the operator in place. Returns the number of accepted
    /// moves. `scratch` is a reusable machine-index buffer of length
    /// `n_machines` (contents irrelevant on entry); pass a fresh
    /// `Vec` via [`H2ll::apply`] if you don't keep one.
    ///
    /// The machine load ordering (Algorithm 4 line 2) is sorted **once**
    /// and then maintained incrementally: an accepted move changes the
    /// loads of exactly two machines, and each is re-sifted to its sorted
    /// position in O(#machines) swaps instead of a full O(M log M) re-sort
    /// per iteration. The random task pick uses the schedule's task index
    /// (O(1)) instead of an O(#tasks) assignment scan. Both refinements
    /// are move-for-move identical to [`H2ll::apply_scan_with_scratch`]
    /// whenever the most loaded machine holds at least one task.
    ///
    /// When the most loaded machine holds *no* tasks (its load is pure
    /// ready time), the iteration falls through to the next-loaded machine
    /// that has one instead of being burned — the move-acceptance
    /// threshold is then that machine's own completion time, so the
    /// makespan still never increases.
    pub fn apply_with_scratch(
        &self,
        instance: &EtcInstance,
        schedule: &mut Schedule,
        rng: &mut impl Rng,
        scratch: &mut Vec<usize>,
    ) -> usize {
        let n_machines = schedule.n_machines();
        let n_cand = self.candidates_for(n_machines);
        let etc = instance.etc();
        let mut moves = 0;

        scratch.clear();
        scratch.extend(0..n_machines);
        // Sorted once; re-sifted after each accepted move.
        schedule.sort_machines_into(scratch);

        for _ in 0..self.iterations {
            // Source: the most loaded machine that actually holds a task.
            let mut sp = n_machines - 1;
            while schedule.count_on(scratch[sp]) == 0 {
                if sp == 0 {
                    return moves; // No tasks anywhere.
                }
                sp -= 1;
            }
            let src = scratch[sp];
            let threshold = schedule.completion(src);

            // Line 3: a random task from the source machine (O(1) pick).
            let task =
                schedule.random_task_on(src, rng).expect("source machine was chosen non-empty");

            // Lines 4-11: best candidate among the N least loaded machines.
            let mut best_mac = None;
            let mut best_score = threshold;
            for &mac in scratch.iter().take(n_cand) {
                if mac == src {
                    continue;
                }
                // The transposed access of Algorithm 4 line 6.
                let new_score = schedule.completion(mac) + etc.etc_on(mac, task);
                if new_score < best_score {
                    best_mac = Some(mac);
                    best_score = new_score;
                }
            }

            // Line 12: move the task if a candidate qualified.
            if let Some(mac) = best_mac {
                schedule.move_task(instance, task, mac);
                moves += 1;
                // Only src (load fell) and mac (load rose) changed rank.
                resift(scratch, schedule, mac);
                resift(scratch, schedule, src);
            }
        }
        moves
    }

    /// Applies the operator in place (allocating the scratch buffer).
    pub fn apply(
        &self,
        instance: &EtcInstance,
        schedule: &mut Schedule,
        rng: &mut impl Rng,
    ) -> usize {
        let mut scratch = Vec::with_capacity(schedule.n_machines());
        self.apply_with_scratch(instance, schedule, rng, &mut scratch)
    }

    /// The pre-index implementation, frozen as the oracle of the
    /// differential and trace-identity tests: full machine sort plus two
    /// O(#tasks) assignment scans (count + `nth`-filter pick) per
    /// iteration. Behaviorally identical to the paper's Algorithm 4; kept
    /// verbatim so an `h2ll` vs `h2ll_scan` timing measures exactly the
    /// retired cost structure.
    pub fn apply_scan_with_scratch(
        &self,
        instance: &EtcInstance,
        schedule: &mut Schedule,
        rng: &mut impl Rng,
        scratch: &mut Vec<usize>,
    ) -> usize {
        let n_machines = schedule.n_machines();
        let n_cand = self.candidates_for(n_machines);
        let etc = instance.etc();
        let mut moves = 0;

        scratch.clear();
        scratch.extend(0..n_machines);

        for _ in 0..self.iterations {
            // Algorithm 4 line 2: sort machines on ascending completion time.
            schedule.sort_machines_into(scratch);
            let most_loaded = scratch[n_machines - 1];
            let makespan = schedule.completion(most_loaded);

            // Line 3: a random task from the most loaded machine, found by
            // scanning the assignment vector (the retired hot path).
            let count =
                schedule.assignment().iter().filter(|&&m| m as usize == most_loaded).count();
            if count == 0 {
                // Only ready time loads this machine; nothing to move.
                continue;
            }
            let pick = rng.gen_range(0..count);
            let task = schedule
                .assignment()
                .iter()
                .enumerate()
                .filter(|&(_, &m)| m as usize == most_loaded)
                .nth(pick)
                .map(|(t, _)| t)
                .expect("count said the task exists");

            // Lines 4-11: best candidate among the N least loaded machines.
            let mut best_mac = None;
            let mut best_score = makespan;
            for &mac in scratch.iter().take(n_cand) {
                if mac == most_loaded {
                    continue;
                }
                let new_score = schedule.completion(mac) + etc.etc_on(mac, task);
                if new_score < best_score {
                    best_mac = Some(mac);
                    best_score = new_score;
                }
            }

            // Line 12: move the task if a candidate qualified.
            if let Some(mac) = best_mac {
                schedule.move_task(instance, task, mac);
                moves += 1;
            }
        }
        moves
    }
}

/// Restores the load-sorted order of `order` after `machine`'s load
/// changed, by bubbling it to its new position. Uses the same
/// [`Schedule::load_rank`] key as [`Schedule::sort_machines_into`], so an
/// incrementally maintained order is always bit-identical to a full
/// re-sort.
fn resift(order: &mut [usize], schedule: &Schedule, machine: usize) {
    let lt = |a: usize, b: usize| {
        schedule
            .load_rank(a)
            .partial_cmp(&schedule.load_rank(b))
            .expect("completion times are finite")
            .is_lt()
    };
    let mut i = order.iter().position(|&m| m == machine).expect("machine is in the order buffer");
    while i > 0 && lt(order[i], order[i - 1]) {
        order.swap(i, i - 1);
        i -= 1;
    }
    while i + 1 < order.len() && lt(order[i + 1], order[i]) {
        order.swap(i, i + 1);
        i += 1;
    }
}

impl std::fmt::Display for H2ll {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "H2LL(iter={})", self.iterations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etc_model::{EtcInstance, EtcMatrix};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use scheduling::check_schedule;

    #[test]
    fn never_increases_makespan() {
        let inst = EtcInstance::toy(32, 6);
        let mut rng = SmallRng::seed_from_u64(3);
        for seed in 0..20 {
            let mut rng2 = SmallRng::seed_from_u64(seed);
            let mut s = Schedule::random(&inst, &mut rng2);
            let before = s.makespan();
            H2ll::with_iterations(10).apply(&inst, &mut s, &mut rng);
            assert!(s.makespan() <= before + 1e-9);
            assert!(check_schedule(&inst, &s).is_ok());
        }
    }

    #[test]
    fn improves_obviously_bad_schedule() {
        // Everything on machine 0 of a 4-machine uniform instance.
        let inst = EtcInstance::new("u", EtcMatrix::from_fn(16, 4, |_, _| 1.0));
        let mut s = Schedule::from_assignment(&inst, vec![0; 16]);
        let mut rng = SmallRng::seed_from_u64(1);
        let moves = H2ll::with_iterations(12).apply(&inst, &mut s, &mut rng);
        assert!(moves > 0);
        assert!(s.makespan() < 16.0);
    }

    #[test]
    fn zero_iterations_is_identity() {
        let inst = EtcInstance::toy(8, 3);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut s = Schedule::random(&inst, &mut rng);
        let before = s.clone();
        let moves = H2ll::with_iterations(0).apply(&inst, &mut s, &mut rng);
        assert_eq!(moves, 0);
        assert_eq!(s, before);
    }

    #[test]
    fn candidate_count_defaults_to_half() {
        let op = H2ll::with_iterations(5);
        assert_eq!(op.candidates_for(16), 8);
        assert_eq!(op.candidates_for(3), 1);
        assert_eq!(op.candidates_for(1), 1);
        let op2 = H2ll { iterations: 5, n_candidates: Some(100) };
        assert_eq!(op2.candidates_for(16), 16, "clamped to machine count");
    }

    #[test]
    fn accepted_move_targets_candidate_set_only() {
        let inst = EtcInstance::toy(32, 8);
        let mut rng = SmallRng::seed_from_u64(9);
        let mut s = Schedule::from_assignment(&inst, vec![7; 32]);
        // With 2 candidates, moves may only land on the 2 least loaded.
        let op = H2ll { iterations: 1, n_candidates: Some(2) };
        let least = {
            let order = s.machines_by_load();
            [order[0], order[1]]
        };
        let before = s.clone();
        op.apply(&inst, &mut s, &mut rng);
        for t in 0..32 {
            if s.machine_of(t) != before.machine_of(t) {
                assert!(least.contains(&s.machine_of(t)));
            }
        }
    }

    #[test]
    fn ready_time_loaded_machine_no_longer_burns_iterations() {
        // Machine 2's load is pure ready time (100) and defines the
        // makespan; all 16 tasks sit on machine 0. The retired scan
        // implementation burned every iteration on the taskless machine;
        // the indexed one falls through to machine 0 and balances it
        // against machine 1 without ever raising the makespan.
        let etc = etc_model::EtcMatrix::from_fn(16, 3, |_, _| 1.0);
        let inst = EtcInstance::with_ready_times("r", etc, vec![0.0, 0.0, 100.0]);
        let mut s = Schedule::from_assignment(&inst, vec![0; 16]);
        let mut rng = SmallRng::seed_from_u64(7);
        let moves = H2ll::with_iterations(10).apply(&inst, &mut s, &mut rng);
        assert!(moves > 0, "fell through to the next-loaded machine");
        assert_eq!(s.makespan(), 100.0);
        assert!(s.completion(0) < 16.0, "machine 0 was unloaded");
        assert!(check_schedule(&inst, &s).is_ok());

        // The frozen scan reference documents the retired behavior: all
        // iterations burn on the taskless makespan machine.
        let mut s2 = Schedule::from_assignment(&inst, vec![0; 16]);
        let mut rng2 = SmallRng::seed_from_u64(7);
        let mut scratch = Vec::new();
        let burned = H2ll::with_iterations(10).apply_scan_with_scratch(
            &inst,
            &mut s2,
            &mut rng2,
            &mut scratch,
        );
        assert_eq!(burned, 0);
    }

    #[test]
    fn indexed_and_scan_agree_without_ready_times() {
        let inst = EtcInstance::toy(40, 7);
        for seed in 0..10u64 {
            let mut rng_a = SmallRng::seed_from_u64(seed);
            let mut rng_b = SmallRng::seed_from_u64(seed);
            let mut init = SmallRng::seed_from_u64(seed + 100);
            let start = Schedule::random(&inst, &mut init);
            let mut a = start.clone();
            let mut b = start.clone();
            let op = H2ll::with_iterations(25);
            let ma = op.apply(&inst, &mut a, &mut rng_a);
            let mut scratch = Vec::new();
            let mb = op.apply_scan_with_scratch(&inst, &mut b, &mut rng_b, &mut scratch);
            assert_eq!(ma, mb, "seed {seed}");
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn single_machine_noop() {
        let inst = EtcInstance::toy(6, 1);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut s = Schedule::from_assignment(&inst, vec![0; 6]);
        let moves = H2ll::with_iterations(5).apply(&inst, &mut s, &mut rng);
        assert_eq!(moves, 0);
    }

    #[test]
    fn display_format() {
        assert_eq!(H2ll::with_iterations(10).to_string(), "H2LL(iter=10)");
    }
}
