//! Iterative (batch) heuristics: each round considers **all** unassigned
//! tasks before committing one of them (Min-min, Max-min, Sufferage).
//!
//! The naive formulation re-evaluates every unassigned task's best machine
//! every round — O(T²·M). Two drivers here avoid that, with results
//! bit-identical to the naive scan (kept as [`min_min_scan`] and, in
//! test builds only, `max_min_scan` / `sufferage_scan`: the oracles of
//! the equivalence tests):
//!
//! - **Min-min** sorts each machine's ETC column once. A round's smallest
//!   completion is then the least of M column heads, so after an
//!   O(M·T log T) sort a round costs O(M).
//! - **Max-min and Sufferage** use the cached-choice driver. Committing
//!   one task changes exactly **one** machine's load, and loads only ever
//!   *increase*: a cached (best, second-best) pair for a task stays exact
//!   unless the committed machine *is* that task's best or second-best.
//!   Each task's choice is computed once up front (O(T·M)) and re-scanned
//!   only when the machine it was pinned to changed load, collapsing the
//!   common case to ~O(T·M + T²).

use etc_model::EtcInstance;
use scheduling::Schedule;

/// Sentinel for "no second-best machine exists" (single-machine instance).
const NO_MACHINE: usize = usize::MAX;

/// For one task, the best machine under current loads and the resulting
/// completion time, plus the second-best machine and completion time (for
/// sufferage and for cache invalidation).
#[derive(Debug, Clone, Copy)]
struct TaskChoice {
    machine: usize,
    completion: f64,
    second_machine: usize,
    second_completion: f64,
}

impl TaskChoice {
    /// How much the task would suffer if denied its best machine.
    fn suffering(&self) -> f64 {
        if self.second_completion.is_finite() {
            self.second_completion - self.completion
        } else {
            // Single machine: no alternative, sufferage zero.
            0.0
        }
    }
}

fn choice_for(instance: &EtcInstance, loads: &[f64], task: usize) -> TaskChoice {
    let mut best_m = NO_MACHINE;
    let mut best = f64::INFINITY;
    let mut second_m = NO_MACHINE;
    let mut second = f64::INFINITY;
    for (m, &load) in loads.iter().enumerate() {
        let c = load + instance.etc().etc_on(m, task);
        if c < best {
            second = best;
            second_m = best_m;
            best = c;
            best_m = m;
        } else if c < second {
            second = c;
            second_m = m;
        }
    }
    TaskChoice {
        machine: best_m,
        completion: best,
        second_machine: second_m,
        second_completion: second,
    }
}

/// Which task a round commits, given every unassigned task's cached
/// choice. All three rules are a strict first-wins arg-extremum, so the
/// indexed and scan drivers share them verbatim. Min-min's rule serves
/// only the scan driver: Min-min itself runs on [`min_min_sorted`].
#[derive(Debug, Clone, Copy)]
enum CommitRule {
    /// Smallest best completion time first (Min-min).
    MinMin,
    /// Largest best completion time first (Max-min).
    MaxMin,
    /// Largest best-to-second-best gap first (Sufferage).
    Sufferage,
}

impl CommitRule {
    /// `true` if `candidate` strictly beats `incumbent` under the rule.
    fn better(self, candidate: &TaskChoice, incumbent: &TaskChoice) -> bool {
        match self {
            CommitRule::MinMin => candidate.completion < incumbent.completion,
            CommitRule::MaxMin => candidate.completion > incumbent.completion,
            CommitRule::Sufferage => candidate.suffering() > incumbent.suffering(),
        }
    }

    /// Whether selection reads `second_completion` (only Sufferage does).
    /// Min-min/Max-min treat it as a mere staleness certificate, which
    /// lets the driver keep it as a *lower bound* and skip most rescans.
    fn needs_exact_second(self) -> bool {
        matches!(self, CommitRule::Sufferage)
    }
}

/// The indexed driver: per-task cached choices, invalidated only when the
/// committed machine was a task's best or second-best.
///
/// Cache-freshness invariants, relying on loads only ever *growing*:
///
/// 1. `machine`/`completion` are always exact, with the scan driver's
///    tie-break (lowest machine index wins equal completions).
/// 2. For Sufferage, `second_machine`/`second_completion` are also exact.
/// 3. For Max-min, `second_completion` is only a **lower bound**
///    on the best completion among non-`machine` machines (selection
///    never reads it). When the committed machine is a task's cached
///    best, one ETC read re-prices it: if the new completion is still
///    *strictly* below the bound, the machine provably remains the
///    unique best and the cache is patched in place — the dominant case
///    on consistent instances, where every task pins the same machine
///    and exact invalidation would degenerate into the O(T²·M) scan.
///    Equal-to-bound cases fall back to a full rescan so index ties
///    break identically to the scan driver.
fn iterative(instance: &EtcInstance, rule: CommitRule) -> Schedule {
    let n = instance.n_tasks();
    let etc = instance.etc();
    let exact_second = rule.needs_exact_second();
    let mut loads: Vec<f64> = instance.ready_times().to_vec();
    let mut assignment = vec![0u32; n];
    let mut unassigned: Vec<usize> = (0..n).collect();
    let mut choice: Vec<TaskChoice> = (0..n).map(|t| choice_for(instance, &loads, t)).collect();

    while !unassigned.is_empty() {
        let mut best = 0;
        for i in 1..unassigned.len() {
            if rule.better(&choice[unassigned[i]], &choice[unassigned[best]]) {
                best = i;
            }
        }
        let task = unassigned[best];
        let committed = choice[task];
        assignment[task] = committed.machine as u32;
        loads[committed.machine] += etc.etc_on(committed.machine, task);
        unassigned.swap_remove(best);

        for &t in &unassigned {
            let c = &mut choice[t];
            if c.machine == committed.machine {
                let cand = loads[c.machine] + etc.etc_on(c.machine, t);
                if !exact_second && cand < c.second_completion {
                    c.completion = cand; // Still the unique best (inv. 3).
                } else {
                    *c = choice_for(instance, &loads, t);
                }
            } else if exact_second && c.second_machine == committed.machine {
                *c = choice_for(instance, &loads, t);
            }
            // Any other machine growing cannot unseat an exact best, and
            // only raises the true second — the cached bound stays valid.
        }
    }
    Schedule::from_assignment(instance, assignment)
}

/// The pre-index driver, frozen for A/B benchmarking and equivalence
/// tests: every round recomputes every unassigned task's choice from
/// scratch — O(T²·M).
fn iterative_scan(instance: &EtcInstance, rule: CommitRule) -> Schedule {
    let n = instance.n_tasks();
    let mut loads: Vec<f64> = instance.ready_times().to_vec();
    let mut assignment = vec![0u32; n];
    let mut unassigned: Vec<usize> = (0..n).collect();
    let mut choices: Vec<(usize, TaskChoice)> = Vec::with_capacity(n);

    while !unassigned.is_empty() {
        choices.clear();
        for &t in &unassigned {
            choices.push((t, choice_for(instance, &loads, t)));
        }
        let mut pick = 0;
        for i in 1..choices.len() {
            if rule.better(&choices[i].1, &choices[pick].1) {
                pick = i;
            }
        }
        let (task, choice) = choices[pick];
        assignment[task] = choice.machine as u32;
        loads[choice.machine] += instance.etc().etc_on(choice.machine, task);
        let pos = unassigned.iter().position(|&t| t == task).expect("task is unassigned");
        unassigned.swap_remove(pos);
    }
    Schedule::from_assignment(instance, assignment)
}

/// Min-min's driver: every machine's ETC column is sorted once, so a
/// round reads M column heads instead of re-pricing every unassigned
/// task. Exact against the scan driver, round by round:
///
/// 1. **The round's best completion.** `load + x` is monotone in `x`
///    under f64 rounding, so a machine's cheapest unassigned task (its
///    column head) gives its smallest completion, and the least of the M
///    heads is the least of the scan's T·M prices.
/// 2. **The task.** The scan commits the first task in `unassigned`
///    order whose best completion equals that minimum. Only a *tied*
///    machine (one whose head reaches the minimum) prices any task at
///    it, and on a tied column those tasks lie in the run from the head
///    while `load + ETC` still equals it. The search walks those runs and
///    `unassigned` from the front in lock-step, and stops as soon as
///    either settles the answer: the front walk at the first tied task it
///    meets, the runs once all of them are walked. A round where every
///    task ties thus stops at position 0. `unassigned` keeps the scan's
///    order, `swap_remove` positions included.
/// 3. **The machine.** The lowest-index tied machine that prices the
///    task at the minimum, as the scan's first-wins `choice_for` picks.
///
/// Cost: an O(M·T log T) sort, then O(M) per round (each column head
/// passes each committed task once in total) plus the tie search, which
/// reads two entries per tied machine unless completions tie exactly.
fn min_min_sorted(instance: &EtcInstance) -> Schedule {
    let n = instance.n_tasks();
    let etc = instance.etc();
    let mut loads: Vec<f64> = instance.ready_times().to_vec();
    let mut assignment = vec![0u32; n];
    let mut committed = vec![false; n];
    // Column m is `columns[m * n..][..n]`: tasks by ascending ETC on m,
    // ties by task index. ETC entries are positive and finite, so their
    // bit patterns order as their values do; a key packs them above the
    // task index, and the column keeps the index.
    let mut columns: Vec<u32> = Vec::with_capacity(n * loads.len());
    let mut keys: Vec<u128> = Vec::with_capacity(n);
    for m in 0..loads.len() {
        keys.clear();
        keys.extend(
            etc.machine_row(m)
                .iter()
                .enumerate()
                .map(|(t, x)| u128::from(x.to_bits()) << 32 | t as u128),
        );
        keys.sort_unstable();
        columns.extend(keys.iter().map(|&k| k as u32));
    }
    let column = |m: usize| &columns[m * n..][..n];
    let mut head = vec![0usize; loads.len()];
    let mut unassigned: Vec<u32> = (0..n as u32).collect();
    let mut pos: Vec<u32> = (0..n as u32).collect();
    let mut tied: Vec<usize> = Vec::with_capacity(loads.len());

    while !unassigned.is_empty() {
        let mut best = f64::INFINITY;
        tied.clear();
        for (m, h) in head.iter_mut().enumerate() {
            while committed[column(m)[*h] as usize] {
                *h += 1;
            }
            let c = loads[m] + etc.etc_on(m, column(m)[*h] as usize);
            if tied.is_empty() || c < best {
                best = c;
                tied.clear();
                tied.push(m);
            } else if c == best {
                tied.push(m);
            }
        }

        // Step 2: `found` is the least position seen on the tied runs;
        // every position below `front` holds a task priced above `best`.
        let prices_best = |t: usize| tied.iter().any(|&m| loads[m] + etc.etc_on(m, t) == best);
        let mut found = usize::MAX;
        let mut front = 0;
        let (mut k, mut i) = (0, head[tied[0]]);
        let at = loop {
            let Some(&m) = tied.get(k) else { break found };
            match column(m).get(i) {
                Some(&t) if loads[m] + etc.etc_on(m, t as usize) == best => {
                    if !committed[t as usize] {
                        found = found.min(pos[t as usize] as usize);
                    }
                    i += 1;
                }
                _ => {
                    k += 1;
                    if let Some(&next) = tied.get(k) {
                        i = head[next];
                    }
                }
            }
            if front == found {
                break found;
            }
            if prices_best(unassigned[front] as usize) {
                break front;
            }
            front += 1;
        };

        let task = unassigned[at] as usize;
        let machine = tied
            .iter()
            .copied()
            .find(|&m| loads[m] + etc.etc_on(m, task) == best)
            .expect("the committed task prices at the round's best on a tied machine");
        assignment[task] = machine as u32;
        committed[task] = true;
        loads[machine] += etc.etc_on(machine, task);
        unassigned.swap_remove(at);
        if let Some(&moved) = unassigned.get(at) {
            pos[moved as usize] = at as u32;
        }
    }
    Schedule::from_assignment(instance, assignment)
}

/// Min-min (Ibarra & Kim 1977): commit the task whose best completion time
/// is **smallest**. The PA-CGA paper seeds one individual with this
/// schedule (Table 1).
pub fn min_min(instance: &EtcInstance) -> Schedule {
    min_min_sorted(instance)
}

/// Max-min: commit the task whose best completion time is **largest**
/// (places long tasks early, packing short ones around them).
pub fn max_min(instance: &EtcInstance) -> Schedule {
    iterative(instance, CommitRule::MaxMin)
}

/// Sufferage (Maheswaran et al. 1999): commit the task that would *suffer*
/// most — largest gap between its best and second-best completion times —
/// if it were denied its best machine.
pub fn sufferage(instance: &EtcInstance) -> Schedule {
    iterative(instance, CommitRule::Sufferage)
}

/// [`min_min`] via the retired O(T²·M) full-rescan driver. Kept only as
/// the oracle the indexed driver's results are pinned against in tests
/// (and the baseline a future perfbench row would price it against).
pub fn min_min_scan(instance: &EtcInstance) -> Schedule {
    iterative_scan(instance, CommitRule::MinMin)
}

/// [`max_min`] via the retired full-rescan driver (see [`min_min_scan`]);
/// the oracle of `indexed_drivers_bit_identical_to_scan_reference`.
#[cfg(test)]
fn max_min_scan(instance: &EtcInstance) -> Schedule {
    iterative_scan(instance, CommitRule::MaxMin)
}

/// [`sufferage`] via the retired full-rescan driver (see [`min_min_scan`]);
/// the oracle of `indexed_drivers_bit_identical_to_scan_reference`.
#[cfg(test)]
fn sufferage_scan(instance: &EtcInstance) -> Schedule {
    iterative_scan(instance, CommitRule::Sufferage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use etc_model::EtcMatrix;
    use scheduling::check_schedule;

    #[test]
    fn min_min_optimal_on_tiny_instance() {
        // 2 tasks, 2 machines; optimum: t0->m0 (1), t1->m1 (2), makespan 2.
        let inst =
            EtcInstance::new("tiny", EtcMatrix::from_task_major(2, 2, vec![1.0, 3.0, 4.0, 2.0]));
        let s = min_min(&inst);
        assert_eq!(s.machine_of(0), 0);
        assert_eq!(s.machine_of(1), 1);
        assert_eq!(s.makespan(), 2.0);
    }

    #[test]
    fn min_min_spreads_when_machine_fills_up() {
        // Uniform ETC, 4 tasks, 2 machines: min-min must balance 2/2.
        let inst = EtcInstance::new("u", EtcMatrix::from_fn(4, 2, |_, _| 1.0));
        let s = min_min(&inst);
        assert_eq!(s.count_on(0), 2);
        assert_eq!(s.count_on(1), 2);
        assert_eq!(s.makespan(), 2.0);
    }

    #[test]
    fn max_min_schedules_long_tasks_first() {
        // One long task (10) and two short (1). Max-min places the long one
        // first on its best machine, then packs shorts on the other.
        let inst = EtcInstance::new(
            "lm",
            EtcMatrix::from_task_major(3, 2, vec![10.0, 11.0, 1.0, 1.5, 1.0, 1.5]),
        );
        let s = max_min(&inst);
        assert_eq!(s.machine_of(0), 0);
        // Both short tasks avoid machine 0 (already loaded to 10).
        assert_eq!(s.machine_of(1), 1);
        assert_eq!(s.machine_of(2), 1);
    }

    #[test]
    fn sufferage_prioritizes_high_stake_tasks() {
        // Task 0: best 1 on m0, second 100  (sufferage 99).
        // Task 1: best 2 on m0, second 2.5  (sufferage 0.5).
        // Sufferage gives m0 to task 0 first; task 1 then finishes sooner
        // on m1 (2.5) than behind task 0 on m0 (1 + 2 = 3).
        let inst =
            EtcInstance::new("sf", EtcMatrix::from_task_major(2, 2, vec![1.0, 100.0, 2.0, 2.5]));
        let s = sufferage(&inst);
        assert_eq!(s.machine_of(0), 0);
        assert_eq!(s.machine_of(1), 1);
    }

    #[test]
    fn iterative_heuristics_valid_on_generated_instance() {
        let inst = EtcInstance::toy(30, 5);
        for s in [min_min(&inst), max_min(&inst), sufferage(&inst)] {
            assert!(check_schedule(&inst, &s).is_ok());
        }
    }

    #[test]
    fn single_machine_everything_assigned_there() {
        let inst = EtcInstance::toy(5, 1);
        for s in [min_min(&inst), max_min(&inst), sufferage(&inst)] {
            assert_eq!(s.count_on(0), 5);
        }
    }

    #[test]
    fn indexed_drivers_bit_identical_to_scan_reference() {
        // The cached-choice drivers must reproduce the retired full-rescan
        // drivers exactly — same assignment, same CT bits — across
        // consistency classes and with non-zero ready times.
        for seed in 0..8u64 {
            let inst = etc_model::EtcGenerator::new(etc_model::GeneratorParams {
                n_tasks: 40,
                n_machines: 6,
                task_heterogeneity: etc_model::Heterogeneity::High,
                machine_heterogeneity: etc_model::Heterogeneity::High,
                consistency: if seed % 2 == 0 {
                    etc_model::Consistency::Inconsistent
                } else {
                    etc_model::Consistency::Consistent
                },
                seed,
            })
            .generate();
            assert_eq!(min_min(&inst), min_min_scan(&inst), "min-min seed {seed}");
            assert_eq!(max_min(&inst), max_min_scan(&inst), "max-min seed {seed}");
            assert_eq!(sufferage(&inst), sufferage_scan(&inst), "sufferage seed {seed}");
        }
        let etc = EtcMatrix::from_fn(30, 4, |t, m| ((t * 5 + m * 11) % 17 + 1) as f64);
        let inst = EtcInstance::with_ready_times("rt", etc, vec![3.0, 0.0, 7.5, 1.0]);
        assert_eq!(min_min(&inst), min_min_scan(&inst));
        assert_eq!(max_min(&inst), max_min_scan(&inst));
        assert_eq!(sufferage(&inst), sufferage_scan(&inst));
    }

    #[test]
    fn min_min_not_worse_than_olb_on_heterogeneous() {
        use crate::immediate::olb;
        let inst = EtcInstance::new(
            "het",
            EtcMatrix::from_fn(24, 4, |t, m| ((t * 7 + m * 13) % 29 + 1) as f64),
        );
        assert!(min_min(&inst).makespan() <= olb(&inst).makespan());
    }
}

/// Duplex (Braun et al. 2001): runs both Min-min and Max-min and keeps
/// whichever achieves the smaller makespan — hedging between the two
/// orderings' failure modes at twice the cost.
pub fn duplex(instance: &EtcInstance) -> Schedule {
    let a = min_min(instance);
    let b = max_min(instance);
    if duplex_keeps_min_min(&a, &b) {
        a
    } else {
        b
    }
}

/// Duplex's rule: keep the Min-min schedule `a` unless the Max-min
/// schedule `b` has a strictly smaller makespan.
pub(crate) fn duplex_keeps_min_min(a: &Schedule, b: &Schedule) -> bool {
    a.makespan() <= b.makespan()
}

#[cfg(test)]
mod duplex_tests {
    use super::*;
    use scheduling::check_schedule;

    #[test]
    fn duplex_is_the_better_of_both() {
        let inst = EtcInstance::toy(30, 5);
        let d = duplex(&inst);
        let mm = min_min(&inst).makespan();
        let xm = max_min(&inst).makespan();
        assert_eq!(d.makespan(), mm.min(xm));
        assert!(check_schedule(&inst, &d).is_ok());
    }

    #[test]
    fn duplex_never_worse_than_min_min() {
        for seed in 0..5u64 {
            let inst = etc_model::EtcGenerator::new(etc_model::GeneratorParams {
                n_tasks: 40,
                n_machines: 6,
                task_heterogeneity: etc_model::Heterogeneity::High,
                machine_heterogeneity: etc_model::Heterogeneity::High,
                consistency: etc_model::Consistency::Inconsistent,
                seed,
            })
            .generate();
            assert!(duplex(&inst).makespan() <= min_min(&inst).makespan());
        }
    }
}
