//! The `S` + `CT` solution representation with incremental updates.

use etc_model::{EtcInstance, EtcMatrix};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A complete assignment of every task to one machine, with cached
/// per-machine completion times and a per-machine **task index**.
///
/// All mutators take the [`EtcInstance`] as an argument (the schedule does
/// not own it), update `CT` incrementally, and keep the representation
/// valid. Makespan evaluation is O(1) from a maintained argmax.
///
/// **Canonical-CT invariant (DESIGN.md §9):** every cached completion time
/// is *bit-identical* to the from-scratch recomputation
/// `ready[m] + Σ ETC[t][m]` taken over `m`'s tasks in ascending task
/// order. [`Schedule::move_task`] guarantees this by re-deriving the two
/// touched machines from their sorted bucket slices (O(tasks on the two
/// machines), the "O(changed machines)" delta path) instead of applying a
/// `±etc` float pair that would drift from the canonical sum. Because
/// every constructor and mutator accumulates in the same ascending-task
/// order, *any* two routes to the same assignment produce bit-identical
/// `CT` vectors — the property the differential suite (`prop_delta.rs`)
/// pins against [`Schedule::renormalize`]-style full recomputes.
///
/// The task index mirrors the assignment in **CSR form** (DESIGN.md §7):
/// one flat `bucket_tasks` array holding every task grouped by machine
/// (ascending task order within each machine's slice) and a per-machine
/// offset array `bucket_start` bounding each slice. It makes
/// [`Schedule::count_on`] O(1), [`Schedule::tasks_on`] an allocation-free
/// slice borrow, and [`Schedule::random_task_on`] an O(1) pick — the
/// operator hot paths that previously re-scanned the whole assignment.
/// There are no back-pointers: a move finds its task by binary search in
/// the sorted slice it leaves.
///
/// A `Schedule` is four flat buffers and nothing else:
/// [`Schedule::copy_from`] is four `copy_from_slice` calls with no
/// nested allocation or pointer chasing, and an index rebuild is an
/// allocation-free counting sort that writes one array. Keeping slices
/// sorted costs one contiguous `memmove` from the moved task's old slot to
/// its new one, and buys a canonical layout: two schedules with equal
/// assignments have bit-identical indices.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Schedule {
    /// `assignment[t] = m`: task `t` runs on machine `m`.
    assignment: Vec<u32>,
    /// `completion[m]`: ready time of `m` plus the ETC of every task
    /// assigned to it.
    completion: Vec<f64>,
    /// CSR payload: all tasks grouped by machine, ascending within each
    /// machine's slice. Always exactly `n_tasks` long.
    bucket_tasks: Vec<u32>,
    /// CSR offsets: machine `m`'s tasks occupy
    /// `bucket_tasks[bucket_start[m]..bucket_start[m + 1]]`.
    /// `n_machines + 1` entries; first is 0, last is `n_tasks`.
    bucket_start: Vec<u32>,
    /// Index of a machine whose completion time equals the makespan —
    /// maintained by every mutator so [`Schedule::makespan`] is O(1).
    /// Excluded from `PartialEq` (two equal schedules may cache different
    /// argmax indices when completion times tie; the *value*
    /// `completion[max_machine]` is identical either way).
    #[serde(skip)]
    max_machine: u32,
    /// Set by [`Schedule::load_evaluated_deferred`]: the CSR index does
    /// not match `assignment` yet. Index readers debug-assert this is
    /// false; every full rebuild ([`Schedule::ensure_index`],
    /// [`Schedule::rewrite_assignment`]) clears it. Deferred schedules
    /// exist only inside the engines' population cells mid-run (the
    /// replacement hot path skips the counting sort for offspring whose
    /// index nothing will read); every public exit point re-indexes.
    #[serde(skip)]
    index_stale: bool,
}

/// Value equality: the four buffers. The cached argmax and the stale
/// flag are bookkeeping, not value.
impl PartialEq for Schedule {
    fn eq(&self, other: &Self) -> bool {
        self.assignment == other.assignment
            && self.completion == other.completion
            && self.bucket_tasks == other.bucket_tasks
            && self.bucket_start == other.bucket_start
    }
}

impl Schedule {
    /// Builds a schedule from an explicit assignment, computing `CT` from
    /// scratch.
    ///
    /// # Panics
    ///
    /// Panics if the assignment length differs from the instance's task
    /// count or any machine index is out of range.
    pub fn from_assignment(instance: &EtcInstance, assignment: Vec<u32>) -> Self {
        let (n_tasks, n_machines) = (instance.n_tasks(), instance.n_machines());
        assert_eq!(assignment.len(), n_tasks, "one machine per task");
        for (t, &m) in assignment.iter().enumerate() {
            assert!((m as usize) < n_machines, "task {t} assigned to machine {m} of {n_machines}");
        }
        let mut s = Self {
            assignment,
            completion: vec![0.0; n_machines],
            bucket_tasks: vec![0; n_tasks],
            bucket_start: vec![0; n_machines + 1],
            max_machine: 0,
            index_stale: false,
        };
        s.renormalize(instance);
        s.rebuild_index();
        s
    }

    /// Rebuilds the task index from the assignment: an allocation-free
    /// counting sort in O(T + M).
    fn rebuild_index(&mut self) {
        self.bucket_start.fill(0);
        for &m in &self.assignment {
            self.bucket_start[m as usize + 1] += 1;
        }
        place_counted(&self.assignment, &mut self.bucket_start, &mut self.bucket_tasks);
        self.index_stale = false;
    }

    /// Rebuilds the CSR index if a [`Schedule::load_evaluated_deferred`]
    /// left it stale; a no-op otherwise. Engines call this on every
    /// individual before a population leaves the run.
    pub fn ensure_index(&mut self) {
        if self.index_stale {
            self.rebuild_index();
        }
    }

    /// Relocates `task` from `old`'s slice to its sorted position inside
    /// `new`'s slice. Both positions come from a binary search of a sorted
    /// slice; everything between them shifts one slot towards the vacated
    /// one in a single `copy_within`, and only the start offsets of the
    /// machines in between move.
    fn index_move(&mut self, task: usize, old: usize, new: usize) {
        debug_assert_ne!(old, new);
        debug_assert!(!self.index_stale, "incremental move on a deferred-load schedule");
        let key = task as u32;
        let starts = &mut self.bucket_start;
        let tasks = &mut self.bucket_tasks;
        let (s_old, s_new) = (starts[old] as usize, starts[new] as usize);
        let from = s_old + tasks[s_old..starts[old + 1] as usize].partition_point(|&t| t < key);
        debug_assert_eq!(tasks[from], key);
        let to = s_new + tasks[s_new..starts[new + 1] as usize].partition_point(|&t| t < key);
        if old < new {
            tasks.copy_within(from + 1..to, from);
            tasks[to - 1] = key;
            for start in &mut starts[old + 1..=new] {
                *start -= 1;
            }
        } else {
            tasks.copy_within(to..from, to + 1);
            tasks[to] = key;
            for start in &mut starts[new + 1..=old] {
                *start += 1;
            }
        }
    }

    /// A uniformly random schedule.
    pub fn random(instance: &EtcInstance, rng: &mut impl Rng) -> Self {
        let n_machines = instance.n_machines() as u32;
        let assignment = (0..instance.n_tasks()).map(|_| rng.gen_range(0..n_machines)).collect();
        Self::from_assignment(instance, assignment)
    }

    /// A round-robin schedule (task `t` on machine `t mod M`) — a cheap
    /// deterministic starting point used in tests and examples.
    pub fn round_robin(instance: &EtcInstance) -> Self {
        let m = instance.n_machines() as u32;
        let assignment = (0..instance.n_tasks() as u32).map(|t| t % m).collect();
        Self::from_assignment(instance, assignment)
    }

    /// Number of tasks.
    #[inline]
    pub fn n_tasks(&self) -> usize {
        self.assignment.len()
    }

    /// Number of machines.
    #[inline]
    pub fn n_machines(&self) -> usize {
        self.completion.len()
    }

    /// Machine assigned to `task`.
    #[inline]
    pub fn machine_of(&self, task: usize) -> usize {
        self.assignment[task] as usize
    }

    /// The raw assignment vector (`S` in the paper).
    #[inline]
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// The cached completion time of `machine` (`CT[m]`), its *load*.
    #[inline]
    pub fn completion(&self, machine: usize) -> f64 {
        self.completion[machine]
    }

    /// All cached completion times.
    #[inline]
    pub fn completion_times(&self) -> &[f64] {
        &self.completion
    }

    /// The paper's `evaluate()`: the maximum completion time. O(1) from
    /// the maintained argmax (the delta-fitness path); the O(M) fold it
    /// replaced survives as [`Schedule::makespan_full`], the oracle the
    /// differential suite compares against.
    #[inline]
    pub fn makespan(&self) -> f64 {
        self.completion[self.max_machine as usize]
    }

    /// The original O(M) makespan fold over every cached completion time —
    /// kept as the oracle path for the differential tests pinning the
    /// tracked-argmax [`Schedule::makespan`] bit-identically.
    pub fn makespan_full(&self) -> f64 {
        self.completion.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Re-derives `max_machine` by full scan (ties to the lowest index).
    fn rescan_max(&mut self) {
        self.max_machine = self.most_loaded_machine() as u32;
    }

    /// Re-establishes `max_machine` after exactly machines `a` and `b` had
    /// their completion times rewritten. O(1) compare-and-replace unless
    /// the defining machine itself changed (its load may have *dropped*,
    /// dethroning it), which needs the O(M) rescan.
    fn refresh_max(&mut self, a: usize, b: usize) {
        let mm = self.max_machine as usize;
        if mm == a || mm == b {
            self.rescan_max();
        } else {
            if self.completion[a] > self.completion[mm] {
                self.max_machine = a as u32;
            }
            if self.completion[b] > self.completion[self.max_machine as usize] {
                self.max_machine = b as u32;
            }
        }
    }

    /// Index of the most loaded machine (ties break to the lowest index);
    /// its completion time *defines* the makespan.
    pub fn most_loaded_machine(&self) -> usize {
        let mut best = 0;
        for m in 1..self.completion.len() {
            if self.completion[m] > self.completion[best] {
                best = m;
            }
        }
        best
    }

    /// Machine indices sorted by ascending completion time (the sort in
    /// H2LL's Algorithm 4 line 2). Allocates; hot callers should reuse
    /// [`Schedule::sort_machines_into`].
    pub fn machines_by_load(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.completion.len()).collect();
        self.sort_machines_into(&mut order);
        order
    }

    /// The sort key ordering machines by load: ascending completion time,
    /// ties broken by machine index. [`Schedule::sort_machines_into`] and
    /// every incremental re-sorter (H2LL's resift) MUST share this key so
    /// maintained orders stay bit-identical to a full re-sort.
    #[inline]
    pub fn load_rank(&self, machine: usize) -> (f64, usize) {
        (self.completion[machine], machine)
    }

    /// Sorts the provided index buffer by ascending completion time without
    /// allocating. `order` must contain each machine index exactly once.
    pub fn sort_machines_into(&self, order: &mut [usize]) {
        debug_assert_eq!(order.len(), self.completion.len());
        order.sort_by(|&a, &b| {
            self.load_rank(a).partial_cmp(&self.load_rank(b)).expect("completion times are finite")
        });
    }

    /// Moves `task` to `new_machine`, updating both touched completion
    /// times incrementally (the paper's delta update, here
    /// O(tasks on the two machines) rather than a `±etc` float pair — see
    /// the canonical-CT invariant in the struct docs). Returns the
    /// previous machine. A move to the same machine is a no-op.
    pub fn move_task(&mut self, instance: &EtcInstance, task: usize, new_machine: usize) -> usize {
        let old = self.assignment[task] as usize;
        if old == new_machine {
            return old;
        }
        self.assignment[task] = new_machine as u32;
        self.index_move(task, old, new_machine);
        self.recompute_machine(instance, old);
        self.recompute_machine(instance, new_machine);
        self.refresh_max(old, new_machine);
        old
    }

    /// Re-derives one machine's completion time from its sorted bucket
    /// slice — the same ascending-task-order accumulation every bulk
    /// constructor uses, so the result is bit-identical to a from-scratch
    /// recompute by construction.
    #[inline]
    fn recompute_machine(&mut self, instance: &EtcInstance, machine: usize) {
        let row = instance.etc().machine_row(machine);
        let (s, e) = (self.bucket_start[machine] as usize, self.bucket_start[machine + 1] as usize);
        let mut ct = instance.ready_times()[machine];
        for &t in &self.bucket_tasks[s..e] {
            ct += row[t as usize];
        }
        self.completion[machine] = ct;
    }

    /// Overwrites the whole assignment (`assignment[t] = f(t)`), then
    /// recomputes `CT` and the task index from scratch in O(T + M) — the
    /// bulk path for operators that rewrite many genes at once (crossover)
    /// and the engines' load of an offspring into local search's scratch
    /// schedule. One pass writes the genes, sums `CT` in ascending task
    /// order (bit-identical to [`crate::OffspringBatch`]'s slab) and counts
    /// tasks per machine; the counting sort's placement pass follows.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `f` returns an out-of-range machine.
    pub fn rewrite_assignment(&mut self, instance: &EtcInstance, f: impl FnMut(usize) -> u32) {
        self.completion.copy_from_slice(instance.ready_times());
        self.bucket_start.fill(0);
        load_counted(
            instance.etc(),
            &mut self.assignment,
            &mut self.completion,
            &mut self.bucket_start,
            f,
        );
        place_counted(&self.assignment, &mut self.bucket_start, &mut self.bucket_tasks);
        self.index_stale = false;
        self.rescan_max();
    }

    /// Machine-removal repair: moves **every** task off `machine`, one
    /// [`Schedule::move_task`] per task, so the canonical-CT invariant and
    /// the tracked makespan argmax hold after each step exactly as they
    /// would for any other sequence of moves. `choose(task, schedule)`
    /// picks the destination for each evacuated task and sees the
    /// schedule *as repaired so far* (earlier evacuations already
    /// landed), which lets greedy policies account for the load they are
    /// adding. Returns the number of tasks moved.
    ///
    /// # Panics
    ///
    /// Panics if `choose` returns `machine` itself (the evacuation would
    /// never terminate) or an out-of-range machine.
    pub fn evacuate_machine(
        &mut self,
        instance: &EtcInstance,
        machine: usize,
        mut choose: impl FnMut(usize, &Schedule) -> usize,
    ) -> usize {
        let mut moved = 0;
        while let Some(&t) = self.tasks_on(machine).first() {
            let task = t as usize;
            let target = choose(task, self);
            assert!(target != machine, "task {task} evacuated onto the evacuated machine");
            assert!(target < self.completion.len(), "task {task} evacuated to machine {target}");
            self.move_task(instance, task, target);
            moved += 1;
        }
        moved
    }

    /// Swaps the machines of two tasks, incrementally.
    pub fn swap_tasks(&mut self, instance: &EtcInstance, a: usize, b: usize) {
        if a == b {
            return;
        }
        let ma = self.assignment[a] as usize;
        let mb = self.assignment[b] as usize;
        self.move_task(instance, a, mb);
        self.move_task(instance, b, ma);
    }

    /// Tasks currently assigned to `machine`, in ascending task order —
    /// an O(1) slice borrow from the CSR index (no allocation, no scan).
    #[inline]
    pub fn tasks_on(&self, machine: usize) -> &[u32] {
        debug_assert!(!self.index_stale, "index read on a deferred-load schedule");
        &self.bucket_tasks
            [self.bucket_start[machine] as usize..self.bucket_start[machine + 1] as usize]
    }

    /// Number of tasks on `machine` (O(1), from the task index).
    #[inline]
    pub fn count_on(&self, machine: usize) -> usize {
        debug_assert!(!self.index_stale, "index read on a deferred-load schedule");
        (self.bucket_start[machine + 1] - self.bucket_start[machine]) as usize
    }

    /// A uniformly random task among those on `machine`, or `None` if the
    /// machine holds no tasks. O(1) via the task index. Consumes exactly
    /// one `gen_range(0..count)` draw, matching the retired scan-based
    /// `nth`-filter pick (slices are sorted, so the `k`-th slice entry
    /// *is* the `k`-th assigned task in ascending order).
    #[inline]
    pub fn random_task_on(&self, machine: usize, rng: &mut impl Rng) -> Option<usize> {
        let bucket = self.tasks_on(machine);
        if bucket.is_empty() {
            return None;
        }
        Some(bucket[rng.gen_range(0..bucket.len())] as usize)
    }

    /// Validates the task index against the assignment: offsets monotone
    /// and spanning exactly `0..n_tasks`, every machine's slice sorted,
    /// and slice membership agreeing with the assignment. O(T + M); used
    /// by the invariant checker.
    pub fn validate_index(&self) -> Result<(), String> {
        let n_tasks = self.assignment.len();
        let n_machines = self.completion.len();
        if self.bucket_start.len() != n_machines + 1 {
            return Err(format!(
                "offset array has {} entries, want {}",
                self.bucket_start.len(),
                n_machines + 1
            ));
        }
        if self.bucket_tasks.len() != n_tasks {
            return Err(format!(
                "index holds {} tasks, assignment has {n_tasks}",
                self.bucket_tasks.len()
            ));
        }
        if self.bucket_start[0] != 0 || self.bucket_start[n_machines] as usize != n_tasks {
            return Err(format!(
                "offsets span {}..{}, want 0..{n_tasks}",
                self.bucket_start[0], self.bucket_start[n_machines]
            ));
        }
        for m in 0..n_machines {
            let (s, e) = (self.bucket_start[m] as usize, self.bucket_start[m + 1] as usize);
            if s > e || e > n_tasks {
                // Checked before slicing so a corrupt offset array is
                // reported as Err, not an out-of-bounds panic.
                return Err(format!("offsets corrupt at machine {m}: {s}..{e} of {n_tasks}"));
            }
            for (p, &t) in self.bucket_tasks[s..e].iter().enumerate() {
                let t = t as usize;
                if t >= n_tasks {
                    return Err(format!("bucket[{m}][{p}] holds unknown task {t}"));
                }
                if self.assignment[t] as usize != m {
                    return Err(format!(
                        "bucket[{m}][{p}] holds task {t}, but assignment says machine {}",
                        self.assignment[t]
                    ));
                }
                if p > 0 && self.bucket_tasks[s + p - 1] >= t as u32 {
                    return Err(format!("bucket[{m}] not strictly ascending at offset {p}"));
                }
            }
        }
        Ok(())
    }

    /// Recomputes `CT` from scratch. Historically this discarded
    /// accumulated floating-point drift from `±etc` incremental updates;
    /// under the canonical-CT invariant it is a provable no-op on the
    /// cached values (the drift test pins that to the ULP). It is the
    /// `CT` sum of [`Schedule::from_assignment`], the oracle the
    /// differential suite builds.
    pub fn renormalize(&mut self, instance: &EtcInstance) {
        let etc = instance.etc();
        self.completion.copy_from_slice(instance.ready_times());
        for (t, &m) in self.assignment.iter().enumerate() {
            let m = m as usize;
            self.completion[m] += etc.etc_on(m, t);
        }
        self.rescan_max();
    }

    /// Loads an externally evaluated solution — a gene row plus its
    /// per-machine completion times, from the batch slab
    /// ([`crate::OffspringBatch`]) or from local search's scratch schedule
    /// — without touching the ETC matrix. The argmax is refreshed and the
    /// CSR index is left **stale** (readers debug-assert against it) until
    /// [`Schedule::ensure_index`]. This is the engines' one replacement
    /// install: an accepted offspring's index is read by nothing mid-run,
    /// so the counting sort is deferred to the one fix-up pass at run
    /// exit. The caller guarantees `completion` is the canonical
    /// ascending-task-order accumulation for `assignment`; debug builds
    /// verify that bitwise.
    pub fn load_evaluated_deferred(
        &mut self,
        instance: &EtcInstance,
        assignment: &[u32],
        completion: &[f64],
    ) {
        assert_eq!(assignment.len(), self.assignment.len(), "task count mismatch");
        assert_eq!(completion.len(), self.completion.len(), "machine count mismatch");
        self.assignment.copy_from_slice(assignment);
        self.completion.copy_from_slice(completion);
        self.index_stale = true;
        self.rescan_max();
        #[cfg(debug_assertions)]
        {
            let mut check = instance.ready_times().to_vec();
            for (t, &m) in assignment.iter().enumerate() {
                check[m as usize] += instance.etc().etc_on(m as usize, t);
            }
            debug_assert!(
                check.iter().zip(completion).all(|(a, b)| a.to_bits() == b.to_bits()),
                "loaded completion times are not the canonical accumulation"
            );
        }
        let _ = instance;
    }

    /// Copies another schedule's contents into this one without
    /// allocating: four flat `copy_from_slice` calls (the CSR layout has
    /// no nested buffers).
    pub fn copy_from(&mut self, other: &Schedule) {
        self.assignment.copy_from_slice(&other.assignment);
        self.completion.copy_from_slice(&other.completion);
        self.bucket_tasks.copy_from_slice(&other.bucket_tasks);
        self.bucket_start.copy_from_slice(&other.bucket_start);
        self.max_machine = other.max_machine;
        self.index_stale = other.index_stale;
    }
}

/// The fused first pass of a full rebuild: `assignment[t] = gene(t)`,
/// each task's ETC added to its machine's completion time in ascending
/// task order, and the task counted into `counts[m + 1]` for
/// [`place_counted`]. `completion` must hold the ready times and `counts`
/// zeros on entry.
fn load_counted(
    etc: &EtcMatrix,
    assignment: &mut [u32],
    completion: &mut [f64],
    counts: &mut [u32],
    mut gene: impl FnMut(usize) -> u32,
) {
    for (t, slot) in assignment.iter_mut().enumerate() {
        let m = gene(t);
        debug_assert!((m as usize) < completion.len(), "task {t} assigned to machine {m}");
        *slot = m;
        completion[m as usize] += etc.etc_on(m as usize, t);
        counts[m as usize + 1] += 1;
    }
}

/// The counting sort's placement half. On entry `starts[m + 1]` holds
/// machine `m`'s task count and `starts[0]` is 0; on exit `starts` holds
/// the CSR offsets and `tasks` every task grouped by machine. Placing
/// tasks in ascending order leaves every slice sorted.
fn place_counted(assignment: &[u32], starts: &mut [u32], tasks: &mut [u32]) {
    // Counts -> exclusive prefix sums, one slot to the right: `starts[m + 1]`
    // becomes `m`'s first slot, then serves as `m`'s write cursor and ends
    // at `m`'s end, which is `m + 1`'s start.
    let mut sum = 0;
    for start in &mut starts[1..] {
        let count = *start;
        *start = sum;
        sum += count;
    }
    for (t, &m) in assignment.iter().enumerate() {
        let cursor = &mut starts[m as usize + 1];
        tasks[*cursor as usize] = t as u32;
        *cursor += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn toy() -> EtcInstance {
        // ETC[t][m] = (t+1)(m+1): 4 tasks × 3 machines.
        EtcInstance::toy(4, 3)
    }

    #[test]
    fn from_assignment_computes_completion() {
        let inst = toy();
        // tasks 0,1 -> machine 0; task 2 -> machine 1; task 3 -> machine 2.
        let s = Schedule::from_assignment(&inst, vec![0, 0, 1, 2]);
        assert_eq!(s.completion(0), 1.0 + 2.0);
        assert_eq!(s.completion(1), 6.0); // (2+1)*(1+1)
        assert_eq!(s.completion(2), 12.0); // (3+1)*(2+1)
        assert_eq!(s.makespan(), 12.0);
        assert_eq!(s.most_loaded_machine(), 2);
    }

    #[test]
    fn ready_times_enter_completion() {
        let etc = etc_model::EtcMatrix::from_task_major(1, 2, vec![10.0, 1.0]);
        let inst = EtcInstance::with_ready_times("r", etc, vec![0.0, 100.0]);
        let s = Schedule::from_assignment(&inst, vec![1]);
        assert_eq!(s.completion(1), 101.0);
        assert_eq!(s.completion(0), 0.0);
        assert_eq!(s.makespan(), 101.0);
    }

    #[test]
    fn move_task_is_incremental_and_correct() {
        let inst = toy();
        let mut s = Schedule::from_assignment(&inst, vec![0, 0, 1, 2]);
        let old = s.move_task(&inst, 3, 0); // ETC[3][2]=12 leaves m2, ETC[3][0]=4 joins m0
        assert_eq!(old, 2);
        assert_eq!(s.completion(2), 0.0);
        assert_eq!(s.completion(0), 3.0 + 4.0);
        assert_eq!(s.machine_of(3), 0);
        let mut fresh = s.clone();
        fresh.renormalize(&inst);
        assert_eq!(fresh, s);
    }

    #[test]
    fn move_to_same_machine_is_noop() {
        let inst = toy();
        let mut s = Schedule::from_assignment(&inst, vec![0, 1, 2, 0]);
        let before = s.clone();
        s.move_task(&inst, 1, 1);
        assert_eq!(s, before);
    }

    #[test]
    fn swap_tasks_swaps_machines() {
        let inst = toy();
        let mut s = Schedule::from_assignment(&inst, vec![0, 1, 2, 0]);
        s.swap_tasks(&inst, 0, 2);
        assert_eq!(s.machine_of(0), 2);
        assert_eq!(s.machine_of(2), 0);
        let mut fresh = s.clone();
        fresh.renormalize(&inst);
        for m in 0..3 {
            assert!((fresh.completion(m) - s.completion(m)).abs() < 1e-9);
        }
    }

    #[test]
    fn swap_same_task_is_noop() {
        let inst = toy();
        let mut s = Schedule::round_robin(&inst);
        let before = s.clone();
        s.swap_tasks(&inst, 2, 2);
        assert_eq!(s, before);
    }

    #[test]
    fn round_robin_distributes() {
        let inst = toy();
        let s = Schedule::round_robin(&inst);
        assert_eq!(s.assignment(), &[0, 1, 2, 0]);
    }

    #[test]
    fn random_is_valid_and_seed_deterministic() {
        let inst = toy();
        let mut r1 = SmallRng::seed_from_u64(5);
        let mut r2 = SmallRng::seed_from_u64(5);
        let a = Schedule::random(&inst, &mut r1);
        let b = Schedule::random(&inst, &mut r2);
        assert_eq!(a, b);
        for t in 0..inst.n_tasks() {
            assert!(a.machine_of(t) < inst.n_machines());
        }
    }

    #[test]
    fn machines_by_load_sorted() {
        let inst = toy();
        let s = Schedule::from_assignment(&inst, vec![2, 2, 1, 0]);
        let order = s.machines_by_load();
        for w in order.windows(2) {
            assert!(s.completion(w[0]) <= s.completion(w[1]));
        }
    }

    #[test]
    fn tasks_on_and_count() {
        let inst = toy();
        let s = Schedule::from_assignment(&inst, vec![1, 1, 0, 1]);
        assert_eq!(s.tasks_on(1), [0, 1, 3]);
        assert_eq!(s.count_on(1), 3);
        assert_eq!(s.count_on(2), 0);
        assert!(s.validate_index().is_ok());
    }

    #[test]
    fn index_follows_moves_and_swaps() {
        let inst = toy();
        let mut s = Schedule::from_assignment(&inst, vec![1, 1, 0, 1]);
        s.move_task(&inst, 1, 2);
        assert_eq!(s.tasks_on(1), [0, 3]);
        assert_eq!(s.tasks_on(2), [1]);
        s.swap_tasks(&inst, 0, 2);
        assert_eq!(s.tasks_on(0), [0]);
        assert_eq!(s.tasks_on(1), [2, 3]);
        assert!(s.validate_index().is_ok());
    }

    #[test]
    fn index_is_canonical_regardless_of_history() {
        // Reaching the same assignment through different move orders must
        // produce bit-identical indices (sorted buckets).
        let inst = toy();
        let mut a = Schedule::from_assignment(&inst, vec![0, 0, 0, 0]);
        a.move_task(&inst, 3, 1);
        a.move_task(&inst, 1, 1);
        let mut b = Schedule::from_assignment(&inst, vec![0, 0, 0, 0]);
        b.move_task(&inst, 1, 1);
        b.move_task(&inst, 3, 1);
        assert_eq!(a.tasks_on(1), b.tasks_on(1));
        assert_eq!(a.tasks_on(1), [1, 3]);
    }

    #[test]
    fn random_task_on_picks_uniformly_from_bucket() {
        let inst = toy();
        let s = Schedule::from_assignment(&inst, vec![1, 1, 0, 1]);
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(s.random_task_on(2, &mut rng), None);
        let mut seen = [false; 4];
        for _ in 0..100 {
            let t = s.random_task_on(1, &mut rng).unwrap();
            assert_ne!(t, 2, "task 2 is on machine 0");
            seen[t] = true;
        }
        assert!(seen[0] && seen[1] && seen[3]);
    }

    #[test]
    fn rewrite_assignment_matches_from_assignment() {
        let inst = toy();
        let mut s = Schedule::from_assignment(&inst, vec![0, 0, 0, 0]);
        let target = [2u32, 1, 0, 1];
        s.rewrite_assignment(&inst, |t| target[t]);
        assert_eq!(s, Schedule::from_assignment(&inst, target.to_vec()));
        assert!(s.validate_index().is_ok());
    }

    #[test]
    fn rewrite_after_deferred_load_leaves_a_fresh_index() {
        // A full rebuild over a deferred-load schedule must clear the stale
        // flag: the index it just built is readable, and `ensure_index`
        // has nothing left to do.
        let inst = toy();
        let fresh = Schedule::from_assignment(&inst, vec![2, 1, 0, 1]);
        let mut s = Schedule::round_robin(&inst);
        s.load_evaluated_deferred(&inst, fresh.assignment(), fresh.completion_times());
        let target = [0u32, 0, 1, 2];
        s.rewrite_assignment(&inst, |t| target[t]);
        assert!(!s.index_stale, "rewrite_assignment left the index marked stale");
        assert_eq!(s.count_on(0), 2);
        assert_eq!(s, Schedule::from_assignment(&inst, target.to_vec()));
    }

    #[test]
    fn validate_index_reports_corrupt_offsets_without_panicking() {
        let inst = toy();
        let mut s = Schedule::from_assignment(&inst, vec![0, 1, 2, 0]);
        // Forge an interior offset past the payload length: the checker
        // must return Err, not slice out of bounds.
        s.bucket_start[1] = 99;
        let err = s.validate_index().unwrap_err();
        assert!(err.contains("corrupt"), "{err}");
    }

    #[test]
    fn copy_from_matches_clone() {
        let inst = toy();
        let a = Schedule::from_assignment(&inst, vec![0, 1, 2, 0]);
        let mut b = Schedule::round_robin(&inst);
        b.copy_from(&a);
        assert_eq!(a, b);
    }

    #[test]
    fn makespan_tracks_argmax_through_random_moves() {
        let inst = EtcInstance::toy(24, 5);
        let mut s = Schedule::round_robin(&inst);
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..500 {
            let t = rng.gen_range(0..24);
            let m = rng.gen_range(0..5);
            s.move_task(&inst, t, m);
            assert_eq!(s.makespan().to_bits(), s.makespan_full().to_bits());
        }
    }

    #[test]
    fn move_task_completion_is_bitwise_canonical() {
        let inst = EtcInstance::toy(24, 5);
        let mut s = Schedule::round_robin(&inst);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..500 {
            let t = rng.gen_range(0..24);
            let m = rng.gen_range(0..5);
            s.move_task(&inst, t, m);
            let fresh = Schedule::from_assignment(&inst, s.assignment().to_vec());
            for mac in 0..5 {
                assert_eq!(s.completion(mac).to_bits(), fresh.completion(mac).to_bits());
            }
        }
    }

    #[test]
    fn deferred_load_then_ensure_index_rebuilds_index_and_argmax() {
        let inst = toy();
        let fresh = Schedule::from_assignment(&inst, vec![2, 1, 0, 1]);
        let mut s = Schedule::round_robin(&inst);
        s.load_evaluated_deferred(&inst, fresh.assignment(), fresh.completion_times());
        assert_eq!(s.makespan().to_bits(), fresh.makespan().to_bits());
        assert_eq!(s.makespan().to_bits(), s.makespan_full().to_bits());
        s.ensure_index();
        assert_eq!(s, fresh);
        assert!(s.validate_index().is_ok());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not the canonical accumulation")]
    fn deferred_load_rejects_non_canonical_completion_in_debug() {
        let inst = toy();
        let fresh = Schedule::from_assignment(&inst, vec![2, 1, 0, 1]);
        let mut ct = fresh.completion_times().to_vec();
        ct[1] += 1.0;
        Schedule::round_robin(&inst).load_evaluated_deferred(&inst, fresh.assignment(), &ct);
    }

    #[test]
    fn evacuate_machine_empties_it_and_stays_canonical() {
        let inst = EtcInstance::toy(24, 5);
        let mut s = Schedule::round_robin(&inst);
        // Greedy least-loaded among the survivors of machine 2.
        let moved = s.evacuate_machine(&inst, 2, |_, sched| {
            (0..5)
                .filter(|&m| m != 2)
                .min_by(|&a, &b| sched.completion(a).partial_cmp(&sched.completion(b)).unwrap())
                .unwrap()
        });
        assert!(moved > 0);
        assert_eq!(s.count_on(2), 0);
        assert!(s.assignment().iter().all(|&m| m != 2));
        assert!(s.validate_index().is_ok());
        // Canonical CT + tracked argmax survive the repair bitwise.
        let fresh = Schedule::from_assignment(&inst, s.assignment().to_vec());
        for m in 0..5 {
            assert_eq!(s.completion(m).to_bits(), fresh.completion(m).to_bits());
        }
        assert_eq!(s.makespan().to_bits(), s.makespan_full().to_bits());
    }

    #[test]
    fn evacuate_machine_of_empty_machine_is_noop() {
        let inst = EtcInstance::toy(4, 4);
        let mut s = Schedule::from_assignment(&inst, vec![0, 0, 1, 1]);
        let before = s.clone();
        assert_eq!(s.evacuate_machine(&inst, 3, |_, _| unreachable!()), 0);
        assert_eq!(s, before);
    }

    #[test]
    fn evacuate_choose_sees_partial_repair() {
        let inst = EtcInstance::toy(6, 3);
        let mut s = Schedule::from_assignment(&inst, vec![0, 0, 0, 1, 1, 2]);
        let mut seen = Vec::new();
        s.evacuate_machine(&inst, 0, |task, sched| {
            seen.push((task, sched.count_on(0)));
            1
        });
        // Three tasks evacuated; the callback watched machine 0 drain.
        assert_eq!(seen.iter().map(|&(_, c)| c).collect::<Vec<_>>(), vec![3, 2, 1]);
        assert_eq!(s.count_on(0), 0);
        assert_eq!(s.count_on(1), 5);
    }

    #[test]
    #[should_panic(expected = "onto the evacuated machine")]
    fn evacuate_onto_self_panics() {
        let inst = EtcInstance::toy(4, 2);
        let mut s = Schedule::from_assignment(&inst, vec![0, 0, 1, 1]);
        s.evacuate_machine(&inst, 0, |_, _| 0);
    }

    #[test]
    #[should_panic(expected = "one machine per task")]
    fn wrong_length_panics() {
        Schedule::from_assignment(&toy(), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "assigned to machine")]
    fn out_of_range_machine_panics() {
        Schedule::from_assignment(&toy(), vec![0, 1, 2, 9]);
    }
}
