//! Cache-hot batched offspring evaluation (DESIGN.md §9).
//!
//! The engines evaluate offspring in batches of 8–16 over one **slab**:
//! a row-major gene matrix (`B × T`) plus a completion-time matrix
//! (`B × M`). [`OffspringBatch::evaluate`] walks tasks in the *outer*
//! loop and rows in the inner one, so each task's ETC row
//! ([`etc_model::EtcMatrix::task_row`], 16 machines = two cache lines) is
//! loaded once and serves every offspring in the pass — the cache-hot
//! batching argument of `sethhall__matchy`'s `BATCH_PROCESSING_PROPOSAL`.
//! Per-offspring evaluation streams the whole 64 KB ETC matrix per
//! offspring; the slab streams it once per batch.
//!
//! **Canonicality:** the slab accumulates each machine's completion time
//! in ascending task order — the same summation order as
//! [`Schedule::from_assignment`], [`Schedule::rewrite_assignment`],
//! [`Schedule::renormalize`], and the bucket-exact
//! [`Schedule::move_task`] — so slab results are bit-identical to any
//! from-scratch recompute and rows can be installed into a [`Schedule`]
//! via [`Schedule::load_evaluated_deferred`] without re-touching the ETC
//! matrix.

use crate::Schedule;
use etc_model::EtcInstance;

/// A fixed-capacity slab of offspring gene rows with lazily computed
/// completion times and fitness. Rows are either **evaluated** (their
/// completion/fitness caches are valid — e.g. a verbatim parent copy) or
/// **stale** (genes were rewritten; the next [`OffspringBatch::evaluate`]
/// pass re-derives them).
#[derive(Debug, Clone)]
pub struct OffspringBatch {
    n_tasks: usize,
    n_machines: usize,
    capacity: usize,
    /// `B × T`, row-major: row `r`'s genes are `genes[r*T..(r+1)*T]`.
    genes: Vec<u32>,
    /// `B × M`, row-major completion times.
    completion: Vec<f64>,
    /// Per-row makespan, valid when `evaluated[r]`.
    fitness: Vec<f64>,
    /// Row freshness flags.
    evaluated: Vec<bool>,
    /// Scratch list of stale row indices for the batch pass.
    stale: Vec<u32>,
    len: usize,
}

impl OffspringBatch {
    /// An empty slab sized for `instance` with room for `capacity` rows.
    pub fn new(instance: &EtcInstance, capacity: usize) -> Self {
        assert!(capacity >= 1, "batch capacity must be at least 1");
        let (t, m) = (instance.n_tasks(), instance.n_machines());
        Self {
            n_tasks: t,
            n_machines: m,
            capacity,
            genes: vec![0; capacity * t],
            completion: vec![0.0; capacity * m],
            fitness: vec![0.0; capacity],
            evaluated: vec![false; capacity],
            stale: Vec::with_capacity(capacity),
            len: 0,
        }
    }

    /// Maximum number of rows.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Rows currently in the slab.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slab holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops all rows (buffers are retained).
    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Reserves the next row with undefined gene content and returns its
    /// index; the row starts stale. Callers fill it via
    /// [`OffspringBatch::genes_mut`].
    pub fn push_stale(&mut self) -> usize {
        assert!(self.len < self.capacity, "batch is full");
        let r = self.len;
        self.len += 1;
        self.evaluated[r] = false;
        r
    }

    /// Appends a verbatim parent copy: genes plus its already-canonical
    /// completion times and fitness. The row starts evaluated, so the
    /// batch pass skips it unless a later gene edit marks it stale.
    pub fn push_parent(&mut self, genes: &[u32], completion: &[f64], fitness: f64) -> usize {
        assert_eq!(genes.len(), self.n_tasks, "gene row length mismatch");
        assert_eq!(completion.len(), self.n_machines, "completion row length mismatch");
        let r = self.push_stale();
        self.genes_mut(r).copy_from_slice(genes);
        self.completion[r * self.n_machines..(r + 1) * self.n_machines].copy_from_slice(completion);
        self.fitness[r] = fitness;
        self.evaluated[r] = true;
        r
    }

    /// Row `row`'s genes.
    #[inline]
    pub fn genes(&self, row: usize) -> &[u32] {
        debug_assert!(row < self.len);
        &self.genes[row * self.n_tasks..(row + 1) * self.n_tasks]
    }

    /// Mutable access to row `row`'s genes. Any hand-out marks the row
    /// stale — its cached completion/fitness can no longer be trusted.
    #[inline]
    pub fn genes_mut(&mut self, row: usize) -> &mut [u32] {
        debug_assert!(row < self.len);
        self.evaluated[row] = false;
        &mut self.genes[row * self.n_tasks..(row + 1) * self.n_tasks]
    }

    /// Row `row`'s completion times (valid only when evaluated).
    #[inline]
    pub fn completion_row(&self, row: usize) -> &[f64] {
        debug_assert!(row < self.len);
        debug_assert!(self.evaluated[row], "row {row} is stale");
        &self.completion[row * self.n_machines..(row + 1) * self.n_machines]
    }

    /// Row `row`'s makespan (valid only when evaluated).
    #[inline]
    pub fn fitness(&self, row: usize) -> f64 {
        debug_assert!(self.evaluated[row], "row {row} is stale");
        self.fitness[row]
    }

    /// Index of row `row`'s most loaded machine (ties to the lowest
    /// index, matching [`Schedule::most_loaded_machine`]). Valid only
    /// when evaluated.
    pub fn most_loaded(&self, row: usize) -> usize {
        debug_assert!(self.evaluated[row], "row {row} is stale");
        let ct = self.completion_row(row);
        let mut best = 0;
        for m in 1..ct.len() {
            if ct[m] > ct[best] {
                best = m;
            }
        }
        best
    }

    /// The batch pass: re-derives completion times and fitness for every
    /// stale row in one task-major sweep over the ETC matrix. Each task's
    /// ETC row is loaded once and applied to all stale rows before moving
    /// on — the cache-hot inner loop this type exists for.
    pub fn evaluate(&mut self, instance: &EtcInstance) {
        self.evaluate_rows(instance, |_| true);
    }

    /// [`OffspringBatch::evaluate`] restricted to the stale rows `wanted`
    /// accepts; the others stay stale. The engines skip the rows that go
    /// on to local search, which are priced when they are loaded into its
    /// scratch schedule.
    pub fn evaluate_rows(&mut self, instance: &EtcInstance, mut wanted: impl FnMut(usize) -> bool) {
        self.stale.clear();
        for r in 0..self.len {
            if !self.evaluated[r] && wanted(r) {
                self.stale.push(r as u32);
            }
        }
        if self.stale.is_empty() {
            return;
        }
        let (nt, nm) = (self.n_tasks, self.n_machines);
        let ready = instance.ready_times();
        for &r in &self.stale {
            let r = r as usize;
            self.completion[r * nm..(r + 1) * nm].copy_from_slice(ready);
        }
        let etc = instance.etc();
        for t in 0..nt {
            let col = etc.task_row(t);
            for &r in &self.stale {
                let r = r as usize;
                let m = self.genes[r * nt + t] as usize;
                self.completion[r * nm + m] += col[m];
            }
        }
        for &r in &self.stale {
            let r = r as usize;
            self.fitness[r] = self.completion[r * nm..(r + 1) * nm]
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max);
            self.evaluated[r] = true;
        }
    }

    /// Re-derives one row immediately (the single-row path for operators
    /// that need fresh completion times mid-stage, e.g. rebalance
    /// mutation). Same ascending-task-order accumulation as the batch
    /// pass; a no-op on evaluated rows.
    pub fn evaluate_row(&mut self, instance: &EtcInstance, row: usize) {
        debug_assert!(row < self.len);
        if self.evaluated[row] {
            return;
        }
        let (nt, nm) = (self.n_tasks, self.n_machines);
        self.completion[row * nm..(row + 1) * nm].copy_from_slice(instance.ready_times());
        let etc = instance.etc();
        for t in 0..nt {
            let m = self.genes[row * nt + t] as usize;
            self.completion[row * nm + m] += etc.etc_on(m, t);
        }
        self.fitness[row] = self.completion[row * nm..(row + 1) * nm]
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        self.evaluated[row] = true;
    }

    /// Oracle fitness for a row: a fresh [`Schedule::from_assignment`]
    /// build plus the O(M) [`Schedule::makespan_full`] fold, sharing no
    /// cached state with the slab. The differential suite and the
    /// engines' `delta_eval = false` mode compare against this.
    pub fn oracle_fitness(&self, instance: &EtcInstance, row: usize) -> f64 {
        Schedule::from_assignment(instance, self.genes(row).to_vec()).makespan_full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn batch_matches_per_offspring_schedules_bitwise() {
        let inst = EtcInstance::toy(24, 5);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut batch = OffspringBatch::new(&inst, 8);
        let mut rows = Vec::new();
        for _ in 0..8 {
            let genes: Vec<u32> = (0..24).map(|_| rng.gen_range(0..5u32)).collect();
            let r = batch.push_stale();
            batch.genes_mut(r).copy_from_slice(&genes);
            rows.push(genes);
        }
        batch.evaluate(&inst);
        for (r, genes) in rows.iter().enumerate() {
            let s = Schedule::from_assignment(&inst, genes.clone());
            assert_eq!(batch.fitness(r).to_bits(), s.makespan().to_bits());
            for m in 0..5 {
                assert_eq!(batch.completion_row(r)[m].to_bits(), s.completion(m).to_bits());
            }
            assert_eq!(batch.fitness(r).to_bits(), batch.oracle_fitness(&inst, r).to_bits());
        }
    }

    #[test]
    fn parent_rows_are_skipped_until_edited() {
        let inst = EtcInstance::toy(24, 5);
        let parent = Schedule::round_robin(&inst);
        let mut batch = OffspringBatch::new(&inst, 4);
        let r =
            batch.push_parent(parent.assignment(), parent.completion_times(), parent.makespan());
        assert!(batch.evaluated[r]);
        batch.evaluate(&inst);
        assert_eq!(batch.fitness(r).to_bits(), parent.makespan().to_bits());
        // Editing a gene invalidates the row; the next pass restores it.
        batch.genes_mut(r)[0] = 3;
        assert!(!batch.evaluated[r]);
        batch.evaluate(&inst);
        let mut moved = parent.clone();
        moved.move_task(&inst, 0, 3);
        assert_eq!(batch.fitness(r).to_bits(), moved.makespan().to_bits());
    }

    #[test]
    fn evaluate_row_matches_batch_pass() {
        let inst = EtcInstance::toy(24, 5);
        let mut rng = SmallRng::seed_from_u64(11);
        let genes: Vec<u32> = (0..24).map(|_| rng.gen_range(0..5u32)).collect();
        let mut a = OffspringBatch::new(&inst, 2);
        let ra = a.push_stale();
        a.genes_mut(ra).copy_from_slice(&genes);
        a.evaluate_row(&inst, ra);
        let mut b = OffspringBatch::new(&inst, 2);
        let rb = b.push_stale();
        b.genes_mut(rb).copy_from_slice(&genes);
        b.evaluate(&inst);
        assert_eq!(a.fitness(ra).to_bits(), b.fitness(rb).to_bits());
        assert_eq!(a.completion_row(ra), b.completion_row(rb));
    }

    #[test]
    fn install_round_trips_through_schedule() {
        let inst = EtcInstance::toy(24, 5);
        let mut rng = SmallRng::seed_from_u64(13);
        let genes: Vec<u32> = (0..24).map(|_| rng.gen_range(0..5u32)).collect();
        let mut batch = OffspringBatch::new(&inst, 1);
        let r = batch.push_stale();
        batch.genes_mut(r).copy_from_slice(&genes);
        batch.evaluate(&inst);
        let mut s = Schedule::round_robin(&inst);
        s.load_evaluated_deferred(&inst, batch.genes(r), batch.completion_row(r));
        assert_eq!(s.makespan().to_bits(), batch.fitness(r).to_bits());
        s.ensure_index();
        assert_eq!(s, Schedule::from_assignment(&inst, genes));
    }

    #[test]
    fn evaluate_rows_leaves_unwanted_rows_stale() {
        let inst = EtcInstance::toy(24, 5);
        let mut batch = OffspringBatch::new(&inst, 3);
        for _ in 0..3 {
            batch.push_stale();
        }
        batch.evaluate_rows(&inst, |r| r != 1);
        assert_eq!(batch.evaluated, [true, false, true]);
    }

    #[test]
    #[should_panic(expected = "batch is full")]
    fn overflow_panics() {
        let inst = EtcInstance::toy(4, 2);
        let mut batch = OffspringBatch::new(&inst, 1);
        batch.push_stale();
        batch.push_stale();
    }
}
