//! The ETC matrix type with dual storage layouts.
//!
//! The PA-CGA paper (§3.3) stores the **transposed** ETC matrix so that the
//! ETC values of consecutive tasks *on the same machine* are adjacent in
//! memory: the H2LL local search and the incremental completion-time
//! updates index by machine first, so the transposed layout raises the
//! cache hit rate (the paper measured a 5–10% end-to-end improvement).
//!
//! We keep **both** layouts. The canonical accessor [`EtcMatrix::etc`] is
//! task-major (the textbook `ETC[t][m]`), and [`EtcMatrix::etc_on`] is the
//! machine-major (transposed) hot-path accessor. Storing both costs
//! `8 · n · m` extra bytes (64 KiB for the 512×16 benchmark instances) and
//! lets the two accessors be timed against each other on identical data.

use serde::{Deserialize, Serialize};

/// An `n_tasks × n_machines` matrix of expected execution times.
///
/// Entries must be strictly positive and finite; constructors check this.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EtcMatrix {
    n_tasks: usize,
    n_machines: usize,
    /// Task-major storage: `task_major[t * n_machines + m] = ETC[t][m]`.
    task_major: Vec<f64>,
    /// Machine-major (transposed) storage:
    /// `machine_major[m * n_tasks + t] = ETC[t][m]`.
    machine_major: Vec<f64>,
}

impl EtcMatrix {
    /// Builds a matrix from task-major data (`values[t * n_machines + m]`).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions are zero, the length does not match, or any
    /// entry is non-positive or non-finite.
    pub fn from_task_major(n_tasks: usize, n_machines: usize, values: Vec<f64>) -> Self {
        assert!(n_tasks > 0, "ETC matrix needs at least one task");
        assert!(n_machines > 0, "ETC matrix needs at least one machine");
        assert_eq!(
            values.len(),
            n_tasks * n_machines,
            "ETC data length {} does not match {n_tasks}×{n_machines}",
            values.len()
        );
        for (i, &v) in values.iter().enumerate() {
            assert!(
                v.is_finite() && v > 0.0,
                "ETC[{}][{}] = {v} must be positive and finite",
                i / n_machines,
                i % n_machines
            );
        }
        let mut machine_major = vec![0.0; values.len()];
        for t in 0..n_tasks {
            for m in 0..n_machines {
                machine_major[m * n_tasks + t] = values[t * n_machines + m];
            }
        }
        Self { n_tasks, n_machines, task_major: values, machine_major }
    }

    /// Builds a matrix by evaluating `f(task, machine)` for every entry.
    pub fn from_fn(
        n_tasks: usize,
        n_machines: usize,
        mut f: impl FnMut(usize, usize) -> f64,
    ) -> Self {
        let mut values = Vec::with_capacity(n_tasks * n_machines);
        for t in 0..n_tasks {
            for m in 0..n_machines {
                values.push(f(t, m));
            }
        }
        Self::from_task_major(n_tasks, n_machines, values)
    }

    /// Number of tasks (rows in the canonical orientation).
    #[inline]
    pub fn n_tasks(&self) -> usize {
        self.n_tasks
    }

    /// Number of machines (columns in the canonical orientation).
    #[inline]
    pub fn n_machines(&self) -> usize {
        self.n_machines
    }

    /// Expected time of `task` on `machine`, via the task-major layout.
    #[inline]
    pub fn etc(&self, task: usize, machine: usize) -> f64 {
        debug_assert!(task < self.n_tasks && machine < self.n_machines);
        self.task_major[task * self.n_machines + machine]
    }

    /// Expected time of `task` on `machine`, via the transposed
    /// (machine-major) layout — the paper's hot-path accessor
    /// (`ETC[mac][task]` in Algorithm 4).
    #[inline]
    pub fn etc_on(&self, machine: usize, task: usize) -> f64 {
        debug_assert!(task < self.n_tasks && machine < self.n_machines);
        self.machine_major[machine * self.n_tasks + task]
    }

    /// The row of times for `task` across all machines (task-major slice).
    #[inline]
    pub fn task_row(&self, task: usize) -> &[f64] {
        let start = task * self.n_machines;
        &self.task_major[start..start + self.n_machines]
    }

    /// The row of times for `machine` across all tasks (transposed slice).
    ///
    /// This is the contiguous run the paper's cache argument relies on:
    /// consecutive tasks on the same machine share cachelines.
    #[inline]
    pub fn machine_row(&self, machine: usize) -> &[f64] {
        let start = machine * self.n_tasks;
        &self.machine_major[start..start + self.n_tasks]
    }

    /// Iterator over all `(task, machine, etc)` triples.
    pub fn entries(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.n_tasks)
            .flat_map(move |t| (0..self.n_machines).map(move |m| (t, m, self.etc(t, m))))
    }

    /// Smallest entry in the matrix.
    pub fn min_etc(&self) -> f64 {
        self.task_major.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest entry in the matrix.
    pub fn max_etc(&self) -> f64 {
        self.task_major.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Returns a new matrix with each task row sorted ascending — the
    /// standard construction of a *consistent* matrix from arbitrary data
    /// (machine 0 becomes uniformly fastest).
    pub fn row_sorted(&self) -> Self {
        let mut values = self.task_major.clone();
        for t in 0..self.n_tasks {
            let row = &mut values[t * self.n_machines..(t + 1) * self.n_machines];
            row.sort_by(|a, b| a.partial_cmp(b).expect("ETC entries are finite"));
        }
        Self::from_task_major(self.n_tasks, self.n_machines, values)
    }

    /// Raw task-major data (for I/O and tests).
    pub fn task_major_data(&self) -> &[f64] {
        &self.task_major
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EtcMatrix {
        // 3 tasks × 2 machines.
        EtcMatrix::from_task_major(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    }

    #[test]
    fn dimensions_and_access() {
        let m = sample();
        assert_eq!(m.n_tasks(), 3);
        assert_eq!(m.n_machines(), 2);
        assert_eq!(m.etc(0, 0), 1.0);
        assert_eq!(m.etc(0, 1), 2.0);
        assert_eq!(m.etc(2, 1), 6.0);
    }

    #[test]
    fn transposed_matches_task_major() {
        let m = sample();
        for t in 0..3 {
            for mac in 0..2 {
                assert_eq!(m.etc(t, mac), m.etc_on(mac, t));
            }
        }
    }

    #[test]
    fn machine_row_is_contiguous_transposed_row() {
        let m = sample();
        assert_eq!(m.machine_row(0), &[1.0, 3.0, 5.0]);
        assert_eq!(m.machine_row(1), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn task_row_slices() {
        let m = sample();
        assert_eq!(m.task_row(1), &[3.0, 4.0]);
    }

    #[test]
    fn min_max() {
        let m = sample();
        assert_eq!(m.min_etc(), 1.0);
        assert_eq!(m.max_etc(), 6.0);
    }

    #[test]
    fn row_sorted_is_consistent_ordering() {
        let m = EtcMatrix::from_task_major(2, 3, vec![3.0, 1.0, 2.0, 9.0, 7.0, 8.0]);
        let s = m.row_sorted();
        assert_eq!(s.task_row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(s.task_row(1), &[7.0, 8.0, 9.0]);
    }

    #[test]
    fn from_fn_builds_expected_entries() {
        let m = EtcMatrix::from_fn(2, 2, |t, mac| (t * 10 + mac + 1) as f64);
        assert_eq!(m.etc(1, 1), 12.0);
    }

    #[test]
    fn entries_iterates_all() {
        let m = sample();
        let v: Vec<_> = m.entries().collect();
        assert_eq!(v.len(), 6);
        assert_eq!(v[0], (0, 0, 1.0));
        assert_eq!(v[5], (2, 1, 6.0));
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn wrong_length_panics() {
        EtcMatrix::from_task_major(2, 2, vec![1.0; 3]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn non_positive_entry_panics() {
        EtcMatrix::from_task_major(1, 2, vec![1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn nan_entry_panics() {
        EtcMatrix::from_task_major(1, 2, vec![1.0, f64::NAN]);
    }
}
