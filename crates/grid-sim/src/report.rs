//! Simulation outputs: per-task execution records and run-level summary.

use serde::{Deserialize, Serialize};

/// What happened to one task during simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskRecord {
    /// The machine that finally completed the task.
    pub machine: usize,
    /// When execution (the successful attempt) started.
    pub start: f64,
    /// When the task finished.
    pub finish: f64,
    /// How many aborted attempts preceded the successful one (machine
    /// drops mid-execution).
    pub aborted_attempts: u32,
}

/// Summary of a simulated run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// Per-task records, indexed by task id.
    pub tasks: Vec<TaskRecord>,
    /// Time the last task finished.
    pub makespan: f64,
    /// Sum of task finishing times (flowtime under the executed order).
    pub flowtime: f64,
    /// Machines that dropped during the run.
    pub failed_machines: Vec<usize>,
    /// Total execution time wasted in aborted attempts.
    pub lost_work: f64,
    /// How many rescheduling rounds the run needed.
    pub reschedules: u32,
}

impl SimReport {
    /// Tasks that needed more than one attempt.
    pub fn retried_tasks(&self) -> usize {
        self.tasks.iter().filter(|t| t.aborted_attempts > 0).count()
    }

    /// Validates internal consistency: every record finishes by the
    /// makespan, starts before it finishes, and flowtime is the sum of
    /// finishes.
    pub fn validate(&self) -> Result<(), String> {
        let mut flow = 0.0;
        for (t, r) in self.tasks.iter().enumerate() {
            if r.start > r.finish {
                return Err(format!("task {t} starts after it finishes"));
            }
            if r.finish > self.makespan + 1e-9 {
                return Err(format!("task {t} finishes after makespan"));
            }
            flow += r.finish;
        }
        if (flow - self.flowtime).abs() > 1e-6 * flow.abs().max(1.0) {
            return Err(format!("flowtime {} != sum of finishes {flow}", self.flowtime));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(machine: usize, start: f64, finish: f64) -> TaskRecord {
        TaskRecord { machine, start, finish, aborted_attempts: 0 }
    }

    #[test]
    fn mean_finish_and_retries() {
        let r = SimReport {
            tasks: vec![record(0, 0.0, 2.0), record(1, 0.0, 4.0)],
            makespan: 4.0,
            flowtime: 6.0,
            failed_machines: vec![],
            lost_work: 0.0,
            reschedules: 0,
        };
        assert_eq!(r.retried_tasks(), 0);
        assert!(r.validate().is_ok());
    }

    #[test]
    fn validate_catches_inverted_times() {
        let r = SimReport {
            tasks: vec![record(0, 5.0, 2.0)],
            makespan: 5.0,
            flowtime: 2.0,
            failed_machines: vec![],
            lost_work: 0.0,
            reschedules: 0,
        };
        assert!(r.validate().is_err());
    }

    #[test]
    fn validate_catches_finish_after_makespan() {
        let r = SimReport {
            tasks: vec![record(0, 0.0, 9.0)],
            makespan: 5.0,
            flowtime: 9.0,
            failed_machines: vec![],
            lost_work: 0.0,
            reschedules: 0,
        };
        assert!(r.validate().is_err());
    }

    #[test]
    fn validate_catches_flowtime_mismatch() {
        let r = SimReport {
            tasks: vec![record(0, 0.0, 2.0)],
            makespan: 2.0,
            flowtime: 99.0,
            failed_machines: vec![],
            lost_work: 0.0,
            reschedules: 0,
        };
        assert!(r.validate().is_err());
    }

    #[test]
    fn empty_report() {
        let r = SimReport {
            tasks: vec![],
            makespan: 0.0,
            flowtime: 0.0,
            failed_machines: vec![],
            lost_work: 0.0,
            reschedules: 0,
        };
        assert!(r.validate().is_ok());
    }
}
