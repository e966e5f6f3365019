//! Evaluation criteria for schedules.
//!
//! The paper optimizes **makespan** only (§2.2) but motivates the problem
//! with makespan *and flowtime* (§2.1); the flowtime metric here is the one
//! used by the baselines' papers (Xhafa et al.): tasks on each machine are
//! processed in shortest-processing-time order, and flowtime is the sum of
//! all task finishing times.

use crate::schedule::Schedule;
use etc_model::EtcInstance;

/// Flowtime: Σ over tasks of their finishing time, with each machine
/// processing its tasks in SPT (shortest processing time first) order —
/// the order that minimizes per-machine flowtime.
pub fn flowtime(instance: &EtcInstance, schedule: &Schedule) -> f64 {
    let mut total = 0.0;
    let mut times: Vec<f64> = Vec::new();
    for m in 0..instance.n_machines() {
        times.clear();
        for t in 0..schedule.n_tasks() {
            if schedule.machine_of(t) == m {
                times.push(instance.etc().etc_on(m, t));
            }
        }
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mut finish = instance.ready(m);
        for &p in &times {
            finish += p;
            total += finish;
        }
    }
    total
}

/// Average machine utilization: `mean(CT) / max(CT)` — 1.0 means perfectly
/// balanced loads.
pub fn utilization(schedule: &Schedule) -> f64 {
    let ct = schedule.completion_times();
    let max = schedule.makespan();
    if max <= 0.0 {
        return 1.0;
    }
    let mean = ct.iter().sum::<f64>() / ct.len() as f64;
    mean / max
}

/// Relative load imbalance: `(max(CT) - min(CT)) / max(CT)` — 0.0 means
/// perfectly balanced.
pub fn load_imbalance(schedule: &Schedule) -> f64 {
    let max = schedule.makespan();
    if max <= 0.0 {
        return 0.0;
    }
    let min = schedule.completion_times().iter().copied().fold(f64::INFINITY, f64::min);
    (max - min) / max
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> EtcInstance {
        EtcInstance::toy(4, 2) // ETC[t][m] = (t+1)(m+1)
    }

    #[test]
    fn flowtime_spt_order() {
        let inst = toy();
        // All tasks on machine 0: processing times 1,2,3,4 in SPT order.
        let s = Schedule::from_assignment(&inst, vec![0, 0, 0, 0]);
        // Finishing times: 1, 3, 6, 10 -> flowtime 20.
        assert_eq!(flowtime(&inst, &s), 20.0);
    }

    #[test]
    fn flowtime_across_machines() {
        let inst = toy();
        // Machine 0: tasks 0,1 (1,2) -> 1+3=4. Machine 1: tasks 2,3 (6,8) -> 6+14=20.
        let s = Schedule::from_assignment(&inst, vec![0, 0, 1, 1]);
        assert_eq!(flowtime(&inst, &s), 24.0);
    }

    #[test]
    fn flowtime_respects_ready_times() {
        let etc = etc_model::EtcMatrix::from_task_major(1, 1, vec![2.0]);
        let inst = EtcInstance::with_ready_times("r", etc, vec![10.0]);
        let s = Schedule::from_assignment(&inst, vec![0]);
        assert_eq!(flowtime(&inst, &s), 12.0);
    }

    #[test]
    fn utilization_perfectly_balanced() {
        let etc = etc_model::EtcMatrix::from_task_major(2, 2, vec![5.0, 9.0, 9.0, 5.0]);
        let inst = EtcInstance::new("b", etc);
        let s = Schedule::from_assignment(&inst, vec![0, 1]);
        assert_eq!(utilization(&s), 1.0);
        assert_eq!(load_imbalance(&s), 0.0);
    }

    #[test]
    fn utilization_imbalanced() {
        let inst = toy();
        let s = Schedule::from_assignment(&inst, vec![0, 0, 0, 0]);
        // CT = [10, 0]: mean 5, max 10.
        assert_eq!(utilization(&s), 0.5);
        assert_eq!(load_imbalance(&s), 1.0);
    }
}
