//! # Scheduling substrate
//!
//! The solution representation of the PA-CGA paper (§3.3, Figure 3):
//!
//! * an assignment vector `S[task] = machine`, and
//! * a **cached completion-time vector** `CT[machine]`, kept up to date
//!   *incrementally* by every operator — adding or removing a single ETC
//!   entry — instead of being recomputed from scratch. The paper's
//!   `evaluate()` then reduces to taking `max(CT)`.
//!
//! [`Schedule`] encapsulates both arrays and only exposes mutations that
//! preserve the invariant `CT[m] = ready[m] + Σ_{t: S[t]=m} ETC[t][m]`
//! (up to floating-point drift; see [`invariant`]).
//!
//! [`metrics`] adds the evaluation criteria used in the paper and its
//! baselines (makespan, flowtime, utilization, imbalance).

pub mod batch_eval;
pub mod gantt;
pub mod invariant;
pub mod metrics;
pub mod schedule;

pub use batch_eval::OffspringBatch;
pub use invariant::{check_schedule, InvariantError};
pub use metrics::{flowtime, load_imbalance, utilization};
pub use schedule::Schedule;
