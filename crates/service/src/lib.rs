//! # `pa_cga_service` — the `pacga serve` scheduling daemon
//!
//! The PA-CGA paper frames the algorithm as a practical scheduler for
//! grids where requests arrive continuously. This crate turns the
//! single-shot engine into a long-running service: a multi-threaded TCP
//! **JSON-lines** daemon that accepts ETC scheduling requests (inline
//! matrix, Braun registry name, or generator spec), executes them in
//! coalesced batches through the [`pa_cga_core::runner`] worker pool,
//! and streams back schedule + makespan + run stats.
//!
//! Production touches:
//!
//! * **Request batching** — queued requests coalesce into one portfolio
//!   submission per scheduler pass ([`server`]).
//! * **Memoization** — an instance-digest LRU cache answers repeated
//!   identical requests without re-running the engine ([`cache`]); a
//!   hit on an inline `schedule` line the daemon has already accepted,
//!   byte for byte, skips its decode and digest ([`seen`]).
//! * **Backpressure** — a bounded queue; overflow gets an explicit
//!   `busy` response instead of unbounded buffering.
//! * **Graceful drain** — `shutdown` stops intake, finishes everything
//!   queued, then exits with a summary.
//! * **Durable jobs** — with `--data-dir`, long runs become crash-safe
//!   named jobs: periodic atomic checkpoints, resume-on-restart, and a
//!   `job.start`/`job.status`/`job.log`/`job.stop`/`job.archive`
//!   lifecycle ([`jobs`]).
//! * **Observability** — a `stats` request returns uptime, throughput,
//!   cache hit/miss counters and batch shape ([`protocol`]).
//! * **Persistent corpus** — with `--corpus`, the digest LRU warm-loads
//!   from a binary `.pacst` store on boot (hits answered before the
//!   first engine spin-up) and persists back on drain ([`store`];
//!   on-disk layout in FORMAT.md at the repo root).
//! * **Schedule streams** — a connection can open a session bound to an
//!   instance and feed it grid events (machine failures, ETC drift,
//!   task churn); each event is answered by an incremental reschedule
//!   from a warm-started PA-CGA, measured against a cold restart
//!   ([`stream`]).
//!
//! The load-generator side ([`loadgen`], surfaced as
//! `pacga bench-serve`) hammers a daemon over loopback and reports
//! req/s plus p50/p90/p99 latency — the scaling demo and the CI smoke
//! stage (`scripts/ci.sh` stage 6).
//!
//! Everything runs on `std::net` blocking sockets and `std::thread`,
//! consistent with the workspace's no-crates.io vendor policy
//! (DESIGN.md §5); JSON comes from the hand-rolled [`json`] module
//! because the vendored `serde` is a no-op stand-in.

pub mod cache;
pub mod chaos;
pub mod client;
pub mod jobs;
pub mod json;
pub mod loadgen;
pub mod protocol;
pub mod seen;
pub mod server;
pub mod store;
pub mod stream;

pub use cache::{CachedRun, ScheduleCache};
pub use chaos::{run_chaos, ChaosConfig, ChaosReport, Storm};
pub use client::{Client, ClientError, RetryPolicy, RobustClient};
pub use jobs::{JobCounters, JobManager, JobState};
pub use json::Json;
pub use loadgen::{run_load, LoadConfig, LoadReport};
pub use protocol::{Request, Response, ScheduleRequest, StatsSnapshot};
pub use server::{serve, ServeConfig, ServeSummary, ServerHandle};
pub use store::{StoreBuilder, StoreError, StoreReader, VerifyReport};
pub use stream::StreamSession;
