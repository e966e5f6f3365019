//! The `pacga chaos` harness: deterministic fault injection against a
//! live daemon's schedule-stream sessions.
//!
//! A chaos run opens one session on one held connection, drives a
//! seeded **storm** of grid events through it, and verifies the
//! invariants a dynamic rescheduler must keep after every single event:
//!
//! * **No task on a down machine** — every returned assignment is
//!   checked gene-by-gene against the response's own down list *and*
//!   against a client-side [`DynamicGrid`] mirror replaying the same
//!   events (the server cannot grade its own homework).
//! * **Makespan never stale** — the reported makespan is recomputed
//!   from the returned assignment on the mirror's drifted world; a
//!   server echoing a pre-event makespan (or pricing the schedule on a
//!   pre-drift matrix) is caught to within float tolerance.
//! * **Typed rejection, session survives** — interleaved *probes* send
//!   malformed bodies, out-of-order sequence numbers, unknown machines,
//!   duplicate failures, and raw garbage lines; each must come back as
//!   a typed `stream_error` (or decode `error` for garbage) with the
//!   expected code, and the next scripted event must still apply.
//! * **Warm start pays off** — with `assert_warm_wins`, the session's
//!   warm-vs-cold ledger must show more wins than losses over the
//!   scripted storm (exactly reproducible: the recovery metric is
//!   evaluation-based, see [`pa_cga_stats::recovery`]).
//!
//! Storms are generated from a single seed via SplitMix64 — same seed,
//! same event script, same engine outcomes — so a CI stage can assert
//! on the outcome. `resume: true` reopens a persisted session (after a
//! daemon kill) and keeps storming: the opened body's `down` list and
//! the per-event responses carry enough world state to keep generating
//! valid events, though the full ETC mirror (and with it the makespan
//! recompute) only runs for sessions this process opened itself.

use crate::client::{Client, ClientError};
use crate::json::Json;
use etc_model::{Consistency, EtcGenerator, GeneratorParams, Heterogeneity};
use grid_sim::{DynamicGrid, EtcDelta, GridEvent};
use pa_cga_core::rng::splitmix64;
use pa_cga_stats::{LatencySummary, RecoverySample, RecoveryStats};
use scheduling::Schedule;
use std::time::Duration;

/// Storm shapes the script generator knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storm {
    /// A burst of machine failures, then drift while degraded, then
    /// recovery — the paper's resource-failure scenario, compressed.
    Burst,
    /// One victim machine flapping down/up with drift in between.
    Flap,
    /// No failures: an ETC drift ramp with explicit-delta spikes.
    Drift,
    /// Everything: failures, recoveries, drift, task churn.
    Mixed,
}

impl Storm {
    /// Parses a `--storm` flag value.
    pub fn parse(s: &str) -> Option<Storm> {
        Some(match s {
            "burst" => Storm::Burst,
            "flap" => Storm::Flap,
            "drift" => Storm::Drift,
            "mixed" => Storm::Mixed,
            _ => return None,
        })
    }

    /// The flag spelling.
    pub fn name(self) -> &'static str {
        match self {
            Storm::Burst => "burst",
            Storm::Flap => "flap",
            Storm::Drift => "drift",
            Storm::Mixed => "mixed",
        }
    }
}

/// Chaos-run configuration (the `pacga chaos` flags).
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Daemon address.
    pub addr: String,
    /// Tasks in the generated instance (fresh sessions).
    pub tasks: usize,
    /// Machines in the generated instance (fresh sessions).
    pub machines: usize,
    /// Scripted events to apply.
    pub events: usize,
    /// Per-event evaluation budget (warm and cold alike).
    pub evals: u64,
    /// Master seed: instance, storm script, and engine all derive from
    /// it.
    pub seed: u64,
    /// PA-CGA population grid side.
    pub grid_side: usize,
    /// The storm shape.
    pub storm: Storm,
    /// Durable session name (needs a `--data-dir` daemon).
    pub session: Option<String>,
    /// Resume the named session instead of opening fresh.
    pub resume: bool,
    /// Heuristic re-run from scratch on every event for comparison.
    pub baseline: Option<String>,
    /// Interleave malformed/out-of-order/out-of-range probes.
    pub probes: bool,
    /// Require warm wins > warm losses in the close summary.
    pub assert_warm_wins: bool,
    /// Send `shutdown` after closing the session.
    pub shutdown_after: bool,
    /// Socket timeout in milliseconds (0 = block forever).
    pub timeout_ms: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7413".into(),
            tasks: 64,
            machines: 8,
            events: 12,
            evals: 2_000,
            seed: 0,
            grid_side: 5,
            storm: Storm::Mixed,
            session: None,
            resume: false,
            baseline: None,
            probes: true,
            assert_warm_wins: false,
            shutdown_after: false,
            timeout_ms: 0,
        }
    }
}

/// What one chaos run observed.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Whether the session was resumed from disk.
    pub resumed: bool,
    /// Scripted events applied (each answered by a `stream_result`).
    pub events: u64,
    /// Probes sent (each answered by a typed error).
    pub probes: u64,
    /// Invariant violations, empty on a clean run.
    pub violations: Vec<String>,
    /// Warm-vs-cold wins over this run's scripted events.
    pub warm_wins: u64,
    /// Warm-vs-cold losses over this run's scripted events.
    pub warm_losses: u64,
    /// Mean evaluations saved per event by the warm start.
    pub mean_evals_saved: f64,
    /// Warm-path (`recovery_ms`) percentiles over this run's events.
    pub recovery: Option<LatencySummary>,
    /// Cold-restart (`cold_ms`) percentiles over this run's events; the
    /// cold run overlaps the warm path on a thread of its own.
    pub cold: Option<LatencySummary>,
    /// Best makespan at close.
    pub best_makespan: f64,
    /// Machines alive when the session closed.
    pub alive_at_close: usize,
    /// Whether the daemon acknowledged a drain (with `shutdown_after`).
    pub drained: bool,
}

impl ChaosReport {
    /// A run is clean when every invariant held on every event.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl std::fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "events    : {} applied ({}), {} probes rejected with typed errors",
            self.events,
            if self.resumed { "resumed session" } else { "fresh session" },
            self.probes
        )?;
        writeln!(
            f,
            "warm start: {} wins / {} losses vs cold restart, {:.0} evals saved per event (mean)",
            self.warm_wins, self.warm_losses, self.mean_evals_saved
        )?;
        match &self.recovery {
            Some(lat) => writeln!(
                f,
                "recovery  : p50 {:.1}ms, p99 {:.1}ms over {} events (warm path)",
                lat.p50_ms, lat.p99_ms, lat.count
            )?,
            None => writeln!(f, "recovery  : no samples")?,
        }
        if let Some(lat) = &self.cold {
            writeln!(
                f,
                "cold run  : p50 {:.1}ms, p99 {:.1}ms (overlapped, on its own thread)",
                lat.p50_ms, lat.p99_ms
            )?;
        }
        writeln!(
            f,
            "world     : best makespan {:.3}, {} machines alive",
            self.best_makespan, self.alive_at_close
        )?;
        if self.violations.is_empty() {
            writeln!(f, "invariants: held on every event")?;
        } else {
            writeln!(f, "invariants: {} VIOLATED", self.violations.len())?;
            for v in &self.violations {
                writeln!(f, "  - {v}")?;
            }
        }
        if self.drained {
            writeln!(f, "daemon    : drained cleanly")?;
        }
        Ok(())
    }
}

/// Client-side view of the session's world, rebuilt from responses so
/// it works for resumed sessions too; the full ETC mirror rides along
/// only when this process opened the session and knows the base matrix.
struct WorldView {
    n_machines: usize,
    n_tasks: usize,
    down: Vec<usize>,
    mirror: Option<DynamicGrid>,
}

impl WorldView {
    fn alive(&self) -> Vec<usize> {
        (0..self.n_machines).filter(|m| !self.down.contains(m)).collect()
    }
}

/// The deterministic storm script. Events are generated against the
/// live [`WorldView`] so every scripted event is *valid* — the invalid
/// ones are the probes' job.
struct ScriptGen {
    state: u64,
    storm: Storm,
    step: usize,
}

impl ScriptGen {
    fn new(seed: u64, storm: Storm) -> ScriptGen {
        ScriptGen { state: splitmix64(seed ^ 0xC4A5), storm, step: 0 }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = splitmix64(self.state);
        self.state
    }

    fn pick(&mut self, options: &[usize]) -> Option<usize> {
        if options.is_empty() {
            return None;
        }
        let i = (self.next_u64() as usize) % options.len();
        options.get(i).copied()
    }

    /// Exact-binary drift half-width in {1/16 .. 8/16}: survives the
    /// JSON round trip bit-for-bit, so the mirror's noise world matches
    /// the server's.
    fn epsilon(&mut self) -> f64 {
        (1 + (self.next_u64() % 8)) as f64 / 16.0
    }

    fn down_or_up(&mut self, world: &WorldView) -> GridEvent {
        let alive = world.alive();
        if alive.len() > 1 && (world.down.is_empty() || !self.next_u64().is_multiple_of(3)) {
            if let Some(machine) = self.pick(&alive) {
                return GridEvent::MachineDown { machine };
            }
        }
        match self.pick(&world.down) {
            Some(machine) => GridEvent::MachineUp { machine },
            // All machines alive and only one exists: drift instead.
            None => {
                let (epsilon, seed) = (self.epsilon(), self.next_u64() & 0xFFFF_FFFF);
                GridEvent::EtcDrift { epsilon, seed }
            }
        }
    }

    fn drift_event(&mut self, world: &WorldView) -> GridEvent {
        if self.next_u64().is_multiple_of(4) {
            // Explicit-delta spike on a couple of cells. Exact-binary
            // factors for the same round-trip reason as `epsilon`.
            let deltas = (0..2)
                .map(|_| EtcDelta {
                    task: (self.next_u64() as usize) % world.n_tasks.max(1),
                    machine: (self.next_u64() as usize) % world.n_machines.max(1),
                    factor: (4 + (self.next_u64() % 9)) as f64 / 8.0,
                })
                .collect();
            GridEvent::EtcDeltas { deltas }
        } else {
            let (epsilon, seed) = (self.epsilon(), self.next_u64() & 0xFFFF_FFFF);
            GridEvent::EtcDrift { epsilon, seed }
        }
    }

    fn churn(&mut self, world: &WorldView) -> GridEvent {
        if world.n_tasks > 2 && self.next_u64().is_multiple_of(2) {
            GridEvent::TaskCancel { task: (self.next_u64() as usize) % world.n_tasks }
        } else {
            // Integer-valued ETC row: exact through JSON.
            let etc = (0..world.n_machines).map(|_| (1 + (self.next_u64() % 100)) as f64).collect();
            GridEvent::TaskArrive { etc }
        }
    }

    fn next(&mut self, world: &WorldView) -> GridEvent {
        let step = self.step;
        self.step += 1;
        match self.storm {
            Storm::Burst => {
                // Fail fast early, drift degraded, then recover.
                let third = step % 9;
                if third < 3 && world.alive().len() > 1 {
                    self.down_or_up(world)
                } else if third < 6 || world.down.is_empty() {
                    self.drift_event(world)
                } else {
                    match self.pick(&world.down) {
                        Some(machine) => GridEvent::MachineUp { machine },
                        None => self.drift_event(world),
                    }
                }
            }
            Storm::Flap => {
                // Machine 0's bad day: down, up, down, ... with drift
                // every third event.
                if step % 3 == 2 {
                    self.drift_event(world)
                } else if world.down.contains(&0) {
                    GridEvent::MachineUp { machine: 0 }
                } else if world.alive().len() > 1 {
                    GridEvent::MachineDown { machine: 0 }
                } else {
                    self.drift_event(world)
                }
            }
            Storm::Drift => self.drift_event(world),
            Storm::Mixed => match step % 4 {
                0 | 2 => self.down_or_up(world),
                1 => self.drift_event(world),
                _ => self.churn(world),
            },
        }
    }
}

/// Encodes a grid event as the wire's `stream.event` line.
fn event_json(seq: u64, event: &GridEvent) -> Json {
    let body = match event {
        GridEvent::MachineDown { machine } => Json::obj(vec![
            ("kind", Json::str("machine.down")),
            ("machine", Json::num(*machine as f64)),
        ]),
        GridEvent::MachineUp { machine } => Json::obj(vec![
            ("kind", Json::str("machine.up")),
            ("machine", Json::num(*machine as f64)),
        ]),
        GridEvent::EtcDrift { epsilon, seed } => Json::obj(vec![
            ("kind", Json::str("etc.drift")),
            ("epsilon", Json::num(*epsilon)),
            ("seed", Json::num(*seed as f64)),
        ]),
        GridEvent::EtcDeltas { deltas } => Json::obj(vec![
            ("kind", Json::str("etc.drift")),
            (
                "deltas",
                Json::Arr(
                    deltas
                        .iter()
                        .map(|d| {
                            Json::Arr(vec![
                                Json::num(d.task as f64),
                                Json::num(d.machine as f64),
                                Json::num(d.factor),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        GridEvent::TaskArrive { etc } => Json::obj(vec![
            ("kind", Json::str("task.arrive")),
            ("etc", Json::Arr(etc.iter().map(|&v| Json::num(v)).collect())),
        ]),
        GridEvent::TaskCancel { task } => {
            Json::obj(vec![("kind", Json::str("task.cancel")), ("task", Json::num(*task as f64))])
        }
    };
    Json::obj(vec![
        ("type", Json::str("stream.event")),
        ("seq", Json::num(seq as f64)),
        ("event", body),
    ])
}

/// One probe: the request line to send and the typed error it must be
/// answered with.
struct Probe {
    label: &'static str,
    line: String,
    expect_type: &'static str,
    expect_code: Option<&'static str>,
}

fn probes_for(seq: u64, world: &WorldView) -> Vec<Probe> {
    let mut probes = vec![
        Probe {
            label: "malformed event kind",
            line: event_line_raw(seq, r#"{"kind":"machine.explode"}"#),
            expect_type: "stream_error",
            expect_code: Some("bad_event"),
        },
        Probe {
            label: "missing seq",
            line: r#"{"type":"stream.event","event":{"kind":"machine.down","machine":0}}"#.into(),
            expect_type: "stream_error",
            expect_code: Some("bad_event"),
        },
        Probe {
            label: "out-of-order seq",
            line: event_json(seq + 7, &GridEvent::EtcDrift { epsilon: 0.25, seed: 1 }).to_string(),
            expect_type: "stream_error",
            expect_code: Some("out_of_order"),
        },
        Probe {
            label: "out-of-range machine",
            line: event_json(seq, &GridEvent::MachineDown { machine: world.n_machines + 99 })
                .to_string(),
            expect_type: "stream_error",
            expect_code: Some("unknown_machine"),
        },
        Probe {
            label: "garbage line",
            line: r#"{"type":"stream.event","seq":"#.into(),
            expect_type: "error",
            expect_code: None,
        },
    ];
    // Duplicate failure (needs a machine that is already down).
    if let Some(&machine) = world.down.first() {
        probes.push(Probe {
            label: "duplicate machine.down",
            line: event_json(seq, &GridEvent::MachineDown { machine }).to_string(),
            expect_type: "stream_error",
            expect_code: Some("machine_already_down"),
        });
    }
    probes
}

fn event_line_raw(seq: u64, event_body: &str) -> String {
    format!(r#"{{"type":"stream.event","seq":{seq},"event":{event_body}}}"#)
}

/// Caps the violation list so a systematically-broken server produces a
/// readable report instead of one violation per gene.
fn push_violation(violations: &mut Vec<String>, msg: String) {
    if violations.len() < 32 {
        violations.push(msg);
    }
}

fn num(v: &Json, key: &str) -> Option<f64> {
    v.get(key).and_then(Json::as_f64)
}

fn unum(v: &Json, key: &str) -> Option<u64> {
    v.get(key).and_then(Json::as_u64)
}

fn usize_list(v: &Json, key: &str) -> Vec<usize> {
    v.get(key)
        .and_then(Json::as_arr)
        .map(|items| items.iter().filter_map(|j| j.as_u64().map(|n| n as usize)).collect())
        .unwrap_or_default()
}

/// Runs the chaos session. `Err` means the harness itself could not run
/// (connection refused, session rejected); invariant failures are data,
/// in [`ChaosReport::violations`].
pub fn run_chaos(config: &ChaosConfig) -> Result<ChaosReport, ClientError> {
    let mut client = Client::connect_retry(config.addr.as_str(), Duration::from_secs(10))?;

    // Open (or resume) the session.
    let params = GeneratorParams {
        n_tasks: config.tasks.max(2),
        n_machines: config.machines.max(2),
        task_heterogeneity: Heterogeneity::High,
        machine_heterogeneity: Heterogeneity::High,
        consistency: Consistency::Inconsistent,
        // Masked to 32 bits: the seed rides the JSON wire as an f64 and
        // must round-trip exactly for the mirror to match the server.
        seed: splitmix64(config.seed ^ 0xE7C) & 0xFFFF_FFFF,
    };
    let mut open_fields = vec![("type", Json::str("stream.open"))];
    if let Some(name) = &config.session {
        open_fields.push(("session", Json::str(name)));
    }
    if config.resume {
        open_fields.push(("resume", Json::Bool(true)));
    } else {
        open_fields.push((
            "etc_model",
            Json::obj(vec![
                ("tasks", Json::num(params.n_tasks as f64)),
                ("machines", Json::num(params.n_machines as f64)),
                ("consistency", Json::str("i")),
                ("task_het", Json::str("hi")),
                ("machine_het", Json::str("hi")),
                ("seed", Json::num(params.seed as f64)),
            ]),
        ));
        open_fields.push(("evals", Json::num(config.evals.max(1) as f64)));
        open_fields.push(("seed", Json::num(config.seed as f64)));
        open_fields.push(("grid", Json::num(config.grid_side.max(2) as f64)));
        open_fields.push(("ls", Json::num(2.0)));
        open_fields.push(("assignment", Json::Bool(true)));
        if let Some(h) = &config.baseline {
            open_fields.push(("baseline", Json::str(h)));
        }
    }
    let opened = client.request(&Json::obj(open_fields))?;
    if opened.get("type").and_then(Json::as_str) != Some("stream_opened") {
        return Err(ClientError::BadResponse(format!("stream.open rejected: {opened}")));
    }
    let resumed = opened.get("resumed").and_then(Json::as_bool).unwrap_or(false);
    let mut seq = unum(&opened, "next_seq").unwrap_or(0);
    let mut world = WorldView {
        n_machines: unum(&opened, "n_machines").unwrap_or(params.n_machines as u64) as usize,
        n_tasks: unum(&opened, "n_tasks").unwrap_or(params.n_tasks as u64) as usize,
        down: usize_list(&opened, "down"),
        // The ETC mirror only exists when we know the base world: a
        // resumed session has already drifted away from the generator
        // output, so mirror checks are skipped there (the down-set and
        // assignment checks still run off the responses).
        mirror: (!resumed).then(|| DynamicGrid::new(EtcGenerator::new(params).generate())),
    };

    let mut script = ScriptGen::new(config.seed, config.storm);
    let mut recovery = RecoveryStats::new();
    let mut cold_ms: Vec<f64> = Vec::new();
    let mut violations: Vec<String> = Vec::new();
    let mut probes_sent = 0u64;
    let mut events_applied = 0u64;

    for step in 0..config.events.max(1) {
        // Probe rounds ride between scripted events.
        if config.probes && step % 4 == 1 {
            for probe in probes_for(seq, &world) {
                let reply_line = client.send_line(&probe.line)?;
                let reply = Json::parse(&reply_line)
                    .map_err(|e| ClientError::BadResponse(format!("unparseable reply: {e}")))?;
                probes_sent += 1;
                let ty = reply.get("type").and_then(Json::as_str).unwrap_or("?");
                if ty != probe.expect_type {
                    push_violation(
                        &mut violations,
                        format!(
                            "probe {:?} (seq {seq}): expected {} response, got {ty}: {reply}",
                            probe.label, probe.expect_type
                        ),
                    );
                    continue;
                }
                if let Some(code) = probe.expect_code {
                    let got = reply.get("code").and_then(Json::as_str).unwrap_or("?");
                    if got != code {
                        push_violation(
                            &mut violations,
                            format!("probe {:?}: expected code {code}, got {got}", probe.label),
                        );
                    }
                }
                if probe.expect_code == Some("out_of_order")
                    && unum(&reply, "expected_seq") != Some(seq)
                {
                    push_violation(
                        &mut violations,
                        format!("probe {:?}: expected_seq did not echo {seq}", probe.label),
                    );
                }
            }
        }

        let event = script.next(&world);
        let reply = client.request(&event_json(seq, &event))?;
        let ty = reply.get("type").and_then(Json::as_str).unwrap_or("?");
        if ty != "stream_result" {
            push_violation(
                &mut violations,
                format!(
                    "event {step} ({}): expected stream_result, got {ty}: {reply}",
                    event.kind()
                ),
            );
            // The session rejected a scripted (valid) event: stop
            // rather than cascade out-of-sync failures.
            break;
        }
        events_applied += 1;
        check_result(&reply, seq, &event, &mut world, &mut violations);
        seq += 1;

        cold_ms.push(num(&reply, "cold_ms").unwrap_or(0.0));
        recovery.record(RecoverySample {
            recovery_ms: num(&reply, "recovery_ms").unwrap_or(0.0),
            recovery_evals: unum(&reply, "recovery_evals").unwrap_or(0),
            budget_evals: unum(&reply, "budget_evals").unwrap_or(config.evals),
            warm_makespan: num(&reply, "makespan").unwrap_or(f64::NAN),
            cold_makespan: num(&reply, "cold_makespan").unwrap_or(f64::NAN),
        });
    }

    // Close and read the session's own ledger.
    let closed = client.request(&Json::obj(vec![("type", Json::str("stream.close"))]))?;
    if closed.get("type").and_then(Json::as_str) != Some("stream_closed") {
        push_violation(&mut violations, format!("stream.close failed: {closed}"));
    }
    let warm_wins = recovery.warm_wins() as u64;
    let warm_losses = recovery.warm_losses() as u64;
    if config.assert_warm_wins && warm_wins <= warm_losses {
        push_violation(
            &mut violations,
            format!(
                "warm start did not beat cold restart: {warm_wins} wins vs {warm_losses} losses"
            ),
        );
    }

    let drained = if config.shutdown_after { client.shutdown().is_ok() } else { false };

    Ok(ChaosReport {
        resumed,
        events: events_applied,
        probes: probes_sent,
        violations,
        warm_wins,
        warm_losses,
        mean_evals_saved: recovery.mean_evals_saved(),
        recovery: recovery.latency(),
        cold: (!cold_ms.is_empty()).then(|| LatencySummary::from_millis(&cold_ms)),
        best_makespan: num(&closed, "best_makespan").unwrap_or(f64::NAN),
        alive_at_close: world.n_machines - world.down.len(),
        drained,
    })
}

/// Grades one `stream_result` against the event that caused it and the
/// client-side world, then advances the world.
fn check_result(
    reply: &Json,
    seq: u64,
    event: &GridEvent,
    world: &mut WorldView,
    violations: &mut Vec<String>,
) {
    let mut fail = |msg: String| {
        if violations.len() < 32 {
            violations.push(format!("event seq {seq} ({}): {msg}", event.kind()));
        }
    };

    if unum(reply, "seq") != Some(seq) {
        fail(format!("seq echo mismatch: {:?}", reply.get("seq")));
    }
    let makespan = num(reply, "makespan").unwrap_or(f64::NAN);
    if !makespan.is_finite() || makespan <= 0.0 {
        fail(format!("non-finite/non-positive makespan {makespan}"));
    }

    // Advance the response-derived world view.
    let down = usize_list(reply, "down");
    let n_tasks = unum(reply, "n_tasks").unwrap_or(world.n_tasks as u64) as usize;
    let alive_reported = unum(reply, "alive").unwrap_or(0) as usize;
    if alive_reported + down.len() != world.n_machines {
        fail(format!(
            "alive {alive_reported} + down {} != machines {}",
            down.len(),
            world.n_machines
        ));
    }
    world.down = down;
    world.n_tasks = n_tasks;

    // Assignment checks: no task on a down machine, and the reported
    // makespan must price THIS assignment on THIS world.
    let assignment: Vec<u32> = reply
        .get("assignment")
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(|j| j.as_u64().map(|g| g as u32)).collect())
        .unwrap_or_default();
    if assignment.is_empty() {
        fail("response carries no assignment (opened with \"assignment\": true)".into());
    } else {
        if assignment.len() != world.n_tasks {
            fail(format!("assignment length {} != n_tasks {}", assignment.len(), world.n_tasks));
        }
        if let Some(&gene) = assignment.iter().find(|&&g| world.down.contains(&(g as usize))) {
            fail(format!("task assigned to DOWN machine {gene}"));
        }
        if assignment.iter().any(|&g| g as usize >= world.n_machines) {
            fail("assignment gene out of machine range".into());
        }
    }

    // Mirror replay (fresh sessions): same base, same events, so the
    // server's world and makespan must match ours.
    let Some(mirror) = world.mirror.as_mut() else { return };
    match mirror.apply(event) {
        Err(e) => fail(format!("mirror rejected the applied event: {e}")),
        Ok(_) => {
            let mirror_down = mirror.down_machines();
            if mirror_down != world.down {
                fail(format!("server down set {:?} != mirror {:?}", world.down, mirror_down));
            }
            if mirror.base().n_tasks() != world.n_tasks {
                fail(format!(
                    "server n_tasks {} != mirror {}",
                    world.n_tasks,
                    mirror.base().n_tasks()
                ));
            } else if !assignment.is_empty() && assignment.len() == world.n_tasks {
                match mirror.to_local(&assignment) {
                    None => fail("assignment does not map onto the mirror's live machines".into()),
                    Some(local) => {
                        let priced =
                            Schedule::from_assignment(&mirror.sub_instance(), local).makespan();
                        let tol = 1e-9 * priced.abs().max(1.0);
                        if (priced - makespan).abs() > tol {
                            fail(format!(
                                "STALE makespan: reported {makespan}, assignment prices to \
                                 {priced} on the current world"
                            ));
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{serve, ServeConfig};

    fn local_daemon() -> crate::server::ServerHandle {
        serve(ServeConfig { addr: "127.0.0.1:0".into(), workers: 1, ..ServeConfig::default() })
            .expect("daemon binds")
    }

    fn base_config(addr: String) -> ChaosConfig {
        ChaosConfig {
            addr,
            tasks: 24,
            machines: 4,
            events: 6,
            evals: 300,
            seed: 7,
            grid_side: 4,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn mixed_storm_runs_clean_with_probes() {
        let daemon = local_daemon();
        let config = base_config(daemon.addr().to_string());
        let report = run_chaos(&config).expect("harness runs");
        assert!(report.clean(), "violations: {:?}", report.violations);
        assert_eq!(report.events, 6);
        assert!(report.probes >= 5, "probe rounds ran");
        assert!(report.best_makespan.is_finite());
        let text = report.to_string();
        assert!(text.contains("invariants: held on every event"), "{text}");
        daemon.shutdown();
        daemon.join();
    }

    #[test]
    fn warm_start_beats_cold_restart_on_a_failure_storm() {
        // The acceptance bar: on a failure-dominated script with a real
        // budget, the repaired population must out-recover the Min-min
        // cold restart more often than not.
        let daemon = local_daemon();
        let mut config = base_config(daemon.addr().to_string());
        config.storm = Storm::Burst;
        config.tasks = 64;
        config.machines = 8;
        config.grid_side = 5;
        config.events = 6;
        config.evals = 10_000;
        config.probes = false;
        config.assert_warm_wins = true;
        let report = run_chaos(&config).expect("harness runs");
        assert!(report.clean(), "violations: {:?}", report.violations);
        assert!(report.warm_wins > report.warm_losses, "{report}");
        daemon.shutdown();
        daemon.join();
    }

    #[test]
    fn every_storm_shape_is_deterministic() {
        for storm in [Storm::Burst, Storm::Flap, Storm::Drift, Storm::Mixed] {
            let daemon = local_daemon();
            let mut config = base_config(daemon.addr().to_string());
            config.storm = storm;
            config.events = 5;
            config.probes = false;
            let a = run_chaos(&config).expect("first run");
            let b = run_chaos(&config).expect("second run");
            assert!(a.clean(), "{storm:?}: {:?}", a.violations);
            assert_eq!(a.events, b.events, "{storm:?}");
            assert_eq!(a.warm_wins, b.warm_wins, "{storm:?}");
            assert_eq!(a.best_makespan.to_bits(), b.best_makespan.to_bits(), "{storm:?}");
            daemon.shutdown();
            daemon.join();
        }
    }

    #[test]
    fn storm_parse_round_trips() {
        for s in [Storm::Burst, Storm::Flap, Storm::Drift, Storm::Mixed] {
            assert_eq!(Storm::parse(s.name()), Some(s));
        }
        assert_eq!(Storm::parse("tornado"), None);
    }

    #[test]
    fn baseline_rides_along() {
        let daemon = local_daemon();
        let mut config = base_config(daemon.addr().to_string());
        config.events = 2;
        config.probes = false;
        config.baseline = Some("min-min".into());
        let report = run_chaos(&config).expect("harness runs");
        assert!(report.clean(), "{:?}", report.violations);
        daemon.shutdown();
        daemon.join();
    }
}
