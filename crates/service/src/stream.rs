//! Schedule-stream sessions: fault-injected dynamic rescheduling with a
//! warm-started PA-CGA.
//!
//! A session binds one [`grid_sim::DynamicGrid`] world and one PA-CGA
//! population to a connection. Each `stream.event` is validated and
//! applied to the world, then answered by **two** reschedules over the
//! surviving machines:
//!
//! * the **warm** path repairs the previous population (orphans off
//!   dead machines via [`grid_sim::Rescheduler`], canonical completion
//!   times maintained move-by-move by `Schedule::evacuate_machine`) and
//!   resumes evolution in chunks of the per-event budget;
//! * the **cold** path restarts a fresh Min-min-seeded engine with the
//!   full budget — the restart an operator without session state would
//!   pay. A cold restart also re-pays population initialization, which
//!   counts toward its budget; the warm path inherits an evaluated
//!   population, which is exactly the advantage being measured.
//!
//! The cold path reads only the post-event world and its own seed, so
//! it runs on a scoped thread of its own while the connection thread
//! runs the warm path: a session uses up to 2 cores per in-flight
//! event, outside `serve --workers` accounting. Both engines are
//! single-threaded and seeded, so the answers are bit-identical to
//! running the two paths one after the other.
//!
//! The chunked warm run yields `recovery_evals`: the post-repair
//! evaluations (chunk-granular) until the warm best first matched the
//! cold restart's final best. The engine is deterministic at one
//! thread, so this metric is bit-stable across hosts — the CI chaos
//! stage asserts on it instead of wall-clock, which is still reported:
//! `recovery_ms` is the warm path's wall time (event applied to last
//! warm chunk done, excluding the wait for the cold thread) and feeds
//! the close summary's percentiles (see [`pa_cga_stats::recovery`]);
//! `cold_ms` is the cold thread's own run time.
//!
//! **Durability.** A session opened with a `session` name persists
//! under `<data-dir>/sessions/<name>/` after every applied event:
//!
//! * `instance.etc` — the current base world (drift and arrivals
//!   included) in the binary instance codec of [`etc_model::binary`].
//!   Sessions used to persist it as text; resume reads either, and the
//!   next persist writes binary;
//! * `session.json` — sequencing, budget/engine knobs, down-machine
//!   set, and the warm-vs-cold ledger;
//! * `checkpoint.ckpt` — the population in *base* (global-machine)
//!   gene space, in the [`pa_cga_core::checkpoint`] v2 text format.
//!
//! A daemon killed between events (SIGKILL included) resumes from the
//! last applied event: `stream.open {"session": N, "resume": true}`
//! reloads all three files and re-repairs the population defensively.
//! Each file goes through a [`pa_cga_core::fsx`] atomic write, so no
//! file is ever torn. But `persist` installs the three one after
//! another in the order above, and resume reads them independently:
//! the session has no single commit point. A kill inside `persist`
//! can leave a session that does not resume or resumes wrongly:
//!
//! * killed after `instance.etc` and before `checkpoint.ckpt`, on a
//!   `task.arrive` or `task.cancel`, the checkpoint's genes no longer
//!   match the world's task count, and resume fails;
//! * killed before `session.json`, the old `next_seq` sits beside the
//!   updated world, so the client's resent event is applied twice.

use crate::json::Json;
use crate::protocol::{
    StreamEventRequest, StreamOpenRequest, StreamOpenedBody, StreamResultBody, StreamSummaryBody,
};
use etc_model::EtcInstance;
use grid_sim::{DynamicGrid, GridEvent, MctRescheduler, TaskRemap};
use heuristics::Heuristic;
use pa_cga_core::checkpoint::{self, CheckpointMeta};
use pa_cga_core::config::{PaCgaConfig, Termination};
use pa_cga_core::crossover::CrossoverOp;
use pa_cga_core::engine::{warm_population, PaCga};
use pa_cga_core::individual::Individual;
use pa_cga_stats::{RecoverySample, RecoveryStats};
use scheduling::Schedule;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Number of warm chunks per event: the resolution of `recovery_evals`.
const WARM_CHUNKS: u64 = 8;

/// Odd 64-bit constant (splitmix64's increment) decorrelating per-chunk
/// engine seeds.
const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// What one event's warm path produced.
struct WarmRun {
    /// The evolved population, in the post-event world's gene space.
    pop: Vec<Individual>,
    /// Best makespan of the repaired population, before any evolution.
    repair_makespan: f64,
    /// `(evaluations spent so far, best makespan)` after each chunk.
    chunks: Vec<(u64, f64)>,
    /// Generations summed over the chunks.
    generations: u64,
    /// The session baseline's makespan, read from the immigrant cohort.
    baseline_makespan: Option<f64>,
}

/// A typed stream failure: machine-readable code + human detail.
pub type StreamFailure = (String, String);

fn fail(code: &str, message: impl Into<String>) -> StreamFailure {
    (code.to_string(), message.into())
}

/// One connection's open schedule-stream session.
pub struct StreamSession {
    name: Option<String>,
    /// `<data-dir>/sessions/<name>`, for durable sessions.
    dir: Option<PathBuf>,
    grid: DynamicGrid,
    /// The population in base (global-machine) gene space. Invariant:
    /// every gene names a live machine of the current world.
    population: Vec<Vec<u32>>,
    grid_side: usize,
    budget: u64,
    seed: u64,
    ls: usize,
    crossover: CrossoverOp,
    baseline: Option<Heuristic>,
    include_assignment: bool,
    next_seq: u64,
    best: f64,
    events: u64,
    rejected: u64,
    warm_wins: u64,
    warm_losses: u64,
    evals_saved_sum: u64,
    /// Wall-clock samples of this incarnation (percentiles in the
    /// close summary cover the live run, the ledger covers the session's
    /// whole life).
    recovery: RecoveryStats,
    generations: u64,
    evaluations: u64,
    started: Instant,
}

impl std::fmt::Debug for StreamSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSession")
            .field("name", &self.name)
            .field("next_seq", &self.next_seq)
            .field("alive", &self.grid.n_alive())
            .field("best", &self.best)
            .finish_non_exhaustive()
    }
}

impl StreamSession {
    /// Opens a fresh session or resumes a persisted one.
    pub fn open(
        req: StreamOpenRequest,
        data_dir: Option<&Path>,
    ) -> Result<(StreamSession, StreamOpenedBody), StreamFailure> {
        let dir = match (&req.session, data_dir) {
            (None, _) => None,
            (Some(_), None) => {
                return Err(fail(
                    "no_data_dir",
                    "durable sessions need a daemon started with --data-dir",
                ))
            }
            (Some(name), Some(root)) => Some(root.join("sessions").join(name)),
        };
        if req.resume {
            Self::resume(req, dir)
        } else {
            Self::fresh(req, dir)
        }
    }

    fn fresh(
        req: StreamOpenRequest,
        dir: Option<PathBuf>,
    ) -> Result<(StreamSession, StreamOpenedBody), StreamFailure> {
        let Some(spec) = req.spec else {
            return Err(fail("bad_open", "stream.open without an instance spec"));
        };
        if let Some(d) = &dir {
            if d.exists() {
                return Err(fail(
                    "session_exists",
                    format!(
                        "session {:?} already exists on disk; resume it or pick a new name",
                        req.session.as_deref().unwrap_or("")
                    ),
                ));
            }
        }
        let instance = spec.resolve_instance().map_err(|e| fail("bad_open", e))?;
        let budget = match spec.termination {
            Termination::Evaluations(e) => e,
            // Unreachable: the protocol layer rejects other budgets.
            _ => return Err(fail("bad_open", "stream sessions take an \"evals\" budget")),
        };
        let baseline = resolve_baseline(req.baseline.as_deref())?;
        let mut session = StreamSession {
            name: req.session,
            dir,
            grid: DynamicGrid::new(instance),
            population: Vec::new(),
            grid_side: req.grid_side,
            budget,
            seed: spec.seed,
            ls: spec.ls,
            crossover: spec.crossover,
            baseline,
            include_assignment: spec.include_assignment,
            next_seq: 0,
            best: f64::INFINITY,
            events: 0,
            rejected: 0,
            warm_wins: 0,
            warm_losses: 0,
            evals_saved_sum: 0,
            recovery: RecoveryStats::new(),
            generations: 0,
            evaluations: 0,
            started: Instant::now(),
        };
        // The opening optimization: one full-budget run establishes the
        // session's population (all machines are up, so sub == base).
        let config = session.engine_config(session.budget, session.seed);
        let sub = session.grid.sub_instance();
        let (outcome, pop) = PaCga::new(&sub, config).run_with_population();
        session.best = outcome.best.makespan();
        session.generations = outcome.generations.iter().sum();
        session.evaluations = outcome.evaluations;
        session.population =
            pop.iter().filter_map(|i| session.grid.to_global(i.schedule.assignment())).collect();
        if session.dir.is_some() {
            session.persist().map_err(|e| fail("persist_failed", e))?;
        }
        let body = session.opened_body(false);
        Ok((session, body))
    }

    fn resume(
        req: StreamOpenRequest,
        dir: Option<PathBuf>,
    ) -> Result<(StreamSession, StreamOpenedBody), StreamFailure> {
        let Some(dir) = dir else {
            // Unreachable: the protocol layer requires a session name
            // with resume, and open() requires a data dir for names.
            return Err(fail("bad_open", "resume without a session directory"));
        };
        if !dir.join("session.json").exists() {
            return Err(fail(
                "no_session",
                format!("no persisted session {:?}", req.session.as_deref().unwrap_or("")),
            ));
        }
        let corrupt = |what: &str, e: String| fail("bad_open", format!("{what}: {e}"));
        let instance = load_world(&dir).map_err(|e| corrupt("instance.etc", e))?;
        let meta_text = std::fs::read_to_string(dir.join("session.json"))
            .map_err(|e| corrupt("session.json", e.to_string()))?;
        let meta = Json::parse(&meta_text).map_err(|e| corrupt("session.json", e.to_string()))?;
        let num = |key: &str| meta.get(key).and_then(Json::as_u64);
        let grid_side = num("grid_side").unwrap_or(8) as usize;
        if !(2..=32).contains(&grid_side) {
            return Err(corrupt("session.json", format!("grid_side {grid_side}")));
        }
        let crossover = meta
            .get("crossover")
            .and_then(Json::as_str)
            .and_then(CrossoverOp::from_name)
            .unwrap_or(CrossoverOp::TwoPoint);
        // The baseline may be changed (or dropped) at resume time.
        let baseline = match &req.baseline {
            Some(_) => resolve_baseline(req.baseline.as_deref())?,
            None => resolve_baseline(meta.get("baseline").and_then(Json::as_str))?,
        };
        let mut grid = DynamicGrid::new(instance);
        if let Some(down) = meta.get("down").and_then(Json::as_arr) {
            for id in down {
                let m = id
                    .as_u64()
                    .ok_or_else(|| corrupt("session.json", "non-integer down id".into()))?;
                grid.apply(&GridEvent::MachineDown { machine: m as usize })
                    .map_err(|e| corrupt("session.json", format!("down list: {e}")))?;
            }
        }
        let (checkpoint, _ck_meta) =
            checkpoint::load_from_path(&dir.join("checkpoint.ckpt"), grid.base())
                .map_err(|e| corrupt("checkpoint.ckpt", e.to_string()))?;
        // Defensive re-repair: persisted genes never point at down
        // machines, but a session is worth more than the assumption.
        let population: Vec<Vec<u32>> = checkpoint
            .iter()
            .map(|i| {
                grid.repair_assignment(
                    i.schedule.assignment(),
                    TaskRemap::Identity,
                    &MctRescheduler,
                )
            })
            .collect();
        let sub = grid.sub_instance();
        let best = population
            .iter()
            .filter_map(|g| grid.to_local(g))
            .map(|local| Schedule::from_assignment(&sub, local).makespan())
            .fold(f64::INFINITY, f64::min);
        let session = StreamSession {
            name: req.session,
            dir: Some(dir),
            grid,
            population,
            grid_side,
            budget: num("budget_evals").unwrap_or(crate::protocol::DEFAULT_EVALS).max(1),
            seed: num("seed").unwrap_or(0),
            ls: num("ls").unwrap_or(10) as usize,
            crossover,
            baseline,
            include_assignment: meta
                .get("include_assignment")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            next_seq: num("next_seq").unwrap_or(0),
            best,
            events: num("events").unwrap_or(0),
            rejected: num("rejected").unwrap_or(0),
            warm_wins: num("warm_wins").unwrap_or(0),
            warm_losses: num("warm_losses").unwrap_or(0),
            evals_saved_sum: num("evals_saved_sum").unwrap_or(0),
            recovery: RecoveryStats::new(),
            generations: num("generations").unwrap_or(0),
            evaluations: num("evaluations").unwrap_or(0),
            started: Instant::now(),
        };
        let body = session.opened_body(true);
        Ok((session, body))
    }

    /// The session's durable name, when it has one.
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// The sequence number the next event must carry.
    pub fn expected_seq(&self) -> u64 {
        self.next_seq
    }

    fn opened_body(&self, resumed: bool) -> StreamOpenedBody {
        StreamOpenedBody {
            session: self.name.clone(),
            resumed,
            instance: self.grid.base().name().to_string(),
            n_tasks: self.grid.base().n_tasks(),
            n_machines: self.grid.base().n_machines(),
            alive: self.grid.n_alive(),
            down: self.grid.down_machines(),
            makespan: self.best,
            next_seq: self.next_seq,
        }
    }

    fn engine_config(&self, evals: u64, seed: u64) -> PaCgaConfig {
        PaCgaConfig::builder()
            .grid(self.grid_side, self.grid_side)
            .threads(1)
            .local_search_iterations(self.ls)
            .crossover(self.crossover)
            .termination(Termination::Evaluations(evals.max(1)))
            .seed(seed)
            .build()
    }

    /// Validates, applies, and reschedules one event. On `Err` the
    /// world, population, and sequence are untouched.
    pub fn handle_event(
        &mut self,
        req: StreamEventRequest,
    ) -> Result<Box<StreamResultBody>, StreamFailure> {
        let outcome = self.try_event(req);
        if outcome.is_err() {
            self.rejected += 1;
        }
        outcome
    }

    fn try_event(
        &mut self,
        req: StreamEventRequest,
    ) -> Result<Box<StreamResultBody>, StreamFailure> {
        let event = match req.event {
            Ok(e) => e,
            Err(message) => return Err(fail("bad_event", message)),
        };
        match req.seq {
            None => return Err(fail("bad_event", "stream.event needs an integer \"seq\"")),
            Some(seq) if seq != self.next_seq => {
                return Err(fail(
                    "out_of_order",
                    format!("got seq {seq}, expected {}", self.next_seq),
                ))
            }
            Some(_) => {}
        }
        let started = Instant::now();
        let makespan_before = self.best;
        let remap = self.grid.apply(&event).map_err(|e| (e.code().to_string(), e.to_string()))?;
        let sub = self.grid.sub_instance();
        let event_seed = self.seed.wrapping_add(self.grid.version().wrapping_mul(SEED_STRIDE));
        let cold_cfg = self.engine_config(self.budget, event_seed);

        // The cold restart (fresh Min-min-seeded engine, full budget)
        // reads only `sub` and its own seed, so it evolves on a second
        // thread while this one repairs and resumes the warm population.
        // A panic on the cold thread is re-raised here, just as a panic
        // in an inline cold run would have propagated. `recovery_ms` is
        // taken before the join, so it never includes a longer cold run.
        let (cold_outcome, cold_ms, warm, recovery_ms) = std::thread::scope(|scope| {
            let cold = scope.spawn(|| {
                let t = Instant::now();
                let outcome = PaCga::new(&sub, cold_cfg).run();
                (outcome, t.elapsed().as_secs_f64() * 1e3)
            });
            let warm = self.warm_run(&sub, remap, event_seed);
            let recovery_ms = started.elapsed().as_secs_f64() * 1e3;
            let (cold, cold_ms) =
                cold.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            (cold, cold_ms, warm, recovery_ms)
        });
        let cold_makespan = cold_outcome.best.makespan();
        let WarmRun { pop, repair_makespan, chunks, generations, baseline_makespan } = warm;
        let (spent, warm_best) = chunks.last().copied().unwrap_or((0, repair_makespan));
        self.evaluations += cold_outcome.evaluations + spent;
        self.generations += generations;
        // The post-repair evaluations (chunk-granular) until the warm
        // best first matched the cold restart's final best.
        let recovery_evals = if repair_makespan <= cold_makespan {
            0
        } else {
            chunks
                .iter()
                .find(|&&(_, best)| best <= cold_makespan)
                .map_or(self.budget, |&(spent, _)| spent)
        };

        // Commit the new population (global gene space).
        self.population =
            pop.iter().filter_map(|i| self.grid.to_global(i.schedule.assignment())).collect();
        self.best = warm_best;
        self.next_seq += 1;
        self.events += 1;

        let sample = RecoverySample {
            recovery_ms,
            recovery_evals,
            budget_evals: self.budget,
            warm_makespan: warm_best,
            cold_makespan,
        };
        if sample.warm_wins() {
            self.warm_wins += 1;
        } else {
            self.warm_losses += 1;
        }
        self.evals_saved_sum += self.budget.saturating_sub(recovery_evals);
        self.recovery.record(sample);

        let assignment = if self.include_assignment {
            best_assignment(&pop).and_then(|genes| self.grid.to_global(genes))
        } else {
            None
        };

        if self.dir.is_some() {
            // The event IS applied; a failed persist degrades the
            // session to non-durable rather than lying about either.
            self.persist().map_err(|e| fail("persist_failed", e))?;
        }

        Ok(Box::new(StreamResultBody {
            seq: self.next_seq - 1,
            kind: event.kind().to_string(),
            n_tasks: self.grid.base().n_tasks(),
            n_machines: self.grid.base().n_machines(),
            alive: self.grid.n_alive(),
            down: self.grid.down_machines(),
            makespan_before,
            repair_makespan,
            makespan: warm_best,
            recovery_ms,
            cold_ms,
            recovery_evals,
            budget_evals: self.budget,
            cold_makespan,
            delta_vs_cold: warm_best - cold_makespan,
            warm_beats_cold: sample.warm_wins(),
            baseline: self.baseline.map(|h| h.name().to_string()),
            baseline_makespan,
            assignment,
        }))
    }

    /// The warm path of one event: repairs the population onto the
    /// post-event world `sub`, refreshes its tail with immigrants, and
    /// resumes evolution in [`WARM_CHUNKS`] chunks of the budget.
    fn warm_run(&self, sub: &EtcInstance, remap: TaskRemap, event_seed: u64) -> WarmRun {
        // Repair: every individual is normalized onto the new world,
        // then priced once for the rank below.
        let mut ranked: Vec<(f64, Vec<u32>)> = self
            .population
            .iter()
            .filter_map(|g| {
                self.grid.to_local(&self.grid.repair_assignment(g, remap, &MctRescheduler))
            })
            .map(|genes| (Schedule::from_assignment(sub, genes.clone()).makespan(), genes))
            .collect();

        // Immigrant refresh (Grefenstette-style): a converged population
        // repaired onto the changed world can be a stale local optimum
        // that pure resumption never escapes. Re-rank the survivors
        // (stable, so ties keep population order) and replace the tail
        // with the heuristic cohort computed on the NEW world, so the
        // warm run keeps its elite AND the diversity a cold restart gets
        // for free.
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
        let cohort = heuristics::cohort(sub);
        let baseline_makespan = Heuristic::all()
            .into_iter()
            .zip(&cohort)
            .find(|&(h, _)| Some(h) == self.baseline)
            .map(|(_, s)| s.makespan());
        let immigrants: Vec<Vec<u32>> =
            cohort.into_iter().map(|s| s.assignment().to_vec()).collect();
        let keep = ranked.len().saturating_sub(immigrants.len()).max(1);
        let local: Vec<Vec<u32>> =
            ranked.into_iter().take(keep).map(|(_, genes)| genes).chain(immigrants).collect();
        let mut pop = warm_population(sub, &self.engine_config(self.budget, event_seed), &local);
        // Freed before the chunks: they overlap the cold run's peak.
        drop(local);

        // Warm resume, chunked so recovery_evals has sub-budget
        // resolution.
        let repair_makespan = min_fitness(&pop);
        let mut chunks = Vec::with_capacity(WARM_CHUNKS as usize);
        let mut generations = 0u64;
        let mut spent = 0u64;
        while spent < self.budget {
            let chunk = (self.budget / WARM_CHUNKS).max(1).min(self.budget - spent);
            let seed = event_seed.wrapping_add((chunks.len() as u64 + 1).wrapping_mul(SEED_STRIDE));
            let (outcome, next) = PaCga::new(sub, self.engine_config(chunk, seed)).run_seeded(pop);
            spent += outcome.evaluations;
            generations += outcome.generations.iter().sum::<u64>();
            chunks.push((spent, outcome.best.makespan()));
            pop = next;
        }
        WarmRun { pop, repair_makespan, chunks, generations, baseline_makespan }
    }

    /// Persists the session: world, meta, population. Atomic per file.
    fn persist(&self) -> Result<(), String> {
        let Some(dir) = &self.dir else { return Ok(()) };
        std::fs::create_dir_all(dir).map_err(|e| format!("create {dir:?}: {e}"))?;
        let world = etc_model::binary::encode_instance(self.grid.base())
            .map_err(|e| format!("instance.etc: {e}"))?;
        pa_cga_core::fsx::atomic_write(&dir.join("instance.etc"), &world)
            .map_err(|e| format!("instance.etc: {e}"))?;
        let mut meta = self.meta_json().to_string();
        meta.push('\n');
        pa_cga_core::fsx::atomic_write(&dir.join("session.json"), meta.as_bytes())
            .map_err(|e| format!("session.json: {e}"))?;
        // Population against the BASE instance: global gene space, so
        // the checkpoint survives machine-up events changing the live
        // column set.
        let individuals: Vec<Individual> = self
            .population
            .iter()
            .map(|g| Individual::new(Schedule::from_assignment(self.grid.base(), g.clone())))
            .collect();
        if individuals.is_empty() {
            return Err("empty population".into());
        }
        let ck_meta = CheckpointMeta {
            generations: self.generations,
            evaluations: self.evaluations,
            elapsed_ms: self.started.elapsed().as_millis() as u64,
        };
        checkpoint::save_to_path(&dir.join("checkpoint.ckpt"), None, &individuals, &ck_meta)
            .map_err(|e| format!("checkpoint.ckpt: {e}"))
    }

    fn meta_json(&self) -> Json {
        Json::obj(vec![
            ("session", self.name.clone().map(Json::str).unwrap_or(Json::Null)),
            ("next_seq", Json::num(self.next_seq as f64)),
            ("budget_evals", Json::num(self.budget as f64)),
            ("seed", Json::num(self.seed as f64)),
            ("ls", Json::num(self.ls as f64)),
            ("crossover", Json::str(self.crossover.name())),
            ("grid_side", Json::num(self.grid_side as f64)),
            (
                "down",
                Json::Arr(self.grid.down_machines().iter().map(|&m| Json::num(m as f64)).collect()),
            ),
            ("baseline", self.baseline.map(|h| Json::str(h.name())).unwrap_or(Json::Null)),
            ("include_assignment", Json::Bool(self.include_assignment)),
            ("best_makespan", Json::num(self.best)),
            ("events", Json::num(self.events as f64)),
            ("rejected", Json::num(self.rejected as f64)),
            ("warm_wins", Json::num(self.warm_wins as f64)),
            ("warm_losses", Json::num(self.warm_losses as f64)),
            ("evals_saved_sum", Json::num(self.evals_saved_sum as f64)),
            ("generations", Json::num(self.generations as f64)),
            ("evaluations", Json::num(self.evaluations as f64)),
        ])
    }

    /// The close summary. Durable sessions are persisted a final time
    /// (best effort — the per-event persist already covered this state).
    pub fn close(self) -> Box<StreamSummaryBody> {
        let _ = self.persist();
        let lat = self.recovery.latency();
        Box::new(StreamSummaryBody {
            session: self.name.clone(),
            events: self.events,
            rejected: self.rejected,
            warm_wins: self.warm_wins,
            warm_losses: self.warm_losses,
            mean_evals_saved: if self.events == 0 {
                0.0
            } else {
                self.evals_saved_sum as f64 / self.events as f64
            },
            best_makespan: self.best,
            recovery_p50_ms: lat.as_ref().map(|l| l.p50_ms),
            recovery_p99_ms: lat.as_ref().map(|l| l.p99_ms),
        })
    }

    /// Connection teardown without an explicit `stream.close`: persist
    /// durable state so the session is resumable.
    pub fn suspend(self) {
        let _ = self.persist();
    }
}

fn resolve_baseline(name: Option<&str>) -> Result<Option<Heuristic>, StreamFailure> {
    match name {
        None => Ok(None),
        Some(n) => Heuristic::all()
            .iter()
            .find(|h| h.name() == n)
            .copied()
            .map(Some)
            .ok_or_else(|| fail("bad_open", format!("unknown baseline {n:?}"))),
    }
}

/// A persisted session's base world from its `instance.etc`: the binary
/// instance codec, or the text format sessions were persisted in before.
/// The binary decode checks the exact payload length, so a text file
/// never passes for binary.
fn load_world(dir: &Path) -> Result<EtcInstance, String> {
    let bytes = std::fs::read(dir.join("instance.etc")).map_err(|e| e.to_string())?;
    etc_model::binary::decode_instance(&bytes).or_else(|binary| {
        etc_model::io::read_instance(bytes.as_slice())
            .map_err(|text| format!("neither a binary instance ({binary}) nor a text one ({text})"))
    })
}

fn min_fitness(pop: &[Individual]) -> f64 {
    pop.iter().map(|i| i.fitness).fold(f64::INFINITY, f64::min)
}

fn best_assignment(pop: &[Individual]) -> Option<&[u32]> {
    pop.iter().min_by(|a, b| a.fitness.total_cmp(&b.fitness)).map(|i| i.schedule.assignment())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Request;

    fn decode_open(line: &str) -> StreamOpenRequest {
        match Request::decode(line).unwrap() {
            Request::StreamOpen(o) => *o,
            other => panic!("expected stream.open, got {other:?}"),
        }
    }

    fn decode_event(line: &str) -> StreamEventRequest {
        match Request::decode(line).unwrap() {
            Request::StreamEvent(e) => *e,
            other => panic!("expected stream.event, got {other:?}"),
        }
    }

    fn open_toy() -> (StreamSession, StreamOpenedBody) {
        let req = decode_open(
            r#"{"type":"stream.open","etc_model":{"tasks":24,"machines":4,"seed":5},"evals":400,"grid":4,"seed":9}"#,
        );
        StreamSession::open(req, None).expect("open")
    }

    #[test]
    fn open_establishes_a_population_and_seq_zero() {
        let (s, body) = open_toy();
        assert_eq!(body.next_seq, 0);
        assert_eq!(body.n_machines, 4);
        assert_eq!(body.alive, 4);
        assert!(body.makespan.is_finite());
        assert_eq!(s.population.len(), 16);
        assert!(s.population.iter().all(|g| g.len() == 24));
    }

    #[test]
    fn machine_down_reschedules_and_advances_seq() {
        let (mut s, opened) = open_toy();
        let t = Instant::now();
        let r = s
            .handle_event(decode_event(
                r#"{"type":"stream.event","seq":0,"event":{"kind":"machine.down","machine":1}}"#,
            ))
            .expect("event applies");
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        // Both timings are parts of the call, measured separately.
        assert!(r.recovery_ms > 0.0 && r.recovery_ms <= wall_ms, "{} of {wall_ms}", r.recovery_ms);
        assert!(r.cold_ms > 0.0 && r.cold_ms <= wall_ms, "{} of {wall_ms}", r.cold_ms);
        assert_eq!(r.seq, 0);
        assert_eq!(r.alive, 3);
        assert_eq!(r.down, vec![1]);
        assert_eq!(r.makespan_before, opened.makespan);
        assert!(r.makespan.is_finite());
        assert!(r.budget_evals == 400);
        assert!(r.recovery_evals <= r.budget_evals);
        assert_eq!(r.warm_beats_cold, r.recovery_evals < r.budget_evals);
        assert_eq!(s.expected_seq(), 1);
        // No gene names the dead machine.
        assert!(s.population.iter().all(|g| g.iter().all(|&m| m != 1)));
    }

    #[test]
    fn event_stream_is_deterministic_given_seed() {
        let run = || {
            let (mut s, _) = open_toy();
            let r = s
                .handle_event(decode_event(
                    r#"{"type":"stream.event","seq":0,"event":{"kind":"machine.down","machine":2}}"#,
                ))
                .expect("event");
            (r.makespan, r.cold_makespan, r.recovery_evals, s.population)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.0.to_bits(), b.0.to_bits());
        assert_eq!(a.1.to_bits(), b.1.to_bits());
        assert_eq!(a.2, b.2);
        assert_eq!(a.3, b.3);
    }

    #[test]
    fn typed_errors_leave_the_session_intact() {
        let (mut s, _) = open_toy();
        let pop_before = s.population.clone();
        // Out of order.
        let (code, _) = s
            .handle_event(decode_event(
                r#"{"type":"stream.event","seq":7,"event":{"kind":"machine.down","machine":0}}"#,
            ))
            .unwrap_err();
        assert_eq!(code, "out_of_order");
        // Malformed body.
        let (code, _) = s
            .handle_event(decode_event(r#"{"type":"stream.event","seq":0,"event":{"kind":"?"}}"#))
            .unwrap_err();
        assert_eq!(code, "bad_event");
        // Missing seq.
        let (code, _) = s
            .handle_event(decode_event(
                r#"{"type":"stream.event","event":{"kind":"machine.up","machine":0}}"#,
            ))
            .unwrap_err();
        assert_eq!(code, "bad_event");
        // Semantically invalid (machine not down).
        let (code, _) = s
            .handle_event(decode_event(
                r#"{"type":"stream.event","seq":0,"event":{"kind":"machine.up","machine":0}}"#,
            ))
            .unwrap_err();
        assert_eq!(code, "machine_not_down");
        // Unknown machine id.
        let (code, _) = s
            .handle_event(decode_event(
                r#"{"type":"stream.event","seq":0,"event":{"kind":"machine.down","machine":99}}"#,
            ))
            .unwrap_err();
        assert_eq!(code, "unknown_machine");
        assert_eq!(s.expected_seq(), 0, "rejected events do not advance seq");
        assert_eq!(s.population, pop_before, "rejected events do not touch the population");
        assert_eq!(s.rejected, 5);
        let summary = s.close();
        assert_eq!(summary.events, 0);
        assert_eq!(summary.rejected, 5);
    }

    #[test]
    fn task_arrival_and_cancel_resize_the_population() {
        let (mut s, _) = open_toy();
        let r = s
            .handle_event(decode_event(
                r#"{"type":"stream.event","seq":0,"event":{"kind":"task.arrive","etc":[1,2,3,4]}}"#,
            ))
            .expect("arrive");
        assert_eq!(r.n_tasks, 25);
        assert!(s.population.iter().all(|g| g.len() == 25));
        let r = s
            .handle_event(decode_event(
                r#"{"type":"stream.event","seq":1,"event":{"kind":"task.cancel","task":0}}"#,
            ))
            .expect("cancel");
        assert_eq!(r.n_tasks, 24);
        assert!(s.population.iter().all(|g| g.len() == 24));
    }

    #[test]
    fn durable_session_round_trips_through_disk() {
        let tmp = std::env::temp_dir().join(format!("pacga-stream-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        std::fs::create_dir_all(&tmp).unwrap();

        let open = |resume: bool| {
            let line = if resume {
                r#"{"type":"stream.open","session":"s1","resume":true}"#.to_string()
            } else {
                r#"{"type":"stream.open","session":"s1","etc_model":{"tasks":16,"machines":4,"seed":3},"evals":300,"grid":3}"#.to_string()
            };
            StreamSession::open(decode_open(&line), Some(&tmp))
        };

        let (mut s, body) = open(false).expect("fresh open");
        assert!(!body.resumed);
        s.handle_event(decode_event(
            r#"{"type":"stream.event","seq":0,"event":{"kind":"machine.down","machine":3}}"#,
        ))
        .expect("event");
        let pop = s.population.clone();
        let best = s.best;
        drop(s); // simulate a dead daemon: no close, no suspend

        // Re-open fresh under the same name: rejected.
        let (code, _) = open(false).unwrap_err();
        assert_eq!(code, "session_exists");

        let (s2, body2) = open(true).expect("resume");
        assert!(body2.resumed);
        assert_eq!(body2.next_seq, 1);
        assert_eq!(body2.alive, 3);
        assert_eq!(s2.population, pop, "population survives the restart");
        assert_eq!(s2.best.to_bits(), best.to_bits());
        assert_eq!(s2.events, 1);

        // Resuming a name that was never opened: typed error.
        let req = decode_open(r#"{"type":"stream.open","session":"ghost","resume":true}"#);
        let (code, _) = StreamSession::open(req, Some(&tmp)).unwrap_err();
        assert_eq!(code, "no_session");

        let _ = std::fs::remove_dir_all(&tmp);
    }

    #[test]
    fn session_persisted_as_text_resumes() {
        let tmp = std::env::temp_dir().join(format!("pacga-stream-text-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        let open = |line: &str| StreamSession::open(decode_open(line), Some(&tmp));
        let resume = r#"{"type":"stream.open","session":"t1","resume":true}"#;
        let (mut s, _) = open(
            r#"{"type":"stream.open","session":"t1","etc_model":{"tasks":16,"machines":4,"seed":3},"evals":300,"grid":3}"#,
        )
        .expect("fresh open");
        s.handle_event(decode_event(
            r#"{"type":"stream.event","seq":0,"event":{"kind":"task.arrive","etc":[1,2,3,4]}}"#,
        ))
        .expect("event");
        let (pop, best) = (s.population.clone(), s.best);
        drop(s);

        // The world as an older daemon left it: text.
        let path = tmp.join("sessions").join("t1").join("instance.etc");
        let world = etc_model::binary::decode_instance(&std::fs::read(&path).unwrap()).unwrap();
        let mut text = Vec::new();
        etc_model::io::write_instance(&mut text, &world).unwrap();
        std::fs::write(&path, text).unwrap();

        let (mut s, body) = open(resume).expect("resume from text");
        assert!(body.resumed);
        assert_eq!(s.population, pop);
        assert_eq!(s.best.to_bits(), best.to_bits());
        s.handle_event(decode_event(
            r#"{"type":"stream.event","seq":1,"event":{"kind":"machine.down","machine":0}}"#,
        ))
        .expect("event after resume");
        let persisted = std::fs::read(&path).unwrap();
        assert!(
            etc_model::binary::decode_instance(&persisted).unwrap() == world,
            "the next persist writes the world in binary"
        );
        let pop = s.population.clone();
        drop(s);
        let (s, _) = open(resume).expect("resume from binary");
        assert_eq!(s.population, pop);
        assert_eq!(s.grid.base(), &world);
        let _ = std::fs::remove_dir_all(&tmp);
    }

    #[test]
    fn named_session_without_data_dir_is_rejected() {
        let req = decode_open(r#"{"type":"stream.open","session":"s1","etc":[[1,2]],"evals":10}"#);
        let (code, _) = StreamSession::open(req, None).unwrap_err();
        assert_eq!(code, "no_data_dir");
    }

    /// FNV-1a over every gene of the population, individual by
    /// individual: a compact fingerprint of its exact contents and order.
    fn population_digest(population: &[Vec<u32>]) -> u64 {
        population.iter().flatten().fold(0xcbf2_9ce4_8422_2325, |h, &g| {
            (h ^ u64::from(g)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Pins every answer of one event of each kind, bit for bit, to the
    /// values the sequential warm-then-cold event path produced. Each
    /// row: the event, then the bit patterns of `makespan`,
    /// `repair_makespan` and `cold_makespan`, `recovery_evals`,
    /// `warm_beats_cold`, and the digest of the committed population.
    #[test]
    fn golden_answers_for_every_event_kind() {
        #[rustfmt::skip]
        let golden: [(&str, u64, u64, u64, u64, bool, u64); 5] = [
            (r#"{"kind":"machine.down","machine":1}"#,
             0x4149_948b_90f8_813f, 0x4149_948b_90f8_813f, 0x4149_7ce5_a78f_eaa4, 400, false, 0xdb27_1b84_0768_c96f),
            (r#"{"kind":"etc.drift","epsilon":0.3,"seed":4}"#,
             0x4146_8784_2ebd_1ca9, 0x4146_8784_2ebd_1ca9, 0x4146_8784_2ebd_1ca9, 0, true, 0xba3d_57ca_e957_e4e5),
            (r#"{"kind":"task.arrive","etc":[5,9,2,7]}"#,
             0x4146_8784_2ebd_1ca9, 0x4146_8784_2ebd_1ca9, 0x4146_8784_2ebd_1ca9, 0, true, 0x8416_0723_ca70_3fa8),
            (r#"{"kind":"machine.up","machine":1}"#,
             0x413f_2668_4cb8_7656, 0x4140_0830_28c2_0bcd, 0x413f_3588_18d9_ba1d, 64, true, 0x050f_ec7c_c677_1e1d),
            (r#"{"kind":"task.cancel","task":3}"#,
             0x413e_bd9a_e1b7_feca, 0x413e_c727_8ca3_9cd3, 0x413d_fdb9_44f1_a87a, 400, false, 0xe8a5_ba86_dcaf_52c2),
        ];
        let (mut s, _) = open_toy();
        for (seq, &(event, makespan, repair, cold, recovery, wins, digest)) in
            golden.iter().enumerate()
        {
            let r = s
                .handle_event(decode_event(&format!(
                    r#"{{"type":"stream.event","seq":{seq},"event":{event}}}"#
                )))
                .expect("event applies");
            assert_eq!(r.makespan.to_bits(), makespan, "{event}: makespan");
            assert_eq!(r.repair_makespan.to_bits(), repair, "{event}: repair_makespan");
            assert_eq!(r.cold_makespan.to_bits(), cold, "{event}: cold_makespan");
            assert_eq!(r.recovery_evals, recovery, "{event}: recovery_evals");
            assert_eq!(r.warm_beats_cold, wins, "{event}: warm_beats_cold");
            assert_eq!(population_digest(&s.population), digest, "{event}: population");
        }
    }

    #[test]
    fn baseline_is_reported_per_event() {
        // Every baseline reads its makespan from the warm run's cohort;
        // it must equal that heuristic run alone on the post-event world.
        for h in Heuristic::all() {
            let req = decode_open(&format!(
                r#"{{"type":"stream.open","etc_model":{{"tasks":16,"machines":4,"seed":1}},"evals":200,"grid":3,"baseline":"{}","assignment":true}}"#,
                h.name()
            ));
            let (mut s, _) = StreamSession::open(req, None).expect("open");
            let r = s
                .handle_event(decode_event(
                    r#"{"type":"stream.event","seq":0,"event":{"kind":"etc.drift","epsilon":0.3,"seed":4}}"#,
                ))
                .expect("drift");
            assert_eq!(r.baseline.as_deref(), Some(h.name()));
            let alone = h.schedule(&s.grid.sub_instance()).makespan();
            assert_eq!(r.baseline_makespan.map(f64::to_bits), Some(alone.to_bits()), "{h}");
            let a = r.assignment.expect("assignment requested");
            assert_eq!(a.len(), 16);
        }
    }
}
