//! The `pacga serve` wire protocol.
//!
//! Newline-delimited JSON over TCP: each line the client sends is one
//! request object, each line the server answers is one response object.
//! Requests are matched to responses in order per connection. A line
//! that is not UTF-8 is answered with an `error` (`id` null), as a line
//! that does not decode is, and the connection stays open.
//!
//! Request `type`s:
//!
//! * `schedule` — run the PA-CGA engine on an ETC instance given as
//!   exactly one of `braun` (registry name), `etc` (inline row-major
//!   matrix, optional `ready` vector) or `etc_model` (generator spec:
//!   `tasks`, `machines`, `consistency`, `task_het`, `machine_het`,
//!   `seed`). Budget: at most one of `evals` / `gens` / `time_ms`
//!   (default 20 000 evaluations). Tuning: `seed`, `threads` (engine
//!   threads — the run's weight in the shared worker pool; must not
//!   exceed the daemon's `--workers`, or the request is answered with
//!   an error), `ls`, `crossover`. `assignment: true` includes the
//!   task→machine vector in the response; `id` is echoed back verbatim.
//! * `stats` — server metrics snapshot (answered immediately, never
//!   queued).
//! * `ping` — liveness probe.
//! * `shutdown` — stop accepting, drain the queue, exit.
//! * `job.start` — start a **durable job**: the same fields as
//!   `schedule` plus an optional `job` name and `checkpoint_gens`
//!   cadence; the run executes detached, checkpoints to the daemon's
//!   `--data-dir`, and survives daemon restarts (see
//!   [`crate::jobs`]).
//! * `job.status` / `job.log` / `job.stop` / `job.archive` — inspect,
//!   tail, cancel, or archive a durable job by name.
//! * `job.list` — enumerate durable jobs, live and archived.
//! * `stream.open` — bind a **schedule-stream session** to this
//!   connection: the same instance/budget fields as `schedule` (the
//!   `evals` budget becomes the *per-event* reschedule budget), plus an
//!   optional durable `session` name, `resume: true` to reload a
//!   persisted session, `baseline` (a heuristic name re-run from
//!   scratch on every event for comparison) and `grid` (population
//!   side). See [`crate::stream`].
//! * `stream.event` — inject one grid event into the open session:
//!   `{"seq": N, "event": {"kind": ..., ...}}` where `kind` is one of
//!   `machine.down` / `machine.up` (`machine`), `etc.drift` (`epsilon`
//!   plus `seed`, or explicit `deltas: [[task, machine, factor], ...]`),
//!   `task.arrive` (`etc` row), `task.cancel` (`task`). A malformed
//!   event body decodes *successfully* into a typed error payload so
//!   the session answers `stream_error` and stays alive.
//! * `stream.close` — end the session, get its recovery summary.
//!
//! Responses: `result`, `busy` (backpressure: bounded queue full, or
//! draining), `error`, `stats`, `ok`, `job` (job status), `job_log`,
//! `job_list`, `stream_opened`, `stream_result`, `stream_error`
//! (typed: `code` + `message` + `expected_seq`), `stream_closed`.

use crate::json::{parse_flat, FlatMatrix, FlatObject, Json, Misshapen};
use etc_model::{
    braun_instance, braun_instance_names, Consistency, EtcGenerator, EtcInstance, EtcMatrix,
    GeneratorParams, Heterogeneity,
};
use grid_sim::{EtcDelta, GridEvent};
use pa_cga_core::checkpoint::push_decimal;
use pa_cga_core::config::{PaCgaConfig, Termination};
use pa_cga_core::crossover::CrossoverOp;

/// Default evaluation budget when a `schedule` request names none.
pub const DEFAULT_EVALS: u64 = 20_000;

/// Hard cap on inline matrix size (tasks × machines), so one request
/// cannot balloon server memory.
pub const MAX_INLINE_CELLS: usize = 4_096 * 256;

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run a schedule optimization.
    Schedule(Box<ScheduleRequest>),
    /// Metrics snapshot.
    Stats,
    /// Liveness probe.
    Ping,
    /// Graceful drain.
    Shutdown,
    /// Start a durable job.
    JobStart(Box<JobStartRequest>),
    /// Durable job status by name.
    JobStatus {
        /// Job name.
        job: String,
    },
    /// Tail of a durable job's progress log.
    JobLog {
        /// Job name.
        job: String,
        /// Maximum lines from the end (default 20).
        tail: usize,
    },
    /// Cancel a durable job.
    JobStop {
        /// Job name.
        job: String,
    },
    /// Archive a finished durable job into the dated hierarchy.
    JobArchive {
        /// Job name.
        job: String,
    },
    /// Enumerate durable jobs, live and archived.
    JobList,
    /// Open (or resume) a schedule-stream session on this connection.
    StreamOpen(Box<StreamOpenRequest>),
    /// Inject one grid event into the connection's open session.
    StreamEvent(Box<StreamEventRequest>),
    /// Close the connection's session and report its recovery summary.
    StreamClose,
}

/// A decoded `stream.open` request.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOpenRequest {
    /// Durable session name (same alphabet as job names). Named
    /// sessions persist their instance + population under the daemon's
    /// `--data-dir` and can be resumed; anonymous sessions die with the
    /// connection.
    pub session: Option<String>,
    /// Resume the named persisted session instead of starting fresh.
    pub resume: bool,
    /// Heuristic re-run from scratch on every event as a reschedule
    /// baseline (`--reschedule-baseline`): one of the portfolio names.
    pub baseline: Option<String>,
    /// Population grid side (population = side²). Ignored on resume —
    /// the persisted population fixes the size.
    pub grid_side: usize,
    /// The embedded instance/budget spec. `None` exactly when
    /// `resume` — a resumed session takes everything from disk.
    pub spec: Option<ScheduleRequest>,
}

/// A decoded `stream.event` request. Malformed event *bodies* decode
/// into `event: Err(message)` rather than failing the request, so the
/// server can answer a typed `stream_error` and keep the session.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamEventRequest {
    /// Client sequence number; `None` when absent or malformed.
    pub seq: Option<u64>,
    /// The decoded grid event, or why it did not decode.
    pub event: Result<GridEvent, String>,
}

/// A decoded `job.start` request: a schedule spec plus job options.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStartRequest {
    /// Client-chosen job name (generated when absent). Restricted to
    /// `[A-Za-z0-9_.-]`, max 64 chars, leading alphanumeric — job names
    /// become directory names under `--data-dir`.
    pub job: Option<String>,
    /// Checkpoint cadence in generations (default: the daemon's
    /// `--checkpoint-gens`).
    pub checkpoint_gens: Option<u64>,
    /// The embedded schedule spec (same fields as a `schedule` request).
    pub spec: ScheduleRequest,
    /// The raw request object, persisted verbatim in the job manifest so
    /// a restarted daemon can re-decode the spec.
    pub raw: Json,
}

/// Validates a client-chosen job name: these become directory names, so
/// the alphabet is locked down (no separators, no dotfiles, no traversal).
pub fn validate_job_name(name: &str) -> Result<(), String> {
    if name.is_empty() || name.len() > 64 {
        return Err("job name must be 1..=64 characters".into());
    }
    let Some(first) = name.chars().next() else {
        return Err("job name must be 1..=64 characters".into());
    };
    if !first.is_ascii_alphanumeric() {
        return Err("job name must start with an ASCII letter or digit".into());
    }
    if !name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')) {
        return Err("job name may only contain [A-Za-z0-9_.-]".into());
    }
    Ok(())
}

/// Where the ETC instance comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum InstanceSource {
    /// A named instance from the Braun registry.
    Braun(String),
    /// An inline task-major matrix (+ optional ready times), as the
    /// request line's scan left it: `etc[t][m]` at `cells[t * cols + m]`,
    /// never a `Json` tree. Decoding has checked its shape (an array of
    /// arrays of numbers); its values (non-empty, at least one machine,
    /// at most [`MAX_INLINE_CELLS`] cells, equal row lengths, entries
    /// finite and > 0, `ready` one finite value ≥ 0 per machine) are
    /// checked when the instance is resolved or the digest taken, so a
    /// bad value is still answered with the request's `id`. A matrix
    /// past the cap keeps no cells (see [`FlatMatrix`]).
    Inline {
        /// Instance name echoed in the response.
        name: String,
        /// The matrix cells, task-major.
        etc: FlatMatrix,
        /// Per-machine ready times.
        ready: Option<Vec<f64>>,
    },
    /// A generator spec under the Braun et al. range-based ETC model.
    Generator(GeneratorParams),
}

/// A decoded `schedule` request.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleRequest {
    /// Client-chosen correlation id, echoed back.
    pub id: Option<String>,
    /// Instance source.
    pub source: InstanceSource,
    /// Stop condition.
    pub termination: Termination,
    /// Engine seed.
    pub seed: u64,
    /// Engine threads — also the request's weight in the worker pool.
    pub threads: usize,
    /// H2LL local-search iterations (0 disables).
    pub ls: usize,
    /// Recombination operator.
    pub crossover: CrossoverOp,
    /// Whether the response includes the full assignment vector.
    pub include_assignment: bool,
}

fn field_str(v: &Json, key: &str) -> Result<Option<String>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(other) => Err(format!("{key:?} must be a string, got {other}")),
    }
}

fn field_u64(v: &Json, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(n) => {
            n.as_u64().map(Some).ok_or_else(|| format!("{key:?} must be a non-negative integer"))
        }
    }
}

fn field_bool(v: &Json, key: &str) -> Result<bool, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(false),
        Some(Json::Bool(b)) => Ok(*b),
        Some(other) => Err(format!("{key:?} must be a boolean, got {other}")),
    }
}

/// The decode-stage message for an `etc` value of the wrong shape.
fn etc_shape_error(shape: Misshapen) -> String {
    match shape {
        Misshapen::Null | Misshapen::NotArray => "\"etc\" must be an array of rows".into(),
        Misshapen::Row(t) => format!("etc row {t} must be an array"),
        Misshapen::Cell(t, m) => format!("etc[{t}][{m}] must be a number"),
    }
}

/// The `ready` vector (`null` reads as absent), or the decode-stage
/// message for one of the wrong shape.
fn ready_times(ready: Option<Result<Vec<f64>, Misshapen>>) -> Result<Option<Vec<f64>>, String> {
    match ready {
        None | Some(Err(Misshapen::Null)) => Ok(None),
        Some(Ok(items)) => Ok(Some(items)),
        Some(Err(Misshapen::Cell(_, m))) => Err(format!("ready[{m}] must be a number")),
        Some(Err(_)) => Err("\"ready\" must be an array of numbers".into()),
    }
}

/// The resolve-stage checks on an inline matrix and its ready times, in
/// the order a row-by-row reader meets them: emptiness, the cell cap,
/// then each row's length and entries, then `ready`.
fn check_inline(etc: &FlatMatrix, ready: Option<&[f64]>) -> Result<(), String> {
    let (n_tasks, n_machines) = (etc.rows(), etc.cols());
    if n_tasks == 0 {
        return Err("inline etc matrix is empty".into());
    }
    if n_machines == 0 {
        return Err("inline etc matrix has zero machines".into());
    }
    if n_tasks.saturating_mul(n_machines) > MAX_INLINE_CELLS {
        return Err(format!("inline etc larger than {MAX_INLINE_CELLS} cells"));
    }
    // The kept cells are every row before the first ragged one.
    if let Some((i, x)) = etc.cells().iter().enumerate().find(|&(_, &x)| !x.is_finite() || x <= 0.0)
    {
        let (t, m) = (i / n_machines, i % n_machines);
        return Err(format!("etc[{t}][{m}] = {x}; entries must be finite and > 0"));
    }
    if let Some((t, len)) = etc.ragged() {
        return Err(format!("etc row {t} has {len} machines, row 0 has {n_machines}"));
    }
    if let Some(r) = ready {
        if r.len() != n_machines {
            return Err(format!("ready has {} entries, matrix has {n_machines} machines", r.len()));
        }
        if let Some((m, x)) = r.iter().enumerate().find(|&(_, &x)| !x.is_finite() || x < 0.0) {
            return Err(format!("ready[{m}] = {x}; ready times must be finite and >= 0"));
        }
    }
    Ok(())
}

fn generator_spec(v: &Json) -> Result<GeneratorParams, String> {
    let tasks = field_u64(v, "tasks")?.ok_or("etc_model needs \"tasks\"")? as usize;
    let machines = field_u64(v, "machines")?.ok_or("etc_model needs \"machines\"")? as usize;
    if tasks == 0 || machines == 0 {
        return Err("etc_model dimensions must be positive".into());
    }
    if tasks.saturating_mul(machines) > MAX_INLINE_CELLS {
        return Err(format!("etc_model larger than {MAX_INLINE_CELLS} cells"));
    }
    let consistency: Consistency =
        field_str(v, "consistency")?.unwrap_or_else(|| "i".into()).parse()?;
    let task_het: Heterogeneity =
        field_str(v, "task_het")?.unwrap_or_else(|| "hi".into()).parse()?;
    let machine_het: Heterogeneity =
        field_str(v, "machine_het")?.unwrap_or_else(|| "hi".into()).parse()?;
    Ok(GeneratorParams {
        n_tasks: tasks,
        n_machines: machines,
        task_heterogeneity: task_het,
        machine_heterogeneity: machine_het,
        consistency,
        seed: field_u64(v, "seed")?.unwrap_or(0),
    })
}

/// Decodes the `event` object of a `stream.event` request. Errors here
/// are carried as data (see [`StreamEventRequest::event`]), never as a
/// request-decode failure.
fn stream_event_body(v: &Json) -> Result<GridEvent, String> {
    let ev = match v.get("event") {
        Some(ev @ Json::Obj(_)) => ev,
        Some(other) => return Err(format!("\"event\" must be an object, got {other}")),
        None => return Err("stream.event needs an \"event\" object".into()),
    };
    let kind = field_str(ev, "kind")?.ok_or("event needs a \"kind\"")?;
    let machine = |ev: &Json| -> Result<usize, String> {
        Ok(field_u64(ev, "machine")?.ok_or("event needs a \"machine\" id")? as usize)
    };
    match kind.as_str() {
        "machine.down" => Ok(GridEvent::MachineDown { machine: machine(ev)? }),
        "machine.up" => Ok(GridEvent::MachineUp { machine: machine(ev)? }),
        "etc.drift" => match ev.get("deltas") {
            Some(d) => {
                let rows = d.as_arr().ok_or("\"deltas\" must be an array of triples")?;
                let mut deltas = Vec::with_capacity(rows.len());
                for (i, row) in rows.iter().enumerate() {
                    let triple =
                        row.as_arr().ok_or_else(|| format!("deltas[{i}] must be an array"))?;
                    let [task, machine, factor] = triple else {
                        return Err(format!("deltas[{i}] must be [task, machine, factor]"));
                    };
                    let task = task
                        .as_u64()
                        .ok_or_else(|| format!("deltas[{i}] task must be an integer"))?;
                    let machine = machine
                        .as_u64()
                        .ok_or_else(|| format!("deltas[{i}] machine must be an integer"))?;
                    let factor = factor
                        .as_f64()
                        .ok_or_else(|| format!("deltas[{i}] factor must be a number"))?;
                    deltas.push(EtcDelta {
                        task: task as usize,
                        machine: machine as usize,
                        factor,
                    });
                }
                if deltas.is_empty() {
                    return Err("\"deltas\" must not be empty".into());
                }
                Ok(GridEvent::EtcDeltas { deltas })
            }
            None => {
                let epsilon = ev
                    .get("epsilon")
                    .and_then(Json::as_f64)
                    .ok_or("etc.drift needs \"epsilon\" (or explicit \"deltas\")")?;
                Ok(GridEvent::EtcDrift { epsilon, seed: field_u64(ev, "seed")?.unwrap_or(0) })
            }
        },
        "task.arrive" => {
            let row = ev.get("etc").ok_or("task.arrive needs an \"etc\" row")?;
            let cells = row.as_arr().ok_or("task.arrive \"etc\" must be an array of numbers")?;
            let mut etc = Vec::with_capacity(cells.len());
            for (m, cell) in cells.iter().enumerate() {
                etc.push(cell.as_f64().ok_or_else(|| format!("etc[{m}] must be a number"))?);
            }
            Ok(GridEvent::TaskArrive { etc })
        }
        "task.cancel" => {
            let task = field_u64(ev, "task")?.ok_or("task.cancel needs a \"task\" id")?;
            Ok(GridEvent::TaskCancel { task: task as usize })
        }
        other => Err(format!(
            "unknown event kind {other:?} \
             (machine.down|machine.up|etc.drift|task.arrive|task.cancel)"
        )),
    }
}

impl StreamOpenRequest {
    fn from_doc(doc: FlatObject) -> Result<StreamOpenRequest, String> {
        let v = &doc.fields;
        let session = field_str(v, "session")?;
        if let Some(name) = &session {
            validate_job_name(name).map_err(|e| format!("session {e}"))?;
        }
        let resume = field_bool(v, "resume")?;
        if resume && session.is_none() {
            return Err("stream.open with \"resume\" needs a \"session\" name".into());
        }
        let baseline = field_str(v, "baseline")?;
        if let Some(name) = &baseline {
            if !heuristics::Heuristic::all().iter().any(|h| h.name() == name) {
                let names: Vec<&str> =
                    heuristics::Heuristic::all().iter().map(|h| h.name()).collect();
                return Err(format!("unknown baseline {name:?} ({})", names.join("|")));
            }
        }
        let grid_side = field_u64(v, "grid")?.unwrap_or(8) as usize;
        if !(2..=32).contains(&grid_side) {
            return Err("\"grid\" must be in 2..=32".into());
        }
        let spec = if resume {
            if v.get("braun").is_some() || doc.matrix.is_some() || v.get("etc_model").is_some() {
                return Err("resume takes the instance from the persisted session; \
                     drop \"braun\"/\"etc\"/\"etc_model\""
                    .into());
            }
            None
        } else {
            let spec = ScheduleRequest::from_doc(doc)?;
            if !matches!(spec.termination, Termination::Evaluations(_)) {
                return Err(
                    "stream sessions take a per-event \"evals\" budget (not gens/time_ms)".into()
                );
            }
            if spec.threads != 1 {
                return Err(
                    "stream sessions run single-threaded for determinism; drop \"threads\"".into(),
                );
            }
            Some(spec)
        };
        Ok(StreamOpenRequest { session, resume, baseline, grid_side, spec })
    }
}

impl Request {
    /// Decodes one wire line (already framed by the caller).
    ///
    /// Every verb the daemon speaks decodes through here; malformed
    /// lines come back as `Err(message)` the server answers with an
    /// `error` response, never a dropped connection.
    ///
    /// ```
    /// use pa_cga_service::protocol::Request;
    ///
    /// // The core verb: schedule an inline ETC matrix with an
    /// // explicit evaluation budget.
    /// let req = Request::decode(
    ///     r#"{"type":"schedule","etc":[[1,2],[2,1]],"evals":500,"seed":7}"#,
    /// ).unwrap();
    /// let Request::Schedule(schedule) = req else { panic!("wrong verb") };
    /// assert_eq!(schedule.seed, 7);
    /// let instance = schedule.resolve_instance().unwrap();
    /// assert_eq!((instance.n_tasks(), instance.n_machines()), (2, 2));
    ///
    /// // Control verbs decode to unit variants.
    /// assert_eq!(Request::decode(r#"{"type":"ping"}"#), Ok(Request::Ping));
    /// assert_eq!(Request::decode(r#"{"type":"stats"}"#), Ok(Request::Stats));
    /// assert_eq!(Request::decode(r#"{"type":"shutdown"}"#), Ok(Request::Shutdown));
    ///
    /// // `job.*` verbs address durable jobs by validated name…
    /// let req = Request::decode(r#"{"type":"job.status","job":"night-run"}"#).unwrap();
    /// assert_eq!(req, Request::JobStatus { job: "night-run".into() });
    ///
    /// // …and `stream.*` verbs drive a schedule-stream session.
    /// assert_eq!(Request::decode(r#"{"type":"stream.close"}"#), Ok(Request::StreamClose));
    ///
    /// // Anything else is a typed decode error, not a panic.
    /// assert!(Request::decode("not json").unwrap_err().contains("malformed JSON"));
    /// assert!(Request::decode(r#"{"type":"warp"}"#).unwrap_err().contains("unknown request type"));
    /// ```
    pub fn decode(line: &str) -> Result<Request, String> {
        let malformed = |e| format!("malformed JSON: {e}");
        let doc = parse_flat(line, "etc", "ready", MAX_INLINE_CELLS).map_err(malformed)?;
        let v = &doc.fields;
        let kind = field_str(v, "type")?.ok_or("request needs a \"type\" field")?;
        let job_name = |v: &Json| -> Result<String, String> {
            let name = field_str(v, "job")?.ok_or("job requests need a \"job\" field")?;
            validate_job_name(&name)?;
            Ok(name)
        };
        match kind.as_str() {
            "stats" => Ok(Request::Stats),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            "schedule" => Ok(Request::Schedule(Box::new(ScheduleRequest::from_doc(doc)?))),
            "job.start" => {
                let job = field_str(v, "job")?;
                if let Some(name) = &job {
                    validate_job_name(name)?;
                }
                let checkpoint_gens = field_u64(v, "checkpoint_gens")?;
                if checkpoint_gens == Some(0) {
                    return Err("\"checkpoint_gens\" must be positive".into());
                }
                let spec = ScheduleRequest::from_doc(doc)?;
                // The manifest keeps the request as sent, matrix included.
                let raw = Json::parse(line).map_err(malformed)?;
                Ok(Request::JobStart(Box::new(JobStartRequest { job, checkpoint_gens, spec, raw })))
            }
            "job.status" => Ok(Request::JobStatus { job: job_name(v)? }),
            "job.log" => Ok(Request::JobLog {
                job: job_name(v)?,
                tail: field_u64(v, "tail")?.unwrap_or(20).min(1_000) as usize,
            }),
            "job.stop" => Ok(Request::JobStop { job: job_name(v)? }),
            "job.archive" => Ok(Request::JobArchive { job: job_name(v)? }),
            "job.list" => Ok(Request::JobList),
            "stream.open" => Ok(Request::StreamOpen(Box::new(StreamOpenRequest::from_doc(doc)?))),
            "stream.event" => {
                // A bad `seq` or event body is carried as typed data so
                // the server answers `stream_error` without tearing the
                // session down.
                let (seq, event) = match field_u64(v, "seq") {
                    Ok(seq) => (seq, stream_event_body(v)),
                    Err(e) => (None, Err(e)),
                };
                Ok(Request::StreamEvent(Box::new(StreamEventRequest { seq, event })))
            }
            "stream.close" => Ok(Request::StreamClose),
            other => Err(format!(
                "unknown request type {other:?} \
                 (schedule|stats|ping|shutdown|job.start|job.status|job.log|job.stop|job.archive\
                 |job.list|stream.open|stream.event|stream.close)"
            )),
        }
    }

    /// Decodes a parsed JSON object, such as a job manifest's persisted
    /// request: it is rendered back to one line and decoded by
    /// [`Request::decode`], so both entry points share one scan.
    pub fn from_json(v: &Json) -> Result<Request, String> {
        Request::decode(&v.to_string())
    }
}

impl ScheduleRequest {
    fn from_doc(doc: FlatObject) -> Result<ScheduleRequest, String> {
        let FlatObject { fields, matrix: inline, vector: ready } = doc;
        let v = &fields;
        let braun = field_str(v, "braun")?;
        let spec = v.get("etc_model");
        let source = match (braun, inline, spec) {
            (Some(name), None, None) => {
                if !braun_instance_names().contains(&name.as_str()) {
                    return Err(format!("unknown Braun instance {name:?}"));
                }
                InstanceSource::Braun(name)
            }
            (None, Some(etc), None) => InstanceSource::Inline {
                name: field_str(v, "name")?.unwrap_or_else(|| "inline".into()),
                etc: etc.map_err(etc_shape_error)?,
                ready: ready_times(ready)?,
            },
            (None, None, Some(model)) => InstanceSource::Generator(generator_spec(model)?),
            _ => {
                return Err("schedule needs exactly one of \"braun\", \"etc\", \"etc_model\"".into())
            }
        };

        let termination =
            match (field_u64(v, "evals")?, field_u64(v, "gens")?, field_u64(v, "time_ms")?) {
                (None, None, None) => Termination::Evaluations(DEFAULT_EVALS),
                (Some(e), None, None) if e > 0 => Termination::Evaluations(e),
                (None, Some(g), None) if g > 0 => Termination::Generations(g),
                (None, None, Some(t)) if t > 0 => Termination::wall_time_ms(t),
                (Some(0), None, None) | (None, Some(0), None) | (None, None, Some(0)) => {
                    return Err("budget must be positive".into())
                }
                _ => return Err("give at most one of \"evals\", \"gens\", \"time_ms\"".into()),
            };

        let threads = field_u64(v, "threads")?.unwrap_or(1) as usize;
        if threads == 0 || threads > 64 {
            return Err("\"threads\" must be in 1..=64".into());
        }
        let crossover = match field_str(v, "crossover")? {
            None => CrossoverOp::TwoPoint,
            Some(name) => CrossoverOp::from_name(&name)
                .ok_or_else(|| format!("bad crossover {name:?} (opx|tpx|ux)"))?,
        };
        Ok(ScheduleRequest {
            id: field_str(v, "id")?,
            source,
            termination,
            seed: field_u64(v, "seed")?.unwrap_or(0),
            threads,
            ls: field_u64(v, "ls")?.unwrap_or(10) as usize,
            crossover,
            include_assignment: field_bool(v, "assignment")?,
        })
    }

    /// Materializes the ETC instance this request schedules.
    pub fn resolve_instance(&self) -> Result<EtcInstance, String> {
        match &self.source {
            InstanceSource::Braun(name) => Ok(braun_instance(name)),
            InstanceSource::Generator(params) => Ok(EtcGenerator::new(*params).generate()),
            InstanceSource::Inline { name, etc, ready } => {
                check_inline(etc, ready.as_deref())?;
                let matrix =
                    EtcMatrix::from_task_major(etc.rows(), etc.cols(), etc.cells().to_vec());
                Ok(match ready {
                    None => EtcInstance::new(name.clone(), matrix),
                    Some(r) => EtcInstance::with_ready_times(name.clone(), matrix, r.clone()),
                })
            }
        }
    }

    /// The name [`ScheduleRequest::resolve_instance`] gives the
    /// instance, without building it.
    pub(crate) fn instance_name(&self) -> String {
        match &self.source {
            InstanceSource::Braun(name) | InstanceSource::Inline { name, .. } => name.clone(),
            InstanceSource::Generator(params) => params.braun_name(0),
        }
    }

    /// What a cache lookup needs: the instance checked exactly as
    /// [`ScheduleRequest::resolve_instance`] checks it (same errors), and
    /// the digest [`ScheduleRequest::digest`] would take of it. An inline
    /// matrix is checked and hashed straight from its decoded cells, so
    /// no instance is built; a Braun or generator source has no cells
    /// until it is resolved.
    pub(crate) fn checked_digest(&self) -> Result<u64, String> {
        match &self.source {
            InstanceSource::Inline { etc, ready, .. } => {
                check_inline(etc, ready.as_deref())?;
                Ok(self.digest_cells(etc.rows(), etc.cols(), etc.cells(), ready.as_deref()))
            }
            _ => self.resolve_instance().map(|instance| self.digest(&instance)),
        }
    }

    /// The engine configuration this request asks for.
    pub fn build_config(&self) -> PaCgaConfig {
        PaCgaConfig::builder()
            .threads(self.threads)
            .local_search_iterations(self.ls)
            .crossover(self.crossover)
            .termination(self.termination)
            .seed(self.seed)
            .build()
    }

    /// Memoization digest: FNV-1a over the resolved instance bytes and
    /// every config knob that affects the outcome. Two requests with
    /// equal digests ask for the same computation.
    pub fn digest(&self, instance: &EtcInstance) -> u64 {
        self.digest_cells(
            instance.n_tasks(),
            instance.n_machines(),
            instance.etc().task_major_data(),
            Some(instance.ready_times()),
        )
    }

    /// The digest over dimensions, task-major cells, ready times (`None`
    /// hashes the all-zero default, as [`EtcInstance::new`] sets it) and
    /// knobs: the one routine behind [`ScheduleRequest::digest`] and
    /// [`ScheduleRequest::checked_digest`].
    fn digest_cells(
        &self,
        n_tasks: usize,
        n_machines: usize,
        cells: &[f64],
        ready: Option<&[f64]>,
    ) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(n_tasks as u64);
        h.write_u64(n_machines as u64);
        for &x in cells {
            h.write_u64(x.to_bits());
        }
        match ready {
            Some(ready) => ready.iter().for_each(|r| h.write_u64(r.to_bits())),
            None => (0..n_machines).for_each(|_| h.write_u64(0f64.to_bits())),
        }
        h.write_u64(self.seed);
        h.write_u64(self.threads as u64);
        h.write_u64(self.ls as u64);
        h.write_u64(match self.crossover {
            CrossoverOp::OnePoint => 1,
            CrossoverOp::TwoPoint => 2,
            CrossoverOp::Uniform => 3,
        });
        match self.termination {
            Termination::Evaluations(e) => {
                h.write_u64(0xE);
                h.write_u64(e);
            }
            Termination::Generations(g) => {
                h.write_u64(0x6);
                h.write_u64(g);
            }
            Termination::WallTime(d) => {
                h.write_u64(0x7);
                h.write_u64(d.as_nanos() as u64);
            }
        }
        h.finish()
    }
}

/// FNV-1a, 64-bit — the digest behind the memoization cache. Not
/// cryptographic; collisions only cost a stale-but-valid cached answer
/// for a different instance, and 64 bits over a bounded cache makes that
/// astronomically unlikely.
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Folds one byte.
    pub fn write_u8(&mut self, byte: u8) {
        self.0 ^= byte as u64;
        self.0 = self.0.wrapping_mul(Self::PRIME);
    }

    /// Folds eight bytes, little-endian.
    pub fn write_u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.write_u8(byte);
        }
    }

    /// Folds a byte slice.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// The accumulated digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// A server response, ready to encode as one JSON line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A completed `schedule` request.
    Result {
        /// Echo of the request id.
        id: Option<String>,
        /// Resolved instance name.
        instance: String,
        /// Instance dimensions.
        n_tasks: usize,
        /// Instance dimensions.
        n_machines: usize,
        /// Best makespan found.
        makespan: f64,
        /// Engine evaluations behind the answer (the original run's
        /// count when served from cache).
        evaluations: u64,
        /// Wall-clock of the engine run that produced the schedule, ms.
        engine_ms: f64,
        /// Whether the answer came from the memoization cache.
        cached: bool,
        /// Whether the request was coalesced onto an identical in-batch
        /// run instead of executing separately.
        coalesced: bool,
        /// Task→machine assignment (when requested).
        assignment: Option<Vec<u32>>,
    },
    /// Backpressure: the request was NOT queued and will not be
    /// answered; retry later.
    Busy {
        /// Why (`"queue full"` or `"draining"`).
        reason: String,
    },
    /// The request failed.
    Error {
        /// Echo of the request id, when one decoded.
        id: Option<String>,
        /// What went wrong.
        message: String,
    },
    /// Metrics snapshot (`stats` request).
    Stats(Box<StatsSnapshot>),
    /// Acknowledgement (`ping`, `shutdown`).
    Ok {
        /// Free-form detail (`"pong"`, `"draining"`).
        message: String,
    },
    /// A durable job's status (`job.start`, `job.status`, `job.stop`,
    /// `job.archive`).
    Job(Box<JobStatusBody>),
    /// Tail of a durable job's progress log (`job.log`).
    JobLog {
        /// Job name.
        job: String,
        /// The last lines of the progress log, oldest first.
        lines: Vec<String>,
    },
    /// Durable job listing (`job.list`).
    JobList {
        /// One entry per job, live first, then archived, each sorted by
        /// name.
        jobs: Vec<JobListEntry>,
    },
    /// A schedule-stream session is open (`stream.open`).
    StreamOpened(Box<StreamOpenedBody>),
    /// One grid event applied and rescheduled (`stream.event`).
    StreamResult(Box<StreamResultBody>),
    /// A stream request was rejected; the session (if any) is intact.
    StreamError {
        /// Machine-readable code: `no_session`, `session_exists`,
        /// `session_busy`, `no_data_dir`, `out_of_order`, `bad_event`,
        /// or a [`grid_sim::EventError`] code such as
        /// `unknown_machine` / `last_machine` / `bad_value`.
        code: String,
        /// Human-readable detail.
        message: String,
        /// The sequence number the session expects next, when one is
        /// open.
        expected_seq: Option<u64>,
    },
    /// The session closed; its recovery summary (`stream.close`).
    StreamClosed(Box<StreamSummaryBody>),
}

/// One row of a `job_list` response.
#[derive(Debug, Clone, PartialEq)]
pub struct JobListEntry {
    /// Job name.
    pub job: String,
    /// State machine position; archived jobs report the terminal state
    /// their manifest recorded (`done`, `failed`, or `stopped`).
    pub state: String,
    /// Whether the job is live under the data dir (vs archived).
    pub live: bool,
    /// Generations completed.
    pub generations: u64,
    /// Evaluations accounted.
    pub evaluations: u64,
    /// Best makespan observed, when any.
    pub best_makespan: Option<f64>,
    /// Archive date bucket (`YYYY-MM-DD`) for archived jobs.
    pub archived_date: Option<String>,
}

/// The body of a `stream_opened` response.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOpenedBody {
    /// Durable session name, when one was given.
    pub session: Option<String>,
    /// Whether the session was resumed from disk.
    pub resumed: bool,
    /// Resolved instance name.
    pub instance: String,
    /// Current task count.
    pub n_tasks: usize,
    /// Base machine count (down machines included).
    pub n_machines: usize,
    /// Machines currently alive.
    pub alive: usize,
    /// Machines currently down, ascending (resume needs the world's
    /// failure state, not just its size).
    pub down: Vec<usize>,
    /// Best makespan of the (possibly resumed) population.
    pub makespan: f64,
    /// The sequence number the first/next event must carry.
    pub next_seq: u64,
}

/// The body of a `stream_result` response: one event, applied and
/// rescheduled, with the warm-vs-cold recovery measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamResultBody {
    /// Echo of the event's sequence number.
    pub seq: u64,
    /// The applied event verb (`machine.down`, ...).
    pub kind: String,
    /// Task count after the event.
    pub n_tasks: usize,
    /// Base machine count.
    pub n_machines: usize,
    /// Machines alive after the event.
    pub alive: usize,
    /// Down machine ids, ascending.
    pub down: Vec<usize>,
    /// Best makespan *before* the event (previous world).
    pub makespan_before: f64,
    /// Best makespan right after repair, before resumed evolution.
    pub repair_makespan: f64,
    /// Best makespan after the warm path spent the event budget.
    pub makespan: f64,
    /// Warm-path wall time, ms: from the event being applied to the
    /// last warm chunk finishing (the wait for the cold run excluded).
    pub recovery_ms: f64,
    /// The overlapped cold restart's own run time, ms.
    pub cold_ms: f64,
    /// Post-repair evaluations until the warm best first reached the
    /// cold restart's final best (= `budget_evals` if never).
    pub recovery_evals: u64,
    /// Per-event evaluation budget (both paths).
    pub budget_evals: u64,
    /// Cold-restart best makespan after the same budget.
    pub cold_makespan: f64,
    /// `makespan - cold_makespan` (negative = warm found better).
    pub delta_vs_cold: f64,
    /// Whether the warm start recovered strictly under the cold budget.
    pub warm_beats_cold: bool,
    /// Baseline heuristic name, when configured.
    pub baseline: Option<String>,
    /// The baseline's from-scratch makespan on the new world.
    pub baseline_makespan: Option<f64>,
    /// Task→machine assignment in *base* machine ids (when the open
    /// request asked for assignments).
    pub assignment: Option<Vec<u32>>,
}

/// The body of a `stream_closed` response.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSummaryBody {
    /// Durable session name, when one was given.
    pub session: Option<String>,
    /// Events applied successfully.
    pub events: u64,
    /// Requests rejected with `stream_error`.
    pub rejected: u64,
    /// Events where the warm start beat the cold budget.
    pub warm_wins: u64,
    /// Events where it did not.
    pub warm_losses: u64,
    /// Mean evaluations saved versus the cold budget.
    pub mean_evals_saved: f64,
    /// Best makespan of the final population.
    pub best_makespan: f64,
    /// Recovery wall-clock median, ms (absent with zero events).
    pub recovery_p50_ms: Option<f64>,
    /// Recovery wall-clock p99, ms (absent with zero events).
    pub recovery_p99_ms: Option<f64>,
}

/// The body of a `job` response.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JobStatusBody {
    /// Job name.
    pub job: String,
    /// State machine position: `queued`, `running`, `checkpointed`,
    /// `done`, `failed`, `stopped`, or `archived`.
    pub state: String,
    /// Generations completed (of the snapshotting thread).
    pub generations: u64,
    /// Evaluations accounted so far (summed across restarts).
    pub evaluations: u64,
    /// Best makespan observed so far, when any checkpoint or result
    /// exists.
    pub best_makespan: Option<f64>,
    /// Live throughput (evaluations per second), when derivable.
    pub evals_per_sec: Option<f64>,
    /// Estimated seconds to completion, when derivable.
    pub eta_s: Option<f64>,
    /// Archive directory, once the job has been archived.
    pub archived_to: Option<String>,
    /// Free-form detail (failure message, stop acknowledgement).
    pub message: Option<String>,
}

/// Server metrics returned by a `stats` request.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Seconds since the listener came up.
    pub uptime_s: f64,
    /// Schedule requests accepted: misses admitted into the queue plus
    /// cache hits answered on a connection's handler thread.
    pub received: u64,
    /// Schedule requests answered with a `result`.
    pub completed: u64,
    /// Schedule requests answered with an `error`.
    pub errors: u64,
    /// Requests rejected with `busy`.
    pub busy: u64,
    /// Memoization cache hits.
    pub cache_hits: u64,
    /// Memoization cache misses.
    pub cache_misses: u64,
    /// Live cache entries.
    pub cache_entries: usize,
    /// Cache capacity (LRU bound).
    pub cache_capacity: usize,
    /// Cache entries warm-loaded from the `--corpus` store at boot (0
    /// without a corpus; see FORMAT.md).
    pub cache_persisted: u64,
    /// Cache hits answered from the seen-line table: a `schedule` line
    /// accepted before, byte for byte, neither decoded nor digested again
    /// (see [`crate::seen`]).
    pub unscanned_hits: u64,
    /// Accepted inline `schedule` lines the seen-line table holds.
    pub known_lines: usize,
    /// In-batch duplicate requests served by one run.
    pub coalesced: u64,
    /// Batches executed. Only queued misses form batches; a hit answered
    /// on its handler thread is in no batch.
    pub batches: u64,
    /// Largest batch coalesced so far (queued misses only).
    pub max_batch: u64,
    /// Total engine evaluations spent.
    pub evaluations: u64,
    /// Completed requests per second of uptime.
    pub req_per_sec: f64,
    /// Durable jobs started (including resumed) since the daemon came up.
    pub jobs_started: u64,
    /// Durable jobs that reached `done`.
    pub jobs_completed: u64,
    /// Durable jobs that reached `failed`.
    pub jobs_failed: u64,
    /// Durable jobs resumed from a checkpoint at daemon startup.
    pub jobs_resumed: u64,
    /// Durable jobs currently queued or running.
    pub jobs_active: u64,
}

impl Response {
    /// Encodes the response as one JSON line (no trailing newline).
    ///
    /// The inverse direction of [`Request::decode`]: what the daemon
    /// writes back, one object per request, in request order.
    ///
    /// The `assignment` of a `result` or `stream_result` is its last
    /// field. It is spelled straight into the line's bytes, one
    /// [`push_decimal`] per gene, after the rest of the object: a
    /// 512-gene answer builds no `Json` node per gene.
    ///
    /// ```
    /// use pa_cga_service::protocol::Response;
    /// use pa_cga_service::Json;
    ///
    /// // A schedule answer served from the warm corpus cache:
    /// let line = Response::Result {
    ///     id: Some("req-1".into()),
    ///     instance: "u_c_hihi.0".into(),
    ///     n_tasks: 512,
    ///     n_machines: 16,
    ///     makespan: 7_813_622.5,
    ///     evaluations: 20_000,
    ///     engine_ms: 142.0,
    ///     cached: true,
    ///     coalesced: false,
    ///     assignment: None,
    /// }
    /// .encode();
    /// // The line is self-describing JSON a client can re-parse:
    /// let v = Json::parse(&line).unwrap();
    /// assert_eq!(v.get("type").and_then(Json::as_str), Some("result"));
    /// assert_eq!(v.get("cached").and_then(Json::as_bool), Some(true));
    /// assert_eq!(v.get("instance").and_then(Json::as_str), Some("u_c_hihi.0"));
    ///
    /// // Backpressure is a typed verb, not a dropped connection:
    /// let v = Json::parse(&Response::Busy { reason: "queue full".into() }.encode()).unwrap();
    /// assert_eq!(v.get("type").and_then(Json::as_str), Some("busy"));
    /// ```
    pub fn encode(&self) -> String {
        let head = self.head_json().to_string();
        let Some(genes) = self.assignment() else {
            return head;
        };
        let mut line = head.into_bytes();
        // The head is an object: reopen it before its closing `}`.
        line.pop();
        // The key, the brackets, and most machine ids in one or two
        // digits.
        line.reserve(17 + genes.len() * 3);
        line.extend_from_slice(b",\"assignment\":[");
        for (i, &m) in genes.iter().enumerate() {
            if i > 0 {
                line.push(b',');
            }
            push_decimal(&mut line, m);
        }
        line.extend_from_slice(b"]}");
        // The head is a `String` and the rest is ASCII, so this never
        // takes the lossy branch.
        String::from_utf8(line)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
    }

    /// The assignment [`Response::encode`] appends, if any.
    fn assignment(&self) -> Option<&[u32]> {
        match self {
            Response::Result { assignment, .. } => assignment.as_deref(),
            Response::StreamResult(b) => b.assignment.as_deref(),
            _ => None,
        }
    }

    /// The JSON form of the response, without the `assignment` that
    /// [`Response::encode`] appends.
    fn head_json(&self) -> Json {
        let opt_str = |s: &Option<String>| match s {
            Some(s) => Json::str(s.clone()),
            None => Json::Null,
        };
        match self {
            Response::Result {
                id,
                instance,
                n_tasks,
                n_machines,
                makespan,
                evaluations,
                engine_ms,
                cached,
                coalesced,
                assignment: _,
            } => Json::obj(vec![
                ("type", Json::str("result")),
                ("id", opt_str(id)),
                ("instance", Json::str(instance.clone())),
                ("n_tasks", Json::num(*n_tasks as f64)),
                ("n_machines", Json::num(*n_machines as f64)),
                ("makespan", Json::num(*makespan)),
                ("evaluations", Json::num(*evaluations as f64)),
                ("engine_ms", Json::num(*engine_ms)),
                ("cached", Json::Bool(*cached)),
                ("coalesced", Json::Bool(*coalesced)),
            ]),
            Response::Busy { reason } => {
                Json::obj(vec![("type", Json::str("busy")), ("reason", Json::str(reason.clone()))])
            }
            Response::Error { id, message } => Json::obj(vec![
                ("type", Json::str("error")),
                ("id", opt_str(id)),
                ("message", Json::str(message.clone())),
            ]),
            Response::Ok { message } => {
                Json::obj(vec![("type", Json::str("ok")), ("message", Json::str(message.clone()))])
            }
            Response::Stats(s) => Json::obj(vec![
                ("type", Json::str("stats")),
                ("uptime_s", Json::num(s.uptime_s)),
                ("received", Json::num(s.received as f64)),
                ("completed", Json::num(s.completed as f64)),
                ("errors", Json::num(s.errors as f64)),
                ("busy", Json::num(s.busy as f64)),
                ("cache_hits", Json::num(s.cache_hits as f64)),
                ("cache_misses", Json::num(s.cache_misses as f64)),
                ("cache_entries", Json::num(s.cache_entries as f64)),
                ("cache_capacity", Json::num(s.cache_capacity as f64)),
                ("cache_persisted", Json::num(s.cache_persisted as f64)),
                ("unscanned_hits", Json::num(s.unscanned_hits as f64)),
                ("known_lines", Json::num(s.known_lines as f64)),
                ("coalesced", Json::num(s.coalesced as f64)),
                ("batches", Json::num(s.batches as f64)),
                ("max_batch", Json::num(s.max_batch as f64)),
                ("evaluations", Json::num(s.evaluations as f64)),
                ("req_per_sec", Json::num(s.req_per_sec)),
                ("jobs_started", Json::num(s.jobs_started as f64)),
                ("jobs_completed", Json::num(s.jobs_completed as f64)),
                ("jobs_failed", Json::num(s.jobs_failed as f64)),
                ("jobs_resumed", Json::num(s.jobs_resumed as f64)),
                ("jobs_active", Json::num(s.jobs_active as f64)),
            ]),
            Response::Job(j) => {
                let opt_num = |x: &Option<f64>| match x {
                    Some(x) => Json::num(*x),
                    None => Json::Null,
                };
                Json::obj(vec![
                    ("type", Json::str("job")),
                    ("job", Json::str(j.job.clone())),
                    ("state", Json::str(j.state.clone())),
                    ("generations", Json::num(j.generations as f64)),
                    ("evaluations", Json::num(j.evaluations as f64)),
                    ("best_makespan", opt_num(&j.best_makespan)),
                    ("evals_per_sec", opt_num(&j.evals_per_sec)),
                    ("eta_s", opt_num(&j.eta_s)),
                    ("archived_to", opt_str(&j.archived_to)),
                    ("message", opt_str(&j.message)),
                ])
            }
            Response::JobLog { job, lines } => Json::obj(vec![
                ("type", Json::str("job_log")),
                ("job", Json::str(job.clone())),
                ("lines", Json::Arr(lines.iter().map(|l| Json::str(l.clone())).collect())),
            ]),
            Response::JobList { jobs } => {
                let opt_num = |x: &Option<f64>| match x {
                    Some(x) => Json::num(*x),
                    None => Json::Null,
                };
                let rows = jobs
                    .iter()
                    .map(|j| {
                        Json::obj(vec![
                            ("job", Json::str(j.job.clone())),
                            ("state", Json::str(j.state.clone())),
                            ("live", Json::Bool(j.live)),
                            ("generations", Json::num(j.generations as f64)),
                            ("evaluations", Json::num(j.evaluations as f64)),
                            ("best_makespan", opt_num(&j.best_makespan)),
                            ("archived_date", opt_str(&j.archived_date)),
                        ])
                    })
                    .collect();
                Json::obj(vec![("type", Json::str("job_list")), ("jobs", Json::Arr(rows))])
            }
            Response::StreamOpened(b) => Json::obj(vec![
                ("type", Json::str("stream_opened")),
                ("session", opt_str(&b.session)),
                ("resumed", Json::Bool(b.resumed)),
                ("instance", Json::str(b.instance.clone())),
                ("n_tasks", Json::num(b.n_tasks as f64)),
                ("n_machines", Json::num(b.n_machines as f64)),
                ("alive", Json::num(b.alive as f64)),
                ("down", Json::Arr(b.down.iter().map(|&m| Json::num(m as f64)).collect())),
                ("makespan", Json::num(b.makespan)),
                ("next_seq", Json::num(b.next_seq as f64)),
            ]),
            Response::StreamResult(b) => {
                let mut fields = vec![
                    ("type", Json::str("stream_result")),
                    ("seq", Json::num(b.seq as f64)),
                    ("kind", Json::str(b.kind.clone())),
                    ("n_tasks", Json::num(b.n_tasks as f64)),
                    ("n_machines", Json::num(b.n_machines as f64)),
                    ("alive", Json::num(b.alive as f64)),
                    ("down", Json::Arr(b.down.iter().map(|&m| Json::num(m as f64)).collect())),
                    ("makespan_before", Json::num(b.makespan_before)),
                    ("repair_makespan", Json::num(b.repair_makespan)),
                    ("makespan", Json::num(b.makespan)),
                    ("recovery_ms", Json::num(b.recovery_ms)),
                    ("cold_ms", Json::num(b.cold_ms)),
                    ("recovery_evals", Json::num(b.recovery_evals as f64)),
                    ("budget_evals", Json::num(b.budget_evals as f64)),
                    ("cold_makespan", Json::num(b.cold_makespan)),
                    ("delta_vs_cold", Json::num(b.delta_vs_cold)),
                    ("warm_beats_cold", Json::Bool(b.warm_beats_cold)),
                ];
                if let Some(name) = &b.baseline {
                    fields.push(("baseline", Json::str(name.clone())));
                    if let Some(m) = b.baseline_makespan {
                        fields.push(("baseline_makespan", Json::num(m)));
                    }
                }
                Json::obj(fields)
            }
            Response::StreamError { code, message, expected_seq } => Json::obj(vec![
                ("type", Json::str("stream_error")),
                ("code", Json::str(code.clone())),
                ("message", Json::str(message.clone())),
                (
                    "expected_seq",
                    match expected_seq {
                        Some(s) => Json::num(*s as f64),
                        None => Json::Null,
                    },
                ),
            ]),
            Response::StreamClosed(b) => {
                let opt_num = |x: &Option<f64>| match x {
                    Some(x) => Json::num(*x),
                    None => Json::Null,
                };
                Json::obj(vec![
                    ("type", Json::str("stream_closed")),
                    ("session", opt_str(&b.session)),
                    ("events", Json::num(b.events as f64)),
                    ("rejected", Json::num(b.rejected as f64)),
                    ("warm_wins", Json::num(b.warm_wins as f64)),
                    ("warm_losses", Json::num(b.warm_losses as f64)),
                    ("mean_evals_saved", Json::num(b.mean_evals_saved)),
                    ("best_makespan", Json::num(b.best_makespan)),
                    ("recovery_p50_ms", opt_num(&b.recovery_p50_ms)),
                    ("recovery_p99_ms", opt_num(&b.recovery_p99_ms)),
                ])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(line: &str) -> ScheduleRequest {
        match Request::decode(line).unwrap() {
            Request::Schedule(r) => *r,
            other => panic!("expected schedule, got {other:?}"),
        }
    }

    #[test]
    fn control_requests_decode() {
        assert_eq!(Request::decode(r#"{"type":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(Request::decode(r#"{"type":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(Request::decode(r#"{"type":"shutdown"}"#).unwrap(), Request::Shutdown);
    }

    #[test]
    fn braun_schedule_decodes_with_defaults() {
        let r = schedule(r#"{"type":"schedule","braun":"u_c_hihi.0"}"#);
        assert_eq!(r.source, InstanceSource::Braun("u_c_hihi.0".into()));
        assert_eq!(r.termination, Termination::Evaluations(DEFAULT_EVALS));
        assert_eq!(r.threads, 1);
        assert_eq!(r.ls, 10);
        assert!(!r.include_assignment);
        assert_eq!(r.resolve_instance().unwrap().n_tasks(), 512);
    }

    #[test]
    fn inline_schedule_resolves() {
        let r = schedule(
            r#"{"type":"schedule","name":"tiny","etc":[[1,2],[3,4],[5,6]],"ready":[0.5,0],"evals":100}"#,
        );
        let inst = r.resolve_instance().unwrap();
        assert_eq!(inst.n_tasks(), 3);
        assert_eq!(inst.n_machines(), 2);
        assert_eq!(inst.ready(0), 0.5);
        assert_eq!(inst.name(), "tiny");
    }

    #[test]
    fn generator_schedule_resolves_deterministically() {
        let line = r#"{"type":"schedule","etc_model":{"tasks":32,"machines":4,"consistency":"c","task_het":"lo","machine_het":"hi","seed":9}}"#;
        let a = schedule(line).resolve_instance().unwrap();
        let b = schedule(line).resolve_instance().unwrap();
        assert_eq!(a, b, "same spec, same instance");
        assert_eq!(a.n_tasks(), 32);
        assert_eq!(a.n_machines(), 4);
    }

    #[test]
    fn source_must_be_exactly_one() {
        for bad in [
            r#"{"type":"schedule"}"#,
            r#"{"type":"schedule","braun":"u_c_hihi.0","etc":[[1]]}"#,
            r#"{"type":"schedule","braun":"u_c_hihi.0","etc_model":{"tasks":4,"machines":2}}"#,
        ] {
            let err = Request::decode(bad).unwrap_err();
            assert!(err.contains("exactly one"), "{bad}: {err}");
        }
    }

    #[test]
    fn invalid_inline_values_rejected_at_resolve() {
        let cases = [
            (r#"{"type":"schedule","etc":[[1,2],[3]]}"#, "row 1"),
            (r#"{"type":"schedule","etc":[[1,-2]]}"#, "finite and > 0"),
            (r#"{"type":"schedule","etc":[[1,0]]}"#, "finite and > 0"),
            (r#"{"type":"schedule","etc":[[1,2]],"ready":[1]}"#, "machines"),
            (r#"{"type":"schedule","etc":[[1,2]],"ready":[-1,0]}"#, ">= 0"),
            (r#"{"type":"schedule","etc":[]}"#, "empty"),
        ];
        for (line, needle) in cases {
            let err = schedule(line).resolve_instance().unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn over_cap_matrix_keeps_no_cells_and_keeps_its_message() {
        let line = format!(r#"{{"type":"schedule","etc":[[{}1]]}}"#, "1,".repeat(MAX_INLINE_CELLS));
        let request = schedule(&line);
        let InstanceSource::Inline { etc, .. } = &request.source else {
            panic!("inline source expected, got {:?}", request.source);
        };
        assert_eq!((etc.rows(), etc.cols()), (1, MAX_INLINE_CELLS + 1));
        assert!(etc.cells().is_empty(), "{} cells kept past the cap", etc.cells().len());
        let want = "inline etc larger than 1048576 cells";
        assert_eq!(request.resolve_instance().unwrap_err(), want);
        assert_eq!(request.checked_digest().unwrap_err(), want);
    }

    #[test]
    fn checked_digest_equals_the_resolved_instance_digest() {
        for line in [
            r#"{"type":"schedule","name":"pin","etc":[[1.5,2,3.25],[4,0.1,6e2],[7,8,9.75],[0.3,12,1e-3]],"ready":[0,1.5,0.2],"evals":1000,"seed":11,"threads":2,"ls":3,"crossover":"ux"}"#,
            r#"{"type":"schedule","etc":[[1,2],[3,4],[5,6]],"gens":7,"seed":2}"#,
            r#"{"type":"schedule","etc":[[1,2],[3,4]],"ready":[0,-0],"time_ms":5}"#,
            r#"{"type":"schedule","braun":"u_i_hilo.0","gens":50,"seed":3}"#,
            r#"{"type":"schedule","etc_model":{"tasks":32,"machines":4,"consistency":"s","seed":9}}"#,
        ] {
            let request = schedule(line);
            let instance = request.resolve_instance().unwrap();
            assert_eq!(request.checked_digest(), Ok(request.digest(&instance)), "{line}");
            assert_eq!(request.instance_name(), instance.name(), "{line}");
        }
        // Both report a bad value the same way.
        for line in [
            r#"{"type":"schedule","etc":[[1,2],[3]]}"#,
            r#"{"type":"schedule","etc":[[1,2],[3,0],[4]]}"#,
            r#"{"type":"schedule","etc":[[]]}"#,
            r#"{"type":"schedule","etc":[[1,2]],"ready":[1,-1]}"#,
        ] {
            let request = schedule(line);
            assert_eq!(
                request.checked_digest().unwrap_err(),
                request.resolve_instance().unwrap_err()
            );
        }
    }

    #[test]
    fn budget_must_be_unambiguous() {
        let err = Request::decode(r#"{"type":"schedule","braun":"u_c_hihi.0","evals":1,"gens":1}"#)
            .unwrap_err();
        assert!(err.contains("at most one"), "{err}");
        let err =
            Request::decode(r#"{"type":"schedule","braun":"u_c_hihi.0","evals":0}"#).unwrap_err();
        assert!(err.contains("positive"), "{err}");
    }

    #[test]
    fn unknown_fields_reported() {
        assert!(Request::decode(r#"{"type":"frobnicate"}"#).unwrap_err().contains("unknown"));
        assert!(Request::decode(r#"{}"#).unwrap_err().contains("type"));
        assert!(Request::decode("not json").unwrap_err().contains("malformed"));
        assert!(Request::decode(r#"{"type":"schedule","braun":"nope.9"}"#)
            .unwrap_err()
            .contains("unknown Braun instance"));
    }

    #[test]
    fn digest_distinguishes_every_knob() {
        let base = r#"{"type":"schedule","etc":[[1,2],[3,4]],"evals":100}"#;
        let variants = [
            r#"{"type":"schedule","etc":[[1,2],[3,5]],"evals":100}"#, // data
            r#"{"type":"schedule","etc":[[1,2],[3,4]],"evals":101}"#, // budget
            r#"{"type":"schedule","etc":[[1,2],[3,4]],"evals":100,"seed":1}"#,
            r#"{"type":"schedule","etc":[[1,2],[3,4]],"evals":100,"threads":2}"#,
            r#"{"type":"schedule","etc":[[1,2],[3,4]],"evals":100,"ls":3}"#,
            r#"{"type":"schedule","etc":[[1,2],[3,4]],"evals":100,"crossover":"ux"}"#,
            r#"{"type":"schedule","etc":[[1,2],[3,4]],"gens":100}"#, // budget kind
            r#"{"type":"schedule","etc":[[1,2],[3,4]],"ready":[1,0],"evals":100}"#,
        ];
        let d0 = {
            let r = schedule(base);
            r.digest(&r.resolve_instance().unwrap())
        };
        for v in variants {
            let r = schedule(v);
            let d = r.digest(&r.resolve_instance().unwrap());
            assert_ne!(d0, d, "{v} must change the digest");
        }
        // Same request, same digest — and the id / assignment flags do
        // NOT participate (they do not change the computation).
        let same = schedule(
            r#"{"type":"schedule","etc":[[1,2],[3,4]],"evals":100,"id":"x","assignment":true}"#,
        );
        assert_eq!(d0, same.digest(&same.resolve_instance().unwrap()));
    }

    #[test]
    fn digest_bytes_are_pinned() {
        // `.pacst` best records are keyed by these digests: if either
        // value moves, every persisted best is orphaned on the next warm
        // boot.
        let inline = schedule(
            r#"{"type":"schedule","name":"pin","etc":[[1.5,2,3.25],[4,0.1,6e2],[7,8,9.75],[0.3,12,1e-3]],"ready":[0,1.5,0.2],"evals":1000,"seed":11,"threads":2,"ls":3,"crossover":"ux"}"#,
        );
        let braun = schedule(r#"{"type":"schedule","braun":"u_i_hilo.0","gens":50,"seed":3}"#);
        for (request, want) in [(inline, 0xc426_adac_6a01_da31), (braun, 0x09cd_50c9_aea7_1f5a)] {
            let got = request.digest(&request.resolve_instance().unwrap());
            assert_eq!(got, want, "{:?}: digest {got:#018x}", request.source);
        }
    }

    #[test]
    fn responses_encode_as_parseable_single_lines() {
        let responses = vec![
            Response::Result {
                id: Some("r1".into()),
                instance: "toy".into(),
                n_tasks: 4,
                n_machines: 2,
                makespan: 12.5,
                evaluations: 100,
                engine_ms: 1.25,
                cached: false,
                coalesced: false,
                assignment: Some(vec![0, 1, 0, 1]),
            },
            Response::Busy { reason: "queue full".into() },
            Response::Error { id: None, message: "nope".into() },
            Response::Ok { message: "pong".into() },
        ];
        for r in responses {
            let line = r.encode();
            assert!(!line.contains('\n'), "{line}");
            let v = Json::parse(&line).unwrap();
            assert!(v.get("type").is_some(), "{line}");
        }
    }

    #[test]
    fn result_without_assignment_omits_the_field() {
        let r = Response::Result {
            id: None,
            instance: "toy".into(),
            n_tasks: 4,
            n_machines: 2,
            makespan: 1.0,
            evaluations: 10,
            engine_ms: 0.1,
            cached: true,
            coalesced: false,
            assignment: None,
        };
        let v = Json::parse(&r.encode()).unwrap();
        assert!(v.get("assignment").is_none());
        assert_eq!(v.get("cached").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn job_start_decodes_with_embedded_spec() {
        let line = r#"{"type":"job.start","job":"night-run","checkpoint_gens":50,"etc_model":{"tasks":32,"machines":4},"gens":200,"seed":7}"#;
        match Request::decode(line).unwrap() {
            Request::JobStart(j) => {
                assert_eq!(j.job.as_deref(), Some("night-run"));
                assert_eq!(j.checkpoint_gens, Some(50));
                assert_eq!(j.spec.termination, Termination::Generations(200));
                assert_eq!(j.spec.seed, 7);
                // The raw object is preserved for the manifest: it must
                // re-decode to the same request.
                match Request::from_json(&j.raw).unwrap() {
                    Request::JobStart(again) => assert_eq!(again.spec, j.spec),
                    other => panic!("raw re-decode produced {other:?}"),
                }
            }
            other => panic!("expected job.start, got {other:?}"),
        }
    }

    #[test]
    fn job_verbs_decode_and_validate_names() {
        assert_eq!(
            Request::decode(r#"{"type":"job.status","job":"a1"}"#).unwrap(),
            Request::JobStatus { job: "a1".into() }
        );
        assert_eq!(
            Request::decode(r#"{"type":"job.log","job":"a1","tail":5}"#).unwrap(),
            Request::JobLog { job: "a1".into(), tail: 5 }
        );
        assert_eq!(
            Request::decode(r#"{"type":"job.stop","job":"a1"}"#).unwrap(),
            Request::JobStop { job: "a1".into() }
        );
        assert_eq!(
            Request::decode(r#"{"type":"job.archive","job":"a1"}"#).unwrap(),
            Request::JobArchive { job: "a1".into() }
        );
        // Names become directories: traversal and separator characters
        // must be rejected at decode time.
        for bad in ["../evil", "a/b", "", ".hidden", "-dash-first", "a b", "x\u{e9}"] {
            let line = format!(r#"{{"type":"job.status","job":{:?}}}"#, bad);
            assert!(Request::decode(&line).is_err(), "{bad:?} must be rejected");
        }
        let long = "a".repeat(65);
        assert!(validate_job_name(&long).is_err());
        assert!(validate_job_name("ok-name_1.2").is_ok());
    }

    #[test]
    fn job_start_rejects_zero_cadence_and_bad_spec() {
        let err = Request::decode(
            r#"{"type":"job.start","checkpoint_gens":0,"etc_model":{"tasks":4,"machines":2}}"#,
        )
        .unwrap_err();
        assert!(err.contains("checkpoint_gens"), "{err}");
        // The embedded spec is validated exactly like a schedule request.
        let err = Request::decode(r#"{"type":"job.start"}"#).unwrap_err();
        assert!(err.contains("exactly one"), "{err}");
    }

    #[test]
    fn job_responses_encode_as_single_lines() {
        let job = Response::Job(Box::new(JobStatusBody {
            job: "j1".into(),
            state: "running".into(),
            generations: 12,
            evaluations: 3_072,
            best_makespan: Some(1234.5),
            evals_per_sec: Some(100_000.0),
            eta_s: Some(1.5),
            archived_to: None,
            message: None,
        }));
        let line = job.encode();
        assert!(!line.contains('\n'));
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("job"));
        assert_eq!(v.get("state").unwrap().as_str(), Some("running"));
        assert_eq!(v.get("generations").unwrap().as_u64(), Some(12));
        assert_eq!(v.get("archived_to"), Some(&Json::Null));

        let log = Response::JobLog { job: "j1".into(), lines: vec!["a".into(), "b".into()] };
        let v = Json::parse(&log.encode()).unwrap();
        assert_eq!(v.get("lines").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn job_list_decodes_and_encodes() {
        assert_eq!(Request::decode(r#"{"type":"job.list"}"#).unwrap(), Request::JobList);
        let r = Response::JobList {
            jobs: vec![JobListEntry {
                job: "j1".into(),
                state: "archived".into(),
                live: false,
                generations: 7,
                evaluations: 700,
                best_makespan: Some(9.5),
                archived_date: Some("2026-08-08".into()),
            }],
        };
        let v = Json::parse(&r.encode()).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("job_list"));
        let rows = v.get("jobs").unwrap().as_arr().unwrap();
        assert_eq!(rows[0].get("archived_date").unwrap().as_str(), Some("2026-08-08"));
        assert_eq!(rows[0].get("live").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn stream_open_decodes_with_defaults() {
        let line = r#"{"type":"stream.open","etc":[[1,2],[3,4],[5,6]],"evals":500}"#;
        match Request::decode(line).unwrap() {
            Request::StreamOpen(o) => {
                assert_eq!(o.session, None);
                assert!(!o.resume);
                assert_eq!(o.baseline, None);
                assert_eq!(o.grid_side, 8);
                let spec = o.spec.expect("fresh open carries a spec");
                assert_eq!(spec.termination, Termination::Evaluations(500));
            }
            other => panic!("expected stream.open, got {other:?}"),
        }
    }

    #[test]
    fn stream_open_validates_session_resume_and_budget() {
        // Resume without a session name.
        let err = Request::decode(r#"{"type":"stream.open","resume":true}"#).unwrap_err();
        assert!(err.contains("session"), "{err}");
        // Resume with an instance source.
        let err = Request::decode(
            r#"{"type":"stream.open","session":"s1","resume":true,"braun":"u_c_hihi.0"}"#,
        )
        .unwrap_err();
        assert!(err.contains("persisted session"), "{err}");
        // Resume proper: no spec.
        match Request::decode(r#"{"type":"stream.open","session":"s1","resume":true}"#).unwrap() {
            Request::StreamOpen(o) => {
                assert_eq!(o.session.as_deref(), Some("s1"));
                assert!(o.resume && o.spec.is_none());
            }
            other => panic!("{other:?}"),
        }
        // Streams budget in evaluations only, single-threaded only.
        let err = Request::decode(r#"{"type":"stream.open","etc":[[1,2]],"gens":5}"#).unwrap_err();
        assert!(err.contains("evals"), "{err}");
        let err =
            Request::decode(r#"{"type":"stream.open","etc":[[1,2]],"threads":2}"#).unwrap_err();
        assert!(err.contains("single-threaded"), "{err}");
        // Bad session alphabet and bad baseline.
        assert!(
            Request::decode(r#"{"type":"stream.open","session":"../x","etc":[[1,2]]}"#).is_err()
        );
        let err = Request::decode(r#"{"type":"stream.open","etc":[[1,2]],"baseline":"frob"}"#)
            .unwrap_err();
        assert!(err.contains("unknown baseline"), "{err}");
        // Known baseline accepted.
        match Request::decode(r#"{"type":"stream.open","etc":[[1,2]],"baseline":"min-min"}"#)
            .unwrap()
        {
            Request::StreamOpen(o) => assert_eq!(o.baseline.as_deref(), Some("min-min")),
            other => panic!("{other:?}"),
        }
        // Grid bounds.
        assert!(Request::decode(r#"{"type":"stream.open","etc":[[1,2]],"grid":1}"#).is_err());
        assert!(Request::decode(r#"{"type":"stream.open","etc":[[1,2]],"grid":33}"#).is_err());
    }

    #[test]
    fn stream_event_kinds_decode() {
        let ev = |line: &str| match Request::decode(line).unwrap() {
            Request::StreamEvent(e) => *e,
            other => panic!("expected stream.event, got {other:?}"),
        };
        let e =
            ev(r#"{"type":"stream.event","seq":0,"event":{"kind":"machine.down","machine":3}}"#);
        assert_eq!(e.seq, Some(0));
        assert_eq!(e.event, Ok(GridEvent::MachineDown { machine: 3 }));
        let e = ev(r#"{"type":"stream.event","seq":1,"event":{"kind":"machine.up","machine":3}}"#);
        assert_eq!(e.event, Ok(GridEvent::MachineUp { machine: 3 }));
        let e = ev(
            r#"{"type":"stream.event","seq":2,"event":{"kind":"etc.drift","epsilon":0.25,"seed":7}}"#,
        );
        assert_eq!(e.event, Ok(GridEvent::EtcDrift { epsilon: 0.25, seed: 7 }));
        let e = ev(
            r#"{"type":"stream.event","seq":3,"event":{"kind":"etc.drift","deltas":[[0,1,1.5]]}}"#,
        );
        assert_eq!(
            e.event,
            Ok(GridEvent::EtcDeltas {
                deltas: vec![EtcDelta { task: 0, machine: 1, factor: 1.5 }]
            })
        );
        let e = ev(r#"{"type":"stream.event","seq":4,"event":{"kind":"task.arrive","etc":[1,2]}}"#);
        assert_eq!(e.event, Ok(GridEvent::TaskArrive { etc: vec![1.0, 2.0] }));
        let e = ev(r#"{"type":"stream.event","seq":5,"event":{"kind":"task.cancel","task":9}}"#);
        assert_eq!(e.event, Ok(GridEvent::TaskCancel { task: 9 }));
    }

    #[test]
    fn malformed_stream_events_decode_into_typed_payloads() {
        // The *request* decodes fine; the error rides in `event` so the
        // session can answer stream_error and stay alive.
        let cases = [
            (r#"{"type":"stream.event","seq":1}"#, "\"event\" object"),
            (r#"{"type":"stream.event","seq":1,"event":{}}"#, "kind"),
            (r#"{"type":"stream.event","seq":1,"event":{"kind":"frob"}}"#, "unknown event kind"),
            (r#"{"type":"stream.event","seq":1,"event":{"kind":"machine.down"}}"#, "machine"),
            (r#"{"type":"stream.event","seq":1,"event":{"kind":"etc.drift"}}"#, "epsilon"),
            (
                r#"{"type":"stream.event","seq":1,"event":{"kind":"etc.drift","deltas":[[1,2]]}}"#,
                "deltas[0]",
            ),
            (
                r#"{"type":"stream.event","seq":1,"event":{"kind":"etc.drift","deltas":[]}}"#,
                "empty",
            ),
            (r#"{"type":"stream.event","seq":1,"event":{"kind":"task.arrive"}}"#, "etc"),
            (r#"{"type":"stream.event","seq":1,"event":{"kind":"task.cancel"}}"#, "task"),
            (r#"{"type":"stream.event","seq":1,"event":"nope"}"#, "must be an object"),
        ];
        for (line, needle) in cases {
            match Request::decode(line).unwrap() {
                Request::StreamEvent(e) => {
                    assert_eq!(e.seq, Some(1), "{line}");
                    let err = e.event.unwrap_err();
                    assert!(err.contains(needle), "{line}: {err}");
                }
                other => panic!("{line}: expected stream.event, got {other:?}"),
            }
        }
        // A malformed seq is carried too (as None), never a decode error.
        match Request::decode(
            r#"{"type":"stream.event","seq":"x","event":{"kind":"machine.up","machine":0}}"#,
        )
        .unwrap()
        {
            Request::StreamEvent(e) => {
                assert_eq!(e.seq, None);
                assert!(e.event.is_err());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stream_responses_encode_as_single_lines() {
        let responses = vec![
            Response::StreamOpened(Box::new(StreamOpenedBody {
                session: Some("s1".into()),
                resumed: true,
                instance: "toy".into(),
                n_tasks: 8,
                n_machines: 4,
                alive: 3,
                down: vec![2],
                makespan: 12.0,
                next_seq: 5,
            })),
            Response::StreamResult(Box::new(StreamResultBody {
                seq: 5,
                kind: "machine.down".into(),
                n_tasks: 8,
                n_machines: 4,
                alive: 2,
                down: vec![1, 3],
                makespan_before: 12.0,
                repair_makespan: 15.0,
                makespan: 13.0,
                recovery_ms: 4.2,
                cold_ms: 3.9,
                recovery_evals: 320,
                budget_evals: 1000,
                cold_makespan: 13.5,
                delta_vs_cold: -0.5,
                warm_beats_cold: true,
                baseline: Some("min-min".into()),
                baseline_makespan: Some(14.0),
                assignment: Some(vec![0, 2, 0, 2, 2, 0, 0, 2]),
            })),
            Response::StreamError {
                code: "out_of_order".into(),
                message: "expected seq 5".into(),
                expected_seq: Some(5),
            },
            Response::StreamClosed(Box::new(StreamSummaryBody {
                session: None,
                events: 6,
                rejected: 2,
                warm_wins: 5,
                warm_losses: 1,
                mean_evals_saved: 512.0,
                best_makespan: 11.0,
                recovery_p50_ms: Some(3.0),
                recovery_p99_ms: Some(9.0),
            })),
        ];
        for r in responses {
            let line = r.encode();
            assert!(!line.contains('\n'), "{line}");
            let v = Json::parse(&line).unwrap();
            let ty = v.get("type").unwrap().as_str().unwrap().to_string();
            assert!(ty.starts_with("stream_"), "{line}");
        }
        // Anonymous stream_result omits baseline/assignment fields.
        let bare = Response::StreamResult(Box::new(StreamResultBody {
            seq: 0,
            kind: "etc.drift".into(),
            n_tasks: 2,
            n_machines: 2,
            alive: 2,
            down: vec![],
            makespan_before: 1.0,
            repair_makespan: 1.0,
            makespan: 1.0,
            recovery_ms: 0.1,
            cold_ms: 0.1,
            recovery_evals: 0,
            budget_evals: 10,
            cold_makespan: 1.0,
            delta_vs_cold: 0.0,
            warm_beats_cold: true,
            baseline: None,
            baseline_makespan: None,
            assignment: None,
        }));
        let v = Json::parse(&bare.encode()).unwrap();
        assert!(v.get("baseline").is_none());
        assert!(v.get("assignment").is_none());
        // stream.close decodes.
        assert_eq!(Request::decode(r#"{"type":"stream.close"}"#).unwrap(), Request::StreamClose);
    }

    #[test]
    fn config_builds_from_request() {
        let r = schedule(
            r#"{"type":"schedule","braun":"u_c_hihi.0","threads":2,"ls":0,"gens":5,"seed":3,"crossover":"opx"}"#,
        );
        let c = r.build_config();
        assert_eq!(c.threads, 2);
        assert!(c.local_search.is_none());
        assert_eq!(c.termination, Termination::Generations(5));
        assert_eq!(c.seed, 3);
        assert_eq!(c.crossover, CrossoverOp::OnePoint);
    }

    /// The tree rendering [`Response::encode`] replaced, kept as its
    /// oracle: the head object with the assignment pushed as one
    /// `Json::Num` per gene.
    fn tree_json(r: &Response) -> Json {
        let mut v = r.head_json();
        if let (Json::Obj(fields), Some(genes)) = (&mut v, r.assignment()) {
            let genes = genes.iter().map(|&m| Json::num(m as f64)).collect();
            fields.push(("assignment".into(), Json::Arr(genes)));
        }
        v
    }

    /// The answers the golden lines pin: every `id` escape the writer
    /// has, an assignment absent, empty and holding `u32::MAX`,
    /// fractional and integral times, and `stream_result`s with and
    /// without a baseline.
    fn pinned_answers() -> Vec<Response> {
        let result =
            |id: Option<&str>, makespan: f64, engine_ms: f64, assignment| Response::Result {
                id: id.map(str::to_string),
                instance: "u_c_hihi.0".into(),
                n_tasks: 512,
                n_machines: 16,
                makespan,
                evaluations: 20_000,
                engine_ms,
                cached: id.is_some(),
                coalesced: makespan.fract() == 0.0,
                assignment,
            };
        let stream = |baseline: Option<&str>, baseline_makespan, assignment| {
            Response::StreamResult(Box::new(StreamResultBody {
                seq: 7,
                kind: "machine.down".into(),
                n_tasks: 4,
                n_machines: 3,
                alive: 2,
                down: vec![1],
                makespan_before: 10.0,
                repair_makespan: 12.75,
                makespan: 11.5,
                recovery_ms: 0.375,
                cold_ms: 2.0,
                recovery_evals: 96,
                budget_evals: 512,
                cold_makespan: 11.5,
                delta_vs_cold: -0.0,
                warm_beats_cold: true,
                baseline: baseline.map(str::to_string),
                baseline_makespan,
                assignment,
            }))
        };
        vec![
            result(None, 7_813_622.5, 142.0, None),
            result(Some("quo\"te"), 12.0, 0.125, Some(vec![])),
            result(Some("back\\slash"), 3.5e-7, 1e21, Some(vec![0, 1, 15, u32::MAX])),
            result(Some("ctl\u{1}\t\n\r\u{1f}"), 1e-3, 2.5, Some(vec![10, 9, 100, 1000])),
            result(Some("caf\u{e9} \u{2192} \u{65e5}\u{672c}"), 9e15, 0.0, Some(vec![3; 5])),
            stream(Some("min-min"), Some(101.25), Some(vec![2, 0, 2, u32::MAX])),
            stream(Some("mct"), None, None),
            stream(None, None, Some(vec![])),
        ]
    }

    /// [`pinned_answers`] as the tree rendering spelled them.
    const PINNED_LINES: [&str; 8] = [
        r#"{"type":"result","id":null,"instance":"u_c_hihi.0","n_tasks":512,"n_machines":16,"makespan":7813622.5,"evaluations":20000,"engine_ms":142,"cached":false,"coalesced":false}"#,
        r#"{"type":"result","id":"quo\"te","instance":"u_c_hihi.0","n_tasks":512,"n_machines":16,"makespan":12,"evaluations":20000,"engine_ms":0.125,"cached":true,"coalesced":true,"assignment":[]}"#,
        r#"{"type":"result","id":"back\\slash","instance":"u_c_hihi.0","n_tasks":512,"n_machines":16,"makespan":0.00000035,"evaluations":20000,"engine_ms":1000000000000000000000,"cached":true,"coalesced":false,"assignment":[0,1,15,4294967295]}"#,
        r#"{"type":"result","id":"ctl\u0001\t\n\r\u001f","instance":"u_c_hihi.0","n_tasks":512,"n_machines":16,"makespan":0.001,"evaluations":20000,"engine_ms":2.5,"cached":true,"coalesced":false,"assignment":[10,9,100,1000]}"#,
        r#"{"type":"result","id":"café → 日本","instance":"u_c_hihi.0","n_tasks":512,"n_machines":16,"makespan":9000000000000000,"evaluations":20000,"engine_ms":0,"cached":true,"coalesced":true,"assignment":[3,3,3,3,3]}"#,
        r#"{"type":"stream_result","seq":7,"kind":"machine.down","n_tasks":4,"n_machines":3,"alive":2,"down":[1],"makespan_before":10,"repair_makespan":12.75,"makespan":11.5,"recovery_ms":0.375,"cold_ms":2,"recovery_evals":96,"budget_evals":512,"cold_makespan":11.5,"delta_vs_cold":0,"warm_beats_cold":true,"baseline":"min-min","baseline_makespan":101.25,"assignment":[2,0,2,4294967295]}"#,
        r#"{"type":"stream_result","seq":7,"kind":"machine.down","n_tasks":4,"n_machines":3,"alive":2,"down":[1],"makespan_before":10,"repair_makespan":12.75,"makespan":11.5,"recovery_ms":0.375,"cold_ms":2,"recovery_evals":96,"budget_evals":512,"cold_makespan":11.5,"delta_vs_cold":0,"warm_beats_cold":true,"baseline":"mct"}"#,
        r#"{"type":"stream_result","seq":7,"kind":"machine.down","n_tasks":4,"n_machines":3,"alive":2,"down":[1],"makespan_before":10,"repair_makespan":12.75,"makespan":11.5,"recovery_ms":0.375,"cold_ms":2,"recovery_evals":96,"budget_evals":512,"cold_makespan":11.5,"delta_vs_cold":0,"warm_beats_cold":true,"assignment":[]}"#,
    ];

    #[test]
    fn answer_pins_golden_lines() {
        let answers = pinned_answers();
        assert_eq!(answers.len(), PINNED_LINES.len());
        for (r, want) in answers.iter().zip(PINNED_LINES) {
            assert_eq!(r.encode(), want);
            assert_eq!(tree_json(r).to_string(), want);
        }
    }

    #[test]
    fn answer_pins_match_the_tree_rendering_on_random_answers() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x414E_5357);
        const CHARS: [char; 10] = ['a', '7', '"', '\\', '\n', '\u{1}', '\u{7f}', 'é', '→', '😀'];
        let text = |rng: &mut SmallRng| -> String {
            (0..rng.gen_range(0..12usize)).map(|_| CHARS[rng.gen_range(0..CHARS.len())]).collect()
        };
        let time = |rng: &mut SmallRng| -> f64 {
            match rng.gen_range(0..4u32) {
                0 => rng.gen_range(0..10_000_000u64) as f64,
                1 => rng.gen::<f64>() * 1e7,
                2 => rng.gen::<f64>() * 1e-6,
                // Any positive bit pattern: subnormals, 1e300, ∞ and NaN.
                _ => f64::from_bits(rng.gen::<u64>() >> 1),
            }
        };
        let genes = |rng: &mut SmallRng| -> Option<Vec<u32>> {
            let len = rng.gen_range(0..600usize);
            let top = [2, 16, 1 << 20, u32::MAX][rng.gen_range(0..4usize)];
            let gene = |rng: &mut SmallRng| {
                if rng.gen_bool(0.02) {
                    u32::MAX
                } else {
                    rng.gen_range(0..=top)
                }
            };
            rng.gen_bool(0.8).then(|| (0..len).map(|_| gene(rng)).collect())
        };
        for k in 0..1_500 {
            let r = if k % 3 < 2 {
                Response::Result {
                    id: rng.gen_bool(0.7).then(|| text(&mut rng)),
                    instance: text(&mut rng),
                    n_tasks: rng.gen_range(0..5_000usize),
                    n_machines: rng.gen_range(0..300usize),
                    makespan: time(&mut rng),
                    evaluations: rng.gen::<u64>() >> rng.gen_range(11..64u32),
                    engine_ms: time(&mut rng),
                    cached: rng.gen(),
                    coalesced: rng.gen(),
                    assignment: genes(&mut rng),
                }
            } else {
                Response::StreamResult(Box::new(StreamResultBody {
                    seq: rng.gen_range(0..1_000u64),
                    kind: text(&mut rng),
                    n_tasks: rng.gen_range(0..600usize),
                    n_machines: rng.gen_range(1..20usize),
                    alive: rng.gen_range(0..20usize),
                    down: (0..rng.gen_range(0..4usize))
                        .map(|_| rng.gen_range(0..20usize))
                        .collect(),
                    makespan_before: time(&mut rng),
                    repair_makespan: time(&mut rng),
                    makespan: time(&mut rng),
                    recovery_ms: time(&mut rng),
                    cold_ms: time(&mut rng),
                    recovery_evals: rng.gen_range(0..100_000u64),
                    budget_evals: rng.gen_range(0..100_000u64),
                    cold_makespan: time(&mut rng),
                    delta_vs_cold: time(&mut rng) - time(&mut rng),
                    warm_beats_cold: rng.gen(),
                    baseline: rng.gen_bool(0.5).then(|| text(&mut rng)),
                    baseline_makespan: rng.gen_bool(0.5).then(|| time(&mut rng)),
                    assignment: genes(&mut rng),
                }))
            };
            assert_eq!(r.encode(), tree_json(&r).to_string(), "answer {k}");
        }
    }
}
