//! Subcommand implementations. Each returns the rendered output so the
//! tests can assert on it; `main` just prints.

use crate::args::{ArgError, Args};
use etc_model::io::{read_instance, write_instance};
use etc_model::{
    blazewicz_notation, braun_instance, braun_instance_names, Consistency, EtcGenerator,
    EtcInstance, GeneratorParams, Heterogeneity,
};
use heuristics::Heuristic;
use pa_cga_core::config::{PaCgaConfig, Termination};
use pa_cga_core::crossover::CrossoverOp;
use pa_cga_core::engine::PaCga;
use pa_cga_stats::Table;
use std::fs::File;
use std::io::{BufReader, BufWriter};

/// Top-level CLI error.
#[derive(Debug)]
pub enum CliError {
    /// Flag parsing problem.
    Args(ArgError),
    /// I/O problem.
    Io(std::io::Error),
    /// Anything else (bad names, bad combinations).
    Other(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "{e}"),
            CliError::Other(m) => f.write_str(m),
        }
    }
}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// Usage text.
pub const USAGE: &str = "\
pacga — PA-CGA grid scheduling toolkit

USAGE:
  pacga generate --tasks N --machines M [--consistency c|s|i]
                 [--task-het hi|lo] [--machine-het hi|lo] [--seed S]
                 [--name NAME] [--out FILE]
  pacga info     (--braun NAME | --instance FILE)
  pacga schedule (--braun NAME | --instance FILE)
                 [--heuristic olb|met|mct|min-min|max-min|sufferage]
                 [--threads N] [--time-ms T | --evals E] [--seed S]
                 [--crossover opx|tpx|ux] [--ls N] [--out FILE]
  pacga heuristics (--braun NAME | --instance FILE)
  pacga simulate (--braun NAME | --instance FILE)
                 [--p-fail P] [--seed S] [--evals E]
                 [--policy mct|pa-cga]
  pacga sweep    (--braun NAME[,NAME...] | --all) [--runs N]
                 [--time-ms T | --evals E | --gens G] [--threads N]
                 [--ls N] [--crossover opx|tpx|ux] [--seed S]
                 [--workers W]
  pacga serve    [--addr HOST:PORT] [--workers W] [--queue-cap Q]
                 [--cache-cap C] [--batch-max B] [--data-dir DIR]
                 [--checkpoint-gens N] [--archive-keep-days D]
                 [--corpus FILE.pacst]
  pacga corpus   build [--braun] [--large] [--out FILE.pacst]
  pacga corpus   (ls|verify) --corpus FILE.pacst
  pacga bench-serve [--addr HOST:PORT] [--clients N] [--requests M]
                 [--evals E] [--seed S] [--distinct D] [--tasks N]
                 [--machines M] [--shutdown] [--timeout MS]
                 [--retries R]
  pacga chaos    [--addr HOST:PORT] [--storm burst|flap|drift|mixed]
                 [--events N] [--evals E] [--seed S] [--tasks N]
                 [--machines M] [--grid G] [--session NAME] [--resume]
                 [--reschedule-baseline H] [--no-probes]
                 [--assert-warm-wins] [--shutdown] [--timeout MS]
  pacga job start --braun NAME [--job NAME] [--checkpoint-gens N]
                 [--evals E | --gens G | --time-ms T] [--seed S]
                 [--threads N] [--ls N] [--crossover opx|tpx|ux]
  pacga job (status|log|stop|archive) --job NAME [--tail N]
  pacga job list
     (all job verbs also take [--addr HOST:PORT] [--timeout MS]
      [--retries R])
  pacga list

`sweep` runs the full replication protocol (N independent seeds per
instance) through the portfolio worker pool and prints per-instance
makespan statistics. --braun accepts prefixes: `u_c_hihi` expands to
every registry instance starting with it.

`serve` runs the batching scheduler daemon: a TCP JSON-lines protocol
(one request object per line — see README \"The scheduling daemon\")
with request batching, an instance-digest result cache, bounded-queue
backpressure and graceful drain on a `shutdown` request. `bench-serve`
is the matching load generator; with --shutdown it drains the daemon
when done.

With --data-dir, `serve` also runs the durable job manager: `pacga job
start` submits a named crash-safe run that checkpoints every N
generations and survives daemon restarts (see README \"Durable jobs\").
`pacga job list` shows live and archived jobs; --archive-keep-days
prunes archive buckets older than D days at daemon boot.

`corpus` manages the binary `.pacst` instance/result store (on-disk
layout in FORMAT.md): `build` pre-generates the Braun 512×16 grid
(--braun) and/or the large 4096×64 classes (--large); `ls` and `verify`
inspect and integrity-check a store. `serve --corpus FILE` warm-loads
the result cache from the store at boot — previously answered digests
are cache hits with zero engine evaluations — and persists the cache
back into the store on drain.

`chaos` drives a seeded fault-injection storm through a schedule-stream
session on the daemon and checks the dynamic-rescheduling invariants
after every event (see README \"Dynamic rescheduling\"). With --session
(against a --data-dir daemon) the session survives daemon kills and
--resume continues it.
";

/// Loads an instance from `--braun NAME` or `--instance FILE`.
fn load_instance(args: &Args) -> Result<EtcInstance, CliError> {
    match (args.get("braun"), args.get("instance")) {
        (Some(name), None) => {
            if !braun_instance_names().contains(&name) {
                return Err(CliError::Other(format!(
                    "unknown Braun instance {name:?}; try `pacga list`"
                )));
            }
            Ok(braun_instance(name))
        }
        (None, Some(path)) => {
            let file = File::open(path)?;
            read_instance(BufReader::new(file))
                .map_err(|e| CliError::Other(format!("cannot read {path}: {e}")))
        }
        _ => Err(CliError::Other("need exactly one of --braun or --instance".into())),
    }
}

/// `pacga list` — the 12 registry instances.
pub fn cmd_list() -> String {
    let mut out = String::from("Braun benchmark registry (regenerated deterministically):\n");
    for name in braun_instance_names() {
        out.push_str("  ");
        out.push_str(name);
        out.push('\n');
    }
    out
}

/// `pacga generate`.
pub fn cmd_generate(args: &Args) -> Result<String, CliError> {
    let n_tasks = args.get_parse("tasks", 512usize, "usize")?;
    let n_machines = args.get_parse("machines", 16usize, "usize")?;
    let consistency: Consistency =
        args.get("consistency").unwrap_or("i").parse().map_err(CliError::Other)?;
    let parse_het = |v: Option<&str>| -> Result<Heterogeneity, CliError> {
        v.unwrap_or("hi").parse().map_err(CliError::Other)
    };
    let params = GeneratorParams {
        n_tasks,
        n_machines,
        task_heterogeneity: parse_het(args.get("task-het"))?,
        machine_heterogeneity: parse_het(args.get("machine-het"))?,
        consistency,
        seed: args.get_parse("seed", 0u64, "u64")?,
    };
    let name = args.get("name").map(String::from).unwrap_or_else(|| params.braun_name(0));
    let instance = EtcGenerator::new(params).generate_named(name);

    let mut out = format!("generated {}: {}\n", instance.name(), blazewicz_notation(&instance));
    if let Some(path) = args.get("out") {
        let file = File::create(path)?;
        write_instance(&mut BufWriter::new(file), &instance)?;
        out.push_str(&format!("written to {path}\n"));
    } else {
        out.push_str("(no --out given; nothing written)\n");
    }
    Ok(out)
}

/// `pacga info`.
pub fn cmd_info(args: &Args) -> Result<String, CliError> {
    let instance = load_instance(args)?;
    let class = etc_model::consistency::classify(instance.etc());
    let degree = etc_model::consistency::consistency_degree(instance.etc());
    Ok(format!(
        "name        : {}\nsize        : {} tasks × {} machines\nnotation    : {}\nconsistency : {class} (degree {degree:.3})\netc range   : {}\n",
        instance.name(),
        instance.n_tasks(),
        instance.n_machines(),
        blazewicz_notation(&instance),
        instance.etc_range(),
    ))
}

/// `pacga heuristics`.
pub fn cmd_heuristics(args: &Args) -> Result<String, CliError> {
    let instance = load_instance(args)?;
    let mut table = Table::new(&["heuristic", "makespan"]);
    for (h, s) in Heuristic::all().into_iter().zip(heuristics::cohort(&instance)) {
        table.row(&[h.name().to_string(), format!("{:.1}", s.makespan())]);
    }
    Ok(format!("{} ({})\n\n{}", instance.name(), blazewicz_notation(&instance), table.render()))
}

/// `pacga schedule`.
pub fn cmd_schedule(args: &Args) -> Result<String, CliError> {
    let instance = load_instance(args)?;

    let (schedule, detail) = if let Some(hname) = args.get("heuristic") {
        let h = Heuristic::all()
            .into_iter()
            .find(|h| h.name() == hname)
            .ok_or_else(|| CliError::Other(format!("unknown heuristic {hname:?}")))?;
        (h.schedule(&instance), format!("heuristic {hname}"))
    } else {
        let termination = if let Some(e) = args.get("evals") {
            Termination::Evaluations(
                e.parse()
                    .map_err(|_| CliError::Other(format!("--evals: cannot parse {e:?} as u64")))?,
            )
        } else {
            Termination::wall_time_ms(args.get_parse("time-ms", 2_000u64, "u64")?)
        };
        let crossover = args.get("crossover").unwrap_or("tpx");
        let crossover = CrossoverOp::from_name(crossover)
            .ok_or_else(|| CliError::Other(format!("bad crossover {crossover:?}")))?;
        let config = PaCgaConfig::builder()
            .threads(args.get_parse("threads", 3usize, "usize")?)
            .crossover(crossover)
            .local_search_iterations(args.get_parse("ls", 10usize, "usize")?)
            .termination(termination)
            .seed(args.get_parse("seed", 0u64, "u64")?)
            .build();
        let summary = config.summary();
        let outcome = PaCga::new(&instance, config).run();
        let detail = format!(
            "PA-CGA [{summary}]\nevaluations {} | generations {:?} | elapsed {:.2}s",
            outcome.evaluations,
            outcome.generations,
            outcome.elapsed.as_secs_f64()
        );
        (outcome.best.schedule, detail)
    };

    let mut out = format!(
        "{} ({})\n{detail}\nmakespan : {:.1}\nflowtime : {:.4e}\nutilization : {:.3}\n",
        instance.name(),
        blazewicz_notation(&instance),
        schedule.makespan(),
        scheduling::flowtime(&instance, &schedule),
        scheduling::utilization(&schedule),
    );
    if let Some(path) = args.get("out") {
        use std::io::Write;
        let mut file = BufWriter::new(File::create(path)?);
        for (t, &m) in schedule.assignment().iter().enumerate() {
            writeln!(file, "{t} {m}")?;
        }
        out.push_str(&format!("assignment written to {path}\n"));
    }
    Ok(out)
}

/// `pacga simulate` — optimize, then execute under machine failures.
pub fn cmd_simulate(args: &Args) -> Result<String, CliError> {
    use grid_sim::{FailureTrace, MctRescheduler, PaCgaRescheduler, Rescheduler, Simulator};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    let instance = load_instance(args)?;
    let seed = args.get_parse("seed", 0u64, "u64")?;
    let p_fail = args.get_parse("p-fail", 0.2f64, "f64")?;
    if !(0.0..=1.0).contains(&p_fail) {
        return Err(CliError::Other(format!("--p-fail {p_fail} outside [0, 1]")));
    }
    let evals = args.get_parse("evals", 20_000u64, "u64")?;

    let config = PaCgaConfig::builder()
        .threads(1)
        .termination(Termination::Evaluations(evals))
        .seed(seed)
        .build();
    let schedule = PaCga::new(&instance, config).run().best.schedule;

    let mut rng = SmallRng::seed_from_u64(seed ^ 0x51_D0_0D);
    let horizon = schedule.makespan() * 0.7;
    let failures = FailureTrace::sample(instance.n_machines(), p_fail, horizon, &mut rng);

    let policy_name = args.get("policy").unwrap_or("mct");
    let mct = MctRescheduler;
    let pa = PaCgaRescheduler { seed, ..Default::default() };
    let policy: &dyn Rescheduler = match policy_name {
        "mct" => &mct,
        "pa-cga" => &pa,
        other => return Err(CliError::Other(format!("unknown policy {other:?} (mct|pa-cga)"))),
    };
    let report = Simulator::with_failures(&instance, failures.clone()).run(&schedule, policy);
    report.validate().map_err(CliError::Other)?;

    Ok(format!(
        "{} ({})\nstatic makespan   : {:.1}\nfailures          : {:?}\nrescheduler       : {}\nsimulated makespan: {:.1} ({:+.2}%)\nlost work         : {:.1}\nretried tasks     : {}\nreschedule rounds : {}\n",
        instance.name(),
        blazewicz_notation(&instance),
        schedule.makespan(),
        failures.events().iter().map(|&(m, t)| (m, t.round())).collect::<Vec<_>>(),
        policy.name(),
        report.makespan,
        100.0 * (report.makespan / schedule.makespan() - 1.0),
        report.lost_work,
        report.retried_tasks(),
        report.reschedules,
    ))
}

/// Resolves the `sweep` instance list: `--all`, or comma-separated
/// names/prefixes from `--braun` (a prefix expands to every registry
/// instance starting with it).
fn sweep_instances(args: &Args) -> Result<Vec<&'static str>, CliError> {
    if args.get_bool("all")? {
        return Ok(braun_instance_names());
    }
    let Some(spec) = args.get("braun") else {
        return Err(CliError::Other("need --braun NAME[,NAME...] or --all".into()));
    };
    let registry = braun_instance_names();
    // Order-preserving dedup: tokens may overlap non-adjacently
    // (`u_c_lolo.0,u_c` expands to u_c_lolo.0 twice).
    let mut names: Vec<&'static str> = Vec::new();
    let push_unique = |names: &mut Vec<&'static str>, name| {
        if !names.contains(&name) {
            names.push(name);
        }
    };
    for token in spec.split(',').filter(|t| !t.is_empty()) {
        if let Some(&exact) = registry.iter().find(|&&n| n == token) {
            push_unique(&mut names, exact);
            continue;
        }
        let matches: Vec<&'static str> =
            registry.iter().copied().filter(|n| n.starts_with(token)).collect();
        if matches.is_empty() {
            return Err(CliError::Other(format!(
                "no Braun instance matches {token:?}; try `pacga list`"
            )));
        }
        for name in matches {
            push_unique(&mut names, name);
        }
    }
    Ok(names)
}

/// `pacga sweep` — replication sweep over instances × seeds through the
/// portfolio runner, reporting per-instance makespan statistics.
pub fn cmd_sweep(args: &Args) -> Result<String, CliError> {
    use pa_cga_core::runner::{resolve_workers, Portfolio, RunSpec};
    use pa_cga_stats::table::{fmt_makespan, fmt_mean_std};
    use pa_cga_stats::Descriptive;

    let names = sweep_instances(args)?;
    let runs = args.get_parse("runs", 8u64, "u64")?;
    if runs == 0 {
        return Err(CliError::Other("--runs must be positive".into()));
    }
    let seed0 = args.get_parse("seed", 0u64, "u64")?;
    let threads = args.get_parse("threads", 1usize, "usize")?;
    let ls = args.get_parse("ls", 10usize, "usize")?;
    let crossover = args.get("crossover").unwrap_or("tpx");
    let crossover = CrossoverOp::from_name(crossover)
        .ok_or_else(|| CliError::Other(format!("bad crossover {crossover:?}")))?;
    let termination = match (args.get("evals"), args.get("gens"), args.get("time-ms")) {
        (Some(e), None, None) => Termination::Evaluations(
            e.parse().map_err(|_| CliError::Other(format!("--evals: cannot parse {e:?}")))?,
        ),
        (None, Some(g), None) => Termination::Generations(
            g.parse().map_err(|_| CliError::Other(format!("--gens: cannot parse {g:?}")))?,
        ),
        (None, None, maybe_t) => {
            let default = 1_000u64;
            let t = match maybe_t {
                Some(t) => t
                    .parse()
                    .map_err(|_| CliError::Other(format!("--time-ms: cannot parse {t:?}")))?,
                None => default,
            };
            Termination::wall_time_ms(t)
        }
        _ => return Err(CliError::Other("give at most one of --evals, --gens, --time-ms".into())),
    };
    let workers = match args.get("workers") {
        Some(w) => Some(
            w.parse::<usize>()
                .ok()
                .filter(|&w| w > 0)
                .ok_or_else(|| CliError::Other(format!("--workers: bad count {w:?}")))?,
        ),
        None => None,
    };

    let instances: Vec<EtcInstance> = names.iter().map(|n| braun_instance(n)).collect();
    let mut portfolio = Portfolio::new();
    for instance in &instances {
        for i in 0..runs {
            let config = PaCgaConfig::builder()
                .threads(threads)
                .local_search_iterations(ls)
                .crossover(crossover)
                .termination(termination)
                .seed(seed0 + i)
                .build();
            portfolio.push(RunSpec::new(
                format!("{}/s{}", instance.name(), seed0 + i),
                PaCga::new(instance, config),
            ));
        }
    }
    if let Some(w) = workers {
        portfolio = portfolio.with_workers(w);
    }
    let resolved = resolve_workers(workers, portfolio.len());
    let total = portfolio.len();
    let mut out = format!(
        "sweep: {} instance(s) × {runs} run(s) = {total} jobs on {resolved} worker(s)\n\
         stop: {termination}; {threads} engine thread(s)/run, H2LL×{ls}, seeds {seed0}..{}\n\n",
        names.len(),
        seed0 + runs
    );

    let report = portfolio.execute();
    if let Some((_, label, panic)) = report.failures().first() {
        return Err(CliError::Other(format!("sweep run {label} failed: {panic}")));
    }

    let mut table = Table::new(&["instance", "runs", "best", "mean ± std", "worst", "mean evals"]);
    for (instance, chunk) in instances.iter().zip(report.results.chunks(runs as usize)) {
        let best: Vec<f64> = chunk
            .iter()
            .map(|r| r.as_ref().expect("failures handled above").best.makespan())
            .collect();
        let evals: f64 = chunk
            .iter()
            .map(|r| r.as_ref().expect("failures handled above").evaluations as f64)
            .sum::<f64>()
            / chunk.len() as f64;
        let d = Descriptive::from_sample(&best);
        table.row(&[
            instance.name().to_string(),
            chunk.len().to_string(),
            fmt_makespan(d.min),
            fmt_mean_std(d.mean, d.std_dev),
            fmt_makespan(d.max),
            format!("{evals:.0}"),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nportfolio: {total} runs in {:.2}s ({:.2} runs/s, {} workers)\n",
        report.elapsed.as_secs_f64(),
        report.runs_per_sec(),
        report.workers,
    ));
    Ok(out)
}

/// `pacga serve` — the batching scheduler daemon. Blocks until a client
/// sends `{"type":"shutdown"}`, then drains and reports.
pub fn cmd_serve(args: &Args) -> Result<String, CliError> {
    use pa_cga_service::{serve, ServeConfig};

    let config = ServeConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:7413").to_string(),
        workers: args.get_parse("workers", 0usize, "usize")?,
        queue_cap: args.get_parse("queue-cap", 64usize, "usize")?,
        cache_cap: args.get_parse("cache-cap", 128usize, "usize")?,
        batch_max: args.get_parse("batch-max", 16usize, "usize")?,
        data_dir: args.get("data-dir").map(String::from),
        checkpoint_gens: args.get_parse("checkpoint-gens", 64u64, "u64")?,
        archive_keep_days: match args.get("archive-keep-days") {
            Some(_) => Some(args.get_parse("archive-keep-days", 0u64, "u64")?),
            None => None,
        },
        corpus: args.get("corpus").map(String::from),
    };
    if config.batch_max == 0 {
        return Err(CliError::Other("--batch-max must be positive".into()));
    }
    if config.checkpoint_gens == 0 {
        return Err(CliError::Other("--checkpoint-gens must be positive".into()));
    }
    let queue_cap = config.queue_cap;
    let cache_cap = config.cache_cap;
    let batch_max = config.batch_max;
    let workers = config.workers;
    let mut jobs_note = match &config.data_dir {
        Some(dir) => format!(", data-dir={dir}"),
        None => String::new(),
    };
    if let Some(corpus) = &config.corpus {
        jobs_note.push_str(&format!(", corpus={corpus}"));
    }
    let handle = serve(config)?;
    // Announce readiness eagerly — `dispatch`'s return value only prints
    // after the daemon exits.
    println!(
        "pacga serve: listening on {} (workers={}, queue-cap={queue_cap}, \
         cache-cap={cache_cap}, batch-max={batch_max}{jobs_note})",
        handle.addr(),
        if workers == 0 { "auto".to_string() } else { workers.to_string() },
    );
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    let summary = handle.join();
    Ok(format!("pacga serve: {summary}\n"))
}

/// Seed base for the large 4096×64 corpus classes; distinct from the
/// Braun registry's `SEED_BASE` so the two families never collide.
const LARGE_SEED_BASE: u64 = 0x9A_2010_4096;

/// `pacga corpus build|ls|verify` — the binary `.pacst` instance/result
/// store behind `pacga serve --corpus` (on-disk layout in FORMAT.md).
pub fn cmd_corpus(verb: &str, args: &Args) -> Result<String, CliError> {
    use pa_cga_service::{StoreBuilder, StoreReader};

    match verb {
        "build" => {
            let braun = args.get_bool("braun")?;
            let large = args.get_bool("large")?;
            if !braun && !large {
                return Err(CliError::Other(
                    "corpus build needs --braun and/or --large to pick instance families".into(),
                ));
            }
            let out = args.get("out").unwrap_or("corpus.pacst").to_string();
            let mut builder = StoreBuilder::new();
            if braun {
                // The full 512×16 consistency×heterogeneity grid.
                for name in braun_instance_names() {
                    builder
                        .add_instance(&braun_instance(name))
                        .map_err(|e| CliError::Other(format!("corpus build {name}: {e}")))?;
                }
            }
            if large {
                // The paper's large classes: 4096×64, high/high
                // heterogeneity, one per consistency class.
                let classes = [
                    ("c", Consistency::Consistent),
                    ("s", Consistency::SemiConsistent),
                    ("i", Consistency::Inconsistent),
                ];
                for (k, (tag, consistency)) in classes.into_iter().enumerate() {
                    let params = GeneratorParams {
                        n_tasks: 4096,
                        n_machines: 64,
                        task_heterogeneity: Heterogeneity::High,
                        machine_heterogeneity: Heterogeneity::High,
                        consistency,
                        seed: LARGE_SEED_BASE + k as u64,
                    };
                    let name = format!("l_{tag}_hihi.4096x64");
                    let instance = EtcGenerator::new(params).generate_named(name.clone());
                    builder
                        .add_instance(&instance)
                        .map_err(|e| CliError::Other(format!("corpus build {name}: {e}")))?;
                }
            }
            let path = std::path::Path::new(&out);
            builder.write(path).map_err(|e| CliError::Other(format!("corpus write {out}: {e}")))?;
            let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            Ok(format!(
                "corpus: wrote {} instance(s) to {out} ({bytes} bytes)\n",
                builder.instance_count()
            ))
        }
        "ls" => {
            let path = args.require("corpus")?;
            let mut reader = StoreReader::open_path(std::path::Path::new(&path))
                .map_err(|e| CliError::Other(format!("corpus {path}: {e}")))?;
            let mut out = format!(
                "{path}: {} bytes, {} instance(s), {} best record(s), {} checkpoint(s)\n",
                reader.file_len(),
                reader.instance_count(),
                reader.best_count(),
                reader.checkpoint_count(),
            );
            let instances =
                reader.instances().map_err(|e| CliError::Other(format!("corpus {path}: {e}")))?;
            for i in &instances {
                out.push_str(&format!(
                    "  inst {:<24} {}x{}\n",
                    i.name(),
                    i.n_tasks(),
                    i.n_machines()
                ));
            }
            let bests =
                reader.bests().map_err(|e| CliError::Other(format!("corpus {path}: {e}")))?;
            for (digest, run) in &bests {
                out.push_str(&format!(
                    "  best {digest:#018x} {} makespan {:.3} ({} evals)\n",
                    run.instance, run.makespan, run.evaluations
                ));
            }
            let checkpoints =
                reader.checkpoints().map_err(|e| CliError::Other(format!("corpus {path}: {e}")))?;
            for (name, payload) in &checkpoints {
                out.push_str(&format!("  ckpt {name} ({} bytes)\n", payload.len()));
            }
            Ok(out)
        }
        "verify" => {
            let path = args.require("corpus")?;
            let mut reader = StoreReader::open_path(std::path::Path::new(&path))
                .map_err(|e| CliError::Other(format!("corpus {path}: {e}")))?;
            let report =
                reader.verify().map_err(|e| CliError::Other(format!("corpus {path}: {e}")))?;
            Ok(format!(
                "corpus {path}: OK — {} instance(s), {} best record(s), {} checkpoint(s), \
                 {} unknown section(s) skipped\n",
                report.instances, report.bests, report.checkpoints, report.unknown_sections
            ))
        }
        other => Err(CliError::Other(format!(
            "unknown corpus verb {other:?}; expected build|ls|verify\n\n{USAGE}"
        ))),
    }
}

/// `pacga bench-serve` — loopback load generator against a running
/// daemon; prints req/s and latency percentiles.
pub fn cmd_bench_serve(args: &Args) -> Result<String, CliError> {
    use pa_cga_service::{run_load, LoadConfig};

    let config = LoadConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:7413").to_string(),
        clients: args.get_parse("clients", 4usize, "usize")?,
        requests: args.get_parse("requests", 25usize, "usize")?,
        evals: args.get_parse("evals", 1_000u64, "u64")?,
        seed: args.get_parse("seed", 0u64, "u64")?,
        distinct: args.get_parse("distinct", 4usize, "usize")?,
        tasks: args.get_parse("tasks", 64usize, "usize")?,
        machines: args.get_parse("machines", 8usize, "usize")?,
        shutdown_after: args.get_bool("shutdown")?,
        timeout_ms: args.get_parse("timeout", 0u64, "u64")?,
        retries: args.get_parse("retries", 0u32, "u32")?,
    };
    if config.clients == 0 || config.requests == 0 {
        return Err(CliError::Other("--clients and --requests must be positive".into()));
    }
    if config.evals == 0 {
        return Err(CliError::Other("--evals must be positive".into()));
    }
    if config.tasks == 0 || config.machines == 0 {
        return Err(CliError::Other("--tasks and --machines must be positive".into()));
    }
    let report = run_load(&config)
        .map_err(|e| CliError::Other(format!("bench-serve against {}: {e}", config.addr)))?;
    Ok(format!(
        "bench-serve: {} client(s) × {} request(s) → {}\n{report}{}",
        config.clients,
        config.requests,
        config.addr,
        if config.shutdown_after { "daemon shutdown requested (drained)\n" } else { "" },
    ))
}

/// `pacga chaos` — seeded fault-injection harness against a running
/// daemon's schedule-stream sessions. Exits non-zero when any
/// dynamic-rescheduling invariant was violated.
pub fn cmd_chaos(args: &Args) -> Result<String, CliError> {
    use pa_cga_service::{run_chaos, ChaosConfig, Storm};

    let storm_name = args.get("storm").unwrap_or("mixed");
    let storm = Storm::parse(storm_name).ok_or_else(|| {
        CliError::Other(format!("unknown storm {storm_name:?}; expected burst|flap|drift|mixed"))
    })?;
    let config = ChaosConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:7413").to_string(),
        tasks: args.get_parse("tasks", 64usize, "usize")?,
        machines: args.get_parse("machines", 8usize, "usize")?,
        events: args.get_parse("events", 12usize, "usize")?,
        evals: args.get_parse("evals", 2_000u64, "u64")?,
        seed: args.get_parse("seed", 0u64, "u64")?,
        grid_side: args.get_parse("grid", 5usize, "usize")?,
        storm,
        session: args.get("session").map(String::from),
        resume: args.get_bool("resume")?,
        baseline: args.get("reschedule-baseline").map(String::from),
        probes: !args.get_bool("no-probes")?,
        assert_warm_wins: args.get_bool("assert-warm-wins")?,
        shutdown_after: args.get_bool("shutdown")?,
        timeout_ms: args.get_parse("timeout", 0u64, "u64")?,
    };
    if config.tasks < 2 || config.machines < 2 {
        return Err(CliError::Other("--tasks and --machines must be at least 2".into()));
    }
    if config.events == 0 || config.evals == 0 {
        return Err(CliError::Other("--events and --evals must be positive".into()));
    }
    if config.resume && config.session.is_none() {
        return Err(CliError::Other("--resume needs --session NAME".into()));
    }
    let report = run_chaos(&config)
        .map_err(|e| CliError::Other(format!("chaos against {}: {e}", config.addr)))?;
    let text =
        format!("chaos: storm={} seed={} → {}\n{report}", storm.name(), config.seed, config.addr);
    if report.clean() {
        Ok(text)
    } else {
        Err(CliError::Other(format!("{text}chaos: INVARIANT VIOLATIONS — see above")))
    }
}

/// `pacga job <verb>` — client for the daemon's durable-job verbs.
/// Talks to a `pacga serve --data-dir ...` daemon over the same wire
/// protocol, with socket timeouts and bounded-backoff retry.
pub fn cmd_job(verb: &str, args: &Args) -> Result<String, CliError> {
    use pa_cga_service::{Json, RetryPolicy, RobustClient};

    let addr = args.get("addr").unwrap_or("127.0.0.1:7413").to_string();
    let timeout_ms = args.get_parse("timeout", 10_000u64, "u64")?;
    let retries = args.get_parse("retries", 2u32, "u32")?;

    let request = match verb {
        "start" => {
            let braun = args.require("braun")?;
            if !braun_instance_names().contains(&braun) {
                return Err(CliError::Other(format!(
                    "unknown Braun instance {braun:?}; try `pacga list`"
                )));
            }
            let mut fields = vec![("type", Json::str("job.start")), ("braun", Json::str(braun))];
            if let Some(job) = args.get("job") {
                fields.push(("job", Json::str(job)));
            }
            for (flag, key) in [
                ("checkpoint-gens", "checkpoint_gens"),
                ("evals", "evals"),
                ("gens", "gens"),
                ("time-ms", "time_ms"),
                ("seed", "seed"),
                ("threads", "threads"),
                ("ls", "ls"),
            ] {
                if args.get(flag).is_some() {
                    fields.push((key, Json::num(args.get_parse(flag, 0u64, "u64")? as f64)));
                }
            }
            if let Some(crossover) = args.get("crossover") {
                fields.push(("crossover", Json::str(crossover)));
            }
            Json::obj(fields)
        }
        "status" | "stop" | "archive" => Json::obj(vec![
            ("type", Json::str(format!("job.{verb}"))),
            ("job", Json::str(args.require("job")?)),
        ]),
        "log" => Json::obj(vec![
            ("type", Json::str("job.log")),
            ("job", Json::str(args.require("job")?)),
            ("tail", Json::num(args.get_parse("tail", 20u64, "u64")? as f64)),
        ]),
        "list" => Json::obj(vec![("type", Json::str("job.list"))]),
        other => {
            return Err(CliError::Other(format!(
                "unknown job verb {other:?}; expected start|status|log|stop|archive|list\n\n{USAGE}"
            )))
        }
    };

    let timeout = (timeout_ms > 0).then(|| std::time::Duration::from_millis(timeout_ms));
    let policy = RetryPolicy { attempts: retries, ..RetryPolicy::default() };
    let mut client = RobustClient::new(addr.as_str(), timeout, policy);
    let v = client
        .request(&request)
        .map_err(|e| CliError::Other(format!("job {verb} against {addr}: {e}")))?;

    match v.get("type").and_then(Json::as_str) {
        Some("job") => {
            let s = |k: &str| v.get(k).and_then(Json::as_str).unwrap_or("-").to_string();
            let n = |k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(0);
            let mut out = format!(
                "job        : {}\nstate      : {}\ngenerations: {}\nevaluations: {}\n",
                s("job"),
                s("state"),
                n("generations"),
                n("evaluations"),
            );
            if let Some(best) = v.get("best_makespan").and_then(Json::as_f64) {
                out.push_str(&format!("best       : {best:.3}\n"));
            }
            if let Some(rate) = v.get("evals_per_sec").and_then(Json::as_f64) {
                out.push_str(&format!("rate       : {rate:.0} evals/s\n"));
            }
            if let Some(eta) = v.get("eta_s").and_then(Json::as_f64) {
                out.push_str(&format!("eta        : {eta:.0}s\n"));
            }
            if let Some(dest) = v.get("archived_to").and_then(Json::as_str) {
                out.push_str(&format!("archived to: {dest}\n"));
            }
            if let Some(msg) = v.get("message").and_then(Json::as_str) {
                out.push_str(&format!("note       : {msg}\n"));
            }
            Ok(out)
        }
        Some("job_log") => {
            let lines = v.get("lines").and_then(Json::as_arr).unwrap_or(&[]);
            let mut out = String::new();
            for line in lines.iter().filter_map(Json::as_str) {
                out.push_str(line);
                out.push('\n');
            }
            if out.is_empty() {
                out.push_str("(empty log)\n");
            }
            Ok(out)
        }
        Some("job_list") => {
            let jobs = v.get("jobs").and_then(Json::as_arr).unwrap_or(&[]);
            if jobs.is_empty() {
                return Ok("(no jobs)\n".into());
            }
            let mut out = format!(
                "{:<20} {:<9} {:<8} {:>12} {:>14} {:>12}\n",
                "JOB", "STATE", "WHERE", "GENERATIONS", "EVALUATIONS", "BEST"
            );
            for j in jobs.iter() {
                let s = |k: &str| j.get(k).and_then(Json::as_str).unwrap_or("-").to_string();
                let n = |k: &str| j.get(k).and_then(Json::as_u64).unwrap_or(0);
                let place = match (
                    j.get("live").and_then(Json::as_bool),
                    j.get("archived_date").and_then(Json::as_str),
                ) {
                    (Some(true), _) => "live".to_string(),
                    (_, Some(date)) => date.to_string(),
                    _ => "archived".to_string(),
                };
                let best = match j.get("best_makespan").and_then(Json::as_f64) {
                    Some(b) => format!("{b:.3}"),
                    None => "-".into(),
                };
                out.push_str(&format!(
                    "{:<20} {:<9} {:<8} {:>12} {:>14} {:>12}\n",
                    s("job"),
                    s("state"),
                    place,
                    n("generations"),
                    n("evaluations"),
                    best,
                ));
            }
            Ok(out)
        }
        Some("busy") => Err(CliError::Other(format!(
            "daemon busy: {}",
            v.get("reason").and_then(Json::as_str).unwrap_or("try again")
        ))),
        _ => Err(CliError::Other(format!(
            "job {verb} failed: {}",
            v.get("message").and_then(Json::as_str).unwrap_or("unrecognized response")
        ))),
    }
}

/// A subcommand's handler: its positional verb (empty for commands that
/// take none) and its parsed flags.
type Handler = fn(&str, &Args) -> Result<String, CliError>;

/// Every subcommand: its name, the verbs it requires in first position
/// (for the "needs a verb" error) and its handler. The flags each one
/// accepts are read from its [`USAGE`] synopsis ([`synopsis_flags`]).
const COMMANDS: [(&str, Option<&str>, Handler); 12] = [
    ("list", None, |_, _| Ok(cmd_list())),
    ("generate", None, |_, args| cmd_generate(args)),
    ("info", None, |_, args| cmd_info(args)),
    ("heuristics", None, |_, args| cmd_heuristics(args)),
    ("schedule", None, |_, args| cmd_schedule(args)),
    ("simulate", None, |_, args| cmd_simulate(args)),
    ("sweep", None, |_, args| cmd_sweep(args)),
    ("serve", None, |_, args| cmd_serve(args)),
    ("corpus", Some("build|ls|verify"), cmd_corpus),
    ("bench-serve", None, |_, args| cmd_bench_serve(args)),
    ("chaos", None, |_, args| cmd_chaos(args)),
    ("job", Some("start|status|log|stop|archive|list"), cmd_job),
];

/// The `--flags` named in `command`'s synopsis lines of [`USAGE`] (the
/// block between `USAGE:` and the first blank line; a synopsis runs from
/// its `  pacga <command>` line to the next one). They are the only
/// flags [`dispatch`] accepts for `command`, so the help text and the
/// parser cannot drift apart.
fn synopsis_flags(command: &str) -> Vec<&'static str> {
    let synopses = USAGE.split_once("USAGE:\n").map_or("", |(_, rest)| rest);
    let synopses = synopses.split_once("\n\n").map_or(synopses, |(block, _)| block);
    let mut current = "";
    let mut flags = Vec::new();
    for line in synopses.lines() {
        if let Some(rest) = line.strip_prefix("  pacga ") {
            current = rest.split_whitespace().next().unwrap_or("");
        }
        if current != command {
            continue;
        }
        for after in line.split("--").skip(1) {
            let end = after.find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
            let flag = &after[..end.unwrap_or(after.len())];
            if !flag.is_empty() && !flags.contains(&flag) {
                flags.push(flag);
            }
        }
    }
    flags
}

/// Resolves a command line to its handler, verb and flags without
/// running it.
fn parse_command(mut tokens: Vec<String>) -> Result<(Handler, String, Args), CliError> {
    let command = tokens.first().cloned().unwrap_or_default();
    let Some(&(name, verbs, run)) = COMMANDS.iter().find(|(name, ..)| *name == command) else {
        return Err(CliError::Other(format!("unknown command {command:?}\n\n{USAGE}")));
    };
    let mut verb = String::new();
    if let Some(verbs) = verbs {
        // The verb is positional: `pacga job status --job x`.
        match tokens.get(1) {
            Some(v) if !v.starts_with("--") => verb = tokens.remove(1),
            _ => return Err(CliError::Other(format!("{name} needs a verb: {verbs}\n\n{USAGE}"))),
        }
    }
    let args = Args::parse(tokens, &synopsis_flags(name))?;
    Ok((run, verb, args))
}

/// Dispatches a full command line (tokens exclude the program name).
pub fn dispatch(tokens: Vec<String>) -> Result<String, CliError> {
    if matches!(tokens.first().map(String::as_str), None | Some("help" | "--help" | "-h" | "")) {
        return Ok(USAGE.to_string());
    }
    let (run, verb, args) = parse_command(tokens)?;
    run(&verb, &args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn list_names_all_instances() {
        let out = dispatch(toks("list")).unwrap();
        for name in braun_instance_names() {
            assert!(out.contains(name));
        }
    }

    #[test]
    fn info_on_braun_instance() {
        let out = dispatch(toks("info --braun u_c_hihi.0")).unwrap();
        assert!(out.contains("512 tasks × 16 machines"));
        assert!(out.contains("Q16|"));
        assert!(out.contains("consistent"));
    }

    #[test]
    fn heuristics_table() {
        let out = dispatch(toks("heuristics --braun u_i_lolo.0")).unwrap();
        assert!(out.contains("min-min"));
        assert!(out.contains("sufferage"));
    }

    #[test]
    fn schedule_with_heuristic() {
        let out = dispatch(toks("schedule --braun u_c_lolo.0 --heuristic min-min")).unwrap();
        assert!(out.contains("heuristic min-min"));
        assert!(out.contains("makespan"));
    }

    #[test]
    fn schedule_with_pa_cga_evals() {
        let out = dispatch(toks("schedule --braun u_c_lolo.0 --threads 1 --evals 2000 --seed 3"))
            .unwrap();
        assert!(out.contains("PA-CGA"));
        assert!(out.contains("evaluations"));
    }

    #[test]
    fn generate_and_round_trip_through_file() {
        let dir = std::env::temp_dir().join("pacga_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inst.etc");
        let path_s = path.to_str().unwrap();
        let out = dispatch(toks(&format!(
            "generate --tasks 8 --machines 3 --consistency c --seed 5 --out {path_s}"
        )))
        .unwrap();
        assert!(out.contains("written"));
        let info = dispatch(toks(&format!("info --instance {path_s}"))).unwrap();
        assert!(info.contains("8 tasks × 3 machines"));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn unknown_command_mentions_usage() {
        let err = dispatch(toks("frobnicate")).unwrap_err();
        assert!(err.to_string().contains("USAGE"));
    }

    #[test]
    fn usage_covers_every_subcommand() {
        for cmd in [
            "generate",
            "info",
            "schedule",
            "heuristics",
            "simulate",
            "sweep",
            "serve",
            "bench-serve",
            "chaos",
            "job",
            "corpus",
            "list",
        ] {
            assert!(USAGE.contains(&format!("pacga {cmd}")), "{cmd} missing from USAGE");
        }
    }

    #[test]
    fn every_synopsis_flag_parses_and_no_other_flag_does() {
        let synopses: Vec<&str> = USAGE
            .lines()
            .filter_map(|l| l.strip_prefix("  pacga "))
            .filter_map(|rest| rest.split_whitespace().next())
            .collect();
        for (name, ..) in COMMANDS {
            assert!(synopses.contains(&name), "{name} has no synopsis");
        }
        for name in &synopses {
            assert!(COMMANDS.iter().any(|(n, ..)| n == name), "{name} has no handler");
        }
        let mut total = 0;
        for (name, verbs, _) in COMMANDS {
            let verb = verbs.and_then(|v| v.split('|').next());
            let line = |flag: &str| -> Vec<String> {
                [Some(name), verb, Some(flag), Some("v")]
                    .into_iter()
                    .flatten()
                    .map(String::from)
                    .collect()
            };
            let flags = synopsis_flags(name);
            total += flags.len();
            for flag in &flags {
                let (_, _, args) = parse_command(line(&format!("--{flag}")))
                    .unwrap_or_else(|e| panic!("{name} --{flag}: {e}"));
                assert_eq!(args.get(flag), Some("v"), "{name} --{flag}");
            }
            match parse_command(line("--not-in-synopsis")) {
                Err(CliError::Args(ArgError::Unknown { command, flag })) => {
                    assert_eq!((command.as_str(), flag.as_str()), (name, "not-in-synopsis"));
                }
                other => panic!("{name} accepted a flag outside its synopsis: {:?}", other.is_ok()),
            }
        }
        // The allow lists the synopses replaced: generate 8, info 2,
        // heuristics 2, schedule 10, simulate 6, sweep 11, serve 9,
        // corpus 4, bench-serve 11, chaos 15, job 14, list 0.
        assert_eq!(total, 92);
    }

    #[test]
    fn job_requires_a_verb_and_rejects_unknown_verbs() {
        let err = dispatch(toks("job")).unwrap_err();
        assert!(err.to_string().contains("job needs a verb"), "{err}");
        let err = dispatch(toks("job --job x")).unwrap_err();
        assert!(err.to_string().contains("job needs a verb"), "{err}");
        let err = dispatch(toks("job frobnicate --job x")).unwrap_err();
        assert!(err.to_string().contains("unknown job verb"), "{err}");
    }

    #[test]
    fn corpus_requires_a_verb_and_rejects_unknown_verbs() {
        let err = dispatch(toks("corpus")).unwrap_err();
        assert!(err.to_string().contains("corpus needs a verb"), "{err}");
        let err = dispatch(toks("corpus --braun")).unwrap_err();
        assert!(err.to_string().contains("corpus needs a verb"), "{err}");
        let err = dispatch(toks("corpus frobnicate")).unwrap_err();
        assert!(err.to_string().contains("unknown corpus verb"), "{err}");
    }

    #[test]
    fn corpus_build_requires_a_family() {
        let err = dispatch(toks("corpus build")).unwrap_err();
        assert!(err.to_string().contains("--braun and/or --large"), "{err}");
    }

    #[test]
    fn corpus_build_ls_verify_round_trip() {
        let dir = std::env::temp_dir().join(format!("pacga-cli-corpus-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("grid.pacst");
        let path_s = path.to_str().unwrap();
        let out = dispatch(toks(&format!("corpus build --braun --out {path_s}"))).unwrap();
        assert!(out.contains("wrote 12 instance(s)"), "{out}");
        let ls = dispatch(toks(&format!("corpus ls --corpus {path_s}"))).unwrap();
        assert!(ls.contains("12 instance(s)"), "{ls}");
        assert!(ls.contains("u_c_hihi.0"), "{ls}");
        assert!(ls.contains("512x16"), "{ls}");
        let verify = dispatch(toks(&format!("corpus verify --corpus {path_s}"))).unwrap();
        assert!(verify.contains("OK"), "{verify}");
        assert!(verify.contains("12 instance(s)"), "{verify}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corpus_verify_reports_corruption() {
        let dir = std::env::temp_dir().join(format!("pacga-cli-badcorpus-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.pacst");
        std::fs::write(&path, b"garbage").unwrap();
        let err = dispatch(toks(&format!("corpus verify --corpus {}", path.to_str().unwrap())))
            .unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn job_start_validates_instance_before_connecting() {
        // An unknown registry name fails fast — no daemon required.
        let err = dispatch(toks("job start --braun u_z_zzzz.9")).unwrap_err();
        assert!(err.to_string().contains("unknown Braun instance"), "{err}");
        let err = dispatch(toks("job start")).unwrap_err();
        assert!(err.to_string().contains("--braun"), "{err}");
    }

    #[test]
    fn job_status_requires_job_name() {
        let err = dispatch(toks("job status")).unwrap_err();
        assert!(err.to_string().contains("--job"), "{err}");
    }

    #[test]
    fn missing_instance_source_is_error() {
        let err = dispatch(toks("info")).unwrap_err();
        assert!(err.to_string().contains("--braun or --instance"));
    }

    #[test]
    fn unknown_braun_instance_is_error() {
        let err = dispatch(toks("info --braun u_z_zzzz.9")).unwrap_err();
        assert!(err.to_string().contains("unknown Braun instance"));
    }
}

#[cfg(test)]
mod unknown_flag_tests {
    //! One test per subcommand: a flag outside the allow-list must be a
    //! named error (`unknown flag --X for \`pacga CMD\``), never
    //! silently ignored.

    use super::*;

    fn assert_rejects_unknown(command_line: &str, command: &str) {
        let tokens: Vec<String> = command_line.split_whitespace().map(String::from).collect();
        let err = dispatch(tokens).unwrap_err();
        let text = err.to_string();
        assert!(
            text.contains("unknown flag --bogus"),
            "`{command_line}` should name the flag: {text}"
        );
        assert!(
            text.contains(&format!("`pacga {command}`")),
            "`{command_line}` should name the subcommand: {text}"
        );
    }

    #[test]
    fn list_rejects_unknown_flag() {
        assert_rejects_unknown("list --bogus", "list");
    }

    #[test]
    fn generate_rejects_unknown_flag() {
        assert_rejects_unknown("generate --tasks 4 --bogus 1", "generate");
    }

    #[test]
    fn info_rejects_unknown_flag() {
        assert_rejects_unknown("info --braun u_c_hihi.0 --bogus", "info");
    }

    #[test]
    fn heuristics_rejects_unknown_flag() {
        assert_rejects_unknown("heuristics --braun u_c_hihi.0 --bogus x", "heuristics");
    }

    #[test]
    fn schedule_rejects_unknown_flag() {
        // A typo'd budget flag must fail loudly, not fall back to the
        // default 2s wall-clock run.
        assert_rejects_unknown("schedule --braun u_c_hihi.0 --bogus 500", "schedule");
    }

    #[test]
    fn simulate_rejects_unknown_flag() {
        assert_rejects_unknown("simulate --braun u_c_hihi.0 --bogus 0.5", "simulate");
    }

    #[test]
    fn sweep_rejects_unknown_flag() {
        assert_rejects_unknown("sweep --braun u_c_hihi.0 --bogus 3", "sweep");
    }

    #[test]
    fn serve_rejects_unknown_flag() {
        // Parsed before the daemon binds: no listener leaks.
        assert_rejects_unknown("serve --bogus 1", "serve");
    }

    #[test]
    fn bench_serve_rejects_unknown_flag() {
        assert_rejects_unknown("bench-serve --bogus 1", "bench-serve");
    }

    #[test]
    fn chaos_rejects_unknown_flag() {
        assert_rejects_unknown("chaos --bogus 1", "chaos");
    }

    #[test]
    fn chaos_validates_before_connecting() {
        let err = dispatch(toks("chaos --storm tornado")).unwrap_err();
        assert!(err.to_string().contains("unknown storm"), "{err}");
        let err = dispatch(toks("chaos --tasks 1")).unwrap_err();
        assert!(err.to_string().contains("at least 2"), "{err}");
        let err = dispatch(toks("chaos --events 0")).unwrap_err();
        assert!(err.to_string().contains("must be positive"), "{err}");
        let err = dispatch(toks("chaos --resume")).unwrap_err();
        assert!(err.to_string().contains("--resume needs --session"), "{err}");
    }

    #[test]
    fn job_rejects_unknown_flag() {
        // The positional verb is stripped before flag parsing, so the
        // command names itself `job` in the error.
        assert_rejects_unknown("job status --job x --bogus 1", "job");
    }

    #[test]
    fn corpus_rejects_unknown_flag() {
        // The positional verb is stripped before flag parsing, so the
        // command names itself `corpus` in the error.
        assert_rejects_unknown("corpus verify --corpus x --bogus 1", "corpus");
    }

    #[test]
    fn flag_value_is_not_mistaken_for_a_flag() {
        // Regression guard: `--addr`'s value must not trip the check.
        let err =
            dispatch(toks("bench-serve --addr 127.0.0.1:1 --clients 1 --requests 1")).unwrap_err();
        assert!(err.to_string().contains("bench-serve against"), "{err}");
    }

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }
}

#[cfg(test)]
mod serve_tests {
    use super::*;
    use pa_cga_service::{Client, Json};

    #[test]
    fn serve_and_bench_serve_round_trip() {
        // Boot the daemon on an ephemeral port in a thread (as
        // `pacga serve` would), aim `bench-serve` at it with
        // --shutdown, and check both sides' reports.
        let handle = pa_cga_service::serve(pa_cga_service::ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            ..Default::default()
        })
        .unwrap();
        let addr = handle.addr().to_string();

        let args = Args::parse(
            format!("bench-serve --addr {addr} --clients 2 --requests 4 --evals 300 --distinct 1 --shutdown")
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
            &["addr", "clients", "requests", "evals", "seed", "distinct", "shutdown"],
        )
        .unwrap();
        let out = cmd_bench_serve(&args).unwrap();
        assert!(out.contains("req/s"), "{out}");
        assert!(out.contains("p99"), "{out}");
        assert!(out.contains("8 ok"), "{out}");
        assert!(out.contains("drained"), "{out}");

        let summary = handle.join();
        assert_eq!(summary.completed, 8);
        assert!(summary.cache_hits > 0, "identical requests must hit the cache");
    }

    #[test]
    fn bench_serve_validates_counts() {
        let err =
            dispatch("bench-serve --clients 0".split_whitespace().map(String::from).collect())
                .unwrap_err();
        assert!(err.to_string().contains("must be positive"), "{err}");
    }

    #[test]
    fn serve_validates_batch_max() {
        let err = dispatch("serve --batch-max 0".split_whitespace().map(String::from).collect())
            .unwrap_err();
        assert!(err.to_string().contains("--batch-max"), "{err}");
    }

    #[test]
    fn corpus_restart_answers_cached_on_first_request() {
        // The warm-start contract end-to-end over real TCP: daemon 1
        // computes and persists on drain; daemon 2 warm-loads and
        // answers the same digest cached:true with no new evaluations.
        let dir = std::env::temp_dir().join(format!("pacga-serve-corpus-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let corpus = dir.join("warm.pacst");
        let config = || pa_cga_service::ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            corpus: Some(corpus.to_str().unwrap().to_string()),
            ..Default::default()
        };
        let request = Json::parse(
            r#"{"type":"schedule","etc":[[1,2],[2,1],[3,1]],"evals":400,"seed":11,"threads":1}"#,
        )
        .unwrap();

        let handle = pa_cga_service::serve(config()).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        let cold = client.request(&request).unwrap();
        assert_eq!(cold.get("cached").and_then(Json::as_bool), Some(false), "{cold:?}");
        client.shutdown().unwrap();
        let summary = handle.join();
        assert_eq!(summary.persisted, 1, "{summary}");

        let handle = pa_cga_service::serve(config()).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        let warm = client.request(&request).unwrap();
        assert_eq!(warm.get("cached").and_then(Json::as_bool), Some(true), "{warm:?}");
        assert_eq!(
            warm.get("makespan").and_then(Json::as_f64),
            cold.get("makespan").and_then(Json::as_f64),
            "warm answer must replay the persisted result"
        );
        client.shutdown().unwrap();
        let summary = handle.join();
        assert_eq!(summary.evaluations, 0, "a warm hit must spend no engine evaluations");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_request_over_raw_client_drains_daemon() {
        let handle = pa_cga_service::serve(pa_cga_service::ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..Default::default()
        })
        .unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        let ack = client.shutdown().unwrap();
        assert_eq!(ack.get("message").and_then(Json::as_str), Some("draining"));
        let summary = handle.join();
        assert!(summary.to_string().contains("drained cleanly"));
    }
}

#[cfg(test)]
mod sweep_tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn sweep_prints_stats_table() {
        let out =
            dispatch(toks("sweep --braun u_c_lolo.0 --runs 2 --evals 1500 --threads 1 --ls 5"))
                .unwrap();
        assert!(out.contains("u_c_lolo.0"), "{out}");
        assert!(out.contains("mean ± std"), "{out}");
        assert!(out.contains("runs/s"), "{out}");
        assert!(out.contains("1 instance(s) × 2 run(s)"), "{out}");
    }

    #[test]
    fn sweep_prefix_expands_and_results_are_seed_deterministic() {
        // A prefix must resolve to the matching registry instances, and
        // eval-budget single-thread sweeps must reproduce per seed at any
        // worker count.
        let a = dispatch(toks("sweep --braun u_c_lolo --runs 2 --evals 1200 --ls 2 --workers 1"))
            .unwrap();
        let b = dispatch(toks("sweep --braun u_c_lolo.0 --runs 2 --evals 1200 --ls 2 --workers 3"))
            .unwrap();
        assert!(a.contains("u_c_lolo.0"));
        // Compare the stats row only (banner differs: worker counts).
        let row = |out: &str| {
            out.lines().find(|l| l.starts_with("u_c_lolo.0")).map(String::from).unwrap()
        };
        assert_eq!(row(&a), row(&b));
    }

    #[test]
    fn sweep_rejects_unknown_prefix_and_missing_source() {
        let err = dispatch(toks("sweep --braun u_z --runs 1 --evals 100")).unwrap_err();
        assert!(err.to_string().contains("no Braun instance matches"));
        let err = dispatch(toks("sweep --runs 1")).unwrap_err();
        assert!(err.to_string().contains("--braun NAME[,NAME...] or --all"));
    }

    #[test]
    fn sweep_rejects_conflicting_budgets() {
        let err = dispatch(toks("sweep --braun u_c_lolo.0 --evals 100 --gens 5")).unwrap_err();
        assert!(err.to_string().contains("at most one of"));
    }

    #[test]
    fn sweep_instances_dedups_overlapping_tokens() {
        let args =
            Args::parse(toks("sweep --braun u_c_lolo.0,u_c_lolo"), &["braun", "all"]).unwrap();
        let names = sweep_instances(&args).unwrap();
        assert_eq!(names, vec!["u_c_lolo.0"]);

        // Non-adjacent duplicates too: the exact name re-surfaces in the
        // middle of a later prefix expansion.
        let args = Args::parse(toks("sweep --braun u_c_lolo.0,u_c"), &["braun", "all"]).unwrap();
        let names = sweep_instances(&args).unwrap();
        assert_eq!(names.iter().filter(|&&n| n == "u_c_lolo.0").count(), 1);
        assert_eq!(names[0], "u_c_lolo.0", "first-seen order preserved");
        assert_eq!(names.len(), 4, "all four u_c_* instances, once each");
    }
}

#[cfg(test)]
mod simulate_tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn simulate_with_mct_policy() {
        let out = dispatch(toks(
            "simulate --braun u_c_lolo.0 --p-fail 0.2 --seed 1 --evals 1500 --policy mct",
        ))
        .unwrap();
        assert!(out.contains("simulated makespan"));
        assert!(out.contains("rescheduler       : mct"));
    }

    #[test]
    fn simulate_no_failures_matches_static() {
        let out =
            dispatch(toks("simulate --braun u_c_lolo.0 --p-fail 0 --seed 1 --evals 1500")).unwrap();
        assert!(out.contains("failures          : []"));
        assert!(out.contains("0.00%"), "{out}");
    }

    #[test]
    fn simulate_rejects_bad_policy() {
        let err =
            dispatch(toks("simulate --braun u_c_lolo.0 --policy frob --evals 100")).unwrap_err();
        assert!(err.to_string().contains("unknown policy"));
    }

    #[test]
    fn simulate_rejects_bad_probability() {
        let err =
            dispatch(toks("simulate --braun u_c_lolo.0 --p-fail 1.5 --evals 100")).unwrap_err();
        assert!(err.to_string().contains("outside [0, 1]"));
    }
}
