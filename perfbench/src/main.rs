//! The PA-CGA workspace benchmark: three workloads (braun-batch,
//! serve-mix, stream-storm), end-to-end metrics untraced, per-layer
//! metrics from a separate traced run. See perfbench/README.md.
//!
//! ```text
//! perfbench --workload <braun-batch|serve-mix|stream-storm|all> --seed N --seconds S --trace 0|1
//! ```
//!
//! The last stdout line is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is 0
//! only when every output check passed.

mod braun;
mod gen;
mod layers;
mod report;
mod serve;
mod stats;
mod stream;
mod sys;
mod trace;

use report::Outcome;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["braun-batch", "serve-mix", "stream-storm"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args { workload: "all".into(), seed: 1, seconds: 30, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag}: {value:?} is not a number"));
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => parsed.trace = number()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if parsed.workload != "all" && !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?} ({} or all)",
            parsed.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(parsed)
}

fn run_one(args: &Args) -> Outcome {
    let mut out = match (args.workload.as_str(), args.trace) {
        ("braun-batch", false) => braun::run(args.seed, args.seconds),
        ("braun-batch", true) => braun::traced(args.seed, args.seconds),
        ("serve-mix", false) => serve::run(args.seed, args.seconds),
        ("serve-mix", true) => serve::traced(args.seed, args.seconds),
        ("stream-storm", false) => stream::run(args.seed, args.seconds),
        _ => stream::traced(args.seed, args.seconds),
    };
    if args.trace {
        match sys::RunDir::new("probe") {
            Ok(dir) => {
                if let Err(e) = layers::probe(&mut out, args.seed, dir.path()) {
                    out.fail(e);
                }
            }
            Err(e) => out.fail(format!("probe dir: {e}")),
        }
        out.set("fail_ratio", out.tally.fail_ratio());
    }
    let cwd = std::env::current_dir().unwrap_or_default();
    out.notes.insert(
        0,
        format!(
            "seed {}, seconds {}, trace {}, nproc {}, filesystem {}",
            args.seed,
            args.seconds,
            u8::from(args.trace),
            sys::nproc(),
            sys::filesystem_of(&cwd)
        ),
    );
    out
}

/// `--workload all`: each workload in a fresh child process, its
/// output passed through, then one combined result line.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    for workload in WORKLOADS {
        let output = std::process::Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn {workload}: {e}"))?;
        let text = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().unwrap_or("");
        for line in lines {
            println!("{line}");
        }
        let result =
            pa_cga_service::Json::parse(last).map_err(|e| format!("{workload} result: {e}"))?;
        all_correct &= output.status.success()
            && result.get("correct").and_then(pa_cga_service::Json::as_bool) == Some(true);
        attempted += result.get("attempted").and_then(pa_cga_service::Json::as_u64).unwrap_or(0);
        failed += result.get("failed").and_then(pa_cga_service::Json::as_u64).unwrap_or(0);
        if let Some(m) = result.get("metrics") {
            metrics.push(format!("\"{workload}\": {m}"));
        }
    }
    println!(
        "{{\"correct\": {all_correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("daemon") {
        return match sys::daemon_main(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench daemon: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let correct = if args.workload == "all" {
        match run_all(&args) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("perfbench: {e}");
                false
            }
        }
    } else {
        let out = run_one(&args);
        report::print(&args.workload, args.trace, &out)
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
