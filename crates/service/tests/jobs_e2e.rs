//! End-to-end durable-job tests: a real `serve()` with `--data-dir`,
//! the full `job.start → status → log → stop → archive` lifecycle over
//! TCP, and the drain → restart → resume path (the in-process half of
//! the crash story; the SIGKILL half lives in
//! `crates/cli/tests/job_kill_resume.rs`).

use pa_cga_service::json::Json;
use pa_cga_service::{serve, Client, ServeConfig, ServerHandle};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A unique per-test data dir under the target tmp dir.
fn data_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pacga-jobs-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spawn(dir: &std::path::Path, checkpoint_gens: u64) -> ServerHandle {
    serve(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        data_dir: Some(dir.to_string_lossy().into_owned()),
        checkpoint_gens,
        ..ServeConfig::default()
    })
    .expect("bind loopback")
}

fn job_start_line(job: &str, gens: u64, checkpoint_gens: u64) -> String {
    format!(
        r#"{{"type":"job.start","job":"{job}","checkpoint_gens":{checkpoint_gens},"etc_model":{{"tasks":24,"machines":3,"seed":11}},"gens":{gens},"seed":5,"threads":1,"ls":1}}"#
    )
}

fn request(client: &mut Client, line: &str) -> Json {
    Json::parse(client.send_line(line).unwrap().trim()).unwrap()
}

fn job_status(client: &mut Client, job: &str) -> Json {
    request(client, &format!(r#"{{"type":"job.status","job":"{job}"}}"#))
}

/// Polls `job.status` until the job reaches `state` (panics after 30 s).
fn wait_for_state(client: &mut Client, job: &str, state: &str) -> Json {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let v = job_status(client, job);
        if v.get("state").and_then(Json::as_str) == Some(state) {
            return v;
        }
        assert!(Instant::now() < deadline, "job {job} never reached {state}: last status {v}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn lifecycle_start_status_log_archive() {
    let dir = data_dir("lifecycle");
    let handle = spawn(&dir, 64);
    let mut client = Client::connect(handle.addr()).unwrap();

    // Start: answered immediately with a queued/running status body.
    let started = request(&mut client, &job_start_line("smoke-1", 40, 10));
    assert_eq!(started.get("type").unwrap().as_str(), Some("job"), "{started}");
    assert_eq!(started.get("job").unwrap().as_str(), Some("smoke-1"));

    // Duplicate name: rejected, the daemon stays up.
    let dup = request(&mut client, &job_start_line("smoke-1", 40, 10));
    assert_eq!(dup.get("type").unwrap().as_str(), Some("error"), "{dup}");

    // Runs to completion: exactly the 40-generation budget (threads=1
    // makes generation accounting exact), with a best makespan.
    let done = wait_for_state(&mut client, "smoke-1", "done");
    assert_eq!(done.get("generations").unwrap().as_u64(), Some(40), "{done}");
    assert!(done.get("best_makespan").unwrap().as_f64().unwrap() > 0.0);

    // The progress log tells the story, oldest first.
    let log = request(&mut client, r#"{"type":"job.log","job":"smoke-1","tail":50}"#);
    assert_eq!(log.get("type").unwrap().as_str(), Some("job_log"), "{log}");
    let lines: Vec<&str> =
        log.get("lines").unwrap().as_arr().unwrap().iter().filter_map(Json::as_str).collect();
    assert!(lines.first().unwrap().contains("created"), "{lines:?}");
    assert!(lines.iter().any(|l| l.contains("checkpoint gens=")), "{lines:?}");
    assert!(lines.last().unwrap().contains("done"), "{lines:?}");

    // Durable artifacts exist where DESIGN.md §10 says they do.
    let job_dir = dir.join("jobs/smoke-1");
    assert!(job_dir.join("manifest.json").is_file());
    assert!(job_dir.join("result.json").is_file());
    assert!(job_dir.join("trace.csv").is_file());
    assert!(job_dir.join("checkpoint.ckpt").is_file());
    let result =
        Json::parse(&std::fs::read_to_string(job_dir.join("result.json")).unwrap()).unwrap();
    let assignment = result.get("assignment").unwrap().as_arr().unwrap();
    assert_eq!(assignment.len(), 24);
    assert!(assignment.iter().all(|m| m.as_u64().unwrap() < 3));

    // Archive: moved into the dated hierarchy, gone from the live set.
    let archived = request(&mut client, r#"{"type":"job.archive","job":"smoke-1"}"#);
    assert_eq!(archived.get("state").unwrap().as_str(), Some("archived"), "{archived}");
    let dest = PathBuf::from(archived.get("archived_to").unwrap().as_str().unwrap());
    assert!(dest.join("result.json").is_file(), "archive carries the result");
    assert!(!job_dir.exists(), "live dir moved");
    let gone = job_status(&mut client, "smoke-1");
    assert_eq!(gone.get("type").unwrap().as_str(), Some("error"), "{gone}");

    // Stats surfaces the job counters.
    let stats = request(&mut client, r#"{"type":"stats"}"#);
    assert_eq!(stats.get("jobs_started").unwrap().as_u64(), Some(1), "{stats}");
    assert_eq!(stats.get("jobs_completed").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("jobs_active").unwrap().as_u64(), Some(0));

    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stop_is_honored_and_archivable() {
    let dir = data_dir("stop");
    let handle = spawn(&dir, 5);
    let mut client = Client::connect(handle.addr()).unwrap();

    // A budget far too large to finish: stop must be what ends it.
    let started = request(&mut client, &job_start_line("long-1", 50_000_000, 5));
    assert_eq!(started.get("type").unwrap().as_str(), Some("job"), "{started}");

    let stop = request(&mut client, r#"{"type":"job.stop","job":"long-1"}"#);
    assert_eq!(stop.get("type").unwrap().as_str(), Some("job"), "{stop}");
    let stopped = wait_for_state(&mut client, "long-1", "stopped");
    let gens = stopped.get("generations").unwrap().as_u64().unwrap();
    assert!(gens < 50_000_000, "stopped early, not at budget");

    // Stopping again is idempotent.
    let again = request(&mut client, r#"{"type":"job.stop","job":"long-1"}"#);
    assert_eq!(again.get("state").unwrap().as_str(), Some("stopped"), "{again}");

    let archived = request(&mut client, r#"{"type":"job.archive","job":"long-1"}"#);
    assert_eq!(archived.get("state").unwrap().as_str(), Some("archived"), "{archived}");

    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_parks_job_and_restart_resumes_to_done() {
    let dir = data_dir("drain-resume");

    // First incarnation: start a job big enough to outlive the drain.
    let first = spawn(&dir, 5);
    let mut client = Client::connect(first.addr()).unwrap();
    let started = request(&mut client, &job_start_line("resume-1", 400, 5));
    assert_eq!(started.get("type").unwrap().as_str(), Some("job"), "{started}");
    // Let it make some progress (at least one checkpoint) first.
    let deadline = Instant::now() + Duration::from_secs(30);
    let pre_drain_best = loop {
        let v = job_status(&mut client, "resume-1");
        if let Some(best) = v.get("best_makespan").and_then(Json::as_f64) {
            if v.get("generations").and_then(Json::as_u64).unwrap_or(0) >= 5 {
                break best;
            }
        }
        assert!(Instant::now() < deadline, "no checkpoint before drain: {v}");
        std::thread::sleep(Duration::from_millis(10));
    };
    drop(client);
    first.shutdown();
    first.join();

    // The drained job is parked resumable, never stuck in `running`.
    let manifest =
        Json::parse(&std::fs::read_to_string(dir.join("jobs/resume-1/manifest.json")).unwrap())
            .unwrap();
    let parked_state = manifest.get("state").unwrap().as_str().unwrap().to_string();
    assert!(
        parked_state == "checkpointed" || parked_state == "done",
        "drain must park resumable or complete, got {parked_state}"
    );

    // Second incarnation: recovery re-queues it; it finishes the budget.
    let second = spawn(&dir, 5);
    let mut client = Client::connect(second.addr()).unwrap();
    let done = wait_for_state(&mut client, "resume-1", "done");
    assert_eq!(done.get("generations").unwrap().as_u64(), Some(400), "no lost/repeated budget");
    let final_best = done.get("best_makespan").unwrap().as_f64().unwrap();
    assert!(
        final_best <= pre_drain_best + 1e-9,
        "best makespan went backwards across restart: {pre_drain_best} -> {final_best}"
    );
    if parked_state == "checkpointed" {
        let stats = request(&mut client, r#"{"type":"stats"}"#);
        assert_eq!(stats.get("jobs_resumed").unwrap().as_u64(), Some(1), "{stats}");
    }

    second.shutdown();
    second.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn job_requests_without_data_dir_are_errors() {
    let handle =
        serve(ServeConfig { addr: "127.0.0.1:0".into(), workers: 1, ..ServeConfig::default() })
            .expect("bind loopback");
    let mut client = Client::connect(handle.addr()).unwrap();
    let v = request(&mut client, r#"{"type":"job.status","job":"x"}"#);
    assert_eq!(v.get("type").unwrap().as_str(), Some("error"), "{v}");
    assert!(
        v.get("message").unwrap().as_str().unwrap().contains("--data-dir"),
        "error should point at the fix: {v}"
    );
    handle.shutdown();
    handle.join();
}

#[test]
fn archive_refuses_live_jobs_and_unknown_jobs_error() {
    let dir = data_dir("archive-guard");
    let handle = spawn(&dir, 5);
    let mut client = Client::connect(handle.addr()).unwrap();

    let unknown = request(&mut client, r#"{"type":"job.archive","job":"nope"}"#);
    assert_eq!(unknown.get("type").unwrap().as_str(), Some("error"), "{unknown}");

    let started = request(&mut client, &job_start_line("live-1", 50_000_000, 5));
    assert_eq!(started.get("type").unwrap().as_str(), Some("job"), "{started}");
    let refused = request(&mut client, r#"{"type":"job.archive","job":"live-1"}"#);
    assert_eq!(refused.get("type").unwrap().as_str(), Some("error"), "{refused}");
    assert!(refused.get("message").unwrap().as_str().unwrap().contains("stop it"), "{refused}");

    request(&mut client, r#"{"type":"job.stop","job":"live-1"}"#);
    wait_for_state(&mut client, "live-1", "stopped");
    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A job's `manifest.json` in the live jobs dir.
fn manifest(dir: &std::path::Path, job: &str) -> Json {
    let path = dir.join("jobs").join(job).join("manifest.json");
    Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn field_u64(v: &Json, key: &str) -> u64 {
    v.get(key).and_then(Json::as_u64).unwrap_or_else(|| panic!("no {key:?} in {v}"))
}

#[test]
fn fresh_start_after_lost_checkpoints_persists_the_counters_it_reports() {
    let dir = data_dir("lost-checkpoints");

    // No checkpoint lands on its own: the drain writes the only one.
    let first = spawn(&dir, 1_000_000);
    let mut client = Client::connect(first.addr()).unwrap();
    request(&mut client, &job_start_line("fresh-1", 50_000_000, 1_000_000));
    wait_for_state(&mut client, "fresh-1", "running");
    std::thread::sleep(Duration::from_millis(200));
    first.shutdown();
    first.join();
    let parked = manifest(&dir, "fresh-1");
    assert_eq!(parked.get("state").and_then(Json::as_str), Some("checkpointed"), "{parked}");
    assert!(field_u64(&parked, "generations") > 0, "the drain ran no generation: {parked}");

    // Both snapshots lost: the second incarnation starts from scratch.
    std::fs::remove_file(dir.join("jobs/fresh-1/checkpoint.ckpt")).unwrap();
    let _ = std::fs::remove_file(dir.join("jobs/fresh-1/checkpoint.prev.ckpt"));
    let second = spawn(&dir, 1_000_000);
    let mut client = Client::connect(second.addr()).unwrap();
    let running = wait_for_state(&mut client, "fresh-1", "running");
    let on_disk = manifest(&dir, "fresh-1");
    assert_eq!(on_disk.get("state").and_then(Json::as_str), Some("running"), "{on_disk}");
    for key in ["generations", "evaluations"] {
        assert_eq!(field_u64(&on_disk, key), field_u64(&running, key), "{key}: {on_disk}");
    }

    request(&mut client, r#"{"type":"job.stop","job":"fresh-1"}"#);
    wait_for_state(&mut client, "fresh-1", "stopped");
    second.shutdown();
    second.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn manifest_already_holds_every_state_status_reports() {
    let dir = data_dir("persist-first");
    let handle = spawn(&dir, 1);
    let mut client = Client::connect(handle.addr()).unwrap();
    request(&mut client, &job_start_line("seen-1", 50_000_000, 1));

    // Each answer is checked against the manifest read right after it:
    // the job may have moved on (manifest ahead), never the other way.
    let rank = |v: &Json| {
        let state = v.get("state").and_then(Json::as_str);
        ["queued", "running", "checkpointed", "stopped"]
            .iter()
            .position(|s| Some(*s) == state)
            .unwrap_or_else(|| panic!("unexpected state in {v}"))
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut stop_sent = false;
    let (stopped, on_disk) = loop {
        let status = job_status(&mut client, "seen-1");
        let on_disk = manifest(&dir, "seen-1");
        assert!(rank(&on_disk) >= rank(&status), "status {status} ahead of {on_disk}");
        for key in ["generations", "evaluations"] {
            let (disk, wire) = (field_u64(&on_disk, key), field_u64(&status, key));
            assert!(disk >= wire, "{key}: status {status} ahead of {on_disk}");
        }
        match status.get("state").and_then(Json::as_str) {
            Some("stopped") => break (status, on_disk),
            // Watch a good number of per-generation checkpoints first.
            Some("checkpointed") if !stop_sent && field_u64(&status, "generations") >= 50 => {
                request(&mut client, r#"{"type":"job.stop","job":"seen-1"}"#);
                stop_sent = true;
            }
            _ => {}
        }
        assert!(Instant::now() < deadline, "never checkpointed and stopped: {status}");
    };
    // Terminal: nothing moves any more, so disk and wire agree exactly.
    assert_eq!(rank(&on_disk), rank(&stopped), "{on_disk}");
    for key in ["generations", "evaluations"] {
        assert_eq!(field_u64(&on_disk, key), field_u64(&stopped, key), "{key}: {on_disk}");
    }

    let archived = request(&mut client, r#"{"type":"job.archive","job":"seen-1"}"#);
    let dest = PathBuf::from(archived.get("archived_to").unwrap().as_str().unwrap());
    let text = std::fs::read_to_string(dest.join("manifest.json")).unwrap();
    assert_eq!(Json::parse(&text).unwrap(), on_disk, "the archive holds the stopped manifest");

    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}
