//! End-to-end daemon tests: a real `serve()` on an ephemeral loopback
//! port, real TCP clients, full request→batch→portfolio→response round
//! trips, cache semantics, backpressure, and graceful drain.

use pa_cga_service::json::Json;
use pa_cga_service::{run_load, serve, Client, LoadConfig, ServeConfig, ServerHandle};

fn spawn(config: ServeConfig) -> ServerHandle {
    serve(ServeConfig { addr: "127.0.0.1:0".into(), workers: 2, ..config }).expect("bind loopback")
}

fn schedule_line(seed: u64, evals: u64) -> String {
    format!(
        r#"{{"type":"schedule","id":"t{seed}","etc_model":{{"tasks":24,"machines":3,"seed":{seed}}},"evals":{evals},"assignment":true}}"#
    )
}

#[test]
fn schedule_round_trip_and_cache_hit() {
    let handle = spawn(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();

    let first = Json::parse(client.send_line(&schedule_line(1, 600)).unwrap().trim()).unwrap();
    assert_eq!(first.get("type").unwrap().as_str(), Some("result"), "{first}");
    assert_eq!(first.get("id").unwrap().as_str(), Some("t1"));
    assert_eq!(first.get("cached").unwrap().as_bool(), Some(false));
    assert_eq!(first.get("n_tasks").unwrap().as_u64(), Some(24));
    let makespan = first.get("makespan").unwrap().as_f64().unwrap();
    assert!(makespan > 0.0);
    let assignment = first.get("assignment").unwrap().as_arr().unwrap();
    assert_eq!(assignment.len(), 24);
    assert!(assignment.iter().all(|m| m.as_u64().unwrap() < 3));
    let evals = first.get("evaluations").unwrap().as_u64().unwrap();
    assert!(evals >= 600, "budget is a lower bound, got {evals}");

    // Identical request: served from cache, identical answer.
    let second = Json::parse(client.send_line(&schedule_line(1, 600)).unwrap().trim()).unwrap();
    assert_eq!(second.get("cached").unwrap().as_bool(), Some(true), "{second}");
    assert_eq!(second.get("makespan").unwrap().as_f64(), Some(makespan));

    // Different seed: a different computation, not a cache hit.
    let third = Json::parse(client.send_line(&schedule_line(2, 600)).unwrap().trim()).unwrap();
    assert_eq!(third.get("cached").unwrap().as_bool(), Some(false));

    let stats = client.stats().unwrap();
    assert_eq!(stats.get("cache_hits").unwrap().as_u64(), Some(1), "{stats}");
    assert_eq!(stats.get("completed").unwrap().as_u64(), Some(3));
    assert!(stats.get("req_per_sec").unwrap().as_f64().unwrap() > 0.0);

    handle.shutdown();
    let summary = handle.join();
    assert_eq!(summary.completed, 3);
    assert_eq!(summary.cache_hits, 1);
}

#[test]
fn inline_and_braun_sources_work_over_the_wire() {
    let handle = spawn(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();

    let inline = Json::parse(
        client
            .send_line(
                r#"{"type":"schedule","name":"mini","etc":[[1,10],[10,1],[5,5]],"evals":200,"ls":0}"#,
            )
            .unwrap()
            .trim(),
    )
    .unwrap();
    assert_eq!(inline.get("type").unwrap().as_str(), Some("result"), "{inline}");
    assert_eq!(inline.get("instance").unwrap().as_str(), Some("mini"));
    assert_eq!(inline.get("n_machines").unwrap().as_u64(), Some(2));

    let braun = Json::parse(
        client
            .send_line(r#"{"type":"schedule","braun":"u_c_lolo.0","evals":600,"ls":2}"#)
            .unwrap()
            .trim(),
    )
    .unwrap();
    assert_eq!(braun.get("type").unwrap().as_str(), Some("result"), "{braun}");
    assert_eq!(braun.get("n_tasks").unwrap().as_u64(), Some(512));
    assert!(braun.get("assignment").is_none(), "not requested");

    handle.shutdown();
    handle.join();
}

#[test]
fn protocol_errors_do_not_kill_the_connection() {
    let handle = spawn(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();

    for (line, needle) in [
        ("this is not json", "malformed"),
        (r#"{"type":"launch-missiles"}"#, "unknown request type"),
        (r#"{"type":"schedule"}"#, "exactly one"),
        (r#"{"type":"schedule","braun":"u_q_nope.7"}"#, "unknown Braun instance"),
        (r#"{"type":"schedule","etc":[[1,-1]],"id":"bad"}"#, "finite and > 0"),
    ] {
        let v = Json::parse(client.send_line(line).unwrap().trim()).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("error"), "{line} -> {v}");
        let message = v.get("message").unwrap().as_str().unwrap();
        assert!(message.contains(needle), "{line}: {message}");
    }
    // The id survives into resolve-stage errors.
    // (the last case above decoded fine, so its id echoes back)
    let v = Json::parse(
        client.send_line(r#"{"type":"schedule","etc":[[1,-1]],"id":"bad"}"#).unwrap().trim(),
    )
    .unwrap();
    assert_eq!(v.get("id").unwrap().as_str(), Some("bad"));

    // Connection still healthy after five errors.
    client.ping().unwrap();
    handle.shutdown();
    handle.join();
}

#[test]
fn threads_beyond_worker_pool_rejected() {
    // workers = 2 (see spawn()): a 3-thread request would oversubscribe
    // the pool — the weight clamps but the engine would still spawn all
    // three threads, so the server refuses instead.
    let handle = spawn(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let v = Json::parse(
        client
            .send_line(r#"{"type":"schedule","etc":[[1,2],[2,1]],"evals":100,"threads":3}"#)
            .unwrap()
            .trim(),
    )
    .unwrap();
    assert_eq!(v.get("type").unwrap().as_str(), Some("error"), "{v}");
    assert!(v.get("message").unwrap().as_str().unwrap().contains("worker pool"), "{v}");
    // At the pool bound is fine.
    let v = Json::parse(
        client
            .send_line(r#"{"type":"schedule","etc":[[1,2],[2,1]],"evals":100,"threads":2}"#)
            .unwrap()
            .trim(),
    )
    .unwrap();
    assert_eq!(v.get("type").unwrap().as_str(), Some("result"), "{v}");
    handle.shutdown();
    handle.join();
}

#[test]
fn idle_connections_do_not_stall_the_drain() {
    // A client that never closes its socket must not pin join() until
    // the grace deadline: the drain shuts connection read sides down.
    let handle = spawn(ServeConfig::default());
    let mut idle = Client::connect(handle.addr()).unwrap();
    idle.ping().unwrap();
    let started = std::time::Instant::now();
    handle.shutdown();
    handle.join();
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "join stalled {:?} behind an idle connection",
        started.elapsed()
    );
}

#[test]
fn coalesced_requests_echo_their_own_instance_name() {
    // Same matrix, different names: one engine run (or cache entry)
    // answers both, but each response must carry ITS request's name.
    let handle = spawn(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let line = |name: &str| {
        format!(r#"{{"type":"schedule","name":"{name}","etc":[[1,9],[9,1]],"evals":120}}"#)
    };
    let a = Json::parse(client.send_line(&line("jobA")).unwrap().trim()).unwrap();
    let b = Json::parse(client.send_line(&line("jobB")).unwrap().trim()).unwrap();
    assert_eq!(a.get("instance").unwrap().as_str(), Some("jobA"), "{a}");
    assert_eq!(b.get("instance").unwrap().as_str(), Some("jobB"), "{b}");
    assert_eq!(b.get("cached").unwrap().as_bool(), Some(true), "same matrix, same digest: {b}");
    handle.shutdown();
    handle.join();
}

#[test]
fn zero_capacity_queue_answers_busy() {
    let handle = spawn(ServeConfig { queue_cap: 0, ..ServeConfig::default() });
    let mut client = Client::connect(handle.addr()).unwrap();
    let v = Json::parse(client.send_line(&schedule_line(1, 100)).unwrap().trim()).unwrap();
    assert_eq!(v.get("type").unwrap().as_str(), Some("busy"), "{v}");
    assert_eq!(v.get("reason").unwrap().as_str(), Some("queue full"));
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("busy").unwrap().as_u64(), Some(1));
    handle.shutdown();
    handle.join();
}

#[test]
fn concurrent_identical_requests_coalesce_or_hit_cache() {
    // 6 connections fire the SAME request at once. However the batches
    // land, exactly one engine run should answer all six: the rest are
    // in-batch coalesces or cross-batch cache hits.
    let handle = spawn(ServeConfig { batch_max: 8, ..ServeConfig::default() });
    let addr = handle.addr();
    let line = schedule_line(9, 800);
    let results: Vec<Json> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let line = line.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    Json::parse(client.send_line(&line).unwrap().trim()).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let makespans: Vec<f64> =
        results.iter().map(|v| v.get("makespan").unwrap().as_f64().unwrap()).collect();
    assert!(makespans.windows(2).all(|w| w[0] == w[1]), "all six identical: {makespans:?}");
    let fresh = results
        .iter()
        .filter(|v| {
            v.get("cached").unwrap().as_bool() == Some(false)
                && v.get("coalesced").unwrap().as_bool() == Some(false)
        })
        .count();
    assert_eq!(fresh, 1, "exactly one engine run: {results:?}");

    handle.shutdown();
    let summary = handle.join();
    assert_eq!(summary.evaluations, {
        let v = results[0].get("evaluations").unwrap().as_u64().unwrap();
        v
    });
    assert_eq!(summary.coalesced + summary.cache_hits, 5);
}

#[test]
fn load_generator_end_to_end_with_shutdown() {
    let handle = spawn(ServeConfig::default());
    let config = LoadConfig {
        addr: handle.addr().to_string(),
        clients: 3,
        requests: 8,
        evals: 400,
        seed: 42,
        distinct: 2,
        shutdown_after: true,
        ..LoadConfig::default()
    };
    let report = run_load(&config).unwrap();
    assert_eq!(report.ok, 24, "{report}");
    assert_eq!(report.errors, 0);
    assert_eq!(report.busy, 0);
    assert!(report.req_per_sec > 0.0);
    assert!(report.cached + report.coalesced > 0, "repeats must be deduplicated: {report}");
    assert_eq!(report.latency.expect("24 samples").count as u64, report.ok);
    let stats = report.server_stats.as_ref().expect("stats snapshot");
    assert!(stats.get("cache_hits").unwrap().as_u64().unwrap() > 0, "{stats}");

    // shutdown_after drained the server; join returns promptly.
    let summary = handle.join();
    assert_eq!(summary.completed, 24);
    let text = report.to_string();
    assert!(text.contains("req/s"), "{text}");
    assert!(text.contains("p99"), "{text}");
}

#[test]
fn queued_requests_survive_shutdown_drain() {
    // Fill the queue with slow-ish requests from parallel clients, then
    // shut down mid-flight: every accepted request still gets a result.
    let handle = spawn(ServeConfig { batch_max: 2, ..ServeConfig::default() });
    let addr = handle.addr();
    let results: Vec<Json> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..4)
            .map(|i| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let line = schedule_line(100 + i, 3_000);
                    Json::parse(client.send_line(&line).unwrap().trim()).unwrap()
                })
            })
            .collect();
        // Give the requests a moment to enqueue, then start the drain
        // from a separate control connection.
        std::thread::sleep(std::time::Duration::from_millis(30));
        let mut control = Client::connect(addr).unwrap();
        let ack = control.shutdown().unwrap();
        assert_eq!(ack.get("message").unwrap().as_str(), Some("draining"));
        workers.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // A request that raced in after the shutdown flag may legitimately
    // get `busy (draining)`; everything accepted before it MUST get a
    // full result — none may hang or be dropped.
    let mut completed = 0;
    for v in &results {
        match v.get("type").unwrap().as_str() {
            Some("result") => completed += 1,
            Some("busy") => {
                assert_eq!(v.get("reason").unwrap().as_str(), Some("draining"), "{v}");
            }
            other => panic!("unexpected response {other:?}: {v}"),
        }
    }
    let summary = handle.join();
    assert_eq!(summary.completed, completed);
    assert!(completed >= 1, "at least the in-flight batch completes");
}

#[test]
fn cache_hits_do_not_wait_for_a_running_batch() {
    // One worker, so the scheduler thread sits in the miss's engine run
    // for its whole 1.5 s budget. A hit on another connection must not
    // queue behind it.
    let handle =
        serve(ServeConfig { addr: "127.0.0.1:0".into(), workers: 1, ..Default::default() })
            .expect("bind loopback");
    let addr = handle.addr();
    let cached = schedule_line(1, 300);
    let mut warm = Client::connect(addr).unwrap();
    let first = Json::parse(warm.send_line(&cached).unwrap().trim()).unwrap();
    assert_eq!(first.get("cached").unwrap().as_bool(), Some(false), "{first}");

    let (order_tx, order_rx) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        let slow_tx = order_tx.clone();
        scope.spawn(move || {
            let mut a = Client::connect(addr).unwrap();
            let slow = r#"{"type":"schedule","id":"slow","etc_model":{"tasks":24,"machines":3,"seed":77},"time_ms":1500}"#;
            let v = Json::parse(a.send_line(slow).unwrap().trim()).unwrap();
            slow_tx.send(("A", v)).unwrap();
        });
        // A is queued (or already running) once the daemon counted it.
        while warm.stats().unwrap().get("received").unwrap().as_u64() != Some(2) {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        scope.spawn(move || {
            let mut b = Client::connect(addr).unwrap();
            let v = Json::parse(b.send_line(&cached).unwrap().trim()).unwrap();
            order_tx.send(("B", v)).unwrap();
        });
        let (who, v) = order_rx.recv().unwrap();
        assert_eq!(who, "B", "the hit answered first: {v}");
        assert_eq!(v.get("cached").unwrap().as_bool(), Some(true), "{v}");
        let (who, v) = order_rx.recv().unwrap();
        assert_eq!(who, "A");
        assert_eq!(v.get("type").unwrap().as_str(), Some("result"), "{v}");
        assert_eq!(v.get("cached").unwrap().as_bool(), Some(false), "{v}");
    });

    let stats = warm.stats().unwrap();
    for (key, want) in [("cache_hits", 1), ("cache_misses", 2), ("coalesced", 0), ("completed", 3)]
    {
        assert_eq!(stats.get(key).unwrap().as_u64(), Some(want), "{key}: {stats}");
    }
    handle.shutdown();
    handle.join();
}

#[test]
fn seen_line_hits_skip_the_decode_and_answer_as_the_full_path() {
    let handle = spawn(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let etc = "[[1,10,4],[10,1,4],[5,5,5],[2.5,8,1e1]]";
    let line = |id: &str, seed: u64, etc: &str| {
        format!(
            r#"{{"type":"schedule","id":"{id}","etc":{etc},"evals":300,"seed":{seed},"assignment":true}}"#
        )
    };
    let mut ask = |line: String| Json::parse(client.send_line(&line).unwrap().trim()).unwrap();
    let counts = |stats: &Json| {
        let n = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap();
        (n("cache_hits"), n("unscanned_hits"), n("known_lines"))
    };
    let cached = |v: &Json| v.get("cached").and_then(Json::as_bool);
    // An answer apart from what tells requests apart: `id` and `cached`.
    let answer = |v: &Json| match v {
        Json::Obj(fields) => {
            Json::Obj(fields.iter().filter(|(k, _)| k != "id" && k != "cached").cloned().collect())
        }
        other => other.clone(),
    };

    // The miss takes the full path, which enters the line; the table
    // then answers the same line again as the cache would.
    let first = ask(line("a", 1, etc));
    assert_eq!(cached(&first), Some(false), "{first}");
    let again = ask(line("a", 1, etc));
    assert_eq!(cached(&again), Some(true), "{again}");
    assert_eq!(answer(&again), answer(&first));
    let stats = ask(r#"{"type":"stats"}"#.into());
    assert_eq!(counts(&stats), (1, 1, 1), "{stats}");

    // Another id, or the same matrix in other bytes, is another line: a
    // normal cache hit that enters it, then an unscanned one.
    for other in [line("b", 1, etc), line("a", 1, &etc.replace(',', ", "))] {
        for _ in 0..2 {
            let hit = ask(other.clone());
            assert_eq!(cached(&hit), Some(true), "{hit}");
            assert_eq!(answer(&hit), answer(&first));
        }
    }
    let stats = ask(r#"{"type":"stats"}"#.into());
    assert_eq!(counts(&stats), (5, 3, 3), "{stats}");

    // Another seed runs the engine, and is an unscanned hit afterwards.
    let reseeded = ask(line("c", 2, etc));
    assert_eq!(cached(&reseeded), Some(false), "{reseeded}");
    let reseeded_hit = ask(line("c", 2, etc));
    assert_eq!(cached(&reseeded_hit), Some(true), "{reseeded_hit}");
    let stats = ask(r#"{"type":"stats"}"#.into());
    assert_eq!(counts(&stats), (6, 4, 4), "{stats}");

    // Other verbs carrying the same matrix never enter the table.
    let opened = ask(format!(r#"{{"type":"stream.open","etc":{etc},"evals":50}}"#));
    assert_eq!(opened.get("type").and_then(Json::as_str), Some("stream_opened"), "{opened}");
    let stats = ask(r#"{"type":"stats"}"#.into());
    assert_eq!(counts(&stats), (6, 4, 4), "{stats}");

    handle.shutdown();
    handle.join();
}

#[test]
fn zero_cache_cap_keeps_no_lines() {
    let handle = spawn(ServeConfig { cache_cap: 0, ..ServeConfig::default() });
    let mut client = Client::connect(handle.addr()).unwrap();
    let line = r#"{"type":"schedule","etc":[[1,2],[2,1],[3,1]],"evals":100}"#;
    for _ in 0..2 {
        let reply = Json::parse(client.send_line(line).unwrap().trim()).unwrap();
        assert_eq!(reply.get("cached").and_then(Json::as_bool), Some(false), "{reply}");
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("known_lines").and_then(Json::as_u64), Some(0), "{stats}");
    assert_eq!(stats.get("unscanned_hits").and_then(Json::as_u64), Some(0), "{stats}");
    handle.shutdown();
    handle.join();
}

#[test]
fn job_verbs_without_a_data_dir_answer_an_error() {
    let handle = spawn(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let verbs = [
        r#"{"type":"job.start","job":"j1","etc_model":{"tasks":4,"machines":2},"gens":1}"#,
        r#"{"type":"job.status","job":"j1"}"#,
        r#"{"type":"job.log","job":"j1","tail":5}"#,
        r#"{"type":"job.stop","job":"j1"}"#,
        r#"{"type":"job.archive","job":"j1"}"#,
        r#"{"type":"job.list"}"#,
    ];
    for line in verbs {
        let v = Json::parse(client.send_line(line).unwrap().trim()).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("error"), "{line} -> {v}");
        let message = v.get("message").unwrap().as_str().unwrap();
        assert!(message.contains("durable jobs are disabled"), "{line}: {message}");
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("errors").unwrap().as_u64(), Some(verbs.len() as u64), "{stats}");
    handle.shutdown();
    handle.join();
}
