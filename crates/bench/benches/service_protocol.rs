//! Service wire-protocol hot paths: request decode, response encode,
//! cache digest and LRU lookup. These run once per daemon request, so
//! their cost bounds the protocol-limited (cache-hit) throughput that
//! `pacga bench-serve` measures end-to-end.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use etc_model::EtcInstance;
use pa_cga_service::cache::{CachedRun, ScheduleCache};
use pa_cga_service::json::Json;
use pa_cga_service::protocol::{Request, Response, ScheduleRequest};

const REQUEST_LINE: &str = r#"{"type":"schedule","id":"bench-1","etc_model":{"tasks":512,"machines":16,"consistency":"i","task_het":"hi","machine_het":"hi","seed":7},"evals":5000,"threads":2,"ls":10,"crossover":"tpx"}"#;

fn schedule_request() -> ScheduleRequest {
    match Request::decode(REQUEST_LINE).unwrap() {
        Request::Schedule(r) => *r,
        _ => unreachable!(),
    }
}

fn bench_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_protocol");
    group.bench_function("decode_request", |b| {
        b.iter(|| black_box(Request::decode(black_box(REQUEST_LINE)).unwrap()))
    });

    // Inline-matrix decode scales with payload: a 64×8 matrix line.
    let inline_line = {
        let rows: Vec<String> = (0..64)
            .map(|t| {
                let cells: Vec<String> =
                    (0..8).map(|m| format!("{}", (t * 8 + m + 1) as f64)).collect();
                format!("[{}]", cells.join(","))
            })
            .collect();
        format!(r#"{{"type":"schedule","etc":[{}],"evals":100}}"#, rows.join(","))
    };
    group.bench_function("decode_inline_64x8", |b| {
        b.iter(|| black_box(Request::decode(black_box(&inline_line)).unwrap()))
    });

    // The serve-mix shape: a 512×16 matrix of one-decimal cells (~60 KB).
    let wide_line = {
        let rows: Vec<String> = (0..512u64)
            .map(|t| {
                let cells: Vec<String> = (0..16u64)
                    .map(|m| format!("{:.1}", ((t * 16 + m) * 7919 % 50_000 + 1) as f64 / 10.0))
                    .collect();
                format!("[{}]", cells.join(","))
            })
            .collect();
        format!(r#"{{"type":"schedule","etc":[{}],"evals":100}}"#, rows.join(","))
    };
    group.bench_function("decode_inline_512x16", |b| {
        b.iter(|| black_box(Request::decode(black_box(&wide_line)).unwrap()))
    });
    group.finish();
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_protocol");
    let response = Response::Result {
        id: Some("bench-1".into()),
        instance: "u_i_hihi.0".into(),
        n_tasks: 512,
        n_machines: 16,
        makespan: 16_000_000.5,
        evaluations: 5_000,
        engine_ms: 12.25,
        cached: false,
        coalesced: false,
        assignment: Some((0..512u32).map(|t| t % 16).collect()),
    };
    group.bench_function("encode_result_512", |b| {
        b.iter(|| black_box(black_box(&response).encode()))
    });
    group.bench_function("parse_result_512", |b| {
        let line = response.encode();
        b.iter(|| black_box(Json::parse(black_box(&line)).unwrap()))
    });
    group.finish();
}

fn bench_digest_and_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_cache");
    let request = schedule_request();
    let instance = request.resolve_instance().unwrap();
    group.bench_function("digest_512x16", |b| {
        b.iter(|| black_box(request.digest(black_box(&instance))))
    });

    let toy = EtcInstance::toy(64, 8);
    let run = CachedRun {
        instance: toy.name().to_string(),
        n_tasks: toy.n_tasks(),
        n_machines: toy.n_machines(),
        makespan: 123.0,
        evaluations: 1_000,
        engine_ms: 1.0,
        assignment: vec![0; 64],
    };
    let mut cache = ScheduleCache::new(128);
    for k in 0..128u64 {
        cache.insert(k, run.clone());
    }
    group.bench_function("cache_hit", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 1) % 128;
            black_box(cache.get(black_box(k)))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_decode, bench_encode, bench_digest_and_cache);
criterion_main!(benches);
