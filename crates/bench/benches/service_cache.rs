//! E10 — service cache levels on the Theorem 2 acyclic workload.
//!
//! Three configurations of `pq-service`, same chain query, same database:
//!
//! * `cold`        — both cache levels disabled: parse + classify + plan +
//!   evaluate on every request (the one-shot library path, plus service
//!   overhead);
//! * `plan_warm`   — plan cache only: evaluation still runs, but from the
//!   stored plan (no re-parse, no re-classification);
//! * `result_warm` — both levels on and pre-warmed: the request is answered
//!   from the result cache without touching the admission gate.
//!
//! The acceptance bar from ISSUE 2: `result_warm` at least 10× below
//! `cold`. `repro` checks the same ratio programmatically; this bench
//! exposes the raw latencies.

use criterion::{criterion_group, criterion_main, Criterion};
use pq_bench::workloads::chain_database;
use pq_service::{CacheOutcome, QueryService, RequestLimits, ServiceConfig};

/// Source text of the acyclic chain query (the service caches by text, so
/// the bench goes through the full front door, unlike the AST-level
/// workload helpers).
fn chain_query_src(len: usize) -> String {
    let body: Vec<String> = (0..len)
        .map(|i| format!("R{i}(x{i}, x{})", i + 1))
        .collect();
    format!("G(x0, x{len}) :- {}.", body.join(", "))
}

fn service(plan_cache: usize, result_cache: usize) -> QueryService {
    QueryService::new(ServiceConfig {
        workers: 2,
        queue_depth: 16,
        plan_cache_capacity: plan_cache,
        result_cache_capacity: result_cache,
        ..ServiceConfig::default()
    })
}

fn cache_levels(c: &mut Criterion) {
    let mut group = c.benchmark_group("service/cache_levels_chain6");
    group.sample_size(20);
    let db = chain_database(6, 300, 50, 7);
    let src = chain_query_src(6);
    let limits = RequestLimits::default();

    let cold = service(0, 0);
    cold.load_database("d", db.clone()).unwrap();
    group.bench_function("cold", |b| {
        b.iter(|| {
            let resp = cold.query("d", &src, limits).unwrap();
            assert_eq!(resp.cache, CacheOutcome::Miss);
            resp.rows.len()
        })
    });
    cold.shutdown();

    let plan_warm = service(256, 0);
    plan_warm.load_database("d", db.clone()).unwrap();
    plan_warm.query("d", &src, limits).unwrap(); // warm the plan cache
    group.bench_function("plan_warm", |b| {
        b.iter(|| {
            let resp = plan_warm.query("d", &src, limits).unwrap();
            assert_eq!(resp.cache, CacheOutcome::PlanHit);
            resp.rows.len()
        })
    });
    plan_warm.shutdown();

    let result_warm = service(256, 1024);
    result_warm.load_database("d", db).unwrap();
    result_warm.query("d", &src, limits).unwrap(); // warm both levels
    group.bench_function("result_warm", |b| {
        b.iter(|| {
            let resp = result_warm.query("d", &src, limits).unwrap();
            assert_eq!(resp.cache, CacheOutcome::ResultHit);
            resp.rows.len()
        })
    });
    result_warm.shutdown();

    group.finish();
}

criterion_group!(benches, cache_levels);
criterion_main!(benches);
