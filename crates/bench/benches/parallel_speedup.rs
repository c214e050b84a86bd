//! E12 — intra-query parallel execution (`pq-exec`): four workloads at
//! 1/2/4/8 threads. The reproduction target is the *shape*: identical
//! answers at every degree, near-flat cost on a single core (the morsel
//! machinery must not tax the serial path), and speedup proportional to
//! physical cores when they exist.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pq_bench::workloads::{chain_database, chain_query, clique_instance, dag_database, tc_program};
use pq_engine::colorcoding::{self, ColorCodingOptions};
use pq_engine::datalog_eval::{self, Strategy};
use pq_engine::{naive, yannakakis, ExecutionContext};
use pq_exec::Pool;

const DEGREES: [usize; 4] = [1, 2, 4, 8];

/// A fresh unlimited context fanning out on `pool`.
fn on(pool: &Pool) -> ExecutionContext {
    ExecutionContext::unlimited().with_pool(pool)
}

fn clique_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel/clique_join");
    group.sample_size(10);
    let (db, q) = clique_instance(48, 0.5, 3, 7);
    for threads in DEGREES {
        let pool = Pool::new(threads);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
            b.iter(|| naive::evaluate_governed(&q, &db, &on(&pool)).unwrap().len())
        });
    }
    group.finish();
}

fn acyclic_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel/acyclic_path");
    group.sample_size(10);
    let q = chain_query(5);
    let db = chain_database(5, 1500, 300, 11);
    for threads in DEGREES {
        let pool = Pool::new(threads);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
            b.iter(|| {
                yannakakis::evaluate_governed(&q, &db, &on(&pool))
                    .unwrap()
                    .len()
            })
        });
    }
    group.finish();
}

fn color_coding_trials(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel/color_coding");
    group.sample_size(10);
    let q =
        pq_query::parse_cq("G(x0, x3) :- R0(x0, x1), R1(x1, x2), R2(x2, x3), x0 != x2.").unwrap();
    let db = chain_database(3, 400, 80, 13);
    let opts = ColorCodingOptions::default();
    for threads in DEGREES {
        let pool = Pool::new(threads);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
            b.iter(|| {
                colorcoding::evaluate_governed(&q, &db, &opts, &on(&pool))
                    .unwrap()
                    .len()
            })
        });
    }
    group.finish();
}

fn datalog_tc(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel/datalog_tc");
    group.sample_size(10);
    let p = tc_program();
    let db = dag_database(160, 3.0, 17);
    for threads in DEGREES {
        let pool = Pool::new(threads);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
            b.iter(|| {
                datalog_eval::evaluate_governed(&p, &db, Strategy::SemiNaive, &on(&pool))
                    .unwrap()
                    .len()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    clique_join,
    acyclic_path,
    color_coding_trials,
    datalog_tc
);
criterion_main!(benches);
