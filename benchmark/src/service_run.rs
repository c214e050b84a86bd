//! One run of a service workload. There is one path: set-ups, then the
//! measured stretch — a fixed, seed-derived operation sequence per client,
//! tracing off — from which the end-to-end metrics, the per-class latencies
//! and the counters all come. A traced run appends a shorter stretch of the
//! same sequences with spans around each layer.

use std::collections::HashSet;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pq_data::{Database, Tuple};
use pq_service::protocol::{parse_request, render_query_response, Request};
use pq_service::{CacheOutcome, MetricsSnapshot, QueryResponse, QueryService};

use crate::check::{oracle, Answer};
use crate::driver::{
    copy_dir, drive, load, overrun_limit, set_up, set_up_repeatedly, Instance, Log, Sample,
    Scratch, Stretch,
};
use crate::gen::{dataset, SERVICE};
use crate::probes;
use crate::report::{Lap, Outcome, Stolen};
use crate::stats;
use crate::trace::{self, Recorder, Span};
use crate::wire::{planner_options, service_config, CLIENTS};
use crate::workloads::{Class, Classes, Cold, Eval, Hot, Op, Script, Workload, Write, DB};

/// Cold starts on copies of the crashed WAL directory.
const RECOVERIES: usize = 5;
/// Laps of the measured stretch per second of `--seconds`.
const LAPS_PER_SECOND: f64 = 10.0;

enum Planned {
    Hot(Hot),
    Cold(Cold),
    Eval(Eval),
    Write(Write),
}

impl Planned {
    fn new(name: &str, seed: u64, db: &Database) -> Planned {
        match name {
            "wire-hot" => Planned::Hot(Hot::plan(seed, db)),
            "wire-cold" => Planned::Cold(Cold::plan(db, SERVICE.chain_vals)),
            "wire-eval" => Planned::Eval(Eval(Classes::plan(db))),
            "wire-write" => Planned::Write(Write::plan(seed, db)),
            other => panic!("`{other}` is not a service workload"),
        }
    }

    fn workload(&self) -> &dyn Workload {
        match self {
            Planned::Hot(w) => w,
            Planned::Cold(w) => w,
            Planned::Eval(w) => w,
            Planned::Write(w) => w,
        }
    }
}

fn scripts(w: &dyn Workload) -> Vec<Box<dyn Script>> {
    (0..CLIENTS).map(|c| w.script(c)).collect()
}

fn latencies_ms<'a>(samples: impl Iterator<Item = &'a Sample>) -> Vec<f64> {
    samples.map(Sample::millis).collect()
}

/// The laps of the measured stretch: lap `k` is operations `k * lap_ops ..`
/// of every client, its rate each client's count over its own time, the
/// clients summed.
fn laps(logs: &[Log], lap_ops: usize) -> Vec<Lap> {
    // A stretch cut short may have left the clients a lap apart.
    let count = logs
        .iter()
        .map(|l| l.samples.len() / lap_ops)
        .min()
        .expect("a client");
    (0..count)
        .map(|k| {
            let slices: Vec<&[Sample]> = logs
                .iter()
                .map(|l| &l.samples[k * lap_ops..(k + 1) * lap_ops])
                .collect();
            Lap {
                rate: slices
                    .iter()
                    .map(|s| {
                        let ns = s[lap_ops - 1].end_ns - s[0].start_ns;
                        lap_ops as f64 / (ns as f64 / 1e9)
                    })
                    .sum(),
                samples: slices
                    .iter()
                    .flat_map(|s| s.iter())
                    .map(|s| (s.class as u32, s.millis()))
                    .collect(),
            }
        })
        .collect()
}

fn share(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Per-class latencies of the measured stretch, and what the clients
/// received.
fn class_metrics(logs: &[Log], out: &mut Outcome) {
    let of = |class: Class| {
        stats::sorted(latencies_ms(
            logs.iter()
                .flat_map(|l| &l.samples)
                .filter(|s| s.class == class),
        ))
    };
    for (class, p50, tail) in [
        (Class::Read, "read_p50_ms", Some(("read_p99_ms", 0.99))),
        (Class::Chain, "chain_p50_ms", None),
        (Class::Neq, "neq_p50_ms", None),
        (Class::Triangle, "triangle_p50_ms", None),
        (Class::Count, "count_p50_ms", None),
        (Class::Write, "write_p50_ms", Some(("write_p95_ms", 0.95))),
    ] {
        let ms = of(class);
        if ms.is_empty() {
            continue;
        }
        out.set(p50, stats::quantile_sorted(&ms, 0.5));
        out.notes
            .push(format!("{p50} over {} operations", ms.len()));
        if let Some((name, q)) = tail {
            // Only with ten samples beyond it (a `--seconds 1` run is short).
            match stats::tail_quantile(&ms, q) {
                Some(v) => out.set(name, v),
                None => out
                    .notes
                    .push(format!("{name} left out: {} samples", ms.len())),
            }
        }
    }
    out.set(
        "core.rows_out",
        logs.iter().map(|l| l.rows_out).sum::<u64>() as f64,
    );
    let bytes: Vec<f64> = logs
        .iter()
        .flat_map(|l| &l.response_bytes)
        .map(|&b| b as f64)
        .collect();
    out.set("protocol.response_bytes", stats::median(&bytes));
}

/// `STATS` deltas over the measured stretch.
fn counter_metrics(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    writes: usize,
    out: &mut Outcome,
) {
    let d = |f: fn(&MetricsSnapshot) -> u64| (f(after) - f(before)) as f64;
    let served = d(|s| s.queries_served);
    out.set(
        "service.result_hit_share",
        share(d(|s| s.result_hits), d(|s| s.result_hits + s.result_misses)),
    );
    out.set(
        "service.plan_hit_share",
        share(d(|s| s.plan_hits), d(|s| s.plan_hits + s.plan_misses)),
    );
    out.set(
        "service.semantic_hit_share",
        share(d(|s| s.semantic_cache_hits), served),
    );
    out.set(
        "service.view_answered_share",
        share(d(|s| s.view_answered_queries), served),
    );
    out.set("service.rejected_overload", d(|s| s.rejected_overload));
    out.set("service.resource_exhausted", d(|s| s.resource_exhausted));
    out.set("service.errors", d(|s| s.errors));
    if writes > 0 {
        out.set("wal.appends", d(|s| s.wal_appends));
        out.set("wal.bytes", d(|s| s.wal_bytes));
        out.set(
            "wal.bytes_per_append",
            share(d(|s| s.wal_bytes), d(|s| s.wal_appends)),
        );
        // Every write is one row.
        out.set(
            "wal_bytes_per_row",
            share(d(|s| s.wal_bytes), writes as f64),
        );
        out.set("wal.snapshots_taken", d(|s| s.snapshots_taken));
        out.set("ivm.maintain_fallbacks", d(|s| s.ivm_maintain_fallbacks));
    }
}

/// One run of service workload `name`: set-ups, `seconds` laps of the
/// measured stretch, the traced stretch when `traced`, and the workload's
/// checks on the way out.
pub fn run(name: &str, seed: u64, seconds: f64, traced: bool, scratch: &Scratch) -> Outcome {
    let db = dataset(seed, &SERVICE);
    let planned = Planned::new(name, seed, &db);
    let w = planned.workload();
    let mut out = Outcome::default();

    let (mut instance, setups) = set_up_repeatedly(
        seconds,
        || set_up(seed, w, scratch),
        |previous: Instance| {
            previous.tear_down();
        },
    );

    let mut scripts = scripts(w);
    let lap_ops = w.lap_ops();
    let n_laps = crate::laps(seconds, LAPS_PER_SECOND);
    let stolen = Stolen::start();
    let origin = Instant::now();
    let before = instance.served.svc.stats();
    let stretch = Stretch {
        laps: n_laps,
        lap_ops,
        limit: overrun_limit(n_laps as f64 * w.lap_seconds(), traced),
    };
    let logs = drive(
        &mut instance.clients,
        &mut scripts,
        stretch,
        origin,
        |_, _, _| {},
    );
    let after = instance.served.svc.stats();
    stolen.note(&mut out);
    let stretch_s = origin.elapsed().as_secs_f64();

    let laps = laps(&logs, lap_ops);
    out.end_to_end(&setups, &laps, w.tail().map(|c| c as u32));
    out.notes.push(format!(
        "measured stretch: {} laps of {lap_ops} operations a client, {stretch_s:.2} s",
        laps.len()
    ));
    if logs.iter().any(|l| l.samples.len() < n_laps * lap_ops) {
        out.notes.push(format!(
            "cut short of {n_laps} laps: the stretch ran past {:.1} s; its counters are partial",
            stretch.limit.as_secs_f64()
        ));
    }
    for log in &logs {
        out.absorb(log);
    }
    class_metrics(&logs, &mut out);
    let writes = logs
        .iter()
        .flat_map(|l| &l.samples)
        .filter(|s| s.class == Class::Write)
        .count();
    counter_metrics(&before, &after, writes, &mut out);

    if traced {
        // Whole `wire-write` cycles, and as much shorter as the run is.
        let ops = ((w.traced_ops() as f64 * seconds / crate::FULL_SECONDS / 10.0).ceil() as usize)
            .max(1)
            * 10;
        let rates: Vec<f64> = laps.iter().map(|l| l.rate).collect();
        let plain_rate = stats::median(&rates);
        trace_stretch(
            name,
            w,
            db,
            (&mut instance, &mut scripts),
            (ops, plain_rate),
            scratch,
            &mut out,
        );
    }
    match &planned {
        Planned::Write(write) => final_state_and_recovery(write, instance, scratch, &mut out),
        _ => {
            instance.tear_down();
        }
    }
    out
}

/// Cold-start a service on a copy of the crashed directory `dir` (recovery
/// compacts the directory it starts on, so each start gets its own copy).
/// It must replay WAL records and answer every `(text, answer)` of `reads`
/// as given. Returns the seconds `QueryService::try_new` took and the
/// records it replayed.
pub fn cold_start(
    dir: &Path,
    caches: (usize, usize),
    reads: &[(String, Answer)],
    scratch: &Scratch,
    out: &mut Outcome,
) -> (f64, u64) {
    let copy = scratch.fresh_dir();
    copy_dir(dir, &copy);
    let t = Instant::now();
    let recovered = QueryService::try_new(service_config(caches, Some(copy.clone())))
        .expect("recover from the crashed directory");
    let took = t.elapsed().as_secs_f64();
    let replayed = recovered
        .recovery_stats()
        .expect("a durable service has recovery stats")
        .replayed_records;
    out.attempted += 1;
    if replayed == 0 {
        out.fail("recovery replayed no WAL records".into());
    }
    for (text, want) in reads {
        out.attempted += 1;
        let got = recovered
            .query(DB, text, Default::default())
            .map(|r| Answer::of_relation(&r.rows));
        if got.ok() != Some(*want) {
            out.fail(format!(
                "after recovery `{text}` differs from before the crash"
            ));
        }
    }
    recovered.shutdown();
    let _ = std::fs::remove_dir_all(copy);
    (took, replayed)
}

/// `wire-write`'s checks after the loop. The database must be what the
/// reference evaluator says it is: every read query, the view's cached
/// materialization, and the subscriber's initial rows plus drained deltas
/// are compared with `naive` on the final snapshot. Then the service is
/// stopped without a drain or `PERSIST`, and a service cold-started on a
/// copy of its directory must replay WAL records and give the same answers,
/// byte for byte.
fn final_state_and_recovery(
    write: &Write,
    mut instance: Instance,
    scratch: &Scratch,
    out: &mut Outcome,
) {
    let svc = Arc::clone(&instance.served.svc);
    // Leave records in the WAL past its last snapshot, whatever the loop's
    // last append happened to be: toggle a spare row until a toggle passes
    // without a snapshot.
    loop {
        let taken = svc.stats().snapshots_taken;
        let row = vec![write.spare.clone()];
        svc.insert_rows(DB, "R1", row.clone()).expect("tail insert");
        svc.delete_rows(DB, "R1", row).expect("tail delete");
        if svc.stats().snapshots_taken == taken {
            break;
        }
    }

    let snapshot = svc.snapshot(DB).expect("final snapshot");
    let mut finals = Vec::new();
    for text in &write.reads {
        let want = Answer::of_relation(&oracle(text, &snapshot.db));
        let got = svc
            .query(DB, text, Default::default())
            .map(|r| Answer::of_relation(&r.rows));
        out.attempted += 1;
        if got.ok() != Some(want) {
            out.fail(format!("after the run `{text}` differs from the reference"));
        }
        finals.push((text.clone(), want));
    }

    let view = write.view().expect("wire-write registers a view");
    let sub = instance
        .subscription
        .take()
        .expect("the view's subscription");
    let mut rows: HashSet<Tuple> = sub.rows.iter().cloned().collect();
    let mut deltas = 0u64;
    while let Ok(update) = sub.updates.try_recv() {
        deltas += 1;
        for t in &update.removed {
            rows.remove(t);
        }
        rows.extend(update.added);
    }
    let want: HashSet<Tuple> = oracle(view, &snapshot.db).iter().cloned().collect();
    out.attempted += 1;
    if rows != want {
        out.fail("initial rows plus drained deltas differ from the view's reference".into());
    }
    out.set("ivm.deltas_received", deltas as f64);

    drop(svc);
    let dir = instance
        .tear_down()
        .expect("a durable workload has a WAL directory");
    let starts: Vec<(f64, u64)> = (0..RECOVERIES)
        .map(|_| cold_start(&dir, write.caches(), &finals, scratch, out))
        .collect();
    let seconds: Vec<f64> = starts.iter().map(|s| s.0).collect();
    out.set("recovery_s", stats::median(&seconds));
    out.set("durable.replayed_records", starts[0].1 as f64);
}

/// Send one request line to a service in this process, as the server would.
fn apply(svc: &QueryService, request: &str) -> Option<QueryResponse> {
    match parse_request(request).expect("benchmark request parses") {
        Request::Query {
            name,
            src,
            limits,
            count,
        } => Some(
            match count {
                Some(mode) => svc.query_count(&name, &src, &mode, limits),
                None => svc.query(&name, &src, limits),
            }
            .expect("twin query"),
        ),
        Request::Insert {
            name,
            relation,
            rows,
        } => {
            svc.insert_rows(&name, &relation, rows)
                .expect("twin insert");
            None
        }
        Request::Delete {
            name,
            relation,
            rows,
        } => {
            svc.delete_rows(&name, &relation, rows)
                .expect("twin delete");
            None
        }
        other => panic!("the benchmark sends no {other:?}"),
    }
}

/// Records, after each wire operation, the same request sent in process to
/// a twin service (same configuration, data and request sequence, no
/// socket), and then each layer the twin's answer says it ran, called
/// directly: `parse_cq` and `canonical_form` always; `plan` (with `analyze`,
/// `join_tree`, `decompose` under it) on a miss; `Plan::execute` and the
/// engine it chose unless the result was cached; and the protocol's parser
/// and renderer.
struct Tracer<'a> {
    twin: &'a QueryService,
    recorders: Vec<Mutex<Recorder>>,
}

fn request_id(client: usize, n: u64) -> u64 {
    ((client as u64) << 32) | n
}

fn is_twin_query(name: &str) -> bool {
    name.starts_with("service.query.")
}

impl Tracer<'_> {
    fn layers(&self, client: usize, n: u64, op: &Op) {
        let mut rec = self.recorders[client]
            .lock()
            .expect("one thread per recorder");
        let req = request_id(client, n);
        let opts = planner_options();
        let parsed = rec.span(req, "protocol.parse_request", Some("wire"), || {
            (parse_request(&op.request).expect("parses"), 0, 0)
        });
        let Request::Query { src, count, .. } = parsed else {
            let name = if op.request.starts_with("INSERT") {
                "service.insert_rows"
            } else {
                "service.delete_rows"
            };
            rec.span(req, name, Some("wire"), || {
                (apply(self.twin, &op.request), 1, 0)
            });
            return;
        };
        // The span is named after the cache outcome, known only afterwards.
        let start_ns = rec.now_ns();
        let resp = apply(self.twin, &op.request).expect("a query has a response");
        let end_ns = rec.now_ns();
        let root = match resp.cache {
            CacheOutcome::Miss => "service.query.miss",
            CacheOutcome::PlanHit => "service.query.plan_hit",
            CacheOutcome::ResultHit => "service.query.result_hit",
        };
        let rows = resp.rows.len() as u64;
        rec.spans.push(Span {
            req,
            name: root,
            parent: Some("wire"),
            start_ns,
            end_ns,
            rows_in: 0,
            rows_out: rows,
        });
        let q = rec.span(req, "query.parse_cq", Some(root), || {
            (pq_query::parse_cq(&src).expect("parses"), 0, 0)
        });
        rec.span(req, "query.canonical_form", Some(root), || {
            (pq_query::canonical_form(&q), 0, 0)
        });
        let db = self.twin.snapshot(DB).expect("twin snapshot").db;
        if count.is_some() {
            if resp.cache == CacheOutcome::Miss {
                rec.span(req, "core.plan_count", Some(root), || {
                    (pq_core::plan_count(&q, &opts), 0, 0)
                });
            }
            if resp.cache != CacheOutcome::ResultHit {
                rec.span(req, "count.count", Some(root), || {
                    let c = pq_count::count(&q, &db).expect("counts");
                    (c, db.num_tuples() as u64, 1)
                });
            }
        } else {
            let plan = if resp.cache == CacheOutcome::Miss {
                let plan = rec.span(req, "core.plan", Some(root), || {
                    (pq_core::plan(&q, &opts), 0, 0)
                });
                rec.span(req, "analyze.analyze", Some("core.plan"), || {
                    (pq_core::analyze::analyze(&q, &opts.analysis), 0, 0)
                });
                let hg = q.hypergraph();
                rec.span(req, "hypergraph.join_tree", Some("analyze.analyze"), || {
                    (pq_hypergraph::join_tree(&hg), 0, 0)
                });
                rec.span(req, "hypergraph.decompose", Some("analyze.analyze"), || {
                    (pq_hypergraph::decompose(&hg, 2), 0, 0)
                });
                Some(plan)
            } else {
                None
            };
            // A view scan ran no engine either.
            if resp.cache != CacheOutcome::ResultHit && resp.engine != "view-scan" {
                let plan = plan.unwrap_or_else(|| pq_core::plan(&q, &opts));
                let rows_in: usize = plan
                    .mentioned_relations(&q)
                    .iter()
                    .map(|r| db.relation(r).expect("mentioned relation").len())
                    .sum();
                rec.span(req, "core.execute", Some(root), || {
                    let rows = plan.execute(&q, &db).expect("executes");
                    let n = rows.len() as u64;
                    (rows, rows_in as u64, n)
                });
                // The engine's own entry point, past the planner's dispatch.
                if let Some((name, evaluate)) = probes::direct_engine(plan.engine) {
                    rec.span(req, name, Some("core.execute"), || {
                        let rows = evaluate(&q, &db);
                        let n = rows.len() as u64;
                        (rows, rows_in as u64, n)
                    });
                }
            }
        }
        rec.span(req, "protocol.render", Some("wire"), || {
            (render_query_response(&resp), rows, rows)
        });
    }
}

fn wire_spans(logs: &[Log]) -> Vec<Span> {
    let mut spans = Vec::new();
    for (client, log) in logs.iter().enumerate() {
        for (n, s) in log.samples.iter().enumerate() {
            spans.push(Span {
                req: request_id(client, n as u64),
                name: "wire",
                parent: None,
                start_ns: s.start_ns,
                end_ns: s.end_ns,
                rows_in: 0,
                rows_out: 0,
            });
        }
    }
    spans
}

/// The traced stretch: the next operations of the same sequences, each
/// followed on the client's own thread by the calls of [`Tracer::layers`].
/// The spans go to the workload's trace file as JSON lines and give the
/// per-layer timings; the stretch's own throughput against the measured
/// stretch's is what tracing costs.
fn trace_stretch(
    name: &str,
    w: &dyn Workload,
    db: Database,
    (instance, scripts): (&mut Instance, &mut [Box<dyn Script>]),
    (ops, plain_rate): (usize, f64),
    scratch: &Scratch,
    out: &mut Outcome,
) {
    if name == "wire-eval" {
        out.set(
            "engine.colorcoding_family_size",
            probes::colorcoding_family_size(&db),
        );
    }
    if name == "wire-write" {
        probes::write_path(&db, &instance.served.svc, out);
    }
    let twin = load(db, w, scratch);
    for request in w.warmup() {
        apply(&twin.svc, &request);
    }
    let origin = Instant::now();
    let tracer = Tracer {
        twin: &twin.svc,
        recorders: (0..CLIENTS)
            .map(|_| Mutex::new(Recorder::new(origin)))
            .collect(),
    };
    let stretch = Stretch {
        laps: 1,
        lap_ops: ops,
        limit: Duration::MAX,
    };
    let logs = drive(
        &mut instance.clients,
        scripts,
        stretch,
        origin,
        |c, n, op| tracer.layers(c, n, op),
    );
    let traced_rate = (CLIENTS * ops) as f64 / origin.elapsed().as_secs_f64();
    let mut spans = wire_spans(&logs);
    for rec in tracer.recorders {
        spans.extend(rec.into_inner().expect("recorder").spans);
    }
    spans.sort_by_key(|s| (s.req, s.start_ns));
    twin.svc.shutdown();
    for log in &logs {
        out.absorb(log);
    }

    trace::layer_metrics(&spans, is_twin_query, out);
    // What the socket, the framing and the encoding add: per query, the wire
    // round trip less the same request in process.
    let mut in_process = std::collections::HashMap::new();
    for s in spans.iter().filter(|s| is_twin_query(s.name)) {
        in_process.insert(s.req, s.duration_ns() as f64);
    }
    let over: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "wire")
        .filter_map(|s| Some((s.duration_ns() as f64 - in_process.get(&s.req)?) / 1e3))
        .collect();
    if !over.is_empty() {
        out.set("wire.overhead_us", stats::median(&over));
    }
    out.set("trace.overhead_share", 1.0 - traced_rate / plain_rate);
    let path = crate::trace_path(name);
    std::fs::write(&path, trace::to_json_lines(&spans)).expect("write the span file");
    out.notes.push(format!("{} spans in {path}", spans.len()));
}
