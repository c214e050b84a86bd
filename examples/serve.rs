//! Serve conjunctive queries over TCP with `pq-service`.
//!
//! Run with: `cargo run --release --example serve -- [addr] [options]`
//!
//! ```text
//! serve                          listen on 127.0.0.1:7878
//! serve 127.0.0.1:0             pick an ephemeral port (printed at startup)
//! serve --workers 8 --queue 128  evaluations that may run at once / that
//!                                may wait for a turn (past both: overloaded)
//! serve --threads 4              intra-query parallelism per evaluation
//! serve company=data/company.db  preload `company` from a loader-format file
//! serve --data-dir data          allow wire LOAD, confined to `data/`
//! serve --wal-dir state          durable catalog: recover from + journal to
//!                                `state/` (catalog.snap + catalog.wal)
//! serve --fsync interval:50      WAL fsync policy: always | never |
//!                                interval:<ms>   (default: always)
//! serve --snapshot-every 64      snapshot + rotate the WAL every N appends
//!                                (0 = only on PERSIST/SHUTDOWN; default 256)
//! ```
//!
//! Without `--data-dir` the wire `LOAD` verb is disabled (clients could
//! otherwise read any server-readable file); preloads via `name=path` are
//! resolved by *this* process and are always available.
//!
//! With `--wal-dir` the catalog survives restarts: startup replays the
//! snapshot + WAL tail (stats are printed), every mutation is write-ahead
//! logged, and the wire `SHUTDOWN` drains gracefully and seals a final
//! snapshot. Kill -9 loses at most the un-fsynced tail (nothing under
//! `--fsync always`).
//!
//! Talk to it with `examples/repl.rs`, or anything that can speak the
//! line protocol (`LOAD` / `QUERY` / `EXPLAIN` / `ANALYZE` / `STATS` /
//! `DROP` / `INSERT` / `DELETE` / `SUBSCRIBE` / `PERSIST` / `SHUTDOWN`);
//! see the README's service section for the grammar. `INSERT`/`DELETE`
//! maintain any subscribed views incrementally and are WAL-logged when
//! `--wal-dir` is set; `SUBSCRIBE` turns its connection into a live delta
//! stream.

use std::sync::Arc;

use pq_service::{
    serve, serve_with_data_dir, DurabilityConfig, FsyncPolicy, QueryService, ServiceConfig,
};

fn main() {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut config = ServiceConfig::default();
    let mut preloads: Vec<(String, String)> = Vec::new();
    let mut data_dir: Option<String> = None;
    let mut wal_dir: Option<String> = None;
    let mut fsync = FsyncPolicy::Always;
    let mut snapshot_every: u64 = 256;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" => {
                config.workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--workers needs a positive integer");
            }
            "--queue" => {
                config.queue_depth = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--queue needs a positive integer");
            }
            "--threads" => {
                config.intra_query_threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads needs a positive integer");
            }
            "--data-dir" => {
                data_dir = Some(args.next().expect("--data-dir needs a path"));
            }
            "--wal-dir" => {
                wal_dir = Some(args.next().expect("--wal-dir needs a path"));
            }
            "--fsync" => {
                let spec = args
                    .next()
                    .expect("--fsync needs always|never|interval:<ms>");
                fsync = FsyncPolicy::parse(&spec)
                    .unwrap_or_else(|e| panic!("bad --fsync `{spec}`: {e}"));
            }
            "--snapshot-every" => {
                snapshot_every = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--snapshot-every needs an unsigned integer");
            }
            "--help" | "-h" => {
                println!(
                    "usage: serve [addr] [--workers N] [--queue N] [--threads N] \
                     [--data-dir DIR] [--wal-dir DIR] [--fsync POLICY] \
                     [--snapshot-every N] [name=path ...]"
                );
                return;
            }
            other if other.contains('=') => {
                let (name, path) = other.split_once('=').unwrap();
                preloads.push((name.to_string(), path.to_string()));
            }
            other => addr = other.to_string(),
        }
    }

    if let Some(dir) = &wal_dir {
        config.durability = Some(DurabilityConfig {
            dir: dir.into(),
            fsync,
            snapshot_every,
        });
    }

    let service = Arc::new(QueryService::try_new(config).expect("cannot start service"));
    if let Some(stats) = service.recovery_stats() {
        println!(
            "recovered catalog from `{}`: {} database(s) from snapshot, \
             {} WAL record(s) replayed ({} skipped, {} torn byte(s) discarded) in {} ms",
            wal_dir.as_deref().unwrap_or("?"),
            stats.snapshot_databases,
            stats.replayed_records,
            stats.skipped_records,
            stats.torn_tail_bytes,
            stats.elapsed_ms
        );
    }
    for (name, path) in preloads {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read `{path}`: {e}"));
        let summary = service
            .load_str(&name, &text)
            .unwrap_or_else(|e| panic!("cannot load `{path}`: {e}"));
        println!(
            "preloaded {} ({} relations, {} tuples)",
            summary.name, summary.relations, summary.tuples
        );
    }

    let handle = match &data_dir {
        Some(dir) => {
            println!("wire LOAD enabled, confined to `{dir}`");
            serve_with_data_dir(addr.as_str(), service, dir).expect("bind failed")
        }
        None => serve(addr.as_str(), service).expect("bind failed"),
    };
    println!("pq-service listening on {}", handle.local_addr());
    println!("send SHUTDOWN (e.g. via the repl example) to stop");
    handle.wait();
    println!("bye");
}
