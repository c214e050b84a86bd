//! `crash-recover`: what a restart after a crash costs. Set-up builds a
//! crashed WAL directory — `wire-write`'s durable service with its view,
//! one snapshot, then [`TAIL`] single-row writes, stopped without a drain or
//! `PERSIST`. An operation is one cold start on a copy of that directory:
//! `QueryService::try_new` reads the snapshot and replays the tail. No
//! sockets and one thread, so nothing but recovery is timed.

use std::path::PathBuf;
use std::time::Instant;

use pq_data::Database;

use pq_data::Tuple;
use pq_service::QueryService;

use crate::check::{oracle, Answer};
use crate::driver::{overrun_limit, set_up_repeatedly, Scratch};
use crate::gen::{dataset, SERVICE};
use crate::report::{Lap, Outcome, Stolen};
use crate::service_run::cold_start;
use crate::stats;
use crate::wire::{service_config, DEFAULT_CACHES};
use crate::workloads::{joining_rows, write_reads, DB, VIEW};

/// WAL records past the snapshot: half a snapshot cycle of 256, what a crash
/// at a random moment leaves on average.
const TAIL: u64 = 128;
/// A lap is one cold start: with the copy before it and the checks after,
/// a quarter of a second on the build box.
const STARTS_PER_SECOND: f64 = 4.0;

/// A durable service on `db` with the view registered, written to — `row`
/// toggled in and out of `R1` — until one snapshot and about
/// [`TAIL`] more records are on disk, then dropped as a crash would drop it.
/// The toggles come to an even number, so the database ends as it began.
/// Returns the directory and the records past the snapshot.
fn crashed_directory(db: Database, row: &Tuple, scratch: &Scratch) -> (PathBuf, u64) {
    let dir = scratch.fresh_dir();
    let svc = QueryService::try_new(service_config(DEFAULT_CACHES, Some(dir.clone())))
        .expect("start the durable service");
    svc.load_database(DB, db).expect("load the dataset");
    let _subscription = svc.subscribe(DB, VIEW).expect("register the view");
    let mut toggles = 0u64;
    let toggle = |toggles: &mut u64| {
        let row = vec![row.clone()];
        if toggles.is_multiple_of(2) {
            svc.insert_rows(DB, "R1", row).expect("inserts");
        } else {
            svc.delete_rows(DB, "R1", row).expect("deletes");
        }
        *toggles += 1;
    };
    // Starting on an empty directory counts as a snapshot already.
    let at_start = svc.stats().snapshots_taken;
    while svc.stats().snapshots_taken == at_start {
        toggle(&mut toggles);
    }
    let tail = TAIL + (toggles + TAIL) % 2;
    for _ in 0..tail {
        toggle(&mut toggles);
    }
    assert_eq!(
        svc.stats().snapshots_taken,
        at_start + 1,
        "the tail fits a cycle"
    );
    (dir, tail)
}

pub fn run(seed: u64, seconds: f64, traced: bool, scratch: &Scratch) -> Outcome {
    let mut out = Outcome::default();
    let db = dataset(seed, &SERVICE);
    let row = joining_rows(seed, &db, 1).pop().expect("one row");
    // Every write was undone, so the recovered service must answer
    // `wire-write`'s reads as the reference does on the dataset itself.
    let reads: Vec<(String, Answer)> = write_reads()
        .into_iter()
        .map(|text| {
            let want = Answer::of_relation(&oracle(&text, &db));
            (text, want)
        })
        .collect();

    let ((dir, tail_records), setups) = set_up_repeatedly(
        seconds,
        || crashed_directory(dataset(seed, &SERVICE), &row, scratch),
        |(dir, _)| {
            let _ = std::fs::remove_dir_all(dir);
        },
    );

    let starts = crate::laps(seconds, STARTS_PER_SECOND);
    let limit = overrun_limit(starts as f64 / STARTS_PER_SECOND, traced);
    let mut laps = Vec::new();
    let stolen = Stolen::start();
    let begun = Instant::now();
    for n in 0..starts {
        if n > 0 && begun.elapsed() > limit {
            out.notes.push(format!(
                "cut short of {starts} cold starts: the stretch ran past {:.1} s",
                limit.as_secs_f64()
            ));
            break;
        }
        let (took_s, replayed) = cold_start(&dir, DEFAULT_CACHES, &reads, scratch, &mut out);
        out.attempted += 1;
        if replayed != tail_records {
            out.fail(format!(
                "replayed {replayed} records, not the {tail_records} past the snapshot"
            ));
        }
        laps.push(Lap {
            rate: 1.0 / took_s,
            samples: vec![(0, took_s * 1e3)],
        });
    }
    stolen.note(&mut out);
    out.end_to_end(&setups, &laps, None);
    let all_ms: Vec<f64> = laps.iter().map(|l| l.samples[0].1).collect();
    out.set("recovery_s", stats::median(&all_ms) / 1e3);
    out.set("durable.replayed_records", tail_records as f64);
    out
}
