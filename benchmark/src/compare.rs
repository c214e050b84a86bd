//! Sets of runs and their comparison. `run` makes a set: every workload a
//! few times, interleaved so that a neighbour's burst on the shared box
//! lands on every workload alike, each run in a fresh child process (clean
//! allocator, its own peak RSS). `compare` holds two sets against each
//! end-to-end metric's bound; it is the check for "did this change regress
//! anything", and, run on two sets of one commit, for "is the benchmark
//! steady enough to say".

use std::process::{Command, ExitCode};

use crate::driver::Scratch;
use crate::json::{self, Json};
use crate::report::{Better, END_TO_END, PER_LAYER};
use crate::{stats, Args, FULL_SECONDS, WORKLOADS};

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The machine and toolchain a number was taken on.
pub fn environment() -> Json {
    let load = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::Object(vec![
        ("nproc".into(), Json::Number(nproc as f64)),
        (
            "load_1min".into(),
            Json::Number(
                load.split_whitespace()
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(-1.0),
            ),
        ),
        ("rustc".into(), Json::String(command_line("rustc", &["-V"]))),
        (
            "git_head".into(),
            Json::String(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

/// One child run of this binary; its result object. A child exits non-zero
/// with a result when operations failed (the set records them and fails at
/// its end) and without one when it broke, which is an error here.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    json::parse(last).map_err(|e| {
        format!(
            "{workload} seed {seed} ended with {} and no result ({e}):\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        )
    })
}

fn metric_values(result: &Json) -> Vec<(String, f64)> {
    result
        .get("metrics")
        .and_then(Json::as_object)
        .unwrap_or_default()
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect()
}

/// What a workload's runs of a set came to.
#[derive(Default, Clone)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Each end-to-end metric's value in every run.
    metrics: Vec<(String, Vec<f64>)>,
    /// The traced run's metrics.
    layers: Vec<(String, f64)>,
}

/// `benchmark run`.
pub fn run_set(args: &Args) -> ExitCode {
    if args.flag("--quick") {
        return quick(args.number("--seed", 1));
    }
    let Some(out_path) = args.value("--out") else {
        eprintln!("run: --out FILE is required");
        return ExitCode::from(2);
    };
    let seed: u64 = args.number("--seed", 1);
    let rounds: u64 = args.number("--rounds", 3);
    let seconds: f64 = args.number("--seconds", FULL_SECONDS);
    let workloads: Vec<&str> = match args.value("--workload") {
        Some(w) => vec![w],
        None => WORKLOADS.to_vec(),
    };
    let env = environment();

    let mut results = vec![Tally::default(); workloads.len()];
    for round in 0..rounds {
        for (w, workload) in workloads.iter().enumerate() {
            let result = match child(workload, seed + round, seconds, false) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let number = |k| result.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
            results[w].attempted += number("attempted");
            results[w].failed += number("failed");
            for (name, value) in metric_values(&result) {
                match results[w].metrics.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, values)) => values.push(value),
                    None => results[w].metrics.push((name, vec![value])),
                }
            }
            eprintln!("round {round} {workload}: {}", result.render());
        }
    }
    if args.flag("--trace") {
        for (w, workload) in workloads.iter().enumerate() {
            match child(workload, seed, seconds, true) {
                Ok(r) => {
                    results[w].failed +=
                        r.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
                    results[w].layers = metric_values(&r);
                }
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    let mut doc = vec![
        ("environment".to_string(), env),
        ("seed".into(), Json::Number(seed as f64)),
        ("rounds".into(), Json::Number(rounds as f64)),
        ("seconds".into(), Json::Number(seconds)),
    ];
    let failed: u64 = results.iter().map(|t| t.failed).sum();
    let mut by_workload = Vec::new();
    for (workload, tally) in workloads.iter().zip(results) {
        let Tally {
            attempted,
            failed,
            metrics,
            layers,
        } = tally;
        println!("{workload}: {attempted} operations attempted, {failed} failed");
        let mut end_to_end = Vec::new();
        for (name, values) in metrics {
            let unit = END_TO_END
                .iter()
                .find(|d| d.name == name)
                .map_or("", |d| d.unit);
            let spread = stats::spread(&values);
            println!(
                "  {name:<14} median {:>14.6} {unit:<4} spread {:>6.2} % over {} runs",
                stats::median(&values),
                spread * 100.0,
                values.len()
            );
            end_to_end.push((
                name,
                Json::Object(vec![
                    ("unit".into(), Json::String(unit.into())),
                    ("median".into(), Json::Number(stats::median(&values))),
                    ("spread".into(), Json::Number(spread)),
                    (
                        "runs".into(),
                        Json::Array(values.into_iter().map(Json::Number).collect()),
                    ),
                ]),
            ));
        }
        let per_layer = layers
            .into_iter()
            .map(|(name, value)| {
                let unit = PER_LAYER
                    .iter()
                    .find(|d| d.name == name)
                    .map_or("", |d| d.unit);
                println!("  {name:<34} {value:>16.6} {unit}");
                (
                    name,
                    Json::Object(vec![
                        ("unit".into(), Json::String(unit.into())),
                        ("value".into(), Json::Number(value)),
                    ]),
                )
            })
            .collect();
        by_workload.push((
            (*workload).to_string(),
            Json::Object(vec![
                ("attempted".into(), Json::Number(attempted as f64)),
                ("failed".into(), Json::Number(failed as f64)),
                ("end_to_end".into(), Json::Object(end_to_end)),
                ("per_layer".into(), Json::Object(per_layer)),
            ]),
        ));
    }
    doc.push(("workloads".into(), Json::Object(by_workload)));
    // One workload per line keeps the file readable and diffs small.
    let text = Json::Object(doc).render().replace("},\"", "},\n\"");
    if let Err(e) = std::fs::write(out_path, text + "\n") {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    if failed > 0 {
        eprintln!("{failed} operations failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Counters that must repeat exactly for a seed: the measured stretch is a
/// fixed operation sequence. On `wire-write` only the number of appends
/// does: what a read returns, which reads hit, and the size of a WAL record
/// (the log holds the database's state after each write) all depend on how
/// the two clients interleave.
const EXACT: [&str; 6] = [
    "core.rows_out",
    "wal.appends",
    "wal.bytes",
    "service.result_hit_share",
    "service.plan_hit_share",
    "service.semantic_hit_share",
];

fn exact_counters(workload: &str) -> impl Iterator<Item = &'static str> + '_ {
    EXACT
        .into_iter()
        .filter(move |&name| workload != "wire-write" || name == "wal.appends")
}

/// `benchmark run --quick`: every workload twice, back to back, one round
/// each (a tenth of a full run's operations) with the traced stretch, every
/// answer checked; the exact counters of the two must be equal.
fn quick(seed: u64) -> ExitCode {
    let scratch = Scratch::new();
    let mut bad = false;
    for workload in WORKLOADS {
        let runs = [(); 2].map(|()| crate::run(workload, seed, 1.0, true, &scratch));
        eprintln!(
            "{workload}: {} operations attempted, {} failed",
            runs.iter().map(|r| r.attempted).sum::<u64>(),
            runs.iter().map(|r| r.failed).sum::<u64>()
        );
        for failure in runs.iter().flat_map(|r| &r.failures) {
            eprintln!("  FAILED {failure}");
        }
        for name in exact_counters(workload) {
            match (runs[0].value(name), runs[1].value(name)) {
                (None, None) => {}
                (a, b) if a == b => eprintln!("  {name} repeats: {}", a.unwrap_or(f64::NAN)),
                (a, b) => {
                    eprintln!("  FAILED {workload}: {name} was {a:?}, then {b:?}");
                    bad = true;
                }
            }
        }
        bad |= runs.iter().any(|r| r.failed > 0);
    }
    if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The runs spread wider than the bound and the two sets overlap:
    /// neither "regressed" nor "unchanged" can be said.
    Unresolved,
}

/// Hold set `b` against baseline `a` for one metric.
pub fn verdict(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    // Orient so that larger is worse.
    let orient = |v: &[f64]| -> Vec<f64> {
        v.iter()
            .map(|&x| if better == Better::Lower { x } else { -x })
            .collect()
    };
    let (a, b) = (orient(a), orient(b));
    let (ma, mb) = (stats::median(&a), stats::median(&b));
    let worse_by = (mb - ma) / ma.abs();
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    if stats::spread(&a).max(stats::spread(&b)) > bound {
        if max(&b) < min(&a) {
            Verdict::Ok
        } else if worse_by > bound && min(&b) > max(&a) {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn runs_of(set: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let runs = set
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("runs")?
        .as_array()?;
    runs.iter().map(Json::as_f64).collect()
}

/// `benchmark compare A.json B.json`: one row per workload and end-to-end
/// metric. Exits non-zero on a regression or on more failed operations.
pub fn compare_files(a_path: &str, b_path: &str) -> ExitCode {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|t| json::parse(&t))
            .map_err(|e| eprintln!("{path}: {e}"))
    };
    let (Ok(a), Ok(b)) = (read(a_path), read(b_path)) else {
        return ExitCode::from(2);
    };
    let mut regressed = false;
    println!(
        "{:<11} {:<13} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "A spread", "B spread", "bound"
    );
    for workload in WORKLOADS {
        for def in &END_TO_END {
            let (Some(ra), Some(rb)) = (
                runs_of(&a, workload, def.name),
                runs_of(&b, workload, def.name),
            ) else {
                continue;
            };
            let bound = def.bound.expect("end-to-end metrics have bounds");
            let v = verdict(def.better, bound, &ra, &rb);
            regressed |= v == Verdict::Regressed;
            println!(
                "{workload:<11} {:<13} {:>14.6} {:>14.6} {:>7.2}% {:>7.2}% {:>5.0}%  {}",
                def.name,
                stats::median(&ra),
                stats::median(&rb),
                stats::spread(&ra) * 100.0,
                stats::spread(&rb) * 100.0,
                bound * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let failed = |set: &Json| {
            set.get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("failed"))
                .and_then(Json::as_f64)
        };
        if let (Some(fa), Some(fb)) = (failed(&a), failed(&b)) {
            if fb > fa {
                println!("{workload:<11} failed operations rose from {fa} to {fb}: regressed");
                regressed = true;
            }
        }
        // Sets of one seed played the same operation sequences.
        if a.get("seed").and_then(Json::as_f64) == b.get("seed").and_then(Json::as_f64) {
            for name in exact_counters(workload) {
                let layer = |set: &Json| {
                    set.get("workloads")?
                        .get(workload)?
                        .get("per_layer")?
                        .get(name)?
                        .get("value")?
                        .as_f64()
                };
                // A layer the workload does not reach reads 0 in both.
                match (layer(&a), layer(&b)) {
                    (Some(va), Some(vb)) if (va, vb) != (0.0, 0.0) => {
                        let same = if va == vb { "repeats" } else { "DIFFERS" };
                        println!("{workload:<11} {name:<34} {va:>16} {vb:>16}  {same}");
                    }
                    _ => {}
                }
            }
        }
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_apply_in_the_metric_s_direction() {
        let a = [100.0, 101.0, 99.0];
        assert_eq!(
            verdict(Better::Lower, 0.10, &a, &[105.0, 104.0, 106.0]),
            Verdict::Ok
        );
        assert_eq!(
            verdict(Better::Lower, 0.10, &a, &[115.0, 114.0, 116.0]),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(Better::Lower, 0.10, &a, &[50.0, 51.0, 49.0]),
            Verdict::Ok
        );
        assert_eq!(
            verdict(Better::Higher, 0.10, &a, &[85.0, 86.0, 84.0]),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(Better::Higher, 0.10, &a, &[150.0, 151.0, 149.0]),
            Verdict::Ok
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_the_sets_separate() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            verdict(
                Better::Lower,
                0.10,
                &noisy,
                &[85.0, 105.0, 125.0, 95.0, 115.0]
            ),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(
                Better::Lower,
                0.10,
                &noisy,
                &[200.0, 210.0, 190.0, 205.0, 195.0]
            ),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(Better::Lower, 0.10, &noisy, &[40.0, 50.0, 60.0, 45.0, 55.0]),
            Verdict::Ok
        );
    }
}
