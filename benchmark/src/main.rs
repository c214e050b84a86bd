//! The repo's benchmark. See `README.md` beside this package for the
//! workloads, the metrics and how they interact.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     One run of one workload: a fixed, seed-derived operation sequence
//!     sized to `S` seconds on the build box, tracing off. The last line of
//!     standard output is the result as one JSON object; a table goes to
//!     standard error. With `--trace 0` the object holds the end-to-end
//!     metrics; with `--trace 1` a traced stretch follows and it holds the
//!     per-layer metrics, the spans going to `.bench_tmp/`.
//! benchmark run [--seed N] [--rounds R] [--seconds S] [--workload NAME]
//!               [--trace] [--quick] --out FILE
//!     A set of runs: every workload `R` times, interleaved, each run in a
//!     fresh child process with seed `N + round`; medians and spreads go to
//!     FILE with the machine's description.
//! benchmark compare A.json B.json
//!     Applies each end-to-end metric's bound to two sets.
//! ```

mod check;
mod compare;
mod driver;
mod gen;
mod json;
mod probes;
mod recover;
mod report;
mod rng;
mod scale;
mod service_run;
mod stats;
mod trace;
mod wire;
mod workloads;

use std::process::ExitCode;

use driver::Scratch;
use report::{Outcome, END_TO_END, PER_LAYER};

/// The workloads: the issue's five by their normative names, and
/// `crash-recover`, which carries the recovery time the issue wanted gated.
pub const WORKLOADS: [&str; 6] = [
    "wire-hot",
    "wire-cold",
    "wire-eval",
    "wire-write",
    "crash-recover",
    "lib-scale",
];

/// `--seconds` of a run at full length (`run_seconds` in `BENCHMARK.json`).
pub const FULL_SECONDS: f64 = 8.0;

/// Laps a run of `seconds` plays at `per_second` laps a nominal second.
pub fn laps(seconds: f64, per_second: f64) -> usize {
    ((seconds * per_second).round() as usize).max(1)
}

pub fn trace_path(workload: &str) -> String {
    format!(".bench_tmp/trace-{workload}.jsonl")
}

/// One run of `workload`: its fixed operation sequence, sized to `seconds`,
/// with tracing off, and with `traced` the traced stretch after them.
pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool, scratch: &Scratch) -> Outcome {
    match workload {
        "lib-scale" => scale::run(seed, seconds, traced),
        "crash-recover" => recover::run(seed, seconds, traced, scratch),
        _ => service_run::run(workload, seed, seconds, traced, scratch),
    }
}

fn single_run(workload: &str, seed: u64, seconds: f64, traced: bool) -> ExitCode {
    if !WORKLOADS.contains(&workload) {
        eprintln!("unknown workload `{workload}`; one of {WORKLOADS:?}");
        return ExitCode::from(2);
    }
    let scratch = Scratch::new();
    let outcome = run(workload, seed, seconds, traced, &scratch);
    drop(scratch);
    for line in compare::environment()
        .as_object()
        .expect("environment object")
    {
        eprintln!("{}: {}", line.0, line.1.render());
    }
    eprintln!("seed: {seed}, seconds: {seconds}, trace: {traced}");
    outcome.print_table(workload);
    let table = if traced {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    println!("{}", outcome.to_json(table).render());
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--name value` pairs and bare `--flag`s after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.value(name) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| panic!("`{name} {v}` is not a number")),
        }
    }
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("run") => compare::run_set(&Args(argv.split_off(1))),
        Some("compare") => match argv.as_slice() {
            [_, a, b] => compare::compare_files(a, b),
            _ => {
                eprintln!("usage: benchmark compare A.json B.json");
                ExitCode::from(2)
            }
        },
        _ => {
            let args = Args(argv);
            let Some(workload) = args.value("--workload") else {
                eprintln!(
                    "usage: benchmark --workload NAME --seed N --seconds S --trace 0|1\n       \
                     benchmark run [--seed N] [--rounds R] [--seconds S] [--workload NAME] \
                     [--trace] [--quick] --out FILE\n       \
                     benchmark compare A.json B.json\nworkloads: {WORKLOADS:?}"
                );
                return ExitCode::from(2);
            };
            single_run(
                workload,
                args.number("--seed", 1),
                args.number("--seconds", FULL_SECONDS),
                args.number::<u8>("--trace", 0) != 0,
            )
        }
    }
}
