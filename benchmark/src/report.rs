//! The metric tables (the same names, units, directions and bounds as
//! `BENCHMARK.json`; a unit test holds the two together), the result of one
//! run, and its rendering: a table on standard error for people, one JSON
//! object as the last line of standard output for the driver.

use crate::json::Json;
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's definition. `bound` is the share of the baseline median by
/// which an end-to-end metric may worsen before `compare` reports a
/// regression; per-layer metrics are diagnostic and have none.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. The driver's contract wants every
/// workload to report every one and none to be 0, so these are the five
/// that mean something everywhere; each workload says in its own terms what
/// an operation, its typical latency and its tail are (README, "End-to-end
/// metrics"). All are raw measurements of this box. The bounds are the
/// widest the contract allows: ten-seed spreads on this shared box reach
/// 10-20 % in its calm phases (README, "Steadiness").
pub const END_TO_END: [Def; 5] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("op_p50_ms", "ms", Lower, 0.25),
    e2e("op_tail_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.25),
];

/// Single layers, from a traced run; diagnostic, never gated. A workload
/// reports 0 for a layer it does not reach (the contract wants every name
/// from every workload). The first block is read off the measured stretch
/// itself, the second off the spans of the traced stretch (median
/// microseconds of the calls made on the workload's own requests), the rest
/// is measured once, where it belongs.
pub const PER_LAYER: [Def; 66] = [
    // The measured stretch: latency per operation class.
    layer("read_p50_ms", "ms", Lower),
    layer("read_p99_ms", "ms", Lower),
    layer("chain_p50_ms", "ms", Lower),
    layer("neq_p50_ms", "ms", Lower),
    layer("triangle_p50_ms", "ms", Lower),
    layer("count_p50_ms", "ms", Lower),
    layer("datalog_p50_ms", "ms", Lower),
    layer("write_p50_ms", "ms", Lower),
    layer("write_p95_ms", "ms", Lower),
    layer("recovery_s", "s", Lower),
    // The measured stretch: `STATS` deltas and what the clients received.
    layer("service.result_hit_share", "ratio", Higher),
    layer("service.plan_hit_share", "ratio", Higher),
    layer("service.semantic_hit_share", "ratio", Higher),
    layer("service.view_answered_share", "ratio", Higher),
    layer("service.rejected_overload", "count", Lower),
    layer("service.resource_exhausted", "count", Lower),
    layer("service.errors", "count", Lower),
    layer("wal.appends", "count", Lower),
    layer("wal.bytes", "B", Lower),
    layer("wal.bytes_per_append", "B", Lower),
    layer("wal_bytes_per_row", "B", Lower),
    layer("wal.snapshots_taken", "count", Lower),
    layer("durable.replayed_records", "count", Lower),
    layer("ivm.maintain_fallbacks", "count", Lower),
    layer("ivm.deltas_received", "count", Lower),
    layer("core.rows_out", "count", Lower),
    layer("protocol.response_bytes", "B", Lower),
    // Spans of the traced stretch.
    layer("wire.overhead_us", "us", Lower),
    layer("protocol.parse_request_us", "us", Lower),
    layer("protocol.render_us", "us", Lower),
    layer("protocol.render_ns_per_row", "ns", Lower),
    layer("service.query_us.miss", "us", Lower),
    layer("service.query_us.plan_hit", "us", Lower),
    layer("service.query_us.result_hit", "us", Lower),
    layer("service.insert_us", "us", Lower),
    layer("service.delete_us", "us", Lower),
    layer("query.parse_cq_us", "us", Lower),
    layer("query.canonical_form_us", "us", Lower),
    layer("analyze.analyze_us", "us", Lower),
    layer("hypergraph.join_tree_us", "us", Lower),
    layer("hypergraph.decompose_us", "us", Lower),
    layer("core.plan_us", "us", Lower),
    layer("core.plan_count_us", "us", Lower),
    layer("core.execute_us", "us", Lower),
    layer("core.rows_examined_per_result", "ratio", Lower),
    layer("engine.yannakakis_us", "us", Lower),
    layer("engine.colorcoding_us", "us", Lower),
    layer("engine.hypertree_us", "us", Lower),
    layer("engine.datalog_us", "us", Lower),
    layer("engine.naive_us", "us", Lower),
    layer("count.count_us", "us", Lower),
    layer("trace.coverage", "ratio", Higher),
    layer("trace.overhead_share", "ratio", Lower),
    // `lib-scale`: fitted exponents, and pq-data on its largest instance.
    layer("engine.yannakakis_slope", "ratio", Lower),
    layer("engine.colorcoding_slope", "ratio", Lower),
    layer("engine.hypertree_slope", "ratio", Lower),
    layer("engine.datalog_slope", "ratio", Lower),
    layer("engine.naive_slope", "ratio", Lower),
    layer("count.slope", "ratio", Lower),
    layer("engine.colorcoding_family_size", "count", Lower),
    layer("data.natural_join_ns_per_row", "ns", Lower),
    layer("data.semijoin_ns_per_row", "ns", Lower),
    layer("data.project_ns_per_row", "ns", Lower),
    layer("data.load_mib_per_s", "MiB/s", Higher),
    // `wire-write`: the layers under a write, called directly.
    layer("ivm.maintain_us", "us", Lower),
    layer("durable.persist_ms", "ms", Lower),
];

/// The result of one run of one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, in words.
    pub failures: Vec<String>,
    /// `(name, value)`: every end-to-end metric, and after a traced run the
    /// per-layer metrics of the layers the workload reaches.
    pub metrics: Vec<(&'static str, f64)>,
    /// Counts and choices worth a line beside the numbers.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is {value}");
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|d| d.name == name),
            "{name} is in neither metric table"
        );
        assert!(self.value(name).is_none(), "{name} measured twice");
        self.metrics.push((name, value));
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }

    pub fn absorb(&mut self, log: &crate::driver::Log) {
        self.attempted += log.samples.len() as u64;
        self.failed += log.failed;
        let room = 5usize.saturating_sub(self.failures.len());
        self.failures
            .extend(log.failures.iter().take(room).cloned());
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    /// The value `table` reports for `d`: an end-to-end metric must have been
    /// measured; a per-layer metric the workload does not reach reads 0.
    fn reported(&self, d: &Def) -> f64 {
        match (self.value(d.name), d.bound) {
            (Some(v), _) => v,
            (None, None) => 0.0,
            (None, Some(_)) => panic!("the run did not measure {}", d.name),
        }
    }

    /// The driver's result object: `correct`, `attempted`, `failed` and every
    /// metric of `table`, values with all their digits.
    pub fn to_json(&self, table: &[Def]) -> Json {
        let metrics = table
            .iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    Json::Object(vec![
                        ("value".into(), Json::Number(self.reported(d))),
                        ("unit".into(), Json::String(d.unit.into())),
                    ]),
                )
            })
            .collect();
        Json::Object(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::Number(self.attempted as f64)),
            ("failed".into(), Json::Number(self.failed as f64)),
            ("metrics".into(), Json::Object(metrics)),
        ])
    }

    /// Every metric measured, by name with its unit, for people.
    pub fn print_table(&self, workload: &str) {
        eprintln!(
            "{workload}: {} operations attempted, {} failed",
            self.attempted, self.failed
        );
        for f in &self.failures {
            eprintln!("  FAILED {f}");
        }
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            if let Some(v) = self.value(d.name) {
                eprintln!("  {:<34} {v:>16.6} {}", d.name, d.unit);
            }
        }
        for n in &self.notes {
            eprintln!("  note: {n}");
        }
    }

    /// Record the end-to-end metrics every workload reports, each read off
    /// the fastest quarter of what the run repeated (see [`Lap`]): the
    /// median of the fastest quarter of its set-ups, and what the fastest
    /// quarter of its laps says; `tail_class` picks the operations whose
    /// tail the workload shows, all of them when `None`.
    pub fn end_to_end(&mut self, setups_s: &[f64], laps: &[Lap], tail_class: Option<u32>) {
        let setups = stats::sorted(setups_s.to_vec());
        self.set(
            "setup_s",
            stats::median(&setups[..setups.len().div_ceil(4)]),
        );
        let mut by_rate: Vec<&Lap> = laps.iter().collect();
        by_rate.sort_by(|a, b| b.rate.total_cmp(&a.rate));
        let fast = &by_rate[..laps.len().div_ceil(4)];
        let rates: Vec<f64> = fast.iter().map(|l| l.rate).collect();
        self.set("ops_per_s", stats::median(&rates));

        let samples = || fast.iter().flat_map(|l| &l.samples);
        let mut classes: Vec<u32> = samples().map(|s| s.0).collect();
        classes.sort_unstable();
        classes.dedup();
        let of =
            |class: u32| -> Vec<f64> { samples().filter(|s| s.0 == class).map(|s| s.1).collect() };
        let log_sum: f64 = classes.iter().map(|&c| stats::median(&of(c)).ln()).sum();
        self.set("op_p50_ms", (log_sum / classes.len() as f64).exp());

        let tail = stats::sorted(match tail_class {
            Some(c) => of(c),
            None => samples().map(|s| s.1).collect(),
        });
        if stats::tail_quantile(&tail, TAIL).is_none() {
            self.notes.push(format!(
                "op_tail_ms rests on {} operations: fewer than {} beyond p95",
                tail.len(),
                stats::TAIL_SUPPORT
            ));
        }
        self.set("op_tail_ms", stats::quantile_sorted(&tail, TAIL));
        self.set("peak_rss_mib", peak_rss_mib());

        let all: Vec<f64> = laps.iter().map(|l| l.rate).collect();
        self.notes.push(format!(
            "{} set-ups, median {:.6} s; {} laps, the fastest {} used; ops_per_s over all laps: median {:.4}, quartile spread {:.1} %",
            setups_s.len(),
            stats::median(setups_s),
            laps.len(),
            fast.len(),
            stats::median(&all),
            stats::spread(&all) * 100.0
        ));
    }
}

/// Percentile of the operations that `op_tail_ms` reads. p95 and not p99: on
/// two shared virtual CPUs the p99 of a 0.2 ms round trip is the
/// hypervisor's scheduling (over ten runs it spread by 29 % where the p95
/// spread by 5 %). `read_p99_ms` stays among the per-layer metrics.
const TAIL: f64 = 0.95;

/// One lap of a measured stretch: a fixed slice of the operation sequence,
/// about a tenth of a second long.
///
/// The build box shares its cores, and a neighbour only ever slows a lap
/// down: over a hundred laps of one run the rate's distribution has a sharp
/// fast edge and a long slow side, and from run to run the median lap moved
/// two to three times as much as the fast quartile did (README,
/// "Steadiness"). So the end-to-end timings are read off the **fastest
/// quarter of the run's laps**: `ops_per_s` is the median rate of those laps,
/// and the latencies are taken over their operations pooled — the median per
/// operation class (`op_p50_ms` is the geometric mean of the class medians:
/// the plain median over unlike classes would sit in one of them and jump to
/// its neighbour from run to run) and the p95 of the class whose tail the
/// workload shows. A change to the program moves every lap, the fast ones
/// too; what the selection leaves out is the box. The median over all laps
/// is printed beside it.
pub struct Lap {
    /// Operations per second of the lap.
    pub rate: f64,
    /// `(operation class, milliseconds)` of each operation of the lap.
    pub samples: Vec<(u32, f64)>,
}

/// The hypervisor's account of the time it kept this box's virtual CPUs
/// waiting (`steal` in `/proc/stat`) while a stretch ran. A diagnostic
/// printed beside the numbers, never applied to them: a run that reads far
/// from its neighbours with a high share here was disturbed from outside.
pub struct Stolen {
    /// `(steal, all)` jiffies summed over the CPUs when the stretch began.
    start: (u64, u64),
}

impl Stolen {
    fn jiffies() -> (u64, u64) {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal
        (
            fields.get(7).copied().unwrap_or(0),
            fields.iter().take(8).sum(),
        )
    }

    pub fn start() -> Stolen {
        Stolen {
            start: Stolen::jiffies(),
        }
    }

    pub fn note(&self, out: &mut Outcome) {
        let (steal, all) = Stolen::jiffies();
        let share = (steal - self.start.0) as f64 / (all - self.start.1).max(1) as f64;
        out.notes.push(format!(
            "the hypervisor stole {:.2} % of the CPUs' time during the measured stretch",
            share * 100.0
        ));
    }
}

/// The process's high-water resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::collections::HashSet;

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Json::as_str).expect("string").to_string();
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    fn table(defs: &[Def]) -> Vec<(String, String, String, Option<f64>)> {
        defs.iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.as_str().to_string(),
                    d.bound,
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        assert_eq!(listed(&doc, "end_to_end"), table(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), table(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn timings_are_read_off_the_fastest_quarter_of_the_laps() {
        // Eight laps of two classes; the two fastest are laps 6 and 7.
        let laps: Vec<Lap> = (0..8)
            .map(|k| Lap {
                rate: 100.0 + f64::from(k),
                samples: vec![(0, 10.0 - f64::from(k)), (1, 40.0 - 4.0 * f64::from(k))],
            })
            .collect();
        let mut out = Outcome::default();
        out.end_to_end(&[4.0, 1.0, 3.0, 2.0, 5.0], &laps, Some(1));
        // Two of five set-ups are its fastest quarter.
        assert_eq!(out.value("setup_s"), Some(1.5));
        assert_eq!(out.value("ops_per_s"), Some(106.5));
        // Class medians 3.5 and 14 over the pooled laps: geometric mean 7.
        assert!((out.value("op_p50_ms").unwrap() - 7.0).abs() < 1e-12);
        // The tail is class 1's alone.
        assert_eq!(out.value("op_tail_ms"), Some(16.0));
    }

    #[test]
    fn metric_names_are_unique_and_bounds_within_the_contract() {
        let names: HashSet<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
    }
}
