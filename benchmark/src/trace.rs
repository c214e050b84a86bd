//! Spans recorded by the benchmark's own code around each call into a
//! layer. They stay in memory during the pass and are written as JSON lines
//! when it ends.
//!
//! The layers are timed by separate calls from outside the program, so a
//! child span does not lie inside its parent's interval: `parent` names the
//! span whose work the child repeats, and a span's self time is its duration
//! minus its children's durations.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::report::Outcome;
use crate::stats;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Request number; spans of one request share it.
    pub req: u64,
    pub name: &'static str,
    /// Name of the span, within the same request, whose work this one repeats.
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub rows_in: u64,
    pub rows_out: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span buffer; times are relative to `origin`.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run is shorter than 584 years")
    }

    /// Time `f` as span `name` of request `req`; `f` returns its result and
    /// the `(rows_in, rows_out)` it saw.
    pub fn span<T>(
        &mut self,
        req: u64,
        name: &'static str,
        parent: Option<&'static str>,
        f: impl FnOnce() -> (T, u64, u64),
    ) -> T {
        let start_ns = self.now_ns();
        let (out, rows_in, rows_out) = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            req,
            name,
            parent,
            start_ns,
            end_ns,
            rows_in,
            rows_out,
        });
        out
    }
}

/// Self time of every span: its duration minus the durations of the spans of
/// the same request that name it as parent (not below zero: an outside call
/// can take longer than the same work took inside the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<(u64, &str), u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *children.entry((s.req, p)).or_default() += s.duration_ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children.get(&(s.req, s.name)).copied().unwrap_or(0);
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Total self time per span name, largest first: where the time of the traced
/// requests went, layer by layer.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut totals: HashMap<&'static str, u64> = HashMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *totals.entry(s.name).or_default() += own;
    }
    let mut totals: Vec<_> = totals.into_iter().collect();
    totals.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    totals
}

/// One line for the report: each layer's self time as a share of all of it.
pub fn self_time_note(spans: &[Span]) -> String {
    let totals = self_time_by_name(spans);
    let all: u64 = totals.iter().map(|t| t.1).sum();
    let parts: Vec<String> = totals
        .iter()
        .map(|(name, ns)| format!("{name} {:.1} %", *ns as f64 * 100.0 / all.max(1) as f64))
        .collect();
    format!("self time: {}", parts.join(", "))
}

/// Span name, and the per-layer metric that is the median microseconds of
/// the spans of that name.
const TIMED: [(&str, &str); 21] = [
    ("protocol.parse_request", "protocol.parse_request_us"),
    ("protocol.render", "protocol.render_us"),
    ("service.query.miss", "service.query_us.miss"),
    ("service.query.plan_hit", "service.query_us.plan_hit"),
    ("service.query.result_hit", "service.query_us.result_hit"),
    ("service.insert_rows", "service.insert_us"),
    ("service.delete_rows", "service.delete_us"),
    ("query.parse_cq", "query.parse_cq_us"),
    ("query.canonical_form", "query.canonical_form_us"),
    ("analyze.analyze", "analyze.analyze_us"),
    ("hypergraph.join_tree", "hypergraph.join_tree_us"),
    ("hypergraph.decompose", "hypergraph.decompose_us"),
    ("core.plan", "core.plan_us"),
    ("core.plan_count", "core.plan_count_us"),
    ("core.execute", "core.execute_us"),
    ("engine.yannakakis", "engine.yannakakis_us"),
    ("engine.colorcoding", "engine.colorcoding_us"),
    ("engine.hypertree", "engine.hypertree_us"),
    ("engine.datalog", "engine.datalog_us"),
    ("engine.naive", "engine.naive_us"),
    ("count.count", "count.count_us"),
];

/// The per-layer metrics the spans of a traced stretch give: a median per
/// layer the requests reached (a layer they did not reach is left unset),
/// rows read per row returned by the plans executed, and the share of a
/// request's in-process time (`is_root` spans) that the layers called
/// directly under it account for.
pub fn layer_metrics(spans: &[Span], is_root: fn(&str) -> bool, out: &mut Outcome) {
    for (span, metric) in TIMED {
        let us: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == span)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect();
        if !us.is_empty() {
            out.set(metric, stats::median(&us));
        }
    }
    let total = |pick: &dyn Fn(&Span) -> bool, of: fn(&Span) -> u64| -> f64 {
        spans.iter().filter(|s| pick(s)).map(of).sum::<u64>() as f64
    };
    let executed = |s: &Span| s.name == "core.execute";
    if spans.iter().any(executed) {
        out.set(
            "core.rows_examined_per_result",
            total(&executed, |s| s.rows_in) / total(&executed, |s| s.rows_out).max(1.0),
        );
    }
    let rendered = |s: &Span| s.name == "protocol.render" && s.rows_out > 0;
    if spans.iter().any(rendered) {
        out.set(
            "protocol.render_ns_per_row",
            total(&rendered, Span::duration_ns) / total(&rendered, |s| s.rows_out),
        );
    }
    out.set(
        "trace.coverage",
        total(&|s| s.parent.is_some_and(is_root), Span::duration_ns)
            / total(&|s| is_root(s.name), Span::duration_ns).max(1.0),
    );
    out.notes.push(self_time_note(spans));
}

/// The spans as JSON lines, one object per span.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| format!("\"{p}\""));
        let _ = writeln!(
            out,
            "{{\"req\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"rows_in\":{},\"rows_out\":{}}}",
            s.req, s.name, parent, s.start_ns, s.end_ns, s.rows_in, s.rows_out
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(req: u64, name: &'static str, parent: Option<&'static str>, dur: u64) -> Span {
        Span {
            req,
            name,
            parent,
            start_ns: 100,
            end_ns: 100 + dur,
            rows_in: 0,
            rows_out: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_of_the_same_request_only() {
        let spans = [
            span(1, "service.query", None, 100),
            span(1, "core.plan", Some("service.query"), 30),
            span(1, "analyze.analyze", Some("core.plan"), 20),
            span(1, "core.execute", Some("service.query"), 50),
            span(2, "service.query", None, 10),
            span(2, "core.execute", Some("service.query"), 25),
        ];
        assert_eq!(self_times(&spans), [20, 10, 20, 50, 0, 25]);
        assert_eq!(
            self_time_by_name(&spans),
            [
                ("core.execute", 75),
                ("analyze.analyze", 20),
                ("service.query", 20),
                ("core.plan", 10)
            ]
        );
    }

    #[test]
    fn recorder_times_the_call_and_keeps_the_counts() {
        let mut rec = Recorder::new(Instant::now());
        let v = rec.span(7, "core.execute", Some("service.query"), || (42, 3, 4));
        assert_eq!(v, 42);
        let s = &rec.spans[0];
        assert!(s.end_ns >= s.start_ns);
        assert_eq!((s.req, s.rows_in, s.rows_out), (7, 3, 4));
        let line = to_json_lines(&rec.spans);
        assert!(
            line.starts_with("{\"req\":7,\"name\":\"core.execute\",\"parent\":\"service.query\"")
        );
        assert!(line.ends_with("\"rows_in\":3,\"rows_out\":4}\n"));
    }
}
