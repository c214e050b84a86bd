//! The line-based wire protocol.
//!
//! **Requests** are single lines:
//!
//! ```text
//! LOAD <name> <path>                      load a database file (loader format;
//!                                         path is relative to the server's
//!                                         data dir, see `serve_with_data_dir`)
//! QUERY [@flags] <name> <cq text>         evaluate a conjunctive query
//! EXPLAIN <name> <cq text>                classify + plan without evaluating
//! ANALYZE <name> <cq or program text>     full static analysis (lints, core
//!                                         minimization, Fig. 1 parameters);
//!                                         text containing `?-` is analyzed
//!                                         as a whole Datalog program
//!                                         (PQA5xx: dead rules, recursion
//!                                         class, per-rule minimization)
//! STATS                                   dump service metrics
//! DROP <name>                             remove a database from the catalog
//!                                         (WAL-logged tombstone: recovery
//!                                         does not resurrect it)
//! INSERT <name> <relation> <row>[; <row>…] insert rows (loader field syntax,
//!                                         rows separated by `;`); WAL-logged,
//!                                         and every registered view whose
//!                                         plan reads the relation is
//!                                         maintained incrementally
//! DELETE <name> <relation> <row>[; <row>…] delete rows; otherwise as INSERT
//! SUBSCRIBE <name> <cq or program text>   register a live materialized view
//!                                         (text containing `?-` is a whole
//!                                         Datalog program) and stream its
//!                                         answer deltas; see below
//! PERSIST                                 force a snapshot + WAL rotation
//! SHUTDOWN                                gracefully drain and stop: no new
//!                                         work, in-flight requests finish,
//!                                         final snapshot when durable
//! ```
//!
//! `@flags` set per-request resource limits, e.g.
//! `QUERY @deadline_ms=50 @budget=100000 @depth=64 mydb G(x) :- R(x, y).`
//!
//! `QUERY` additionally accepts the counting flags `@count` and
//! `@count_by(x,y)` (attribute list without spaces). `@count` answers with
//! a single row over the attribute `count` — the number of **distinct**
//! answers, computed without enumerating them whenever the query's
//! counting classification allows; `@count_by(x̄)` answers with one row
//! per group over `x̄…, count`. Counts that exceed `i64` are rendered as
//! exact decimal strings, and a count that would exceed `u128` is the
//! error `ERR count-overflow …` — never a wrapped number.
//!
//! **Responses** are one or more lines terminated by a line containing a
//! single `.`. The first line is `OK …` or `ERR <code> <message>` (codes
//! from [`ServiceError::code`], e.g. `overloaded`, `resource-exhausted`).
//! `QUERY` answers are `OK <n> <attr …>` followed by `n` comma-separated
//! rows in canonical (sorted) order; field syntax matches the database
//! loader, so output can be pasted back into a data file.
//!
//! **Row bodies are bytes, written by one encoder.** `write_value` is the
//! only place a [`Value`] becomes wire text and `encode_rows` the only place
//! an answer is put in canonical order: it sorts references to the tuples
//! and appends `a, b\n` lines to a `Vec<u8>`, with no `String` per field or
//! per row. A `QUERY` body is encoded at most once per answer — the service
//! keeps the bytes beside the rows (`Answer::body`), so a result-cache hit
//! is a header plus one copy of cached bytes. The `render_* -> Vec<String>`
//! functions for row-carrying responses are thin adapters that split the
//! encoded bytes back into lines.
//!
//! **`SUBSCRIBE` dedicates the connection to one live view.** The initial
//! response is an ordinary framed answer (`OK subscribed <id> <n> <attrs>`
//! plus `n` rows and the terminator); `<n>` **is the view's current
//! cardinality**, so a count-subscriber can read the header and skip the
//! body. From then on, every mutation that changes the view's answer
//! pushes one framed **delta**:
//!
//! ```text
//! DELTA <id> +<a> -<r> epoch=<e> rows=<n>[ fallback][ dropped]
//! + <row>      (a lines: rows that entered the answer)
//! - <row>      (r lines: rows that left the answer)
//! .
//! ```
//!
//! `rows=<n>` is the view's cardinality *after* the delta applies, so
//! count-subscribers never need to replay the materialization to track
//! `|V(d)|`. `fallback` marks a pass that exceeded the maintenance budget
//! and fell back to a full recompute; `dropped` is the final frame (the
//! database was dropped or replaced by something the view cannot be
//! computed against). Any input line from the client (or EOF) ends the
//! subscription: the server unsubscribes and confirms with a final
//! `OK unsubscribed <id>` frame.

use std::io::Write as _;
use std::time::Duration;

use pq_data::{loader, Relation, Tuple, Value};

use crate::durable::SnapshotSummary;
use crate::error::ServiceError;
use crate::metrics::MetricsSnapshot;
use crate::service::{
    AnalysisReport, CacheOutcome, CountMode, Explanation, LoadSummary, MutationSummary,
    ProgramAnalysisReport, QueryResponse, RequestLimits, Subscription, SubscriptionUpdate,
};

/// The response terminator line.
pub const END: &str = ".";

/// A parsed wire request.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Request {
    /// `LOAD <name> <path>` — the path is resolved by the *server*, which
    /// confines it to its configured data directory (see
    /// [`crate::server::serve_with_data_dir`]) and rejects absolute or
    /// `..`-containing paths.
    Load {
        /// Catalog name to load under.
        name: String,
        /// Filesystem path of the database text, relative to the server's
        /// data directory (rest of the line, so paths may contain spaces).
        path: String,
    },
    /// `QUERY [@flags] <name> <cq text>`.
    Query {
        /// Database name.
        name: String,
        /// The conjunctive-query source text.
        src: String,
        /// Per-request limits from `@` flags.
        limits: RequestLimits,
        /// Counting mode from `@count` / `@count_by(x̄)`; `None` is an
        /// ordinary enumerating query.
        count: Option<CountMode>,
    },
    /// `EXPLAIN <name> <cq text>`.
    Explain {
        /// Database name.
        name: String,
        /// The conjunctive-query source text.
        src: String,
    },
    /// `ANALYZE <name> <cq text>`.
    Analyze {
        /// Database name (the schema pass checks against it).
        name: String,
        /// The conjunctive-query source text.
        src: String,
    },
    /// `STATS`.
    Stats,
    /// `DROP <name>`.
    Drop {
        /// Database name to remove.
        name: String,
    },
    /// `INSERT <name> <relation> <row>[; <row>…]`.
    Insert {
        /// Database name.
        name: String,
        /// Relation to mutate.
        relation: String,
        /// Parsed rows (loader field conventions).
        rows: Vec<Tuple>,
    },
    /// `DELETE <name> <relation> <row>[; <row>…]`.
    Delete {
        /// Database name.
        name: String,
        /// Relation to mutate.
        relation: String,
        /// Parsed rows (loader field conventions).
        rows: Vec<Tuple>,
    },
    /// `SUBSCRIBE <name> <cq or program text>`.
    Subscribe {
        /// Database name.
        name: String,
        /// The view's source text (CQ, or Datalog program when it contains
        /// a `?-` goal marker).
        src: String,
    },
    /// `PERSIST`.
    Persist,
    /// `SHUTDOWN`.
    Shutdown,
}

fn proto_err(msg: impl Into<String>) -> ServiceError {
    ServiceError::Protocol(msg.into())
}

fn parse_flag(limits: &mut RequestLimits, token: &str) -> Result<(), ServiceError> {
    let body = &token[1..];
    let (key, value) = body
        .split_once('=')
        .ok_or_else(|| proto_err(format!("flag `{token}` is not @key=value")))?;
    let parse_u64 = || {
        value.parse::<u64>().map_err(|_| {
            proto_err(format!(
                "flag `{key}` needs an unsigned integer, got `{value}`"
            ))
        })
    };
    match key {
        "deadline_ms" => limits.deadline = Some(Duration::from_millis(parse_u64()?)),
        "budget" => limits.tuple_budget = Some(parse_u64()?),
        "depth" => limits.max_depth = Some(usize::try_from(parse_u64()?).unwrap_or(usize::MAX)),
        other => return Err(proto_err(format!("unknown flag `@{other}`"))),
    }
    Ok(())
}

/// Recognize the counting flags `@count` and `@count_by(x,y)`. Returns
/// `Ok(false)` when `token` is not a counting flag (so the caller can try
/// the limit flags).
fn parse_count_token(count: &mut Option<CountMode>, token: &str) -> Result<bool, ServiceError> {
    let mode = if token == "@count" {
        CountMode::Total
    } else if let Some(body) = token.strip_prefix("@count_by(") {
        let inner = body.strip_suffix(')').ok_or_else(|| {
            proto_err(format!(
                "flag `{token}` is missing the closing `)` \
                 (the attribute list may not contain spaces)"
            ))
        })?;
        let groups: Vec<String> = inner.split(',').map(|g| g.trim().to_string()).collect();
        if inner.trim().is_empty() || groups.iter().any(String::is_empty) {
            return Err(proto_err(format!(
                "flag `{token}` needs comma-separated attributes, e.g. `@count_by(x,y)`"
            )));
        }
        CountMode::Grouped(groups)
    } else if token == "@count_by" || token.starts_with("@count_by=") {
        return Err(proto_err(
            "`@count_by` takes a parenthesized attribute list, e.g. `@count_by(x,y)`",
        ));
    } else {
        return Ok(false);
    };
    if count.replace(mode).is_some() {
        return Err(proto_err(
            "at most one `@count`/`@count_by(…)` flag per request",
        ));
    }
    Ok(true)
}

/// Split `rest` into its leading `@` flags, a database name, and trailing
/// query text.
#[allow(clippy::type_complexity)]
fn parse_query_parts(
    rest: &str,
) -> Result<(String, String, RequestLimits, Option<CountMode>), ServiceError> {
    let mut limits = RequestLimits::default();
    let mut count = None;
    let mut rest = rest.trim_start();
    while rest.starts_with('@') {
        let (token, tail) = rest.split_once(char::is_whitespace).unwrap_or((rest, ""));
        if !parse_count_token(&mut count, token)? {
            parse_flag(&mut limits, token)?;
        }
        rest = tail.trim_start();
    }
    let (name, src) = rest
        .split_once(char::is_whitespace)
        .ok_or_else(|| proto_err("expected `<name> <query text>`"))?;
    let src = src.trim();
    if src.is_empty() {
        return Err(proto_err("empty query text"));
    }
    Ok((name.to_string(), src.to_string(), limits, count))
}

/// Parse `INSERT`/`DELETE` operands: `<name> <relation> <row>[; <row>…]`.
#[allow(clippy::type_complexity)]
fn parse_mutation_parts(
    verb: &str,
    rest: &str,
) -> Result<(String, String, Vec<Tuple>), ServiceError> {
    let usage = || {
        proto_err(format!(
            "expected `{verb} <name> <relation> <row>[; <row>…]`"
        ))
    };
    let (name, rest) = rest
        .trim()
        .split_once(char::is_whitespace)
        .ok_or_else(usage)?;
    let (relation, rows_text) = rest
        .trim_start()
        .split_once(char::is_whitespace)
        .ok_or_else(usage)?;
    let mut rows = Vec::new();
    for segment in rows_text.split(';') {
        let segment = segment.trim();
        if segment.is_empty() {
            return Err(proto_err(format!("{verb}: empty row segment")));
        }
        rows.push(loader::parse_row(segment));
    }
    Ok((name.to_string(), relation.to_string(), rows))
}

/// Parse one request line.
///
/// # Errors
/// [`ServiceError::Protocol`] on anything malformed.
pub fn parse_request(line: &str) -> Result<Request, ServiceError> {
    let line = line.trim();
    let (verb, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
    match verb.to_ascii_uppercase().as_str() {
        "LOAD" => {
            let (name, path) = rest
                .trim()
                .split_once(char::is_whitespace)
                .ok_or_else(|| proto_err("expected `LOAD <name> <path>`"))?;
            Ok(Request::Load {
                name: name.to_string(),
                path: path.trim().to_string(),
            })
        }
        "QUERY" => {
            let (name, src, limits, count) = parse_query_parts(rest)?;
            Ok(Request::Query {
                name,
                src,
                limits,
                count,
            })
        }
        "EXPLAIN" => {
            let (name, src, limits, count) = parse_query_parts(rest)?;
            if limits != RequestLimits::default() || count.is_some() {
                return Err(proto_err("EXPLAIN takes no @ flags"));
            }
            Ok(Request::Explain { name, src })
        }
        "ANALYZE" => {
            let (name, src, limits, count) = parse_query_parts(rest)?;
            if limits != RequestLimits::default() || count.is_some() {
                return Err(proto_err("ANALYZE takes no @ flags"));
            }
            Ok(Request::Analyze { name, src })
        }
        "STATS" => {
            if !rest.trim().is_empty() {
                return Err(proto_err("STATS takes no arguments"));
            }
            Ok(Request::Stats)
        }
        "DROP" => {
            let name = rest.trim();
            if name.is_empty() || name.contains(char::is_whitespace) {
                return Err(proto_err("expected `DROP <name>`"));
            }
            Ok(Request::Drop {
                name: name.to_string(),
            })
        }
        "INSERT" => {
            let (name, relation, rows) = parse_mutation_parts("INSERT", rest)?;
            Ok(Request::Insert {
                name,
                relation,
                rows,
            })
        }
        "DELETE" => {
            let (name, relation, rows) = parse_mutation_parts("DELETE", rest)?;
            Ok(Request::Delete {
                name,
                relation,
                rows,
            })
        }
        "SUBSCRIBE" => {
            let (name, src, limits, count) = parse_query_parts(rest)?;
            if limits != RequestLimits::default() || count.is_some() {
                return Err(proto_err(
                    "SUBSCRIBE takes no @ flags (maintenance runs under service \
                     defaults; delta headers already carry the cardinality)",
                ));
            }
            Ok(Request::Subscribe { name, src })
        }
        "PERSIST" => {
            if !rest.trim().is_empty() {
                return Err(proto_err("PERSIST takes no arguments"));
            }
            Ok(Request::Persist)
        }
        "SHUTDOWN" => {
            if !rest.trim().is_empty() {
                return Err(proto_err("SHUTDOWN takes no arguments"));
            }
            Ok(Request::Shutdown)
        }
        "" => Err(proto_err("empty request")),
        other => Err(proto_err(format!("unknown verb `{other}`"))),
    }
}

/// Append one value with the database-loader field conventions (quote
/// strings that would re-parse as integers or contain separators, and
/// strings equal to [`END`] — a bare `.` in a single-column row would
/// otherwise read as the response terminator and desynchronize the client).
pub(crate) fn write_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => {
            // Digits are produced least significant first, into the tail of
            // a buffer that fits `i64::MIN` (19 digits and the sign).
            let mut digits = [0u8; 20];
            let mut at = digits.len();
            let mut rest = i.unsigned_abs();
            loop {
                at -= 1;
                digits[at] = b'0' + (rest % 10) as u8;
                rest /= 10;
                if rest == 0 {
                    break;
                }
            }
            if *i < 0 {
                at -= 1;
                digits[at] = b'-';
            }
            out.extend_from_slice(&digits[at..]);
        }
        Value::Str(s) => {
            let quoted = s.is_empty()
                || &**s == END
                || s.bytes().any(|b| b == b',' || b == b'%')
                || s.parse::<i64>().is_ok();
            if quoted {
                out.push(b'"');
            }
            out.extend_from_slice(s.as_bytes());
            if quoted {
                out.push(b'"');
            }
        }
    }
}

/// Append one row: its fields separated by `, `, no line end.
fn write_row(out: &mut Vec<u8>, t: &Tuple) {
    for (i, v) in t.iter().enumerate() {
        if i > 0 {
            out.extend_from_slice(b", ");
        }
        write_value(out, v);
    }
}

/// Append the rows of `rel` in canonical (sorted) order, one `a, b\n` line
/// each. Sorts references: no tuple is cloned. A relation is a set, so the
/// unstable sort has one possible outcome.
pub(crate) fn encode_rows(rel: &Relation, out: &mut Vec<u8>) {
    let mut sorted: Vec<&Tuple> = rel.iter().collect();
    sorted.sort_unstable();
    for t in sorted {
        write_row(out, t);
        out.push(b'\n');
    }
}

/// Append the header's attribute list: `a,b`, or `-` at arity 0.
fn write_attrs(out: &mut Vec<u8>, rel: &Relation) {
    if rel.arity() == 0 {
        out.push(b'-');
    }
    for (i, a) in rel.attrs().iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.extend_from_slice(a.as_bytes());
    }
}

/// The adapter from encoded bytes back to response lines.
fn lines_of(encoded: &[u8]) -> Vec<String> {
    let text = std::str::from_utf8(encoded).expect("the encoder writes only UTF-8");
    text.split_terminator('\n').map(str::to_string).collect()
}

/// Append the whole body of a successful `QUERY` response (without the
/// terminator): the header line, then the answer's encoded rows — encoded
/// now if this is the first response to carry that answer, copied from the
/// answer otherwise.
pub(crate) fn encode_query_response(resp: &QueryResponse, out: &mut Vec<u8>) {
    let cache = match resp.cache {
        CacheOutcome::Miss => "cold",
        CacheOutcome::PlanHit => "plan-cache",
        CacheOutcome::ResultHit => "result-cache",
    };
    let _ = write!(out, "OK {} ", resp.rows.len());
    write_attrs(out, &resp.rows);
    out.extend_from_slice(b" # engine=");
    out.extend(
        resp.engine
            .bytes()
            .map(|b| if b == b' ' { b'_' } else { b }),
    );
    let _ = writeln!(
        out,
        " cache={} gen={} epoch={} micros={}",
        cache,
        resp.generation,
        resp.epoch,
        resp.latency.as_micros()
    );
    out.extend_from_slice(resp.answer.body());
}

/// Render the response lines (without the terminator) for a successful
/// `QUERY`: the bytes the server writes, split into lines.
pub fn render_query_response(resp: &QueryResponse) -> Vec<String> {
    let mut encoded = Vec::new();
    encode_query_response(resp, &mut encoded);
    lines_of(&encoded)
}

/// Render the response lines for a successful `LOAD`.
pub fn render_load_response(s: &LoadSummary) -> Vec<String> {
    vec![format!(
        "OK loaded {} relations={} tuples={} gen={} epoch={}",
        s.name, s.relations, s.tuples, s.generation, s.epoch
    )]
}

/// Render the response lines for `EXPLAIN`.
pub fn render_explain_response(e: &Explanation) -> Vec<String> {
    let mut lines = vec!["OK explain".to_string()];
    lines.push(format!("fingerprint {:016x}", e.fingerprint));
    lines.push(format!("engine {}", e.engine));
    lines.push(format!("summary {}", e.summary));
    lines.push(format!("q {}", e.q));
    lines.push(format!("v {}", e.v));
    if let Some(k) = e.color_parameter {
        lines.push(format!("k {k}"));
    }
    if let Some(w) = e.hypertree_width {
        let mark = if e.width_exact { "exact" } else { "heuristic" };
        lines.push(format!("width {w} {mark}"));
    }
    if let Some(d) = &e.decomposition {
        lines.push(format!("decomposition {d}"));
    }
    lines.push(format!("plan_cached {}", e.plan_was_cached));
    lines.push(format!("result_cached {}", e.result_is_cached));
    lines.push(format!("answer_source {}", e.answer_source));
    if let Some(v) = &e.answered_from_view {
        lines.push(format!("answered-from view {v}"));
    }
    lines.push(format!("equivalence-class {:016x}", e.equivalence_class));
    if e.provably_empty {
        lines.push("provably_empty true".to_string());
    }
    if let Some(m) = &e.minimized {
        lines.push(format!("minimized {m}"));
    }
    for d in &e.diagnostics {
        lines.push(format!("diag {d}"));
    }
    lines.push(format!("gen {}", e.generation));
    lines.push(format!("epoch {}", e.epoch));
    lines
}

/// Render the response lines for `ANALYZE`.
pub fn render_analyze_response(a: &AnalysisReport) -> Vec<String> {
    let mut lines = vec!["OK analyze".to_string()];
    lines.push(format!("fingerprint {:016x}", a.fingerprint));
    lines.push(format!("cell {}", a.cell));
    lines.push(format!("engine {}", a.engine));
    lines.push(format!("summary {}", a.summary));
    lines.push(format!(
        "params q={} v={} max_arity={} neqs={} cmps={}",
        a.q, a.v, a.max_arity, a.neq_count, a.cmp_count
    ));
    if let Some(k) = a.color_parameter {
        lines.push(format!("k {k}"));
    }
    if let Some(w) = a.hypertree_width {
        let mark = if a.width_exact { "exact" } else { "heuristic" };
        lines.push(format!("width {w} {mark}"));
    }
    if let Some(d) = &a.decomposition {
        lines.push(format!("decomposition {d}"));
    }
    if let Some(w) = &a.cycle_witness {
        let atoms: Vec<String> = w.iter().map(ToString::to_string).collect();
        lines.push(format!("cycle_witness {}", atoms.join(",")));
    }
    lines.push(format!("provably_empty {}", a.provably_empty));
    if let Some(m) = &a.minimized {
        lines.push(format!("minimized {m}"));
    }
    for d in &a.diagnostics {
        lines.push(format!("diag {d}"));
    }
    lines.push(format!("plan_cached {}", a.plan_was_cached));
    lines.push(format!("gen {}", a.generation));
    lines.push(format!("epoch {}", a.epoch));
    lines
}

/// Render the response lines for `ANALYZE` on a Datalog program.
pub fn render_analyze_program_response(a: &ProgramAnalysisReport) -> Vec<String> {
    let mut lines = vec!["OK analyze-program".to_string()];
    lines.push(format!("goal {}", a.goal));
    lines.push(format!(
        "rules live={} total={}",
        a.rules_live, a.rules_total
    ));
    if !a.dead_rules.is_empty() {
        let idx: Vec<String> = a.dead_rules.iter().map(ToString::to_string).collect();
        lines.push(format!("dead_rules {}", idx.join(",")));
    }
    lines.push(format!("edb {}", a.edb.join(",")));
    lines.push(format!("idb {}", a.idb.join(",")));
    lines.push(format!("sccs {}", a.scc_count));
    lines.push(format!("recursion {}", a.recursion));
    lines.push(format!("max_arity {}", a.max_arity));
    lines.push(format!("provably_empty {}", a.provably_empty));
    if let Some(r) = &a.rewritten {
        lines.push(format!("rewritten {r}"));
    }
    for d in &a.diagnostics {
        lines.push(format!("diag {d}"));
    }
    lines.push(format!("gen {}", a.generation));
    lines.push(format!("epoch {}", a.epoch));
    lines
}

/// Render the response lines for `STATS`.
pub fn render_stats_response(s: &MetricsSnapshot) -> Vec<String> {
    let mut lines = vec!["OK stats".to_string()];
    lines.extend(s.lines());
    lines
}

/// Render the response line for `DROP`: `OK dropped <name>` or
/// `OK absent <name>` (dropping a missing database is not an error —
/// the postcondition already holds).
pub fn render_drop_response(name: &str, existed: bool) -> Vec<String> {
    vec![format!(
        "OK {} {name}",
        if existed { "dropped" } else { "absent" }
    )]
}

/// Render the response line for `INSERT`/`DELETE`.
pub fn render_mutation_response(s: &MutationSummary) -> Vec<String> {
    vec![format!(
        "OK {} {} {} gen={} epoch={} views={} fallbacks={}",
        s.op, s.applied, s.relation, s.generation, s.epoch, s.views_maintained, s.fallbacks
    )]
}

/// Render the initial response lines for `SUBSCRIBE`: the subscription id,
/// the view's current **cardinality** (so count-subscribers can stop after
/// the header), and the view's full current answer (same row framing as
/// `QUERY`).
pub fn render_subscribe_response(sub: &Subscription) -> Vec<String> {
    let mut encoded = Vec::new();
    let _ = write!(encoded, "OK subscribed {} {} ", sub.id, sub.rows.len());
    write_attrs(&mut encoded, &sub.rows);
    encoded.push(b'\n');
    encode_rows(&sub.rows, &mut encoded);
    lines_of(&encoded)
}

/// Render one pushed delta frame for subscription `id`. Added rows are
/// prefixed `+ `, removed rows `- `; both sides are sorted. The header's
/// `rows=<n>` is the view's cardinality after this delta applies, so a
/// count-subscriber can track `|V(d)|` from headers alone.
pub fn render_delta_frame(id: u64, u: &SubscriptionUpdate) -> Vec<String> {
    let mut encoded = Vec::new();
    let _ = write!(
        encoded,
        "DELTA {id} +{} -{} epoch={} rows={}",
        u.added.len(),
        u.removed.len(),
        u.epoch,
        u.cardinality
    );
    if u.fell_back {
        encoded.extend_from_slice(b" fallback");
    }
    if u.dropped {
        encoded.extend_from_slice(b" dropped");
    }
    encoded.push(b'\n');
    for (sign, rows) in [(b'+', &u.added), (b'-', &u.removed)] {
        let mut sorted: Vec<&Tuple> = rows.iter().collect();
        sorted.sort();
        for t in sorted {
            encoded.extend_from_slice(&[sign, b' ']);
            write_row(&mut encoded, t);
            encoded.push(b'\n');
        }
    }
    lines_of(&encoded)
}

/// Render the response line for `PERSIST`.
pub fn render_persist_response(s: &SnapshotSummary) -> Vec<String> {
    vec![format!(
        "OK persisted databases={} bytes={}",
        s.databases, s.bytes
    )]
}

/// Render an error as its single response line.
pub fn render_error(e: &ServiceError) -> String {
    format!("ERR {} {e}", e.code())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    // The `String`-per-field renderer the byte encoder replaced, kept as the
    // oracle: the encoder's output must equal its lines, byte for byte.

    fn render_value(v: &Value) -> String {
        match v {
            Value::Int(i) => i.to_string(),
            Value::Str(s) => {
                if s.parse::<i64>().is_ok()
                    || s.contains(',')
                    || s.contains('%')
                    || s.is_empty()
                    || &**s == END
                {
                    format!("\"{s}\"")
                } else {
                    s.to_string()
                }
            }
        }
    }

    fn render_rows(rel: &Relation, out: &mut Vec<String>) {
        for t in rel.canonical_rows() {
            let fields: Vec<String> = t.iter().map(render_value).collect();
            out.push(fields.join(", "));
        }
    }

    fn render_attrs(rel: &Relation) -> String {
        if rel.arity() == 0 {
            "-".to_string()
        } else {
            rel.attrs().join(",")
        }
    }

    fn old_render_subscribe_response(sub: &Subscription) -> Vec<String> {
        let mut lines = vec![format!(
            "OK subscribed {} {} {}",
            sub.id,
            sub.rows.len(),
            render_attrs(&sub.rows)
        )];
        render_rows(&sub.rows, &mut lines);
        lines
    }

    fn old_render_delta_frame(id: u64, u: &SubscriptionUpdate) -> Vec<String> {
        let mut header = format!(
            "DELTA {id} +{} -{} epoch={} rows={}",
            u.added.len(),
            u.removed.len(),
            u.epoch,
            u.cardinality
        );
        if u.fell_back {
            header.push_str(" fallback");
        }
        if u.dropped {
            header.push_str(" dropped");
        }
        let mut lines = vec![header];
        for (sign, rows) in [('+', &u.added), ('-', &u.removed)] {
            let mut sorted: Vec<&Tuple> = rows.iter().collect();
            sorted.sort();
            for t in sorted {
                let fields: Vec<String> = t.iter().map(render_value).collect();
                lines.push(format!("{sign} {}", fields.join(", ")));
            }
        }
        lines
    }

    /// The encoder's lines for `rel`, after checking them against the oracle.
    fn encoded_rows(rel: &Relation) -> Vec<String> {
        let mut encoded = Vec::new();
        encode_rows(rel, &mut encoded);
        let mut oracle = Vec::new();
        render_rows(rel, &mut oracle);
        let expected = oracle.iter().fold(String::new(), |text, l| text + l + "\n");
        assert_eq!(String::from_utf8(encoded.clone()).unwrap(), expected);
        let lines = lines_of(&encoded);
        assert_eq!(lines, oracle);
        lines
    }

    /// Values the quoting rule and the digit loop have to get right.
    fn edge_values() -> Vec<Value> {
        let ints = [i64::MIN, i64::MAX, 0, -1, 7, 10, -10, 1_000_000_007];
        let strs = [
            "",
            "12",
            "-3",
            "+4",
            "a,b",
            "50%",
            ".",
            "..",
            "plain",
            "two words",
            "ünï-çødé ✓",
            "-",
            "9223372036854775808",
        ];
        ints.into_iter()
            .map(Value::Int)
            .chain(strs.into_iter().map(Value::str))
            .collect()
    }

    fn relation_of(arity: usize, rows: impl IntoIterator<Item = Tuple>) -> Relation {
        Relation::with_tuples((0..arity).map(|i| format!("a{i}")), rows).unwrap()
    }

    #[test]
    fn every_edge_value_encodes_as_the_renderer_rendered_it() {
        for v in edge_values() {
            let mut encoded = Vec::new();
            write_value(&mut encoded, &v);
            assert_eq!(String::from_utf8(encoded).unwrap(), render_value(&v));
        }
        // One column, then every pair: separators and quoting together.
        let values = edge_values();
        encoded_rows(&relation_of(
            1,
            values.iter().map(|v| Tuple::new([v.clone()])),
        ));
        let pairs = values
            .iter()
            .flat_map(|a| values.iter().map(|b| Tuple::new([a.clone(), b.clone()])));
        encoded_rows(&relation_of(2, pairs));
    }

    #[test]
    fn canonical_order_is_the_sort_not_the_insertion_order() {
        use pq_data::tuple;
        let rel = relation_of(2, (0..50).rev().map(|i| tuple![i, "x"]));
        assert_eq!(rel.tuples()[0], tuple![49, "x"]);
        let lines = encoded_rows(&rel);
        assert_eq!(lines[0], "0, x");
        assert_eq!(lines[49], "49, x");
    }

    #[test]
    fn arity_zero_is_one_empty_line_per_row_and_a_dash_header() {
        let truth = relation_of(0, [Tuple::default()]);
        assert_eq!(encoded_rows(&truth), [""]);
        assert!(encoded_rows(&relation_of(0, [])).is_empty());
        let (_tx, updates) = std::sync::mpsc::channel();
        let sub = Subscription {
            id: 3,
            database: "d".into(),
            rows: Arc::new(truth),
            updates,
        };
        assert_eq!(render_subscribe_response(&sub), ["OK subscribed 3 1 -", ""]);
        assert_eq!(
            render_subscribe_response(&sub),
            old_render_subscribe_response(&sub)
        );
    }

    #[test]
    fn query_response_lines_are_the_header_and_the_encoded_rows() {
        let svc = crate::QueryService::with_defaults();
        svc.load_str("d", "R(a, b):\n  2, \".\"\n  1, 50%\n")
            .unwrap();
        for (src, attrs) in [("G(x, y) :- R(x, y).", "x,y"), ("G() :- R(x, y).", "-")] {
            let resp = svc.query("d", src, RequestLimits::default()).unwrap();
            let lines = render_query_response(&resp);
            let header = format!("OK {} {attrs} # engine=", resp.rows.len());
            assert!(lines[0].starts_with(&header), "{lines:?}");
            assert_eq!(lines[1..], encoded_rows(&resp.rows));
        }
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        let edges = edge_values();
        prop_oneof![
            (0..edges.len()).prop_map(move |i| edges[i].clone()),
            (-1000i64..1000).prop_map(Value::Int),
            any::<i64>().prop_map(Value::Int),
            (-20i64..20).prop_map(|i| Value::str(i.to_string())),
        ]
    }

    fn arb_tuples(max_rows: usize) -> impl Strategy<Value = (usize, Vec<Tuple>)> {
        (0usize..5).prop_flat_map(move |arity| {
            let row = prop::collection::vec(arb_value(), arity).prop_map(Tuple::new);
            prop::collection::vec(row, 0..max_rows).prop_map(move |rows| (arity, rows))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random mixed `Int`/`Str` relations of arity 0–4: the encoder, the
        /// subscribe response and the delta frame equal the old renderers.
        #[test]
        fn encoders_equal_the_renderers_they_replaced(
            (arity, rows) in arb_tuples(24),
            (fell_back, dropped) in (any::<bool>(), any::<bool>()),
        ) {
            let rel = relation_of(arity, rows.iter().cloned());
            encoded_rows(&rel);

            let (_tx, updates) = std::sync::mpsc::channel();
            let sub = Subscription {
                id: 11,
                database: "d".into(),
                rows: Arc::new(rel),
                updates,
            };
            prop_assert_eq!(
                render_subscribe_response(&sub),
                old_render_subscribe_response(&sub)
            );

            let split = rows.len() / 2;
            let u = SubscriptionUpdate {
                added: rows[..split].to_vec(),
                removed: rows[split..].to_vec(),
                epoch: 5,
                cardinality: rows.len() as u64,
                fell_back,
                dropped,
            };
            prop_assert_eq!(render_delta_frame(11, &u), old_render_delta_frame(11, &u));
        }
    }

    #[test]
    fn parses_every_verb() {
        assert_eq!(
            parse_request("LOAD d /tmp/some file.db").unwrap(),
            Request::Load {
                name: "d".into(),
                path: "/tmp/some file.db".into()
            }
        );
        assert_eq!(
            parse_request("query d G(x) :- R(x, y).").unwrap(),
            Request::Query {
                name: "d".into(),
                src: "G(x) :- R(x, y).".into(),
                limits: RequestLimits::default(),
                count: None,
            }
        );
        assert_eq!(
            parse_request("EXPLAIN d G(x) :- R(x, y).").unwrap(),
            Request::Explain {
                name: "d".into(),
                src: "G(x) :- R(x, y).".into()
            }
        );
        assert_eq!(parse_request("STATS").unwrap(), Request::Stats);
        assert_eq!(
            parse_request("drop d").unwrap(),
            Request::Drop { name: "d".into() }
        );
        assert_eq!(parse_request("PERSIST").unwrap(), Request::Persist);
        assert_eq!(parse_request("  SHUTDOWN  ").unwrap(), Request::Shutdown);
    }

    #[test]
    fn parses_mutation_and_subscribe_verbs() {
        use pq_data::tuple;
        assert_eq!(
            parse_request(r#"INSERT d R 1, 2; 3, "a b""#).unwrap(),
            Request::Insert {
                name: "d".into(),
                relation: "R".into(),
                rows: vec![tuple![1, 2], tuple![3, "a b"]],
            }
        );
        assert_eq!(
            parse_request("delete d R 1, 2").unwrap(),
            Request::Delete {
                name: "d".into(),
                relation: "R".into(),
                rows: vec![tuple![1, 2]],
            }
        );
        assert_eq!(
            parse_request("SUBSCRIBE d G(x) :- R(x, y).").unwrap(),
            Request::Subscribe {
                name: "d".into(),
                src: "G(x) :- R(x, y).".into(),
            }
        );
        for bad in [
            "INSERT d R",
            "INSERT d",
            "INSERT d R 1, 2;; 3, 4",
            "DELETE d R ;",
            "SUBSCRIBE d",
            "SUBSCRIBE @budget=1 d G(x) :- R(x).",
        ] {
            assert!(
                matches!(parse_request(bad), Err(ServiceError::Protocol(_))),
                "should reject: {bad}"
            );
        }
    }

    #[test]
    fn delta_frames_render_signed_sorted_rows() {
        use pq_data::tuple;
        let u = SubscriptionUpdate {
            added: vec![tuple![9, 9], tuple![1, 2]],
            removed: vec![tuple![3, "."]],
            epoch: 7,
            cardinality: 5,
            fell_back: true,
            dropped: false,
        };
        let lines = render_delta_frame(4, &u);
        assert_eq!(
            lines,
            [
                "DELTA 4 +2 -1 epoch=7 rows=5 fallback",
                "+ 1, 2",
                "+ 9, 9",
                r#"- 3, ".""#,
            ]
        );
    }

    #[test]
    fn query_flags_set_limits() {
        let r = parse_request("QUERY @deadline_ms=50 @budget=1000 @depth=8 d G(x) :- R(x, y).")
            .unwrap();
        match r {
            Request::Query {
                name,
                src,
                limits,
                count,
            } => {
                assert_eq!(name, "d");
                assert_eq!(src, "G(x) :- R(x, y).");
                assert_eq!(limits.deadline, Some(Duration::from_millis(50)));
                assert_eq!(limits.tuple_budget, Some(1000));
                assert_eq!(limits.max_depth, Some(8));
                assert_eq!(count, None);
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn query_count_flags_parse() {
        assert_eq!(
            parse_request("QUERY @count d G(x) :- R(x, y).").unwrap(),
            Request::Query {
                name: "d".into(),
                src: "G(x) :- R(x, y).".into(),
                limits: RequestLimits::default(),
                count: Some(CountMode::Total),
            }
        );
        // Counting composes with resource-limit flags, in either order.
        let r = parse_request("QUERY @budget=100 @count_by(x,y) d G(x, y) :- R(x, y).").unwrap();
        match r {
            Request::Query { limits, count, .. } => {
                assert_eq!(limits.tuple_budget, Some(100));
                assert_eq!(
                    count,
                    Some(CountMode::Grouped(vec!["x".into(), "y".into()]))
                );
            }
            other => panic!("wrong request: {other:?}"),
        }
        for bad in [
            "QUERY @count_by( d G(x) :- R(x).",
            "QUERY @count_by() d G(x) :- R(x).",
            "QUERY @count_by(x,) d G(x) :- R(x).",
            "QUERY @count_by d G(x) :- R(x).",
            "QUERY @count_by=x d G(x) :- R(x).",
            "QUERY @count @count_by(x) d G(x) :- R(x).",
            "EXPLAIN @count d G(x) :- R(x).",
            "ANALYZE @count d G(x) :- R(x).",
            "SUBSCRIBE @count d G(x) :- R(x).",
        ] {
            assert!(
                matches!(parse_request(bad), Err(ServiceError::Protocol(_))),
                "should reject: {bad}"
            );
        }
    }

    #[test]
    fn malformed_requests_are_protocol_errors() {
        for bad in [
            "",
            "FROB d",
            "LOAD onlyname",
            "QUERY d",
            "QUERY @deadline_ms=abc d G(x) :- R(x).",
            "QUERY @frobnicate=1 d G(x) :- R(x).",
            "STATS now",
            "SHUTDOWN please",
            "EXPLAIN @budget=1 d G(x) :- R(x).",
            "DROP",
            "DROP two names",
            "PERSIST now",
        ] {
            assert!(
                matches!(parse_request(bad), Err(ServiceError::Protocol(_))),
                "should reject: {bad}"
            );
        }
    }

    #[test]
    fn dot_valued_row_cannot_forge_the_terminator() {
        use pq_data::tuple;
        // A single-column row whose value is "." must not render as a line
        // equal to END, or the framed response would terminate early.
        let rel = Relation::with_tuples(["a"], [tuple!["."]]).unwrap();
        let lines = encoded_rows(&rel);
        assert_eq!(lines, [r#"".""#.to_string()]);
        assert!(lines.iter().all(|l| l != END));
    }

    #[test]
    fn error_rendering_carries_the_stable_code() {
        let line = render_error(&ServiceError::Overloaded { queue_depth: 4 });
        assert!(line.starts_with("ERR overloaded "), "{line}");
        let line = render_error(&ServiceError::UnknownDatabase("x".into()));
        assert!(line.starts_with("ERR unknown-db "), "{line}");
    }

    #[test]
    fn value_rendering_round_trips_through_the_loader() {
        use pq_data::tuple;
        // Note: commas inside strings do not survive the loader's naive
        // field splitting (a pre-existing format limitation shared with
        // `render_database`); everything else round-trips.
        let rel = Relation::with_tuples(
            ["a", "b"],
            [
                tuple![1, "plain"],
                tuple![2, "99"],
                tuple![3, ""],
                tuple![4, "."],
            ],
        )
        .unwrap();
        let mut lines = vec!["T(a, b):".to_string()];
        lines.extend(encoded_rows(&rel));
        let text = lines.join("\n");
        let db = pq_data::loader::parse_database(&text).unwrap();
        assert_eq!(
            db.relation("T").unwrap().canonical_rows(),
            rel.canonical_rows()
        );
    }
}
