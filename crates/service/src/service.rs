//! The embeddable, thread-safe query service.
//!
//! One [`QueryService`] owns a [`Catalog`] of named databases, a two-level
//! cache, and an admission gate. It owns no threads: a request runs, start
//! to finish, on the thread that brought it. The two cache levels:
//!
//! * **Plan cache** (level 1): `(canonical query form, counting?)`
//!   ([`pq_query::canonical_form`], computed from the parsed AST — so it is
//!   whitespace-safe even inside string literals and alpha-renaming-safe) →
//!   the parsed query, its static analysis and the committed plan of the
//!   requested result mode: a [`Plan`] for the answer relation, a
//!   [`CountPlan`] for `@count`/`@count_by`. Parsing runs per request, but
//!   all the paper's expensive query-only preprocessing — classification
//!   per Theorem 1/Fig. 1, GYO/join-tree work, color-coding hash-family
//!   choice (Theorem 2) — is paid once per distinct query, not once per
//!   request. This is exactly the preprocessing/evaluation cost split the
//!   hypertree literature treats as decisive.
//! * **Result cache** (level 2): `(query text, database name)` → the
//!   answer, stamped with the state it was computed against. The key
//!   embeds a full rendering of the query (not just its 64-bit fingerprint,
//!   so a hash collision can never cross-serve answers) — the canonical
//!   form of its minimized core for answers, so equivalent spellings share
//!   one entry, and `@count …` of the canonical form for counts. The stamp
//!   is the catalog generation (see [`crate::catalog`]), an FNV-1a
//!   fingerprint of the per-relation epochs of exactly the base relations
//!   the plan reads ([`Plan::mentioned_relations`]), and the database
//!   epoch. **The cache holds at most one entry per (key text, database),
//!   and a hit requires the entry's generation and fingerprint to equal the
//!   bound snapshot's**: a mutation can therefore never serve a stale
//!   answer, a mutation to a relation the query never touches does not
//!   invalidate its entry at all, and an answer for a newer state replaces
//!   its predecessor instead of piling up beside it. The entry also keeps
//!   the answer's encoded wire body, written at most once (by the first
//!   response that carries the answer), so a hit is served as cached bytes.
//!
//! **One request path.** Deciding, counting and enumerating `Q(d)` share
//! the query-only half, so [`QueryService::query`] and
//! [`QueryService::query_count`] are two modes of one private pipeline
//! (`QueryService::request`), whose stages the other verbs reuse:
//!
//! 1. `prepare` — parse → validate → canonical form → the plan cache
//!    (filled on a miss with the plan of the requested mode). Touches only
//!    the plan cache. The only place query text is parsed.
//! 2. `bind` — snapshot the named database (a brief catalog read lock) and
//!    derive the result key and the snapshot's stamp.
//! 3. `lookup` — the only result-cache read that serves: the key's entry,
//!    if its stamp matches the bound snapshot's. A hit is served on the
//!    caller's thread.
//! 4. `view` (answer mode only) — under the views lock, match the query
//!    against the database's live views and answer by scanning one.
//! 5. `run` — pass the admission gate and evaluate, still on the caller's
//!    thread; makes the one `match` on the result mode.
//! 6. `fill` — the only result-cache write: the answer replaces the key's
//!    previous entry unless that one is stamped newer; also how `SUBSCRIBE`
//!    primes the cache and how view maintenance patches it.
//! 7. `finish` — stamp the latency, build the only [`QueryResponse`] (which
//!    carries the answer, and so its encoded body, to the server), and map
//!    the outcome onto the metrics.
//!
//! `EXPLAIN` runs `prepare → bind → lookup` plus the matching half of
//! `view`; `ANALYZE` runs `prepare` (and analyzes a text that parses but
//! fails validation directly, from the AST `prepare` hands back);
//! `SUBSCRIBE` `prepare`s the text in both modes and `fill`s both entries.
//!
//! **Incremental views** ([`pq_ivm`]): [`QueryService::subscribe`]
//! registers a materialized view and returns a live delta stream. The
//! row-level mutation verbs ([`QueryService::insert_rows`] /
//! [`QueryService::delete_rows`]) run every affected view's maintenance
//! plan under the service's governor limits (falling back to a full
//! recompute on budget exhaustion), push signed answer deltas to
//! subscribers, and **patch the result cache in place** — the maintained
//! answer (and its cardinality, as the `@count`) replaces the query's
//! entry, stamped with the post-mutation state, so the next `QUERY` for a
//! subscribed query is a result-cache hit without re-evaluating. A batch
//! that changes nothing leaves generation, epochs, WAL and cache stamps
//! untouched.
//!
//! **Admission control**: an evaluation starts only inside the gate
//! (`crate::gate`): at most [`ServiceConfig::workers`] run at once, at most
//! [`ServiceConfig::queue_depth`] more park for a turn, and past that the
//! request is rejected *immediately* with [`ServiceError::Overloaded`] —
//! structured backpressure instead of unbounded queueing. Result-cache
//! hits, view scans and the other verbs never touch the gate (a lookup
//! needs no slot). Every admitted evaluation runs under an
//! [`ExecutionContext`] whose deadline/budget come from per-request
//! [`RequestLimits`] (falling back to service defaults) and whose
//! cancellation token trips on [`QueryService::shutdown`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use pq_analyze::Analysis;
use pq_core::hypergraph::HypertreeDecomposition;
use pq_core::{
    count_relation, plan, plan_count, view_scan, CountChoice, CountPlan, EngineChoice, Plan,
    PlannerOptions,
};
use pq_count::QueryCount;
use pq_data::{loader, Database, Relation, Tuple};
use pq_engine::governor::{CancellationToken, ExecutionContext};
use pq_exec::Pool;
use pq_ivm::{MaintainOutcome, RelationDelta, ViewQuery, ViewRegistry};
use pq_query::{canonical_form, parse_cq, ConjunctiveQuery, QueryError};

use crate::cache::ShardedCache;
use crate::catalog::{Catalog, DbSnapshot};
use crate::durable::{Durability, DurabilityConfig, RecoveryStats, SnapshotSummary};
use crate::error::{Result, ServiceError};
use crate::gate::Gate;
use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::protocol::encode_rows;

/// Per-request resource limits. `None` fields fall back to the service's
/// [`ServiceConfig::default_limits`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestLimits {
    /// Wall-clock budget, measured from admission (so queue time counts).
    pub deadline: Option<Duration>,
    /// Intermediate-tuple budget.
    pub tuple_budget: Option<u64>,
    /// Recursion-depth limit.
    pub max_depth: Option<usize>,
}

impl RequestLimits {
    fn or(self, default: RequestLimits) -> RequestLimits {
        RequestLimits {
            deadline: self.deadline.or(default.deadline),
            tuple_budget: self.tuple_budget.or(default.tuple_budget),
            max_depth: self.max_depth.or(default.max_depth),
        }
    }
}

/// Upper bound on `workers × intra_query_threads`: the worst-case number of
/// threads simultaneously evaluating queries (each of the `workers`
/// evaluations the gate lets run at once may fan out over
/// `intra_query_threads` scoped threads). Configurations that oversubscribe
/// this cap are rejected by [`QueryService::try_new`] — an oversubscribed
/// service does not fail, it just context-switches its own parallelism
/// away, which is exactly the silent degradation a validation error is
/// cheaper than.
pub const MAX_TOTAL_THREADS: usize = 64;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Evaluations that may run at once (inter-query parallelism), each on
    /// the thread of the request that needs it; clamped to at least 1.
    pub workers: usize,
    /// Intra-query parallelism degree: the size of the [`Pool`] attached to
    /// a request's execution context. `1` keeps evaluation fully
    /// serial (the pre-parallel behavior). Independent of [`workers`]:
    /// `workers` bounds how many queries run at once, this bounds how many
    /// threads each of them may use. Their product is capped by
    /// [`MAX_TOTAL_THREADS`].
    ///
    /// [`workers`]: ServiceConfig::workers
    pub intra_query_threads: usize,
    /// Evaluations that may wait for one of the `workers` slots; a request
    /// that finds them all waiting is rejected with
    /// [`ServiceError::Overloaded`]. `0` means "never wait": rejected
    /// whenever no slot is free.
    pub queue_depth: usize,
    /// Plan-cache capacity in entries, answer plans and count plans
    /// together (0 disables).
    pub plan_cache_capacity: usize,
    /// Result-cache capacity in entries (0 disables).
    pub result_cache_capacity: usize,
    /// Shards per cache level (lock-contention bound).
    pub cache_shards: usize,
    /// Limits applied when a request leaves a field unset.
    pub default_limits: RequestLimits,
    /// Planner options used when building plans.
    pub planner: PlannerOptions,
    /// Durability layer: `Some` makes the catalog survive restarts —
    /// startup recovers from the data directory (snapshot + WAL replay),
    /// every mutation is write-ahead logged, and snapshots are taken on the
    /// configured cadence, on `PERSIST`, and on [`QueryService::drain`].
    /// `None` (the default) keeps the catalog purely in memory.
    pub durability: Option<DurabilityConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            intra_query_threads: pq_exec::default_threads().min(MAX_TOTAL_THREADS / 4),
            queue_depth: 64,
            plan_cache_capacity: 256,
            result_cache_capacity: 1024,
            cache_shards: 8,
            default_limits: RequestLimits::default(),
            planner: PlannerOptions::default(),
            durability: None,
        }
    }
}

impl ServiceConfig {
    /// Reject configurations whose worst-case thread count
    /// (`workers × intra_query_threads`) exceeds [`MAX_TOTAL_THREADS`].
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidConfig`] when the product oversubscribes the
    /// cap (both knobs are clamped to at least 1 first).
    pub fn validate(&self) -> Result<()> {
        let workers = self.workers.max(1);
        let intra = self.intra_query_threads.max(1);
        let total = workers.saturating_mul(intra);
        if total > MAX_TOTAL_THREADS {
            return Err(ServiceError::InvalidConfig(format!(
                "{workers} workers × {intra} intra-query threads = {total} \
                 threads oversubscribes the cap of {MAX_TOTAL_THREADS}"
            )));
        }
        Ok(())
    }
}

/// Which cache level (if any) answered a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Neither level hit: full parse + classify + plan + evaluate.
    Miss,
    /// The plan was cached; evaluation still ran.
    PlanHit,
    /// The full answer was cached; nothing ran.
    ResultHit,
}

/// A successful query answer plus its provenance.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The answer relation (shared with the result cache).
    pub rows: Arc<Relation>,
    /// Human-readable engine name from the plan.
    pub engine: &'static str,
    /// Which cache level answered.
    pub cache: CacheOutcome,
    /// Catalog generation the answer was computed against.
    pub generation: u64,
    /// Database epoch the answer was computed against.
    pub epoch: u64,
    /// End-to-end latency observed by the service.
    pub latency: Duration,
    /// The answer `rows` belongs to: how its encoded body reaches the
    /// server.
    pub(crate) answer: Arc<Answer>,
}

/// Summary returned by [`QueryService::load_str`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadSummary {
    /// The catalog name loaded under.
    pub name: String,
    /// Relations in the loaded database.
    pub relations: usize,
    /// Total tuples.
    pub tuples: usize,
    /// Catalog generation assigned to the load.
    pub generation: u64,
    /// The database's own epoch after loading.
    pub epoch: u64,
}

/// What [`QueryService::explain`] reports (the wire `EXPLAIN` body).
#[derive(Debug, Clone)]
#[allow(clippy::struct_excessive_bools)] // wire fields, not a state machine
pub struct Explanation {
    /// Structural fingerprint of the query.
    pub fingerprint: u64,
    /// Engine the plan commits to.
    pub engine: &'static str,
    /// Classification one-liner.
    pub summary: &'static str,
    /// Query-size parameter `q`.
    pub q: usize,
    /// Variable-count parameter `v`.
    pub v: usize,
    /// Color parameter `k` when `≠` atoms exist.
    pub color_parameter: Option<usize>,
    /// Hypertree width of the (effective) query: `Some(1)` for acyclic
    /// queries, the decomposition width for cyclic ones, `None` when no
    /// width was established.
    pub hypertree_width: Option<usize>,
    /// Is the reported width exact (vs. a heuristic upper bound)?
    pub width_exact: bool,
    /// Decomposition shape (`bags=… depth=… width=…`) when the analyzer
    /// attached one — what the hypertree engine would sweep.
    pub decomposition: Option<String>,
    /// Was the plan already cached before this call?
    pub plan_was_cached: bool,
    /// Is the answer against the named database currently cached?
    pub result_is_cached: bool,
    /// Where an execution right now would get its answer from:
    /// `"result-cache"` (nothing runs), `"view-scan"` (a registered view's
    /// maintained relation is scanned/projected), `"plan-cache"`
    /// (evaluation runs on the cached plan), or `"cold"` (full parse +
    /// analyze + plan + evaluate). This is what tells an operator *why* a
    /// query was fast.
    pub answer_source: &'static str,
    /// The registered view that answers this query by scan or projection
    /// (`PQA801`/`PQA802` against the named database's live view
    /// registry), when one matches.
    pub answered_from_view: Option<String>,
    /// Fingerprint of the equivalence-class canonical core — the `PQA803`
    /// semantic cache key under which this query's results are stored,
    /// shared by every query with the same minimized core.
    pub equivalence_class: u64,
    /// Is the query provably empty on every database (evaluation skipped)?
    pub provably_empty: bool,
    /// Display form of the minimized core when minimization shrank the
    /// query (execution runs this query, not the submitted one).
    pub minimized: Option<String>,
    /// Analyzer diagnostics, rendered (`PQAnnn [sev] at span: message`) —
    /// the query-only passes plus the schema pass against the named
    /// database.
    pub diagnostics: Vec<String>,
    /// Current catalog generation of the database.
    pub generation: u64,
    /// Current epoch of the database.
    pub epoch: u64,
}

/// What [`QueryService::analyze`] reports (the wire `ANALYZE` body): the
/// full static analysis of a query, including the Fig. 1 parameter report
/// and the schema pass against the named database. Computed once at
/// plan-cache-fill time for valid queries — a warm `ANALYZE` only pays for
/// the schema pass.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Structural fingerprint of the query.
    pub fingerprint: u64,
    /// Engine the plan commits to (for unplannable queries, the analyzer's
    /// engine hint).
    pub engine: &'static str,
    /// Classification one-liner.
    pub summary: &'static str,
    /// Fig. 1 cell name (`acyclic-pure`, `acyclic-neq`, …).
    pub cell: &'static str,
    /// Query-size parameter `q` (of the minimized core when one exists).
    pub q: usize,
    /// Variable-count parameter `v`.
    pub v: usize,
    /// Largest relational-atom arity.
    pub max_arity: usize,
    /// Number of `≠` atoms.
    pub neq_count: usize,
    /// Number of comparison atoms.
    pub cmp_count: usize,
    /// Color parameter `k` when `≠` atoms exist.
    pub color_parameter: Option<usize>,
    /// Hypertree width of the (effective) query, when established.
    pub hypertree_width: Option<usize>,
    /// Is the reported width exact (vs. a heuristic upper bound)?
    pub width_exact: bool,
    /// Decomposition shape (`bags=… depth=… width=…`) when one exists.
    pub decomposition: Option<String>,
    /// When cyclic: the GYO-irreducible atom indices (the cycle witness).
    pub cycle_witness: Option<Vec<usize>>,
    /// Is the query provably empty on every database?
    pub provably_empty: bool,
    /// Display form of the minimized core, when minimization helped.
    pub minimized: Option<String>,
    /// All diagnostics, rendered, in pass order (schema pass last).
    pub diagnostics: Vec<String>,
    /// Did the analysis come from the plan cache (vs. running now)?
    pub plan_was_cached: bool,
    /// Current catalog generation of the database.
    pub generation: u64,
    /// Current epoch of the database.
    pub epoch: u64,
}

/// What [`QueryService::analyze_datalog`] reports (the wire `ANALYZE` body
/// for Datalog programs): the whole-program `PQA5xx` analysis — dependency
/// graph, dead-rule pruning, recursion classification, per-rule core
/// minimization — plus the schema pass of the EDB atoms against the named
/// database.
#[derive(Debug, Clone)]
pub struct ProgramAnalysisReport {
    /// The goal relation.
    pub goal: String,
    /// Rules in the submitted program.
    pub rules_total: usize,
    /// Rules that survive dead-rule pruning.
    pub rules_live: usize,
    /// Indices (program order) of the pruned rules.
    pub dead_rules: Vec<usize>,
    /// EDB relations, sorted.
    pub edb: Vec<String>,
    /// IDB relations, sorted.
    pub idb: Vec<String>,
    /// SCC count of the live program's IDB dependency graph.
    pub scc_count: usize,
    /// Overall recursion class (`nonrecursive` / `linear` / `nonlinear`).
    pub recursion: &'static str,
    /// Maximum atom arity over the live, minimized rules.
    pub max_arity: usize,
    /// Is the goal provably empty on every database (underivable)?
    pub provably_empty: bool,
    /// One-line display form of the rewritten program, when the analysis
    /// pruned or minimized anything (execution runs this program).
    pub rewritten: Option<String>,
    /// All diagnostics, rendered, in pass order (schema pass last).
    pub diagnostics: Vec<String>,
    /// Current catalog generation of the database.
    pub generation: u64,
    /// Current epoch of the database.
    pub epoch: u64,
}

/// What a `QUERY` request asks the service to aggregate: nothing (the
/// answer relation itself), the total count, or grouped counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CountMode {
    /// `@count`: one row with the single attribute `count` — the number of
    /// distinct answer tuples `|Q(d)|`, computed without enumerating them
    /// whenever the `PQA7xx` analysis allows.
    Total,
    /// `@count_by(x,…)`: one row per assignment of the named head
    /// variables, attributes `x…, count`.
    Grouped(Vec<String>),
}

/// The committed plan of a [`Prepared`] query: one variant per result mode.
#[derive(Debug)]
enum PreparedPlan {
    /// The answer relation itself (`QUERY`, `EXPLAIN`, `ANALYZE`, views).
    Answer(Plan),
    /// `@count` and `@count_by(…)`, which share one counting plan.
    Count(CountPlan),
}

/// Everything derived from the query text alone — the payload of the one
/// plan cache, keyed by `(canonical form, counting?)`: a parsed, validated,
/// classified query with the plan of its result mode and the parts of its
/// result-cache key that do not depend on the data.
#[derive(Debug)]
struct Prepared {
    /// The parsed AST.
    query: ConjunctiveQuery,
    /// The committed plan, and the two facts about it every stage reads
    /// whatever its kind: the engine label and the recommended intra-query
    /// parallelism degree.
    plan: PreparedPlan,
    engine: &'static str,
    parallelism: usize,
    /// Canonical form ([`pq_query::canonical_form`]), identifying the query
    /// exactly.
    canonical: Arc<str>,
    /// Structural fingerprint (display/wire identifier; a hash of
    /// `canonical`, so it is *not* used alone as a cache key).
    fingerprint: u64,
    /// The base relations the plan reads, sorted — the relations whose
    /// epochs key this query's cached results.
    mentions: Vec<String>,
    /// The query component of the [`ResultKey`], computed once. For an
    /// answer plan it is the canonical form of the minimized core — the
    /// `PQA803` equivalence-class (semantic) key, equal to `canonical` when
    /// minimization changed nothing; every query whose core is
    /// alpha-equivalent shares one result-cache entry under it. For a count
    /// plan it is `@count <canonical>`: the `@` can never start a canonical
    /// form (those start with a head atom), so counts and plain answers of
    /// one query occupy distinct entries.
    result_text: Arc<str>,
    /// Does `result_text` render the minimized core rather than the literal
    /// query? A result hit then crossed canonical forms.
    rekeyed: bool,
    /// Structural fingerprint of the minimized core (the wire
    /// `equivalence-class` identifier; like `fingerprint`, never a key).
    semantic_fingerprint: u64,
}

impl Prepared {
    fn analysis(&self) -> &Analysis {
        match &self.plan {
            PreparedPlan::Answer(p) => &p.analysis,
            PreparedPlan::Count(p) => &p.analysis,
        }
    }

    /// The plan's own diagnostics plus the schema pass against `db`,
    /// rendered (`EXPLAIN` and `ANALYZE` print the same lines).
    fn diagnostics(&self, db: &Database) -> Vec<String> {
        let schema = pq_analyze::schema_diagnostics(&self.query, db);
        self.analysis()
            .diagnostics
            .iter()
            .chain(&schema)
            .map(ToString::to_string)
            .collect()
    }
}

/// Why [`QueryService::prepare`] refused a query text: the error, plus the
/// AST when the text parsed but failed validation (`ANALYZE` explains those).
struct Rejected {
    error: QueryError,
    query: Option<Box<ConjunctiveQuery>>,
}

impl From<Rejected> for ServiceError {
    fn from(r: Rejected) -> Self {
        r.error.into()
    }
}

/// `(query text, db name)`: one result-cache entry per query and database.
/// The query text is [`Prepared::result_text`] (for `@count_by`, the group
/// list and the canonical form) — a full rendering, not a fingerprint, so even a
/// 64-bit hash collision between distinct queries only costs a miss, never
/// a wrong answer. Which state of the database the entry answers is its
/// [`Stamp`], not part of the key, so a newer answer replaces the older one.
type ResultKey = (Arc<str>, String);

/// The database state an [`Answer`] was computed against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Stamp {
    /// Catalog generation.
    generation: u64,
    /// [`mentions_fingerprint`] of the relations the plan reads. Within one
    /// generation the epoch vector is monotone and never repeats (see
    /// [`Catalog::update`]), so a changed relation changes the fingerprint,
    /// while mutations elsewhere leave it — and the entry — servable.
    fingerprint: u64,
    /// The database's own epoch; with `generation`, orders the states of one
    /// name.
    epoch: u64,
}

impl Stamp {
    /// Does an answer stamped `self` answer the same query on a snapshot
    /// stamped `bound`? The database epoch is not compared: it also moves
    /// when a relation the query never reads does.
    fn serves(self, bound: Stamp) -> bool {
        (self.generation, self.fingerprint) == (bound.generation, bound.fingerprint)
    }

    /// Was `self` taken from a later state of the database than `other`?
    fn newer_than(self, other: Stamp) -> bool {
        (self.generation, self.epoch) > (other.generation, other.epoch)
    }
}

/// One computed answer — the result cache's value, and what a response
/// carries to the server. Counts use the same shape, so IVM maintenance
/// patches cached counts exactly like cached answers.
///
/// An answer is made on one connection thread, then read, reference-counted
/// and dropped by all of them, so it gets cache lines of its own. Unaligned
/// it was 72 bytes with its counts — the allocator size class of the
/// catalog's `Arc<Database>`, whose counts every request moves — and the
/// freed slots of that class, recycled through the threads' allocator
/// caches, ended up beside the live database: `wire-cold` lost 30 % of its
/// throughput to the shared lines, on two cores only (DESIGN.md §10).
#[derive(Debug)]
#[repr(align(64))]
pub(crate) struct Answer {
    rows: Arc<Relation>,
    stamp: Stamp,
    /// The rows' wire encoding ([`encode_rows`]), written by the first
    /// response that needs it and shared by every later one.
    body: OnceLock<Arc<[u8]>>,
}

impl Answer {
    /// The encoded response body of this answer; encodes on first use.
    pub(crate) fn body(&self) -> &Arc<[u8]> {
        self.body.get_or_init(|| {
            let mut encoded = Vec::new();
            encode_rows(&self.rows, &mut encoded);
            encoded.into()
        })
    }
}

/// FNV-1a over the `(name, relation epoch)` pairs of the plan's mentioned
/// relations — the per-relation component of a [`Stamp`].
fn mentions_fingerprint(db: &Database, mentions: &[String]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    fn eat(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        h
    }
    let mut h = OFFSET;
    for name in mentions {
        h = eat(h, name.as_bytes());
        h = eat(h, &[0]);
        h = eat(h, &db.relation_epoch(name).to_le_bytes());
    }
    h
}

/// The result-cache key of `prepared` on `snap`'s database and the stamp of
/// `snap` for it; `groups` is the `@count_by` list (`None` for plain answers
/// and `@count`).
fn result_key(
    prepared: &Prepared,
    groups: Option<&[String]>,
    snap: &DbSnapshot,
) -> (ResultKey, Stamp) {
    let text = match groups {
        Some(groups) => format!("@count_by({}) {}", groups.join(","), prepared.canonical).into(),
        None => Arc::clone(&prepared.result_text),
    };
    let stamp = Stamp {
        generation: snap.generation,
        fingerprint: mentions_fingerprint(&snap.db, &prepared.mentions),
        epoch: snap.epoch,
    };
    ((text, snap.name.clone()), stamp)
}

/// Build a governed execution context from resolved request limits. Also
/// the maintenance governor: view maintenance runs under the service's
/// default limits and the same cancellation token as queries.
fn governor_ctx(limits: RequestLimits, cancel: &CancellationToken) -> ExecutionContext {
    let mut ctx = ExecutionContext::new().with_cancellation(cancel.clone());
    if let Some(d) = limits.deadline {
        ctx = ctx.with_deadline(d);
    }
    if let Some(b) = limits.tuple_budget {
        ctx = ctx.with_tuple_budget(b);
    }
    if let Some(d) = limits.max_depth {
        ctx = ctx.with_max_depth(d);
    }
    ctx
}

/// Summary of a row-level mutation (the wire `INSERT`/`DELETE` response).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutationSummary {
    /// The catalog name mutated.
    pub name: String,
    /// The relation mutated.
    pub relation: String,
    /// `"inserted"` or `"deleted"`.
    pub op: &'static str,
    /// Rows in the request batch.
    pub requested: usize,
    /// Rows that actually changed membership (duplicates and absent rows
    /// are no-ops).
    pub applied: usize,
    /// Catalog generation after the mutation.
    pub generation: u64,
    /// Database epoch after the mutation.
    pub epoch: u64,
    /// Materialized views maintained by this mutation.
    pub views_maintained: usize,
    /// How many of those views fell back to a full recompute.
    pub fallbacks: usize,
}

/// One maintenance event pushed to a [`Subscription`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubscriptionUpdate {
    /// Tuples that entered the view's answer, sorted.
    pub added: Vec<Tuple>,
    /// Tuples that left the view's answer, sorted.
    pub removed: Vec<Tuple>,
    /// The view's cardinality (`|V(d)|`) *after* this update — carried in
    /// every frame header so a count-subscriber can track the view's size
    /// without replaying its materialization.
    pub cardinality: u64,
    /// Database epoch the update reflects.
    pub epoch: u64,
    /// The delta plan exhausted its budget; the view was rebuilt from
    /// scratch instead (the delta is still exact).
    pub fell_back: bool,
    /// The view could no longer be maintained (rebuild failed, or the
    /// database was dropped) and has been deregistered; this is the final
    /// update.
    pub dropped: bool,
}

/// A live view subscription: the initial answer plus a channel of
/// [`SubscriptionUpdate`]s, one per mutation batch that changed (or
/// dropped) the view. Ends when [`QueryService::unsubscribe`] is called,
/// the view is dropped, or the service shuts down (the channel
/// disconnects).
pub struct Subscription {
    /// Subscription id (pass to [`QueryService::unsubscribe`]).
    pub id: u64,
    /// The catalog name subscribed against.
    pub database: String,
    /// The view's answer at subscription time.
    pub rows: Arc<Relation>,
    /// The delta stream (an unbounded channel: maintenance never blocks on
    /// a slow subscriber).
    pub updates: Receiver<SubscriptionUpdate>,
}

/// One subscriber's registry entry.
struct SubEntry {
    db: String,
    view: String,
    /// The prepared forms whose result-cache entries maintenance patches in
    /// place: the answer and the `@count` of a CQ view (the maintained
    /// answer's cardinality *is* the view's exact distinct count). Empty for
    /// Datalog programs (the wire `QUERY` path does not serve programs).
    cached: Vec<Arc<Prepared>>,
    tx: Sender<SubscriptionUpdate>,
}

/// All view/subscription state, behind one mutex. The lock is held across
/// the catalog update *and* the maintenance pass, so views observe every
/// mutation exactly once and in catalog order.
#[derive(Default)]
struct ViewsState {
    /// Per-database view registries.
    registries: BTreeMap<String, ViewRegistry>,
    /// Live subscriptions by id.
    subs: BTreeMap<u64, SubEntry>,
    next_sub: u64,
}

/// The concurrent query service (see the module docs).
pub struct QueryService {
    catalog: Catalog,
    /// `(canonical query form, counting?)` → [`Prepared`]: answer plans and
    /// count plans of one query are separate entries of the one map.
    plan_cache: ShardedCache<(Arc<str>, bool), Prepared>,
    result_cache: ShardedCache<ResultKey, Answer>,
    metrics: ServiceMetrics,
    config: ServiceConfig,
    shutdown: AtomicBool,
    cancel: CancellationToken,
    /// The durability manager when [`ServiceConfig::durability`] is set;
    /// also attached to `catalog` (which journals through it) — kept here
    /// for stats and recovery reporting.
    durability: Option<Arc<Durability>>,
    /// Admission control for stage `run` (see [`crate::gate`]).
    gate: Gate,
    /// Intra-query execution pool descriptor, shared by all requests so pool
    /// occupancy and task counters aggregate service-wide (the pool spawns
    /// scoped threads per run; it owns no threads of its own).
    exec: Pool,
    /// Materialized views and live subscriptions (see [`ViewsState`]).
    views: Mutex<ViewsState>,
}

impl QueryService {
    /// Start a service.
    ///
    /// # Panics
    /// If the configuration oversubscribes [`MAX_TOTAL_THREADS`]; use
    /// [`QueryService::try_new`] to handle that as an error.
    pub fn new(config: ServiceConfig) -> Self {
        QueryService::try_new(config).expect("invalid service configuration")
    }

    /// Start a service, rejecting invalid configurations (see
    /// [`ServiceConfig::validate`]) with [`ServiceError::InvalidConfig`]
    /// instead of panicking.
    ///
    /// # Errors
    /// [`ServiceError::InvalidConfig`] when
    /// `workers × intra_query_threads > MAX_TOTAL_THREADS`;
    /// [`ServiceError::Recovery`] when [`ServiceConfig::durability`] is set
    /// and the on-disk state cannot be trusted (the service refuses to
    /// start rather than serve from a corrupt catalog).
    pub fn try_new(config: ServiceConfig) -> Result<Self> {
        config.validate()?;
        // The service's intra-query knob is authoritative: plans built here
        // should recommend at most (and, when the query has fan-out, exactly)
        // the degree the exec pool actually provides.
        let mut config = config;
        config.planner.max_parallelism = config.intra_query_threads.max(1);
        let catalog = Catalog::new();
        let durability = match config.durability.clone() {
            Some(dcfg) => {
                let (recovered, journal) = Durability::recover(dcfg)?;
                // Install recovered databases *before* attaching the journal:
                // recovery inserts must not re-log themselves.
                for (name, db) in recovered {
                    catalog.insert(name, db)?;
                }
                let journal = Arc::new(journal);
                catalog.attach_journal(Arc::clone(&journal));
                Some(journal)
            }
            None => None,
        };
        Ok(QueryService {
            catalog,
            plan_cache: ShardedCache::new(config.plan_cache_capacity, config.cache_shards),
            result_cache: ShardedCache::new(config.result_cache_capacity, config.cache_shards),
            metrics: ServiceMetrics::default(),
            gate: Gate::new(config.workers, config.queue_depth),
            exec: Pool::new(config.intra_query_threads.max(1)),
            config,
            shutdown: AtomicBool::new(false),
            cancel: CancellationToken::new(),
            durability,
            views: Mutex::new(ViewsState::default()),
        })
    }

    /// A service with default configuration.
    pub fn with_defaults() -> Self {
        QueryService::new(ServiceConfig::default())
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Has [`QueryService::shutdown`] been called?
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    fn check_admitting(&self) -> Result<()> {
        if self.is_shutdown() {
            return Err(ServiceError::ShuttingDown);
        }
        Ok(())
    }

    // ---- catalog operations ----

    /// Parse database text (the `pq-data` loader format) and install it
    /// under `name`, replacing any previous database.
    ///
    /// # Errors
    /// [`ServiceError::Data`] if the text does not parse;
    /// [`ServiceError::Durability`] if the WAL append fails;
    /// [`ServiceError::ShuttingDown`] after [`QueryService::shutdown`].
    pub fn load_str(&self, name: &str, text: &str) -> Result<LoadSummary> {
        self.check_admitting()?;
        let db = loader::parse_database(text)?;
        self.install(name, db)
    }

    /// Install an already-built database under `name`.
    ///
    /// # Errors
    /// [`ServiceError::Durability`] if the WAL append fails;
    /// [`ServiceError::ShuttingDown`] after [`QueryService::shutdown`].
    pub fn load_database(&self, name: &str, db: Database) -> Result<LoadSummary> {
        self.check_admitting()?;
        self.install(name, db)
    }

    /// Install `db` under `name`; when the name had registered views, every
    /// one recomputes against the replacement (subscribers receive the
    /// answer diff, views that no longer materialize are dropped).
    fn install(&self, name: &str, db: Database) -> Result<LoadSummary> {
        let (relations, tuples, epoch) = (db.num_relations(), db.num_tuples(), db.epoch());
        let mut views = self.views.lock().expect("views poisoned");
        let generation = self.catalog.insert(name, db)?;
        ServiceMetrics::bump(&self.metrics.loads);
        if views.registries.contains_key(name) {
            let snap = self.catalog.snapshot(name)?;
            self.maintain_views(&mut views, &snap, None);
        }
        Ok(LoadSummary {
            name: name.to_string(),
            relations,
            tuples,
            generation,
            epoch,
        })
    }

    /// Mutate the named database in place (the relevant epochs advance, so
    /// cached results for the old state stop being served). The closure's
    /// edits carry no row deltas, so any views on this database recompute
    /// wholesale — prefer [`QueryService::insert_rows`] /
    /// [`QueryService::delete_rows`], which maintain views incrementally.
    ///
    /// # Errors
    /// [`ServiceError::UnknownDatabase`] if `name` is not in the catalog;
    /// [`ServiceError::ShuttingDown`] after [`QueryService::shutdown`].
    pub fn update_database<R>(&self, name: &str, f: impl FnOnce(&mut Database) -> R) -> Result<R> {
        self.check_admitting()?;
        let mut views = self.views.lock().expect("views poisoned");
        let out = self.catalog.update(name, f)?;
        ServiceMetrics::bump(&self.metrics.mutations);
        if views.registries.contains_key(name) {
            let snap = self.catalog.snapshot(name)?;
            self.maintain_views(&mut views, &snap, None);
        }
        Ok(out)
    }

    /// Drop the named database from the catalog; `true` when it existed.
    /// When durability is on, a tombstone is journaled so recovery does not
    /// resurrect the database. Views on the database are deregistered and
    /// their subscribers receive a final `dropped` update.
    ///
    /// # Errors
    /// [`ServiceError::Durability`] if the tombstone append fails;
    /// [`ServiceError::ShuttingDown`] after [`QueryService::shutdown`].
    pub fn drop_database(&self, name: &str) -> Result<bool> {
        self.check_admitting()?;
        let mut views = self.views.lock().expect("views poisoned");
        let existed = self.catalog.remove(name)?;
        if existed {
            ServiceMetrics::bump(&self.metrics.drops);
            self.drop_views(&mut views, name);
        }
        Ok(existed)
    }

    // ---- row-level mutations & live views ----

    /// Insert rows into `relation` of the named database. Only genuinely new
    /// rows count as applied; the mutation is journaled through the WAL, the
    /// relation's epoch advances, and every registered view whose plan reads
    /// `relation` is maintained incrementally (subscribers receive the
    /// answer delta, cached results are patched in place).
    ///
    /// # Errors
    /// [`ServiceError::UnknownDatabase`] / [`ServiceError::Data`] for an
    /// unknown database/relation or an arity mismatch;
    /// [`ServiceError::Durability`] if the WAL append fails;
    /// [`ServiceError::ShuttingDown`] after [`QueryService::shutdown`].
    pub fn insert_rows(
        &self,
        db_name: &str,
        relation: &str,
        rows: Vec<Tuple>,
    ) -> Result<MutationSummary> {
        self.mutate(db_name, relation, rows, false)
    }

    /// Delete rows from `relation` of the named database. Rows that are not
    /// present are skipped; otherwise behaves like
    /// [`QueryService::insert_rows`] with the delta signs flipped.
    ///
    /// # Errors
    /// As for [`QueryService::insert_rows`].
    pub fn delete_rows(
        &self,
        db_name: &str,
        relation: &str,
        rows: Vec<Tuple>,
    ) -> Result<MutationSummary> {
        self.mutate(db_name, relation, rows, true)
    }

    fn mutate(
        &self,
        db_name: &str,
        relation: &str,
        rows: Vec<Tuple>,
        delete: bool,
    ) -> Result<MutationSummary> {
        self.check_admitting()?;
        let requested = rows.len();
        // The views lock is taken before any catalog lock (the ordering every
        // path follows), so maintenance passes observe mutations in the order
        // they were applied.
        let mut views = self.views.lock().expect("views poisoned");
        let rel = relation.to_string();
        // A batch that changes nothing — duplicates, absent rows, or one the
        // row methods reject (unknown relation, wrong arity) — leaves the
        // generation, the epochs, the WAL and so every cache key untouched.
        let delta = self
            .catalog
            .apply(db_name, true, |db| -> Result<RelationDelta> {
                let (added, removed) = if delete {
                    (Vec::new(), db.delete_rows(&rel, &rows)?)
                } else {
                    (db.insert_rows(&rel, rows)?, Vec::new())
                };
                Ok(RelationDelta {
                    relation: rel.clone(),
                    added,
                    removed,
                })
            })??;
        ServiceMetrics::bump(&self.metrics.mutations);
        let snap = self.catalog.snapshot(db_name)?;
        let applied = delta.added.len() + delta.removed.len();
        let outcomes = if applied > 0 {
            self.maintain_views(&mut views, &snap, Some(&[delta]))
        } else {
            Vec::new()
        };
        Ok(MutationSummary {
            name: snap.name.clone(),
            relation: relation.to_string(),
            op: if delete { "deleted" } else { "inserted" },
            requested,
            applied,
            generation: snap.generation,
            epoch: snap.epoch,
            views_maintained: outcomes.len(),
            fallbacks: outcomes.iter().filter(|o| o.fell_back).count(),
        })
    }

    /// Register a materialized view of `src` over the named database and
    /// stream its answer deltas. `src` is a conjunctive query, or — when the
    /// text contains a `?-` goal marker — a whole Datalog program whose goal
    /// defines the view.
    ///
    /// The initial answer is materialized synchronously under the service's
    /// default limits. Afterwards, every [`QueryService::insert_rows`] /
    /// [`QueryService::delete_rows`] that changes the answer pushes one
    /// [`SubscriptionUpdate`] on the returned channel; reloads and untracked
    /// updates trigger a full recompute and push the resulting diff. For
    /// conjunctive queries the result cache is patched in place on every
    /// maintenance pass, so `QUERY` for the same text stays a result-cache
    /// hit across mutations.
    ///
    /// # Errors
    /// [`ServiceError::Parse`] for invalid query text;
    /// [`ServiceError::UnknownDatabase`] if `db_name` is not in the catalog;
    /// [`ServiceError::Engine`] when the initial materialization fails (e.g.
    /// exhausts the default budget);
    /// [`ServiceError::ShuttingDown`] after [`QueryService::shutdown`].
    pub fn subscribe(&self, db_name: &str, src: &str) -> Result<Subscription> {
        self.check_admitting()?;
        let mut views = self.views.lock().expect("views poisoned");
        let snap = self.catalog.snapshot(db_name)?;
        let (query, cached) = if src.contains("?-") {
            (
                ViewQuery::Program(pq_query::parse_datalog(src)?),
                Vec::new(),
            )
        } else {
            let (answer, _) = self.prepare(src, false)?;
            let (count, _) = self.prepare(src, true)?;
            (ViewQuery::Cq(answer.query.clone()), vec![answer, count])
        };
        let id = views.next_sub;
        let proposed = format!("sub-{id}");
        let limits = self.config.default_limits;
        let ctx = governor_ctx(limits, &self.cancel);
        // Deduplicate: a view equivalent to an already-registered one is
        // reused (its maintained answer is shared), not materialized and
        // maintained twice.
        let (view_name, rows) = views
            .registries
            .entry(snap.name.clone())
            .or_default()
            .register_or_reuse(proposed.clone(), query, &snap.db, &ctx)?;
        views.next_sub += 1;
        if view_name == proposed {
            ServiceMetrics::bump(&self.metrics.views_registered);
        }
        ServiceMetrics::bump(&self.metrics.subscriptions_active);
        // Prime the result cache: the freshly materialized answer is exactly
        // what a QUERY (or QUERY @count) for the same text would produce.
        self.fill_from_view(&cached, &snap, &rows);
        let (tx, rx) = mpsc::channel();
        views.subs.insert(
            id,
            SubEntry {
                db: snap.name.clone(),
                view: view_name,
                cached,
                tx,
            },
        );
        Ok(Subscription {
            id,
            database: snap.name,
            rows,
            updates: rx,
        })
    }

    /// The current maintained answer of subscription `id` on `db_name`;
    /// `None` when no such live subscription exists.
    pub fn answer_rows(&self, db_name: &str, id: u64) -> Option<Arc<Relation>> {
        let views = self.views.lock().expect("views poisoned");
        let sub = views.subs.get(&id)?;
        if sub.db != db_name {
            return None;
        }
        views.registries.get(db_name)?.answer(&sub.view)
    }

    /// End a subscription: deregister its view and disconnect its update
    /// stream. `true` when `id` was live.
    pub fn unsubscribe(&self, id: u64) -> bool {
        let mut views = self.views.lock().expect("views poisoned");
        let Some(sub) = views.subs.remove(&id) else {
            return false;
        };
        ServiceMetrics::dec(&self.metrics.subscriptions_active);
        // Deduplicated subscriptions share one registered view: only
        // deregister it when no other live subscription still reads it.
        let shared = views
            .subs
            .values()
            .any(|s| s.db == sub.db && s.view == sub.view);
        if !shared {
            if let Some(registry) = views.registries.get_mut(&sub.db) {
                if registry.deregister(&sub.view) {
                    ServiceMetrics::dec(&self.metrics.views_registered);
                }
                if registry.is_empty() {
                    views.registries.remove(&sub.db);
                }
            }
        }
        true
    }

    /// The matching half of the view stage: the registered view (if any) on
    /// `db_name` that answers `prepared` by scan or projection — the
    /// `PQA801`/`PQA802` match run against the database's *live* view
    /// registry (the plan cache is shared across databases, so view
    /// matching cannot be baked into the plan). The caller holds the views
    /// lock.
    fn view_match<'v>(
        &self,
        views: &'v ViewsState,
        prepared: &Prepared,
        db_name: &str,
    ) -> Option<(&'v ViewRegistry, pq_analyze::ViewMatch)> {
        let registry = views.registries.get(db_name)?;
        let shapes = registry.cq_shapes();
        if shapes.is_empty() {
            return None;
        }
        let q = prepared.analysis().effective(&prepared.query);
        let limit = self.config.planner.analysis.containment_atom_limit;
        Some((
            registry,
            pq_analyze::match_against_views(q, &shapes, limit)?,
        ))
    }

    /// Stage `view` (answer mode only): answer `prepared` from a registered
    /// view's maintained relation — match against the database's CQ-shaped
    /// views and project the maintained answer onto the query's head (an
    /// `O(|view|)` scan, no join evaluation). Returns the answer plus a
    /// snapshot taken under the views lock: maintenance runs under that
    /// lock, so the maintained relation reflects exactly the snapshot's
    /// epochs and the result is safe to cache under the snapshot's stamp.
    fn view(&self, prepared: &Prepared, db_name: &str) -> Option<(Arc<Relation>, DbSnapshot)> {
        let views = self.views.lock().expect("views poisoned");
        let (registry, m) = self.view_match(&views, prepared, db_name)?;
        let answer = registry.answer(&m.view)?;
        let snap = self.catalog.snapshot(db_name).ok()?;
        // Rebuild under the query's own head attributes even for exact
        // matches, so the response is byte-identical to direct evaluation.
        let q = prepared.analysis().effective(&prepared.query);
        let rows = view_scan(q, &answer, &m.projection).ok()?;
        Some((Arc::new(rows), snap))
    }

    /// Bring every view on `snap`'s database up to date and publish the
    /// outcomes: incrementally from `deltas`, or — after a wholesale
    /// replacement, where no row deltas exist — from scratch. Empty when the
    /// database has no views.
    fn maintain_views(
        &self,
        views: &mut ViewsState,
        snap: &DbSnapshot,
        deltas: Option<&[RelationDelta]>,
    ) -> Vec<MaintainOutcome> {
        let Some(registry) = views.registries.get_mut(&snap.name) else {
            return Vec::new();
        };
        let (limits, cancel) = (self.config.default_limits, &self.cancel);
        let ctx = || governor_ctx(limits, cancel);
        let start = Instant::now();
        let outcomes = match deltas {
            Some(deltas) => registry.maintain(&snap.db, deltas, ctx),
            None => registry.refresh(&snap.db, ctx),
        };
        self.publish_outcomes(views, snap, &outcomes, start.elapsed());
        outcomes
    }

    /// Fan one maintenance pass out: record its latency and fallbacks, patch
    /// the result cache with each maintained answer, push deltas to
    /// subscribers, and reap subscriptions whose views were dropped.
    fn publish_outcomes(
        &self,
        views: &mut ViewsState,
        snap: &DbSnapshot,
        outcomes: &[MaintainOutcome],
        elapsed: Duration,
    ) {
        if outcomes.is_empty() {
            return;
        }
        let m = &self.metrics;
        m.ivm_maintain.record(elapsed);
        let mut gone: Vec<u64> = Vec::new();
        for o in outcomes {
            if o.fell_back {
                ServiceMetrics::bump(&m.ivm_maintain_fallbacks);
            }
            if o.dropped {
                ServiceMetrics::dec(&m.views_registered);
            }
            for (&id, sub) in &views.subs {
                if sub.db != snap.name || sub.view != o.view {
                    continue;
                }
                if !o.dropped {
                    self.fill_from_view(&sub.cached, snap, &o.answer);
                }
                if !o.delta.is_empty() || o.dropped {
                    let update = SubscriptionUpdate {
                        added: o.delta.added.clone(),
                        removed: o.delta.removed.clone(),
                        cardinality: o.answer.len() as u64,
                        epoch: snap.epoch,
                        fell_back: o.fell_back,
                        dropped: o.dropped,
                    };
                    if sub.tx.send(update).is_ok() {
                        ServiceMetrics::bump(&m.deltas_pushed);
                    }
                }
                if o.dropped {
                    gone.push(id);
                }
            }
        }
        for id in gone {
            views.subs.remove(&id);
            ServiceMetrics::dec(&m.subscriptions_active);
        }
    }

    /// Install a view's maintained `answer`, stamped with `snap`'s state, for
    /// each of its `cached` forms: the answer itself, and its cardinality as
    /// the `@count` (the maintained answer is the view's exact distinct
    /// answer set). This is how `SUBSCRIBE` primes the result cache and how
    /// IVM patches it after a mutation: each fill replaces the form's
    /// previous entry, and with it the body encoded for the old rows.
    fn fill_from_view(&self, cached: &[Arc<Prepared>], snap: &DbSnapshot, answer: &Arc<Relation>) {
        for p in cached {
            let rows = match &p.plan {
                PreparedPlan::Answer(_) => Arc::clone(answer),
                PreparedPlan::Count(_) => {
                    let n = answer.len() as u128;
                    let Ok(count) = count_relation(&QueryCount {
                        distinct: n,
                        assignments: n,
                    }) else {
                        continue;
                    };
                    Arc::new(count)
                }
            };
            let (key, stamp) = result_key(p, None, snap);
            self.fill(key, rows, stamp);
        }
    }

    /// Deregister every view and subscription on `name` (the database was
    /// dropped); each subscriber receives a final `dropped` update.
    fn drop_views(&self, views: &mut ViewsState, name: &str) {
        let m = &self.metrics;
        if let Some(registry) = views.registries.remove(name) {
            for _ in 0..registry.len() {
                ServiceMetrics::dec(&m.views_registered);
            }
        }
        let gone: Vec<u64> = views
            .subs
            .iter()
            .filter(|(_, s)| s.db == name)
            .map(|(&id, _)| id)
            .collect();
        for id in gone {
            let Some(sub) = views.subs.remove(&id) else {
                continue;
            };
            ServiceMetrics::dec(&m.subscriptions_active);
            let update = SubscriptionUpdate {
                added: Vec::new(),
                removed: Vec::new(),
                cardinality: 0,
                epoch: 0,
                fell_back: false,
                dropped: true,
            };
            if sub.tx.send(update).is_ok() {
                ServiceMetrics::bump(&m.deltas_pushed);
            }
        }
    }

    /// Force a snapshot of the whole catalog to stable storage now,
    /// rotating the WAL (the wire `PERSIST` verb).
    ///
    /// # Errors
    /// [`ServiceError::Durability`] when durability is not configured or
    /// the snapshot I/O fails;
    /// [`ServiceError::ShuttingDown`] after [`QueryService::shutdown`].
    pub fn persist(&self) -> Result<SnapshotSummary> {
        self.check_admitting()?;
        self.catalog.persist()
    }

    /// What startup recovery found and did; `None` when the service runs
    /// without durability.
    pub fn recovery_stats(&self) -> Option<RecoveryStats> {
        self.durability.as_ref().map(|d| d.recovery_stats().clone())
    }

    /// Names in the catalog, sorted.
    pub fn database_names(&self) -> Vec<String> {
        self.catalog.names()
    }

    /// Snapshot the named database (for oracles/tests that need the exact
    /// data a concurrent query saw).
    ///
    /// # Errors
    /// [`ServiceError::UnknownDatabase`] if `name` is not in the catalog.
    pub fn snapshot(&self, name: &str) -> Result<DbSnapshot> {
        self.catalog.snapshot(name)
    }

    // ---- planning ----

    /// Classify/plan `src` (through the plan cache) and report where an
    /// execution against `db_name` would land.
    ///
    /// # Errors
    /// [`ServiceError::Parse`] if `src` is not a valid conjunctive query;
    /// [`ServiceError::UnknownDatabase`] if `db_name` is not in the catalog;
    /// [`ServiceError::ShuttingDown`] after [`QueryService::shutdown`].
    pub fn explain(&self, db_name: &str, src: &str) -> Result<Explanation> {
        self.check_admitting()?;
        let (prepared, plan_was_cached) = self.prepare(src, false)?;
        let (snap, key, stamp) = self.bind(&prepared, None, db_name)?;
        // The probe moves the cache's own hit/miss counters but not the
        // service's `result_hits`/`result_misses`: nothing was served.
        let result_is_cached = self.lookup(&key, stamp).is_some();
        let answered_from_view = {
            let views = self.views.lock().expect("views poisoned");
            self.view_match(&views, &prepared, db_name)
                .map(|(_, m)| m.view)
        };
        let a = prepared.analysis();
        let r = &a.report;
        Ok(Explanation {
            fingerprint: prepared.fingerprint,
            engine: prepared.engine,
            summary: r.summary,
            q: r.q,
            v: r.v,
            color_parameter: r.color_parameter,
            hypertree_width: r.hypertree_width,
            width_exact: r.width_exact,
            decomposition: r.decomposition.as_ref().map(HypertreeDecomposition::shape),
            plan_was_cached,
            result_is_cached,
            answer_source: if result_is_cached {
                "result-cache"
            } else if answered_from_view.is_some() {
                "view-scan"
            } else if plan_was_cached {
                "plan-cache"
            } else {
                "cold"
            },
            answered_from_view,
            equivalence_class: prepared.semantic_fingerprint,
            provably_empty: a.provably_empty(),
            minimized: a.rewritten.as_ref().map(ToString::to_string),
            diagnostics: prepared.diagnostics(&snap.db),
            generation: snap.generation,
            epoch: snap.epoch,
        })
    }

    /// Run the full static analysis of `src` against the named database:
    /// lints, contradiction detection, core minimization, structural
    /// classification, and the schema pass. For valid queries the
    /// query-only analysis comes from the plan cache (it ran at
    /// plan-cache-fill time); queries that fail validation are analyzed
    /// directly so the diagnostics explaining the rejection still surface.
    ///
    /// # Errors
    /// [`ServiceError::Parse`] if `src` does not parse at all;
    /// [`ServiceError::UnknownDatabase`] if `db_name` is not in the catalog;
    /// [`ServiceError::ShuttingDown`] after [`QueryService::shutdown`].
    pub fn analyze(&self, db_name: &str, src: &str) -> Result<AnalysisReport> {
        self.check_admitting()?;
        let snap = self.catalog.snapshot(db_name)?;
        let (prepared, direct);
        let (fingerprint, engine, analysis, diagnostics, plan_was_cached) =
            match self.prepare(src, false) {
                Ok((p, cached)) => {
                    prepared = p;
                    (
                        prepared.fingerprint,
                        prepared.engine,
                        prepared.analysis(),
                        prepared.diagnostics(&snap.db),
                        cached,
                    )
                }
                // Invalid queries never reach the planner or its cache.
                Err(Rejected {
                    query: Some(query), ..
                }) => {
                    let opts = &self.config.planner.analysis;
                    direct = pq_analyze::analyze_with_db(&query, &snap.db, opts);
                    (
                        query.fingerprint(),
                        direct.report.engine_hint,
                        &direct,
                        direct.diagnostics.iter().map(ToString::to_string).collect(),
                        false,
                    )
                }
                Err(rejected) => return Err(rejected.into()),
            };
        let r = &analysis.report;
        Ok(AnalysisReport {
            fingerprint,
            engine,
            summary: r.summary,
            cell: r.cell.as_str(),
            q: r.q,
            v: r.v,
            max_arity: r.max_arity,
            neq_count: r.neq_count,
            cmp_count: r.cmp_count,
            color_parameter: r.color_parameter,
            hypertree_width: r.hypertree_width,
            width_exact: r.width_exact,
            decomposition: r.decomposition.as_ref().map(HypertreeDecomposition::shape),
            cycle_witness: r.cycle_witness.clone(),
            provably_empty: analysis.provably_empty(),
            minimized: analysis.rewritten.as_ref().map(ToString::to_string),
            diagnostics,
            plan_was_cached,
            generation: snap.generation,
            epoch: snap.epoch,
        })
    }

    /// Run the whole-program Datalog analysis (`PQA5xx`) of `src` against
    /// the named database: predicate dependency graph, dead-rule pruning,
    /// recursion classification, per-rule core minimization, and the schema
    /// pass of the EDB atoms. Programs are not planned or cached — analysis
    /// runs fresh on every call (the pass pipeline is linear in the program,
    /// and programs arrive far less often than queries).
    ///
    /// # Errors
    /// [`ServiceError::Parse`] if `src` is not a parseable Datalog program;
    /// [`ServiceError::UnknownDatabase`] if `db_name` is not in the catalog;
    /// [`ServiceError::ShuttingDown`] after [`QueryService::shutdown`].
    pub fn analyze_datalog(&self, db_name: &str, src: &str) -> Result<ProgramAnalysisReport> {
        self.check_admitting()?;
        let snap = self.catalog.snapshot(db_name)?;
        let program = pq_query::parse_datalog(src)?;
        let a =
            pq_analyze::analyze_program_with_db(&program, &snap.db, &self.config.planner.analysis);
        let r = &a.report;
        Ok(ProgramAnalysisReport {
            goal: program.goal.clone(),
            rules_total: r.rules_total,
            rules_live: r.rules_live,
            dead_rules: r.dead_rules.clone(),
            edb: r.edb.clone(),
            idb: r.idb.clone(),
            scc_count: r.sccs.len(),
            recursion: r.recursion.as_str(),
            max_arity: r.max_arity,
            provably_empty: a.provably_empty(),
            rewritten: a.rewritten.as_ref().map(|p| {
                let rules: Vec<String> = p.rules.iter().map(ToString::to_string).collect();
                format!("{} ?- {}", rules.join(" "), p.goal)
            }),
            diagnostics: a.diagnostics.iter().map(ToString::to_string).collect(),
            generation: snap.generation,
            epoch: snap.epoch,
        })
    }

    // ---- the query path ----

    /// Evaluate `src` against the named database under `limits`.
    ///
    /// Serves from the result cache when possible; otherwise evaluates on
    /// the calling thread once the admission gate lets it (waiting for a
    /// free slot, or rejecting with [`ServiceError::Overloaded`] when
    /// [`ServiceConfig::queue_depth`] evaluations already wait).
    ///
    /// # Errors
    /// [`ServiceError::Overloaded`] when no slot is free and the waiting set
    /// is full;
    /// [`ServiceError::Engine`] when a limit in `limits` trips (resource
    /// exhaustion) or evaluation fails;
    /// [`ServiceError::Parse`] for bad query text;
    /// [`ServiceError::UnknownDatabase`] for an unknown `db_name`;
    /// [`ServiceError::ShuttingDown`] after [`QueryService::shutdown`].
    pub fn query(&self, db_name: &str, src: &str, limits: RequestLimits) -> Result<QueryResponse> {
        self.request(db_name, src, None, limits)
    }

    /// Count the answers of `src` against the named database under
    /// `limits` — the `QUERY @count` / `@count_by(x̄)` path.
    ///
    /// The answer is a relation shaped for the wire and the cache: one row
    /// with the single attribute `count` ([`CountMode::Total`]) or one row
    /// per group with attributes `x̄…, count` ([`CountMode::Grouped`]).
    /// Counts beyond `i64` are carried as exact decimal strings. Counting
    /// runs **without enumerating** the answer set whenever the `PQA7xx`
    /// analysis allows (acyclic or bounded-hypertree-width pure queries),
    /// and degrades to enumerate-then-count otherwise; results are cached
    /// under the same relation-epoch fingerprint scheme as plain answers,
    /// so IVM maintenance patches cached counts in place.
    ///
    /// # Errors
    /// As for [`QueryService::query`], plus
    /// [`ServiceError::CountOverflow`] when the exact count exceeds `u128`
    /// (a wrapped count is never returned).
    pub fn query_count(
        &self,
        db_name: &str,
        src: &str,
        mode: &CountMode,
        limits: RequestLimits,
    ) -> Result<QueryResponse> {
        self.request(db_name, src, Some(mode), limits)
    }

    /// The one request path behind [`QueryService::query`] and
    /// [`QueryService::query_count`] (`mode` is `None` for a plain answer):
    /// `prepare → bind → lookup → view → run → fill → finish`, each stage
    /// described in the module docs.
    fn request(
        &self,
        db_name: &str,
        src: &str,
        mode: Option<&CountMode>,
        limits: RequestLimits,
    ) -> Result<QueryResponse> {
        let start = Instant::now();
        self.check_admitting()?;
        let m = &self.metrics;
        let served = (|| {
            let (prepared, plan_hit) = self.prepare(src, mode.is_some())?;
            let groups = match mode {
                Some(CountMode::Grouped(groups)) => Some(groups.as_slice()),
                _ => None,
            };
            let (snap, key, stamp) = self.bind(&prepared, groups, db_name)?;
            if let Some(answer) = self.lookup(&key, stamp) {
                ServiceMetrics::bump(&m.result_hits);
                if prepared.rekeyed {
                    // The hit was keyed by the minimized core, not the
                    // literal text — sharing only the PQA803 re-keying
                    // makes possible.
                    ServiceMetrics::bump(&m.semantic_cache_hits);
                }
                return Ok((answer, prepared.engine, CacheOutcome::ResultHit, snap));
            }
            ServiceMetrics::bump(&m.result_misses);
            let evaluated = if plan_hit {
                CacheOutcome::PlanHit
            } else {
                CacheOutcome::Miss
            };
            // Before evaluating an answer: can a registered view's
            // maintained relation serve it by scan/projection (PQA801/802)?
            if mode.is_none() {
                if let Some((rows, vsnap)) = self.view(&prepared, db_name) {
                    ServiceMetrics::bump(&m.view_answered_queries);
                    let (key, stamp) = result_key(&prepared, None, &vsnap);
                    let answer = self.fill(key, rows, stamp);
                    return Ok((answer, "view-scan", evaluated, vsnap));
                }
            }
            let rows = self.run(&prepared, groups, &snap.db, limits)?;
            let answer = self.fill(key, rows, stamp);
            Ok((answer, prepared.engine, evaluated, snap))
        })();
        self.finish(start, mode.is_some(), served)
    }

    /// Stage `prepare`: parse → validate → canonical form → the plan cache,
    /// filling it on a miss with the plan of the requested result mode.
    /// Returns the prepared query and whether it was already cached.
    fn prepare(
        &self,
        src: &str,
        counting: bool,
    ) -> std::result::Result<(Arc<Prepared>, bool), Rejected> {
        // Parse before the cache lookup: the key must identify the query
        // exactly, and no text normalization is safe (whitespace inside a
        // string literal is significant), so the key is the AST's canonical
        // form. A hit still skips the expensive half — classification and
        // planning.
        let query = parse_cq(src).map_err(|error| Rejected { error, query: None })?;
        if let Err(error) = query.validate() {
            return Err(Rejected {
                error,
                query: Some(Box::new(query)),
            });
        }
        let key = (Arc::<str>::from(canonical_form(&query)), counting);
        if let Some(hit) = self.plan_cache.get(&key) {
            ServiceMetrics::bump(&self.metrics.plan_hits);
            return Ok((hit, true));
        }
        ServiceMetrics::bump(&self.metrics.plan_misses);
        let canonical = Arc::clone(&key.0);
        let fingerprint = query.fingerprint();
        let opts = &self.config.planner;
        let prepared = Arc::new(if counting {
            // The counting plan runs the analyzer with the `PQA7xx` pass on
            // and commits to a `CountChoice`.
            let plan = plan_count(&query, opts);
            Prepared {
                mentions: plan.mentioned_relations(&query),
                engine: plan.engine,
                parallelism: plan.parallelism,
                result_text: format!("@count {canonical}").into(),
                rekeyed: false,
                semantic_fingerprint: fingerprint,
                plan: PreparedPlan::Count(plan),
                query,
                canonical,
                fingerprint,
            }
        } else {
            let plan = plan(&query, opts);
            // The semantic key: when the analyzer shrank the query, results
            // are cached under the *core*'s rendering, so the redundant
            // original and its core (and any other query minimizing to the
            // same core) share one entry.
            let (result_text, semantic_fingerprint) = match &plan.analysis.rewritten {
                Some(core) => (Arc::from(canonical_form(core)), core.fingerprint()),
                None => (Arc::clone(&canonical), fingerprint),
            };
            Prepared {
                mentions: plan.mentioned_relations(&query),
                engine: plan.engine,
                parallelism: plan.parallelism,
                rekeyed: result_text != canonical,
                result_text,
                semantic_fingerprint,
                plan: PreparedPlan::Answer(plan),
                query,
                canonical,
                fingerprint,
            }
        });
        self.plan_cache.insert(key, Arc::clone(&prepared));
        Ok((prepared, false))
    }

    /// Stage `bind`: snapshot the named database and derive the result key
    /// of `prepared` on it and the snapshot's stamp.
    fn bind(
        &self,
        prepared: &Prepared,
        groups: Option<&[String]>,
        db_name: &str,
    ) -> Result<(DbSnapshot, ResultKey, Stamp)> {
        let snap = self.catalog.snapshot(db_name)?;
        let (key, stamp) = result_key(prepared, groups, &snap);
        Ok((snap, key, stamp))
    }

    /// The entry under `key`, whatever state it answers: the only
    /// result-cache probe.
    fn entry(&self, key: &ResultKey) -> Option<Arc<Answer>> {
        self.result_cache.get(key)
    }

    /// Stage `lookup`: the entry under `key`, if it answers the snapshot
    /// stamped `bound`. The key alone is never trusted: requests bound to
    /// different snapshots share the one slot.
    fn lookup(&self, key: &ResultKey, bound: Stamp) -> Option<Arc<Answer>> {
        self.entry(key).filter(|hit| hit.stamp.serves(bound))
    }

    /// Stage `run`: pass the admission gate (rejecting with
    /// [`ServiceError::Overloaded`] when every slot is taken and the waiting
    /// set is full) and evaluate on this thread.
    fn run(
        &self,
        prepared: &Prepared,
        groups: Option<&[String]>,
        db: &Database,
        limits: RequestLimits,
    ) -> Result<Arc<Relation>> {
        // Built before `enter`: the deadline counts time spent parked.
        let ctx = governor_ctx(limits.or(self.config.default_limits), &self.cancel);
        let _permit = self
            .gate
            .enter(|| ServiceMetrics::bump(&self.metrics.jobs_admitted))?;
        // Intra-query fan-out: when both the service knob and the plan's
        // recommended degree exceed 1, the request's context carries the
        // exec pool (which moves its limits into a shared envelope). The
        // engines produce the same relation (or the same exact count) at any
        // degree, so this choice is invisible to the caller (except in
        // STATS).
        let ctx = if self.exec.threads() > 1 && prepared.parallelism > 1 {
            ServiceMetrics::bump(&self.metrics.parallel_queries);
            ctx.with_pool(&self.exec)
        } else {
            ctx
        };
        let q = &prepared.query;
        // Counts are rendered as a one-row / grouped `count` relation, so
        // the cache and wire shapes are shared with plain answers.
        let rows = match &prepared.plan {
            PreparedPlan::Answer(plan) => {
                if let EngineChoice::Hypertree(d) = &plan.choice {
                    self.metrics.record_hypertree_width(d.width());
                }
                plan.execute_governed(q, db, &ctx)?
            }
            PreparedPlan::Count(plan) => {
                if let CountChoice::Hypertree(d) = &plan.choice {
                    self.metrics.record_hypertree_width(d.width());
                }
                match groups {
                    Some(groups) => plan
                        .execute_by_governed(q, db, groups, &ctx)
                        .and_then(|counted| counted.to_relation("count")),
                    None => plan
                        .execute_governed(q, db, &ctx)
                        .and_then(|c| count_relation(&c)),
                }?
            }
        };
        Ok(Arc::new(rows))
    }

    /// Stage `fill`: where `rows` become an [`Answer`], and the only
    /// result-cache write — evaluated answers, view scans, `SUBSCRIBE`
    /// priming and IVM's patches all land here. The answer replaces the
    /// key's previous entry (dropping the rows and the encoded body of the
    /// state that one answered), except that an answer from an older
    /// snapshot never displaces a newer one. Two racing fills may still land
    /// in either order; `lookup` checks the stamp, so that costs a miss at
    /// worst.
    fn fill(&self, key: ResultKey, rows: Arc<Relation>, stamp: Stamp) -> Arc<Answer> {
        let answer = Arc::new(Answer {
            rows,
            stamp,
            body: OnceLock::new(),
        });
        let superseded = self
            .entry(&key)
            .is_some_and(|kept| kept.stamp.newer_than(stamp));
        if !superseded {
            self.result_cache.insert(key, Arc::clone(&answer));
        }
        answer
    }

    /// Stage `finish`: stamp the latency, build the response, and account
    /// for the outcome — the only place a request's fate reaches `STATS`.
    fn finish(
        &self,
        start: Instant,
        counting: bool,
        served: Result<(Arc<Answer>, &'static str, CacheOutcome, DbSnapshot)>,
    ) -> Result<QueryResponse> {
        let m = &self.metrics;
        match served {
            Ok((answer, engine, cache, snap)) => {
                let latency = start.elapsed();
                ServiceMetrics::bump(&m.queries_served);
                m.latency.record(latency);
                if counting {
                    ServiceMetrics::bump(&m.count_queries);
                    m.count_latency.record(latency);
                }
                Ok(QueryResponse {
                    rows: Arc::clone(&answer.rows),
                    answer,
                    engine,
                    cache,
                    generation: snap.generation,
                    epoch: snap.epoch,
                    latency,
                })
            }
            Err(e) => {
                match &e {
                    ServiceError::Overloaded { .. } => ServiceMetrics::bump(&m.rejected_overload),
                    e if e.is_resource_exhausted() => ServiceMetrics::bump(&m.resource_exhausted),
                    ServiceError::ShuttingDown => {}
                    _ => ServiceMetrics::bump(&m.errors),
                }
                Err(e)
            }
        }
    }

    // ---- observability & lifecycle ----

    /// Point-in-time metrics snapshot (includes cache sizes indirectly via
    /// the hit/miss counters; see [`MetricsSnapshot`]), with the intra-query
    /// exec-pool occupancy counters folded in.
    pub fn stats(&self) -> MetricsSnapshot {
        let mut s = self.metrics.snapshot();
        let pool = self.exec.stats();
        s.exec_threads = pool.threads as u64;
        s.exec_tasks_run = pool.tasks_run;
        s.exec_peak_active = pool.peak as u64;
        if let Some(d) = &self.durability {
            let c = d.counters();
            s.wal_appends = c.wal_appends;
            s.wal_bytes = c.wal_bytes;
            s.snapshots_taken = c.snapshots_taken;
            let r = d.recovery_stats();
            s.recovery_replayed_records = r.replayed_records;
            s.last_recovery_ms = r.elapsed_ms;
        }
        s
    }

    /// Entries currently in (plan cache, result cache).
    pub fn cache_sizes(&self) -> (usize, usize) {
        (self.plan_cache.len(), self.result_cache.len())
    }

    /// Drop both cache levels — answer plans, count plans and results
    /// (counters persist). Mainly for benchmarks that want repeatable cold
    /// runs.
    pub fn clear_caches(&self) {
        self.plan_cache.clear();
        self.result_cache.clear();
    }

    /// Stop the service: refuse new work, cancel in-flight governed
    /// evaluations cooperatively, and return once none is running and none
    /// waits at the admission gate. Idempotent.
    pub fn shutdown(&self) {
        self.stop(true);
    }

    /// Gracefully drain the service: refuse new work, let already-admitted
    /// evaluations **finish** (unlike [`QueryService::shutdown`], the
    /// cancellation token is not tripped), wait until none is running and
    /// none waits at the admission gate, and — when durability is on — seal
    /// the final state in a snapshot. Idempotent with `shutdown`: whichever
    /// runs first wins, the other becomes a no-op.
    ///
    /// # Errors
    /// [`ServiceError::Durability`] when the final snapshot fails (the
    /// service is still stopped).
    pub fn drain(&self) -> Result<()> {
        if self.stop(false) && self.durability.is_some() {
            self.catalog.persist()?;
        }
        Ok(())
    }

    /// The teardown `shutdown` and `drain` share; `false` when the service
    /// was already stopped. With `cancel`, admitted evaluations see the
    /// cancelled token at their next clock check; without it they finish
    /// under their own governors.
    fn stop(&self, cancel: bool) -> bool {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return false;
        }
        if cancel {
            self.cancel.cancel();
        }
        // Dropping the subscription senders disconnects every update
        // stream, so `SUBSCRIBE` loops observe the stop and end.
        self.views.lock().expect("views poisoned").subs.clear();
        // Evaluations already parked at the gate still get their turn;
        // return once none is running and none is parked.
        self.gate.close();
        true
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_data::{tuple, DataError};
    use pq_engine::EngineError;

    const DB_TEXT: &str = "R(a, b):\n  1, 2\n  2, 3\nS(b, c):\n  2, 9\n  3, 7\n";

    fn service() -> QueryService {
        let svc = QueryService::new(ServiceConfig {
            workers: 2,
            queue_depth: 8,
            ..Default::default()
        });
        svc.load_str("d", DB_TEXT).unwrap();
        svc
    }

    #[test]
    fn cold_then_plan_then_result_cached() {
        let svc = service();
        let src = "G(x, c) :- R(x, y), S(y, c).";
        let cold = svc.query("d", src, RequestLimits::default()).unwrap();
        assert_eq!(cold.cache, CacheOutcome::Miss);
        assert_eq!(cold.rows.len(), 2);
        let warm = svc.query("d", src, RequestLimits::default()).unwrap();
        assert_eq!(warm.cache, CacheOutcome::ResultHit);
        assert_eq!(warm.rows, cold.rows);
        // Same plan, different database ⇒ plan hit but result miss.
        svc.load_str("d2", DB_TEXT).unwrap();
        let other = svc.query("d2", src, RequestLimits::default()).unwrap();
        assert_eq!(other.cache, CacheOutcome::PlanHit);
        let s = svc.stats();
        assert_eq!(s.queries_served, 3);
        assert_eq!(s.result_hits, 1);
        assert_eq!(s.plan_hits, 2);
    }

    #[test]
    fn whitespace_variants_share_the_plan_cache_entry() {
        let svc = service();
        svc.query("d", "G(x) :- R(x, y).", RequestLimits::default())
            .unwrap();
        let r = svc
            .query("d", "G(x)   :-   R(x, y).", RequestLimits::default())
            .unwrap();
        assert_eq!(r.cache, CacheOutcome::ResultHit);
    }

    #[test]
    fn whitespace_inside_string_literals_is_significant() {
        // Regression: a raw-text normalization that collapsed whitespace
        // conflated these two distinct queries and cross-served answers.
        let svc = service();
        let one_space = r#"G(x) :- R(x, "a b")."#;
        let two_spaces = r#"G(x) :- R(x, "a  b")."#;
        let a = svc.query("d", one_space, RequestLimits::default()).unwrap();
        assert_eq!(a.cache, CacheOutcome::Miss);
        let b = svc
            .query("d", two_spaces, RequestLimits::default())
            .unwrap();
        assert_ne!(
            b.cache,
            CacheOutcome::ResultHit,
            "distinct literals must not share a cache entry"
        );
        assert_eq!(svc.cache_sizes().0, 2, "two distinct plan-cache entries");
    }

    #[test]
    fn alpha_equivalent_queries_share_cache_entries() {
        let svc = service();
        svc.query("d", "G(x) :- R(x, y).", RequestLimits::default())
            .unwrap();
        let r = svc
            .query("d", "G(a) :- R(a, b).", RequestLimits::default())
            .unwrap();
        assert_eq!(r.cache, CacheOutcome::ResultHit);
    }

    #[test]
    fn mutation_invalidates_the_result_cache() {
        let svc = service();
        let src = "G(x) :- R(x, y).";
        let before = svc.query("d", src, RequestLimits::default()).unwrap();
        assert_eq!(before.rows.len(), 2);
        svc.update_database("d", |db| {
            db.relation_mut("R").unwrap().insert(tuple![7, 8]).unwrap();
        })
        .unwrap();
        let after = svc.query("d", src, RequestLimits::default()).unwrap();
        assert_ne!(after.cache, CacheOutcome::ResultHit, "stale epoch served");
        assert_eq!(after.rows.len(), 3);
        assert!(after.epoch > before.epoch);
    }

    #[test]
    fn reload_invalidates_the_result_cache() {
        let svc = service();
        let src = "G(x) :- R(x, y).";
        svc.query("d", src, RequestLimits::default()).unwrap();
        svc.load_str("d", "R(a, b):\n  5, 6\n").unwrap();
        let after = svc.query("d", src, RequestLimits::default()).unwrap();
        assert_ne!(after.cache, CacheOutcome::ResultHit);
        assert_eq!(after.rows.len(), 1);
    }

    #[test]
    fn unknown_database_and_parse_errors_are_structured() {
        let svc = service();
        assert!(matches!(
            svc.query("nope", "G(x) :- R(x, y).", RequestLimits::default()),
            Err(ServiceError::UnknownDatabase(_))
        ));
        assert!(matches!(
            svc.query("d", "this is not a query", RequestLimits::default()),
            Err(ServiceError::Parse(_))
        ));
        assert_eq!(svc.stats().errors, 2, "both failures count as errors");
    }

    #[test]
    fn per_request_tuple_budget_trips() {
        let svc = service();
        let err = svc
            .query(
                "d",
                "G(x, c) :- R(x, y), S(y, c).",
                RequestLimits {
                    tuple_budget: Some(0),
                    ..Default::default()
                },
            )
            .unwrap_err();
        assert!(err.is_resource_exhausted(), "got {err}");
        assert_eq!(svc.stats().resource_exhausted, 1);
        // Failed evaluations are not cached.
        let ok = svc
            .query(
                "d",
                "G(x, c) :- R(x, y), S(y, c).",
                RequestLimits::default(),
            )
            .unwrap();
        assert_ne!(ok.cache, CacheOutcome::ResultHit);
    }

    #[test]
    fn explain_reports_plan_and_cache_state() {
        let svc = service();
        let src = "G(e) :- R(e, p), R(e, p2), p != p2.";
        let e1 = svc.explain("d", src).unwrap();
        assert!(!e1.plan_was_cached);
        assert!(!e1.result_is_cached);
        assert!(e1.engine.starts_with("colorcoding"));
        assert_eq!(e1.color_parameter, Some(2));
        svc.query("d", src, RequestLimits::default()).unwrap();
        let e2 = svc.explain("d", src).unwrap();
        assert!(e2.plan_was_cached);
        assert!(e2.result_is_cached);
        assert_eq!(e1.fingerprint, e2.fingerprint);
    }

    #[test]
    fn explain_names_the_answer_source() {
        let svc = service();
        let src = "G(x, c) :- R(x, y), S(y, c).";
        let e = svc.explain("d", src).unwrap();
        assert_eq!(e.answer_source, "cold");
        svc.query("d", src, RequestLimits::default()).unwrap();
        let e = svc.explain("d", src).unwrap();
        assert_eq!(e.answer_source, "result-cache");
        // Same plan, fresh database: the plan cache is what would help.
        svc.load_str("d2", DB_TEXT).unwrap();
        let e = svc.explain("d2", src).unwrap();
        assert_eq!(e.answer_source, "plan-cache");
        assert!(!e.provably_empty);
    }

    #[test]
    fn width_fields_flow_through_explain_analyze_and_stats() {
        let svc = service();
        svc.load_str("tri", "E(a, b):\n  1, 2\n  2, 3\n  3, 1\n")
            .unwrap();
        let src = "G :- E(x, y), E(y, z), E(z, x).";
        let e = svc.explain("tri", src).unwrap();
        assert!(e.engine.starts_with("hypertree"), "{}", e.engine);
        assert_eq!(e.hypertree_width, Some(2));
        assert!(e.width_exact);
        assert!(e.decomposition.is_some());
        let a = svc.analyze("tri", src).unwrap();
        assert_eq!(a.cell, "cyclic-bounded-width");
        assert_eq!(a.hypertree_width, Some(2));
        assert!(a.width_exact);
        assert!(a.diagnostics.iter().any(|d| d.starts_with("PQA601")));
        // Acyclic queries don't touch the hypertree counters...
        svc.query("d", "G(x) :- R(x, y).", RequestLimits::default())
            .unwrap();
        assert_eq!(svc.stats().hypertree_queries, 0);
        // ...but evaluating the triangle bumps the width histogram.
        let out = svc.query("tri", src, RequestLimits::default()).unwrap();
        assert_eq!(out.rows.len(), 1);
        let s = svc.stats();
        assert_eq!(s.hypertree_queries, 1);
        assert_eq!(s.hypertree_width_counts[1], 1, "width-2 bucket");
    }

    #[test]
    fn analyze_reports_diagnostics_and_minimization() {
        let svc = service();
        let src = "G(x, c) :- R(x, y), S(y, c), R(x, y2).";
        let a1 = svc.analyze("d", src).unwrap();
        assert!(!a1.plan_was_cached);
        assert_eq!(a1.cell, "acyclic-pure");
        let minimized = a1.minimized.as_deref().expect("redundant atom drops");
        assert!(!minimized.contains("y2"), "{minimized}");
        assert!(a1.diagnostics.iter().any(|d| d.starts_with("PQA301")));
        assert!(a1.diagnostics.iter().any(|d| d.starts_with("PQA402")));
        // Second call reuses the plan-cache entry filled by the first.
        let a2 = svc.analyze("d", src).unwrap();
        assert!(a2.plan_was_cached);
        assert_eq!(a2.diagnostics, a1.diagnostics);
    }

    #[test]
    fn analyze_schema_pass_and_invalid_queries() {
        let svc = service();
        // Unknown relation: an error diagnostic, but NOT provably empty
        // (evaluation fails rather than returning zero tuples).
        let a = svc.analyze("d", "G(x) :- T(x, y).").unwrap();
        assert!(a.diagnostics.iter().any(|d| d.starts_with("PQA201")));
        assert!(!a.provably_empty);
        // Arity mismatch against the live schema.
        let a = svc.analyze("d", "G(x) :- R(x, y, z).").unwrap();
        assert!(a.diagnostics.iter().any(|d| d.starts_with("PQA202")));
        // A query that fails validation never reaches the planner, but
        // ANALYZE still explains why.
        let a = svc.analyze("d", "G(z) :- R(x, y).").unwrap();
        assert!(a.diagnostics.iter().any(|d| d.starts_with("PQA002")));
        assert!(!a.plan_was_cached);
        assert_eq!(svc.cache_sizes().0, 2, "invalid query not plan-cached");
    }

    #[test]
    fn analyze_datalog_reports_the_whole_program() {
        let svc = service();
        let src = "T(x, y) :- R(x, y).\n\
                   T(x, z) :- R(x, y), T(y, z).\n\
                   U(x) :- R(x, y).\n\
                   ?- T";
        let a = svc.analyze_datalog("d", src).unwrap();
        assert_eq!(a.goal, "T");
        assert_eq!((a.rules_total, a.rules_live), (3, 2));
        assert_eq!(a.dead_rules, vec![2]);
        assert_eq!(a.edb, vec!["R".to_string()]);
        assert_eq!(a.recursion, "linear");
        assert!(!a.provably_empty);
        let rewritten = a.rewritten.as_deref().expect("dead rule pruned");
        assert!(!rewritten.contains("U("), "{rewritten}");
        assert!(a.diagnostics.iter().any(|d| d.starts_with("PQA501")));
        assert!(a.diagnostics.iter().any(|d| d.starts_with("PQA510")));
    }

    #[test]
    fn analyze_datalog_runs_the_schema_pass_against_the_catalog() {
        let svc = service();
        // `R` exists with arity 2 in db `d`; `Z` does not exist at all.
        let a = svc
            .analyze_datalog("d", "G(x) :- R(x, y), Z(y). ?- G")
            .unwrap();
        assert!(a.diagnostics.iter().any(|d| d.starts_with("PQA201")));
        assert!(matches!(
            svc.analyze_datalog("nope", "G(x) :- R(x, y). ?- G"),
            Err(ServiceError::UnknownDatabase(_))
        ));
        assert!(matches!(
            svc.analyze_datalog("d", "not a program"),
            Err(ServiceError::Parse(_))
        ));
    }

    #[test]
    fn provably_empty_queries_skip_evaluation() {
        let svc = service();
        let src = "G(x) :- R(x, y), x != x.";
        let a = svc.analyze("d", src).unwrap();
        assert!(a.provably_empty);
        let resp = svc.query("d", src, RequestLimits::default()).unwrap();
        assert_eq!(resp.engine, "constant (provably empty)");
        assert!(resp.rows.is_empty());
    }

    #[test]
    fn shutdown_is_idempotent_and_refuses_new_work() {
        let svc = service();
        svc.shutdown();
        svc.shutdown();
        assert!(matches!(
            svc.query("d", "G(x) :- R(x, y).", RequestLimits::default()),
            Err(ServiceError::ShuttingDown)
        ));
        assert!(matches!(
            svc.load_str("x", "R(a):\n 1\n"),
            Err(ServiceError::ShuttingDown)
        ));
    }

    #[test]
    fn disabled_caches_still_answer_correctly() {
        let svc = QueryService::new(ServiceConfig {
            workers: 1,
            plan_cache_capacity: 0,
            result_cache_capacity: 0,
            ..Default::default()
        });
        svc.load_str("d", DB_TEXT).unwrap();
        let src = "G(x, c) :- R(x, y), S(y, c).";
        let a = svc.query("d", src, RequestLimits::default()).unwrap();
        let b = svc.query("d", src, RequestLimits::default()).unwrap();
        assert_eq!(a.rows, b.rows);
        assert_eq!(b.cache, CacheOutcome::Miss);
        assert_eq!(svc.cache_sizes(), (0, 0));
    }

    #[test]
    fn oversubscribed_configs_are_rejected() {
        let bad = ServiceConfig {
            workers: 16,
            intra_query_threads: 8, // 128 > MAX_TOTAL_THREADS
            ..Default::default()
        };
        assert!(matches!(
            bad.validate(),
            Err(ServiceError::InvalidConfig(_))
        ));
        let err = QueryService::try_new(bad).map(|_| ()).unwrap_err();
        assert_eq!(err.code(), "invalid-config");
        assert!(err.to_string().contains("128"), "{err}");
        // The knobs are independently configurable below the cap.
        let ok = ServiceConfig {
            workers: 16,
            intra_query_threads: 4, // exactly MAX_TOTAL_THREADS
            ..Default::default()
        };
        assert!(ok.validate().is_ok());
        // Degenerate zero values are clamped, not rejected.
        assert!(ServiceConfig {
            workers: 0,
            intra_query_threads: 0,
            ..Default::default()
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn parallel_service_answers_match_serial_and_count_in_stats() {
        let serial = QueryService::new(ServiceConfig {
            workers: 2,
            intra_query_threads: 1,
            ..Default::default()
        });
        let parallel = QueryService::new(ServiceConfig {
            workers: 2,
            intra_query_threads: 4,
            ..Default::default()
        });
        for svc in [&serial, &parallel] {
            svc.load_str("d", DB_TEXT).unwrap();
        }
        for src in [
            "G(x, c) :- R(x, y), S(y, c).",
            "G :- R(x, y), R(y, z), R(z, x).",
            "G(x) :- R(x, y), S(y, c), x != c.",
        ] {
            let a = serial.query("d", src, RequestLimits::default()).unwrap();
            let b = parallel.query("d", src, RequestLimits::default()).unwrap();
            assert_eq!(a.rows, b.rows, "{src}");
        }
        assert_eq!(serial.stats().parallel_queries, 0);
        let s = parallel.stats();
        assert_eq!(s.parallel_queries, 3);
        assert_eq!(s.exec_threads, 4);
        assert!(
            s.exec_tasks_run > 0,
            "parallel evaluations must schedule pool tasks"
        );
        assert!(s.exec_peak_active >= 1);
        // Budget errors surface identically on the parallel path (clear the
        // result cache so the probe actually evaluates).
        parallel.clear_caches();
        let err = parallel
            .query(
                "d",
                "G(x, c) :- R(x, y), S(y, c).",
                RequestLimits {
                    tuple_budget: Some(0),
                    ..Default::default()
                },
            )
            .unwrap_err();
        assert!(err.is_resource_exhausted(), "got {err}");
    }

    #[test]
    fn zero_deadline_reports_timeout_not_a_wrong_answer() {
        let svc = service();
        // Deadline checks are amortized, so a tiny query may still finish;
        // the contract is that the outcome is either the full correct
        // answer or a structured timeout — never a truncated relation.
        match svc.query(
            "d",
            "G(x, c) :- R(x, y), S(y, c).",
            RequestLimits {
                deadline: Some(Duration::ZERO),
                ..Default::default()
            },
        ) {
            Ok(resp) => assert_eq!(resp.rows.len(), 2),
            Err(e) => {
                assert!(
                    matches!(
                        e,
                        ServiceError::Engine(EngineError::ResourceExhausted { .. })
                    ),
                    "unexpected error: {e}"
                );
            }
        }
    }

    // ---- incremental views & subscriptions ----

    #[test]
    fn row_mutations_apply_and_report() {
        let svc = service();
        let ins = svc
            .insert_rows("d", "R", vec![tuple![7, 8], tuple![1, 2]])
            .unwrap();
        assert_eq!(ins.op, "inserted");
        assert_eq!(ins.requested, 2);
        assert_eq!(ins.applied, 1, "1,2 was already present");
        let del = svc.delete_rows("d", "R", vec![tuple![7, 8]]).unwrap();
        assert_eq!(del.op, "deleted");
        assert_eq!(del.applied, 1);
        assert!(del.epoch > ins.epoch);
        assert!(matches!(
            svc.insert_rows("d", "NoSuch", vec![tuple![1]]),
            Err(ServiceError::Data(DataError::UnknownRelation(_)))
        ));
        assert!(matches!(
            svc.insert_rows("nope", "R", vec![tuple![1, 2]]),
            Err(ServiceError::UnknownDatabase(_))
        ));
    }

    #[test]
    fn unrelated_mutation_keeps_the_result_cache_entry() {
        // Satellite payoff of the per-relation epoch vector: the stamp's
        // fingerprint only covers the relations the plan reads, so mutating
        // S must not evict a query over R — nor the body encoded for it.
        let svc = service();
        let src = "G(x) :- R(x, y).";
        let before = svc.query("d", src, RequestLimits::default()).unwrap();
        let body = Arc::clone(before.answer.body());
        svc.insert_rows("d", "S", vec![tuple![50, 60]]).unwrap();
        let after = svc.query("d", src, RequestLimits::default()).unwrap();
        assert_eq!(after.cache, CacheOutcome::ResultHit, "S is not mentioned");
        assert!(after.epoch > before.epoch);
        assert!(Arc::ptr_eq(&body, after.answer.body()), "encoded once");
        // ...while mutating R does evict it, rows and body.
        svc.insert_rows("d", "R", vec![tuple![7, 8]]).unwrap();
        let evicted = svc.query("d", src, RequestLimits::default()).unwrap();
        assert_ne!(evicted.cache, CacheOutcome::ResultHit);
        assert_eq!(evicted.rows.len(), 3);
        assert_eq!(&**evicted.answer.body(), b"1\n2\n7\n");
        assert_eq!(svc.cache_sizes().1, 1, "the new answer replaced the old");
    }

    #[test]
    fn an_older_snapshots_fill_never_replaces_a_newer_entry() {
        // One slot per (text, database): requests bound to different
        // snapshots race for it, and the outcome must not depend on who
        // fills last.
        let svc = service();
        let limits = RequestLimits::default();
        let (prepared, _) = svc.prepare("G(x) :- R(x, y).", false).ok().unwrap();
        let (snap_a, key, stamp_a) = svc.bind(&prepared, None, "d").unwrap();
        svc.insert_rows("d", "R", vec![tuple![7, 8]]).unwrap();
        let (snap_b, _, stamp_b) = svc.bind(&prepared, None, "d").unwrap();
        assert!(stamp_b.newer_than(stamp_a) && !stamp_b.serves(stamp_a));

        let rows_b = svc.run(&prepared, None, &snap_b.db, limits).unwrap();
        let rows_a = svc.run(&prepared, None, &snap_a.db, limits).unwrap();
        svc.fill(key.clone(), rows_b, stamp_b);
        let late = svc.fill(key.clone(), rows_a, stamp_a);
        // The late request still answers from its own snapshot...
        assert_eq!(late.rows.canonical_rows(), vec![tuple![1], tuple![2]]);
        // ...the slot still holds B's answer, and only B's snapshot hits it.
        let hit = svc
            .lookup(&key, stamp_b)
            .expect("B's entry survives A's fill");
        assert_eq!(hit.rows.len(), 3);
        assert!(
            svc.lookup(&key, stamp_a).is_none(),
            "the key alone is not trusted"
        );
        assert_eq!(svc.cache_sizes().1, 1);
    }

    #[test]
    fn subscription_streams_deltas_and_patches_the_result_cache() {
        let svc = service();
        let src = "G(x, c) :- R(x, y), S(y, c).";
        let sub = svc.subscribe("d", src).unwrap();
        assert_eq!(sub.rows.len(), 2);
        // The registration primed the result cache.
        let q = svc.query("d", src, RequestLimits::default()).unwrap();
        assert_eq!(q.cache, CacheOutcome::ResultHit);
        // A relevant insertion pushes a delta...
        let ins = svc.insert_rows("d", "R", vec![tuple![9, 2]]).unwrap();
        assert_eq!(ins.views_maintained, 1);
        let update = sub.updates.try_recv().unwrap();
        assert_eq!(update.added, vec![tuple![9, 9]]);
        assert!(update.removed.is_empty());
        assert!(!update.dropped);
        // ...and the maintained answer was installed under the new key, so
        // the post-mutation QUERY is *still* a result-cache hit.
        let patched = svc.query("d", src, RequestLimits::default()).unwrap();
        assert_eq!(patched.cache, CacheOutcome::ResultHit);
        assert_eq!(patched.rows.len(), 3);
        assert!(patched.rows.contains(&tuple![9, 9]));
        // Deleting flips the sign.
        svc.delete_rows("d", "R", vec![tuple![9, 2]]).unwrap();
        let update = sub.updates.try_recv().unwrap();
        assert_eq!(update.removed, vec![tuple![9, 9]]);
        // An irrelevant insertion pushes nothing.
        svc.insert_rows("d", "R", vec![tuple![70, 80]]).unwrap();
        assert!(sub.updates.try_recv().is_err());
        let s = svc.stats();
        assert_eq!(s.views_registered, 1);
        assert_eq!(s.subscriptions_active, 1);
        assert_eq!(s.deltas_pushed, 2);
        assert!(s.ivm_maintain_p99_micros >= 1, "passes were recorded");
        assert!(svc.unsubscribe(sub.id));
        assert!(!svc.unsubscribe(sub.id), "second unsubscribe is a no-op");
        let s = svc.stats();
        assert_eq!(s.views_registered, 0);
        assert_eq!(s.subscriptions_active, 0);
    }

    #[test]
    fn recursive_datalog_subscription_is_maintained() {
        let svc = QueryService::with_defaults();
        svc.load_str("g", "E(x, y):\n  1, 2\n  2, 3\n").unwrap();
        let prog = "T(x, y) :- E(x, y).\nT(x, z) :- T(x, y), E(y, z).\n?- T";
        let sub = svc.subscribe("g", prog).unwrap();
        assert_eq!(sub.rows.len(), 3, "1-2, 2-3, 1-3");
        svc.insert_rows("g", "E", vec![tuple![3, 4]]).unwrap();
        let update = sub.updates.try_recv().unwrap();
        let mut added = update.added.clone();
        added.sort();
        assert_eq!(added, vec![tuple![1, 4], tuple![2, 4], tuple![3, 4]]);
        // DRed handles the deletion: 2→3 severs everything through it.
        svc.delete_rows("g", "E", vec![tuple![2, 3]]).unwrap();
        let update = sub.updates.try_recv().unwrap();
        let mut removed = update.removed.clone();
        removed.sort();
        assert_eq!(
            removed,
            vec![tuple![1, 3], tuple![1, 4], tuple![2, 3], tuple![2, 4]]
        );
        assert_eq!(svc.answer_rows("g", sub.id).unwrap().len(), 2);
    }

    #[test]
    fn reload_refreshes_views_and_drop_ends_subscriptions() {
        let svc = service();
        let sub = svc.subscribe("d", "G(x) :- R(x, y).").unwrap();
        assert_eq!(sub.rows.len(), 2);
        // A wholesale reload recomputes the view and pushes the diff.
        svc.load_str("d", "R(a, b):\n  1, 2\nS(b, c):\n").unwrap();
        let update = sub.updates.try_recv().unwrap();
        assert_eq!(update.removed, vec![tuple![2]]);
        assert!(!update.dropped);
        // Dropping the database ends the stream with a final marker.
        svc.drop_database("d").unwrap();
        let last = sub.updates.try_recv().unwrap();
        assert!(last.dropped);
        assert!(
            sub.updates.try_recv().is_err(),
            "sender is gone after the drop"
        );
        let s = svc.stats();
        assert_eq!(s.views_registered, 0);
        assert_eq!(s.subscriptions_active, 0);
    }

    #[test]
    fn untracked_update_falls_back_to_full_refresh() {
        let svc = service();
        let sub = svc.subscribe("d", "G(x) :- R(x, y).").unwrap();
        svc.update_database("d", |db| {
            db.relation_mut("R")
                .unwrap()
                .insert(tuple![41, 42])
                .unwrap();
        })
        .unwrap();
        let update = sub.updates.try_recv().unwrap();
        assert_eq!(update.added, vec![tuple![41]]);
    }

    #[test]
    fn exhausted_maintenance_budget_falls_back_to_recompute() {
        // A default tuple budget small enough that the maintenance pass
        // trips it forces the registry's full-recompute fallback (run under
        // unlimited), so the answer is still exact and the fallback counts.
        let svc = QueryService::new(ServiceConfig {
            default_limits: RequestLimits {
                tuple_budget: Some(3),
                ..Default::default()
            },
            ..Default::default()
        });
        svc.load_str("d", "R(a, b):\n  1, 2\n").unwrap();
        let sub = svc.subscribe("d", "G(x, y) :- R(x, y).").unwrap();
        let rows: Vec<Tuple> = (0..40).map(|i| tuple![i + 10, i + 11]).collect();
        let ins = svc.insert_rows("d", "R", rows).unwrap();
        assert_eq!(ins.applied, 40);
        assert_eq!(ins.fallbacks, 1);
        let update = sub.updates.try_recv().unwrap();
        assert!(update.fell_back);
        assert_eq!(update.added.len(), 40);
        assert_eq!(svc.answer_rows("d", sub.id).unwrap().len(), 41);
        assert_eq!(svc.stats().ivm_maintain_fallbacks, 1);
    }

    // ---- semantic re-keying & view-based answering (PQA8xx) ----

    #[test]
    fn semantic_key_shares_result_cache_across_equivalent_cores() {
        let svc = service();
        // The core caches first...
        let core = svc
            .query("d", "G(a) :- R(a, b).", RequestLimits::default())
            .unwrap();
        assert_eq!(core.cache, CacheOutcome::Miss);
        // ...and a redundant query minimizing to the same core is a
        // result-cache hit without evaluating: distinct canonical forms,
        // one semantic key.
        let redundant = svc
            .query("d", "G(x) :- R(x, y), R(x, y2).", RequestLimits::default())
            .unwrap();
        assert_eq!(redundant.cache, CacheOutcome::ResultHit);
        assert_eq!(redundant.rows, core.rows);
        assert_eq!(svc.cache_sizes().0, 2, "two distinct plan-cache entries");
        let s = svc.stats();
        assert_eq!(s.result_hits, 1);
        assert_eq!(s.semantic_cache_hits, 1, "the hit crossed canonical forms");
    }

    #[test]
    fn semantic_key_still_honors_relation_epochs() {
        // The semantic re-keying composes with the epoch fingerprint: a
        // mutation of a mentioned relation must still evict, even when the
        // probing query differs textually from the one that cached.
        let svc = service();
        svc.query("d", "G(a) :- R(a, b).", RequestLimits::default())
            .unwrap();
        svc.insert_rows("d", "R", vec![tuple![7, 8]]).unwrap();
        let after = svc
            .query("d", "G(x) :- R(x, y), R(x, y2).", RequestLimits::default())
            .unwrap();
        assert_ne!(after.cache, CacheOutcome::ResultHit, "stale epoch served");
        assert_eq!(after.rows.len(), 3);
    }

    #[test]
    fn view_scan_answers_a_head_reordered_query() {
        let svc = service();
        let sub = svc.subscribe("d", "V(x, y) :- R(x, y).").unwrap();
        // Head-reordered: a different canonical form (so no result-cache
        // hit from the subscription priming), answered as the column
        // projection of the maintained view (PQA802).
        let resp = svc
            .query("d", "G(y, x) :- R(x, y).", RequestLimits::default())
            .unwrap();
        assert_eq!(resp.engine, "view-scan");
        assert_eq!(resp.rows.attrs(), ["y", "x"], "query's own head attrs");
        assert_eq!(
            resp.rows.canonical_rows(),
            vec![tuple![2, 1], tuple![3, 2]],
            "columns swapped relative to R"
        );
        assert_eq!(svc.stats().view_answered_queries, 1);
        // The view answer was cached: the same text is now a result hit.
        let warm = svc
            .query("d", "G(y, x) :- R(x, y).", RequestLimits::default())
            .unwrap();
        assert_eq!(warm.cache, CacheOutcome::ResultHit);
        // After a relevant mutation the view is maintained and the next
        // query is served from the *updated* view, not a stale cache line.
        svc.insert_rows("d", "R", vec![tuple![8, 9]]).unwrap();
        let update = sub.updates.try_recv().unwrap();
        assert_eq!(update.added, vec![tuple![8, 9]]);
        let after = svc
            .query("d", "G(y, x) :- R(x, y).", RequestLimits::default())
            .unwrap();
        assert_eq!(after.engine, "view-scan");
        assert!(after.rows.canonical_rows().contains(&tuple![9, 8]));
        assert_eq!(svc.stats().view_answered_queries, 2);
    }

    #[test]
    fn view_answers_agree_with_cold_evaluation_across_mutations() {
        // The rewrite-correctness oracle at the service level: a query
        // answered via a registered view must match what a view-less
        // service computes cold, across INSERT/DELETE batches.
        let with_views = service();
        let cold = service();
        with_views
            .subscribe("d", "V(x, c) :- R(x, y), S(y, c).")
            .unwrap();
        let q = "G(c, x) :- R(x, y), S(y, c).";
        let batches: [(&str, &str, Vec<Tuple>); 4] = [
            ("ins", "R", vec![tuple![9, 2], tuple![4, 3]]),
            ("del", "R", vec![tuple![1, 2]]),
            ("ins", "S", vec![tuple![3, 11]]),
            ("del", "S", vec![tuple![2, 9]]),
        ];
        for (op, rel, rows) in batches {
            for svc in [&with_views, &cold] {
                if op == "ins" {
                    svc.insert_rows("d", rel, rows.clone()).unwrap();
                } else {
                    svc.delete_rows("d", rel, rows.clone()).unwrap();
                }
            }
            let a = with_views.query("d", q, RequestLimits::default()).unwrap();
            let b = cold.query("d", q, RequestLimits::default()).unwrap();
            assert_eq!(a.rows.attrs(), b.rows.attrs());
            assert_eq!(a.rows.canonical_rows(), b.rows.canonical_rows());
            assert_eq!(a.engine, "view-scan");
        }
        assert_eq!(with_views.stats().view_answered_queries, 4);
        assert_eq!(cold.stats().view_answered_queries, 0);
    }

    #[test]
    fn subscriptions_reuse_equivalent_views() {
        let svc = service();
        let s1 = svc.subscribe("d", "G(x) :- R(x, y).").unwrap();
        // Alpha-renamed with a different head name: the same view.
        let s2 = svc.subscribe("d", "H(a) :- R(a, b).").unwrap();
        assert_eq!(s1.rows, s2.rows);
        let st = svc.stats();
        assert_eq!(st.views_registered, 1, "one materialization, shared");
        assert_eq!(st.subscriptions_active, 2);
        // Both subscribers see every delta of the shared view.
        svc.insert_rows("d", "R", vec![tuple![7, 8]]).unwrap();
        assert_eq!(s1.updates.try_recv().unwrap().added, vec![tuple![7]]);
        assert_eq!(s2.updates.try_recv().unwrap().added, vec![tuple![7]]);
        // Unsubscribing one keeps the view alive for the other...
        assert!(svc.unsubscribe(s1.id));
        assert_eq!(svc.stats().views_registered, 1);
        svc.insert_rows("d", "R", vec![tuple![20, 21]]).unwrap();
        assert_eq!(s2.updates.try_recv().unwrap().added, vec![tuple![20]]);
        // ...and the last unsubscribe deregisters it.
        assert!(svc.unsubscribe(s2.id));
        let st = svc.stats();
        assert_eq!(st.views_registered, 0);
        assert_eq!(st.subscriptions_active, 0);
    }

    #[test]
    fn explain_reports_view_answering_and_the_equivalence_class() {
        let svc = service();
        let before = svc.explain("d", "G(y, x) :- R(x, y).").unwrap();
        assert!(before.answered_from_view.is_none());
        svc.subscribe("d", "V(x, y) :- R(x, y).").unwrap();
        let e = svc.explain("d", "G(y, x) :- R(x, y).").unwrap();
        assert_eq!(e.answered_from_view.as_deref(), Some("sub-0"));
        assert_eq!(e.answer_source, "view-scan");
        assert!(!e.result_is_cached);
        // The equivalence class identifies the minimized core: a redundant
        // variant shares it while its literal fingerprint differs.
        let a = svc.explain("d", "G(a) :- R(a, b).").unwrap();
        let b = svc.explain("d", "G(x) :- R(x, y), R(x, y2).").unwrap();
        assert_eq!(a.equivalence_class, b.equivalence_class);
        assert_ne!(a.fingerprint, b.fingerprint);
        assert_eq!(a.fingerprint, a.equivalence_class, "core of a core");
    }

    #[test]
    fn count_query_caches_and_matches_enumeration() {
        let svc = service();
        let src = "G(x, c) :- R(x, y), S(y, c).";
        let cold = svc
            .query_count("d", src, &CountMode::Total, RequestLimits::default())
            .unwrap();
        assert_eq!(cold.cache, CacheOutcome::Miss);
        assert_eq!(cold.rows.attrs(), ["count"]);
        assert_eq!(cold.rows.canonical_rows(), vec![tuple![2]]);
        assert!(
            cold.engine.starts_with("count-"),
            "acyclic query should count without enumerating, got {}",
            cold.engine
        );
        // Same text again: result-cache hit, same count.
        let warm = svc
            .query_count("d", src, &CountMode::Total, RequestLimits::default())
            .unwrap();
        assert_eq!(warm.cache, CacheOutcome::ResultHit);
        assert_eq!(warm.rows, cold.rows);
        // The count entry and the enumerating entry are distinct cache
        // lines: a plain QUERY after the counts is still a cold miss.
        let plain = svc.query("d", src, RequestLimits::default()).unwrap();
        assert_eq!(plain.cache, CacheOutcome::Miss);
        assert_eq!(plain.rows.len() as u64, 2);
        let s = svc.stats();
        assert_eq!(s.count_queries, 2);
        assert_eq!(s.queries_served, 3);
        assert!(s.count_latency_p99_micros >= 1);
    }

    #[test]
    fn grouped_count_returns_one_row_per_group() {
        let svc = service();
        // Group the join by x: 1 and 2 each reach exactly one (y, c) pair.
        let resp = svc
            .query_count(
                "d",
                "G(x, c) :- R(x, y), S(y, c).",
                &CountMode::Grouped(vec!["x".into()]),
                RequestLimits::default(),
            )
            .unwrap();
        assert_eq!(resp.rows.attrs(), ["x", "count"]);
        assert_eq!(resp.rows.canonical_rows(), vec![tuple![1, 1], tuple![2, 1]]);
        // Different grouping, different cache line.
        let total = svc
            .query_count(
                "d",
                "G(x, c) :- R(x, y), S(y, c).",
                &CountMode::Total,
                RequestLimits::default(),
            )
            .unwrap();
        assert_eq!(total.cache, CacheOutcome::PlanHit, "count plan is shared");
        assert_eq!(total.rows.canonical_rows(), vec![tuple![2]]);
    }

    #[test]
    fn ivm_patches_cached_counts_in_place() {
        let svc = service();
        let src = "G(x, c) :- R(x, y), S(y, c).";
        let sub = svc.subscribe("d", src).unwrap();
        // Registration primed the @count entry from the materialization.
        let primed = svc
            .query_count("d", src, &CountMode::Total, RequestLimits::default())
            .unwrap();
        assert_eq!(primed.cache, CacheOutcome::ResultHit);
        assert_eq!(primed.rows.canonical_rows(), vec![tuple![2]]);
        // A relevant insert maintains the view; the cached count moves to
        // the new fingerprint with the new value — still a ResultHit.
        svc.insert_rows("d", "R", vec![tuple![9, 2]]).unwrap();
        let update = sub.updates.try_recv().unwrap();
        assert_eq!(update.cardinality, 3, "delta carries |V(d)| after apply");
        let patched = svc
            .query_count("d", src, &CountMode::Total, RequestLimits::default())
            .unwrap();
        assert_eq!(patched.cache, CacheOutcome::ResultHit);
        assert_eq!(patched.rows.canonical_rows(), vec![tuple![3]]);
    }

    #[test]
    fn count_respects_limits_and_shutdown() {
        let svc = service();
        // A zero tuple budget trips on the sweep's first charge — the
        // counting path runs under the same governor as enumeration.
        let err = svc
            .query_count(
                "d",
                "G(x, c) :- R(x, y), S(y, c).",
                &CountMode::Total,
                RequestLimits {
                    tuple_budget: Some(0),
                    ..Default::default()
                },
            )
            .unwrap_err();
        assert!(err.is_resource_exhausted(), "got {err:?}");
        svc.shutdown();
        let err = svc
            .query_count(
                "d",
                "G(x) :- R(x, y).",
                &CountMode::Total,
                RequestLimits::default(),
            )
            .unwrap_err();
        assert!(matches!(err, ServiceError::ShuttingDown));
    }

    #[test]
    fn mutations_that_change_nothing_leave_no_trace() {
        let dir = std::env::temp_dir().join(format!("pq_service_noop_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let svc = QueryService::new(ServiceConfig {
            durability: Some(DurabilityConfig {
                fsync: crate::wal::FsyncPolicy::Never,
                ..DurabilityConfig::new(&dir)
            }),
            ..Default::default()
        });
        svc.load_str("d", DB_TEXT).unwrap();
        let src = "G(x) :- R(x, y).";
        svc.query("d", src, RequestLimits::default()).unwrap();
        let before = svc.snapshot("d").unwrap();
        let appends = svc.stats().wal_appends;
        // A duplicate insert and a delete of an absent row apply nothing...
        let ins = svc.insert_rows("d", "R", vec![tuple![1, 2]]).unwrap();
        assert_eq!((ins.applied, ins.generation), (0, before.generation));
        let del = svc.delete_rows("d", "R", vec![tuple![70, 80]]).unwrap();
        assert_eq!((del.applied, del.epoch), (0, before.epoch));
        // ...and a wrong-arity insert is rejected outright.
        assert!(matches!(
            svc.insert_rows("d", "R", vec![tuple![1, 2, 3]]),
            Err(ServiceError::Data(DataError::ArityMismatch { .. }))
        ));
        // None of the three journaled a record, moved the generation or the
        // epoch, or cost the cached answer its key.
        let after = svc.snapshot("d").unwrap();
        assert_eq!(
            (after.generation, after.epoch),
            (before.generation, before.epoch)
        );
        assert_eq!(svc.stats().wal_appends, appends);
        let warm = svc.query("d", src, RequestLimits::default()).unwrap();
        assert_eq!(warm.cache, CacheOutcome::ResultHit);
        svc.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- the merged request path: one table over every verb ----

    /// One request of [`every_verb_moves_the_same_counters_through_the_cache_levels`].
    enum Op {
        Query(&'static str, &'static str),
        /// A query on `d` that a registered view must answer by scan.
        Scan(&'static str),
        Count(&'static str, &'static str),
        CountBy(&'static str),
        /// Query text (on `d`), expected `answer_source`.
        Explain(&'static str, &'static str),
        /// Query text, expected `plan_was_cached`.
        Analyze(&'static str, bool),
        Subscribe,
        Insert,
        ClearThenCount,
    }

    const CHAIN: &str = "G(x, c) :- R(x, y), S(y, c).";
    const VIEW: &str = "V(x, y) :- R(x, y).";

    /// Run `op`; the cache outcome when the verb reports one.
    fn drive(svc: &QueryService, op: &Op) -> Option<CacheOutcome> {
        let limits = RequestLimits::default();
        let count = |db, src, mode| svc.query_count(db, src, &mode, limits).unwrap().cache;
        match *op {
            Op::Query(db, src) => Some(svc.query(db, src, limits).unwrap().cache),
            Op::Scan(src) => {
                let r = svc.query("d", src, limits).unwrap();
                assert_eq!(r.engine, "view-scan");
                Some(r.cache)
            }
            Op::Count(db, src) => Some(count(db, src, CountMode::Total)),
            Op::CountBy(db) => Some(count(db, CHAIN, CountMode::Grouped(vec!["x".into()]))),
            Op::Explain(src, source) => {
                assert_eq!(svc.explain("d", src).unwrap().answer_source, source);
                None
            }
            Op::Analyze(src, cached) => {
                assert_eq!(svc.analyze("d", src).unwrap().plan_was_cached, cached);
                None
            }
            Op::Subscribe => {
                svc.subscribe("d", VIEW).unwrap();
                None
            }
            Op::Insert => {
                let ins = svc.insert_rows("d", "R", vec![tuple![9, 2]]).unwrap();
                assert_eq!(ins.views_maintained, 1);
                None
            }
            Op::ClearThenCount => {
                svc.clear_caches();
                assert_eq!(svc.cache_sizes(), (0, 0));
                Some(count("d2", CHAIN, CountMode::Total))
            }
        }
    }

    #[test]
    fn every_verb_moves_the_same_counters_through_the_cache_levels() {
        use CacheOutcome::{Miss, PlanHit, ResultHit as Hit};
        use Op::{
            Analyze, ClearThenCount, Count, CountBy, Explain, Insert, Query, Scan, Subscribe,
        };
        let svc = service();
        svc.load_str("d2", DB_TEXT).unwrap();
        let counters = || {
            let s = svc.stats();
            let (plan, result) = (
                [s.plan_hits, s.plan_misses],
                [s.result_hits, s.result_misses],
            );
            let served = [s.semantic_cache_hits, s.queries_served, s.count_queries];
            [plan.as_slice(), &result, &served, &[s.jobs_admitted]].concat()
        };
        // Each row: the request, the cache outcome it reports, and the exact
        // movement of [plan_hits, plan_misses, result_hits, result_misses,
        // semantic_cache_hits, queries_served, count_queries, jobs_admitted].
        // The first seven were recorded on the commit before the answer and
        // count paths were merged; only the last row differs from it, by
        // design (the separate count-plan cache survived `clear_caches`).
        // The last column, recorded on the commit before the admission gate
        // replaced the worker pool, says which verbs pass the gate: exactly
        // the requests that evaluate.
        let redundant = "G(x, c) :- R(x, y), S(y, c), R(x, y2).";
        let (fresh, other, invalid) = ("G(x) :- R(x, y).", "G(y) :- S(y, c).", "G(z) :- R(x, y).");
        let swapped = "G(y, x) :- R(x, y).";
        let table = [
            (Query("d", CHAIN), Some(Miss), [0, 1, 0, 1, 0, 1, 0, 1]),
            (Query("d2", CHAIN), Some(PlanHit), [1, 0, 0, 1, 0, 1, 0, 1]),
            (Query("d", CHAIN), Some(Hit), [1, 0, 1, 0, 0, 1, 0, 0]),
            // `@count` has its own plan entry; `@count_by` shares that plan
            // but not the cached result.
            (Count("d", CHAIN), Some(Miss), [0, 1, 0, 1, 0, 1, 1, 1]),
            (Count("d2", CHAIN), Some(PlanHit), [1, 0, 0, 1, 0, 1, 1, 1]),
            (Count("d", CHAIN), Some(Hit), [1, 0, 1, 0, 0, 1, 1, 0]),
            (CountBy("d"), Some(PlanHit), [1, 0, 0, 1, 0, 1, 1, 1]),
            (CountBy("d"), Some(Hit), [1, 0, 1, 0, 0, 1, 1, 0]),
            // A redundant variant hits the entry of its minimized core.
            (Query("d", redundant), Some(Hit), [0, 1, 1, 0, 1, 1, 0, 0]),
            // EXPLAIN probes the result cache without counting a hit.
            (Explain(fresh, "cold"), None, [0, 1, 0, 0, 0, 0, 0, 0]),
            (Explain(fresh, "plan-cache"), None, [1, 0, 0, 0, 0, 0, 0, 0]),
            (
                Explain(CHAIN, "result-cache"),
                None,
                [1, 0, 0, 0, 0, 0, 0, 0],
            ),
            (Analyze(other, false), None, [0, 1, 0, 0, 0, 0, 0, 0]),
            (Analyze(other, true), None, [1, 0, 0, 0, 0, 0, 0, 0]),
            // An invalid query never reaches the plan cache.
            (Analyze(invalid, false), None, [0, 0, 0, 0, 0, 0, 0, 0]),
            // SUBSCRIBE plans the answer and the count, and primes both.
            (Subscribe, None, [0, 2, 0, 0, 0, 0, 0, 0]),
            (Query("d", VIEW), Some(Hit), [1, 0, 1, 0, 0, 1, 0, 0]),
            (Count("d", VIEW), Some(Hit), [1, 0, 1, 0, 0, 1, 1, 0]),
            // IVM patches both entries in place.
            (Insert, None, [0, 0, 0, 0, 0, 0, 0, 0]),
            (Query("d", VIEW), Some(Hit), [1, 0, 1, 0, 0, 1, 0, 0]),
            (Count("d", VIEW), Some(Hit), [1, 0, 1, 0, 0, 1, 1, 0]),
            // Answered by scanning the view, then from the cache.
            (Scan(swapped), Some(Miss), [0, 1, 0, 1, 0, 1, 0, 0]),
            (Query("d", swapped), Some(Hit), [1, 0, 1, 0, 0, 1, 0, 0]),
            // `clear_caches` drops count plans too.
            (ClearThenCount, Some(Miss), [0, 1, 0, 1, 0, 1, 1, 1]),
        ];
        for (row, (op, cache, delta)) in table.iter().enumerate() {
            let before = counters();
            assert_eq!(drive(&svc, op), *cache, "row {row}: cache outcome");
            let moved: Vec<u64> = counters().iter().zip(before).map(|(a, b)| a - b).collect();
            assert_eq!(moved, delta, "row {row}: counter deltas");
        }
    }
}
