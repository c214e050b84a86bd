//! The four service workloads: what each sends, in what order, and what
//! answer each request must get. A workload is planned once per run from the
//! seed (reference answers included, outside every timed section); its
//! scripts are then deterministic, endless operation sequences, one per
//! client, of which the driver plays a fixed count.

use std::collections::HashSet;
use std::sync::Arc;

use pq_data::{tuple, Database, Tuple};

use crate::check::{chain_references, oracle, Answer};
use crate::gen::{
    chain_full_query, chain_query, Spelling, CHAIN_LEN, NEQ_QUERY, SPELLINGS, TRIANGLE_QUERY,
};
use crate::rng::{Rng, Zipf};
use crate::wire::{CLIENTS, DEFAULT_CACHES};

/// The name every workload loads its dataset under.
pub const DB: &str = "d";

/// What an operation is, for the per-class latency metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// A read of the hot, cold or write workload.
    Read,
    Chain,
    Neq,
    Triangle,
    Count,
    Write,
}

/// What a response must be for the operation to count as correct.
#[derive(Debug, Clone)]
pub enum Expect {
    /// Exactly this body.
    Rows(Answer),
    /// One of these bodies: a `wire-write` read races the other client's
    /// writes, so either of that client's states is a correct snapshot.
    OneOf(Arc<[Answer]>),
    /// A mutation acknowledged with exactly one row applied.
    Applied,
}

#[derive(Debug, Clone)]
pub struct Op {
    pub class: Class,
    /// The request line.
    pub request: String,
    pub expect: Expect,
}

/// The request line that evaluates conjunctive query `text`.
pub fn query_line(text: &str) -> String {
    format!("QUERY {DB} {text}")
}

impl Op {
    fn query(class: Class, text: &str, expect: Expect) -> Op {
        Op {
            class,
            request: query_line(text),
            expect,
        }
    }
}

/// One client's operation sequence.
pub trait Script: Send {
    fn next_op(&mut self) -> Op;
}

/// A planned service workload.
pub trait Workload {
    /// Plan- and result-cache capacities.
    fn caches(&self) -> (usize, usize) {
        DEFAULT_CACHES
    }
    /// Run on a durable service (WAL in a scratch directory)?
    fn durable(&self) -> bool {
        false
    }
    /// A conjunctive query registered as a view with `subscribe` at set-up.
    fn view(&self) -> Option<&str> {
        None
    }
    /// Request lines every connection sends once during set-up, so the
    /// caches start as the workload wants them.
    fn warmup(&self) -> Vec<String>;
    fn script(&self, client: usize) -> Box<dyn Script>;
    /// Operations per client in one lap of the measured stretch: what the
    /// build box completed in about a tenth of a second at the commit that
    /// added the benchmark. A run of `--seconds S` plays `10 S` laps.
    fn lap_ops(&self) -> usize;
    /// Seconds a lap takes on the build box.
    fn lap_seconds(&self) -> f64 {
        0.1
    }
    /// Operations per client in the traced stretch.
    fn traced_ops(&self) -> usize;
    /// The operations whose tail this workload exists to show; all of them
    /// when `None`.
    fn tail(&self) -> Option<Class> {
        None
    }
}

fn answer(text: &str, db: &Database) -> Answer {
    Answer::of_relation(&oracle(text, db))
}

// ---------------------------------------------------------------- wire-hot

/// 64 texts = 16 equivalence classes x 4 spellings over the chain relations,
/// drawn Zipf(1.0) from each client's seeded stream. All fit the default caches, so after warm-up every
/// request is a result-cache hit — a quarter of them only through the
/// semantic key, because the `Redundant` spelling's own canonical form is
/// never cached.
pub struct Hot {
    seed: u64,
    /// `(text, expected)` by popularity rank.
    texts: Arc<[(String, Answer)]>,
}

impl Hot {
    pub fn plan(seed: u64, db: &Database) -> Hot {
        // Sub-chains of three or more atoms, each projected two ways.
        let mut classes = Vec::new();
        for len in (3..=CHAIN_LEN).rev() {
            for from in 0..=CHAIN_LEN - len {
                for wide in [true, false] {
                    classes.push((from, len, wide));
                }
            }
        }
        classes.truncate(16);
        let mut texts = Vec::new();
        for &(from, len, wide) in &classes {
            let expected = answer(&chain_query(from, len, wide, Spelling::Plain), db);
            for s in SPELLINGS {
                texts.push((chain_query(from, len, wide, s), expected));
            }
        }
        // Popularity falls in this order whatever the seed — the longest
        // chains first — so the mean response size, and with it the cost of
        // a request, depends on the seed only through the data.
        Hot {
            seed,
            texts: texts.into(),
        }
    }
}

impl Workload for Hot {
    fn warmup(&self) -> Vec<String> {
        self.texts.iter().map(|(t, _)| query_line(t)).collect()
    }

    fn script(&self, client: usize) -> Box<dyn Script> {
        Box::new(HotScript {
            rng: Rng::stream(self.seed, &format!("hot-ops-{client}")),
            zipf: Zipf::new(self.texts.len()),
            texts: Arc::clone(&self.texts),
        })
    }

    fn lap_ops(&self) -> usize {
        190
    }

    fn traced_ops(&self) -> usize {
        400
    }
}

struct HotScript {
    rng: Rng,
    zipf: Zipf,
    texts: Arc<[(String, Answer)]>,
}

impl Script for HotScript {
    fn next_op(&mut self) -> Op {
        let (text, expected) = &self.texts[self.zipf.sample(&mut self.rng)];
        Op::query(Class::Read, text, Expect::Rows(*expected))
    }
}

// --------------------------------------------------------------- wire-cold

/// Every request is a new text: a two-atom lookup with a constant that is
/// never used twice, so both caches miss every time and the evaluation is
/// tiny. The distinct canonical forms of a run far outnumber both caches.
pub struct Cold {
    /// Expected answer for constant `c` at index `c`; larger constants are
    /// outside the value domain and select nothing.
    in_domain: Arc<[Answer]>,
}

fn cold_text(c: usize) -> String {
    format!("G(y, z) :- R0({c}, y), R1(y, z).")
}

impl Cold {
    pub fn plan(db: &Database, chain_vals: usize) -> Cold {
        Cold {
            in_domain: (0..chain_vals).map(|c| answer(&cold_text(c), db)).collect(),
        }
    }
}

impl Workload for Cold {
    fn warmup(&self) -> Vec<String> {
        // Constants below zero are never sent by a script.
        vec![query_line("G(y, z) :- R0(-1, y), R1(y, z).")]
    }

    fn script(&self, client: usize) -> Box<dyn Script> {
        Box::new(ColdScript {
            next: client,
            in_domain: Arc::clone(&self.in_domain),
        })
    }

    fn lap_ops(&self) -> usize {
        400
    }

    fn traced_ops(&self) -> usize {
        400
    }
}

struct ColdScript {
    next: usize,
    in_domain: Arc<[Answer]>,
}

impl Script for ColdScript {
    fn next_op(&mut self) -> Op {
        let c = self.next;
        self.next += CLIENTS;
        let expected = self.in_domain.get(c).copied().unwrap_or(Answer::EMPTY);
        Op::query(Class::Read, &cold_text(c), Expect::Rows(expected))
    }
}

// --------------------------------------------------------------- wire-eval

/// The four query classes every dataset supports, with their reference
/// answers: the acyclic chain (Yannakakis), the inequality query (color
/// coding), the triangle (hypertree width 2) and `@count` of the chain with
/// a quantifier-free head (counting sweep).
#[derive(Clone)]
pub struct Classes {
    pub ops: Arc<[Op]>,
}

impl Classes {
    pub fn plan(db: &Database) -> Classes {
        let chain = chain_query(0, CHAIN_LEN, true, Spelling::Plain);
        let full = chain_full_query(CHAIN_LEN);
        let (endpoints, walks) = chain_references(db);
        let rows = |class, text: &str| Op::query(class, text, Expect::Rows(answer(text, db)));
        Classes {
            ops: [
                Op::query(Class::Chain, &chain, Expect::Rows(endpoints)),
                rows(Class::Neq, NEQ_QUERY),
                rows(Class::Triangle, TRIANGLE_QUERY),
                Op {
                    class: Class::Count,
                    request: format!("QUERY @count {DB} {full}"),
                    expect: Expect::Rows(Answer::of_count(walks)),
                },
            ]
            .into(),
        }
    }
}

/// Result cache off, plan cache on: every request executes its cached plan.
/// The clients walk the four classes round-robin, half a turn apart.
pub struct Eval(pub Classes);

impl Workload for Eval {
    fn caches(&self) -> (usize, usize) {
        (DEFAULT_CACHES.0, 0)
    }

    fn warmup(&self) -> Vec<String> {
        self.0.ops.iter().map(|op| op.request.clone()).collect()
    }

    fn script(&self, client: usize) -> Box<dyn Script> {
        Box::new(RoundRobin {
            ops: Arc::clone(&self.0.ops),
            next: client * self.0.ops.len() / CLIENTS,
        })
    }

    /// Four turns of the four classes.
    fn lap_ops(&self) -> usize {
        16
    }

    fn traced_ops(&self) -> usize {
        200
    }
}

pub struct RoundRobin {
    pub ops: Arc<[Op]>,
    pub next: usize,
}

impl Script for RoundRobin {
    fn next_op(&mut self) -> Op {
        let op = self.ops[self.next % self.ops.len()].clone();
        self.next += 1;
        op
    }
}

// -------------------------------------------------------------- wire-write

/// Rows each client toggles in `R1`. At most one row per client is in the
/// relation at any time, so a read sees one of `(ROWS + 1)^2` databases.
const ROWS: usize = 2;

pub const VIEW: &str = "V(x0, x1, x2, x3) :- R0(x0, x1), R1(x1, x2), R2(x2, x3).";
/// The view's own text, alpha-renamed: same canonical form, so it reads the
/// cache entry that view maintenance patches in place.
const READ_VIEW: &str = "V(v0, v1, v2, v3) :- R0(v0, v1), R1(v1, v2), R2(v2, v3).";
/// A projection of the view: answered by scanning the maintained relation
/// the first time after each write.
const READ_PROJECTION: &str = "G(x0, x3) :- R0(x0, x1), R1(x1, x2), R2(x2, x3).";

/// Durable service, one registered view, `4 reads : 1 write` per client.
/// Writes toggle single rows of `R1` from client-disjoint pools, so the
/// database is stationary and its final state does not depend on the
/// interleaving. Half the reads are view-class (patched entry, view scan);
/// half are the six-atom chain, which every write invalidates.
pub struct Write {
    /// `pools[client][i]`: the rows client toggles.
    pools: [Vec<Tuple>; CLIENTS],
    /// A row no client touches, for the tail writes after the run.
    pub spare: Tuple,
    /// `expected[read][own][other]`, states `0` (no row in) to `ROWS`.
    expected: Arc<Vec<Vec<Vec<Answer>>>>,
    pub reads: [String; 3],
}

/// What `wire-write` reads: the two view-class texts and the chain.
pub fn write_reads() -> [String; 3] {
    [
        READ_VIEW.to_string(),
        READ_PROJECTION.to_string(),
        chain_query(0, CHAIN_LEN, true, Spelling::Plain),
    ]
}

impl Write {
    pub fn plan(seed: u64, db: &Database) -> Write {
        let reads = write_reads();
        let mut rows = joining_rows(seed, db, CLIENTS * ROWS + 1);
        let spare = rows.pop().expect("one row beyond the pools");
        let pools = [rows[..ROWS].to_vec(), rows[ROWS..].to_vec()];

        let state = |own: usize, other: usize| {
            let mut d = db.clone();
            for (pool, s) in [(&pools[0], own), (&pools[1], other)] {
                if s > 0 {
                    d.insert_rows("R1", vec![pool[s - 1].clone()])
                        .expect("pool row fits R1");
                }
            }
            d
        };
        // Indexed from client 0's side; client 1 swaps the two states.
        let expected = reads
            .iter()
            .map(|text| {
                (0..=ROWS)
                    .map(|own| {
                        (0..=ROWS)
                            .map(|other| answer(text, &state(own, other)))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        Write {
            pools,
            spare,
            expected: Arc::new(expected),
            reads,
        }
    }
}

/// `n` distinct rows that are not in `R1` and join with `R0` on the left
/// and `R2` on the right, so inserting one changes the view.
pub fn joining_rows(seed: u64, db: &Database, n: usize) -> Vec<Tuple> {
    let column = |rel: &str, i: usize| -> Vec<pq_data::Value> {
        let r = db.relation(rel).expect("chain relation");
        let mut v: Vec<_> = r.iter().map(|t| t.values()[i].clone()).collect();
        v.sort();
        v.dedup();
        v
    };
    let (left, right) = (column("R0", 1), column("R2", 0));
    let r1 = db.relation("R1").expect("chain relation");
    let mut rng = Rng::stream(seed, "write-rows");
    let mut picked = HashSet::new();
    let mut rows = Vec::new();
    while rows.len() < n {
        let t = tuple![
            left[rng.below(left.len() as u64) as usize].clone(),
            right[rng.below(right.len() as u64) as usize].clone()
        ];
        if !r1.contains(&t) && picked.insert(t.clone()) {
            rows.push(t);
        }
    }
    rows
}

pub fn row_text(t: &Tuple) -> String {
    let fields: Vec<String> = t.iter().map(ToString::to_string).collect();
    fields.join(", ")
}

impl Workload for Write {
    fn durable(&self) -> bool {
        true
    }

    fn view(&self) -> Option<&str> {
        Some(VIEW)
    }

    fn warmup(&self) -> Vec<String> {
        self.reads.iter().map(|t| query_line(t)).collect()
    }

    fn script(&self, client: usize) -> Box<dyn Script> {
        Box::new(WriteScript {
            client,
            step: 0,
            cycle: 0,
            rows: self.pools[client].iter().map(row_text).collect(),
            reads: self.reads.clone(),
            expected: Arc::clone(&self.expected),
        })
    }

    /// Seven cycles, 14 writes a client: the 80 laps of a full run append
    /// 2240 records, a little under nine snapshot cycles of 256.
    fn lap_ops(&self) -> usize {
        70
    }

    fn lap_seconds(&self) -> f64 {
        0.2
    }

    fn traced_ops(&self) -> usize {
        400
    }

    /// Snapshot and maintenance stalls show in the write tail, which a
    /// median hides.
    fn tail(&self) -> Option<Class> {
        Some(Class::Write)
    }
}

struct WriteScript {
    client: usize,
    /// Position in the ten-operation cycle.
    step: usize,
    cycle: usize,
    rows: Vec<String>,
    reads: [String; 3],
    expected: Arc<Vec<Vec<Vec<Answer>>>>,
}

/// `view, chain, projection, chain, INSERT`, then the same ending in
/// `DELETE` of the row just inserted.
const CYCLE: [Option<usize>; 10] = [
    Some(0),
    Some(2),
    Some(1),
    Some(2),
    None,
    Some(0),
    Some(2),
    Some(1),
    Some(2),
    None,
];

impl Script for WriteScript {
    fn next_op(&mut self) -> Op {
        let row = self.cycle % ROWS;
        let step = self.step;
        self.step = (step + 1) % CYCLE.len();
        if self.step == 0 {
            self.cycle += 1;
        }
        match CYCLE[step] {
            Some(read) => {
                // This client's row is in between its INSERT and its DELETE.
                let own = if step > 4 { row + 1 } else { 0 };
                let table = &self.expected[read];
                let allowed: Vec<Answer> = (0..=ROWS)
                    .map(|other| {
                        if self.client == 0 {
                            table[own][other]
                        } else {
                            table[other][own]
                        }
                    })
                    .collect();
                Op::query(
                    Class::Read,
                    &self.reads[read],
                    Expect::OneOf(allowed.into()),
                )
            }
            None => Op {
                class: Class::Write,
                request: format!(
                    "{} {DB} R1 {}",
                    if step == 4 { "INSERT" } else { "DELETE" },
                    self.rows[row]
                ),
                expect: Expect::Applied,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{dataset, Sizes, SERVICE};

    const SMALL: Sizes = Sizes {
        chain_rows: 40,
        chain_vals: 20,
        students: 20,
        tri_rows: 40,
        ..SERVICE
    };

    fn requests(script: &mut dyn Script, n: usize) -> Vec<String> {
        (0..n).map(|_| script.next_op().request).collect()
    }

    #[test]
    fn same_seed_gives_the_same_operation_sequence() {
        let db = dataset(5, &SMALL);
        for client in 0..CLIENTS {
            let a = requests(&mut *Hot::plan(5, &db).script(client), 200);
            assert_eq!(a, requests(&mut *Hot::plan(5, &db).script(client), 200));
            assert_ne!(a, requests(&mut *Hot::plan(6, &db).script(client), 200));
            let w = requests(&mut *Write::plan(5, &db).script(client), 40);
            assert_eq!(w, requests(&mut *Write::plan(5, &db).script(client), 40));
        }
        let hot = Hot::plan(5, &db);
        assert_ne!(
            requests(&mut *hot.script(0), 50),
            requests(&mut *hot.script(1), 50),
            "the clients draw from separate streams"
        );
    }

    #[test]
    fn cold_constants_never_repeat_across_clients() {
        let db = dataset(5, &SMALL);
        let cold = Cold::plan(&db, SMALL.chain_vals);
        let mut seen = HashSet::new();
        for client in 0..CLIENTS {
            for r in requests(&mut *cold.script(client), 500) {
                assert!(seen.insert(r), "a cold text was sent twice");
            }
        }
        assert!(!seen.contains(&cold.warmup()[0]));
    }

    #[test]
    fn write_cycle_is_four_reads_per_write_and_leaves_the_database_as_it_was() {
        let db = dataset(5, &SMALL);
        let w = Write::plan(5, &db);
        let mut script = w.script(1);
        let mut inserted: Vec<String> = Vec::new();
        for i in 0..CYCLE.len() * 6 {
            let op = script.next_op();
            match (i % 5 == 4, op.class) {
                (true, Class::Write) => {
                    let (verb, row) = op.request.split_once(" d R1 ").expect("mutation line");
                    if verb == "INSERT" {
                        inserted.push(row.to_string());
                    } else {
                        assert_eq!(inserted.pop().as_deref(), Some(row));
                    }
                }
                (false, Class::Read) => {}
                other => panic!("operation {i} is {other:?}"),
            }
        }
        assert!(inserted.is_empty());
        // Every stretch is whole cycles, so it leaves no pool row behind.
        assert_eq!(w.lap_ops() % CYCLE.len(), 0);
        assert_eq!(w.traced_ops() % CYCLE.len(), 0);
        let all: HashSet<&Tuple> = w.pools.iter().flatten().chain([&w.spare]).collect();
        assert_eq!(all.len(), CLIENTS * ROWS + 1, "pools are disjoint");
    }
}
