//! Seeded inputs: one database shape and one set of query classes, used by
//! all five workloads at their own sizes. The generators are the benchmark's
//! own (they follow `pq_bench::workloads` in shape only), so editing that
//! crate cannot silently change a workload.
//!
//! The seed chooses the content of an instance, not its shape: a relation of
//! `rows` pairs over `vals` values gives every value the same number of
//! successors and predecessors (to within one), a DAG node has one or two
//! successors, the graph has a fixed number of edges. Independent draws would
//! let answer sizes, and with them every timing, move by a third from seed
//! to seed, which would drown the differences the benchmark exists to show.
//!
//! Every dataset holds every family — the chain `R0..R5`, the university
//! relations `SD`/`SC`/`CD`, the triangle edge relation `E`, the DAG `D` and
//! the symmetric graph `C` — so each
//! layer can be timed on each workload's own data, even where the workload's
//! traffic never reaches that layer.

use pq_data::{tuple, Database, Tuple};

use crate::rng::Rng;

/// Chain length of `R0..R5` (the paper's acyclic family).
pub const CHAIN_LEN: usize = 6;
const DEPTS: [&str; 5] = ["cs", "math", "bio", "chem", "phys"];

/// Size of each family.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Rows per chain relation.
    pub chain_rows: usize,
    /// Chain value domain `0..chain_vals`.
    pub chain_vals: usize,
    /// Students (`SD` rows); courses are a fifth of that.
    pub students: usize,
    /// Rows of the triangle relation `E`, over [`TRI_VALS`] values whatever
    /// the size, so the two-atom bags grow quadratically.
    pub tri_rows: usize,
    /// Nodes of the DAG `D` (one and a half edges a node).
    pub dag_nodes: usize,
    /// Nodes of the symmetric graph `C` (three tenths of all pairs are edges).
    pub clique_nodes: usize,
}

/// Value domain of the triangle relation.
const TRI_VALS: usize = 300;

/// The service workloads' instance: the sizes the issue's prototype timed.
pub const SERVICE: Sizes = Sizes {
    chain_rows: 300,
    chain_vals: 200,
    students: 200,
    tri_rows: 1200,
    dag_nodes: 60,
    clique_nodes: 24,
};

/// `lib-scale`'s three instances; each family doubles from the first to the
/// second and again to the third (the graph, whose naive evaluation grows
/// fastest, by halves of the first) so a log-log slope can be fitted over
/// them.
pub const SCALE: [Sizes; 3] = [
    Sizes {
        chain_rows: 300,
        chain_vals: 150,
        students: 400,
        tri_rows: 600,
        dag_nodes: 60,
        clique_nodes: 16,
    },
    Sizes {
        chain_rows: 600,
        chain_vals: 300,
        students: 800,
        tri_rows: 1200,
        dag_nodes: 120,
        clique_nodes: 24,
    },
    Sizes {
        chain_rows: 1200,
        chain_vals: 600,
        students: 1600,
        tri_rows: 2400,
        dag_nodes: 240,
        clique_nodes: 32,
    },
];

/// `rows` distinct pairs over `0..vals` in which every value has
/// `rows / vals` successors and as many predecessors, and `rows % vals` of
/// them one more: a circulant with random offsets between two random
/// relabelings of the values.
fn regular_pairs(rng: &mut Rng, rows: usize, vals: usize) -> Vec<Tuple> {
    assert!(rows <= vals * vals, "more pairs than the domain has");
    let (from, to) = (rng.permutation(vals), rng.permutation(vals));
    let offsets = rng.permutation(vals);
    let mut pairs = Vec::with_capacity(rows);
    for (round, offset) in offsets.iter().enumerate().take(rows.div_ceil(vals)) {
        let takers = (rows - round * vals).min(vals);
        for a in (0..vals).filter(|&a| from[a] < takers) {
            pairs.push(tuple![a as i64, to[(from[a] + offset) % vals] as i64]);
        }
    }
    pairs
}

/// Build the dataset for `sizes` from `seed`.
pub fn dataset(seed: u64, sizes: &Sizes) -> Database {
    let mut db = Database::new();
    let mut add = |name: String, attrs: [String; 2], rows: Vec<Tuple>| {
        db.add_table(name, attrs, rows)
            .expect("generated relation names are distinct");
    };

    let mut rng = Rng::stream(seed, "chain");
    for i in 0..CHAIN_LEN {
        add(
            format!("R{i}"),
            [format!("a{i}"), format!("a{}", i + 1)],
            regular_pairs(&mut rng, sizes.chain_rows, sizes.chain_vals),
        );
    }

    let mut rng = Rng::stream(seed, "university");
    let courses = (sizes.students / 5).max(1) as u64;
    let dept = |rng: &mut Rng| DEPTS[rng.below(DEPTS.len() as u64) as usize];
    let cd = (0..courses)
        .map(|c| tuple![format!("c{c}"), dept(&mut rng)])
        .collect();
    let mut sd = Vec::new();
    let mut sc = Vec::new();
    for s in 0..sizes.students {
        sd.push(tuple![format!("s{s}"), dept(&mut rng)]);
        for _ in 0..=rng.below(4) {
            sc.push(tuple![format!("s{s}"), format!("c{}", rng.below(courses))]);
        }
    }
    add("CD".into(), ["course".into(), "dept".into()], cd);
    add("SD".into(), ["student".into(), "dept".into()], sd);
    add("SC".into(), ["student".into(), "course".into()], sc);

    let mut rng = Rng::stream(seed, "triangle");
    add(
        "E".into(),
        ["a".into(), "b".into()],
        regular_pairs(&mut rng, sizes.tri_rows, TRI_VALS),
    );

    let mut rng = Rng::stream(seed, "dag");
    let n = sizes.dag_nodes;
    let mut edges = Vec::new();
    for a in 0..n {
        // Two successors and one, turn by turn: 1.5 edges a node.
        let later = rng.permutation(n - 1 - a);
        for b in later.iter().take(2 - a % 2) {
            edges.push(tuple![a as i64, (a + 1 + b) as i64]);
        }
    }
    add("D".into(), ["a".into(), "b".into()], edges);

    let mut rng = Rng::stream(seed, "clique");
    let n = sizes.clique_nodes;
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
        .collect();
    let mut edges = Vec::new();
    for &i in rng
        .permutation(pairs.len())
        .iter()
        .take(pairs.len() * 3 / 10)
    {
        let (a, b) = pairs[i];
        edges.push(tuple![a as i64, b as i64]);
        edges.push(tuple![b as i64, a as i64]);
    }
    add("C".into(), ["a".into(), "b".into()], edges);
    db
}

/// How a chain query names its variables and orders its atoms. The first
/// two spellings share a canonical form; `Reordered` has its own; and
/// `Redundant` carries one atom that core minimization removes, so it shares
/// a result-cache entry with `Plain` only through the semantic key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Spelling {
    Plain,
    Renamed,
    Reordered,
    Redundant,
}

pub const SPELLINGS: [Spelling; 4] = [
    Spelling::Plain,
    Spelling::Renamed,
    Spelling::Reordered,
    Spelling::Redundant,
];

/// The sub-chain `R{from}..R{from+len-1}` projected on its first variable
/// and on its last (`wide`) or second-last one.
pub fn chain_query(from: usize, len: usize, wide: bool, spelling: Spelling) -> String {
    let var = |i: usize| match spelling {
        Spelling::Renamed => format!("v{}", i + 10),
        _ => format!("x{i}"),
    };
    let mut atoms: Vec<String> = (from..from + len)
        .map(|i| format!("R{i}({}, {})", var(i), var(i + 1)))
        .collect();
    match spelling {
        Spelling::Reordered => atoms.reverse(),
        Spelling::Redundant => atoms.push(format!("R{from}({}, w)", var(from))),
        Spelling::Plain | Spelling::Renamed => {}
    }
    let last = if wide { from + len } else { from + len - 1 };
    format!("G({}, {}) :- {}.", var(from), var(last), atoms.join(", "))
}

/// The chain query with every variable in the head (its answers are the
/// length-`len` walks); the counting class.
pub fn chain_full_query(len: usize) -> String {
    let atoms: Vec<String> = (0..len)
        .map(|i| format!("R{i}(x{i}, x{})", i + 1))
        .collect();
    let head: Vec<String> = (0..=len).map(|i| format!("x{i}")).collect();
    format!("G({}) :- {}.", head.join(", "), atoms.join(", "))
}

/// Section 5's students-outside-their-department query (Theorem 2's class).
pub const NEQ_QUERY: &str = "G(s) :- SD(s, d), SC(s, c), CD(c, d2), d != d2.";
/// The canonical cyclic query of hypertree width 2.
pub const TRIANGLE_QUERY: &str = "G(x) :- E(x, y), E(y, z), E(z, x).";
/// Clique-3 over the symmetric graph, run on the naive engine directly.
pub const CLIQUE_QUERY: &str = "G(x, y, z) :- C(x, y), C(y, z), C(x, z).";
/// Transitive closure of the DAG.
pub const TC_PROGRAM: &str = "T(x, y) :- D(x, y).\nT(x, z) :- D(x, y), T(y, z).\n?- T";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_dataset() {
        assert_eq!(dataset(3, &SERVICE), dataset(3, &SERVICE));
        assert_ne!(dataset(3, &SERVICE), dataset(4, &SERVICE));
    }

    #[test]
    fn the_seed_changes_content_but_not_shape() {
        for seed in [1, 2, 3] {
            let db = dataset(seed, &SERVICE);
            for (name, rows) in [("R0", 300), ("R5", 300), ("E", 1200), ("D", 88), ("C", 164)] {
                assert_eq!(db.relation(name).unwrap().len(), rows, "{name}");
            }
            // 300 pairs over 200 values: one or two successors each.
            let mut successors = [0usize; 200];
            for t in db.relation("R0").unwrap().iter() {
                successors[t.values()[0].as_int().unwrap() as usize] += 1;
            }
            assert!(successors.iter().all(|&n| n == 1 || n == 2));
            assert_eq!(successors.iter().filter(|&&n| n == 2).count(), 100);
        }
    }

    #[test]
    fn spellings_parse_and_differ_only_where_intended() {
        let canon = |s| {
            let text = chain_query(1, 3, true, s);
            pq_query::canonical_form(&pq_query::parse_cq(&text).expect("parses"))
        };
        assert_eq!(canon(Spelling::Plain), canon(Spelling::Renamed));
        assert_ne!(canon(Spelling::Plain), canon(Spelling::Reordered));
        assert_ne!(canon(Spelling::Plain), canon(Spelling::Redundant));
        for q in [NEQ_QUERY, TRIANGLE_QUERY, CLIQUE_QUERY] {
            pq_query::parse_cq(q).expect("parses");
        }
        pq_query::parse_cq(&chain_full_query(CHAIN_LEN)).expect("parses");
        pq_query::parse_datalog(TC_PROGRAM).expect("parses");
    }
}
