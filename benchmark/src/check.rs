//! Answer checking. Every response is reduced to a row count and a checksum
//! of its body and compared with what `pq_engine::naive::evaluate` — the
//! reference the workspace's own tests compare against — gives on the same
//! database. The rows are rendered here, not by the program's encoder, so
//! the check covers the wire encoding too.

use std::collections::BTreeSet;

use pq_data::{Database, Relation, Value};

use crate::gen::{chain_full_query, CHAIN_LEN};

/// Row count and FNV-1a checksum of a response body (each row followed by a
/// line feed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Answer {
    pub rows: u64,
    pub sum: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Answer {
    pub const EMPTY: Answer = Answer {
        rows: 0,
        sum: FNV_OFFSET,
    };

    /// Add one body line (without its line terminator).
    pub fn push_line(&mut self, line: &[u8]) {
        for &b in line.iter().chain(b"\n") {
            self.sum = (self.sum ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self.rows += 1;
    }

    /// The answer holding exactly these lines, in order.
    pub fn of_lines<S: AsRef<str>>(lines: impl IntoIterator<Item = S>) -> Answer {
        let mut a = Answer::EMPTY;
        for l in lines {
            a.push_line(l.as_ref().as_bytes());
        }
        a
    }

    /// The answer a relation makes on the wire: canonical (sorted) rows,
    /// fields joined by `, `. The generators emit integers and plain
    /// identifiers only, which the loader syntax writes unquoted.
    pub fn of_relation(rel: &Relation) -> Answer {
        Answer::of_lines(rel.canonical_rows().iter().map(|t| {
            let fields: Vec<String> = t
                .iter()
                .map(|v| match v {
                    Value::Int(i) => i.to_string(),
                    Value::Str(s) => s.to_string(),
                })
                .collect();
            fields.join(", ")
        }))
    }

    /// The single-row answer of `QUERY @count`.
    pub fn of_count(n: u128) -> Answer {
        Answer::of_lines([n.to_string()])
    }
}

/// The reference answer of conjunctive query `text` on `db`.
pub fn oracle(text: &str, db: &Database) -> Relation {
    let q = pq_query::parse_cq(text).expect("benchmark query parses");
    pq_engine::naive::evaluate(&q, db).expect("reference evaluation succeeds")
}

/// The references of the two classes over the whole chain `R0..R5`, from
/// one naive evaluation of the query with every variable in the head: the
/// answer of the endpoint projection (`chain_query(0, CHAIN_LEN, true, _)`),
/// projected and ordered here, and the number of walks, which `@count` of
/// the quantifier-free query must return.
pub fn chain_references(db: &Database) -> (Answer, u128) {
    let walks = oracle(&chain_full_query(CHAIN_LEN), db);
    let endpoints: BTreeSet<(i64, i64)> = walks
        .iter()
        .map(|t| {
            let end = |i: usize| t.values()[i].as_int().expect("chain values are integers");
            (end(0), end(CHAIN_LEN))
        })
        .collect();
    (
        Answer::of_lines(endpoints.iter().map(|(a, b)| format!("{a}, {b}"))),
        walks.len() as u128,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_data::tuple;

    #[test]
    fn answers_compare_by_rows_and_order() {
        let a = Answer::of_lines(["1, 2", "2, 3"]);
        assert_eq!(a.rows, 2);
        assert_eq!(a, Answer::of_lines(["1, 2", "2, 3"]));
        assert_ne!(a, Answer::of_lines(["2, 3", "1, 2"]));
        assert_ne!(a, Answer::of_lines(["1, 2", "2, 4"]));
        assert_eq!(Answer::of_lines::<&str>([]), Answer::EMPTY);
    }

    #[test]
    fn relation_answers_are_sorted_and_match_the_program_renderer() {
        let mut db = Database::new();
        db.add_table("R", ["a", "b"], [tuple![2, "x"], tuple![1, "y"]])
            .unwrap();
        let rel = db.relation("R").unwrap();
        assert_eq!(Answer::of_relation(rel), Answer::of_lines(["1, y", "2, x"]));
        assert_eq!(Answer::of_count(7), Answer::of_lines(["7"]));
    }

    #[test]
    fn chain_references_agree_with_the_projected_query_itself() {
        use crate::gen::{chain_query, dataset, Sizes, Spelling, SERVICE};
        let small = Sizes {
            chain_rows: 40,
            chain_vals: 20,
            ..SERVICE
        };
        let db = dataset(9, &small);
        let (endpoints, walks) = chain_references(&db);
        let text = chain_query(0, CHAIN_LEN, true, Spelling::Plain);
        assert_eq!(endpoints, Answer::of_relation(&oracle(&text, &db)));
        assert!(walks >= u128::from(endpoints.rows));
    }
}
