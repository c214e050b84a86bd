//! Multiplicity-annotated relations: the carrier of the counting semiring.
//!
//! A [`CountedRelation`] maps each distinct tuple to a `u128` multiplicity.
//! Rows live in a `BTreeMap`, so iteration order is the lexicographic tuple
//! order — deterministic by construction, independent of insertion order,
//! and therefore independent of any parallel schedule that produced the
//! rows. All multiplicity arithmetic is checked; overflow surfaces as the
//! typed [`CountError::Overflow`], never as a wrapped count.

use std::collections::{BTreeMap, HashMap};

use pq_data::{Relation, Tuple, Value};
use pq_engine::governor::ExecutionContext;

use crate::{CountError, Result};

/// A relation whose tuples carry exact `u128` multiplicities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountedRelation {
    attrs: Vec<String>,
    rows: BTreeMap<Tuple, u128>,
}

/// Render a `u128` count as a domain [`Value`]: an integer when it fits in
/// `i64`, else its decimal string (the wire and cached representations keep
/// exactness either way).
pub fn count_value(c: u128) -> Value {
    if c <= i64::MAX as u128 {
        Value::int(c as i64)
    } else {
        Value::str(c.to_string())
    }
}

impl pq_engine::sweep::Rows for CountedRelation {
    fn rows(&self) -> usize {
        self.len()
    }
}

impl CountedRelation {
    /// An empty counted relation over the given attribute names.
    ///
    /// # Errors
    /// [`CountError::Engine`] (duplicate attribute) when a name repeats.
    pub fn new(attrs: impl IntoIterator<Item = impl Into<String>>) -> Result<Self> {
        // Reuse the substrate's header validation.
        let probe = Relation::new(attrs).map_err(CountError::from)?;
        Ok(CountedRelation {
            attrs: probe.attrs().to_vec(),
            rows: BTreeMap::new(),
        })
    }

    /// Annotate every tuple of a set-semantics relation with multiplicity 1.
    pub fn from_relation(r: &Relation) -> Self {
        CountedRelation {
            attrs: r.attrs().to_vec(),
            rows: r.iter().map(|t| (t.clone(), 1u128)).collect(),
        }
    }

    /// The header (attribute names, in column order).
    pub fn attrs(&self) -> &[String] {
        &self.attrs
    }

    /// Number of distinct tuples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no tuple has positive multiplicity.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The multiplicity of `t`, or `None` when absent.
    pub fn get(&self, t: &Tuple) -> Option<u128> {
        self.rows.get(t).copied()
    }

    /// Iterate `(tuple, multiplicity)` pairs in lexicographic tuple order.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, u128)> {
        self.rows.iter().map(|(t, &c)| (t, c))
    }

    /// Add `m` to the multiplicity of `t` (checked).
    pub fn insert_add(&mut self, t: Tuple, m: u128, engine: &'static str) -> Result<()> {
        debug_assert_eq!(t.arity(), self.attrs.len(), "arity mismatch");
        let slot = self.rows.entry(t).or_insert(0);
        *slot = slot.checked_add(m).ok_or(CountError::Overflow { engine })?;
        Ok(())
    }

    /// The sum of all multiplicities (checked).
    pub fn total(&self, engine: &'static str) -> Result<u128> {
        self.rows
            .values()
            .try_fold(0u128, |a, &b| a.checked_add(b))
            .ok_or(CountError::Overflow { engine })
    }

    /// Project onto `keep`, **summing** multiplicities of tuples that
    /// collide — the semiring marginalization step. Every name in `keep`
    /// must be in the header.
    pub fn project_sum(
        &self,
        keep: &[String],
        ctx: &ExecutionContext,
        engine: &'static str,
    ) -> Result<CountedRelation> {
        let positions: Vec<usize> = keep
            .iter()
            .map(|a| {
                self.attrs
                    .iter()
                    .position(|b| b == a)
                    .ok_or_else(|| missing_attr(a, &self.attrs))
            })
            .collect::<Result<_>>()?;
        let mut out = CountedRelation {
            attrs: keep.to_vec(),
            rows: BTreeMap::new(),
        };
        for (t, &c) in &self.rows {
            ctx.tick(engine)?;
            out.insert_add(t.project(&positions), c, engine)?;
        }
        Ok(out)
    }

    /// Natural join with multiplicity **products** — the semiring
    /// combination step. Output attributes are `self`'s header followed by
    /// `other`'s non-shared attributes; a tuple's multiplicity is the
    /// product of its two projections' multiplicities. Tuples of `self`
    /// with no partner are dropped (the count-propagating semijoin).
    pub fn join_multiply(
        &self,
        other: &CountedRelation,
        ctx: &ExecutionContext,
        engine: &'static str,
    ) -> Result<CountedRelation> {
        let shared: Vec<&String> = other
            .attrs
            .iter()
            .filter(|a| self.attrs.contains(a))
            .collect();
        let self_key: Vec<usize> = shared
            .iter()
            .map(|a| self.attrs.iter().position(|b| &b == a).expect("shared"))
            .collect();
        let other_key: Vec<usize> = shared
            .iter()
            .map(|a| other.attrs.iter().position(|b| &b == a).expect("shared"))
            .collect();
        let other_rest: Vec<usize> = (0..other.attrs.len())
            .filter(|i| !other_key.contains(i))
            .collect();

        // Build side: group the right rows by join key.
        let mut by_key: HashMap<Tuple, Vec<(Tuple, u128)>> = HashMap::new();
        for (t, &c) in &other.rows {
            ctx.tick(engine)?;
            by_key
                .entry(t.project(&other_key))
                .or_default()
                .push((t.project(&other_rest), c));
        }

        let mut attrs = self.attrs.clone();
        attrs.extend(other_rest.iter().map(|&i| other.attrs[i].clone()));
        let mut out = CountedRelation {
            attrs,
            rows: BTreeMap::new(),
        };
        for (t, &c) in &self.rows {
            ctx.tick(engine)?;
            let Some(matches) = by_key.get(&t.project(&self_key)) else {
                continue;
            };
            for (rest, m) in matches {
                let prod = c.checked_mul(*m).ok_or(CountError::Overflow { engine })?;
                out.insert_add(t.extend_with(rest.iter().cloned()), prod, engine)?;
            }
        }
        Ok(out)
    }

    /// Materialize as a set-semantics relation with the multiplicity
    /// appended as a final `count_attr` column (see [`count_value`] for the
    /// value encoding). Rows come out in lexicographic tuple order.
    pub fn to_relation(&self, count_attr: &str) -> Result<Relation> {
        let mut attrs = self.attrs.clone();
        attrs.push(count_attr.to_string());
        let mut out = Relation::new(attrs).map_err(CountError::from)?;
        for (t, &c) in &self.rows {
            out.insert(t.extend_with([count_value(c)]))
                .map_err(CountError::from)?;
        }
        Ok(out)
    }
}

fn missing_attr(attr: &str, header: &[String]) -> CountError {
    CountError::Engine(pq_engine::EngineError::Data(
        pq_data::DataError::UnknownAttribute {
            attr: attr.to_string(),
            header: header.to_vec(),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_data::tuple;

    fn ctx() -> ExecutionContext {
        ExecutionContext::unlimited()
    }

    #[test]
    fn from_relation_is_unit_weighted() {
        let r = Relation::with_tuples(["a", "b"], [tuple![1, 2], tuple![3, 4]]).unwrap();
        let c = CountedRelation::from_relation(&r);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&tuple![1, 2]), Some(1));
        assert_eq!(c.total("t").unwrap(), 2);
    }

    #[test]
    fn project_sum_merges_multiplicities() {
        let r =
            Relation::with_tuples(["a", "b"], [tuple![1, 2], tuple![1, 3], tuple![2, 9]]).unwrap();
        let c = CountedRelation::from_relation(&r);
        let p = c.project_sum(&["a".to_string()], &ctx(), "t").unwrap();
        assert_eq!(p.get(&tuple![1]), Some(2));
        assert_eq!(p.get(&tuple![2]), Some(1));
        assert_eq!(p.attrs(), ["a".to_string()]);
    }

    #[test]
    fn join_multiply_multiplies_and_semijoins() {
        let left = CountedRelation::from_relation(
            &Relation::with_tuples(["a", "b"], [tuple![1, 2], tuple![5, 6]]).unwrap(),
        );
        let right = Relation::with_tuples(["b", "c"], [tuple![2, 7], tuple![2, 8]]).unwrap();
        let marg = CountedRelation::from_relation(&right)
            .project_sum(&["b".to_string()], &ctx(), "t")
            .unwrap();
        assert_eq!(marg.get(&tuple![2]), Some(2));
        let j = left.join_multiply(&marg, &ctx(), "t").unwrap();
        // (5, 6) has no partner and is dropped; (1, 2) picks up weight 2.
        assert_eq!(j.len(), 1);
        assert_eq!(j.get(&tuple![1, 2]), Some(2));
    }

    #[test]
    fn join_multiply_extends_with_unshared_attrs() {
        let left =
            CountedRelation::from_relation(&Relation::with_tuples(["a"], [tuple![1]]).unwrap());
        let right = CountedRelation::from_relation(
            &Relation::with_tuples(["a", "z"], [tuple![1, 10], tuple![1, 20]]).unwrap(),
        );
        let j = left.join_multiply(&right, &ctx(), "t").unwrap();
        assert_eq!(j.attrs(), ["a".to_string(), "z".to_string()]);
        assert_eq!(j.len(), 2);
        assert_eq!(j.get(&tuple![1, 10]), Some(1));
    }

    #[test]
    fn overflow_is_typed_never_wrapped() {
        let mut c = CountedRelation::new(["a"]).unwrap();
        c.insert_add(tuple![1], u128::MAX, "t").unwrap();
        let err = c.insert_add(tuple![1], 1, "t").unwrap_err();
        assert!(err.is_overflow(), "got {err:?}");
        // total() over two near-max rows overflows too.
        let mut d = CountedRelation::new(["a"]).unwrap();
        d.insert_add(tuple![1], u128::MAX, "t").unwrap();
        d.insert_add(tuple![2], 1, "t").unwrap();
        assert!(d.total("t").unwrap_err().is_overflow());
        // product overflow in a join
        let big = d;
        let mut unit = CountedRelation::new(["a"]).unwrap();
        unit.insert_add(tuple![1], 3, "t").unwrap();
        assert!(unit
            .join_multiply(&big, &ctx(), "t")
            .unwrap_err()
            .is_overflow());
    }

    #[test]
    fn to_relation_appends_count_column() {
        let mut c = CountedRelation::new(["g"]).unwrap();
        c.insert_add(tuple![1], 4, "t").unwrap();
        c.insert_add(tuple![2], u128::MAX, "t").unwrap();
        let r = c.to_relation("count").unwrap();
        assert_eq!(r.attrs(), ["g".to_string(), "count".to_string()]);
        assert!(r.contains(&tuple![1, 4]));
        // Beyond i64: the exact decimal string.
        assert!(r.contains(&Tuple::new(vec![
            Value::int(2),
            Value::str(u128::MAX.to_string())
        ])));
    }

    #[test]
    fn iteration_is_sorted_and_deterministic() {
        let mut c = CountedRelation::new(["a"]).unwrap();
        for v in [5, 1, 3, 2, 4] {
            c.insert_add(tuple![v], 1, "t").unwrap();
        }
        let order: Vec<Tuple> = c.iter().map(|(t, _)| t.clone()).collect();
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(order, sorted);
    }
}
