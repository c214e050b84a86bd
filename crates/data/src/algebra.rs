//! Relational algebra on [`Relation`]: σ, π, ⋈, ⋉, ∪, ∩, −, ρ, ×.
//!
//! These are the operators Section 5's Algorithms 1 and 2 are phrased in
//! (e.g. `Pu := σ_F(Pu ⋈ π_{Yj∩Yu}(Pj))`). Joins are *natural* joins: columns
//! are matched by attribute name, and computed as hash joins.

use std::collections::HashMap;

use crate::error::{DataError, Result};
use crate::relation::Relation;
use crate::tuple::Tuple;
use crate::value::Value;

/// Column-matching plan shared by the join variants (including the parallel
/// kernels in [`crate::par`]).
pub(crate) struct JoinPlan {
    /// Positions of the join attributes in the left relation.
    pub(crate) left_key: Vec<usize>,
    /// Positions of the join attributes in the right relation.
    pub(crate) right_key: Vec<usize>,
    /// Positions of the right columns that are *not* join columns.
    pub(crate) right_rest: Vec<usize>,
    /// Output header: left attrs then non-shared right attrs.
    pub(crate) out_attrs: Vec<String>,
}

pub(crate) fn join_plan(left: &Relation, right: &Relation) -> JoinPlan {
    let mut left_key = Vec::new();
    let mut right_key = Vec::new();
    for (i, a) in left.attrs().iter().enumerate() {
        if let Some(j) = right.attr_pos(a) {
            left_key.push(i);
            right_key.push(j);
        }
    }
    let right_rest: Vec<usize> = (0..right.arity())
        .filter(|j| !right_key.contains(j))
        .collect();
    let mut out_attrs: Vec<String> = left.attrs().to_vec();
    out_attrs.extend(right_rest.iter().map(|&j| right.attrs()[j].clone()));
    JoinPlan {
        left_key,
        right_key,
        right_rest,
        out_attrs,
    }
}

impl Relation {
    /// σ: tuples satisfying `pred`.
    pub fn select(&self, mut pred: impl FnMut(&Tuple) -> bool) -> Relation {
        let mut out = Relation::new(self.attrs().iter().cloned())
            .expect("header of an existing relation is valid");
        for t in self.iter() {
            if pred(t) {
                out.insert(t.clone()).expect("same arity");
            }
        }
        out
    }

    /// σ with an attribute/constant equality: `attr = value`.
    pub fn select_eq_const(&self, attr: &str, value: &Value) -> Result<Relation> {
        let p = self.attr_pos_checked(attr)?;
        Ok(self.select(|t| &t[p] == value))
    }

    /// σ with an attribute/constant disequality: `attr ≠ value`.
    pub fn select_ne_const(&self, attr: &str, value: &Value) -> Result<Relation> {
        let p = self.attr_pos_checked(attr)?;
        Ok(self.select(|t| &t[p] != value))
    }

    /// σ with an attribute/attribute equality: `a = b`.
    pub fn select_eq_attrs(&self, a: &str, b: &str) -> Result<Relation> {
        let (pa, pb) = (self.attr_pos_checked(a)?, self.attr_pos_checked(b)?);
        Ok(self.select(|t| t[pa] == t[pb]))
    }

    /// σ with an attribute/attribute disequality: `a ≠ b`.
    pub fn select_ne_attrs(&self, a: &str, b: &str) -> Result<Relation> {
        let (pa, pb) = (self.attr_pos_checked(a)?, self.attr_pos_checked(b)?);
        Ok(self.select(|t| t[pa] != t[pb]))
    }

    /// π: keep `attrs` (in the given order), deduplicating.
    ///
    /// # Errors
    /// When an attribute is unknown or repeats in the request.
    pub fn project(&self, attrs: &[&str]) -> Result<Relation> {
        let positions: Vec<usize> = attrs
            .iter()
            .map(|a| self.attr_pos_checked(a))
            .collect::<Result<_>>()?;
        let mut out = Relation::new(attrs.iter().map(|s| s.to_string()))?;
        for t in self.iter() {
            out.insert(t.project(&positions))
                .expect("projection arity matches");
        }
        Ok(out)
    }

    /// π keeping every attribute present in `keep` (intersection, preserving
    /// this relation's column order). Attributes of `keep` missing from the
    /// header are ignored — convenient for the `π_{Yj∩Yu}` steps of
    /// Algorithm 1 where the index sets are computed externally.
    pub fn project_onto(&self, keep: &[String]) -> Relation {
        let cols: Vec<&str> = self
            .attrs()
            .iter()
            .filter(|a| keep.contains(a))
            .map(String::as_str)
            .collect();
        self.project(&cols).expect("columns come from own header")
    }

    /// ρ: rename attributes via a (old → new) mapping; names absent from the
    /// map are kept.
    ///
    /// # Errors
    /// When the renaming introduces a duplicate attribute.
    pub fn rename(&self, mapping: &HashMap<String, String>) -> Result<Relation> {
        let attrs: Vec<String> = self
            .attrs()
            .iter()
            .map(|a| mapping.get(a).cloned().unwrap_or_else(|| a.clone()))
            .collect();
        Relation::with_tuples(attrs, self.iter().cloned())
    }

    /// Natural join ⋈ via hash join. Shared attribute names are the join key;
    /// the output header is the left header followed by the right-only
    /// attributes. With no shared attributes this degenerates to the
    /// Cartesian product.
    ///
    /// ```
    /// use pq_data::{tuple, Relation};
    ///
    /// let r = Relation::with_tuples(["a", "b"], [tuple![1, 2]]).unwrap();
    /// let s = Relation::with_tuples(["b", "c"], [tuple![2, 3], tuple![9, 9]]).unwrap();
    /// let j = r.natural_join(&s).unwrap();
    /// assert_eq!(j.attrs(), ["a", "b", "c"]);
    /// assert!(j.contains(&tuple![1, 2, 3]));
    /// assert_eq!(j.len(), 1);
    /// ```
    pub fn natural_join(&self, right: &Relation) -> Result<Relation> {
        let plan = join_plan(self, right);
        let mut out = Relation::new(plan.out_attrs.iter().cloned())?;
        // Build on the right, probe with the left.
        let mut table: HashMap<Tuple, Vec<&Tuple>> = HashMap::new();
        for t in right.iter() {
            table.entry(t.project(&plan.right_key)).or_default().push(t);
        }
        for lt in self.iter() {
            let key = lt.project(&plan.left_key);
            if let Some(matches) = table.get(&key) {
                for rt in matches {
                    let extra = plan.right_rest.iter().map(|&j| rt[j].clone());
                    out.insert(lt.extend_with(extra))
                        .expect("join arity matches");
                }
            }
        }
        Ok(out)
    }

    /// Semijoin ⋉: tuples of `self` that join with at least one tuple of
    /// `right` on the shared attributes.
    pub fn semijoin(&self, right: &Relation) -> Relation {
        let plan = join_plan(self, right);
        let keys: std::collections::HashSet<Tuple> =
            right.iter().map(|t| t.project(&plan.right_key)).collect();
        self.select(|t| keys.contains(&t.project(&plan.left_key)))
    }

    /// Antijoin ▷: tuples of `self` that join with *no* tuple of `right`.
    pub fn antijoin(&self, right: &Relation) -> Relation {
        let plan = join_plan(self, right);
        let keys: std::collections::HashSet<Tuple> =
            right.iter().map(|t| t.project(&plan.right_key)).collect();
        self.select(|t| !keys.contains(&t.project(&plan.left_key)))
    }

    /// ∪ over identical headers.
    pub fn union(&self, other: &Relation) -> Result<Relation> {
        self.check_same_header(other)?;
        let mut out = self.clone();
        for t in other.iter() {
            out.insert(t.clone())?;
        }
        Ok(out)
    }

    /// ∩ over identical headers.
    pub fn intersect(&self, other: &Relation) -> Result<Relation> {
        self.check_same_header(other)?;
        Ok(self.select(|t| other.contains(t)))
    }

    /// − (set difference) over identical headers.
    pub fn difference(&self, other: &Relation) -> Result<Relation> {
        self.check_same_header(other)?;
        Ok(self.select(|t| !other.contains(t)))
    }

    /// × (Cartesian product); attribute sets must be disjoint.
    pub fn product(&self, other: &Relation) -> Result<Relation> {
        if self.attrs().iter().any(|a| other.attr_pos(a).is_some()) {
            return Err(DataError::HeaderMismatch {
                left: self.attrs().to_vec(),
                right: other.attrs().to_vec(),
            });
        }
        self.natural_join(other)
    }

    fn check_same_header(&self, other: &Relation) -> Result<()> {
        if self.attrs() != other.attrs() {
            return Err(DataError::HeaderMismatch {
                left: self.attrs().to_vec(),
                right: other.attrs().to_vec(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn edges() -> Relation {
        Relation::with_tuples(["x", "y"], [tuple![1, 2], tuple![2, 3], tuple![1, 3]]).unwrap()
    }

    #[test]
    fn select_variants() {
        let e = edges();
        assert_eq!(e.select_eq_const("x", &Value::int(1)).unwrap().len(), 2);
        assert_eq!(e.select_ne_const("x", &Value::int(1)).unwrap().len(), 1);
        let d = Relation::with_tuples(["a", "b"], [tuple![1, 1], tuple![1, 2]]).unwrap();
        assert_eq!(d.select_eq_attrs("a", "b").unwrap().len(), 1);
        assert_eq!(d.select_ne_attrs("a", "b").unwrap().len(), 1);
        assert!(e.select_eq_const("nope", &Value::int(0)).is_err());
    }

    #[test]
    fn project_dedups() {
        let e = edges();
        let p = e.project(&["x"]).unwrap();
        assert_eq!(p.len(), 2); // {1, 2}
        assert_eq!(p.attrs(), ["x"]);
        // reorder + check content
        let q = e.project(&["y", "x"]).unwrap();
        assert!(q.contains(&tuple![2, 1]));
    }

    #[test]
    fn project_onto_ignores_foreign_names() {
        let e = edges();
        let p = e.project_onto(&["y".into(), "zz".into()]);
        assert_eq!(p.attrs(), ["y"]);
    }

    #[test]
    fn hash_join_path_query() {
        // E(x,y) ⋈ E(y,z): paths of length 2
        let e = edges();
        let e2 = e
            .rename(&HashMap::from([
                ("x".into(), "y".into()),
                ("y".into(), "z".into()),
            ]))
            .unwrap();
        let j = e.natural_join(&e2).unwrap();
        assert_eq!(j.attrs(), ["x", "y", "z"]);
        assert_eq!(j.len(), 1);
        assert!(j.contains(&tuple![1, 2, 3]));
    }

    #[test]
    fn join_with_no_shared_attrs_is_product() {
        let a = Relation::with_tuples(["a"], [tuple![1], tuple![2]]).unwrap();
        let b = Relation::with_tuples(["b"], [tuple![10], tuple![20]]).unwrap();
        let p = a.product(&b).unwrap();
        assert_eq!(p.len(), 4);
        assert!(a.product(&a).is_err());
    }

    #[test]
    fn semijoin_and_antijoin_partition() {
        let e = edges();
        let pick = Relation::with_tuples(["y"], [tuple![2]]).unwrap();
        let semi = e.semijoin(&pick);
        let anti = e.antijoin(&pick);
        assert_eq!(semi.len(), 1);
        assert!(semi.contains(&tuple![1, 2]));
        assert_eq!(anti.len(), 2);
        assert_eq!(semi.len() + anti.len(), e.len());
    }

    #[test]
    fn set_operations() {
        let a = Relation::with_tuples(["x"], [tuple![1], tuple![2]]).unwrap();
        let b = Relation::with_tuples(["x"], [tuple![2], tuple![3]]).unwrap();
        assert_eq!(a.union(&b).unwrap().len(), 3);
        assert_eq!(a.intersect(&b).unwrap().len(), 1);
        assert_eq!(a.difference(&b).unwrap().len(), 1);
        let c = Relation::new(["y"]).unwrap();
        assert!(a.union(&c).is_err());
    }

    #[test]
    fn rename_detects_collisions() {
        let e = edges();
        let bad = HashMap::from([("x".into(), "y".into())]);
        assert!(e.rename(&bad).is_err());
    }
}
