//! Named-attribute relations (sets of tuples).
//!
//! A [`Relation`] is a *set*: inserting a duplicate tuple is a no-op. Tuples
//! are kept in insertion order so evaluation results are deterministic, with
//! a hash index for O(1) membership.
//!
//! A relation is a header over a shared row set: [`Clone`] and
//! [`Relation::with_attrs`] (ρ) copy the attribute names and share the rows,
//! so they cost O(arity). A write that changes something copies the rows
//! first if another relation still reads them (copy-on-write); a write that
//! changes nothing copies nothing.

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use crate::error::{DataError, Result};
use crate::tuple::Tuple;
use crate::value::Value;

/// A relation: a header of distinct attribute names plus a set of tuples of
/// matching arity.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    attrs: Vec<String>,
    body: Arc<Rows>,
}

/// The row set behind one or more relation headers: the tuples in insertion
/// order plus a hash index over them.
#[derive(Debug, Clone, Default)]
struct Rows {
    rows: Vec<Tuple>,
    seen: HashSet<Tuple>,
}

/// The header as owned names, or [`DataError::DuplicateAttribute`] when a
/// name repeats.
fn distinct_attrs(attrs: impl IntoIterator<Item = impl Into<String>>) -> Result<Vec<String>> {
    let attrs: Vec<String> = attrs.into_iter().map(Into::into).collect();
    let mut set = HashSet::with_capacity(attrs.len());
    for a in &attrs {
        if !set.insert(a.as_str()) {
            return Err(DataError::DuplicateAttribute(a.clone()));
        }
    }
    Ok(attrs)
}

impl Relation {
    /// An empty relation over the given attribute names.
    ///
    /// # Errors
    /// [`DataError::DuplicateAttribute`] when a name repeats.
    pub fn new(attrs: impl IntoIterator<Item = impl Into<String>>) -> Result<Self> {
        Ok(Relation {
            attrs: distinct_attrs(attrs)?,
            body: Arc::default(),
        })
    }

    /// The same rows under a new header, column for column: ρ by position.
    /// The rows are shared, not copied, so this costs O(arity).
    ///
    /// # Errors
    /// [`DataError::ArityMismatch`] when the header has a different number of
    /// names; [`DataError::DuplicateAttribute`] when a name repeats.
    pub fn with_attrs(&self, attrs: impl IntoIterator<Item = impl Into<String>>) -> Result<Self> {
        let attrs = distinct_attrs(attrs)?;
        if attrs.len() != self.arity() {
            return Err(DataError::ArityMismatch {
                expected: self.arity(),
                found: attrs.len(),
            });
        }
        Ok(Relation {
            attrs,
            body: Arc::clone(&self.body),
        })
    }

    /// Build a relation and populate it in one call.
    pub fn with_tuples(
        attrs: impl IntoIterator<Item = impl Into<String>>,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<Self> {
        let mut r = Relation::new(attrs)?;
        for t in tuples {
            r.insert(t)?;
        }
        Ok(r)
    }

    /// The header (attribute names, in column order).
    pub fn attrs(&self) -> &[String] {
        &self.attrs
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Number of (distinct) tuples.
    pub fn len(&self) -> usize {
        self.body.rows.len()
    }

    /// True when the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.body.rows.is_empty()
    }

    /// Column position of attribute `name`.
    pub fn attr_pos(&self, name: &str) -> Option<usize> {
        self.attrs.iter().position(|a| a == name)
    }

    /// Column position of attribute `name`, as an error-carrying lookup.
    pub fn attr_pos_checked(&self, name: &str) -> Result<usize> {
        self.attr_pos(name)
            .ok_or_else(|| DataError::UnknownAttribute {
                attr: name.to_string(),
                header: self.attrs.clone(),
            })
    }

    /// Insert a tuple. Returns `true` if it was new.
    ///
    /// # Errors
    /// [`DataError::ArityMismatch`] when the tuple arity differs from the
    /// header arity.
    pub fn insert(&mut self, t: Tuple) -> Result<bool> {
        if t.arity() != self.attrs.len() {
            return Err(DataError::ArityMismatch {
                expected: self.attrs.len(),
                found: t.arity(),
            });
        }
        // Shared rows are copied only for a tuple that is new; unshared rows
        // take the one hash probe of `seen.insert`.
        if Arc::strong_count(&self.body) > 1 && self.contains(&t) {
            return Ok(false);
        }
        let body = Arc::make_mut(&mut self.body);
        if body.seen.insert(t.clone()) {
            body.rows.push(t);
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.body.seen.contains(t)
    }

    /// Iterate over tuples in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, Tuple> {
        self.body.rows.iter()
    }

    /// The tuples as a slice (insertion order).
    pub fn tuples(&self) -> &[Tuple] {
        &self.body.rows
    }

    /// All values appearing anywhere in the relation.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.iter().flat_map(|t| t.iter())
    }

    /// Remove one tuple. Returns `true` if it was present. O(len) — the
    /// insertion-order list must be kept consistent; batch removals should
    /// prefer [`Relation::retain`] (one pass).
    pub fn remove(&mut self, t: &Tuple) -> bool {
        if !self.contains(t) {
            return false;
        }
        let body = Arc::make_mut(&mut self.body);
        body.seen.remove(t);
        let pos = body
            .rows
            .iter()
            .position(|r| r == t)
            .expect("seen and rows agree");
        body.rows.remove(pos);
        true
    }

    /// Keep only tuples satisfying `pred`, in place. The rows are unshared
    /// only if some tuple fails `pred`.
    pub fn retain(&mut self, mut pred: impl FnMut(&Tuple) -> bool) {
        let Some(first) = self.iter().position(|t| !pred(t)) else {
            return;
        };
        // `pred` has seen the rows up to `first`, which it rejected; resume
        // after it, so it still sees each row once and in order.
        let body = Arc::make_mut(&mut self.body);
        let mut tail = body.rows.split_off(first).into_iter();
        body.seen.remove(&tail.next().expect("row `first` exists"));
        for t in tail {
            if pred(&t) {
                body.rows.push(t);
            } else {
                body.seen.remove(&t);
            }
        }
    }

    /// A canonical, order-independent fingerprint: the sorted tuple list.
    /// Two relations with the same header are equal as sets iff their
    /// canonical rows agree.
    pub fn canonical_rows(&self) -> Vec<Tuple> {
        let mut v = self.body.rows.clone();
        v.sort();
        v
    }

    /// Set equality (ignores insertion order), requiring identical headers.
    pub fn set_eq(&self, other: &Relation) -> bool {
        self.attrs == other.attrs
            && self.len() == other.len()
            && self.iter().all(|t| other.contains(t))
    }

    /// True when `self` and `other` read one row set (no copy between them).
    #[cfg(test)]
    pub(crate) fn shares_rows_with(&self, other: &Relation) -> bool {
        Arc::ptr_eq(&self.body, &other.body)
    }
}

impl PartialEq for Relation {
    /// Equality is *set* equality over identical headers.
    fn eq(&self, other: &Self) -> bool {
        self.set_eq(other)
    }
}
impl Eq for Relation {}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "({})", self.attrs.join(", "))?;
        for t in self {
            writeln!(f, "  {t}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Relation {
    type Item = &'a Tuple;
    type IntoIter = std::slice::Iter<'a, Tuple>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn r2() -> Relation {
        Relation::with_tuples(["a", "b"], [tuple![1, 2], tuple![3, 4]]).unwrap()
    }

    #[test]
    fn new_rejects_duplicate_attrs() {
        assert_eq!(
            Relation::new(["x", "x"]).unwrap_err(),
            DataError::DuplicateAttribute("x".into())
        );
    }

    #[test]
    fn insert_dedups_and_checks_arity() {
        let mut r = r2();
        assert!(!r.insert(tuple![1, 2]).unwrap());
        assert!(r.insert(tuple![5, 6]).unwrap());
        assert_eq!(r.len(), 3);
        assert_eq!(
            r.insert(tuple![1]).unwrap_err(),
            DataError::ArityMismatch {
                expected: 2,
                found: 1
            }
        );
    }

    #[test]
    fn membership_and_iteration_order() {
        let r = r2();
        assert!(r.contains(&tuple![1, 2]));
        assert!(!r.contains(&tuple![2, 1]));
        let rows: Vec<_> = r.iter().cloned().collect();
        assert_eq!(rows, vec![tuple![1, 2], tuple![3, 4]]);
    }

    #[test]
    fn attr_lookup() {
        let r = r2();
        assert_eq!(r.attr_pos("b"), Some(1));
        assert!(r.attr_pos_checked("z").is_err());
    }

    #[test]
    fn set_equality_ignores_order() {
        let a = Relation::with_tuples(["a", "b"], [tuple![1, 2], tuple![3, 4]]).unwrap();
        let b = Relation::with_tuples(["a", "b"], [tuple![3, 4], tuple![1, 2]]).unwrap();
        assert_eq!(a, b);
        let c = Relation::with_tuples(["a", "c"], [tuple![1, 2], tuple![3, 4]]).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn remove_keeps_index_and_order_consistent() {
        let mut r = Relation::with_tuples(["a"], [tuple![1], tuple![2], tuple![3]]).unwrap();
        assert!(r.remove(&tuple![2]));
        assert!(!r.remove(&tuple![2]));
        assert!(!r.remove(&tuple![9]));
        let rows: Vec<_> = r.iter().cloned().collect();
        assert_eq!(rows, vec![tuple![1], tuple![3]]);
        // reinsert previously removed tuple must succeed as new
        assert!(r.insert(tuple![2]).unwrap());
    }

    #[test]
    fn with_attrs_renames_by_position_and_shares_rows() {
        let r = r2();
        let s = r.with_attrs(["x", "y"]).unwrap();
        assert_eq!(s.attrs(), ["x", "y"]);
        assert_eq!(s.tuples(), r.tuples());
        assert!(s.shares_rows_with(&r));
        assert_eq!(
            r.with_attrs(["x"]).unwrap_err(),
            DataError::ArityMismatch {
                expected: 2,
                found: 1
            }
        );
        assert_eq!(
            r.with_attrs(["x", "x"]).unwrap_err(),
            DataError::DuplicateAttribute("x".into())
        );
    }

    /// Every mutator, applied to either side of a shared pair (a clone or a
    /// `with_attrs` copy), changes that side only.
    #[test]
    fn writes_copy_on_write_in_both_directions() {
        type Write = fn(&mut Relation);
        type Share = fn(&Relation) -> Relation;
        let writes: [(&str, Write); 3] = [
            ("insert", |r| assert!(r.insert(tuple![5, 6]).unwrap())),
            ("remove", |r| assert!(r.remove(&tuple![1, 2]))),
            ("retain", |r| r.retain(|t| t[0] == Value::int(1))),
        ];
        let share: [(&str, Share); 2] = [
            ("clone", Relation::clone),
            ("with_attrs", |r| r.with_attrs(["x", "y"]).unwrap()),
        ];
        for (wname, write) in writes {
            for (sname, copy) in share {
                let orig = r2();
                let mut changed = copy(&orig);
                write(&mut changed);
                assert!(!changed.shares_rows_with(&orig), "{wname} on {sname}");
                assert_eq!(orig, r2(), "{wname} on the {sname} moved the source");

                let mut orig = r2();
                let copied = copy(&orig);
                write(&mut orig);
                assert!(!copied.shares_rows_with(&orig), "{wname} under {sname}");
                assert_eq!(
                    copied.canonical_rows(),
                    r2().canonical_rows(),
                    "{wname} on the source moved the {sname}"
                );
            }
        }
    }

    #[test]
    fn no_op_writes_keep_rows_shared() {
        let r = r2();
        let mut s = r.with_attrs(["x", "y"]).unwrap();
        assert!(!s.insert(tuple![1, 2]).unwrap());
        assert!(!s.remove(&tuple![9, 9]));
        s.retain(|_| true);
        assert!(s.shares_rows_with(&r));
    }

    #[test]
    fn retain_sees_each_row_once_in_order() {
        let mut r = Relation::with_tuples(["a"], (1..=5).map(|i| tuple![i])).unwrap();
        let mut seen = Vec::new();
        r.retain(|t| {
            seen.push(t.clone());
            t[0] != Value::int(2) && t[0] != Value::int(4)
        });
        assert_eq!(seen, (1..=5).map(|i| tuple![i]).collect::<Vec<_>>());
        assert_eq!(r.tuples(), [tuple![1], tuple![3], tuple![5]]);
        assert!(!r.contains(&tuple![4]));
    }

    #[test]
    fn retain_keeps_index_consistent() {
        let mut r = r2();
        r.retain(|t| t[0] == Value::int(1));
        assert_eq!(r.len(), 1);
        assert!(r.contains(&tuple![1, 2]));
        assert!(!r.contains(&tuple![3, 4]));
        // reinsert previously removed tuple must succeed as new
        assert!(r.insert(tuple![3, 4]).unwrap());
    }
}
