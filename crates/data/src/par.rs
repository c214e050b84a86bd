//! Parallel relational kernels: hash-partitioned ⋈ and morsel-chunked ⋉
//! scheduled on a [`pq_exec::Pool`].
//!
//! # Determinism contract
//!
//! Both kernels produce the **same relation at any thread count**, because
//! the work decomposition is fixed before any thread runs and the partial
//! results are merged in decomposition order (what `pq-exec` guarantees):
//!
//! * [`Relation::par_natural_join`] partitions *both* sides into a fixed
//!   number of buckets ([`JOIN_PARTITIONS`], independent of the pool's
//!   degree) by a deterministic hash of the join key, joins bucket `i` of
//!   the left against bucket `i` of the right, and concatenates the bucket
//!   outputs in bucket order. Equal join keys land in equal buckets, so no
//!   output tuple can arise in two buckets; the result *set* equals the
//!   serial join's, though the insertion order is bucket-major rather than
//!   left-scan order.
//! * [`Relation::par_semijoin`] builds the key set once, splits the left
//!   rows into contiguous morsels, filters each morsel, and concatenates in
//!   morsel order — **byte-identical** to the serial semijoin, including
//!   insertion order, at every degree.
//!
//! The hash used for bucketing is `DefaultHasher` with its default keys —
//! fixed within a build — rather than the `RandomState` that seeds the
//! standard library's hash *maps*; a randomly seeded bucketing would still
//! be thread-count independent but would shuffle insertion order from run
//! to run.

use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use pq_exec::Pool;

use crate::algebra::join_plan;
use crate::error::Result;
use crate::relation::Relation;
use crate::tuple::Tuple;

/// Number of hash buckets for the partitioned join. A constant (not derived
/// from the pool degree) so the decomposition — and with it the output — is
/// identical at any thread count; 32 buckets keep a pool of up to ~16
/// workers busy with claim-based scheduling absorbing skew.
pub const JOIN_PARTITIONS: usize = 32;

/// Deterministic bucket index for a tuple's join-key columns.
fn bucket(t: &Tuple, key: &[usize], buckets: usize) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for &i in key {
        t[i].hash(&mut h);
    }
    (h.finish() as usize) % buckets
}

impl Relation {
    /// Natural join ⋈ evaluated as a hash-partitioned parallel join on
    /// `pool`. Same result set as [`Relation::natural_join`] at any thread
    /// count (see the module docs for the order caveat).
    ///
    /// With no shared attributes the join degenerates to a Cartesian
    /// product, which has a single "partition" — that case (and a degree-1
    /// pool) falls back to the serial kernel.
    pub fn par_natural_join(&self, right: &Relation, pool: &Pool) -> Result<Relation> {
        if pool.threads() <= 1 {
            return self.natural_join(right);
        }
        let plan = join_plan(self, right);
        if plan.left_key.is_empty() {
            return self.natural_join(right);
        }
        let mut lparts: Vec<Vec<&Tuple>> = (0..JOIN_PARTITIONS).map(|_| Vec::new()).collect();
        let mut rparts: Vec<Vec<&Tuple>> = (0..JOIN_PARTITIONS).map(|_| Vec::new()).collect();
        for t in self.iter() {
            lparts[bucket(t, &plan.left_key, JOIN_PARTITIONS)].push(t);
        }
        for t in right.iter() {
            rparts[bucket(t, &plan.right_key, JOIN_PARTITIONS)].push(t);
        }
        let pairs: Vec<(Vec<&Tuple>, Vec<&Tuple>)> = lparts.into_iter().zip(rparts).collect();
        let parts: Vec<Vec<Tuple>> = pool.run(&pairs, |_, (ls, rs)| {
            // Build on the right, probe with the left — the serial kernel's
            // shape, restricted to one bucket.
            let mut table: std::collections::HashMap<Tuple, Vec<&Tuple>> =
                std::collections::HashMap::new();
            for rt in rs {
                table
                    .entry(rt.project(&plan.right_key))
                    .or_default()
                    .push(rt);
            }
            let mut out = Vec::new();
            for lt in ls {
                if let Some(matches) = table.get(&lt.project(&plan.left_key)) {
                    for rt in matches {
                        let extra = plan.right_rest.iter().map(|&j| rt[j].clone());
                        out.push(lt.extend_with(extra));
                    }
                }
            }
            out
        });
        let mut out = Relation::new(plan.out_attrs.iter().cloned())?;
        for part in parts {
            for t in part {
                out.insert(t).expect("join arity matches");
            }
        }
        Ok(out)
    }

    /// Semijoin ⋉ evaluated by filtering contiguous morsels of `self` in
    /// parallel against a shared key set. Byte-identical to
    /// [`Relation::semijoin`] — same tuples in the same insertion order —
    /// at any thread count.
    pub fn par_semijoin(&self, right: &Relation, pool: &Pool) -> Relation {
        if pool.threads() <= 1 {
            return self.semijoin(right);
        }
        let plan = join_plan(self, right);
        let keys: HashSet<Tuple> = right.iter().map(|t| t.project(&plan.right_key)).collect();
        let rows: Vec<&Tuple> = self.iter().collect();
        let ranges = pq_exec::morsels(rows.len(), pool.threads() * 4);
        let parts: Vec<Vec<&Tuple>> = pool.run(&ranges, |_, r| {
            rows[r.clone()]
                .iter()
                .filter(|t| keys.contains(&t.project(&plan.left_key)))
                .copied()
                .collect()
        });
        let mut out = Relation::new(self.attrs().iter().cloned())
            .expect("header of an existing relation is valid");
        for part in parts {
            for t in part {
                out.insert(t.clone()).expect("same arity");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use crate::value::Value;

    /// A relation with skewed join keys: many tuples share key 0.
    fn skewed(n: i64, name_a: &str, name_b: &str) -> Relation {
        let mut r = Relation::new([name_a.to_string(), name_b.to_string()]).unwrap();
        for i in 0..n {
            let key = if i % 3 == 0 { 0 } else { i % 17 };
            r.insert(tuple![key, i]).unwrap();
            r.insert(Tuple::new([Value::int(i % 11), Value::int(-i)]))
                .unwrap();
        }
        r
    }

    #[test]
    fn par_join_matches_serial_at_every_degree() {
        let l = skewed(200, "k", "a");
        let r = skewed(150, "k", "b");
        let serial = l.natural_join(&r).unwrap();
        for t in [1, 2, 8] {
            let got = l.par_natural_join(&r, &Pool::new(t)).unwrap();
            assert_eq!(got, serial, "degree {t}");
        }
        // And the decomposition itself is degree-independent: identical
        // insertion order between two parallel degrees.
        let a = l.par_natural_join(&r, &Pool::new(2)).unwrap();
        let b = l.par_natural_join(&r, &Pool::new(8)).unwrap();
        assert_eq!(
            a.iter().collect::<Vec<_>>(),
            b.iter().collect::<Vec<_>>(),
            "bucket-major order is fixed"
        );
    }

    #[test]
    fn par_join_without_shared_attrs_is_product() {
        let a = Relation::with_tuples(["a"], [tuple![1], tuple![2]]).unwrap();
        let b = Relation::with_tuples(["b"], [tuple![10], tuple![20]]).unwrap();
        let got = a.par_natural_join(&b, &Pool::new(4)).unwrap();
        assert_eq!(got, a.natural_join(&b).unwrap());
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn par_semijoin_is_byte_identical_to_serial() {
        let l = skewed(300, "k", "a");
        let keys = Relation::with_tuples(["k"], (0..5).map(|i| tuple![i])).unwrap();
        let serial = l.semijoin(&keys);
        for t in [1, 2, 8] {
            let got = l.par_semijoin(&keys, &Pool::new(t));
            assert_eq!(got, serial, "degree {t}: set equality");
            assert_eq!(
                got.iter().collect::<Vec<_>>(),
                serial.iter().collect::<Vec<_>>(),
                "degree {t}: insertion order too"
            );
        }
    }

    #[test]
    fn par_kernels_handle_empty_inputs() {
        let e = Relation::new(["x", "y"]).unwrap();
        let pool = Pool::new(4);
        assert_eq!(e.par_natural_join(&e, &pool).unwrap().len(), 0);
        assert_eq!(e.par_semijoin(&e, &pool).len(), 0);
    }
}
