//! The Theorem 2 engine: acyclic conjunctive queries with `≠` inequalities,
//! evaluated in fixed-parameter polynomial time by color coding.
//!
//! Pipeline (Section 5 of the paper):
//!
//! 1. [`partition::NeqPartition`] splits the `≠` atoms into `I2` (checkable
//!    locally inside one atom's relation) and `I1` (endpoints never co-occur;
//!    these are what make the combined complexity NP-complete).
//! 2. [`hashing`] supplies hash functions `h : D → {1,…,k}` with `k = |V1|` —
//!    random (`c·e^k` trials) or an explicit k-perfect family.
//! 3. [`algorithms::algorithm1`] tests emptiness of `Q_h(d)` with one
//!    bottom-up pass over a join tree, carrying *hashed* copies of the `V1`
//!    variables (the `Y_j` attribute sets of Lemma 1) and pushing the `I1`
//!    selections down the tree; [`algorithms::algorithm2`] computes `Q_h(d)`
//!    in time polynomial in input + output.
//! 4. [`driver`] unions over the family: `Q(d) = ⋃_{h∈F} Q_h(d)`.

pub mod algorithms;
pub mod driver;
pub mod formula_neq;
pub mod hashing;
pub mod partition;

pub use algorithms::{
    algorithm1, algorithm1_governed, algorithm2, algorithm2_governed, hashed_attr, Prepared,
};
pub use driver::{
    decide, decide_governed, evaluate, evaluate_governed, is_nonempty, is_nonempty_governed,
    ColorCodingOptions,
};
pub use formula_neq::NeqFormula;
pub use hashing::{Coloring, DomainIndex, HashFamily};
pub use partition::NeqPartition;
