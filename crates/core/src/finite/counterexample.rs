//! The paper's Section 4 counterexample separating `⊆f` from `⊆∞`.
//!
//! > *Consider the set Σ consisting of the FD `R: {2} → 1` and the IND
//! > `R[2] ⊆ R[1]`. The following two conjunctive queries are equivalent
//! > for all finite databases obeying Σ but not for all infinite ones:*
//! >
//! > *`Q₁ = {(x) : (∃y) R(x, y)}`*
//! > *`Q₂ = {(x) : (∃y)(∃y′) (R(x, y) & R(y′, x))}`*
//!
//! Intuitively: in a *finite* Σ-database, column 2's values sit inside
//! column 1's, and the FD makes the column-2 → column-1 pairing
//! injective, so counting forces every column-1 value to also appear in
//! column 2 — hence every `x` with an outgoing edge also has an incoming
//! one. On infinite databases the counting argument dies (an infinite
//! forward chain satisfies Σ), and indeed the chase of `Q₁` never
//! produces a conjunct `R(·, x)`.

use cqchase_ir::{parse_program, Catalog, ConjunctiveQuery, DependencySet};

/// The fully constructed counterexample.
#[derive(Debug, Clone)]
pub struct Section4Example {
    /// Catalog with the single binary relation `R(a, b)`.
    pub catalog: Catalog,
    /// Σ = {R: b → a, R\[b\] ⊆ R\[a\]} (the paper's `R: {2} → 1`, `R[2] ⊆ R[1]`).
    pub sigma: DependencySet,
    /// `Q1(x) :- R(x, y)`.
    pub q1: ConjunctiveQuery,
    /// `Q2(x) :- R(x, y), R(yp, x)`.
    pub q2: ConjunctiveQuery,
}

/// Builds the Section 4 example.
pub fn section4_example() -> Section4Example {
    let p = parse_program(
        "relation R(a, b).
         fd R: 2 -> 1.
         ind R[2] <= R[1].
         Q1(x) :- R(x, y).
         Q2(x) :- R(x, y), R(yp, x).",
    )
    .expect("the example is well-formed");
    Section4Example {
        q1: p.query("Q1").expect("declared").clone(),
        q2: p.query("Q2").expect("declared").clone(),
        catalog: p.catalog,
        sigma: p.deps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::{contained, ContainmentOptions};
    use crate::finite::empirical::finite_contained_exhaustive;

    #[test]
    fn q2_infinitely_contained_in_q1() {
        // The easy direction holds outright (drop the second conjunct).
        let ex = section4_example();
        let a = contained(
            &ex.q2,
            &ex.q1,
            &ex.sigma,
            &ex.catalog,
            &ContainmentOptions::default(),
        )
        .unwrap();
        assert!(a.contained && a.exact);
    }

    #[test]
    fn q1_not_infinitely_contained_in_q2() {
        // The chase of Q1 never creates R(·, x): no homomorphism, ever.
        // Σ is Mixed so the negative is a semi-decision — but the deeper
        // we chase the stronger the evidence; the structure (x never in
        // column 2 of any conjunct) is also checked directly.
        let ex = section4_example();
        let a = contained(
            &ex.q1,
            &ex.q2,
            &ex.sigma,
            &ex.catalog,
            &ContainmentOptions::default(),
        )
        .unwrap();
        assert!(!a.contained);
    }

    #[test]
    fn x_never_occurs_in_second_column_of_chase() {
        use crate::chase::{CTerm, Chase, ChaseBudget, ChaseMode};
        let ex = section4_example();
        let mut ch = Chase::new(&ex.q1, &ex.sigma, &ex.catalog, ChaseMode::Required);
        ch.expand_to_level(30, ChaseBudget::default());
        let x = ex.q1.vars.resolve("x").unwrap();
        // Find the chase symbol for x (the single DV: ordinal 0).
        let st = ch.state();
        assert_eq!(st.var_name(crate::chase::CVar(0)), "x");
        let _ = x;
        for (_, c) in st.alive_conjuncts() {
            assert_ne!(
                c.terms[1],
                CTerm::Var(crate::chase::CVar(0)),
                "x must never appear in column 2"
            );
        }
    }

    #[test]
    fn finite_containment_holds_exhaustively_domain_3() {
        let ex = section4_example();
        let rep = finite_contained_exhaustive(&ex.q1, &ex.q2, &ex.sigma, &ex.catalog, 3)
            .expect("3×3 = 9 cells is enumerable");
        assert_eq!(rep.instances_total, 512);
        assert!(rep.instances_satisfying > 0);
        assert!(
            rep.holds(),
            "Q1 ⊆f Q2 must hold on every finite Σ-instance; counterexample: {:?}",
            rep.counterexample.map(|d| d.to_string())
        );
    }

    #[test]
    fn finite_containment_fails_without_the_fd() {
        // Dropping the FD breaks the counting argument: a 2-element
        // "forward only" instance… actually with only the IND, values in
        // column 2 appear in column 1 but nothing forces incoming edges
        // onto x. Verify a finite witness exists.
        let p = parse_program(
            "relation R(a, b).
             ind R[2] <= R[1].
             Q1(x) :- R(x, y).
             Q2(x) :- R(x, y), R(yp, x).",
        )
        .unwrap();
        let rep = finite_contained_exhaustive(
            p.query("Q1").unwrap(),
            p.query("Q2").unwrap(),
            &p.deps,
            &p.catalog,
            3,
        )
        .unwrap();
        assert!(!rep.holds(), "without the FD the containment is refutable");
    }

    #[test]
    fn finite_containment_fails_without_the_ind() {
        let p = parse_program(
            "relation R(a, b).
             fd R: 2 -> 1.
             Q1(x) :- R(x, y).
             Q2(x) :- R(x, y), R(yp, x).",
        )
        .unwrap();
        let rep = finite_contained_exhaustive(
            p.query("Q1").unwrap(),
            p.query("Q2").unwrap(),
            &p.deps,
            &p.catalog,
            2,
        )
        .unwrap();
        assert!(!rep.holds());
    }
}
