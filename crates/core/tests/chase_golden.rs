//! Golden rendering of whole chases: every conjunct (live and dead) with
//! its terms, NDV names, level and merge link, every arc with its kind,
//! every symbol name, the summary row, `steps` and `fd_steps`.
//!
//! The fixture pins the chase byte for byte, so any change to the
//! chase's internals that alters conjunct order, names, levels, arcs or
//! step counts shows up as a diff. On a mismatch the actual rendering is
//! written to Cargo's temporary directory for integration tests
//! (`CARGO_TARGET_TMPDIR`) and the panic message names the file; copy it
//! over the fixture only when the chase is meant to change.

use std::fmt::Write as _;

use cqchase_core::chase::{ArcKind, CTerm, CVar, Chase, ChaseBudget, ChaseMode, ChaseState};
use cqchase_ir::parse_program;

const FIXTURE: &str = include_str!("fixtures/chase_golden.txt");

/// The key-based Σ of the loopback benchmark's `check_cold` workload.
const KEY_BASED: &str = "relation R(a, b, c). relation S(d, e).
    fd R: a -> b. fd R: a -> c. fd S: d -> e.
    ind R[2] <= S[1]. ind S[2] <= R[1].";

/// The IND-only Σ of the paper's Figure 1.
const FIGURE1: &str = "relation R(a, b, c). relation S(x, y, z). relation T(u, v).
    ind R[1] <= T[1]. ind R[1, 3] <= S[1, 2]. ind S[1, 3] <= R[1, 2].";

/// The Σ of the paper's Section 4 (finite and infinite containment
/// differ).
const SECTION4: &str = "relation R(a, b). fd R: 2 -> 1. ind R[2] <= R[1].";

/// A mixed Σ whose FD merges follow IND steps.
const MIXED: &str = "relation R(a, b). relation S(a, b).
    fd R: a -> b. fd S: a -> b.
    ind R[2] <= S[1]. ind S[1] <= R[1]. ind S[2] <= R[2].";

/// A cyclic width-1 IND with an FD that merges every O-chase child.
const CYCLIC_FD: &str = "relation R(a, b). fd R: a -> b. ind R[2] <= R[1].";

/// An FD constant clash reached only after an IND step.
const CLASH: &str = "relation R(a, b). relation S(a, b).
    fd S: a -> b. ind R[1, 2] <= S[1, 2].";

/// `(case name, Σ, query, level)`; every case is chased in both modes.
const CASES: &[(&str, &str, &str, u32)] = &[
    (
        "keys/path",
        KEY_BASED,
        "Q(v0) :- R(v0, v1, v2), S(v1, v3).",
        6,
    ),
    (
        "keys/shared",
        KEY_BASED,
        "Q(v0) :- R(v0, v1, v2), R(v3, v1, v4), S(v2, v0).",
        6,
    ),
    (
        "keys/self",
        KEY_BASED,
        "Q(v0) :- R(v0, v0, v1), S(v1, v1).",
        6,
    ),
    ("figure1/q", FIGURE1, "Q(c) :- R(a, b, c).", 4),
    (
        "figure1/pair",
        FIGURE1,
        "Q(c) :- R(a, b, c), S(a, c, d), T(a, e).",
        3,
    ),
    ("section4/q1", SECTION4, "Q1(x) :- R(x, y).", 6),
    ("section4/q2", SECTION4, "Q2(x) :- R(x, y), R(yp, x).", 6),
    (
        "mixed/merge",
        MIXED,
        "Q(x) :- R(x, y), R(x, z), S(y, w).",
        4,
    ),
    (
        "mixed/triangle",
        MIXED,
        "Q(x, y) :- R(x, y), S(y, z), R(z, x).",
        4,
    ),
    (
        "cyclic_fd/triangle",
        CYCLIC_FD,
        "Q(x) :- R(x, y), R(y, z), R(z, x).",
        5,
    ),
    (
        "cyclic_fd/chain",
        CYCLIC_FD,
        "Q(x) :- R(x, y), R(y, z), R(w, x).",
        5,
    ),
    (
        "mixed/deep",
        MIXED,
        "Q(x) :- R(x, y), R(y, x), S(x, y), S(y, z).",
        6,
    ),
    (
        "dup/atoms",
        SECTION4,
        "Q(x) :- R(x, y), R(x, y), R(y, x).",
        3,
    ),
    ("clash/after_ind", CLASH, "Q(x) :- R(x, 1), S(x, 2).", 3),
    ("clash/at_init", CLASH, "Q(x) :- S(x, 1), S(x, 2).", 3),
];

fn name(st: &ChaseState, v: CVar) -> String {
    st.var_name(v).into_owned()
}

fn term(st: &ChaseState, t: &CTerm) -> String {
    match t {
        CTerm::Const(c) => c.to_string(),
        CTerm::Var(v) => name(st, *v),
    }
}

fn render(case: &str, ch: &Chase, status: &str, level: u32) -> String {
    let st = ch.state();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {case} mode={:?} level={level} status={status}",
        ch.mode()
    );
    let _ = writeln!(
        out,
        "steps={} fd_steps={} failed={} conjuncts={} alive={} vars={} frontier={:?}",
        ch.steps(),
        ch.fd_steps(),
        st.is_failed(),
        st.all_conjuncts().len(),
        st.num_alive(),
        st.num_vars(),
        ch.frontier_level(),
    );
    let summary: Vec<String> = st.summary().iter().map(|t| term(st, t)).collect();
    let _ = writeln!(out, "summary ({})", summary.join(", "));
    let names: Vec<String> = (0..st.num_vars() as u32)
        .map(|v| name(st, CVar(v)))
        .collect();
    let _ = writeln!(out, "symbols {}", names.join(" "));
    for (i, c) in st.all_conjuncts().iter().enumerate() {
        let id = cqchase_core::chase::ConjId(i as u32);
        let fate = match c.merged_into {
            Some(s) => format!(" merged_into={}", s.0),
            None if c.alive => String::new(),
            None => " dead".to_owned(),
        };
        let _ = writeln!(out, "  c{i} L{} {}{fate}", c.level, st.render_conjunct(id));
    }
    for a in st.arcs() {
        let kind = match a.kind {
            ArcKind::Ordinary => "ordinary",
            ArcKind::Cross => "cross",
        };
        let _ = writeln!(
            out,
            "  c{} -IND#{}-> c{} {kind}",
            a.from.0, a.ind_idx, a.to.0
        );
    }
    out
}

fn render_all() -> String {
    let mut out = String::new();
    for &(case, sigma, query, level) in CASES {
        let p = parse_program(&format!("{sigma}\n{query}")).expect("case parses");
        for mode in [ChaseMode::Required, ChaseMode::Oblivious] {
            let mut ch = Chase::new(&p.queries[0], &p.deps, &p.catalog, mode);
            let status = ch.expand_to_level(
                level,
                ChaseBudget {
                    max_steps: 5_000,
                    max_conjuncts: 5_000,
                },
            );
            out.push_str(&render(case, &ch, &format!("{status:?}"), level));
        }
    }
    out
}

#[test]
fn chase_matches_golden_fixture() {
    let actual = render_all();
    if actual != FIXTURE {
        let path =
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("chase_golden.actual.txt");
        std::fs::write(&path, &actual).expect("write the actual rendering");
        let first = actual
            .lines()
            .zip(FIXTURE.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| actual.lines().count().min(FIXTURE.lines().count()));
        panic!(
            "chase rendering differs from tests/fixtures/chase_golden.txt at line {}; \
             actual rendering written to {}",
            first + 1,
            path.display()
        );
    }
}

/// The fixture covers what it claims to: both modes, FD merges after IND
/// steps, cross arcs, and a failed chase.
#[test]
fn fixture_covers_merges_cross_arcs_and_failure() {
    assert!(FIXTURE.contains("mode=Required") && FIXTURE.contains("mode=Oblivious"));
    assert!(FIXTURE.contains("merged_into="));
    assert!(FIXTURE.contains(" cross"));
    assert!(FIXTURE.contains("failed=true"));
}
