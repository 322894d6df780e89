//! Allocation budget of the IND chase step.
//!
//! One IND step should allocate only the new conjunct's two row vectors
//! (its terms and its interned symbols); everything else — NDV names,
//! posting lists of fresh symbols, witness and FD probes — must cost no
//! heap allocation, apart from the amortized growth of the chase's
//! vectors and maps. This binary counts every allocation through a
//! counting global allocator and checks the amortized count per step on
//! long chases. It is deterministic: it counts, it does not time.
//!
//! The binary holds one test, so no other test thread allocates while
//! it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use cqchase_core::chase::{Chase, ChaseBudget, ChaseMode};
use cqchase_ir::parse_program;

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: defers every call to the system allocator unchanged; only
// counts allocations and reallocations on the side.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// IND scheduling steps per chase.
const STEPS: usize = 20_000;
/// Most allocations one IND step may cost, amortized.
const BUDGET_PER_STEP: f64 = 3.0;

/// `(name, program, mode)`: a cyclic width-1 IND, the key-based Σ and
/// the Figure 1 Σ, each an infinite chase.
const CHASES: &[(&str, &str, ChaseMode)] = &[
    (
        "cyclic width-1",
        "relation R(a, b). ind R[2] <= R[1]. Q(x) :- R(x, y).",
        ChaseMode::Required,
    ),
    (
        "key-based",
        "relation R(a, b, c). relation S(d, e).
         fd R: a -> b. fd R: a -> c. fd S: d -> e.
         ind R[2] <= S[1]. ind S[2] <= R[1].
         Q(v0) :- R(v0, v1, v2), S(v1, v3).",
        ChaseMode::Required,
    ),
    (
        "Figure 1",
        "relation R(a, b, c). relation S(x, y, z). relation T(u, v).
         ind R[1] <= T[1]. ind R[1, 3] <= S[1, 2]. ind S[1, 3] <= R[1, 2].
         Q(c) :- R(a, b, c).",
        ChaseMode::Oblivious,
    ),
];

#[test]
fn ind_step_allocates_at_most_budget() {
    let mut per_step = Vec::new();
    for &(name, src, mode) in CHASES {
        let p = parse_program(src).expect("chase program parses");
        let before = ALLOCS.load(Ordering::Relaxed);
        let mut ch = Chase::new(&p.queries[0], &p.deps, &p.catalog, mode);
        ch.run_to_completion(ChaseBudget {
            max_steps: STEPS,
            max_conjuncts: 4 * STEPS,
        });
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(ch.steps(), STEPS, "{name}: the chase is infinite");
        per_step.push((name, allocs as f64 / STEPS as f64));
    }
    println!("allocations per IND step: {per_step:?}");
    for &(name, n) in &per_step {
        assert!(
            n <= BUDGET_PER_STEP,
            "{name}: {n:.2} allocations per IND step, budget {BUDGET_PER_STEP}"
        );
    }
}
