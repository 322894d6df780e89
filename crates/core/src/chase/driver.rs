//! The chase driver: deterministic scheduling of FD and IND rule
//! applications, exactly as the paper prescribes.
//!
//! > *The following sequence of two instructions is repeated until there
//! > are no more applicable (required) dependencies:*
//! >
//! > *(1) While there is an applicable FD, choose one as above and apply
//! > it.*
//! >
//! > *(2) If a number of conjuncts have applicable (required) INDs,
//! > choose the lexicographically first from among those such conjuncts
//! > having minimum level, and apply the lexicographically first
//! > applicable (required) IND to it.*
//!
//! "Lexicographically first conjunct" is realized as smallest conjunct id
//! (creation order), and "lexicographically first IND" as Σ declaration
//! order — fixed canonical choices in the spirit of the paper's
//! convention (Maier, Mendelzon & Sagiv show the result is unique up to
//! variable renaming regardless).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cqchase_index::CancelToken;
use cqchase_ir::{Catalog, ConjunctiveQuery, DependencySet, Fd, Ind};

use super::fd::fd_phase;
use super::ind::{apply_ind, record_cross};
use super::state::{ChaseState, ConjId, Merge};

/// Which chase discipline to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChaseMode {
    /// The **O-chase**: every IND is applied (once) to every conjunct it
    /// is applicable to, including redundant applications. The paper uses
    /// this when Σ consists of INDs only.
    Oblivious,
    /// The **R-chase**: an IND is applied to a conjunct only when
    /// *required* (no witnessing conjunct exists); redundancies become
    /// cross arcs. The paper uses this for key-based Σ.
    Required,
}

/// Resource limits for chase expansion. IND chases can be infinite, so
/// every driver entry point takes a budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaseBudget {
    /// Maximum number of scheduling steps (IND applications + witness
    /// skips) across the chase's lifetime.
    pub max_steps: usize,
    /// Maximum number of conjuncts ever created.
    pub max_conjuncts: usize,
}

/// Default cap on IND scheduling steps ([`ChaseBudget::max_steps`]).
///
/// Sized so a cyclic width-1 IND chase (one conjunct per level) can run
/// about a million levels deep before cutting off — far beyond any
/// Theorem 2 bound the test and experiment workloads produce, while
/// still bounding runaway Mixed-class chases to seconds, not hours.
/// Override per call site, or from the experiments CLI via
/// `--max-steps`.
pub const DEFAULT_MAX_STEPS: usize = 1_000_000;

/// Default cap on conjuncts ever created
/// ([`ChaseBudget::max_conjuncts`]).
///
/// Conjuncts dominate chase memory, about 330–440 heap bytes each
/// (allocator-counted on long cyclic width-1, key-based and Figure 1
/// chases), so a quarter million caps a single chase near 110 MB.
/// Override per call site, or from the experiments CLI via `--max-conjuncts`.
pub const DEFAULT_MAX_CONJUNCTS: usize = 250_000;

impl Default for ChaseBudget {
    fn default() -> Self {
        ChaseBudget {
            max_steps: DEFAULT_MAX_STEPS,
            max_conjuncts: DEFAULT_MAX_CONJUNCTS,
        }
    }
}

/// Why a driver call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaseStatus {
    /// No applicable (required) dependencies remain — the chase is finite
    /// and fully constructed.
    Complete,
    /// The FD rule failed on a constant clash: the chase is the *empty
    /// query* (contained in everything).
    Failed,
    /// The requested level was fully built; pending work remains beyond
    /// it.
    LevelReached,
    /// The budget ran out before the target condition was met.
    BudgetExhausted,
    /// The installed [`CancelToken`] fired (deadline or explicit
    /// cancellation). Like [`ChaseStatus::BudgetExhausted`], the state
    /// holds a consistent partial chase and expansion can resume.
    Cancelled,
}

/// A chase in progress (or finished). Construct with [`Chase::new`], grow
/// with [`Chase::run_to_completion`] or [`Chase::expand_to_level`],
/// inspect through [`Chase::state`].
#[derive(Debug)]
pub struct Chase {
    state: ChaseState,
    mode: ChaseMode,
    fds: Vec<Fd>,
    inds: Vec<Ind>,
    /// Conjuncts that still have unprocessed applicable INDs: a min-heap
    /// of (level, id), so the scheduler's min is the paper's choice.
    /// Entries are dropped lazily: one counts only while it matches
    /// `pending_key`, and the top always does.
    pending: BinaryHeap<Reverse<(u32, ConjId)>>,
    /// Pending key currently stored for each conjunct, by id (levels
    /// can shrink on FD merges).
    pending_key: Vec<Option<u32>>,
    /// `processed[id · |inds| + i]`: IND `i` was already handled for
    /// conjunct `id`.
    processed: Vec<bool>,
    steps: usize,
    fd_steps: usize,
    /// Cooperative stop signal, consulted once per scheduling step.
    cancel: Option<CancelToken>,
}

impl Chase {
    /// Initializes the chase: level-0 conjuncts from `q`, then the
    /// initial FD phase (instruction (1) run to quiescence).
    pub fn new(
        q: &ConjunctiveQuery,
        deps: &DependencySet,
        catalog: &Catalog,
        mode: ChaseMode,
    ) -> Chase {
        let mut state = ChaseState::from_query(q, catalog);
        let fds: Vec<Fd> = deps.fds().cloned().collect();
        let inds: Vec<Ind> = deps.inds().cloned().collect();
        let mut fd_steps = 0;
        if let Ok((n, _)) = fd_phase(&mut state, &fds, None) {
            fd_steps = n;
        }
        let mut chase = Chase {
            state,
            mode,
            fds,
            inds,
            pending: BinaryHeap::new(),
            pending_key: Vec::new(),
            processed: Vec::new(),
            steps: 0,
            fd_steps,
            cancel: None,
        };
        for id in 0..chase.state.all_conjuncts().len() as u32 {
            chase.refresh_pending(ConjId(id));
        }
        chase
    }

    /// The chase mode.
    pub fn mode(&self) -> ChaseMode {
        self.mode
    }

    /// Installs (or replaces) a [`CancelToken`] consulted once per
    /// scheduling step — a fired token makes the driver return
    /// [`ChaseStatus::Cancelled`] between steps, never mid-step, so the
    /// partial chase stays consistent and expansion can resume after
    /// re-arming.
    pub fn set_cancel(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Whether the installed token (if any) has fired.
    fn cancel_fired(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::should_stop)
    }

    /// Read access to the current (partial) chase.
    pub fn state(&self) -> &ChaseState {
        &self.state
    }

    /// Total IND scheduling steps taken so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Total FD rule applications so far.
    pub fn fd_steps(&self) -> usize {
        self.fd_steps
    }

    /// Whether the chase has terminated on its own (no pending work).
    pub fn is_complete(&self) -> bool {
        self.state.failed || self.pending.is_empty()
    }

    /// The minimum level with unprocessed conjuncts. All conjuncts with
    /// level ≤ `frontier_level()` already exist; `None` means the chase
    /// is complete (every level of the finite chase is built).
    pub fn frontier_level(&self) -> Option<u32> {
        self.pending.peek().map(|&Reverse((l, _))| l)
    }

    /// The INDs (by index, in Σ order) that apply to conjunct `id` and
    /// have not been handled yet.
    fn unprocessed_inds(&self, id: ConjId) -> impl Iterator<Item = usize> + '_ {
        let rel = self.state.conjunct(id).rel;
        (0..self.inds.len())
            .filter(move |&i| self.inds[i].lhs_rel == rel && !self.is_processed(id, i))
    }

    fn is_processed(&self, id: ConjId, ind_idx: usize) -> bool {
        let at = id.index() * self.inds.len() + ind_idx;
        self.processed.get(at).copied().unwrap_or(false)
    }

    fn mark_processed(&mut self, id: ConjId, ind_idx: usize) {
        let at = id.index() * self.inds.len() + ind_idx;
        if self.processed.len() <= at {
            self.processed.resize(at + 1, false);
        }
        self.processed[at] = true;
    }

    fn refresh_pending(&mut self, id: ConjId) {
        let c = self.state.conjunct(id);
        let key = (c.alive && self.unprocessed_inds(id).next().is_some()).then_some(c.level);
        if self.pending_key.len() <= id.index() {
            self.pending_key.resize(id.index() + 1, None);
        }
        let old = std::mem::replace(&mut self.pending_key[id.index()], key);
        if old != key {
            if let Some(level) = key {
                self.pending.push(Reverse((level, id)));
            }
            while let Some(&Reverse((level, top))) = self.pending.peek() {
                if self.pending_key[top.index()] == Some(level) {
                    break;
                }
                self.pending.pop();
            }
        }
    }

    fn absorb_merges(&mut self, merges: &[Merge]) {
        for m in merges {
            // The survivor has identical terms, so anything witnessed for
            // the dead conjunct is witnessed for the survivor; in O-mode,
            // the merged conjunct *is* one conjunct, so "applied once"
            // transfers too.
            for i in 0..self.inds.len() {
                if self.is_processed(m.dead, i) {
                    self.mark_processed(m.survivor, i);
                }
            }
            // A merge lowers no level but the survivor's, so these two
            // refreshes keep every pending key exact.
            self.refresh_pending(m.dead);
            self.refresh_pending(m.survivor);
        }
    }

    /// Performs one scheduling step: instruction (2) once, followed by
    /// instruction (1) to quiescence. Returns `false` when the chase is
    /// complete or failed.
    fn step_once(&mut self) -> bool {
        if self.state.failed {
            return false;
        }
        let Some(&Reverse((_, id))) = self.pending.peek() else {
            return false;
        };
        let Some(ind_idx) = self.unprocessed_inds(id).next() else {
            self.refresh_pending(id);
            return !self.pending.is_empty();
        };
        self.steps += 1;
        self.mark_processed(id, ind_idx);
        let witness = match self.mode {
            ChaseMode::Oblivious => {
                // The O-chase applies regardless; the only exception is an
                // IND covering every column of S, whose "new" conjunct is
                // term-identical to an existing one — conjunct sets don't
                // duplicate, so record the arc against the existing copy.
                let ind = &self.inds[ind_idx];
                if ind.rhs_cols.len() == self.state.catalog().arity(ind.rhs_rel) {
                    self.state.find_witness(ind, id)
                } else {
                    None
                }
            }
            ChaseMode::Required => self.state.find_witness(&self.inds[ind_idx], id),
        };
        match witness {
            Some(w) => {
                record_cross(&mut self.state, id, w, ind_idx);
            }
            None => {
                let child = apply_ind(&mut self.state, id, &self.inds[ind_idx], ind_idx);
                // Instruction (1): exhaust FDs, which only the new
                // conjunct can have triggered.
                if !self.fds.is_empty() {
                    match fd_phase(&mut self.state, &self.fds, Some(child)) {
                        Ok((n, merges)) => {
                            self.fd_steps += n;
                            self.absorb_merges(&merges);
                        }
                        Err(_) => {
                            return false;
                        }
                    }
                }
                if self.state.conjunct(child).alive {
                    self.refresh_pending(child);
                }
            }
        }
        self.refresh_pending(id);
        true
    }

    /// Runs until the chase completes or the budget is exhausted.
    pub fn run_to_completion(&mut self, budget: ChaseBudget) -> ChaseStatus {
        loop {
            if self.state.failed {
                return ChaseStatus::Failed;
            }
            if self.pending.is_empty() {
                return ChaseStatus::Complete;
            }
            if self.steps >= budget.max_steps
                || self.state.all_conjuncts().len() >= budget.max_conjuncts
            {
                return ChaseStatus::BudgetExhausted;
            }
            if self.cancel_fired() {
                return ChaseStatus::Cancelled;
            }
            self.step_once();
        }
    }

    /// Expands until every conjunct of level ≤ `level` exists (i.e. the
    /// frontier moved past `level − 1`), the chase completes, or the
    /// budget runs out.
    pub fn expand_to_level(&mut self, level: u32, budget: ChaseBudget) -> ChaseStatus {
        loop {
            if self.state.failed {
                return ChaseStatus::Failed;
            }
            match self.frontier_level() {
                None => return ChaseStatus::Complete,
                Some(f) if f >= level => return ChaseStatus::LevelReached,
                Some(_) => {}
            }
            if self.steps >= budget.max_steps
                || self.state.all_conjuncts().len() >= budget.max_conjuncts
            {
                return ChaseStatus::BudgetExhausted;
            }
            if self.cancel_fired() {
                return ChaseStatus::Cancelled;
            }
            self.step_once();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqchase_ir::parse_program;

    fn chase_of(src: &str, mode: ChaseMode) -> Chase {
        let p = parse_program(src).unwrap();
        Chase::new(&p.queries[0], &p.deps, &p.catalog, mode)
    }

    #[test]
    fn acyclic_ind_chase_terminates() {
        let mut ch = chase_of(
            "relation EMP(eno, sal, dept). relation DEP(dno, loc).
             ind EMP[dept] <= DEP[dno].
             Q(e) :- EMP(e, s, d).",
            ChaseMode::Required,
        );
        let status = ch.run_to_completion(ChaseBudget::default());
        assert_eq!(status, ChaseStatus::Complete);
        assert!(ch.is_complete());
        // One new DEP conjunct at level 1.
        assert_eq!(ch.state().num_alive(), 2);
        assert_eq!(ch.state().level_histogram(), vec![1, 1]);
        assert_eq!(ch.steps(), 1);
    }

    #[test]
    fn required_application_skipped_when_witnessed() {
        let mut ch = chase_of(
            "relation EMP(eno, sal, dept). relation DEP(dno, loc).
             ind EMP[dept] <= DEP[dno].
             Q(e) :- EMP(e, s, d), DEP(d, l).",
            ChaseMode::Required,
        );
        let status = ch.run_to_completion(ChaseBudget::default());
        assert_eq!(status, ChaseStatus::Complete);
        // No new conjunct — the DEP atom already witnesses the IND.
        assert_eq!(ch.state().num_alive(), 2);
        // But the cross arc is recorded.
        assert_eq!(ch.state().arcs().len(), 1);
        assert_eq!(
            ch.state().arcs()[0].kind,
            super::super::state::ArcKind::Cross
        );
    }

    #[test]
    fn oblivious_applies_redundantly() {
        let mut ch = chase_of(
            "relation EMP(eno, sal, dept). relation DEP(dno, loc).
             ind EMP[dept] <= DEP[dno].
             Q(e) :- EMP(e, s, d), DEP(d, l).",
            ChaseMode::Oblivious,
        );
        let status = ch.run_to_completion(ChaseBudget::default());
        assert_eq!(status, ChaseStatus::Complete);
        // The O-chase adds DEP(d, n) even though DEP(d, l) exists.
        assert_eq!(ch.state().num_alive(), 3);
    }

    #[test]
    fn cyclic_ind_is_infinite() {
        let mut ch = chase_of(
            "relation R(a, b).
             ind R[2] <= R[1].
             Q(x) :- R(x, y).",
            ChaseMode::Required,
        );
        let status = ch.run_to_completion(ChaseBudget {
            max_steps: 100,
            max_conjuncts: 100,
        });
        assert_eq!(status, ChaseStatus::BudgetExhausted);
        assert!(!ch.is_complete());
        // Each level adds exactly one conjunct: R(x,y) → R(y,n1) → R(n1,n2)…
        let hist = ch.state().level_histogram();
        assert!(hist.iter().all(|&n| n == 1));
        assert!(hist.len() > 10);
    }

    #[test]
    fn expand_to_level_builds_exactly_enough() {
        let mut ch = chase_of(
            "relation R(a, b).
             ind R[2] <= R[1].
             Q(x) :- R(x, y).",
            ChaseMode::Required,
        );
        let status = ch.expand_to_level(5, ChaseBudget::default());
        assert_eq!(status, ChaseStatus::LevelReached);
        assert_eq!(ch.state().max_level(), Some(5));
        assert_eq!(ch.frontier_level(), Some(5));
        // Monotone growth: expanding further keeps earlier levels intact.
        let before: Vec<String> = ch
            .state()
            .alive_conjuncts()
            .map(|(id, _)| ch.state().render_conjunct(id))
            .collect();
        ch.expand_to_level(8, ChaseBudget::default());
        let after: Vec<String> = ch
            .state()
            .alive_conjuncts()
            .map(|(id, _)| ch.state().render_conjunct(id))
            .collect();
        assert_eq!(&after[..before.len()], &before[..]);
        assert_eq!(ch.state().max_level(), Some(8));
    }

    #[test]
    fn fd_failure_during_init() {
        let mut ch = chase_of(
            "relation R(a, b). fd R: a -> b.
             Q(x) :- R(x, 1), R(x, 2).",
            ChaseMode::Required,
        );
        assert!(ch.state().is_failed());
        assert_eq!(
            ch.run_to_completion(ChaseBudget::default()),
            ChaseStatus::Failed
        );
    }

    #[test]
    fn section4_sigma_rchase() {
        // Σ = {R:{2}→1, R[2]⊆R[1]} over Q1(x) :- R(x, y).
        // IND adds R(y, n1); FD (2→1 means col b determines col a) — the
        // new conjunct and nothing else share b-values, so no merge; the
        // chase keeps growing: infinite.
        let mut ch = chase_of(
            "relation R(a, b). fd R: b -> a. ind R[2] <= R[1].
             Q(x) :- R(x, y).",
            ChaseMode::Required,
        );
        let status = ch.run_to_completion(ChaseBudget {
            max_steps: 50,
            max_conjuncts: 50,
        });
        assert_eq!(status, ChaseStatus::BudgetExhausted);
    }

    #[test]
    fn fd_triggered_by_ind_merges() {
        // Key-based-violating mix where an IND child collides with an
        // existing conjunct via the FD: R(x,y) with IND R[1] ⊆ S[1] and
        // FD S: a -> b, plus an existing S(x, z): the created S(x, n)
        // merges with S(x, z) (n is an NDV created later, so z survives).
        let mut ch = chase_of(
            "relation R(a, b). relation S(a, b).
             fd S: a -> b. ind R[1] <= S[1].
             Q(x) :- R(x, y), S(x, z).",
            ChaseMode::Oblivious,
        );
        let status = ch.run_to_completion(ChaseBudget::default());
        assert_eq!(status, ChaseStatus::Complete);
        // The redundant O-chase child merged back into S(x, z).
        assert_eq!(ch.state().num_alive(), 2);
        assert!(ch.fd_steps() >= 1);
    }

    #[test]
    fn full_width_ind_oblivious_dedups_exact() {
        // IND covering all columns of S: the O-chase "new" conjunct is
        // term-identical to the witness; sets of conjuncts don't
        // duplicate.
        let mut ch = chase_of(
            "relation R(a, b). relation S(x, y).
             ind R[1, 2] <= S[1, 2].
             Q(x) :- R(x, y), S(x, y).",
            ChaseMode::Oblivious,
        );
        let status = ch.run_to_completion(ChaseBudget::default());
        assert_eq!(status, ChaseStatus::Complete);
        assert_eq!(ch.state().num_alive(), 2);
    }

    #[test]
    fn cancelled_chase_is_resumable() {
        let mut ch = chase_of(
            "relation R(a, b).
             ind R[2] <= R[1].
             Q(x) :- R(x, y).",
            ChaseMode::Required,
        );
        let token = CancelToken::unlimited();
        token.cancel();
        ch.set_cancel(token);
        assert_eq!(
            ch.run_to_completion(ChaseBudget::default()),
            ChaseStatus::Cancelled
        );
        // Re-arming with a live token resumes exactly where it stopped.
        ch.set_cancel(CancelToken::unlimited());
        let status = ch.expand_to_level(3, ChaseBudget::default());
        assert_eq!(status, ChaseStatus::LevelReached);
        assert_eq!(ch.frontier_level(), Some(3));
    }

    #[test]
    fn levels_follow_parents() {
        let mut ch = chase_of(
            "relation R(a). relation S(a). relation T(a).
             ind R[1] <= S[1]. ind S[1] <= T[1].
             Q(x) :- R(x).",
            ChaseMode::Required,
        );
        ch.run_to_completion(ChaseBudget::default());
        assert_eq!(ch.state().level_histogram(), vec![1, 1, 1]);
        // S child at level 1, T grandchild at level 2.
        let levels: Vec<u32> = ch.state().alive_conjuncts().map(|(_, c)| c.level).collect();
        assert_eq!(levels, vec![0, 1, 2]);
    }
}
