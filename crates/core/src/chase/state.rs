//! Chase state: symbols with a total lexicographic order, conjuncts with
//! levels, the summary row, the arc structure of the chase graph — and
//! the incrementally maintained indexes every chase-rule application and
//! homomorphism search runs against.
//!
//! The index side (constant pool, per-column posting lists, live rows
//! per relation) is derived data: every mutation goes through
//! [`ChaseState::push_conjunct`] / [`ChaseState::substitute`] so the two
//! views never diverge. This is what lets the FD rule, the R-chase's
//! witness checks, whole-row lookups, and
//! [`find_chase_hom`](crate::hom::find_chase_hom) run without rescanning
//! the conjunct vector.

use std::borrow::Cow;

use cqchase_index::{ColumnIndex, FactSource, FxHashMap, FxHashSet, Sym, SymPool};
use cqchase_ir::{Catalog, ConjunctiveQuery, Constant, Ind, RelId, Term, VarId, VarKind};

use crate::hom::TSym;

/// A chase symbol (variable) identified by its **ordinal**: the position
/// in the chase's symbol table.
///
/// The ordinal *is* the paper's lexicographic order: distinguished
/// variables of the original query come first, then its nondistinguished
/// variables, then every chase-created NDV in creation order ("this
/// symbol following all previously introduced symbols in the
/// lexicographic order used by the FD chase rule").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CVar(pub u32);

impl CVar {
    /// The ordinal as an index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A term inside the chase: a constant or a chase symbol.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CTerm {
    /// A constant (fixed by every homomorphism).
    Const(Constant),
    /// A chase variable.
    Var(CVar),
}

impl CTerm {
    /// The variable inside, if any.
    pub fn as_var(&self) -> Option<CVar> {
        match self {
            CTerm::Var(v) => Some(*v),
            CTerm::Const(_) => None,
        }
    }

    /// Whether this is a constant.
    pub fn is_const(&self) -> bool {
        matches!(self, CTerm::Const(_))
    }
}

/// Where a chase symbol came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CVarOrigin {
    /// A variable of the original query.
    Query {
        /// Its id in the query's variable table.
        var: VarId,
        /// DV or NDV.
        kind: VarKind,
    },
    /// An NDV created by an IND chase-rule application. The fields encode
    /// the paper's naming scheme: "a name that encodes A, c, the IND, and
    /// the level of c′".
    Created {
        /// Column (attribute position) the symbol was created in.
        attr: usize,
        /// The conjunct the IND was applied to.
        parent: ConjId,
        /// Index of the IND in Σ's declaration order.
        ind_idx: usize,
        /// Level of the *created* conjunct.
        level: u32,
    },
}

/// Identifier of a conjunct within the chase, assigned in creation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConjId(pub u32);

impl ConjId {
    /// The id as an index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One conjunct (tuple) of the chase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conjunct {
    /// The relation this conjunct belongs to.
    pub rel: RelId,
    /// One term per column.
    pub terms: Vec<CTerm>,
    /// The paper's *level*: 0 for original conjuncts, parent's level + 1
    /// for IND-created ones, minimum on FD merges.
    pub level: u32,
    /// `false` once this conjunct has been merged into another by the FD
    /// rule (the survivor keeps `true`).
    pub alive: bool,
    /// When dead: who absorbed it.
    pub merged_into: Option<ConjId>,
}

/// Arc kinds of the chase graph (Figure 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArcKind {
    /// The IND application created the target conjunct.
    Ordinary,
    /// (R-chase) the required conjunct already existed; points at it.
    Cross,
}

/// One labelled arc of the chase graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaseArc {
    /// Source conjunct (the one the IND was applied to).
    pub from: ConjId,
    /// Target conjunct (created, or pre-existing for cross arcs).
    pub to: ConjId,
    /// Index of the IND in Σ's declaration order (the arc label).
    pub ind_idx: usize,
    /// Ordinary or cross.
    pub kind: ArcKind,
}

/// A merge of two conjuncts that became identical after a substitution:
/// `dead` was absorbed into `survivor` (which keeps the minimum level).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Merge {
    /// The absorbed conjunct.
    pub dead: ConjId,
    /// The conjunct that remains alive.
    pub survivor: ConjId,
}

/// The derived index side of a chase state.
///
/// Symbols are encoded as `Sym(const_id << 1)` for interned constants and
/// `Sym(ordinal << 1 | 1)` for chase variables, so fresh variables never
/// touch the pool.
#[derive(Debug, Clone, Default)]
struct ChaseIndex {
    consts: SymPool<Constant>,
    /// Posting lists over live conjuncts; row ids are `ConjId.0`.
    cols: ColumnIndex,
    /// Interned terms per conjunct (ConjId-indexed, dead rows retained).
    sym_rows: Vec<Vec<Sym>>,
    /// Live conjunct ids per relation, ascending.
    rel_rows: Vec<Vec<u32>>,
}

impl ChaseIndex {
    fn const_sym(&mut self, c: &Constant) -> Sym {
        Sym(self.consts.intern(c).0 << 1)
    }

    fn var_sym(v: CVar) -> Sym {
        Sym((v.0 << 1) | 1)
    }

    fn term_sym(&mut self, t: &CTerm) -> Sym {
        match t {
            CTerm::Const(c) => self.const_sym(c),
            CTerm::Var(v) => ChaseIndex::var_sym(*v),
        }
    }

    fn sym_var(sym: Sym) -> Option<CVar> {
        (sym.0 & 1 == 1).then_some(CVar(sym.0 >> 1))
    }

    /// The smallest live row of `rel` with `syms[col] == sym` for every
    /// `(col, sym)` in `bound` that `accept` takes. An empty `bound`
    /// matches every live row of `rel`.
    fn first_match(
        &self,
        rel: RelId,
        bound: impl Iterator<Item = (usize, Sym)> + Clone,
        mut accept: impl FnMut(u32) -> bool,
    ) -> Option<u32> {
        if bound.clone().next().is_none() {
            return self.rel_rows[rel.index()]
                .iter()
                .find(|&&r| accept(r))
                .copied();
        }
        self.cols
            .first_candidate(rel, bound, |row| &self.sym_rows[row as usize], accept)
    }

    /// The live row of `rel` holding exactly `syms`, other than
    /// `except` — the whole-row lookup (live rows are pairwise
    /// distinct, so there is at most one).
    fn find_row(&self, rel: RelId, syms: &[Sym], except: Option<u32>) -> Option<u32> {
        self.first_match(rel, syms.iter().copied().enumerate(), |r| Some(r) != except)
    }
}

/// The complete (partial) chase: symbols, conjuncts, summary row, arcs.
#[derive(Debug, Clone)]
pub struct ChaseState {
    pub(crate) catalog: Catalog,
    /// Provenance of every symbol, by ordinal.
    pub(crate) vars: Vec<CVarOrigin>,
    /// The query's variables, for the names of the first ordinals;
    /// created NDVs are named on demand from their origin.
    query_vars: cqchase_ir::VarTable,
    pub(crate) conjuncts: Vec<Conjunct>,
    pub(crate) summary: Vec<CTerm>,
    pub(crate) arcs: Vec<ChaseArc>,
    /// Set when the FD rule met two distinct constants: the chase is the
    /// empty query ("this query cannot be chased to an equivalent query
    /// obeying the given FD").
    pub(crate) failed: bool,
    index: ChaseIndex,
}

impl ChaseState {
    /// Initializes the state from a query: its conjuncts at level 0, its
    /// variables with DVs preceding NDVs in the symbol order. Syntactic
    /// duplicates collapse through a whole-row lookup (the paper's `C_Q`
    /// is a *set* of conjuncts).
    pub(crate) fn from_query(q: &ConjunctiveQuery, catalog: &Catalog) -> ChaseState {
        // Map query VarIds to chase ordinals: DVs first (in VarId order),
        // then NDVs (in VarId order).
        let mut order: Vec<VarId> = q.vars.iter().map(|(v, _)| v).collect();
        order.sort_by_key(|&v| (q.vars.kind(v) != VarKind::Distinguished, v));
        let mut to_cvar: FxHashMap<VarId, CVar> = FxHashMap::default();
        let mut vars = Vec::with_capacity(order.len());
        for v in order {
            to_cvar.insert(v, CVar(vars.len() as u32));
            vars.push(CVarOrigin::Query {
                var: v,
                kind: q.vars.kind(v),
            });
        }
        let conv = |t: &Term| match t {
            Term::Const(c) => CTerm::Const(c.clone()),
            Term::Var(v) => CTerm::Var(to_cvar[v]),
        };
        let mut state = ChaseState {
            catalog: catalog.clone(),
            vars,
            query_vars: q.vars.clone(),
            conjuncts: Vec::new(),
            summary: q.head.iter().map(conv).collect(),
            arcs: Vec::new(),
            failed: false,
            index: ChaseIndex {
                cols: ColumnIndex::new(catalog.rel_ids().map(|r| catalog.arity(r))),
                rel_rows: vec![Vec::new(); catalog.len()],
                ..ChaseIndex::default()
            },
        };
        for a in &q.atoms {
            let terms: Vec<CTerm> = a.terms.iter().map(conv).collect();
            let syms: Vec<Sym> = terms.iter().map(|t| state.index.term_sym(t)).collect();
            if state.index.find_row(a.relation, &syms, None).is_none() {
                state.push_row(a.relation, terms, syms, 0);
            }
        }
        // Intern summary constants (head constants need not occur in any
        // conjunct, but homomorphism pre-binding must resolve them).
        for t in &state.summary {
            state.index.term_sym(t);
        }
        state
    }

    /// The catalog the chase runs against.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Whether the FD rule failed on a constant clash (empty chase).
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// The summary row (rewritten by FD merges as the chase proceeds).
    pub fn summary(&self) -> &[CTerm] {
        &self.summary
    }

    /// All conjunct slots, dead ones included (use
    /// [`ChaseState::alive_conjuncts`] for the live view).
    pub fn all_conjuncts(&self) -> &[Conjunct] {
        &self.conjuncts
    }

    /// The conjunct at `id`.
    pub fn conjunct(&self, id: ConjId) -> &Conjunct {
        &self.conjuncts[id.index()]
    }

    /// Live conjuncts with their ids, in creation order.
    pub fn alive_conjuncts(&self) -> impl Iterator<Item = (ConjId, &Conjunct)> {
        self.conjuncts
            .iter()
            .enumerate()
            .filter(|(_, c)| c.alive)
            .map(|(i, c)| (ConjId(i as u32), c))
    }

    /// Number of live conjuncts.
    pub fn num_alive(&self) -> usize {
        self.index.rel_rows.iter().map(Vec::len).sum()
    }

    /// All arcs recorded so far.
    pub fn arcs(&self) -> &[ChaseArc] {
        &self.arcs
    }

    /// Where the symbol `v` came from.
    pub fn var_origin(&self, v: CVar) -> &CVarOrigin {
        &self.vars[v.index()]
    }

    /// The display name of `v`: query variables keep their names, and a
    /// created NDV is named from its origin as `n{ordinal}_c{parent}
    /// i{ind}a{attr}L{level}` ("a name that encodes A, c, the IND, and
    /// the level of c′"), rendered only when asked for.
    pub fn var_name(&self, v: CVar) -> Cow<'_, str> {
        match self.vars[v.index()] {
            CVarOrigin::Query { var, .. } => Cow::Borrowed(self.query_vars.name(var)),
            CVarOrigin::Created {
                attr,
                parent,
                ind_idx,
                level,
            } => Cow::Owned(format!(
                "n{}_c{}i{}a{}L{}",
                v.0, parent.0, ind_idx, attr, level
            )),
        }
    }

    /// Number of symbols ever created.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Follows merge links to the live representative of `id`.
    pub fn resolve_conjunct(&self, mut id: ConjId) -> ConjId {
        while let Some(next) = self.conjuncts[id.index()].merged_into {
            id = next;
        }
        id
    }

    /// The maximum level among live conjuncts (`None` when the chase is
    /// empty, e.g. after failure).
    pub fn max_level(&self) -> Option<u32> {
        self.conjuncts
            .iter()
            .filter(|c| c.alive)
            .map(|c| c.level)
            .max()
    }

    /// Live conjunct count per level (index = level).
    pub fn level_histogram(&self) -> Vec<usize> {
        let mut h = Vec::new();
        for c in self.conjuncts.iter().filter(|c| c.alive) {
            let l = c.level as usize;
            if h.len() <= l {
                h.resize(l + 1, 0);
            }
            h[l] += 1;
        }
        h
    }

    /// Creates a fresh NDV with the paper's provenance encoding; it
    /// lexicographically follows all earlier symbols by construction
    /// (ordinal order *is* the order).
    pub(crate) fn fresh_var(
        &mut self,
        attr: usize,
        parent: ConjId,
        ind_idx: usize,
        level: u32,
    ) -> CVar {
        self.vars.push(CVarOrigin::Created {
            attr,
            parent,
            ind_idx,
            level,
        });
        CVar(self.vars.len() as u32 - 1)
    }

    /// Appends a conjunct unconditionally, registering it in every index.
    /// The caller guarantees it is not a duplicate of a live conjunct
    /// (IND children carry fresh NDVs or were witness-checked first).
    pub(crate) fn push_conjunct(&mut self, rel: RelId, terms: Vec<CTerm>, level: u32) -> ConjId {
        let syms: Vec<Sym> = terms.iter().map(|t| self.index.term_sym(t)).collect();
        self.push_row(rel, terms, syms, level)
    }

    fn push_row(&mut self, rel: RelId, terms: Vec<CTerm>, syms: Vec<Sym>, level: u32) -> ConjId {
        debug_assert!(
            self.index.find_row(rel, &syms, None).is_none(),
            "push_conjunct must not duplicate a row"
        );
        let id = ConjId(self.conjuncts.len() as u32);
        self.index.cols.insert_row(rel, id.0, &syms);
        let list = &mut self.index.rel_rows[rel.index()];
        debug_assert!(list.last().is_none_or(|&l| l < id.0));
        list.push(id.0);
        self.index.sym_rows.push(syms);
        self.conjuncts.push(Conjunct {
            rel,
            terms,
            level,
            alive: true,
            merged_into: None,
        });
        id
    }

    /// Kills `dead`, recording `survivor` as its representative; fixes
    /// every index. The caller has already rewritten terms so that both
    /// rows are identical.
    fn kill_conjunct(&mut self, dead: ConjId, survivor: ConjId) {
        let rel = self.conjuncts[dead.index()].rel;
        self.index
            .cols
            .remove_row(rel, dead.0, &self.index.sym_rows[dead.index()]);
        let list = &mut self.index.rel_rows[rel.index()];
        if let Ok(pos) = list.binary_search(&dead.0) {
            list.remove(pos);
        }
        let c = &mut self.conjuncts[dead.index()];
        c.alive = false;
        c.merged_into = Some(survivor);
        let lvl = c.level;
        let s = &mut self.conjuncts[survivor.index()];
        s.level = s.level.min(lvl);
    }

    /// Marks the chase failed (FD constant clash): deletes every conjunct
    /// and clears the live indexes.
    pub(crate) fn fail(&mut self) {
        self.failed = true;
        for c in &mut self.conjuncts {
            c.alive = false;
        }
        self.index.cols = ColumnIndex::new(self.catalog.rel_ids().map(|r| self.catalog.arity(r)));
        for list in &mut self.index.rel_rows {
            list.clear();
        }
    }

    /// Substitutes the variable `from ↦ to` through every live conjunct
    /// and the summary row, merging conjuncts that become identical
    /// (earliest id survives, donating the minimum level). This is the
    /// FD chase rule's mutation primitive; `from`'s posting lists make it
    /// proportional to the rows actually containing `from`, not the
    /// whole chase.
    pub(crate) fn substitute(&mut self, from: CVar, to: &CTerm) -> Vec<Merge> {
        let from_sym = ChaseIndex::var_sym(from);
        let to_sym = self.index.term_sym(to);
        debug_assert_ne!(from_sym, to_sym);
        let mut rows: Vec<u32> = Vec::new();
        for rel in self.catalog.rel_ids() {
            for col in 0..self.catalog.arity(rel) {
                rows.extend_from_slice(self.index.cols.posting(rel, col, from_sym));
            }
        }
        rows.sort_unstable();
        rows.dedup();
        let mut merges = Vec::new();
        for row in rows {
            let id = ConjId(row);
            debug_assert!(self.conjuncts[id.index()].alive);
            let rel = self.conjuncts[id.index()].rel;
            // Rewrite terms + syms + postings in the affected columns.
            for col in 0..self.index.sym_rows[id.index()].len() {
                if self.index.sym_rows[id.index()][col] == from_sym {
                    self.index
                        .cols
                        .replace_in_col(rel, col, row, from_sym, to_sym);
                    self.index.sym_rows[id.index()][col] = to_sym;
                    self.conjuncts[id.index()].terms[col] = to.clone();
                }
            }
            // Merge on collision with another live row (min id survives).
            let syms = &self.index.sym_rows[id.index()];
            if let Some(other) = self.index.find_row(rel, syms, Some(row)) {
                let (survivor, dead) = if other < row {
                    (ConjId(other), id)
                } else {
                    (id, ConjId(other))
                };
                self.kill_conjunct(dead, survivor);
                merges.push(Merge { dead, survivor });
            }
        }
        // `from` no longer occurs in any conjunct. Rewrite the summary
        // row.
        for t in self.summary.iter_mut() {
            if matches!(t, CTerm::Var(v) if *v == from) {
                *t = to.clone();
            }
        }
        merges
    }

    /// Finds a live conjunct witnessing `ind` for `parent`: a `c″` over
    /// the IND's right-hand relation with `c″[Y] = parent[X]`. Pure
    /// index intersection; the smallest conjunct id wins (the canonical
    /// witness, matching creation order).
    /// A width-0 IND (degenerate but constructible) is witnessed by any
    /// live row of the right-hand relation.
    pub(crate) fn find_witness(&self, ind: &Ind, parent: ConjId) -> Option<ConjId> {
        let parent_syms = &self.index.sym_rows[parent.index()];
        let bound = ind
            .rhs_cols
            .iter()
            .zip(&ind.lhs_cols)
            .map(|(&y, &x)| (y, parent_syms[x]));
        self.index
            .first_match(ind.rhs_rel, bound, |_| true)
            .map(ConjId)
    }

    /// Finds the canonical applicable FD: the lexicographically first
    /// pair of live conjuncts (by id) agreeing on some FD's left-hand
    /// side and differing on its right-hand side, and the first such FD
    /// in Σ order for that pair. When `involving` is set, only pairs
    /// containing that conjunct are examined (valid when the state was
    /// FD-quiescent before that conjunct appeared).
    ///
    /// Uses posting intersection — linear in the rows of the FDs'
    /// relations instead of quadratic in the chase.
    pub(crate) fn find_applicable_fd(
        &self,
        fds: &[cqchase_ir::Fd],
        involving: Option<ConjId>,
    ) -> Option<(ConjId, ConjId, usize)> {
        match involving {
            Some(c) => {
                if !self.conjuncts[c.index()].alive {
                    return None;
                }
                let rel = self.conjuncts[c.index()].rel;
                let c_syms = &self.index.sym_rows[c.index()];
                // Original schedule: iterate other conjuncts in id order,
                // and per other take the first applicable FD — i.e.
                // minimize (other, fd_idx).
                let mut best: Option<(u32, usize)> = None;
                for (fd_idx, fd) in fds.iter().enumerate() {
                    if fd.relation != rel {
                        continue;
                    }
                    // Candidates are visited in ascending id order, so
                    // the first accepted row is this fd's minimal
                    // applicable partner for `c` (never `c` itself, whose
                    // right-hand side equals its own).
                    let accept =
                        |other: u32| self.index.sym_rows[other as usize][fd.rhs] != c_syms[fd.rhs];
                    let bound = fd.lhs.iter().map(|&z| (z, c_syms[z]));
                    if let Some(other) = self.index.first_match(rel, bound, accept) {
                        if best.is_none_or(|b| (other, fd_idx) < b) {
                            best = Some((other, fd_idx));
                        }
                    }
                }
                best.map(|(other, fd_idx)| {
                    let other = ConjId(other);
                    let (c1, c2) = if other < c { (other, c) } else { (c, other) };
                    (c1, c2, fd_idx)
                })
            }
            None => {
                // Minimize the pair (c1, c2) over all FDs; for the
                // winning pair take the smallest applicable fd index —
                // exactly the pair-major schedule of the naive scan.
                let mut best: Option<(u32, u32, usize)> = None;
                for (fd_idx, fd) in fds.iter().enumerate() {
                    for &row in &self.index.rel_rows[fd.relation.index()] {
                        let syms = &self.index.sym_rows[row as usize];
                        // The smallest row agreeing with `row` on the
                        // left-hand side (`row` itself at the latest).
                        let bound = fd.lhs.iter().map(|&z| (z, syms[z]));
                        let Some(first) = self.index.first_match(fd.relation, bound, |_| true)
                        else {
                            continue;
                        };
                        // Rows are visited in ascending id order, so
                        // (first, row) is the minimal applicable pair
                        // ending in `row`.
                        let pair = (first, row, fd_idx);
                        if self.index.sym_rows[first as usize][fd.rhs] != syms[fd.rhs]
                            && best.is_none_or(|b| pair < b)
                        {
                            best = Some(pair);
                        }
                    }
                }
                best.map(|(c1, c2, fd_idx)| (ConjId(c1), ConjId(c2), fd_idx))
            }
        }
    }

    /// A [`FactSource`] view of the live conjuncts with level ≤
    /// `max_level`, for homomorphism search straight off the chase's
    /// incremental indexes.
    pub fn hom_source(&self, max_level: u32) -> ChaseHomSource<'_> {
        ChaseHomSource {
            state: self,
            max_level,
        }
    }

    /// Renders a conjunct as `R(a, b, n3_c0i1a2L1)`.
    pub fn render_conjunct(&self, id: ConjId) -> String {
        let c = &self.conjuncts[id.index()];
        let mut s = format!("{}(", self.catalog.name(c.rel));
        for (i, t) in c.terms.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            match t {
                CTerm::Const(k) => s.push_str(&k.to_string()),
                CTerm::Var(v) => s.push_str(&self.var_name(*v)),
            }
        }
        s.push(')');
        s
    }
}

impl ChaseState {
    /// Checks the derived indexes against the live conjuncts, for tests:
    /// the interned rows, posting lists and per-relation rows must equal
    /// a rebuild, live rows must be pairwise distinct, and the whole-row
    /// lookup and [`ChaseState::find_witness`] (for every IND of `inds`)
    /// must agree with a linear scan. Returns the first disagreement.
    #[doc(hidden)]
    pub fn check_indexes(&self, inds: &[Ind]) -> Result<(), String> {
        let live: Vec<(ConjId, &Conjunct)> = self.alive_conjuncts().collect();
        let mut cols = ColumnIndex::new(self.catalog.rel_ids().map(|r| self.catalog.arity(r)));
        let mut rel_rows = vec![Vec::new(); self.catalog.len()];
        let mut distinct = FxHashSet::default();
        for &(id, c) in &live {
            let syms = &self.index.sym_rows[id.index()];
            let interned = c.terms.iter().zip(syms).all(|(t, &s)| match t {
                CTerm::Var(v) => s == ChaseIndex::var_sym(*v),
                CTerm::Const(k) => self.index.consts.get(k) == Some(Sym(s.0 >> 1)),
            });
            if !interned || !distinct.insert((c.rel, syms)) {
                return Err(format!("c{}: stale or duplicate row", id.0));
            }
            cols.insert_row(c.rel, id.0, syms);
            rel_rows[c.rel.index()].push(id.0);
        }
        if cols != self.index.cols || rel_rows != self.index.rel_rows {
            return Err("posting lists or per-relation rows differ from a rebuild".into());
        }
        for &(id, c) in &live {
            let found = self
                .index
                .find_row(c.rel, &self.index.sym_rows[id.index()], None);
            if found != Some(id.0) {
                return Err(format!("c{}: whole-row lookup found {found:?}", id.0));
            }
            for ind in inds.iter().filter(|ind| ind.lhs_rel == c.rel) {
                let scan = live.iter().map(|&(w, _)| w).find(|&w| {
                    let w = self.conjunct(w);
                    w.rel == ind.rhs_rel
                        && (ind.rhs_cols.iter().zip(&ind.lhs_cols))
                            .all(|(&y, &x)| w.terms[y] == c.terms[x])
                });
                if self.find_witness(ind, id) != scan {
                    return Err(format!(
                        "c{}: witness for {ind:?} differs from a scan",
                        id.0
                    ));
                }
            }
        }
        Ok(())
    }
}

/// A level-truncated [`FactSource`] view of a [`ChaseState`]. Row ids
/// are conjunct ids.
#[derive(Debug, Clone, Copy)]
pub struct ChaseHomSource<'a> {
    state: &'a ChaseState,
    max_level: u32,
}

impl ChaseHomSource<'_> {
    #[inline]
    fn level_ok(&self, row: u32) -> bool {
        self.state.conjuncts[row as usize].level <= self.max_level
    }

    /// The summary row as target symbols.
    pub fn summary_tsyms(&self) -> Vec<TSym> {
        self.state
            .summary
            .iter()
            .map(|t| match t {
                CTerm::Const(c) => TSym::Const(c.clone()),
                CTerm::Var(v) => TSym::Node(u64::from(v.0)),
            })
            .collect()
    }

    /// Resolves a target symbol into the chase's interned space.
    pub fn sym_of_tsym(&self, s: &TSym) -> Option<Sym> {
        match s {
            TSym::Const(c) => self.state.index.consts.get(c).map(|s| Sym(s.0 << 1)),
            TSym::Node(n) => Some(ChaseIndex::var_sym(CVar(*n as u32))),
        }
    }

    /// The target symbol behind an interned chase symbol.
    pub fn tsym_of(&self, sym: Sym) -> TSym {
        match ChaseIndex::sym_var(sym) {
            Some(v) => TSym::Node(u64::from(v.0)),
            None => TSym::Const(self.state.index.consts.resolve(Sym(sym.0 >> 1)).clone()),
        }
    }
}

impl FactSource for ChaseHomSource<'_> {
    fn rel_size(&self, rel: RelId) -> usize {
        // Upper bound (level filtering not applied) — ordering heuristic.
        self.state.index.rel_rows[rel.index()].len()
    }

    fn row_syms(&self, _rel: RelId, row: u32) -> &[Sym] {
        &self.state.index.sym_rows[row as usize]
    }

    fn posting_len(&self, rel: RelId, col: usize, sym: Sym) -> usize {
        self.state.index.cols.posting_len(rel, col, sym)
    }

    fn candidates(&self, rel: RelId, bound: &[(usize, Sym)], out: &mut Vec<u32>) {
        if bound.is_empty() {
            out.extend(
                self.state.index.rel_rows[rel.index()]
                    .iter()
                    .copied()
                    .filter(|&r| self.level_ok(r)),
            );
        } else {
            let start = out.len();
            self.state.index.cols.candidates(
                rel,
                bound,
                |row| &self.state.index.sym_rows[row as usize],
                out,
            );
            let mut keep = start;
            for i in start..out.len() {
                if self.level_ok(out[i]) {
                    out.swap(keep, i);
                    keep += 1;
                }
            }
            out.truncate(keep);
        }
    }

    fn sym_of_const(&self, c: &Constant) -> Option<Sym> {
        self.state.index.consts.get(c).map(|s| Sym(s.0 << 1))
    }

    fn distinct_count(&self, rel: RelId, col: usize) -> usize {
        // Upper bound (level filtering not applied) — cost heuristic.
        self.state.index.cols.distinct_count(rel, col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqchase_ir::{parse_program, Program};

    fn prog() -> Program {
        parse_program("relation R(a, b, c). Q(z) :- R(x, y, z), R(z, y, x).").unwrap()
    }

    #[test]
    fn dvs_precede_ndvs_in_symbol_order() {
        let p = prog();
        let st = ChaseState::from_query(&p.queries[0], &p.catalog);
        // Query variable order is x, y (NDVs interned first in the body)
        // …actually z is the head DV and interned first. Regardless of
        // interning order, the chase order must put the DV `z` first.
        assert_eq!(st.var_name(CVar(0)), "z");
        assert!(matches!(
            st.vars[0],
            CVarOrigin::Query {
                kind: VarKind::Distinguished,
                ..
            }
        ));
        for origin in &st.vars[1..] {
            assert!(matches!(
                origin,
                CVarOrigin::Query {
                    kind: VarKind::Existential,
                    ..
                }
            ));
        }
    }

    #[test]
    fn conjuncts_start_at_level_zero() {
        let p = prog();
        let st = ChaseState::from_query(&p.queries[0], &p.catalog);
        assert_eq!(st.num_alive(), 2);
        assert!(st.alive_conjuncts().all(|(_, c)| c.level == 0));
        assert_eq!(st.max_level(), Some(0));
        assert_eq!(st.level_histogram(), vec![2]);
    }

    #[test]
    fn shared_variables_share_symbols() {
        let p = prog();
        let st = ChaseState::from_query(&p.queries[0], &p.catalog);
        let c0 = &st.conjuncts[0];
        let c1 = &st.conjuncts[1];
        // Q(z) :- R(x, y, z), R(z, y, x): position 2 of c0 == position 0 of c1.
        assert_eq!(c0.terms[2], c1.terms[0]);
        assert_eq!(c0.terms[1], c1.terms[1]);
        assert_eq!(st.summary(), &[c0.terms[2].clone()]);
    }

    #[test]
    fn fresh_vars_extend_the_order() {
        let p = prog();
        let mut st = ChaseState::from_query(&p.queries[0], &p.catalog);
        let before = st.num_vars();
        let v = st.fresh_var(1, ConjId(0), 0, 1);
        assert_eq!(v.index(), before);
        assert!(matches!(
            st.var_origin(v),
            CVarOrigin::Created {
                attr: 1,
                level: 1,
                ..
            }
        ));
        // The name encodes the provenance.
        assert_eq!(st.var_name(v), format!("n{before}_c0i0a1L1"));
    }

    #[test]
    fn render() {
        let p = prog();
        let st = ChaseState::from_query(&p.queries[0], &p.catalog);
        let s = st.render_conjunct(ConjId(0));
        assert!(s.starts_with("R("), "{s}");
        assert!(s.contains('z'), "{s}");
    }

    #[test]
    fn substitute_merges_duplicates_and_rewrites_summary() {
        // Q(z) :- R(x, y, z), R(z, y, x): substituting x ↦ z makes the
        // two conjuncts identical; the earlier one survives.
        let p = prog();
        let mut st = ChaseState::from_query(&p.queries[0], &p.catalog);
        let x = st.alive_conjuncts().next().unwrap().1.terms[0]
            .as_var()
            .unwrap();
        let z = st.summary()[0].clone();
        let merges = st.substitute(x, &z);
        assert_eq!(merges.len(), 1);
        assert_eq!(merges[0].survivor, ConjId(0));
        assert_eq!(merges[0].dead, ConjId(1));
        assert_eq!(st.num_alive(), 1);
        assert_eq!(st.resolve_conjunct(ConjId(1)), ConjId(0));
        // The live conjunct's first and third columns now both hold z.
        let (_, c) = st.alive_conjuncts().next().unwrap();
        assert_eq!(c.terms[0], z);
        assert_eq!(c.terms[2], z);
    }

    #[test]
    fn width_zero_ind_witnessed_by_any_row() {
        let p = parse_program("relation R(a, b). Q(x) :- R(x, y).").unwrap();
        let st = ChaseState::from_query(&p.queries[0], &p.catalog);
        let r = p.catalog.resolve("R").unwrap();
        let ind = cqchase_ir::Ind::new(r, vec![], r, vec![]);
        // Degenerate width-0 IND: every nonempty relation witnesses it.
        assert_eq!(st.find_witness(&ind, ConjId(0)), Some(ConjId(0)));
    }

    #[test]
    fn find_witness_uses_postings() {
        let p = parse_program(
            "relation R(a, b).
             ind R[2] <= R[1].
             Q(x) :- R(x, y), R(y, z).",
        )
        .unwrap();
        let st = ChaseState::from_query(&p.queries[0], &p.catalog);
        let ind = p.deps.inds().next().unwrap();
        // R(x, y) projected on [2] is (y); R(y, z) has y in column 1.
        assert_eq!(st.find_witness(ind, ConjId(0)), Some(ConjId(1)));
        // R(y, z) projected on [2] is (z); nothing has z in column 1.
        assert_eq!(st.find_witness(ind, ConjId(1)), None);
    }
}
