//! Workload generation. Every input is a pure function of the seed: the
//! server receives only the program texts and request lines built here.

use std::collections::HashMap;
use std::time::Duration;

use cqchase_bench::exp::e15_service::render_service_program;
use cqchase_bench::util::{ancestors_plus_roots, query_from_conjuncts};
use cqchase_core::chase::{Chase, ChaseBudget};
use cqchase_core::{classify, is_isomorphic, iso_key};
use cqchase_ir::{display, parse_program, validate, ConjunctiveQuery, Program, VarTable};
use cqchase_workload::{successor_containment_batch, QueryGen};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One registered session of a check workload.
pub struct CheckSession {
    /// Session name on the server.
    pub name: String,
    /// The program text sent in the `register` request.
    pub src: String,
    /// `src` parsed locally: the queries the expected answers use.
    pub program: Program,
}

/// A check: `(session, q, q_prime)`, indices into the workload's
/// sessions and that session's queries.
pub type Pair = (usize, usize, usize);

/// A check workload: sessions plus a fixed sequence of pairs.
pub struct CheckWorkload {
    /// The registered sessions.
    pub sessions: Vec<CheckSession>,
    /// Pairs indexing each session's queries. The load generator walks
    /// this sequence cyclically.
    pub seq: Vec<Pair>,
}

impl CheckWorkload {
    /// The distinct pairs of the sequence, sorted.
    pub fn distinct_pairs(&self) -> Vec<Pair> {
        let mut d = self.seq.clone();
        d.sort_unstable();
        d.dedup();
        d
    }
}

/// `check_cold`: random base queries per session.
const COLD_BASE: usize = 160;
/// `check_cold`: queries derived from each base query's chase.
const COLD_DERIVED: usize = 3;
/// `check_cold`: share of draws that pick a (base, derived) pair, which
/// is contained by construction.
pub const COLD_DERIVED_SHARE: f64 = 0.25;
/// `check_cold`: length of the pair sequence (cycled). Each session sees
/// about half of it between repeats, far more than its 1 024-entry
/// semantic cache holds.
const COLD_SEQ: usize = 8_192;

/// The key-based Σ: keys on every relation, cyclic width-1 INDs into
/// the keys.
const KEY_BASED_SCHEMA: &str = "relation R(a, b, c).
relation S(d, e).
fd R: a -> b.
fd R: a -> c.
fd S: d -> e.
ind R[2] <= S[1].
ind S[2] <= R[1].
";

/// The IND-only cyclic width-2 Σ of the paper's Figure 1 (infinite
/// chase).
const FIGURE1_SCHEMA: &str = "relation R(a, b, c).
relation S(x, y, z).
relation T(u, v).
ind R[1] <= T[1].
ind R[1, 3] <= S[1, 2].
ind S[1, 3] <= R[1, 2].
";

/// Gives a query canonical variable names (`v0`, `v1`, …) so its
/// rendering parses back, whatever names the chase invented.
fn canonical_names(mut q: ConjunctiveQuery) -> ConjunctiveQuery {
    let mut vars = VarTable::new();
    for (i, (_, info)) in q.vars.iter().enumerate() {
        vars.push(format!("v{i}"), info.kind);
    }
    q.vars = vars;
    q
}

/// Whether every atom of `q` reaches a head variable through shared
/// variables. Disconnected parts make the homomorphism search a cross
/// product whose cost swings by orders of magnitude from one random
/// query to the next; real queries are connected.
fn connected(q: &ConjunctiveQuery) -> bool {
    let vars = |i: usize| -> Vec<cqchase_ir::VarId> { q.atoms[i].vars().collect() };
    let mut reached: std::collections::HashSet<cqchase_ir::VarId> =
        q.head_vars().into_iter().collect();
    let mut done = vec![false; q.atoms.len()];
    loop {
        let mut grew = false;
        for (i, d) in done.iter_mut().enumerate() {
            if !*d && vars(i).iter().any(|v| reached.contains(v)) {
                *d = true;
                reached.extend(vars(i));
                grew = true;
            }
        }
        if !grew {
            return done.iter().all(|&d| d);
        }
    }
}

/// Query pools keep one representative per isomorphism class.
#[derive(Default)]
struct ClassSet {
    by_key: HashMap<u64, Vec<ConjunctiveQuery>>,
}

impl ClassSet {
    /// Adds `q` unless an isomorphic query is present; reports whether
    /// it was new.
    fn insert(&mut self, q: &ConjunctiveQuery) -> bool {
        let bucket = self.by_key.entry(iso_key(q)).or_default();
        if bucket.iter().any(|p| is_isomorphic(p, q)) {
            return false;
        }
        bucket.push(q.clone());
        true
    }
}

/// Builds one `check_cold` session: base queries from distinct classes,
/// and for each a few subqueries of its chase cut at assorted levels
/// (`Q ⊆ Q′` holds for each, with the witness at that level).
///
/// Query size is capped at `max_atoms`: the Theorem 2 bound grows with
/// `|Q′|`, and every pair must stay decidable within the containment
/// engine's default chase budget.
fn cold_session(
    name: &str,
    schema: &str,
    seed: u64,
    max_level: u32,
    max_atoms: usize,
) -> (CheckSession, Vec<(usize, usize)>) {
    let base = parse_program(schema).expect("static schema parses");
    let class = classify(&base.deps, &base.catalog);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut classes = ClassSet::default();
    let mut queries: Vec<ConjunctiveQuery> = Vec::new();
    let mut derived_pairs = Vec::new();
    let mut attempts = 0u64;
    while queries.len() < COLD_BASE * (1 + COLD_DERIVED) && attempts < 100_000 {
        attempts += 1;
        let gen = QueryGen {
            seed: rng.gen_range(0..u64::MAX),
            num_atoms: rng.gen_range(2..=max_atoms.min(4)),
            num_vars: rng.gen_range(3..=5),
            num_dvs: 1,
            const_prob: 0.0,
            const_pool: 1,
        };
        let q = canonical_names(gen.generate("q", &base.catalog));
        if !connected(&q) || !classes.insert(&q) {
            continue;
        }
        let base_idx = queries.len();
        queries.push(q.clone());
        let mut chase = Chase::new(&q, &base.deps, &base.catalog, class.preferred_mode());
        chase.expand_to_level(
            max_level,
            ChaseBudget {
                max_steps: 2_000,
                max_conjuncts: 4_000,
            },
        );
        let state = chase.state();
        if state.is_failed() {
            continue;
        }
        let alive: Vec<_> = state
            .alive_conjuncts()
            .filter(|(_, c)| c.level > 0)
            .map(|(id, c)| (id, c.level))
            .collect();
        for _ in 0..COLD_DERIVED {
            if alive.is_empty() {
                break;
            }
            let (id, _) = alive[rng.gen_range(0..alive.len())];
            let ids = ancestors_plus_roots(state, id);
            let d = canonical_names(query_from_conjuncts(state, &ids, "d"));
            if d.num_atoms() > max_atoms
                || !connected(&d)
                || validate::validate_query(&d, &base.catalog).is_err()
                || !classes.insert(&d)
            {
                continue;
            }
            derived_pairs.push((base_idx, queries.len()));
            queries.push(d);
        }
    }
    let mut src = String::from(schema);
    for (i, q) in queries.iter_mut().enumerate() {
        q.name = format!("Q{i}");
        src.push_str(&display::query(q, &base.catalog).to_string());
        src.push('\n');
    }
    let program = parse_program(&src).expect("rendered program parses back");
    assert_eq!(
        program.queries.len(),
        queries.len(),
        "every query survives the round trip"
    );
    (
        CheckSession {
            name: name.to_owned(),
            src,
            program,
        },
        derived_pairs,
    )
}

/// `check_cold`: a key-based session and a Figure 1 session, with pairs
/// drawn uniformly from a pair space far larger than the semantic cache.
pub fn check_cold(seed: u64) -> CheckWorkload {
    let (kb, kb_derived) = cold_session("keys", KEY_BASED_SCHEMA, seed ^ 0x6b65_7973, 6, 8);
    let (f1, f1_derived) = cold_session("fig1", FIGURE1_SCHEMA, seed ^ 0x6669_6731, 3, 3);
    let derived = [kb_derived, f1_derived];
    let sizes = [kb.program.queries.len(), f1.program.queries.len()];
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7365_7173);
    let seq = (0..COLD_SEQ)
        .map(|_| {
            let s = rng.gen_range(0..2usize);
            if rng.gen_bool(COLD_DERIVED_SHARE) && !derived[s].is_empty() {
                let (q, qp) = derived[s][rng.gen_range(0..derived[s].len())];
                (s, q, qp)
            } else {
                (s, rng.gen_range(0..sizes[s]), rng.gen_range(0..sizes[s]))
            }
        })
        .collect();
    CheckWorkload {
        sessions: vec![kb, f1],
        seq,
    }
}

/// `check_hot`: size of the successor pool (one query per class).
const HOT_POOL: usize = 12;
/// `check_hot`: length of the zipf-drawn pair sequence (cycled).
const HOT_SEQ: usize = 65_536;
/// `check_hot`: zipf exponent over the pool's pairs.
const HOT_ZIPF_S: f64 = 1.1;

/// `check_hot`: the 12-class successor pool, pairs drawn with a zipf
/// skew over a seeded ranking of all 144 pairs.
pub fn check_hot(seed: u64) -> CheckWorkload {
    let batch = successor_containment_batch(seed, HOT_POOL, 0);
    let mut src = render_service_program(&batch.program, &batch.queries, 64);
    src.push('\n');
    let program = parse_program(&src).expect("rendered program parses back");
    // Pool queries follow the schema's own query in the program.
    let offset = program.queries.len() - batch.queries.len();
    let mut ranked: Vec<(usize, usize)> = (0..HOT_POOL)
        .flat_map(|q| (0..HOT_POOL).map(move |qp| (q + offset, qp + offset)))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x686f_7421);
    rand::seq::SliceRandom::shuffle(&mut ranked[..], &mut rng);
    let weights: Vec<f64> = (0..ranked.len())
        .map(|r| 1.0 / ((r + 1) as f64).powf(HOT_ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    let seq = (0..HOT_SEQ)
        .map(|_| {
            let u = (rng.gen_range(0..u64::MAX) >> 11) as f64 / (1u64 << 53) as f64;
            let r = cdf.partition_point(|&c| c < u).min(ranked.len() - 1);
            let (q, qp) = ranked[r];
            (0, q, qp)
        })
        .collect();
    CheckWorkload {
        sessions: vec![CheckSession {
            name: "hot".into(),
            src,
            program,
        }],
        seq,
    }
}

/// An edge `(src, dst)` of the `eval_update` graph.
pub type Edge = (i64, i64);

/// `eval_update`: live edges at any moment.
pub const EDGES: usize = 2_400;
/// `eval_update`: node domain of the edge relation.
pub const NODES: i64 = 1_200;
/// `eval_update`: edges inserted (and deleted) per update.
pub const CHUNK: usize = 4;
/// `eval_update`: time between the writer's updates (35 updates/s).
pub const UPDATE_PERIOD: Duration = Duration::from_nanos(1_000_000_000 / 35);
/// `eval_update`: time between the reader's evals (100 evals/s). The
/// reader is paced, not a closed loop: a closed loop reads faster on a
/// faster machine, so more of its reads repeat a query between two
/// updates and hit the eval-result cache, and its median follows the
/// machine's speed twice over. At this rate the reader keeps the server
/// busy about a fifth of the time.
pub const READ_PERIOD: Duration = Duration::from_millis(10);
/// `eval_update`: updates the edge stream is long enough for.
pub const MAX_UPDATES: usize = 60_000;

/// The read pool of `eval_update`: chains, chains closing into a cycle,
/// stars with a closing edge, and cycles over `E`, each under a few
/// head projections. None names a constant, so their cost follows the
/// random graph's overall shape, which is the same for every seed; and
/// with this many queries most reads miss the eval-result cache even
/// between updates, so the join engine does the reading.
const EVAL_QUERIES: &str = "C3x(x) :- E(x, y), E(y, z), E(z, w).
C3w(w) :- E(x, y), E(y, z), E(z, w).
C2xz(x, z) :- E(x, y), E(y, z), E(z, x), E(x, w).
Q4x(x) :- E(x, y), E(y, z), E(z, w), E(w, y).
Q4y(y) :- E(x, y), E(y, z), E(z, w), E(w, y).
Q4xy(x, y) :- E(x, y), E(y, z), E(z, w), E(w, y).
SYc(c) :- E(c, a), E(c, b), E(a, b).
SYa(a) :- E(c, a), E(c, b), E(a, b).
SYab(a, b) :- E(c, a), E(c, b), E(a, b).
K3x(x) :- E(x, y), E(y, z), E(x, z).
K3z(z) :- E(x, y), E(y, z), E(x, z).
K3xz(x, z) :- E(x, y), E(y, z), E(x, z).
Y2x(x) :- E(x, y), E(y, x).
Y2xy(x, y) :- E(x, y), E(y, x).
Y3x(x) :- E(x, y), E(y, z), E(z, x).
Y3xy(x, y) :- E(x, y), E(y, z), E(z, x).
Y3xyz(x, y, z) :- E(x, y), E(y, z), E(z, x).
Y4x(x) :- E(x, y), E(y, z), E(z, w), E(w, x).
Y4xz(x, z) :- E(x, y), E(y, z), E(z, w), E(w, x).
Y4xyzw(x, y, z, w) :- E(x, y), E(y, z), E(z, w), E(w, x).
Y5x(x) :- E(x, y), E(y, z), E(z, w), E(w, v), E(v, x).
Y5xz(x, z) :- E(x, y), E(y, z), E(z, w), E(w, v), E(v, x).
Y5xw(x, w) :- E(x, y), E(y, z), E(z, w), E(w, v), E(v, x).
Y5all(x, y, z, w, v) :- E(x, y), E(y, z), E(z, w), E(w, v), E(v, x).
";

/// The `eval_update` workload: the program with the initial window and
/// the edge stream the writer slides over.
pub struct EvalWorkload {
    /// The program text registered once (schema, read pool, facts).
    pub src: String,
    /// `src` parsed locally.
    pub program: Program,
    /// Query names of the read pool.
    pub reads: Vec<String>,
    /// The edge stream: the first [`EDGES`] are the initial facts;
    /// update `k` inserts `stream[EDGES + k·CHUNK ..][..CHUNK]` and
    /// deletes `stream[k·CHUNK ..][..CHUNK]`. Edges inside any window
    /// of `EDGES + CHUNK` consecutive entries are distinct, so the live
    /// fact count stays exactly [`EDGES`].
    pub stream: Vec<Edge>,
}

impl EvalWorkload {
    /// Update `k` as `(inserts, deletes)`.
    pub fn update(&self, k: usize) -> (&[Edge], &[Edge]) {
        let ins = &self.stream[EDGES + k * CHUNK..][..CHUNK];
        let del = &self.stream[k * CHUNK..][..CHUNK];
        (ins, del)
    }
}

/// Builds the `eval_update` workload.
pub fn eval_update(seed: u64) -> EvalWorkload {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6576_616c);
    let len = EDGES + CHUNK * (MAX_UPDATES + 1);
    let mut stream: Vec<Edge> = Vec::with_capacity(len);
    let mut live: HashMap<Edge, usize> = HashMap::new();
    while stream.len() < len {
        let e = (rng.gen_range(0..NODES), rng.gen_range(0..NODES));
        // Distinct from every edge within the last window + chunk.
        if let Some(&at) = live.get(&e) {
            if stream.len() - at < EDGES + CHUNK {
                continue;
            }
        }
        live.insert(e, stream.len());
        stream.push(e);
    }
    let mut src = String::from("relation E(src, dst).\n");
    src.push_str(EVAL_QUERIES);
    for (a, b) in &stream[..EDGES] {
        src.push_str(&format!("E({a}, {b}).\n"));
    }
    let program = parse_program(&src).expect("rendered program parses");
    let reads = program.queries.iter().map(|q| q.name.clone()).collect();
    EvalWorkload {
        src,
        program,
        reads,
        stream,
    }
}
