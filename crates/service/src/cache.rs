//! The semantic result cache: containment answers keyed by the
//! *isomorphism class* of the pair `(Q, Q′)` under a fixed Σ.
//!
//! Containment `Σ ⊨ Q ⊆∞ Q′` is invariant under renaming each query's
//! variables and reordering each query's atoms (the queries' variable
//! scopes are disjoint, so the renamings are independent). A cache
//! keyed by *syntactic* identity would miss every client that spells
//! the same question differently; this one buckets by
//! [`iso_key`](cqchase_core::iso_key) of both sides (plus a Σ
//! fingerprint, so one cache can safely serve several sessions) and
//! confirms candidates with the exact [`is_isomorphic`] test before
//! returning them. A hash collision therefore costs one extra
//! containment run, never a wrong answer — the same
//! bucket-then-verify discipline as
//! [`PlanCache`](cqchase_index::PlanCache).
//!
//! The cache is bounded: beyond `capacity` entries the
//! least-recently-used one is evicted first (a long-running server
//! must not grow without limit). A recency index ordered by use tick
//! sits beside the buckets, so an insert and an eviction cost O(log n),
//! not a scan of every entry under the mutex every lookup on the
//! session needs. A hit only restamps its entry; the index catches up
//! when that entry's stale tick reaches the front. Hit/miss/eviction
//! counts are kept for the `stats` endpoint, and a capacity of 0
//! disables caching entirely — the differential property tests run
//! cache-on vs cache-off and require bit-identical answers.

use std::collections::BTreeMap;

use cqchase_core::{is_isomorphic, iso_key};
use cqchase_index::FxHashMap;
use cqchase_ir::{ConjunctiveQuery, DependencySet};

use crate::proto::CheckSummary;

/// Bucket key: Σ fingerprint plus the iso keys of both sides.
type Key = (u64, u64, u64);

#[derive(Debug)]
struct Entry {
    /// Representatives of the isomorphism class (for exact
    /// verification — the key alone is only a hash).
    q: ConjunctiveQuery,
    q_prime: ConjunctiveQuery,
    answer: CheckSummary,
    last_used: u64,
    /// The tick this entry is filed under in the recency index: its
    /// `last_used` as of insertion or of its latest re-filing, so never
    /// later than `last_used`.
    filed: u64,
}

/// Counters exposed through the `stats` endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that required a containment run.
    pub misses: u64,
    /// Entries evicted by the capacity bound.
    pub evictions: u64,
    /// Entries currently held.
    pub entries: usize,
    /// The configured capacity (0 = caching disabled).
    pub capacity: usize,
}

/// A bounded LRU cache of containment answers keyed by isomorphism
/// class. See the module docs for the invariants.
#[derive(Debug)]
pub struct SemanticCache {
    entries: FxHashMap<Key, Vec<Entry>>,
    /// `filed → bucket`, one-to-one with the live entries (ticks are
    /// unique: each touches at most one entry). Every entry's `filed`
    /// is at most its `last_used`, so a front entry whose two ticks
    /// agree is the least-recently-used one.
    recency: BTreeMap<u64, Key>,
    capacity: usize,
    len: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A stable 64-bit fingerprint of a dependency set: dependencies are
/// hashed in declaration order through their display rendering, which
/// round-trips the surface syntax and is independent of process-local
/// ids beyond the catalog the session owns.
pub fn sigma_fingerprint(sigma: &DependencySet, catalog: &cqchase_ir::Catalog) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = cqchase_index::FxHasher::default();
    for fd in sigma.fds() {
        cqchase_ir::display::fd(fd, catalog)
            .to_string()
            .hash(&mut h);
    }
    h.write_u8(0xFD);
    for ind in sigma.inds() {
        cqchase_ir::display::ind(ind, catalog)
            .to_string()
            .hash(&mut h);
    }
    h.finish()
}

impl SemanticCache {
    /// A cache holding at most `capacity` answers; 0 disables caching
    /// ([`lookup`](SemanticCache::lookup) always misses, `insert` is a
    /// no-op).
    pub fn new(capacity: usize) -> SemanticCache {
        SemanticCache {
            entries: FxHashMap::default(),
            recency: BTreeMap::new(),
            capacity,
            len: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn key(sigma_fp: u64, q: &ConjunctiveQuery, q_prime: &ConjunctiveQuery) -> Key {
        (sigma_fp, iso_key(q), iso_key(q_prime))
    }

    /// Looks up the answer for `(q, q_prime)` under the Σ identified by
    /// `sigma_fp`. A hit requires *both* sides isomorphic to a stored
    /// representative pair.
    pub fn lookup(
        &mut self,
        sigma_fp: u64,
        q: &ConjunctiveQuery,
        q_prime: &ConjunctiveQuery,
    ) -> Option<CheckSummary> {
        if self.capacity == 0 {
            self.misses += 1;
            return None;
        }
        self.tick += 1;
        let tick = self.tick;
        let found = self
            .entries
            .get_mut(&Self::key(sigma_fp, q, q_prime))
            .and_then(|bucket| {
                bucket
                    .iter_mut()
                    .find(|e| is_isomorphic(q, &e.q) && is_isomorphic(q_prime, &e.q_prime))
            })
            .map(|e| {
                e.last_used = tick;
                e.answer.clone()
            });
        match &found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found
    }

    /// Stores an answer. Skips the insert when an isomorphic pair is
    /// already present (concurrent requests can race to compute the
    /// same class — both got the same answer, one representative
    /// suffices).
    pub fn insert(
        &mut self,
        sigma_fp: u64,
        q: &ConjunctiveQuery,
        q_prime: &ConjunctiveQuery,
        answer: CheckSummary,
    ) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        let tick = self.tick;
        let key = Self::key(sigma_fp, q, q_prime);
        let bucket = self.entries.entry(key).or_default();
        if bucket
            .iter()
            .any(|e| is_isomorphic(q, &e.q) && is_isomorphic(q_prime, &e.q_prime))
        {
            return;
        }
        bucket.push(Entry {
            q: q.clone(),
            q_prime: q_prime.clone(),
            answer,
            last_used: tick,
            filed: tick,
        });
        self.recency.insert(tick, key);
        self.len += 1;
        if self.len > self.capacity {
            self.evict_lru();
        }
    }

    /// Evicts the least-recently-used entry, re-filing at their last use
    /// the entries found at the front with a stale tick (each hit costs
    /// at most one re-filing). The entry inserted at this tick is the
    /// newest, so with `len ≥ 2` it is never the victim.
    fn evict_lru(&mut self) {
        loop {
            let (filed, key) = self.recency.pop_first().expect("len > capacity ≥ 1");
            let bucket = self.entries.get_mut(&key).expect("filed bucket exists");
            let pos = bucket
                .iter()
                .position(|e| e.filed == filed)
                .expect("filed entry exists");
            let last_used = bucket[pos].last_used;
            if last_used != filed {
                bucket[pos].filed = last_used;
                self.recency.insert(last_used, key);
                continue;
            }
            bucket.remove(pos);
            if bucket.is_empty() {
                self.entries.remove(&key);
            }
            self.len -= 1;
            self.evictions += 1;
            return;
        }
    }

    /// Drops every cached answer (pressure shedding / tests). Counters
    /// survive, with the dropped entries counted as evictions, so the
    /// stats stay monotone across a shed.
    pub fn clear(&mut self) -> usize {
        let dropped = self.len;
        self.entries.clear();
        self.recency.clear();
        self.evictions += dropped as u64;
        self.len = 0;
        dropped
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.len,
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqchase_ir::parse_program;

    fn summary(contained: bool) -> CheckSummary {
        CheckSummary {
            contained,
            exact: true,
            empty_chase: false,
            class: "Empty".into(),
            bound: 0,
        }
    }

    #[test]
    fn isomorphic_pairs_hit() {
        let p = parse_program(
            "relation R(a, b).
             A(x) :- R(x, y), R(y, x).
             Ar(u) :- R(w, u), R(u, w).
             B(x) :- R(x, y).
             Br(s) :- R(s, t).",
        )
        .unwrap();
        let fp = sigma_fingerprint(&p.deps, &p.catalog);
        let mut cache = SemanticCache::new(16);
        let (a, ar) = (p.query("A").unwrap(), p.query("Ar").unwrap());
        let (b, br) = (p.query("B").unwrap(), p.query("Br").unwrap());
        assert_eq!(cache.lookup(fp, a, b), None);
        cache.insert(fp, a, b, summary(true));
        // The renamed pair is the same isomorphism class.
        assert_eq!(cache.lookup(fp, ar, br), Some(summary(true)));
        // Swapping sides is a different question.
        assert_eq!(cache.lookup(fp, b, a), None);
        // A different Σ fingerprint misses.
        assert_eq!(cache.lookup(fp ^ 1, a, b), None);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 3, 1));
    }

    #[test]
    fn lru_eviction_is_bounded_and_counted() {
        let p = parse_program(
            "relation R(a, b).
             Q0(x) :- R(x, y).
             Q1(x) :- R(y, x).
             Q2(x) :- R(x, x).
             Q3(x, y) :- R(x, y).",
        )
        .unwrap();
        let fp = 7;
        let mut cache = SemanticCache::new(2);
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    cache.insert(fp, &p.queries[i], &p.queries[j], summary(i < j));
                }
            }
        }
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 12 - 2);
        // The most recently inserted pair must still be present.
        assert_eq!(
            cache.lookup(fp, &p.queries[3], &p.queries[2]),
            Some(summary(false))
        );
    }

    /// The cache as it was before the recency index, kept as the
    /// oracle: one flat list of `(σ, q, q′, answer, last_used)` with
    /// queries as pool indices, and the victim found by scanning every
    /// entry for the oldest `last_used`.
    struct ScanModel<'p> {
        pool: &'p [ConjunctiveQuery],
        capacity: usize,
        tick: u64,
        live: Vec<(u64, usize, usize, bool, u64)>,
        stats: CacheStats,
    }

    impl ScanModel<'_> {
        fn find(&self, fp: u64, i: usize, j: usize) -> Option<usize> {
            self.live.iter().position(|e| {
                e.0 == fp
                    && is_isomorphic(&self.pool[i], &self.pool[e.1])
                    && is_isomorphic(&self.pool[j], &self.pool[e.2])
            })
        }

        fn lookup(&mut self, fp: u64, i: usize, j: usize) -> Option<bool> {
            if self.capacity == 0 {
                self.stats.misses += 1;
                return None;
            }
            self.tick += 1;
            match self.find(fp, i, j) {
                Some(at) => {
                    self.stats.hits += 1;
                    self.live[at].4 = self.tick;
                    Some(self.live[at].3)
                }
                None => {
                    self.stats.misses += 1;
                    None
                }
            }
        }

        fn insert(&mut self, fp: u64, i: usize, j: usize, answer: bool) {
            if self.capacity == 0 {
                return;
            }
            self.tick += 1;
            if self.find(fp, i, j).is_some() {
                return;
            }
            self.live.push((fp, i, j, answer, self.tick));
            if self.live.len() > self.capacity {
                let victim = (0..self.live.len())
                    .min_by_key(|&at| self.live[at].4)
                    .expect("non-empty");
                self.live.remove(victim);
                self.stats.evictions += 1;
            }
        }

        fn clear(&mut self) -> usize {
            let dropped = self.live.len();
            self.stats.evictions += dropped as u64;
            self.live.clear();
            dropped
        }

        fn stats(&self) -> CacheStats {
            CacheStats {
                entries: self.live.len(),
                capacity: self.capacity,
                ..self.stats
            }
        }

        /// `(σ, last_used, answer)` of every live entry, sorted. Ticks
        /// advance identically on both sides, so equal sets mean the
        /// same entries survived — the same victims were picked.
        fn residents(&self) -> Vec<(u64, u64, bool)> {
            let mut r: Vec<_> = self.live.iter().map(|e| (e.0, e.4, e.3)).collect();
            r.sort_unstable();
            r
        }
    }

    fn residents(cache: &SemanticCache) -> Vec<(u64, u64, bool)> {
        let mut r: Vec<_> = cache
            .entries
            .iter()
            .flat_map(|(k, bucket)| {
                bucket
                    .iter()
                    .map(|e| (k.0, e.last_used, e.answer.contained))
            })
            .collect();
        r.sort_unstable();
        // The recency index maps one-to-one onto the live entries, each
        // filed no later than its last use.
        let indexed: Vec<(u64, Key)> = cache.recency.iter().map(|(t, k)| (*t, *k)).collect();
        let mut filed: Vec<(u64, Key)> = cache
            .entries
            .iter()
            .flat_map(|(k, bucket)| bucket.iter().map(|e| (e.filed, *k)))
            .collect();
        filed.sort_unstable();
        assert_eq!(indexed, filed, "recency index out of step with the buckets");
        assert!(cache
            .entries
            .values()
            .flatten()
            .all(|e| e.filed <= e.last_used));
        r
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn recency_index_picks_the_scans_victims(seed in proptest::prelude::any::<u64>()) {
            let p = parse_program(
                "relation R(a, b).
                 Q0(x) :- R(x, y).
                 Q0r(u) :- R(u, w).
                 Q1(x) :- R(y, x).
                 Q2(x) :- R(x, y), R(y, z).
                 Q2r(a) :- R(a, b), R(b, c).
                 Q3(x) :- R(x, x).
                 Q4(x, y) :- R(x, y).",
            )
            .unwrap();
            let mut rng = proptest::test_runner::TestRng::new(seed);
            let capacity = rng.below(9) as usize;
            let mut cache = SemanticCache::new(capacity);
            let mut model = ScanModel {
                pool: &p.queries,
                capacity,
                tick: 0,
                live: Vec::new(),
                stats: CacheStats::default(),
            };
            let n = p.queries.len() as u64;
            for step in 0..200 {
                let fp = rng.below(2);
                let (i, j) = (rng.below(n) as usize, rng.below(n) as usize);
                match rng.below(20) {
                    0 => assert_eq!(cache.clear(), model.clear(), "step {step}"),
                    1..=9 => {
                        let got = cache.lookup(fp, &p.queries[i], &p.queries[j]);
                        let want = model.lookup(fp, i, j);
                        assert_eq!(got.map(|s| s.contained), want, "step {step}");
                    }
                    _ => {
                        let answer = rng.below(2) == 0;
                        cache.insert(fp, &p.queries[i], &p.queries[j], summary(answer));
                        model.insert(fp, i, j, answer);
                    }
                }
                assert_eq!(cache.stats(), model.stats(), "step {step}");
                assert_eq!(residents(&cache), model.residents(), "step {step}");
            }
        }
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let p = parse_program("relation R(a). Q(x) :- R(x). P(x) :- R(x).").unwrap();
        let mut cache = SemanticCache::new(0);
        cache.insert(1, &p.queries[0], &p.queries[1], summary(true));
        assert_eq!(cache.lookup(1, &p.queries[0], &p.queries[1]), None);
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn sigma_fingerprint_is_order_sensitive_and_stable() {
        let p1 = parse_program("relation R(a, b). fd R: a -> b. ind R[2] <= R[1].").unwrap();
        let p2 = parse_program("relation R(a, b). fd R: a -> b. ind R[2] <= R[1].").unwrap();
        let p3 = parse_program("relation R(a, b). fd R: b -> a. ind R[2] <= R[1].").unwrap();
        assert_eq!(
            sigma_fingerprint(&p1.deps, &p1.catalog),
            sigma_fingerprint(&p2.deps, &p2.catalog)
        );
        assert_ne!(
            sigma_fingerprint(&p1.deps, &p1.catalog),
            sigma_fingerprint(&p3.deps, &p3.catalog)
        );
    }
}
