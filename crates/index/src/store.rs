//! Incremental per-relation indexes over rows of interned symbols.
//!
//! Rows live with their owner (chase state, hom target, database); the
//! structures here are *derived* data the owner keeps in sync. Row ids
//! are caller-chosen `u32`s (conjunct ids for the chase, per-relation
//! row numbers for databases and hom targets) — the index treats them as
//! opaque keys and keeps posting lists sorted by them.

use cqchase_ir::RelId;

use crate::fx::FxHashMap;
use crate::sym::Sym;

/// Posting lists `(relation, column, symbol) → sorted row ids`.
///
/// Supports incremental insertion, deletion, and symbol substitution, so
/// mutating owners (the chase under FD merges) never rebuild. Maps hash
/// with [`FxHasher`](crate::fx::FxHasher): keys are interned symbols we
/// produce ourselves, so SipHash's DoS resistance buys nothing and its
/// cost sits on the join engine's innermost probe.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColumnIndex {
    /// One map per relation per column.
    rels: Vec<Vec<FxHashMap<Sym, Posting>>>,
}

/// One posting list. Most symbols of a chase or a database sit in a
/// single row of a column (every fresh NDV does), so a singleton is
/// held inline and costs no allocation; a second row spills it to a
/// sorted `Vec`.
#[derive(Debug, Clone)]
enum Posting {
    One(u32),
    Many(Vec<u32>),
}

impl Posting {
    fn as_slice(&self) -> &[u32] {
        match self {
            Posting::One(row) => std::slice::from_ref(row),
            Posting::Many(list) => list,
        }
    }

    fn insert(&mut self, row: u32) {
        match self {
            Posting::One(only) if *only == row => {}
            Posting::One(only) => {
                let only = *only;
                *self = Posting::Many(if only < row {
                    vec![only, row]
                } else {
                    vec![row, only]
                });
            }
            Posting::Many(list) => {
                if let Err(pos) = list.binary_search(&row) {
                    list.insert(pos, row);
                }
            }
        }
    }

    /// Removes `row`; returns whether the list is now empty (the caller
    /// then drops the entry, keeping distinct counts exact).
    fn remove(&mut self, row: u32) -> bool {
        match self {
            Posting::One(only) => *only == row,
            Posting::Many(list) => {
                if let Ok(pos) = list.binary_search(&row) {
                    list.remove(pos);
                }
                list.is_empty()
            }
        }
    }

    /// Heap capacity in row ids.
    fn capacity(&self) -> usize {
        match self {
            Posting::One(_) => 0,
            Posting::Many(list) => list.capacity(),
        }
    }
}

/// Postings compare by their rows, not by representation.
impl PartialEq for Posting {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Posting {}

impl ColumnIndex {
    /// An index over relations with the given arities.
    pub fn new(arities: impl IntoIterator<Item = usize>) -> Self {
        ColumnIndex {
            rels: arities
                .into_iter()
                .map(|a| vec![FxHashMap::default(); a])
                .collect(),
        }
    }

    /// Registers `row` (with symbols `syms`) under every column of `rel`.
    pub fn insert_row(&mut self, rel: RelId, row: u32, syms: &[Sym]) {
        for (col, &sym) in syms.iter().enumerate() {
            Self::add(&mut self.rels[rel.index()][col], sym, row);
        }
    }

    fn add(map: &mut FxHashMap<Sym, Posting>, sym: Sym, row: u32) {
        use std::collections::hash_map::Entry;
        match map.entry(sym) {
            Entry::Occupied(mut e) => e.get_mut().insert(row),
            Entry::Vacant(e) => {
                e.insert(Posting::One(row));
            }
        }
    }

    fn drop_row(map: &mut FxHashMap<Sym, Posting>, sym: Sym, row: u32) {
        if map.get_mut(&sym).is_some_and(|p| p.remove(row)) {
            map.remove(&sym);
        }
    }

    /// Removes `row` (with symbols `syms`) from every column of `rel`.
    pub fn remove_row(&mut self, rel: RelId, row: u32, syms: &[Sym]) {
        for (col, &sym) in syms.iter().enumerate() {
            Self::drop_row(&mut self.rels[rel.index()][col], sym, row);
        }
    }

    /// Drops every posting list of `rel` (the owner is renumbering its
    /// rows wholesale — amortized compaction after deletions — and will
    /// re-register the survivors with [`ColumnIndex::insert_row`]).
    /// Column maps are retained empty, so arities stay stable.
    pub fn clear_rel(&mut self, rel: RelId) {
        for m in &mut self.rels[rel.index()] {
            m.clear();
        }
    }

    /// Releases excess capacity held by `rel`'s column maps and posting
    /// lists: any map or list whose occupancy fell below a quarter of
    /// its capacity is shrunk to fit. Owners call this after compacting
    /// a relation that shrank a lot — a long-lived session must not
    /// hold peak-size allocations forever. Returns the approximate
    /// number of capacity entries released (map slots + posting-list
    /// row ids), for the owner's bytes-reclaimed accounting.
    pub fn shrink_rel(&mut self, rel: RelId) -> usize {
        let mut freed = 0usize;
        for m in &mut self.rels[rel.index()] {
            for posting in m.values_mut() {
                if let Posting::Many(list) = posting {
                    if list.len() < list.capacity() / 4 {
                        freed += list.capacity() - list.len();
                        list.shrink_to_fit();
                    }
                }
            }
            if m.len() < m.capacity() / 4 {
                freed += m.capacity() - m.len();
                m.shrink_to_fit();
            }
        }
        freed
    }

    /// Moves `row` from `from`'s posting list to `to`'s in column `col`
    /// of `rel` (the FD substitution primitive).
    pub fn replace_in_col(&mut self, rel: RelId, col: usize, row: u32, from: Sym, to: Sym) {
        let map = &mut self.rels[rel.index()][col];
        Self::drop_row(map, from, row);
        Self::add(map, to, row);
    }

    /// The sorted row ids with `sym` in column `col` of `rel`. Columns
    /// the index never saw a row for (e.g. a relation with no rows at
    /// all, whose arity the owner could not derive) read as empty.
    pub fn posting(&self, rel: RelId, col: usize, sym: Sym) -> &[u32] {
        self.rels[rel.index()]
            .get(col)
            .and_then(|m| m.get(&sym))
            .map_or(&[], Posting::as_slice)
    }

    /// Length of [`ColumnIndex::posting`] without materializing it.
    pub fn posting_len(&self, rel: RelId, col: usize, sym: Sym) -> usize {
        self.posting(rel, col, sym).len()
    }

    /// Number of distinct symbols currently indexed in column `col` of
    /// `rel` — the posting map's key count, which [`insert_row`] and
    /// [`remove_row`] keep exact incrementally (a symbol's entry is
    /// dropped the moment its posting list empties). This is the
    /// selectivity statistic the cost-based planner feeds on.
    ///
    /// [`insert_row`]: ColumnIndex::insert_row
    /// [`remove_row`]: ColumnIndex::remove_row
    pub fn distinct_count(&self, rel: RelId, col: usize) -> usize {
        self.rels[rel.index()].get(col).map_or(0, FxHashMap::len)
    }

    /// Approximate resident bytes of the posting maps: map capacity
    /// costed per entry plus posting-list capacity in row ids. An
    /// estimate for capacity planning (the many-session bench's
    /// shared-vs-duplicate catalog gate), not an allocator measurement.
    pub fn approx_bytes(&self) -> usize {
        let entry = std::mem::size_of::<Sym>() + std::mem::size_of::<Posting>() + 8;
        let mut bytes = 0usize;
        for cols in &self.rels {
            for m in cols {
                bytes += m.capacity() * entry;
                bytes += m
                    .values()
                    .map(|p| p.capacity() * std::mem::size_of::<u32>())
                    .sum::<usize>();
            }
        }
        bytes
    }

    /// Intersects the posting lists for the given `(col, sym)`
    /// constraints: probes the shortest list and verifies the remaining
    /// constraints via `syms_of`, pushing surviving row ids (ascending)
    /// into `out`.
    ///
    /// `bound` must be nonempty; full enumeration is the owner's job
    /// (only it knows its live-row universe).
    pub fn candidates<'a>(
        &self,
        rel: RelId,
        bound: &[(usize, Sym)],
        syms_of: impl Fn(u32) -> &'a [Sym],
        out: &mut Vec<u32>,
    ) {
        debug_assert!(!bound.is_empty());
        let probe = (0..bound.len())
            .min_by_key(|&i| self.posting_len(rel, bound[i].0, bound[i].1))
            .expect("bound is nonempty");
        let (c0, s0) = bound[probe];
        'rows: for &row in self.posting(rel, c0, s0) {
            let syms = syms_of(row);
            for &(c, s) in bound {
                if syms[c] != s {
                    continue 'rows;
                }
            }
            out.push(row);
        }
    }

    /// Like [`ColumnIndex::candidates`], but stops at the first
    /// intersection row `accept` returns `true` for and returns it —
    /// the early-exit probe for existence checks (witness lookups, FD
    /// applicability, whole-row lookups). Rows are visited in ascending
    /// id order, so the returned row is the minimal accepted match.
    ///
    /// `bound` is walked once to pick the shortest posting list and once
    /// per visited row, so callers pass a lazy iterator and the probe
    /// allocates nothing. An empty `bound` matches nothing.
    pub fn first_candidate<'a>(
        &self,
        rel: RelId,
        bound: impl Iterator<Item = (usize, Sym)> + Clone,
        syms_of: impl Fn(u32) -> &'a [Sym],
        mut accept: impl FnMut(u32) -> bool,
    ) -> Option<u32> {
        let (c0, s0) = bound
            .clone()
            .min_by_key(|&(c, s)| self.posting_len(rel, c, s))?;
        'rows: for &row in self.posting(rel, c0, s0) {
            let syms = syms_of(row);
            for (c, s) in bound.clone() {
                if syms[c] != s {
                    continue 'rows;
                }
            }
            if accept(row) {
                return Some(row);
            }
        }
        None
    }
}

/// Hash-based whole-row duplicate detection: `(relation, symbols) → row`.
///
/// Sharded per relation (like [`ColumnIndex`]) so that per-relation
/// wholesale operations — [`DedupIndex::clear_rel`], the amortized
/// compaction primitive — cost O(that relation's keys), not O(every
/// key in the database). Shards grow on demand, so no arity/relation
/// count is needed at construction.
#[derive(Debug, Clone, Default)]
pub struct DedupIndex {
    /// One map per relation, indexed by `RelId`.
    rels: Vec<FxHashMap<Vec<Sym>, u32>>,
    len: usize,
}

impl DedupIndex {
    /// An empty dedup index.
    pub fn new() -> Self {
        DedupIndex::default()
    }

    fn shard_mut(&mut self, rel: RelId) -> &mut FxHashMap<Vec<Sym>, u32> {
        if self.rels.len() <= rel.index() {
            self.rels.resize_with(rel.index() + 1, FxHashMap::default);
        }
        &mut self.rels[rel.index()]
    }

    /// The row already holding `(rel, syms)`, if any.
    pub fn get(&self, rel: RelId, syms: &[Sym]) -> Option<u32> {
        self.rels.get(rel.index())?.get(syms).copied()
    }

    /// Registers `(rel, syms) → row`; returns the previous holder if the
    /// key was taken (the caller decides who survives).
    pub fn insert(&mut self, rel: RelId, syms: &[Sym], row: u32) -> Option<u32> {
        let prev = self.shard_mut(rel).insert(syms.to_vec(), row);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Registers `(rel, syms) → row` only when the key is free; returns
    /// the existing holder otherwise (without overwriting it). One key
    /// allocation for the combined probe-and-insert — the substitution
    /// hot path's primitive.
    pub fn try_insert(&mut self, rel: RelId, syms: &[Sym], row: u32) -> Option<u32> {
        use std::collections::hash_map::Entry;
        match self.shard_mut(rel).entry(syms.to_vec()) {
            Entry::Occupied(e) => Some(*e.get()),
            Entry::Vacant(e) => {
                e.insert(row);
                self.len += 1;
                None
            }
        }
    }

    /// Drops every key of `rel` (the compaction counterpart of
    /// [`ColumnIndex::clear_rel`]; survivors are re-registered under
    /// their new row ids). Costs only the cleared relation's keys.
    pub fn clear_rel(&mut self, rel: RelId) {
        if let Some(shard) = self.rels.get_mut(rel.index()) {
            self.len -= shard.len();
            shard.clear();
        }
    }

    /// Releases excess capacity held by `rel`'s shard when its
    /// occupancy fell below a quarter of capacity (the compaction
    /// counterpart of [`ColumnIndex::shrink_rel`]). Returns the
    /// approximate number of capacity entries released.
    pub fn shrink_rel(&mut self, rel: RelId) -> usize {
        let Some(shard) = self.rels.get_mut(rel.index()) else {
            return 0;
        };
        if shard.len() < shard.capacity() / 4 {
            let freed = shard.capacity() - shard.len();
            shard.shrink_to_fit();
            freed
        } else {
            0
        }
    }

    /// Removes the entry for `(rel, syms)` when it points at `row`.
    pub fn remove(&mut self, rel: RelId, syms: &[Sym], row: u32) {
        use std::collections::hash_map::Entry;
        let Some(shard) = self.rels.get_mut(rel.index()) else {
            return;
        };
        if let Entry::Occupied(e) = shard.entry(syms.to_vec()) {
            if *e.get() == row {
                e.remove();
                self.len -= 1;
            }
        }
    }

    /// Approximate resident bytes of the dedup shards: shard capacity
    /// costed per entry plus each key row's symbol storage. An estimate
    /// (companion of [`ColumnIndex::approx_bytes`]).
    pub fn approx_bytes(&self) -> usize {
        let entry = std::mem::size_of::<Vec<Sym>>() + std::mem::size_of::<u32>() + 8;
        self.rels
            .iter()
            .map(|shard| {
                shard.capacity() * entry
                    + shard
                        .keys()
                        .map(|k| k.capacity() * std::mem::size_of::<Sym>())
                        .sum::<usize>()
            })
            .sum()
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no keys are registered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(i: u32) -> RelId {
        RelId(i)
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut idx = ColumnIndex::new([2usize]);
        let (a, b, c) = (Sym(0), Sym(1), Sym(2));
        idx.insert_row(rel(0), 0, &[a, b]);
        idx.insert_row(rel(0), 1, &[a, c]);
        assert_eq!(idx.posting(rel(0), 0, a), &[0, 1]);
        idx.remove_row(rel(0), 0, &[a, b]);
        assert_eq!(idx.posting(rel(0), 0, a), &[1]);
        assert!(idx.posting(rel(0), 1, b).is_empty());
    }

    #[test]
    fn singleton_postings_spill_and_compare_by_rows() {
        let (a, b) = (Sym(0), Sym(1));
        let mut idx = ColumnIndex::new([1usize]);
        idx.insert_row(rel(0), 5, &[a]);
        assert_eq!(idx.posting(rel(0), 0, a), &[5]);
        // A second row spills the inline singleton, keeping rows sorted.
        idx.insert_row(rel(0), 2, &[a]);
        idx.insert_row(rel(0), 2, &[a]);
        assert_eq!(idx.posting(rel(0), 0, a), &[2, 5]);
        // Moving a row out of a singleton drops the symbol's entry.
        idx.replace_in_col(rel(0), 0, 5, a, b);
        idx.replace_in_col(rel(0), 0, 2, a, b);
        assert_eq!(idx.posting(rel(0), 0, b), &[2, 5]);
        assert_eq!(idx.distinct_count(rel(0), 0), 1);
        // A spilled list shrunk to one row equals an inline singleton.
        idx.remove_row(rel(0), 5, &[b]);
        let mut fresh = ColumnIndex::new([1usize]);
        fresh.insert_row(rel(0), 2, &[b]);
        assert_eq!(idx, fresh);
        // Removing a row a singleton does not hold leaves it alone.
        fresh.remove_row(rel(0), 9, &[b]);
        assert_eq!(fresh.posting(rel(0), 0, b), &[2]);
    }

    #[test]
    fn clear_rel_drops_only_that_relation() {
        let mut idx = ColumnIndex::new([2usize, 1]);
        let (a, b) = (Sym(0), Sym(1));
        idx.insert_row(rel(0), 0, &[a, b]);
        idx.insert_row(rel(1), 0, &[a]);
        idx.clear_rel(rel(0));
        assert!(idx.posting(rel(0), 0, a).is_empty());
        assert!(idx.posting(rel(0), 1, b).is_empty());
        assert_eq!(idx.posting(rel(1), 0, a), &[0]);
        // Arities survive: re-registering rows works.
        idx.insert_row(rel(0), 7, &[b, a]);
        assert_eq!(idx.posting(rel(0), 0, b), &[7]);
    }

    #[test]
    fn shrink_rel_releases_capacity_after_mass_removal() {
        let mut idx = ColumnIndex::new([1usize]);
        // One symbol with a long posting list, then nearly empty it.
        for row in 0..4096u32 {
            idx.insert_row(rel(0), row, &[Sym(0)]);
        }
        for row in 8..4096u32 {
            idx.remove_row(rel(0), row, &[Sym(0)]);
        }
        assert_eq!(idx.posting_len(rel(0), 0, Sym(0)), 8);
        let freed = idx.shrink_rel(rel(0));
        assert!(freed > 0, "a 4096-capacity list holding 8 rows must shrink");
        assert_eq!(idx.posting(rel(0), 0, Sym(0)), &[0, 1, 2, 3, 4, 5, 6, 7]);

        let mut d = DedupIndex::new();
        for row in 0..4096u32 {
            d.insert(rel(0), &[Sym(row)], row);
        }
        for row in 8..4096u32 {
            d.remove(rel(0), &[Sym(row)], row);
        }
        assert!(d.shrink_rel(rel(0)) > 0);
        assert_eq!(d.len(), 8);
        assert_eq!(d.get(rel(0), &[Sym(3)]), Some(3));
        // A relation the dedup index never saw shrinks to nothing.
        assert_eq!(d.shrink_rel(rel(9)), 0);
    }

    #[test]
    fn dedup_clear_rel_drops_only_that_relation() {
        let mut d = DedupIndex::new();
        let syms = [Sym(0), Sym(1)];
        d.insert(rel(0), &syms, 0);
        d.insert(rel(1), &syms, 4);
        d.clear_rel(rel(0));
        assert_eq!(d.get(rel(0), &syms), None);
        assert_eq!(d.get(rel(1), &syms), Some(4));
        assert_eq!(d.len(), 1);
    }
}
