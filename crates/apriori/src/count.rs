//! Support-counting backends.
//!
//! Every pass-based miner in this workspace funnels through
//! [`count_candidates`] (one candidate size) or [`count_mixed`] (candidates
//! of several sizes in a single pass, as the improved negative algorithm
//! requires). The *mapper* hook lets generalized mining extend each
//! transaction with taxonomy ancestors — counting itself is agnostic.
//!
//! Backends:
//!
//! * [`CountingBackend::HashTree`] — the classic hash tree,
//! * [`CountingBackend::SubsetHashMap`] — a hash map keyed by candidate,
//!   probed either by enumerating the transaction's k-subsets or by testing
//!   each candidate, whichever is cheaper per transaction,
//! * [`CountingBackend::TidBitmap`] — vertical counting (the default; the
//!   fastest backend at every scale `BENCH_counting.json` records): the
//!   pass builds one packed bitset row per item the candidates mention,
//!   then every candidate is counted by word-wise AND + popcount (see
//!   [`negassoc_txdb::vertical`]; DESIGN.md §14),
//! * [`crate::count::count_with_tidlists`] — vertical counting against a
//!   prebuilt [`negassoc_txdb::vertical::TidListIndex`] (no database pass at
//!   all).
//!
//! All backends produce identical counts for identical inputs; the choice
//! only moves wall time and memory.

use crate::hash_tree::HashTree;
use crate::itemset::Itemset;
use negassoc_taxonomy::fxhash::{FxHashMap, FxHashSet};
use negassoc_taxonomy::ItemId;
use negassoc_txdb::block::DEFAULT_BLOCK_SIZE;
use negassoc_txdb::vertical::{BitmapChunk, TidListIndex};
use negassoc_txdb::TransactionSource;
use std::io;

/// Pass-based counting strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CountingBackend {
    /// Hash tree subset counting (Agrawal & Srikant).
    HashTree,
    /// Candidate hash map with adaptive probing.
    SubsetHashMap,
    /// Vertical TID-bitmap counting: AND + popcount over per-item bitsets
    /// built during the pass.
    #[default]
    TidBitmap,
}

/// Transforms a transaction's items before counting (e.g. extends them with
/// taxonomy ancestors). Must leave `buf` strictly ascending.
pub type Mapper<'a> = dyn FnMut(&[ItemId], &mut Vec<ItemId>) + 'a;

/// The identity mapper: count over the literal transaction items.
pub fn identity_mapper(items: &[ItemId], buf: &mut Vec<ItemId>) {
    buf.clear();
    buf.extend_from_slice(items);
}

/// Count the supports of same-size `candidates` over one pass of `source`.
///
/// Returns `(candidate, count)` pairs covering every input candidate.
///
/// # Panics
/// Panics when candidates differ in size.
pub fn count_candidates<S: TransactionSource + ?Sized>(
    source: &S,
    candidates: Vec<Itemset>,
    backend: CountingBackend,
    mapper: &mut Mapper<'_>,
) -> io::Result<Vec<(Itemset, u64)>> {
    if candidates.is_empty() {
        return Ok(Vec::new());
    }
    let k = candidates[0].len();
    assert!(
        candidates.iter().all(|c| c.len() == k),
        "count_candidates requires uniform candidate size"
    );
    if backend == CountingBackend::TidBitmap {
        return count_bitmap(source, candidates, mapper);
    }
    let mut counter = Counter::build(k, candidates, backend);
    let mut buf: Vec<ItemId> = Vec::new();
    source.pass(&mut |t| {
        mapper(t.items(), &mut buf);
        counter.count(&buf);
    })?;
    Ok(counter.into_counts())
}

/// Count supports of mixed-size `candidates` in a *single* pass, grouping
/// them per size internally.
pub fn count_mixed<S: TransactionSource + ?Sized>(
    source: &S,
    candidates: Vec<Itemset>,
    backend: CountingBackend,
    mapper: &mut Mapper<'_>,
) -> io::Result<Vec<(Itemset, u64)>> {
    if candidates.is_empty() {
        return Ok(Vec::new());
    }
    if backend == CountingBackend::TidBitmap {
        return count_bitmap(source, candidates, mapper);
    }
    let mut by_size: FxHashMap<usize, Vec<Itemset>> = FxHashMap::default();
    for c in candidates {
        by_size.entry(c.len()).or_default().push(c);
    }
    // Each size gets its own counter *and* its own item filter: a size's
    // counting structure only cares about items its candidates mention, and
    // walking it with another size's items inflates the subset search. The
    // filter is a linear scan per transaction — far cheaper than the walk
    // it avoids.
    let mut counters: Vec<(Counter, FxHashSet<ItemId>, Vec<ItemId>)> = by_size
        .into_iter()
        .filter(|(k, _)| *k > 0)
        .map(|(k, cands)| {
            let needed = items_of(&cands);
            (Counter::build(k, cands, backend), needed, Vec::new())
        })
        .collect();
    let single = counters.len() == 1;
    let mut buf: Vec<ItemId> = Vec::new();
    source.pass(&mut |t| {
        mapper(t.items(), &mut buf);
        for (counter, needed, scratch) in &mut counters {
            if single {
                // One size: the caller's mapper already filtered for it.
                counter.count(&buf);
            } else {
                scratch.clear();
                scratch.extend(buf.iter().copied().filter(|i| needed.contains(i)));
                counter.count(scratch);
            }
        }
    })?;
    Ok(counters
        .into_iter()
        .flat_map(|(c, _, _)| c.into_counts())
        .collect())
}

pub(crate) fn items_of(candidates: &[Itemset]) -> FxHashSet<ItemId> {
    let mut s = FxHashSet::default();
    for c in candidates {
        s.extend(c.items().iter().copied());
    }
    s
}

/// The bitmap backend's pass-independent setup, shared by the sequential
/// path here and the worker pool in [`crate::parallel`]: a dense row per
/// item the candidates mention (categories included — the mapper already
/// surfaces them per transaction, so a category row *is* the union of its
/// descendants' occurrences) and each candidate pre-resolved to its rows.
pub(crate) struct BitmapPlan {
    /// Item → dense bitmap row.
    pub(crate) row_of: FxHashMap<ItemId, u32>,
    /// Per candidate (input order), the rows to AND.
    pub(crate) cand_rows: Vec<Vec<u32>>,
    /// Number of rows (distinct items mentioned).
    pub(crate) rows: usize,
}

impl BitmapPlan {
    pub(crate) fn new(candidates: &[Itemset]) -> Self {
        let mut needed: Vec<ItemId> = items_of(candidates).into_iter().collect();
        // Sorted assignment keeps row numbering independent of hash order;
        // counts don't care, debuggability does.
        needed.sort_unstable();
        let row_of: FxHashMap<ItemId, u32> = needed
            .iter()
            .enumerate()
            .map(|(i, &item)| (item, i as u32))
            .collect();
        let cand_rows: Vec<Vec<u32>> = candidates
            .iter()
            .map(|c| c.items().iter().map(|i| row_of[i]).collect())
            .collect();
        Self {
            row_of,
            cand_rows,
            rows: needed.len(),
        }
    }
}

/// One counting unit's bitmap state: chunks of packed presence bits filled
/// one transaction at a time. Each scanned transaction takes exactly one
/// bit slot, so chunk popcounts sum to exact supports no matter how the
/// pass was sliced across workers.
pub(crate) struct BitmapWorker {
    chunks: Vec<BitmapChunk>,
    rows: usize,
    /// Free transaction slots in the last chunk.
    room: usize,
}

impl BitmapWorker {
    pub(crate) fn new(rows: usize) -> Self {
        Self {
            chunks: Vec::new(),
            rows,
            room: 0,
        }
    }

    /// Record one mapped transaction: set the bit for every item that has
    /// a row. Items outside the plan (not mentioned by any candidate) are
    /// simply ignored.
    pub(crate) fn add(&mut self, items: &[ItemId], row_of: &FxHashMap<ItemId, u32>) {
        if self.room == 0 {
            self.chunks
                .push(BitmapChunk::new(self.rows, DEFAULT_BLOCK_SIZE));
            self.room = DEFAULT_BLOCK_SIZE;
        }
        let offset = DEFAULT_BLOCK_SIZE - self.room;
        if let Some(chunk) = self.chunks.last_mut() {
            for item in items {
                if let Some(&row) = row_of.get(item) {
                    chunk.set(row, offset);
                }
            }
        }
        self.room -= 1;
    }

    /// Transactions seen by this worker containing all of `rows`, with the
    /// words visited added to `words_anded`. An empty `rows` slice counts
    /// 0 (the horizontal paths never report the empty itemset either).
    pub(crate) fn count_tracked(&self, rows: &[u32], words_anded: &mut u64) -> u64 {
        if rows.is_empty() {
            return 0;
        }
        let mut total = 0u64;
        for chunk in &self.chunks {
            *words_anded += (chunk.words_per_row() * rows.len()) as u64;
            total += chunk.count(rows);
        }
        total
    }

    /// Total `u64` words this worker's chunks hold.
    pub(crate) fn words_built(&self) -> u64 {
        self.chunks.iter().map(BitmapChunk::total_words).sum()
    }
}

/// The sequential TID-bitmap pass behind [`count_candidates`] and
/// [`count_mixed`] with [`CountingBackend::TidBitmap`]: one streaming pass
/// fills the bitmaps, then every candidate is an AND + popcount. Matching
/// [`count_mixed`], zero-size candidates are dropped from the output.
fn count_bitmap<S: TransactionSource + ?Sized>(
    source: &S,
    candidates: Vec<Itemset>,
    mapper: &mut Mapper<'_>,
) -> io::Result<Vec<(Itemset, u64)>> {
    let plan = BitmapPlan::new(&candidates);
    let mut worker = BitmapWorker::new(plan.rows);
    let mut buf: Vec<ItemId> = Vec::new();
    source.pass(&mut |t| {
        mapper(t.items(), &mut buf);
        worker.add(&buf, &plan.row_of);
    })?;
    let mut anded = 0u64;
    Ok(candidates
        .into_iter()
        .zip(plan.cand_rows.iter())
        .filter(|(c, _)| !c.is_empty())
        .map(|(c, rows)| {
            let n = worker.count_tracked(rows, &mut anded);
            (c, n)
        })
        .collect())
}

/// One size's counting structure (shared with the parallel counting layer,
/// where every worker owns one per candidate size).
pub(crate) enum Counter {
    Tree(HashTree),
    Map {
        k: usize,
        map: FxHashMap<Itemset, u64>,
    },
}

impl Counter {
    pub(crate) fn build(k: usize, candidates: Vec<Itemset>, backend: CountingBackend) -> Self {
        match backend {
            // The bitmap backend is dispatched to its vertical path before
            // any Counter exists; if a call site ever misses that dispatch
            // the hash tree still produces exact counts (slower, never
            // wrong).
            CountingBackend::HashTree | CountingBackend::TidBitmap => {
                Counter::Tree(HashTree::build(k, candidates))
            }
            CountingBackend::SubsetHashMap => {
                let map = candidates.into_iter().map(|c| (c, 0)).collect();
                Counter::Map { k, map }
            }
        }
    }

    pub(crate) fn count(&mut self, items: &[ItemId]) {
        match self {
            Counter::Tree(t) => t.count_transaction(items),
            Counter::Map { k, map } => count_into_map(items, *k, map),
        }
    }

    pub(crate) fn into_counts(self) -> Vec<(Itemset, u64)> {
        match self {
            Counter::Tree(t) => t.into_counts(),
            Counter::Map { map, .. } => map.into_iter().collect(),
        }
    }
}

/// Adaptive hash-map probing: when the transaction has few k-subsets,
/// enumerate them and look each up; otherwise test every candidate against
/// the transaction.
fn count_into_map(items: &[ItemId], k: usize, map: &mut FxHashMap<Itemset, u64>) {
    if items.len() < k || k == 0 {
        return;
    }
    let n = items.len();
    let subsets = binomial(n, k);
    if subsets <= map.len() as u128 * 4 {
        let mut idx: Vec<usize> = (0..k).collect();
        let mut scratch: Vec<ItemId> = vec![ItemId(0); k];
        loop {
            for (s, &i) in scratch.iter_mut().zip(idx.iter()) {
                *s = items[i];
            }
            // The scratch is ascending because `idx` is ascending over a
            // sorted transaction.
            let key = Itemset::from_sorted(scratch.clone());
            if let Some(c) = map.get_mut(&key) {
                *c += 1;
            }
            // Advance to the next k-combination of 0..n.
            let mut pos = k;
            while pos > 0 && idx[pos - 1] == n - (k - pos) - 1 {
                pos -= 1;
            }
            if pos == 0 {
                return;
            }
            idx[pos - 1] += 1;
            for q in pos..k {
                idx[q] = idx[q - 1] + 1;
            }
        }
    } else {
        for (cand, count) in map.iter_mut() {
            if crate::itemset::is_sorted_subset(cand.items(), items) {
                *count += 1;
            }
        }
    }
}

/// `C(n, k)` saturating at a large cap (only compared against map sizes).
fn binomial(n: usize, k: usize) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc.saturating_mul((n - i) as u128) / (i + 1) as u128;
        if acc > 1 << 100 {
            return u128::MAX;
        }
    }
    acc
}

/// Count `candidates` (any sizes) against a prebuilt vertical index; no
/// database pass is made.
pub fn count_with_tidlists(index: &TidListIndex, candidates: Vec<Itemset>) -> Vec<(Itemset, u64)> {
    candidates
        .into_iter()
        .map(|c| {
            let s = index.support(c.items());
            (c, s)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use negassoc_txdb::TransactionDbBuilder;

    fn set(v: &[u32]) -> Itemset {
        Itemset::from_unsorted(v.iter().map(|&i| ItemId(i)).collect())
    }

    fn sample_db() -> negassoc_txdb::TransactionDb {
        let mut b = TransactionDbBuilder::new();
        b.add([ItemId(1), ItemId(2), ItemId(3)]);
        b.add([ItemId(1), ItemId(2)]);
        b.add([ItemId(2), ItemId(3)]);
        b.add([ItemId(1), ItemId(3), ItemId(4)]);
        b.build()
    }

    fn sorted(mut v: Vec<(Itemset, u64)>) -> Vec<(Itemset, u64)> {
        v.sort();
        v
    }

    #[test]
    fn backends_agree_on_pairs() {
        let db = sample_db();
        let candidates = vec![set(&[1, 2]), set(&[2, 3]), set(&[1, 4]), set(&[3, 4])];
        let expected = vec![
            (set(&[1, 2]), 2),
            (set(&[1, 4]), 1),
            (set(&[2, 3]), 2),
            (set(&[3, 4]), 1),
        ];
        for backend in [CountingBackend::HashTree, CountingBackend::SubsetHashMap] {
            let got =
                count_candidates(&db, candidates.clone(), backend, &mut identity_mapper).unwrap();
            assert_eq!(sorted(got), expected, "{backend:?}");
        }
    }

    #[test]
    fn mixed_sizes_single_structure_per_size() {
        let db = sample_db();
        let candidates = vec![set(&[1]), set(&[1, 2]), set(&[1, 2, 3])];
        let got = sorted(
            count_mixed(
                &db,
                candidates,
                CountingBackend::HashTree,
                &mut identity_mapper,
            )
            .unwrap(),
        );
        assert_eq!(
            got,
            vec![(set(&[1]), 3), (set(&[1, 2]), 2), (set(&[1, 2, 3]), 1)]
        );
    }

    #[test]
    fn mapper_can_rewrite_transactions() {
        let db = sample_db();
        // A mapper that drops item 3 from every transaction.
        let mut mapper = |items: &[ItemId], buf: &mut Vec<ItemId>| {
            buf.clear();
            buf.extend(items.iter().copied().filter(|i| i.0 != 3));
        };
        let got = count_candidates(
            &db,
            vec![set(&[2, 3]), set(&[1, 2])],
            CountingBackend::HashTree,
            &mut mapper,
        )
        .unwrap();
        assert_eq!(sorted(got), vec![(set(&[1, 2]), 2), (set(&[2, 3]), 0)]);
    }

    #[test]
    fn empty_candidates_short_circuit() {
        let db = sample_db();
        assert!(count_candidates(
            &db,
            Vec::new(),
            CountingBackend::HashTree,
            &mut identity_mapper
        )
        .unwrap()
        .is_empty());
        assert!(count_mixed(
            &db,
            Vec::new(),
            CountingBackend::HashTree,
            &mut identity_mapper
        )
        .unwrap()
        .is_empty());
    }

    #[test]
    fn subset_enumeration_path_matches_candidate_scan_path() {
        // Force both code paths of count_into_map and compare.
        let items: Vec<ItemId> = (0..8).map(ItemId).collect();
        let all_pairs: Vec<Itemset> = (0..8u32)
            .flat_map(|a| ((a + 1)..8).map(move |b| set(&[a, b])))
            .collect();

        // Few candidates -> candidate-scan path.
        let mut small: FxHashMap<Itemset, u64> = vec![(set(&[0, 1]), 0), (set(&[6, 7]), 0)]
            .into_iter()
            .collect();
        count_into_map(&items, 2, &mut small);
        assert!(small.values().all(|&v| v == 1));

        // Many candidates -> subset-enumeration path.
        let mut big: FxHashMap<Itemset, u64> = all_pairs.iter().cloned().map(|c| (c, 0)).collect();
        count_into_map(&items, 2, &mut big);
        assert!(big.values().all(|&v| v == 1));
        assert_eq!(big.len(), 28);
    }

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(10, 0), 1);
        assert_eq!(binomial(3, 5), 0);
        assert_eq!(binomial(52, 5), 2_598_960);
    }

    #[test]
    fn vertical_counting_matches() {
        let db = sample_db();
        let idx = TidListIndex::build(&db).unwrap();
        let got = sorted(count_with_tidlists(
            &idx,
            vec![set(&[1, 2]), set(&[1, 2, 3]), set(&[9])],
        ));
        assert_eq!(
            got,
            vec![(set(&[1, 2]), 2), (set(&[1, 2, 3]), 1), (set(&[9]), 0)]
        );
    }
}
