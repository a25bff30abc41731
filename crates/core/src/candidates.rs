//! Candidate negative itemsets (paper §2.1.1).
//!
//! Candidates of size `k` are derived from each generalized large k-itemset
//! `l` by substituting members:
//!
//! * **Case 1** — every member replaced by one of its immediate children,
//! * **Case 2** — a proper nonempty subset of members replaced by children,
//! * **Case 3** — a proper nonempty subset replaced by siblings.
//!
//! Both substitution kinds scale the expectation by
//! `sup(new)/sup(replaced)` per position (see [`crate::expected`]), so the
//! implementation iterates over nonempty position masks and, per mask, over
//! the cartesian products of child options and (for proper masks) sibling
//! options. The excluded shapes (§2.1.1: all-siblings, ancestors, mixed
//! children+siblings) never arise by construction.
//!
//! Most combinations fall far below the admission threshold, so the
//! products are walked depth first with each position's options sorted by
//! descending support: a position's options are abandoned as soon as the
//! best completion of the current one cannot reach `MinSup · MinRI`. The
//! cut skips only combinations check 3 below would reject, so the
//! candidates are exactly those of the full enumeration.
//!
//! A candidate is admitted only when (checked in this order):
//!
//! 1. its items are distinct and contain no ancestor/descendant pair,
//! 2. every 1-item is large (pre-guaranteed when generating against a
//!    compressed taxonomy; checked explicitly otherwise),
//! 3. its expected support reaches `MinSup · MinRI`,
//! 4. it is not itself a large itemset (then it is positively, not
//!    negatively, interesting — see the paper's worked example).
//!
//! The same candidate can arise from different large itemsets with
//! different expectations; the **largest** expected support wins (§2.1.1).

use crate::error::NegAssocError;
use crate::expected::{approx_ge, candidate_threshold, expected_support, support_to_f64, Ratio};
use crate::substitutes::SubstituteKnowledge;
use negassoc_apriori::generalized::AncestorTable;
use negassoc_apriori::{Itemset, LargeItemsets};
use negassoc_taxonomy::fxhash::FxHashMap;
use negassoc_taxonomy::{FilteredTaxonomy, ItemId, Taxonomy};
use std::cmp::Reverse;

/// Which of the paper's generation cases produced a candidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DerivationCase {
    /// Case 1: every member of the seed replaced by a child.
    AllChildren,
    /// Case 2: a proper subset of members replaced by children.
    SomeChildren,
    /// Case 3: a proper subset of members replaced by siblings (or
    /// declared substitutes).
    Siblings,
}

/// Where a candidate's (winning) expected support came from: the large
/// itemset it was derived from and the substitution case used.
#[derive(Clone, Debug, PartialEq)]
pub struct Derivation {
    /// The large itemset that seeded the candidate.
    pub seed: Itemset,
    /// The seed's support.
    pub seed_support: u64,
    /// The substitution case.
    pub case: DerivationCase,
}

/// A candidate negative itemset with its (max) expected support.
#[derive(Clone, Debug, PartialEq)]
pub struct NegativeCandidate {
    /// The itemset.
    pub itemset: Itemset,
    /// Taxonomy-derived expected support (absolute transactions).
    pub expected: f64,
    /// Provenance of the winning expectation (for auditability).
    pub derivation: Derivation,
}

/// A confirmed negative itemset: counted support fell short of the
/// expectation by at least `MinSup · MinRI`.
#[derive(Clone, Debug, PartialEq)]
pub struct NegativeItemset {
    /// The itemset.
    pub itemset: Itemset,
    /// Expected support.
    pub expected: f64,
    /// Actual counted support.
    pub actual: u64,
    /// Provenance of the expectation, when tracked (itemsets built by the
    /// miners always carry it; hand-built ones may not).
    pub derivation: Option<Derivation>,
}

/// Counters describing one candidate-generation run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CandidateStats {
    /// Large itemsets that seeded generation.
    pub seeds: u64,
    /// Substitution combinations that reached the admission checks.
    pub generated: u64,
    /// Substitution combinations skipped without being assembled: the
    /// expectation bound ruled out every one of them (see
    /// `CandidateGenerator::emit_products`). Each combination the seeds
    /// define is counted once, in `generated` or here.
    pub pruned: u64,
    /// Rejected: duplicate members or ancestor/descendant pair.
    pub rejected_related: u64,
    /// Rejected: some 1-item not large. Only possible when a retained item
    /// is not large; such an item's ratio counts as 0, so unless the
    /// threshold is (near) zero the bound cuts these into `pruned`.
    pub rejected_small_item: u64,
    /// Rejected: expected support below `MinSup · MinRI`.
    pub rejected_low_expected: u64,
    /// Rejected: the candidate is itself a large itemset.
    pub rejected_large: u64,
    /// Duplicates merged into an existing candidate (max expectation kept).
    pub merged: u64,
    /// Final number of distinct candidates.
    pub unique: u64,
}

/// Accumulates candidates across levels with max-expectation deduplication.
pub struct CandidateSet {
    map: FxHashMap<Itemset, (f64, Derivation)>,
    stats: CandidateStats,
}

impl CandidateSet {
    /// An empty set.
    pub fn new() -> Self {
        Self {
            map: FxHashMap::default(),
            stats: CandidateStats::default(),
        }
    }

    /// Number of distinct candidates so far.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no candidates have been admitted.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Generation counters.
    pub fn stats(&self) -> &CandidateStats {
        &self.stats
    }

    /// Finish: the candidates, in unspecified order.
    pub fn into_candidates(mut self) -> (Vec<NegativeCandidate>, CandidateStats) {
        self.stats.unique = self.map.len() as u64;
        let v = self
            .map
            .into_iter()
            .map(|(itemset, (expected, derivation))| NegativeCandidate {
                itemset,
                expected,
                derivation,
            })
            .collect();
        (v, self.stats)
    }
}

impl Default for CandidateSet {
    fn default() -> Self {
        Self::new()
    }
}

/// Generates negative candidates from large itemsets and a taxonomy.
///
/// The option lists are built once per generator, not once per seed: every
/// item's retained children, sorted by descending 1-item support, in one
/// flat table. An item's siblings are its parent's list minus the item
/// itself, so they share that order.
pub struct CandidateGenerator<'a> {
    tax: &'a Taxonomy,
    ancestors: AncestorTable,
    large: &'a LargeItemsets,
    threshold: f64,
    /// 1-item support per item index; `None` when the item is not large.
    support: Vec<Option<u64>>,
    /// Per item index: the item survives the filter (in the compressed
    /// taxonomy when one is given, large otherwise).
    retained: Vec<bool>,
    /// Item `i`'s retained children are `kids[kid_start[i]..kid_start[i + 1]]`,
    /// by descending support (ties keep taxonomy order).
    kid_start: Vec<usize>,
    kids: Vec<ItemId>,
    /// Per item index: its position in its parent's child list, when
    /// retained.
    rank: Vec<Option<usize>>,
    /// Sibling lists of items with declared substitutes (§4.1), merged with
    /// their taxonomy siblings and sorted by descending support.
    substitute_siblings: FxHashMap<ItemId, Vec<ItemId>>,
}

impl<'a> CandidateGenerator<'a> {
    /// A generator over the full taxonomy whose options are its large
    /// items (the naive algorithm's behaviour).
    pub fn new(tax: &'a Taxonomy, large: &'a LargeItemsets, min_ri: f64) -> Self {
        Self::with_filter(tax, None, large, min_ri)
    }

    /// A generator over a compressed taxonomy (§2.2.2): its options are
    /// the retained items.
    pub fn with_compressed(
        filtered: &'a FilteredTaxonomy<'a>,
        large: &'a LargeItemsets,
        min_ri: f64,
    ) -> Self {
        Self::with_filter(filtered.base(), Some(filtered), large, min_ri)
    }

    fn with_filter(
        tax: &'a Taxonomy,
        filtered: Option<&FilteredTaxonomy<'_>>,
        large: &'a LargeItemsets,
        min_ri: f64,
    ) -> Self {
        let mut support: Vec<Option<u64>> = vec![None; tax.len()];
        for (set, count) in large.level(1) {
            if let Some(slot) = set.items().first().and_then(|i| support.get_mut(i.index())) {
                *slot = Some(count);
            }
        }
        let retained: Vec<bool> = match filtered {
            Some(f) => tax.items().map(|i| f.contains(i)).collect(),
            None => support.iter().map(Option::is_some).collect(),
        };
        let mut kid_start = Vec::with_capacity(tax.len() + 1);
        let mut kids = Vec::new();
        let mut rank = vec![None; tax.len()];
        for item in tax.items() {
            let from = kids.len();
            kid_start.push(from);
            kids.extend(
                tax.children(item)
                    .iter()
                    .copied()
                    .filter(|c| retained[c.index()]),
            );
            kids[from..].sort_by_key(|c| Reverse(support[c.index()]));
            for (r, c) in kids[from..].iter().enumerate() {
                rank[c.index()] = Some(r);
            }
        }
        kid_start.push(kids.len());
        Self {
            tax,
            ancestors: AncestorTable::new(tax),
            large,
            threshold: candidate_threshold(large.min_support_count(), min_ri),
            support,
            retained,
            kid_start,
            kids,
            rank,
            substitute_siblings: FxHashMap::default(),
        }
    }

    /// Attach explicit substitute-item knowledge (§4.1 extension): members
    /// of a substitute group act as additional "siblings" in Case 3.
    pub fn with_substitutes(mut self, subs: &SubstituteKnowledge) -> Self {
        let mut merged = FxHashMap::default();
        for item in self.tax.items() {
            if subs.substitutes_of(item).next().is_none() {
                continue;
            }
            let (kin, skip) = self.taxonomy_siblings(item);
            let mut list: Vec<ItemId> = kin
                .iter()
                .enumerate()
                .filter(|&(i, _)| Some(i) != skip)
                .map(|(_, &s)| s)
                .collect();
            for s in subs.substitutes_of(item) {
                if self.is_retained(s) && !list.contains(&s) {
                    list.push(s);
                }
            }
            list.sort_by_key(|&s| Reverse(self.support_1(s)));
            merged.insert(item, list);
        }
        self.substitute_siblings = merged;
        self
    }

    fn support_1(&self, item: ItemId) -> Option<u64> {
        self.support.get(item.index()).copied().flatten()
    }

    fn is_retained(&self, item: ItemId) -> bool {
        self.retained.get(item.index()).copied().unwrap_or(false)
    }

    /// Retained children of `item`, by descending support.
    fn children_of(&self, item: ItemId) -> &[ItemId] {
        let i = item.index();
        &self.kids[self.kid_start[i]..self.kid_start[i + 1]]
    }

    /// The parent's child list and the position of `item` in it (the one
    /// entry that is not a sibling).
    fn taxonomy_siblings(&self, item: ItemId) -> (&[ItemId], Option<usize>) {
        match self.tax.parent(item) {
            Some(p) => (self.children_of(p), self.rank[item.index()]),
            None => (&[], None),
        }
    }

    /// Retained siblings of `item` (plus substitute-group members when
    /// configured), as a list and the position to skip in it.
    fn siblings_of(&self, item: ItemId) -> (&[ItemId], Option<usize>) {
        match self.substitute_siblings.get(&item) {
            Some(list) => (list, None),
            None => self.taxonomy_siblings(item),
        }
    }

    /// Generate all candidates seeded by the large k-itemsets into `set`.
    pub fn extend_from_level(&self, k: usize, set: &mut CandidateSet) -> Result<(), NegAssocError> {
        debug_assert!(k >= 2);
        let mut seeds: Vec<(&Itemset, u64)> = self.large.level(k).collect();
        // Deterministic order keeps stats and iteration reproducible.
        seeds.sort_by(|a, b| a.0.cmp(b.0));
        for (itemset, support) in seeds {
            // A seed whose members are not all retained can still be large;
            // its members ARE large by downward closure, so retention can
            // only fail for out-of-taxonomy items. Skip those seeds.
            if !itemset.items().iter().all(|&i| self.is_retained(i)) {
                continue;
            }
            set.stats.seeds += 1;
            self.extend_from_itemset(itemset, support, set)?;
        }
        Ok(())
    }

    /// Generate all candidates seeded by one large itemset.
    pub fn extend_from_itemset(
        &self,
        itemset: &Itemset,
        support: u64,
        set: &mut CandidateSet,
    ) -> Result<(), NegAssocError> {
        let k = itemset.len();
        debug_assert!(k >= 2, "negative candidates need seeds of size >= 2");
        let full_mask: u32 = (1 << k) - 1;
        let mut slots: Vec<Slot<'_>> = Vec::with_capacity(k);
        let mut walk = Walk {
            seed: itemset,
            support,
            case: DerivationCase::AllChildren,
            tail: Vec::with_capacity(k + 1),
            items: itemset.items().to_vec(),
            ratios: Vec::with_capacity(k),
        };
        for mask in 1..=full_mask {
            // Children substitutions: any nonempty mask (cases 1 & 2).
            if self.collect_slots(itemset, mask, &mut slots, OptionKind::Children) {
                walk.case = if mask == full_mask {
                    DerivationCase::AllChildren
                } else {
                    DerivationCase::SomeChildren
                };
                self.emit_products(&mut walk, &slots, set)?;
            }
            // Sibling substitutions: proper nonempty masks only (case 3).
            if mask != full_mask
                && self.collect_slots(itemset, mask, &mut slots, OptionKind::Siblings)
            {
                walk.case = DerivationCase::Siblings;
                self.emit_products(&mut walk, &slots, set)?;
            }
        }
        Ok(())
    }

    /// Fill one [`Slot`] per masked position; `false` when some masked
    /// position has no option (no product exists).
    fn collect_slots<'g>(
        &'g self,
        itemset: &Itemset,
        mask: u32,
        slots: &mut Vec<Slot<'g>>,
        kind: OptionKind,
    ) -> bool {
        slots.clear();
        for (pos, &member) in itemset.items().iter().enumerate() {
            if mask & (1 << pos) == 0 {
                continue;
            }
            let (opts, skip) = match kind {
                OptionKind::Children => (self.children_of(member), None),
                OptionKind::Siblings => self.siblings_of(member),
            };
            let base = self.support_1(member);
            let Some((_, &best)) = opts.iter().enumerate().find(|&(i, _)| Some(i) != skip) else {
                return false;
            };
            slots.push(Slot {
                pos,
                base,
                opts,
                skip,
                max_ratio: ratio(self.support_1(best), base),
            });
        }
        true
    }

    /// Emit every combination of the slots' options whose expected support
    /// can still reach the threshold.
    ///
    /// The walk is depth-first in slot order and carries the partial
    /// product `sup(seed) · Π ratio`, multiplied left to right exactly as
    /// [`expected_support`] does. Before descending it bounds every
    /// completion by multiplying, again left to right, the remaining slots'
    /// largest ratios. Float multiplication of non-negative values is
    /// monotone, so no completion's `E` exceeds that bound; and options are
    /// sorted by descending ratio, so once the bound misses the threshold
    /// every later option of the slot misses it too. The cut is exact:
    /// only combinations the admission test would reject are skipped, and
    /// they are counted in [`CandidateStats::pruned`].
    fn emit_products(
        &self,
        walk: &mut Walk<'_>,
        slots: &[Slot<'_>],
        set: &mut CandidateSet,
    ) -> Result<(), NegAssocError> {
        walk.tail.clear();
        walk.tail.resize(slots.len() + 1, 1);
        for (j, s) in slots.iter().enumerate().rev() {
            walk.tail[j] = walk.tail[j + 1].saturating_mul(s.options());
        }
        walk.items.copy_from_slice(walk.seed.items());
        let start = support_to_f64(walk.support);
        self.descend(walk, slots, 0, start, set)
    }

    fn descend(
        &self,
        walk: &mut Walk<'_>,
        slots: &[Slot<'_>],
        j: usize,
        partial: f64,
        set: &mut CandidateSet,
    ) -> Result<(), NegAssocError> {
        let Some(slot) = slots.get(j) else {
            return self.admit_walk(walk, slots, set);
        };
        for (i, &item) in slot.opts.iter().enumerate() {
            if Some(i) == slot.skip {
                continue;
            }
            let here = partial * ratio(self.support_1(item), slot.base);
            let bound = slots[j + 1..].iter().fold(here, |b, s| b * s.max_ratio);
            // A NaN bound (a zero base support) cuts nothing: such
            // combinations reach `expected_support`, which reports them.
            if !bound.is_nan() && !approx_ge(bound, self.threshold) {
                set.stats.pruned = set
                    .stats
                    .pruned
                    .saturating_add(slot.options_from(i).saturating_mul(walk.tail[j + 1]));
                break;
            }
            walk.items[slot.pos] = item;
            self.descend(walk, slots, j + 1, here, set)?;
        }
        Ok(())
    }

    /// Check the fully assembled combination in `walk.items`.
    fn admit_walk(
        &self,
        walk: &mut Walk<'_>,
        slots: &[Slot<'_>],
        set: &mut CandidateSet,
    ) -> Result<(), NegAssocError> {
        set.stats.generated += 1;
        walk.ratios.clear();
        for slot in slots {
            match (self.support_1(walk.items[slot.pos]), slot.base) {
                (Some(new_support), Some(base_support)) => walk.ratios.push(Ratio {
                    new_support,
                    base_support,
                }),
                _ => {
                    set.stats.rejected_small_item += 1;
                    return Ok(());
                }
            }
        }
        self.admit(
            &walk.items,
            walk.seed,
            walk.support,
            &walk.ratios,
            walk.case,
            set,
        )
    }

    /// Validate one assembled candidate and insert it (max expectation).
    fn admit(
        &self,
        items: &[ItemId],
        seed: &Itemset,
        support: u64,
        ratios: &[Ratio],
        case: DerivationCase,
        set: &mut CandidateSet,
    ) -> Result<(), NegAssocError> {
        let candidate = Itemset::from_unsorted(items.to_vec());
        if candidate.len() != items.len() || self.ancestors.has_related_pair(candidate.items()) {
            set.stats.rejected_related += 1;
            return Ok(());
        }
        // Ratio bases are supports of large items (positive), so this only
        // errors on a genuine upstream bug — surfaced, not unwrapped.
        let expected = expected_support(support, ratios)?;
        if !approx_ge(expected, self.threshold) {
            set.stats.rejected_low_expected += 1;
            return Ok(());
        }
        if self.large.contains(&candidate) {
            set.stats.rejected_large += 1;
            return Ok(());
        }
        let derivation = || Derivation {
            seed: seed.clone(),
            seed_support: support,
            case,
        };
        match set.map.entry(candidate) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                set.stats.merged += 1;
                if expected > e.get().0 {
                    e.insert((expected, derivation()));
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert((expected, derivation()));
            }
        }
        Ok(())
    }
}

#[derive(Clone, Copy)]
enum OptionKind {
    Children,
    Siblings,
}

/// One masked position of a seed and the options that may replace its
/// member.
struct Slot<'g> {
    /// Position in the seed.
    pos: usize,
    /// Support of the replaced member: every option's ratio base.
    base: Option<u64>,
    /// The options by descending support, except `opts[skip]` (the member
    /// itself, when `opts` is its parent's child list).
    opts: &'g [ItemId],
    skip: Option<usize>,
    /// The first option's ratio, the largest.
    max_ratio: f64,
}

impl Slot<'_> {
    /// Number of options.
    fn options(&self) -> u64 {
        self.options_from(0)
    }

    /// Number of options at index `i` of `opts` or later.
    fn options_from(&self, i: usize) -> u64 {
        let skipped = matches!(self.skip, Some(s) if s >= i);
        (self.opts.len() - i - usize::from(skipped)) as u64
    }
}

/// State of one seed's product walks.
struct Walk<'s> {
    seed: &'s Itemset,
    support: u64,
    case: DerivationCase,
    /// `tail[j]`: combinations of slot `j` and the slots after it.
    tail: Vec<u64>,
    /// The seed's items with the current choices written in.
    items: Vec<ItemId>,
    /// The current choices' ratios, filled for each admission check.
    ratios: Vec<Ratio>,
}

/// One replacement's factor, as [`expected_support`] multiplies it; 0 when
/// either item is not large (such a combination is never admitted).
fn ratio(new: Option<u64>, base: Option<u64>) -> f64 {
    match (new, base) {
        (Some(new_support), Some(base_support)) => Ratio {
            new_support,
            base_support,
        }
        .factor(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use negassoc_taxonomy::TaxonomyBuilder;

    /// The paper's Figure 1 taxonomy:
    /// A -> {B, C}, C -> {D, E}; F -> {G, H, I}, G -> {J, K}.
    fn fig1() -> (Taxonomy, FxHashMap<&'static str, ItemId>) {
        let mut b = TaxonomyBuilder::new();
        let a = b.add_root("A");
        let bb = b.add_child(a, "B").unwrap();
        let c = b.add_child(a, "C").unwrap();
        let d = b.add_child(c, "D").unwrap();
        let e = b.add_child(c, "E").unwrap();
        let f = b.add_root("F");
        let g = b.add_child(f, "G").unwrap();
        let h = b.add_child(f, "H").unwrap();
        let i = b.add_child(f, "I").unwrap();
        let j = b.add_child(g, "J").unwrap();
        let kk = b.add_child(g, "K").unwrap();
        let tax = b.build();
        let names: FxHashMap<&'static str, ItemId> = [
            ("A", a),
            ("B", bb),
            ("C", c),
            ("D", d),
            ("E", e),
            ("F", f),
            ("G", g),
            ("H", h),
            ("I", i),
            ("J", j),
            ("K", kk),
        ]
        .into_iter()
        .collect();
        (tax, names)
    }

    /// Large itemsets for the Figure 1 discussion: {C, G} is large, every
    /// single item is large with round supports.
    fn fig1_large(names: &FxHashMap<&'static str, ItemId>) -> LargeItemsets {
        let mut l = LargeItemsets::new(10_000, 100);
        for (name, sup) in [
            ("A", 4000u64),
            ("B", 1500),
            ("C", 2500),
            ("D", 1200),
            ("E", 1300),
            ("F", 5000),
            ("G", 2000),
            ("H", 1600),
            ("I", 1400),
            ("J", 900),
            ("K", 1100),
        ] {
            l.insert(Itemset::singleton(names[name]), sup);
        }
        l.insert(Itemset::from_unsorted(vec![names["C"], names["G"]]), 800);
        l
    }

    fn candidates_of(
        tax: &Taxonomy,
        large: &LargeItemsets,
        min_ri: f64,
    ) -> (Vec<NegativeCandidate>, CandidateStats) {
        let gene = CandidateGenerator::new(tax, large, min_ri);
        let mut set = CandidateSet::new();
        gene.extend_from_level(2, &mut set).unwrap();
        set.into_candidates()
    }

    fn names_of(tax: &Taxonomy, c: &NegativeCandidate) -> Vec<String> {
        let mut v: Vec<String> = c
            .itemset
            .items()
            .iter()
            .map(|&i| tax.name(i).to_owned())
            .collect();
        v.sort();
        v
    }

    #[test]
    fn fig1_cases_all_present() {
        let (tax, names) = fig1();
        let large = fig1_large(&names);
        // Tiny threshold admits every structurally valid candidate.
        let (cands, stats) = candidates_of(&tax, &large, 1e-9);
        let sets: Vec<Vec<String>> = cands.iter().map(|c| names_of(&tax, c)).collect();
        let has = |a: &str, b: &str| {
            let mut want = vec![a.to_string(), b.to_string()];
            want.sort();
            sets.contains(&want)
        };
        // Case 1 (children of both C and G): {D,J},{D,K},{E,J},{E,K}.
        assert!(has("D", "J") && has("D", "K") && has("E", "J") && has("E", "K"));
        // Case 2 (one side's children): {C,J},{C,K},{G,D},{G,E}.
        assert!(has("C", "J") && has("C", "K") && has("G", "D") && has("G", "E"));
        // Case 3 (siblings): {C,H},{C,I},{B,G}.
        assert!(has("C", "H") && has("C", "I") && has("B", "G"));
        // Excluded shapes: all-sibling {B,H}, ancestor {A,G}, child+sibling
        // mixes like {D,H}.
        assert!(!has("B", "H"));
        assert!(!has("A", "G"));
        assert!(!has("D", "H"));
        // Exactly the 11 candidates above.
        assert_eq!(cands.len(), 11);
        assert_eq!(stats.seeds, 1);
        assert_eq!(stats.unique, 11);
        assert_eq!(stats.rejected_small_item, 0);
    }

    #[test]
    fn fig1_expected_support_formulas() {
        let (tax, names) = fig1();
        let large = fig1_large(&names);
        let (cands, _) = candidates_of(&tax, &large, 1e-9);
        let expected_of = |a: &str, b: &str| {
            cands
                .iter()
                .find(|c| {
                    let mut want = vec![a.to_string(), b.to_string()];
                    want.sort();
                    names_of(&tax, c) == want
                })
                .map(|c| c.expected)
                .unwrap()
        };
        // Case 1: E[DJ] = sup(CG)·sup(D)/sup(C)·sup(J)/sup(G)
        //              = 800·(1200/2500)·(900/2000) = 172.8.
        assert!((expected_of("D", "J") - 172.8).abs() < 1e-9);
        // Case 2: E[CJ] = sup(CG)·sup(J)/sup(G) = 800·0.45 = 360.
        assert!((expected_of("C", "J") - 360.0).abs() < 1e-9);
        // Case 3: E[CH] = sup(CG)·sup(H)/sup(G) = 800·0.8 = 640.
        assert!((expected_of("C", "H") - 640.0).abs() < 1e-9);
        // Case 3 other side: E[BG] = 800·sup(B)/sup(C) = 800·0.6 = 480.
        assert!((expected_of("B", "G") - 480.0).abs() < 1e-9);
    }

    #[test]
    fn threshold_prunes_low_expectation_candidates() {
        let (tax, names) = fig1();
        let large = fig1_large(&names);
        // minsup 100 · min_ri 4.0 -> threshold 400: keeps only E >= 400.
        let (cands, stats) = candidates_of(&tax, &large, 4.0);
        for c in &cands {
            assert!(c.expected >= 400.0);
        }
        // Low-expectation combinations are either rejected at admission or
        // cut before assembly by the expectation bound.
        assert!(stats.rejected_low_expected + stats.pruned > 0);
        assert!(cands.len() < 11);
    }

    #[test]
    fn large_candidates_are_rejected() {
        let (tax, names) = fig1();
        let mut large = fig1_large(&names);
        // Make {C, H} itself large: it must disappear from the candidates.
        large.insert(Itemset::from_unsorted(vec![names["C"], names["H"]]), 700);
        let (cands, stats) = candidates_of(&tax, &large, 1e-9);
        let sets: Vec<Vec<String>> = cands.iter().map(|c| names_of(&tax, c)).collect();
        let mut ch = vec!["C".to_string(), "H".to_string()];
        ch.sort();
        assert!(!sets.contains(&ch));
        assert!(stats.rejected_large >= 1);
        // {C,H} large also seeds its own candidates (children of H? none;
        // siblings of C -> {B,H}? that's case 3 on seed {C,H}).
        assert!(stats.seeds == 2);
    }

    #[test]
    fn small_items_block_candidates_without_compression() {
        let (tax, names) = fig1();
        let mut large = LargeItemsets::new(10_000, 100);
        // Only C, G, J large among the relevant items; D, E, K, B, H, I small.
        for (name, sup) in [("C", 2500u64), ("G", 2000), ("J", 900)] {
            large.insert(Itemset::singleton(names[name]), sup);
        }
        large.insert(Itemset::from_unsorted(vec![names["C"], names["G"]]), 800);
        let (cands, _) = candidates_of(&tax, &large, 1e-9);
        // Only {C, J} survives: every other option involves a small item.
        assert_eq!(cands.len(), 1);
        assert_eq!(names_of(&tax, &cands[0]), vec!["C", "J"]);
    }

    #[test]
    fn compressed_and_uncompressed_generation_agree() {
        let (tax, names) = fig1();
        let mut large = fig1_large(&names);
        // Drop two items from large to make compression meaningful.
        let mut pruned = LargeItemsets::new(10_000, 100);
        for (set, sup) in large.iter() {
            let drop = set.contains(names["K"]) || set.contains(names["I"]);
            if !drop {
                pruned.insert(set.clone(), sup);
            }
        }
        large = pruned;

        let (mut a, _) = candidates_of(&tax, &large, 1e-9);

        let keep: negassoc_taxonomy::fxhash::FxHashSet<ItemId> = tax
            .items()
            .filter(|&i| large.support_of(&[i]).is_some())
            .collect();
        let filtered = FilteredTaxonomy::new(&tax, &keep);
        let gene = CandidateGenerator::with_compressed(&filtered, &large, 1e-9);
        let mut set = CandidateSet::new();
        gene.extend_from_level(2, &mut set).unwrap();
        let (mut b, stats_b) = set.into_candidates();
        assert_eq!(stats_b.rejected_small_item, 0);

        let key = |c: &NegativeCandidate| c.itemset.clone();
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.itemset, y.itemset);
            assert!((x.expected - y.expected).abs() < 1e-9);
        }
    }

    #[test]
    fn dedup_keeps_max_expectation() {
        // Two seeds produce the same candidate with different expectations:
        // seed {C,G} yields {C,H} via case 3; seed {A,F} (parents) yields
        // {C,H} via case 1.
        let (tax, names) = fig1();
        let mut large = fig1_large(&names);
        large.insert(Itemset::from_unsorted(vec![names["A"], names["F"]]), 3000);
        let (cands, stats) = candidates_of(&tax, &large, 1e-9);
        let ch = cands
            .iter()
            .find(|c| names_of(&tax, c) == vec!["C".to_string(), "H".to_string()])
            .unwrap();
        // Via {C,G}: 800·sup(H)/sup(G) = 640.
        // Via {A,F}: 3000·(sup(C)/sup(A))·(sup(H)/sup(F))
        //          = 3000·0.625·0.32 = 600.
        // Max kept: 640.
        assert!((ch.expected - 640.0).abs() < 1e-9);
        assert!(stats.merged > 0);
    }

    #[test]
    fn sibling_replacement_colliding_with_member_is_rejected() {
        // Seed {G, H}: replacing H by its sibling G collides with the other
        // member -> candidate of reduced size must be rejected.
        let (tax, names) = fig1();
        let mut large = fig1_large(&names);
        large.insert(Itemset::from_unsorted(vec![names["G"], names["H"]]), 500);
        let (cands, stats) = candidates_of(&tax, &large, 1e-9);
        for c in &cands {
            assert_eq!(c.itemset.len(), 2);
        }
        assert!(stats.rejected_related > 0);
    }
}
