//! Property test: the optimized candidate generator agrees with a direct
//! transliteration of the paper's §2.1.1 definition.
//!
//! The reference implementation below enumerates Cases 1–3 exactly as the
//! paper words them (one case at a time, no shared machinery with the
//! production code) and applies the admission checks in definition order.
//! Agreement on random inputs pins both the candidate sets and the
//! max-expectation deduplication. The reference also counts every raw
//! combination it enumerates: the production generator cuts combinations
//! whose expectation bound misses the threshold, and must account for each
//! one exactly once, as enumerated or as cut.

use negassoc::candidates::{CandidateGenerator, CandidateSet, CandidateStats, NegativeCandidate};
use negassoc::expected::candidate_threshold;
use negassoc::substitutes::SubstituteKnowledge;
use negassoc_apriori::{Itemset, LargeItemsets};
use negassoc_taxonomy::fxhash::{FxHashMap, FxHashSet};
use negassoc_taxonomy::{FilteredTaxonomy, ItemId, Taxonomy, TaxonomyBuilder};
use proptest::prelude::*;

/// What the reference derives: the candidates with their (max) expected
/// supports, and the number of raw combinations enumerated.
struct Reference {
    candidates: FxHashMap<Itemset, f64>,
    combinations: u64,
}

/// Reference: all candidates derivable from `seed` per the paper's cases,
/// with their expected supports (max over derivations). Members of a
/// substitute group count as extra siblings (§4.1).
fn reference_candidates(
    tax: &Taxonomy,
    large: &LargeItemsets,
    min_ri: f64,
    subs: Option<&SubstituteKnowledge>,
) -> Reference {
    let threshold = candidate_threshold(large.min_support_count(), min_ri);
    let mut out: FxHashMap<Itemset, f64> = FxHashMap::default();
    let mut combinations = 0u64;
    let is_large_item = |i: ItemId| large.support_of(&[i]).is_some();
    let sup1 = |i: ItemId| large.support_of(&[i]).unwrap() as f64;

    let mut seeds: Vec<(Itemset, u64)> = Vec::new();
    for k in 2..=large.max_level() {
        for (set, sup) in large.level(k) {
            seeds.push((set.clone(), sup));
        }
    }

    for (seed, seed_sup) in seeds {
        let items = seed.items();
        let k = items.len();
        // Enumerate every assignment: per position either keep the member,
        // replace with one of its (large) children, or replace with one of
        // its (large) siblings — but never mix children and siblings in one
        // candidate, never replace nothing, and never replace everything
        // with siblings.
        #[derive(Clone, Copy, PartialEq)]
        enum Mode {
            Children,
            Siblings,
        }
        for mode in [Mode::Children, Mode::Siblings] {
            for mask in 1u32..(1 << k) {
                if mode == Mode::Siblings && mask == (1 << k) - 1 {
                    continue; // all-sibling candidates are excluded
                }
                // Option lists per masked position.
                let mut option_lists: Vec<Vec<ItemId>> = Vec::new();
                let mut feasible = true;
                for (pos, &member) in items.iter().enumerate() {
                    if mask & (1 << pos) == 0 {
                        continue;
                    }
                    let opts: Vec<ItemId> = match mode {
                        Mode::Children => tax
                            .children(member)
                            .iter()
                            .copied()
                            .filter(|&c| is_large_item(c))
                            .collect(),
                        Mode::Siblings => {
                            let mut v: Vec<ItemId> =
                                tax.siblings(member).filter(|&s| is_large_item(s)).collect();
                            for s in subs.into_iter().flat_map(|k| k.substitutes_of(member)) {
                                if is_large_item(s) && !v.contains(&s) {
                                    v.push(s);
                                }
                            }
                            v
                        }
                    };
                    if opts.is_empty() {
                        feasible = false;
                        break;
                    }
                    option_lists.push(opts);
                }
                if !feasible {
                    continue;
                }
                // Cartesian product, recursively.
                let positions: Vec<usize> = (0..k).filter(|p| mask & (1 << p) != 0).collect();
                let mut choice = vec![0usize; positions.len()];
                loop {
                    combinations += 1;
                    let mut cand_items = items.to_vec();
                    let mut expected = seed_sup as f64;
                    for (slot, &pos) in positions.iter().enumerate() {
                        let repl = option_lists[slot][choice[slot]];
                        expected *= sup1(repl) / sup1(items[pos]);
                        cand_items[pos] = repl;
                    }
                    let candidate = Itemset::from_unsorted(cand_items);
                    let distinct = candidate.len() == k;
                    let related = candidate.items().iter().enumerate().any(|(i, &a)| {
                        candidate.items()[i + 1..]
                            .iter()
                            .any(|&b| tax.related(a, b))
                    });
                    if distinct && !related && expected >= threshold && !large.contains(&candidate)
                    {
                        let e = out.entry(candidate).or_insert(f64::MIN);
                        if expected > *e {
                            *e = expected;
                        }
                    }
                    // Next combination.
                    let mut slot = positions.len();
                    let done = loop {
                        if slot == 0 {
                            break true;
                        }
                        slot -= 1;
                        choice[slot] += 1;
                        if choice[slot] < option_lists[slot].len() {
                            break false;
                        }
                        choice[slot] = 0;
                    };
                    if done {
                        break;
                    }
                }
            }
        }
    }
    Reference {
        candidates: out,
        combinations,
    }
}

/// Deterministic pseudo-random numbers from a proptest-drawn seed.
fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        state >> 33
    }
}

/// Random world: a 2–3 level taxonomy plus random large itemsets with
/// consistent supports (subset supports >= superset supports), up to size
/// 3. With `closed`, every large leaf's category is large too, as in real
/// data (a category's support covers its children's); otherwise largeness
/// is drawn per item, which only the uncompressed generator is defined on.
fn arb_world() -> impl Strategy<Value = (Taxonomy, LargeItemsets)> {
    (
        prop::collection::vec(2usize..4, 2..4), // children per root category
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(|(shape, seed, closed)| {
            let mut b = TaxonomyBuilder::new();
            let mut leaves = Vec::new();
            for (ci, &n) in shape.iter().enumerate() {
                let cat = b.add_root(&format!("c{ci}"));
                for li in 0..n {
                    leaves.push(b.add_child(cat, &format!("l{ci}-{li}")).unwrap());
                }
            }
            let tax = b.build();

            let mut next = lcg(seed);
            let mut large = LargeItemsets::new(100_000, 100);
            // Singles: a random large subset of all items (categories get
            // higher supports than leaves for plausibility).
            let mut is_large: Vec<bool> = tax.items().map(|_| next() % 4 != 0).collect();
            if closed {
                for &leaf in &leaves {
                    if is_large[leaf.index()] {
                        let cat = tax.parent(leaf).unwrap();
                        is_large[cat.index()] = true;
                    }
                }
            }
            let mut large_items: Vec<ItemId> = Vec::new();
            for id in tax.items() {
                if is_large[id.index()] {
                    let base = if tax.is_leaf(id) { 200 } else { 2_000 };
                    large.insert(Itemset::singleton(id), base + next() % 1_000);
                    large_items.push(id);
                }
            }
            // Pairs: random unrelated large pairs.
            let mut pair_support: FxHashMap<(ItemId, ItemId), u64> = FxHashMap::default();
            for (i, &a) in large_items.iter().enumerate() {
                for &b in &large_items[i + 1..] {
                    if tax.related(a, b) || next() % 3 != 0 {
                        continue;
                    }
                    let sup = 120 + next() % 300;
                    large.insert(Itemset::from_unsorted(vec![a, b]), sup);
                    pair_support.insert((a, b), sup);
                }
            }
            // Triples: some of those whose three pairs are all large, at
            // most as frequent as the rarest pair.
            for (i, &a) in large_items.iter().enumerate() {
                for (j, &b) in large_items.iter().enumerate().skip(i + 1) {
                    for &c in &large_items[j + 1..] {
                        let pairs = [(a, b), (a, c), (b, c)].map(|p| pair_support.get(&p));
                        let [Some(&ab), Some(&ac), Some(&bc)] = pairs else {
                            continue;
                        };
                        if next() % 2 != 0 {
                            continue;
                        }
                        let rarest = ab.min(ac).min(bc);
                        let sup = 100 + next() % (rarest - 99);
                        large.insert(Itemset::from_unsorted(vec![a, b, c]), sup);
                    }
                }
            }
            (tax, large)
        })
}

/// A world where Case 3 ratios exceed 1 in three positions at once: four
/// departments of three leaves, a large 4-itemset seed of one leaf from
/// each, every other leaf more frequent than the seed's members, and two
/// cross-department substitute groups.
fn arb_substitute_world() -> impl Strategy<Value = (Taxonomy, LargeItemsets, SubstituteKnowledge)> {
    any::<u64>().prop_map(|seed| {
        let mut b = TaxonomyBuilder::new();
        let mut leaf = Vec::new();
        for d in 0..4 {
            let dept = b.add_root(&format!("d{d}"));
            let row: Vec<ItemId> = (0..3)
                .map(|l| b.add_child(dept, &format!("d{d}-{l}")).unwrap())
                .collect();
            leaf.push(row);
        }
        let tax = b.build();

        let mut next = lcg(seed);
        let mut large = LargeItemsets::new(100_000, 100);
        let members: Vec<ItemId> = leaf.iter().map(|row| row[0]).collect();
        for id in tax.items() {
            let sup = if !tax.is_leaf(id) {
                6_000 + next() % 1_000
            } else if members.contains(&id) {
                150 + next() % 150
            } else {
                300 + next() % 1_200
            };
            large.insert(Itemset::singleton(id), sup);
        }
        // Every nonempty subset of the seed of size >= 2, each at most as
        // frequent as its rarest member, shrinking with size.
        for mask in 1u32..16 {
            let picked: Vec<ItemId> = (0..4)
                .filter(|&p| mask & (1 << p) != 0)
                .map(|p| members[p])
                .collect();
            if picked.len() >= 2 {
                let sup = 100 + (4 - picked.len() as u64) * 10 + next() % 10;
                large.insert(Itemset::from_unsorted(picked), sup);
            }
        }
        let mut subs = SubstituteKnowledge::new();
        subs.add_group([leaf[0][0], leaf[1][1]]);
        subs.add_group([leaf[2][0], leaf[3][2], leaf[0][2]]);
        (tax, large, subs)
    })
}

/// Run a generator over every level of `large`.
fn generate(
    generator: &CandidateGenerator<'_>,
    large: &LargeItemsets,
) -> (Vec<NegativeCandidate>, CandidateStats) {
    let mut set = CandidateSet::new();
    for k in 2..=large.max_level() {
        generator.extend_from_level(k, &mut set).unwrap();
    }
    set.into_candidates()
}

/// The compressed view of `tax`: every large item kept.
fn compressed<'t>(tax: &'t Taxonomy, large: &LargeItemsets) -> FilteredTaxonomy<'t> {
    let keep: FxHashSet<ItemId> = tax
        .items()
        .filter(|&i| large.support_of(&[i]).is_some())
        .collect();
    FilteredTaxonomy::new(tax, &keep)
}

/// Every large item's parent is large (the compressed taxonomy then keeps
/// exactly the large items).
fn upward_closed(tax: &Taxonomy, large: &LargeItemsets) -> bool {
    tax.items().all(|i| {
        large.support_of(&[i]).is_none()
            || tax
                .parent(i)
                .map_or(true, |p| large.support_of(&[p]).is_some())
    })
}

/// Check one generator run against the reference: same candidates, same
/// expectations, every raw combination accounted for exactly once.
fn check_against(got: &[NegativeCandidate], stats: &CandidateStats, reference: &Reference) {
    assert_eq!(
        got.len(),
        reference.candidates.len(),
        "candidate sets differ in size: got {:?}, want {:?}",
        got.iter().map(|c| c.itemset.clone()).collect::<Vec<_>>(),
        reference.candidates.keys().collect::<Vec<_>>()
    );
    for c in got {
        let want = reference.candidates.get(&c.itemset);
        assert!(want.is_some(), "unexpected candidate {:?}", c.itemset);
        assert!(
            (c.expected - want.unwrap()).abs() < 1e-9,
            "expectation mismatch for {:?}: got {}, want {}",
            c.itemset,
            c.expected,
            want.unwrap()
        );
    }
    assert_eq!(
        stats.generated + stats.pruned,
        reference.combinations,
        "enumerated {} + cut {} != raw combinations {}",
        stats.generated,
        stats.pruned,
        reference.combinations
    );
}

/// Deterministic guard against vacuity: a world where candidates certainly
/// exist, checked through the same reference.
#[test]
fn reference_agrees_on_a_rich_world() {
    let mut b = TaxonomyBuilder::new();
    let c0 = b.add_root("c0");
    let a = b.add_child(c0, "a").unwrap();
    let a2 = b.add_child(c0, "a2").unwrap();
    let c1 = b.add_root("c1");
    let x = b.add_child(c1, "x").unwrap();
    let y = b.add_child(c1, "y").unwrap();
    let tax = b.build();

    let mut large = LargeItemsets::new(100_000, 100);
    for (i, s) in [
        (c0, 3000u64),
        (a, 1500),
        (a2, 1200),
        (c1, 2800),
        (x, 1400),
        (y, 1100),
    ] {
        large.insert(Itemset::singleton(i), s);
    }
    large.insert(Itemset::from_unsorted(vec![c0, c1]), 900);
    large.insert(Itemset::from_unsorted(vec![a, x]), 500);

    let reference = reference_candidates(&tax, &large, 0.5, None);
    assert!(
        reference.candidates.len() >= 5,
        "expected a rich candidate set, got {:?}",
        reference.candidates.keys().collect::<Vec<_>>()
    );

    let (got, stats) = generate(&CandidateGenerator::new(&tax, &large, 0.5), &large);
    assert_eq!(got.len(), reference.candidates.len());
    for c in &got {
        let want = reference.candidates[&c.itemset];
        assert!((c.expected - want).abs() < 1e-9, "{:?}", c.itemset);
    }
    assert_eq!(stats.generated + stats.pruned, reference.combinations);
}

/// A candidate whose expected support equals the threshold exactly must
/// survive the cut: the bound of its own branch is its `E`.
#[test]
fn expectation_exactly_at_the_threshold_survives() {
    let mut b = TaxonomyBuilder::new();
    let c0 = b.add_root("c0");
    let a = b.add_child(c0, "a").unwrap();
    let a2 = b.add_child(c0, "a2").unwrap();
    let c1 = b.add_root("c1");
    let x = b.add_child(c1, "x").unwrap();
    let y = b.add_child(c1, "y").unwrap();
    let tax = b.build();

    // Every ratio is a power of two, so each E below is exact:
    // E[a,x] = 800·(1000/2000)·(800/1600) = 200 = 100 · MinRI 2.0.
    let mut large = LargeItemsets::new(100_000, 100);
    for (i, s) in [
        (c0, 2000u64),
        (a, 1000),
        (a2, 500),
        (c1, 1600),
        (x, 800),
        (y, 400),
    ] {
        large.insert(Itemset::singleton(i), s);
    }
    large.insert(Itemset::from_unsorted(vec![c0, c1]), 800);
    let min_ri = 2.0;

    for (got, stats) in [
        generate(&CandidateGenerator::new(&tax, &large, min_ri), &large),
        generate(
            &CandidateGenerator::with_compressed(&compressed(&tax, &large), &large, min_ri),
            &large,
        ),
    ] {
        let e = |items: Vec<ItemId>| {
            let want = Itemset::from_unsorted(items);
            got.iter().find(|c| c.itemset == want).map(|c| c.expected)
        };
        // Case 1: {a,x} sits on the threshold; {a,y}, {a2,x} (100) and
        // {a2,y} (50) fall below it and are cut unassembled.
        assert_eq!(e(vec![a, x]), Some(200.0));
        assert_eq!(e(vec![a, y]), None);
        assert_eq!(e(vec![a2, x]), None);
        assert_eq!(e(vec![a2, y]), None);
        // Case 2: {a2,c1} and {c0,y} also land exactly on it.
        assert_eq!(e(vec![a2, c1]), Some(200.0));
        assert_eq!(e(vec![c0, y]), Some(200.0));
        assert_eq!(e(vec![a, c1]), Some(400.0));
        assert_eq!(e(vec![c0, x]), Some(400.0));
        assert_eq!(got.len(), 5);
        assert_eq!((stats.generated, stats.pruned), (5, 3));
        assert_eq!(stats.rejected_low_expected, 0);
    }
    let reference = reference_candidates(&tax, &large, min_ri, None);
    assert_eq!(reference.candidates.len(), 5);
    assert_eq!(reference.combinations, 8);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn generator_matches_papers_definition(
        (tax, large) in arb_world(),
        ri_pct in 5u64..400,
    ) {
        let min_ri = ri_pct as f64 / 100.0;
        let reference = reference_candidates(&tax, &large, min_ri, None);

        let (got, stats) = generate(&CandidateGenerator::new(&tax, &large, min_ri), &large);
        check_against(&got, &stats, &reference);

        // The compressed generator is defined on upward-closed worlds.
        if upward_closed(&tax, &large) {
            let filtered = compressed(&tax, &large);
            let generator = CandidateGenerator::with_compressed(&filtered, &large, min_ri);
            let (got, stats) = generate(&generator, &large);
            check_against(&got, &stats, &reference);
        }
    }

    #[test]
    fn cut_is_exact_when_substitute_ratios_exceed_one(
        (tax, large, subs) in arb_substitute_world(),
        ri_pct in 30u64..800,
    ) {
        let min_ri = ri_pct as f64 / 100.0;
        let reference = reference_candidates(&tax, &large, min_ri, Some(&subs));

        let generator = CandidateGenerator::new(&tax, &large, min_ri).with_substitutes(&subs);
        let (got, stats) = generate(&generator, &large);
        check_against(&got, &stats, &reference);

        let filtered = compressed(&tax, &large);
        let generator = CandidateGenerator::with_compressed(&filtered, &large, min_ri)
            .with_substitutes(&subs);
        let (got, stats) = generate(&generator, &large);
        check_against(&got, &stats, &reference);
    }
}
